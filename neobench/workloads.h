// The benchmark's workloads. Each runs its set-up several times, measures for
// args.seconds, checks every output against its reference, and fills every end-to-end
// metric (untraced) or every per-layer metric (traced, when `log` is enabled).
#ifndef NEOBENCH_WORKLOADS_H_
#define NEOBENCH_WORKLOADS_H_

#include <string>

#include "neobench/common.h"

namespace neobench {

struct RunResult {
  Metrics metrics;
  Tally tally;
  std::string details_json;  // workload-specific record fields (one JSON object)
  std::string error;         // non-empty: the run could not measure; print no result
};

// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;

// resnet50-f32 / resnet50-int8: ResNet-50 at 224x224, batch 1, closed loop.
RunResult RunResnet(const Args& args, bool int8, SpanLog* log);

// serve-mix: tiny-cnn / transformer-encoder requests, open loop, one InferenceServer.
RunResult RunServeMix(const Args& args, SpanLog* log);

// Prints the seeded serve-mix arrival schedule and closed-loop model sequence as
// digests, one line per phase (the determinism test compares them across runs).
void PrintServeSchedule(const Args& args);

}  // namespace neobench

#endif  // NEOBENCH_WORKLOADS_H_
