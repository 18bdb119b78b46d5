// Per-layer measurements of the traced run. Each helper times calls into one library
// module from the benchmark's own code (no tracing inside src/), recording spans in a
// SpanLog, and the Add*Metrics functions turn those spans into the per-layer metrics.
#ifndef NEOBENCH_LAYERS_H_
#define NEOBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "neobench/common.h"

namespace neobench {

// Request-id ranges, so spans of different phases never share an id.
constexpr std::uint64_t kSetupIds = 1000;
constexpr std::uint64_t kRunIds = 1000000;
constexpr std::uint64_t kReplayIds = 100000000;
constexpr std::uint64_t kMicroIds = 200000000;
constexpr std::uint64_t kServeIds = 300000000;

// What one setup repetition compiled, summed over the workload's models.
struct SetupRecord {
  double local_ms = 0.0;   // CompileStats::tuning_seconds
  double global_ms = 0.0;  // CompileStats::search_seconds
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  int nodes_fused = 0;
  int layout_transforms = 0;
  double arena_mb = 0.0;
  double naive_arena_mb = 0.0;

  void Add(const neocpu::CompileStats& stats);
};

// src/graph: builds `name` under a "graph.build" span (image > 0 overrides ResNet-50's
// input size, for smoke runs).
Graph BuildTraced(const std::string& name, std::int64_t image, SpanLog* log,
                  std::uint64_t request, std::uint64_t parent);
// src/graph: SimplifyInference + FuseOps called directly under a "graph.fuse" span.
// Returns how many nodes the two passes removed.
int FuseTraced(const Graph& model, SpanLog* log, std::uint64_t request,
               std::uint64_t parent);
// src/core: Compile under a "core.compile" span.
neocpu::CompiledModel CompileTraced(const Graph& model,
                                    const neocpu::CompileOptions& options, SpanLog* log,
                                    std::uint64_t request, std::uint64_t parent);

// Computed (not measured) work of the replayed nodes, from their tensor shapes.
struct ReplayWork {
  double conv_flops = 0.0;       // 2 * MACs of every convolution
  double conv_bytes = 0.0;       // inputs (data, weights, bias) + output of every conv
  double transform_bytes = 0.0;  // TransformBytes of every runtime layout transform
};

// Replays `model.graph()` node by node through the public ExecuteNode (the allocating
// path) under one "core.replay" span, with one child span per node named by kernel
// family (kernels.conv_direct, kernels.gemm, tensor.layout_transform, ...). Returns the
// graph's first output.
Tensor ReplayNodes(const neocpu::CompiledModel& model, const Tensor& input,
                   neocpu::ThreadEngine* engine, SpanLog* log, std::uint64_t request,
                   ReplayWork* work);

// src/runtime: `iterations` empty ParallelRun regions on an nproc-worker pool
// ("runtime.fork_join") and on a 2-worker pool ("runtime.fork_join_2w"), and as many
// ArenaLease acquire/release pairs of `arena_bytes` ("runtime.arena_lease").
void TimeRuntime(SpanLog* log, std::size_t arena_bytes, int iterations);

void AddSetupMetrics(const SpanLog& log, const std::vector<SetupRecord>& records,
                     Metrics* metrics);
void AddReplayMetrics(const SpanLog& log, int replays, const ReplayWork& work,
                      Metrics* metrics);
void AddRuntimeMetrics(const SpanLog& log, Metrics* metrics);

// Per-layer metrics of modules a workload does not exercise (serve.* on the ResNet
// workloads) read 0.
void ZeroServeMetrics(Metrics* metrics);

}  // namespace neobench

#endif  // NEOBENCH_LAYERS_H_
