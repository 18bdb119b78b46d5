// resnet50-f32 and resnet50-int8: the paper's Table 2 view. ResNet-50 at 224x224,
// batch 1, compiled with NeoCpuOptions(Target::Host()) (plus forced quantization for
// int8), run in a closed loop that alternates two legs, five times each:
//   * light, 60% of the window: one caller on one NeoThreadPool over every core;
//     p50_ms, p90_ms and the light-load point light_p50_ms / light_p99_ms;
//   * heavy, 40%: two callers, each on its own pool over half the cores, the layout
//     serving partitions use; heavy_p50_ms / heavy_p99_ms, and max_rate_rps, the
//     inferences per second the pair completes.
#include <memory>
#include <string>
#include <thread>

#include "neobench/layers.h"
#include "neobench/workloads.h"

namespace neobench {
namespace {

using neocpu::CompiledModel;
using neocpu::NeoThreadPool;

constexpr int kInputs = 2;        // seeded inputs (each needs a reference run)
constexpr int kMinRuns = 1;       // per caller and block, however short the window
constexpr int kBlocks = 5;        // light/heavy alternations per window
constexpr double kLightShare = 0.6;

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

// One checked inference; returns its latency, or kMissedMs when the output is wrong.
double TimedRun(const CompiledModel& model, const InputPool& pool, std::size_t k,
                neocpu::ThreadEngine* engine, Tolerance tolerance, SpanLog* log,
                std::uint64_t request, Tally* tally) {
  const Clock::time_point start = Clock::now();
  Tensor out;
  {
    ScopedSpan span(log, "core.run", request);
    out = model.Run(pool.inputs[k], engine);
  }
  const double ms = MsBetween(start, Clock::now());
  ++tally->attempted;
  if (!Matches(out, pool.references[k], tolerance)) {
    ++tally->wrong;
    return kMissedMs;
  }
  return ms;
}

}  // namespace

RunResult RunResnet(const Args& args, bool int8, SpanLog* log) {
  RunResult result;
  Metrics& m = result.metrics;
  const bool traced = log->enabled();
  const std::int64_t image = args.smoke ? 64 : 0;
  const int nproc = neocpu::HostCpuInfo().physical_cores;
  const Tolerance tolerance = int8 ? Tolerance::kInt8 : Tolerance::kF32;
  auto pool = std::make_unique<NeoThreadPool>();

  // Inputs and references, untimed.
  InputPool inputs;
  {
    const Graph reference_model = BuildTraced("resnet50", image, nullptr, 0, 0);
    inputs = MakeInputPool(reference_model, kInputs, SubSeed(args.seed, "resnet50-inputs"),
                           pool.get(), args.corrupt_reference);
  }

  neocpu::CompileOptions options = neocpu::NeoCpuOptions(neocpu::Target::Host());
  options.quantize = int8;
  options.force_quantize = int8;

  // Set-up: BuildModel to the first checked answer, repeated; the last model is kept.
  std::vector<double> setup_s;
  std::vector<SetupRecord> records;
  CompiledModel compiled;
  for (int r = 0; r < kSetupReps; ++r) {
    compiled = CompiledModel();
    const std::uint64_t request = kSetupIds + static_cast<std::uint64_t>(r);
    const Clock::time_point start = Clock::now();
    ScopedSpan setup(log, "setup", request);
    const Graph model = BuildTraced("resnet50", image, log, request, setup.id());
    compiled = CompileTraced(model, options, log, request, setup.id());
    for (int warm = 0; warm < 2; ++warm) {
      compiled.Run(inputs.inputs[0], pool.get());
    }
    const Tensor first = compiled.Run(inputs.inputs[0], pool.get());
    ++result.tally.attempted;
    if (!Matches(first, inputs.references[0], tolerance)) {
      ++result.tally.wrong;
    }
    setup_s.push_back(MsBetween(start, Clock::now()) / 1e3);
    if (traced) {
      SetupRecord record;
      record.Add(compiled.stats());
      record.nodes_fused = FuseTraced(model, log, request, setup.id());
      records.push_back(record);
    }
  }

  // The window alternates light and heavy blocks, so both legs sample the whole of it
  // and a slow stretch of the host lands in both rather than in one.
  const int half = nproc >= 2 ? nproc / 2 : 1;
  std::vector<double> light, light_traced, light_untraced;
  std::vector<double> heavy[2];  // per caller
  double heavy_s = 0.0;
  std::uint64_t light_runs = 0;
  std::uint64_t heavy_runs[2] = {0, 0};
  for (int block = 0; block < kBlocks; ++block) {
    // Light: one caller over every core. Traced runs alternate traced and untraced
    // inferences so the tracing overhead is measured under the same conditions.
    if (pool == nullptr) {
      pool = std::make_unique<NeoThreadPool>();
    }
    const Clock::time_point light_end =
        Clock::now() + Seconds(args.seconds * kLightShare / kBlocks);
    for (int i = 0; i < kMinRuns || Clock::now() < light_end; ++i, ++light_runs) {
      const bool trace_this = traced && light_runs % 2 == 0;
      const double ms =
          TimedRun(compiled, inputs, light_runs % kInputs, pool.get(), tolerance,
                   trace_this ? log : nullptr, kRunIds + light_runs, &result.tally);
      light.push_back(ms);
      (trace_this ? light_traced : light_untraced).push_back(ms);
    }
    pool.reset();  // idle workers spin; keep them off the heavy callers' cores

    // Heavy: two callers, each on its own pool over half the cores.
    Tally heavy_tally[2];
    const Clock::time_point heavy_start = Clock::now();
    const Clock::time_point heavy_end =
        heavy_start + Seconds(args.seconds * (1.0 - kLightShare) / kBlocks);
    std::vector<std::thread> callers;
    for (int c = 0; c < 2; ++c) {
      callers.emplace_back([&, c] {
        NeoThreadPool part(half, nproc >= 2, c * half);
        for (int j = 0; j < kMinRuns || Clock::now() < heavy_end; ++j, ++heavy_runs[c]) {
          const std::size_t k = (static_cast<std::size_t>(c) + heavy_runs[c]) % kInputs;
          heavy[c].push_back(TimedRun(compiled, inputs, k, &part, tolerance, log,
                                      kRunIds + 500000 + 100000 * c + heavy_runs[c],
                                      &heavy_tally[c]));
        }
      });
    }
    for (std::thread& caller : callers) {
      caller.join();
    }
    heavy_s += MsBetween(heavy_start, Clock::now()) / 1e3;
    result.tally.Add(heavy_tally[0]);
    result.tally.Add(heavy_tally[1]);
  }
  std::vector<double> heavy_all = heavy[0];
  heavy_all.insert(heavy_all.end(), heavy[1].begin(), heavy[1].end());

  m["light_p99_ms"] = WindowedP99(light);
  if (!traced) {
    m["setup_s"] = Median(setup_s);
    m["p50_ms"] = Percentile(light, 0.5);
    m["p90_ms"] = Percentile(light, 0.9);
    m["light_p50_ms"] = Percentile(light, 0.5);
    // The mean of the callers' medians: the two halves of the host need not run at
    // one speed, and the median of the pooled samples would fall between them.
    m["heavy_p50_ms"] = (Percentile(heavy[0], 0.5) + Percentile(heavy[1], 0.5)) / 2;
    m["heavy_p99_ms"] = WindowedP99(heavy_all);
    m["max_rate_rps"] = static_cast<double>(heavy_all.size()) / heavy_s;
    m["peak_rss_mb"] = PeakRssMb();
  } else {
    AddSetupMetrics(*log, records, &m);
    const double untraced_p50 = Median(light_untraced);
    m["core.run_ms"] = Median(light_traced);
    m["trace.overhead_ms"] = Median(light_traced) - untraced_p50;
    m["tuning.predicted_over_measured"] = compiled.stats().predicted_cost_ms / untraced_p50;

    const int replays = args.smoke ? 1 : 3;
    ReplayWork work;
    OnOwnThread([&] {
      NeoThreadPool replay_pool;
      const std::uint64_t before = neocpu::TensorHeapAllocCount();
      for (int i = 0; i < replays; ++i) {
        compiled.Run(inputs.inputs[0], &replay_pool);
      }
      m["core.heap_allocs_per_run"] =
          static_cast<double>(neocpu::TensorHeapAllocCount() - before) / replays;
      for (int i = 0; i < replays; ++i) {
        const std::size_t k = static_cast<std::size_t>(i) % kInputs;
        const Tensor replayed = ReplayNodes(compiled, inputs.inputs[k], &replay_pool, log,
                                            kReplayIds + static_cast<std::uint64_t>(i),
                                            &work);
        ++result.tally.attempted;
        if (!Matches(replayed, compiled.Run(inputs.inputs[k], &replay_pool),
                     Tolerance::kF32)) {
          ++result.tally.wrong;
        }
      }
    });
    AddReplayMetrics(*log, replays, work, &m);
    TimeRuntime(log, compiled.stats().arena_bytes, args.smoke ? 200 : 2000);
    AddRuntimeMetrics(*log, &m);
    ZeroServeMetrics(&m);
  }

  const neocpu::CompileStats& stats = compiled.stats();
  const std::string details =
      "{\"light_samples\":" + std::to_string(light.size()) +
      ",\"heavy_samples\":" + std::to_string(heavy_all.size()) +
      ",\"heavy_workers_per_caller\":" + std::to_string(half) +
      ",\"setup_reps\":" + std::to_string(kSetupReps) +
      ",\"convs\":" + std::to_string(stats.num_convs) +
      ",\"quantized_convs\":" + std::to_string(stats.num_quantized_convs) +
      ",\"layout_transforms\":" + std::to_string(stats.num_layout_transforms) +
      ",\"predicted_cost_ms\":" + JsonNumber(stats.predicted_cost_ms) + "}";
  result.details_json = details;
  return result;
}

}  // namespace neobench
