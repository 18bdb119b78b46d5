#include "neobench/layers.h"

#include <functional>
#include <string>

#include "src/core/op_dispatch.h"
#include "src/graph/passes/passes.h"

namespace neobench {
namespace {

using neocpu::ConvKernelKind;
using neocpu::Node;
using neocpu::OpType;

constexpr double kMiB = 1024.0 * 1024.0;

constexpr const char* kConvFamilies[] = {"kernels.conv_direct", "kernels.conv_winograd",
                                         "kernels.conv_im2col", "kernels.conv_s8"};
constexpr const char* kOtherFamilies[] = {"kernels.quantize", "kernels.gemm",
                                          "kernels.mha",      "kernels.pool",
                                          "kernels.elementwise", "tensor.layout_transform"};

// The span name a node's kernel is charged to.
const char* FamilyOf(const Node& node) {
  switch (node.type) {
    case OpType::kConv2d:
      switch (node.attrs.kernel) {
        case ConvKernelKind::kWinograd:
          return "kernels.conv_winograd";
        case ConvKernelKind::kIm2col:
          return "kernels.conv_im2col";
        case ConvKernelKind::kNCHWcS8:
          return "kernels.conv_s8";
        case ConvKernelKind::kNCHWc:
        case ConvKernelKind::kDirectNCHW:
          return "kernels.conv_direct";
      }
      return "kernels.conv_direct";
    case OpType::kQuantize:
    case OpType::kDequantize:
      return "kernels.quantize";
    case OpType::kDense:
      return "kernels.gemm";
    case OpType::kMultiHeadAttention:
      return "kernels.mha";
    case OpType::kMaxPool:
    case OpType::kAvgPool:
    case OpType::kGlobalAvgPool:
      return "kernels.pool";
    case OpType::kLayoutTransform:
      return "tensor.layout_transform";
    default:
      return "kernels.elementwise";
  }
}

// Sum over every request of a name's self time.
double TotalSelfMs(const std::map<std::string, std::map<std::uint64_t, double>>& self,
                   const std::string& name) {
  double total = 0.0;
  auto it = self.find(name);
  if (it != self.end()) {
    for (const auto& [request, ms] : it->second) {
      total += ms;
    }
  }
  return total;
}

}  // namespace

void SetupRecord::Add(const neocpu::CompileStats& stats) {
  local_ms += stats.tuning_seconds * 1e3;
  global_ms += stats.search_seconds * 1e3;
  cache_hits += stats.tuning_cache_hits;
  cache_misses += stats.tuning_cache_misses;
  layout_transforms += stats.num_layout_transforms;
  arena_mb += static_cast<double>(stats.arena_bytes) / kMiB;
  naive_arena_mb += static_cast<double>(stats.naive_arena_bytes) / kMiB;
}

Graph BuildTraced(const std::string& name, std::int64_t image, SpanLog* log,
                  std::uint64_t request, std::uint64_t parent) {
  ScopedSpan span(log, "graph.build", request, parent);
  if (name == "resnet50" && image > 0) {
    return neocpu::BuildResNet(50, 1, image);
  }
  return neocpu::BuildModel(name);
}

int FuseTraced(const Graph& model, SpanLog* log, std::uint64_t request,
               std::uint64_t parent) {
  ScopedSpan span(log, "graph.fuse", request, parent);
  const Graph fused = neocpu::FuseOps(neocpu::SimplifyInference(model));
  return model.num_nodes() - fused.num_nodes();
}

neocpu::CompiledModel CompileTraced(const Graph& model,
                                    const neocpu::CompileOptions& options, SpanLog* log,
                                    std::uint64_t request, std::uint64_t parent) {
  ScopedSpan span(log, "core.compile", request, parent);
  return neocpu::Compile(model, options);
}

Tensor ReplayNodes(const neocpu::CompiledModel& model, const Tensor& input,
                   neocpu::ThreadEngine* engine, SpanLog* log, std::uint64_t request,
                   ReplayWork* work) {
  const Graph& graph = model.graph();
  ScopedSpan replay(log, "core.replay", request);
  // Release each value after its last reader, as the allocating executor does.
  std::vector<int> uses(static_cast<std::size_t>(graph.num_nodes()), 0);
  for (int id = 0; id < graph.num_nodes(); ++id) {
    for (int in : graph.node(id).inputs) {
      ++uses[static_cast<std::size_t>(in)];
    }
  }
  for (int out : graph.outputs()) {
    ++uses[static_cast<std::size_t>(out)];
  }
  std::vector<Tensor> values(static_cast<std::size_t>(graph.num_nodes()));
  std::vector<Tensor> inputs;
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    Tensor& value = values[static_cast<std::size_t>(id)];
    if (node.type == OpType::kInput) {
      value = input;
      continue;
    }
    if (node.type == OpType::kConstant) {
      value = node.payload;
      continue;
    }
    inputs.clear();
    for (int in : node.inputs) {
      inputs.push_back(values[static_cast<std::size_t>(in)]);
    }
    {
      ScopedSpan span(log, FamilyOf(node), request, replay.id());
      value = neocpu::ExecuteNode(node, inputs, engine);
    }
    if (node.type == OpType::kConv2d) {
      work->conv_flops += 2.0 * node.attrs.conv.Macs();
      double bytes = static_cast<double>(value.SizeBytes());
      for (const Tensor& in : inputs) {
        bytes += static_cast<double>(in.SizeBytes());
      }
      work->conv_bytes += bytes;
    } else if (node.type == OpType::kLayoutTransform) {
      work->transform_bytes += static_cast<double>(neocpu::TransformBytes(inputs[0]));
    }
    for (int in : node.inputs) {
      if (--uses[static_cast<std::size_t>(in)] == 0) {
        values[static_cast<std::size_t>(in)] = Tensor();
      }
    }
  }
  return values[static_cast<std::size_t>(graph.outputs().front())];
}

void TimeRuntime(SpanLog* log, std::size_t arena_bytes, int iterations) {
  const std::function<void(int, int)> empty = [](int, int) {};
  auto fork_join = [&](int workers, const char* name) {
    OnOwnThread([&] {
      neocpu::NeoThreadPool pool(workers);
      for (int i = 0; i < iterations / 10; ++i) {
        pool.ParallelRun(workers, empty);
      }
      for (int i = 0; i < iterations; ++i) {
        ScopedSpan span(log, name, kMicroIds + static_cast<std::uint64_t>(i));
        pool.ParallelRun(workers, empty);
      }
    });
  };
  fork_join(neocpu::HostCpuInfo().physical_cores, "runtime.fork_join");
  fork_join(2, "runtime.fork_join_2w");

  neocpu::ArenaPool arenas;
  for (int i = 0; i < iterations; ++i) {
    ScopedSpan span(log, "runtime.arena_lease", kMicroIds + static_cast<std::uint64_t>(i));
    neocpu::ArenaLease lease(nullptr, &arenas, arena_bytes);
  }
}

void AddSetupMetrics(const SpanLog& log, const std::vector<SetupRecord>& records,
                     Metrics* metrics) {
  const auto self = log.SelfMsByRequest();
  auto per_rep = [&](const std::string& name) {
    std::vector<double> out;
    auto it = self.find(name);
    for (std::size_t r = 0; r < records.size(); ++r) {
      double ms = 0.0;
      if (it != self.end()) {
        auto rep = it->second.find(kSetupIds + r);
        ms = rep != it->second.end() ? rep->second : 0.0;
      }
      out.push_back(ms);
    }
    return out;
  };
  const std::vector<double> compile_ms = per_rep("core.compile");
  std::vector<double> local, global, rest;
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
  for (std::size_t r = 0; r < records.size(); ++r) {
    local.push_back(records[r].local_ms);
    global.push_back(records[r].global_ms);
    rest.push_back(compile_ms[r] - records[r].local_ms - records[r].global_ms);
    hits += records[r].cache_hits;
    lookups += records[r].cache_hits + records[r].cache_misses;
  }
  Metrics& m = *metrics;
  m["graph.build_ms"] = Median(per_rep("graph.build"));
  m["graph.fuse_ms"] = Median(per_rep("graph.fuse"));
  m["graph.nodes_fused"] = records.back().nodes_fused;
  m["graph.layout_transforms"] = records.back().layout_transforms;
  m["tuning.local_ms"] = Median(local);
  m["tuning.global_ms"] = Median(global);
  m["tuning.cache_hit_ratio"] =
      lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  m["core.compile_ms"] = Median(compile_ms);
  m["core.compile_rest_ms"] = Median(rest);
  m["core.arena_mb"] = records.back().arena_mb;
  m["core.naive_arena_mb"] = records.back().naive_arena_mb;
}

void AddReplayMetrics(const SpanLog& log, int replays, const ReplayWork& work,
                      Metrics* metrics) {
  const auto self = log.SelfMsByRequest();
  const double n = replays > 0 ? replays : 1;
  Metrics& m = *metrics;
  double conv_ms = 0.0;
  for (const char* family : kConvFamilies) {
    const double total = TotalSelfMs(self, family);
    conv_ms += total;
    m[std::string(family) + "_ms"] = total / n;
  }
  for (const char* family : kOtherFamilies) {
    m[std::string(family) + "_ms"] = TotalSelfMs(self, family) / n;
  }
  m["core.replay_ms"] = Mean(log.DurationsMs("core.replay"));
  m["kernels.conv_gflops"] = conv_ms > 0.0 ? work.conv_flops / (conv_ms * 1e6) : 0.0;
  m["kernels.conv_mb"] = work.conv_bytes / n / kMiB;
  m["tensor.layout_transform_mb"] = work.transform_bytes / n / kMiB;
}

void AddRuntimeMetrics(const SpanLog& log, Metrics* metrics) {
  Metrics& m = *metrics;
  m["runtime.fork_join_us"] = Median(log.DurationsMs("runtime.fork_join")) * 1e3;
  m["runtime.fork_join_2w_us"] = Median(log.DurationsMs("runtime.fork_join_2w")) * 1e3;
  m["runtime.arena_lease_us"] = Median(log.DurationsMs("runtime.arena_lease")) * 1e3;
}

void ZeroServeMetrics(Metrics* metrics) {
  for (const char* name :
       {"serve.submit_us", "serve.server_p50_ms", "serve.server_p99_ms",
        "serve.mean_batch_size", "serve.batch_runs", "serve.shed_queue_full",
        "serve.shed_arena", "serve.retunes_in_window", "serve.generator_lag_ms"}) {
    (*metrics)[name] = 0.0;
  }
}

}  // namespace neobench
