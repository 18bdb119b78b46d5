// neobench: one seeded benchmark of NeoCPU-Repro through its public API.
//
//   neobench --workload <resnet50-f32|resnet50-int8|serve-mix> --seed <n>
//            --seconds <s> --trace <0|1> [--smoke] [--corrupt-reference]
//            [--print-schedule] [--commit <id>] [--source-digest <hex>]
//            [--trace-out <path>]
//
// Prints a self-describing record line ("record {...}": host, ISA tiers, commit,
// seed, error rate, workload details), then, as the last line, one JSON object with
// keys correct / attempted / failed / metrics. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones and writes its spans to --trace-out.
// neobench/README.md describes the workloads and metrics; neobench/run.py builds this
// binary and is the command BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "neobench/workloads.h"
#include "src/kernels/conv_nchwc_int8.h"
#include "src/kernels/gemm_packed.h"
#include "src/kernels/gemm_packed_int8.h"

namespace neobench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list the same names and units as BENCHMARK.json (neobench/test_neobench.py
// checks it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"p50_ms", "ms"},       {"p90_ms", "ms"},
    {"light_p50_ms", "ms"}, {"heavy_p50_ms", "ms"}, {"heavy_p99_ms", "ms"},
    {"max_rate_rps", "1/s"}, {"peak_rss_mb", "MiB"},
};

// light_p99_ms is listed here, not above: its run-to-run spread on a 4-vCPU virtual
// machine (idle-cpu wake-ups of up to several ms at light load) is above the 0.25
// bound an end-to-end metric may have. Traced runs measure the same light step.

constexpr MetricDef kPerLayer[] = {
    {"graph.build_ms", "ms"},
    {"graph.fuse_ms", "ms"},
    {"graph.nodes_fused", "count"},
    {"graph.layout_transforms", "count"},
    {"tuning.local_ms", "ms"},
    {"tuning.global_ms", "ms"},
    {"tuning.cache_hit_ratio", "ratio"},
    {"tuning.predicted_over_measured", "ratio"},
    {"core.compile_ms", "ms"},
    {"core.compile_rest_ms", "ms"},
    {"core.arena_mb", "MiB"},
    {"core.naive_arena_mb", "MiB"},
    {"core.heap_allocs_per_run", "count"},
    {"core.run_ms", "ms"},
    {"core.replay_ms", "ms"},
    {"kernels.conv_direct_ms", "ms"},
    {"kernels.conv_winograd_ms", "ms"},
    {"kernels.conv_im2col_ms", "ms"},
    {"kernels.conv_s8_ms", "ms"},
    {"kernels.quantize_ms", "ms"},
    {"kernels.gemm_ms", "ms"},
    {"kernels.mha_ms", "ms"},
    {"kernels.pool_ms", "ms"},
    {"kernels.elementwise_ms", "ms"},
    {"kernels.conv_gflops", "GFLOP/s"},
    {"kernels.conv_mb", "MiB"},
    {"tensor.layout_transform_ms", "ms"},
    {"tensor.layout_transform_mb", "MiB"},
    {"runtime.fork_join_us", "us"},
    {"runtime.fork_join_2w_us", "us"},
    {"runtime.arena_lease_us", "us"},
    {"serve.submit_us", "us"},
    {"serve.server_p50_ms", "ms"},
    {"serve.server_p99_ms", "ms"},
    {"serve.mean_batch_size", "count"},
    {"serve.batch_runs", "count"},
    {"serve.shed_queue_full", "count"},
    {"serve.shed_arena", "count"},
    {"serve.retunes_in_window", "count"},
    {"serve.generator_lag_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"light_p99_ms", "ms"},
    {"error_rate", "ratio"},
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr, "neobench: %s\n", message);
  std::fprintf(stderr,
               "usage: neobench --workload <resnet50-f32|resnet50-int8|serve-mix> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] [--corrupt-reference] "
               "[--print-schedule] [--commit <id>] [--source-digest <hex>] "
               "[--trace-out <path>]\n");
  std::exit(2);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Host, ISA tiers and provenance: every record says what it was measured on.
std::string HostRecord(const Args& args, const RunResult& result) {
  const neocpu::CpuInfo& cpu = neocpu::HostCpuInfo();
  const neocpu::Target target = neocpu::Target::Host();
  std::string r = "{";
  r += "\"workload\":" + JsonString(args.workload);
  r += ",\"seed\":" + std::to_string(args.seed);
  r += ",\"seconds\":" + JsonNumber(args.seconds);
  r += ",\"trace\":" + std::string(args.trace ? "true" : "false");
  r += ",\"smoke\":" + std::string(args.smoke ? "true" : "false");
  r += ",\"commit\":" + JsonString(args.commit);
  r += ",\"source_digest\":" + JsonString(args.source_digest);
  r += ",\"host_brand\":" + JsonString(cpu.brand);
  r += ",\"nproc\":" + std::to_string(cpu.physical_cores);
  r += ",\"host_isa\":" + JsonString(neocpu::SimdIsaName(cpu.isa));
  r += ",\"host_fma\":" + std::string(cpu.has_fma ? "true" : "false");
  r += ",\"host_vnni\":" + std::string(cpu.has_vnni ? "true" : "false");
  r += ",\"target_lanes\":" + std::to_string(target.vector_lanes);
  r += ",\"target_fma_per_cycle\":" + std::to_string(target.fma_per_cycle);
  r += ",\"gemm_packed_isa\":" + JsonString(neocpu::GemmPackedIsaName());
  r += ",\"gemm_packed_s8_isa\":" + JsonString(neocpu::GemmPackedS8IsaName());
  r += ",\"conv_nchwc_s8_isa\":" + JsonString(neocpu::ConvNCHWcS8IsaName());
  r += ",\"attempted\":" + std::to_string(result.tally.attempted);
  r += ",\"shed\":" + std::to_string(result.tally.shed);
  r += ",\"failed\":" + std::to_string(result.tally.failed);
  r += ",\"wrong\":" + std::to_string(result.tally.wrong);
  r += ",\"error_rate\":" + JsonNumber(result.tally.error_rate());
  r += ",\"details\":" + (result.details_json.empty() ? "{}" : result.details_json);
  return r + "}";
}

Args Parse(int argc, char** argv) {
  Args args;
  bool print_schedule = false;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + flag).c_str());
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        Usage("--trace takes 0 or 1");
      }
      args.trace = v == "1";
      have_trace = true;
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--corrupt-reference") {
      args.corrupt_reference = true;
    } else if (flag == "--print-schedule") {
      print_schedule = true;
    } else if (flag == "--commit") {
      args.commit = value();
    } else if (flag == "--source-digest") {
      args.source_digest = value();
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (print_schedule) {
    if (!have_seed || !have_seconds) {
      Usage("--print-schedule needs --seed and --seconds");
    }
    PrintServeSchedule(args);
    std::exit(0);
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(args.seconds > 0.0) || args.seconds > 120.0) {
    Usage("--seconds must be in (0, 120]");
  }
  return args;
}

}  // namespace
}  // namespace neobench

int main(int argc, char** argv) {
  using namespace neobench;
  const Args args = Parse(argc, argv);
  SpanLog log(args.trace);
  RunResult result;
  if (args.workload == "resnet50-f32" || args.workload == "resnet50-int8") {
    result = RunResnet(args, args.workload == "resnet50-int8", &log);
  } else if (args.workload == "serve-mix") {
    result = RunServeMix(args, &log);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (!result.error.empty()) {
    std::fprintf(stderr, "neobench: %s\n", result.error.c_str());
    return 3;
  }
  if (args.trace) {
    result.metrics["error_rate"] = result.tally.error_rate();
    if (!args.trace_out.empty() && !log.WriteJsonLines(args.trace_out)) {
      std::fprintf(stderr, "neobench: cannot write spans to %s\n", args.trace_out.c_str());
      return 3;
    }
  }

  const MetricDef* begin = args.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricDef* end = args.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::string metrics;
  for (const MetricDef* def = begin; def != end; ++def) {
    auto it = result.metrics.find(def->name);
    if (it == result.metrics.end()) {
      std::fprintf(stderr, "neobench: %s did not measure %s\n", args.workload.c_str(),
                   def->name);
      return 3;
    }
    metrics += std::string(def == begin ? "" : ", ") + JsonString(def->name) +
               ": {\"value\": " + JsonNumber(it->second) + ", \"unit\": " +
               JsonString(def->unit) + "}";
  }
  std::printf("record %s\n", HostRecord(args, result).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
      result.tally.wrong == 0 ? "true" : "false",
      static_cast<unsigned long long>(result.tally.attempted),
      static_cast<unsigned long long>(result.tally.errors()), metrics.c_str());
  return 0;
}
