// Shared pieces of the neobench harness: run arguments, the metric sink, seeded inputs
// with their uncompiled-graph references, output checking, and small statistics.
#ifndef NEOBENCH_COMMON_H_
#define NEOBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "neobench/spans.h"
#include "src/neocpu.h"

namespace neobench {

using neocpu::Graph;
using neocpu::Tensor;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Small inputs and short phases, for the benchmark's own tests.
  bool smoke = false;
  // Perturbs every reference output after it is computed (tests the checker).
  bool corrupt_reference = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string trace_out;  // where the traced run writes its spans
};

// Metric values by name; the harness's metric tables decide which are printed.
using Metrics = std::map<std::string, double>;

// Checked-output accounting for one run. Every request or inference the run attempts
// is one of: ok, shed (refused by admission), failed (raised or never answered), or
// wrong (answered, but outside the reference tolerance).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;

  std::uint64_t errors() const { return shed + failed + wrong; }
  double error_rate() const {
    return attempted == 0 ? 0.0 : static_cast<double>(errors()) / attempted;
  }
  void Add(const Tally& other) {
    attempted += other.attempted;
    shed += other.shed;
    failed += other.failed;
    wrong += other.wrong;
  }
};

// A step or leg outside its latency limit reports this for every request that was
// shed, failed or wrong, so such requests count as missing any limit.
constexpr double kMissedMs = 1e4;

double MsBetween(Clock::time_point a, Clock::time_point b);

// A number as JSON, with all its digits.
std::string JsonNumber(double v);

// Nearest-rank percentile, q in [0, 1]. Empty input gives 0.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
// The p99 of a typical stretch of a latency series: the series is cut into up to seven
// consecutive windows of at least 1000 samples (p99 keeps 10 beyond it in each) and
// the median of the windows' p99s is returned. Shorter series give their plain p99.
// One stall of the shared host then moves one window, not the reported tail.
double WindowedP99(const std::vector<double>& series);
std::vector<double> WindowP99s(const std::vector<double>& series);
double Mean(const std::vector<double>& values);

// Derives an independent stream seed for one use of the run seed.
std::uint64_t SubSeed(std::uint64_t seed, const std::string& salt);

// How a compiled model's output is compared with the uncompiled graph's: fp32 graphs
// within the compile-equivalence tolerance (rtol = atol = 5e-3), int8 graphs within
// the documented 0.05 max-abs error.
enum class Tolerance { kF32, kInt8 };
bool Matches(const Tensor& got, const Tensor& want, Tolerance tolerance);

// Seeded inputs for one model, each with its reference output: the uncompiled graph
// (as BuildModel returns it) run through a plain Executor, with no compiler involved.
struct InputPool {
  std::vector<Tensor> inputs;
  std::vector<Tensor> references;
};
InputPool MakeInputPool(const Graph& model, int count, std::uint64_t seed,
                        neocpu::ThreadEngine* engine, bool corrupt_reference);

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

// Runs `fn` on a fresh thread and waits for it. Thread pools bind the thread that
// constructs them, so a pool that should not pin the caller is built inside one.
template <typename Fn>
void OnOwnThread(Fn&& fn) {
  std::thread thread(std::forward<Fn>(fn));
  thread.join();
}

}  // namespace neobench

#endif  // NEOBENCH_COMMON_H_
