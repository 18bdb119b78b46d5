#include "neobench/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numeric>

namespace neobench {

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double WindowedP99(const std::vector<double>& series) { return Median(WindowP99s(series)); }

std::vector<double> WindowP99s(const std::vector<double>& series) {
  const std::size_t windows = std::clamp<std::size_t>(series.size() / 1000, 1, 7);
  const std::size_t width = series.size() / windows;
  std::vector<double> p99s;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = series.begin() + static_cast<std::ptrdiff_t>(w * width);
    const auto last =
        w + 1 == windows ? series.end() : first + static_cast<std::ptrdiff_t>(width);
    p99s.push_back(Percentile(std::vector<double>(first, last), 0.99));
  }
  return p99s;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::uint64_t SubSeed(std::uint64_t seed, const std::string& salt) {
  // FNV-1a over the salt, folded into the seed, then one splitmix64 round.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : salt) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  std::uint64_t z = seed ^ h;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool Matches(const Tensor& got, const Tensor& want, Tolerance tolerance) {
  if (!got.defined() || got.dims() != want.dims()) {
    return false;
  }
  if (tolerance == Tolerance::kF32) {
    return Tensor::AllCloseViolation(got, want, 5e-3, 5e-3) <= 0.0;
  }
  return Tensor::MaxAbsDiff(got, want) <= 0.05;
}

InputPool MakeInputPool(const Graph& model, int count, std::uint64_t seed,
                        neocpu::ThreadEngine* engine, bool corrupt_reference) {
  std::vector<std::int64_t> dims;
  for (int id = 0; id < model.num_nodes(); ++id) {
    if (model.node(id).type == neocpu::OpType::kInput) {
      dims = model.node(id).out_dims;
      break;
    }
  }
  NEOCPU_CHECK(!dims.empty()) << model.name << ": no input node";
  const neocpu::Layout layout =
      dims.size() == 4 ? neocpu::Layout::NCHW() : neocpu::Layout::Flat();
  neocpu::Rng rng(seed);
  const neocpu::Executor reference(&model, engine);
  InputPool pool;
  for (int i = 0; i < count; ++i) {
    pool.inputs.push_back(Tensor::Random(dims, rng, 0.0f, 1.0f, layout));
    Tensor want = reference.Run(pool.inputs.back());
    if (corrupt_reference) {
      want = want.Clone();
      want.data()[0] += 1.0f;
    }
    pool.references.push_back(std::move(want));
  }
  return pool;
}

double PeakRssMb() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(file);
  return kib / 1024.0;
}

}  // namespace neobench
