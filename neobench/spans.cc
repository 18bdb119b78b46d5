#include "neobench/spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace neobench {
namespace {

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

void SpanLog::Record(Span span) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<double> SpanLog::SelfMs() const {
  // Children grouped under their parent's index; a parent's covered time is the union
  // of its children's intervals clipped to its own (children on several threads may
  // overlap each other).
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    index_of[spans_[i].id] = i;
  }
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    auto parent = index_of.find(span.parent);
    if (span.parent != 0 && parent != index_of.end()) {
      children[parent->second].emplace_back(span.start, span.end);
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    Clock::duration covered{0};
    Clock::time_point cursor = span.start;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = Ms(span.end - span.start) - Ms(covered);
  }
  return self;
}

std::map<std::string, std::map<std::uint64_t, double>> SpanLog::SelfMsByRequest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<double> self = SelfMs();
  std::map<std::string, std::map<std::uint64_t, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name][spans_[i].request] += self[i];
  }
  return out;
}

std::vector<double> SpanLog::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(Ms(span.end - span.start));
    }
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  const std::vector<double> self = SelfMs();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are fixed identifiers chosen by the harness: no escaping needed.
    std::fprintf(file,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), Ms(s.start - epoch_) * 1e3,
                 Ms(s.end - epoch_) * 1e3, self[i] * 1e3);
  }
  return std::fclose(file) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, std::uint64_t request,
                       std::uint64_t parent)
    : log_(log != nullptr && log->enabled() ? log : nullptr) {
  if (log_ == nullptr) {
    return;
  }
  span_.id = log_->NewId();
  span_.parent = parent;
  span_.request = request;
  span_.name = name;
  span_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) {
    return;
  }
  span_.end = Clock::now();
  log_->Record(std::move(span_));
}

}  // namespace neobench
