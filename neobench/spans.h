// In-memory spans for the traced run.
//
// The benchmark records a span around each call it makes into a library module: a
// name, a start and an end, the span that caused it (its parent), and the id of the
// request or iteration it belongs to, shared by every span of that request. Spans are
// kept in memory and written out once, when the run ends. A span's self time is its
// duration minus the part of it that child spans cover.
//
// A disabled log records nothing and ScopedSpan reads no clock, so untraced runs pay
// one branch per call site.
#ifndef NEOBENCH_SPANS_H_
#define NEOBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace neobench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }
  // A fresh span id (never 0). Thread-safe.
  std::uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // Stores a finished span. Thread-safe; no-op when disabled.
  void Record(Span span);

  // Self time in ms summed per (span name, request id).
  std::map<std::string, std::map<std::uint64_t, double>> SelfMsByRequest() const;
  // Every duration (ms) recorded under `name`, in record order.
  std::vector<double> DurationsMs(const std::string& name) const;

  // One JSON object per line: name, id, parent, request, start/end (µs from the log's
  // creation) and self time. Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<double> SelfMs() const;  // parallel to spans_; caller holds mutex_

  bool enabled_;
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

// Times the enclosing scope as one span of `log` (which may be null or disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t request,
             std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // This span's id, for children; 0 when not recording.
  std::uint64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

}  // namespace neobench

#endif  // NEOBENCH_SPANS_H_
