// serve-mix: open-loop serving of a seeded 50/50 mix of tiny-cnn and
// transformer-encoder requests through one InferenceServer with default
// ServerOptions.
//
// One generator thread sends each request with TrySubmit at its seeded Poisson due time;
// one completion thread collects the answers in submission order and checks each
// against the reference of its input. Latency runs from the due time, so a stalled
// generator charges its lateness to the requests it delayed; a shed, failed or wrong
// request counts as kMissedMs. The server's threads run at a lower priority (nice)
// than these two, so the load generator stays on schedule on a host whose cores the
// server fills.
//
// Rates climb a ladder: 1k (light), 2k, 4k, 8k (heavy), 12k, 16k rps. A step passes
// when its p99 (WindowedP99) is at most 10 ms, its error_rate at most 0.001, and the
// backlog left when its last request is sent fits what the limit allows (rate x 10 ms,
// at least 8 requests). A run whose generator ran more than the limit late (p99) is
// invalid and is run again once. The light and heavy steps are measured in six and
// three slices interleaved with each other and with the 2k and 4k steps, so a stretch
// of host noise lands in a few of their windows instead of the whole step. Above the
// heavy step the ladder climbs while steps pass, then three bisection steps (to
// 500 rps) between the last passing and the first failing rate refine max_rate_rps,
// the highest rate that passed with every lower ladder step passing. A ladder step
// fails only when it fails twice. Steps above the heavy rate that fail are overload
// probes: shedding there is the admission queue doing its job, so only their wrong
// answers count as failed (their sheds are in the record's ladder table).
//
// Before the ladder, a short closed loop runs the seeded model sequence through
// CompiledModel::Run on one pool over every core: p50_ms / p90_ms, the compute floor
// under the served latency, reported as the mean of the two models' percentiles (the
// percentile of the mixture would fall in the gap between the two models' latencies
// and jump with the draw).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "neobench/layers.h"
#include "neobench/workloads.h"

namespace neobench {
namespace {

using neocpu::CompiledModel;
using neocpu::InferenceServer;
using neocpu::NeoThreadPool;
using neocpu::SubmitStatus;

constexpr const char* kModels[2] = {"tiny-cnn", "transformer-encoder"};
constexpr double kLightRps = 1000;
constexpr double kHeavyRps = 8000;
constexpr double kLowRps[] = {2000, 4000};     // ladder steps between light and heavy
constexpr double kHighRps[] = {12000, 16000};  // ladder steps above heavy
constexpr int kLightSlices = 6;
constexpr int kHeavySlices = 3;
constexpr int kBisections = 3;
// The window after the closed loop is cut into units of equal length: one per light
// or heavy slice, one per other ladder step and one per bisection step, sixteen in
// all (a probe's re-run adds one).
constexpr double kStepUnits = kLightSlices + kHeavySlices + 2 + 2 + kBisections;
constexpr double kLimitMs = 10.0;
constexpr double kMaxErrorRate = 0.001;
constexpr int kInputsPerModel = 16;
constexpr double kClosedShare = 0.1;  // of the window, for the closed loop
constexpr int kMaxWarmBatch = 8;      // ServerOptions' default max batch
constexpr int kServerNice = 10;
// Traced runs record the spans of one request in this many (a full ladder sends a
// few hundred thousand).
constexpr std::uint64_t kTraceEvery = 16;

struct Arrival {
  double due_s = 0.0;  // offset from the step's start
  int model = 0;
  std::size_t input = 0;
};

// Poisson arrivals at `rate` for `duration_s`; `index` tells apart the slices and
// re-runs at one rate.
std::vector<Arrival> StepSchedule(std::uint64_t seed, double rate, int index,
                                  double duration_s) {
  neocpu::Rng rng(SubSeed(seed, "serve-mix-" + std::to_string(std::llround(rate)) + "-" +
                                    std::to_string(index)));
  std::vector<Arrival> arrivals;
  double t = 0.0;
  while (true) {
    t += -std::log1p(-rng.NextDouble()) / rate;
    if (t >= duration_s) {
      break;
    }
    Arrival a;
    a.due_s = t;
    a.model = static_cast<int>(rng.NextBounded(2));
    a.input = static_cast<std::size_t>(rng.NextBounded(kInputsPerModel));
    arrivals.push_back(a);
  }
  return arrivals;
}

// The closed loop's model sequence: (model, input) draws.
std::vector<Arrival> ClosedSequence(std::uint64_t seed, std::size_t count) {
  neocpu::Rng rng(SubSeed(seed, "serve-mix-closed"));
  std::vector<Arrival> seq(count);
  for (Arrival& a : seq) {
    a.model = static_cast<int>(rng.NextBounded(2));
    a.input = static_cast<std::size_t>(rng.NextBounded(kInputsPerModel));
  }
  return seq;
}

double UnitSeconds(const Args& args) {
  return args.seconds * (1.0 - kClosedShare) / kStepUnits;
}

// One step of the ladder, or several slices at one rate pooled.
struct StepResult {
  double rate = 0.0;
  std::size_t requests = 0;
  std::vector<double> latency;  // ms from the due time; kMissedMs if not answered right
  std::vector<double> lag;      // ms the generator sent each request late
  std::vector<double> window_p99_ms;
  std::size_t backlog = 0;      // unanswered requests when the last one was sent
  Tally tally;
  double p50_ms = 0.0;
  double p99_ms = 0.0;  // median of window_p99_ms
  double lag_p99_ms = 0.0;
  bool valid = false;
  bool pass = false;
};

void Judge(StepResult* step) {
  step->p50_ms = Percentile(step->latency, 0.5);
  step->p99_ms = Median(step->window_p99_ms);
  step->lag_p99_ms = Percentile(step->lag, 0.99);
  step->valid = step->lag_p99_ms <= kLimitMs;
  const double backlog_allowed = std::max(8.0, step->rate * kLimitMs / 1e3);
  step->pass = step->valid && step->p99_ms <= kLimitMs &&
               step->tally.error_rate() <= kMaxErrorRate &&
               static_cast<double>(step->backlog) <= backlog_allowed;
}

// Slices at one rate judged as one step. Like the p99 (the median of all their
// windows), the backlog is the median over the slices: the backlog is a snapshot when
// the last request is sent, and one Poisson burst at one slice's end must not fail the
// whole step.
StepResult Pool(const std::vector<StepResult>& slices) {
  StepResult pooled;
  pooled.rate = slices.front().rate;
  std::vector<double> backlogs;
  for (const StepResult& s : slices) {
    pooled.requests += s.requests;
    pooled.latency.insert(pooled.latency.end(), s.latency.begin(), s.latency.end());
    pooled.lag.insert(pooled.lag.end(), s.lag.begin(), s.lag.end());
    pooled.window_p99_ms.insert(pooled.window_p99_ms.end(), s.window_p99_ms.begin(),
                                s.window_p99_ms.end());
    backlogs.push_back(static_cast<double>(s.backlog));
    pooled.tally.Add(s.tally);
  }
  pooled.backlog = static_cast<std::size_t>(Median(backlogs));
  Judge(&pooled);
  return pooled;
}

StepResult RunStep(InferenceServer& server, const std::vector<Arrival>& arrivals,
                   const InputPool (&pools)[2], double rate, SpanLog* log,
                   std::uint64_t first_request) {
  struct Slot {
    neocpu::SubmitTicket ticket;
    Clock::time_point due;
    std::uint64_t span_id = 0;
  };
  const std::size_t n = arrivals.size();
  std::vector<Slot> slots(n);
  StepResult step;
  step.rate = rate;
  step.requests = n;
  step.tally.attempted = n;
  step.latency.assign(n, kMissedMs);
  step.lag.assign(n, 0.0);
  std::atomic<std::size_t> published{0};
  std::atomic<std::size_t> completed{0};

  std::thread completion([&] {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t p = published.load(std::memory_order_acquire); p <= i;
           p = published.load(std::memory_order_acquire)) {
        published.wait(p, std::memory_order_acquire);
      }
      Slot& slot = slots[i];
      Clock::time_point done = Clock::now();
      if (slot.ticket.ok()) {
        try {
          const Tensor out = slot.ticket.result.get();
          done = Clock::now();
          const Arrival& a = arrivals[i];
          if (Matches(out, pools[a.model].references[a.input], Tolerance::kF32)) {
            step.latency[i] = MsBetween(slot.due, done);
          } else {
            ++step.tally.wrong;
          }
        } catch (...) {
          ++step.tally.failed;
        }
      } else if (slot.ticket.status == SubmitStatus::kShedQueueFull ||
                 slot.ticket.status == SubmitStatus::kShedArenaBytes) {
        ++step.tally.shed;
      } else {
        ++step.tally.failed;
      }
      if (slot.span_id != 0) {
        log->Record(
            Span{slot.span_id, 0, first_request + i, "serve.request", slot.due, done});
      }
      completed.store(i + 1, std::memory_order_release);
    }
  });

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = arrivals[i];
    Slot& slot = slots[i];
    slot.due = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(a.due_s));
    if (Clock::now() < slot.due) {
      std::this_thread::sleep_until(slot.due);
    }
    step.lag[i] = MsBetween(slot.due, Clock::now());
    const bool sampled = log->enabled() && (first_request + i) % kTraceEvery == 0;
    slot.span_id = sampled ? log->NewId() : 0;
    {
      ScopedSpan submit(sampled ? log : nullptr, "serve.submit", first_request + i,
                        slot.span_id);
      slot.ticket = server.TrySubmit(kModels[a.model], pools[a.model].inputs[a.input]);
    }
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
  }
  step.backlog = n - completed.load(std::memory_order_acquire);
  completion.join();

  step.window_p99_ms = WindowP99s(step.latency);
  Judge(&step);
  return step;
}

// Sends `count` requests of one model back to back and checks every answer.
void Burst(InferenceServer& server, int model, int count, const InputPool& pool,
           Tally* tally) {
  std::vector<neocpu::SubmitTicket> tickets;
  for (int i = 0; i < count; ++i) {
    tickets.push_back(
        server.TrySubmit(kModels[model], pool.inputs[static_cast<std::size_t>(i)]));
  }
  for (int i = 0; i < count; ++i) {
    ++tally->attempted;
    neocpu::SubmitTicket& ticket = tickets[static_cast<std::size_t>(i)];
    if (!ticket.ok()) {
      ++tally->failed;
    } else if (!Matches(ticket.result.get(), pool.references[static_cast<std::size_t>(i)],
                        Tolerance::kF32)) {
      ++tally->wrong;
    }
  }
}

std::uint64_t Fnv(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h = (h ^ ((v >> (8 * b)) & 0xff)) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace

void PrintServeSchedule(const Args& args) {
  for (double rate :
       {kLightRps, kLowRps[0], kLowRps[1], kHeavyRps, kHighRps[0], kHighRps[1]}) {
    const auto arrivals = StepSchedule(args.seed, rate, 0, UnitSeconds(args));
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Arrival& a : arrivals) {
      h = Fnv(h, static_cast<std::uint64_t>(std::llround(a.due_s * 1e9)));
      h = Fnv(h, static_cast<std::uint64_t>(a.model));
      h = Fnv(h, a.input);
    }
    std::printf("rate %.0f requests %zu digest %016llx\n", rate, arrivals.size(),
                static_cast<unsigned long long>(h));
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Arrival& a : ClosedSequence(args.seed, 4096)) {
    h = Fnv(Fnv(h, static_cast<std::uint64_t>(a.model)), a.input);
  }
  std::printf("closed digest %016llx\n", static_cast<unsigned long long>(h));
}

RunResult RunServeMix(const Args& args, SpanLog* log) {
  RunResult result;
  Metrics& m = result.metrics;
  const bool traced = log->enabled();

  // Inputs and references, untimed.
  InputPool pools[2];
  OnOwnThread([&] {
    NeoThreadPool pool;
    for (int i = 0; i < 2; ++i) {
      pools[i] = MakeInputPool(neocpu::BuildModel(kModels[i]), kInputsPerModel,
                               SubSeed(args.seed, std::string(kModels[i]) + "-inputs"),
                               &pool, args.corrupt_reference);
    }
  });

  // Set-up: BuildModel to the first checked answer, including registration, warm
  // bursts of every batch size and the background re-tunes they start. Repeated; the
  // last server is kept.
  std::vector<double> setup_s;
  std::vector<SetupRecord> records;
  CompiledModel compiled[2];
  std::unique_ptr<InferenceServer> server;
  for (int r = 0; r < kSetupReps; ++r) {
    server.reset();
    compiled[0] = compiled[1] = CompiledModel();
    const std::uint64_t request = kSetupIds + static_cast<std::uint64_t>(r);
    const Clock::time_point start = Clock::now();
    ScopedSpan setup(log, "setup", request);
    SetupRecord record;
    for (int i = 0; i < 2; ++i) {
      const Graph model = BuildTraced(kModels[i], 0, log, request, setup.id());
      compiled[i] = CompileTraced(model, neocpu::NeoCpuOptions(neocpu::Target::Host()), log,
                                  request, setup.id());
      record.Add(compiled[i].stats());
      if (traced) {
        record.nodes_fused += FuseTraced(model, log, request, setup.id());
      }
    }
    // The server's threads inherit the nice value of the thread that creates them:
    // running them below the generator and completion threads keeps the load
    // generator on schedule although it shares the host's cores with the server.
    OnOwnThread([&] {
      setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), kServerNice);
      server = std::make_unique<InferenceServer>(neocpu::ServerOptions{});
    });
    for (int i = 0; i < 2; ++i) {
      server->RegisterModel(kModels[i], compiled[i]);
    }
    for (int batch = 1; batch <= kMaxWarmBatch; ++batch) {
      for (int i = 0; i < 2; ++i) {
        Burst(*server, i, batch, pools[i], &result.tally);
      }
    }
    server->WaitForRetunes();
    for (int i = 0; i < 2; ++i) {
      Burst(*server, i, 1, pools[i], &result.tally);
    }
    setup_s.push_back(MsBetween(start, Clock::now()) / 1e3);
    records.push_back(record);
  }

  // Closed loop over the seeded model sequence: the compute floor.
  std::vector<double> closed[2], closed_traced, closed_untraced;
  const std::vector<Arrival> sequence = ClosedSequence(args.seed, 1 << 18);
  std::size_t closed_runs = 0;
  OnOwnThread([&] {
    NeoThreadPool pool;
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds * kClosedShare));
    for (std::size_t i = 0; i < sequence.size() && (i < 16 || Clock::now() < end); ++i) {
      const Arrival& a = sequence[i];
      const bool trace_this = traced && i % 2 == 0;
      const Clock::time_point t0 = Clock::now();
      Tensor out;
      {
        ScopedSpan span(trace_this ? log : nullptr, "core.run", kRunIds + i);
        out = compiled[a.model].Run(pools[a.model].inputs[a.input], &pool);
      }
      double ms = MsBetween(t0, Clock::now());
      ++result.tally.attempted;
      if (!Matches(out, pools[a.model].references[a.input], Tolerance::kF32)) {
        ++result.tally.wrong;
        ms = kMissedMs;
      }
      closed[a.model].push_back(ms);
      (trace_this ? closed_traced : closed_untraced).push_back(ms);
      closed_runs = i + 1;
    }
  });

  // The rate ladder. The light and heavy steps are measured in slices interleaved
  // with each other and with the low ladder steps, so that a stretch of host noise
  // lands in a few of their windows rather than in the whole step.
  const neocpu::ServerStats before = server->Stats();
  std::vector<StepResult> runs;     // every run, for the error accounting
  std::vector<StepResult> ladder;   // one row per ladder rate, for the record
  std::uint64_t next_request = kServeIds;
  // One measured run; a run whose generator fell behind is re-run once.
  auto run = [&](double rate, int index) {
    StepResult step;
    for (int attempt = 0; attempt < 2 && !step.valid; ++attempt) {
      const auto arrivals =
          StepSchedule(args.seed, rate, 2 * index + attempt, UnitSeconds(args));
      step = RunStep(*server, arrivals, pools, rate, log, next_request);
      next_request += arrivals.size();
      runs.push_back(step);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return step;
  };
  // A ladder step fails only when it fails twice (a host stall is not a capacity limit).
  auto probe = [&](double rate) {
    StepResult step = run(rate, 0);
    if (!step.pass) {
      step = run(rate, 1);
    }
    ladder.push_back(step);
    return step;
  };
  std::vector<StepResult> light_slices, heavy_slices;
  for (int i = 0; i < kLightSlices; ++i) {
    light_slices.push_back(run(kLightRps, i));
    if (i < kHeavySlices) {
      heavy_slices.push_back(run(kHeavyRps, i));
    }
    if (i < 2) {
      probe(kLowRps[i]);
    }
  }
  const StepResult light = Pool(light_slices);
  const StepResult heavy = Pool(heavy_slices);
  for (const StepResult* fixed : {&light, &heavy}) {
    if (!fixed->valid) {
      char message[160];
      std::snprintf(message, sizeof(message),
                    "serve-mix: the generator ran %.2f ms late (p99) at %.0f rps, over the "
                    "%.0f ms limit; the step cannot be measured",
                    fixed->lag_p99_ms, fixed->rate, kLimitMs);
      result.error = message;
      return result;
    }
  }
  ladder.insert(ladder.begin(), light);
  ladder.insert(ladder.begin() + 3, heavy);
  double passed = 0.0;     // max_rate_rps so far
  double failed_at = 0.0;  // first rate that did not pass (0 = none yet)
  auto climb = [&](const StepResult& step) {
    if (failed_at == 0.0 && step.pass) {
      passed = step.rate;
    } else if (failed_at == 0.0) {
      failed_at = step.rate;
    }
  };
  for (const StepResult& step : ladder) {
    climb(step);
  }
  for (double rate : kHighRps) {
    if (failed_at == 0.0) {
      climb(probe(rate));
    }
  }
  // Bisection between the last passing and the first failing rate, to 500 rps.
  for (int b = 0; b < kBisections && passed > 0.0 && failed_at > 0.0; ++b) {
    const double rate = std::round((passed + failed_at) / 2 / 500) * 500;
    if (rate <= passed || rate >= failed_at) {
      break;
    }
    (probe(rate).pass ? passed : failed_at) = rate;
  }
  const double max_rate = passed;
  for (const StepResult& step : runs) {
    if (step.rate <= kHeavyRps || step.pass) {
      result.tally.Add(step.tally);
    } else {
      result.tally.attempted += step.tally.attempted;
      result.tally.wrong += step.tally.wrong;
    }
  }
  const neocpu::ServerStats after = server->Stats();
  server->Shutdown();

  m["light_p99_ms"] = light.p99_ms;
  if (!traced) {
    m["setup_s"] = Median(setup_s);
    m["p50_ms"] = (Percentile(closed[0], 0.5) + Percentile(closed[1], 0.5)) / 2;
    m["p90_ms"] = (Percentile(closed[0], 0.9) + Percentile(closed[1], 0.9)) / 2;
    m["light_p50_ms"] = light.p50_ms;
    m["heavy_p50_ms"] = heavy.p50_ms;
    m["heavy_p99_ms"] = heavy.p99_ms;
    m["max_rate_rps"] = max_rate;
    m["peak_rss_mb"] = PeakRssMb();
  } else {
    AddSetupMetrics(*log, records, &m);
    const double untraced_p50 = Median(closed_untraced);
    m["core.run_ms"] = Median(closed_traced);
    m["trace.overhead_ms"] = Median(closed_traced) - untraced_p50;
    double predicted_ms = 0.0;
    for (std::size_t i = 0; i < closed_runs; ++i) {
      predicted_ms += compiled[sequence[i].model].stats().predicted_cost_ms;
    }
    m["tuning.predicted_over_measured"] =
        predicted_ms / static_cast<double>(closed_runs) / untraced_p50;

    const int replays = args.smoke ? 20 : 400;
    ReplayWork work;
    OnOwnThread([&] {
      NeoThreadPool pool;
      const std::uint64_t allocs_before = neocpu::TensorHeapAllocCount();
      for (int i = 0; i < replays; ++i) {
        const Arrival& a = sequence[static_cast<std::size_t>(i)];
        compiled[a.model].Run(pools[a.model].inputs[a.input], &pool);
      }
      m["core.heap_allocs_per_run"] =
          static_cast<double>(neocpu::TensorHeapAllocCount() - allocs_before) / replays;
      for (int i = 0; i < replays; ++i) {
        const Arrival& a = sequence[static_cast<std::size_t>(i)];
        const Tensor& input = pools[a.model].inputs[a.input];
        const Tensor replayed =
            ReplayNodes(compiled[a.model], input, &pool, log,
                        kReplayIds + static_cast<std::uint64_t>(i), &work);
        ++result.tally.attempted;
        if (!Matches(replayed, compiled[a.model].Run(input, &pool), Tolerance::kF32)) {
          ++result.tally.wrong;
        }
      }
    });
    AddReplayMetrics(*log, replays, work, &m);
    TimeRuntime(log,
                std::max(compiled[0].stats().arena_bytes, compiled[1].stats().arena_bytes),
                args.smoke ? 200 : 2000);
    AddRuntimeMetrics(*log, &m);

    const std::uint64_t batch_runs = after.batch_runs - before.batch_runs;
    m["serve.submit_us"] = Median(log->DurationsMs("serve.submit")) * 1e3;
    m["serve.server_p50_ms"] = after.latency.p50_ms;
    m["serve.server_p99_ms"] = after.latency.p99_ms;
    m["serve.mean_batch_size"] =
        batch_runs == 0
            ? 0.0
            : static_cast<double>(after.completed - before.completed) / batch_runs;
    m["serve.batch_runs"] = static_cast<double>(batch_runs);
    m["serve.shed_queue_full"] = static_cast<double>(after.requests_shed_queue_full -
                                                     before.requests_shed_queue_full);
    m["serve.shed_arena"] =
        static_cast<double>(after.requests_shed_arena - before.requests_shed_arena);
    m["serve.retunes_in_window"] =
        static_cast<double>(after.retunes_started - before.retunes_started);
    m["serve.generator_lag_ms"] = heavy.lag_p99_ms;
  }

  std::string details = "{\"closed_samples\":" + std::to_string(closed_runs) +
                        ",\"limit_ms\":" + JsonNumber(kLimitMs) +
                        ",\"runs\":" + std::to_string(runs.size()) + ",\"ladder\":[";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const StepResult& s = ladder[i];
    details += std::string(i == 0 ? "" : ",") + "{\"rate_rps\":" + JsonNumber(s.rate) +
               ",\"requests\":" + std::to_string(s.requests) +
               ",\"p50_ms\":" + JsonNumber(s.p50_ms) +
               ",\"p99_ms\":" + JsonNumber(s.p99_ms) + ",\"window_p99_ms\":[";
    for (std::size_t w = 0; w < s.window_p99_ms.size(); ++w) {
      details += (w == 0 ? "" : ",") + JsonNumber(s.window_p99_ms[w]);
    }
    details += "],\"shed\":" + std::to_string(s.tally.shed) +
               ",\"error_rate\":" + JsonNumber(s.tally.error_rate()) +
               ",\"lag_p99_ms\":" + JsonNumber(s.lag_p99_ms) +
               ",\"backlog\":" + std::to_string(s.backlog) +
               ",\"pass\":" + (s.pass ? "true" : "false") + "}";
  }
  details += "]}";
  result.details_json = details;
  return result;
}

}  // namespace neobench
