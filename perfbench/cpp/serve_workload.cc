// serve_open_loop: routed, batched serving under open-loop Poisson traffic.
//
// One generator thread sends every request at its scheduled due time,
// whether or not earlier ones have been answered, through serve::Router
// into a 2-replica serve::ReplicaPool (1 worker each, max_batch 8, 2 ms
// batch delay, admission on with quotas above the offered load, faults
// off). A light phase at 200 req/s is followed by a heavy phase at
// 500 req/s. Every request carries a distinct video no model has seen.
//
// Latency is timed from the due time: generator lag plus the
// server-reported ServeResult.latency_micros. Only full answers count;
// every other outcome is a failed op.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>

#include "common.h"
#include "common/faults.h"
#include "common/thread_pool.h"
#include "cot/pipeline.h"
#include "probes.h"
#include "schedule.h"
#include "serve/replica_pool.h"
#include "serve/router.h"
#include "setup.h"

namespace perfbench {

namespace serve = vsd::serve;
namespace vdata = vsd::data;

namespace {

const char* const kPhaseNames[] = {"light", "heavy"};
constexpr int kWarmVideos = 32;

/// The pass's phases: 55% of its time at 200 req/s, then 45% at 500 req/s,
/// so each phase has over 1000 requests at 10 s (>= 10 beyond its p99).
std::vector<Phase> PassPhases(double seconds) {
  return {{200.0, 0.55 * seconds}, {500.0, 0.45 * seconds}};
}

struct ServeState {
  std::unique_ptr<vsd::vlm::FoundationModel> model;
  std::unique_ptr<vsd::cot::ChainPipeline> pipeline;
  vdata::Dataset videos;  ///< Served videos, one per request.
  int rendered = 0;       ///< Videos rendered in set-up, warm-up included.
  std::unique_ptr<serve::ReplicaPool> pool;
  std::unique_ptr<serve::Router> router;
};

serve::ReplicaPool::Config PoolConfig() {
  serve::ReplicaPool::Config config;
  config.replica.num_workers = 1;
  config.replica.max_batch = 8;
  config.replica.max_batch_delay_micros = 2000;
  config.replica.max_queue = 1024;  // Never the limit at these rates.
  config.replica.breaker_threshold = 0;
  return config;
}

serve::RouterConfig RouterConfig() {
  serve::RouterConfig config;
  config.admission.enabled = true;
  // Each tenant offers at most ~125 req/s on average in the heavy phase.
  config.admission.default_quota.tokens_per_sec = 1000.0;
  config.admission.default_quota.burst = 1000.0;
  return config;
}

/// Spins until `due`. A sleeping generator is woken late by milliseconds
/// now and then (an idle virtual CPU wakes slowly), which delays every
/// request behind it; a spinning one is late by microseconds.
void WaitUntil(SteadyTime due) {
  while (Now() < due) {
  }
}

struct PhaseStats {
  std::vector<double> e2e_ms;     ///< Full answers: lag + server latency.
  std::vector<double> server_ms;  ///< Full answers: server latency.
  serve::ServeStatsSnapshot pool;
};

struct PassResult {
  PhaseStats phase[2];
  std::vector<double> lag_ms;
  std::vector<double> submit_us;
  int64_t failed = 0;
  int64_t degraded = 0;
  int64_t retries = 0;
  serve::RouterStatsSnapshot router;
};

serve::ServeStatsSnapshot Minus(const serve::ServeStatsSnapshot& a,
                                const serve::ServeStatsSnapshot& b) {
  serve::ServeStatsSnapshot d;
  d.batches_cut = a.batches_cut - b.batches_cut;
  d.batched_samples = a.batched_samples - b.batched_samples;
  d.retries = a.retries - b.retries;
  d.completed_fallback = a.completed_fallback - b.completed_fallback;
  d.completed_prior = a.completed_prior - b.completed_prior;
  return d;
}

/// Runs one open-loop pass over `arrivals`. Writes each full answer's
/// probability to `served_probs` (NaN for a failed request) for the
/// caller's bit-identity check.
PassResult RunPass(ServeState& s, const std::vector<Arrival>& arrivals,
                   Tracer* tracer, std::vector<double>* served_probs) {
  PassResult r;
  std::vector<std::future<vsd::Result<serve::ServeResult>>> futures;
  futures.reserve(arrivals.size());
  // Per request: when it was due, sent, and handed back by Submit.
  std::vector<int64_t> due_ns(arrivals.size());
  std::vector<int64_t> sent_ns(arrivals.size());
  std::vector<int64_t> submitted_ns(arrivals.size());

  const serve::ServeStatsSnapshot pool_start = s.pool->AggregateStats();
  const serve::RouterStatsSnapshot router_start = s.router->Stats();
  serve::ServeStatsSnapshot pool_boundary = pool_start;
  const SteadyTime t0 = Now() + std::chrono::milliseconds(5);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    if (a.phase == 1 && (i == 0 || arrivals[i - 1].phase == 0)) {
      pool_boundary = s.pool->AggregateStats();
    }
    const SteadyTime due = t0 + std::chrono::microseconds(a.due_us);
    WaitUntil(due);
    sent_ns[i] = NowNanos();
    serve::RequestOptions options;
    options.session = a.session;
    options.tenant = a.tenant;
    futures.push_back(s.router->Submit(
        s.videos.samples[static_cast<size_t>(a.video)], options));
    submitted_ns[i] = NowNanos();
    due_ns[i] = Nanos(due);
    r.lag_ms.push_back(static_cast<double>(sent_ns[i] - due_ns[i]) / 1e6);
    r.submit_us.push_back(static_cast<double>(submitted_ns[i] - sent_ns[i]) /
                          1e3);
  }

  const SteadyTime give_up = Now() + std::chrono::seconds(60);
  served_probs->assign(arrivals.size(), std::nan(""));
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    if (futures[i].wait_until(give_up) != std::future_status::ready) {
      ++r.failed;  // Lost: never resolved.
      continue;
    }
    const vsd::Result<serve::ServeResult> result = futures[i].get();
    if (!result.ok() ||
        result.value().degradation != serve::DegradationLevel::kFull) {
      ++r.failed;  // Shed, rejected, errored, deadline-missed or degraded.
      continue;
    }
    const serve::ServeResult& answer = result.value();
    (*served_probs)[i] = answer.prob_stressed;
    const double server_ms = static_cast<double>(answer.latency_micros) / 1e3;
    r.phase[a.phase].server_ms.push_back(server_ms);
    r.phase[a.phase].e2e_ms.push_back(r.lag_ms[i] + server_ms);
    if (tracer->enabled()) {
      // The server stamps arrival inside Submit; its latency is placed from
      // the send time, so `replica.resolve` starts where Submit returned.
      const int64_t op = static_cast<int64_t>(i);
      const int64_t done_ns = sent_ns[i] + answer.latency_micros * 1000;
      const int64_t root =
          tracer->Record("serve.request", op, -1, due_ns[i], done_ns);
      tracer->Record("router.submit", op, root, sent_ns[i], submitted_ns[i]);
      tracer->Record("replica.resolve", op, root, submitted_ns[i],
                     std::max(submitted_ns[i], done_ns));
    }
  }
  const serve::ServeStatsSnapshot pool_end = s.pool->AggregateStats();
  r.phase[0].pool = Minus(pool_boundary, pool_start);
  r.phase[1].pool = Minus(pool_end, pool_boundary);
  const serve::ServeStatsSnapshot whole = Minus(pool_end, pool_start);
  r.retries = whole.retries;
  r.degraded = whole.Degraded();
  const serve::RouterStatsSnapshot router_end = s.router->Stats();
  r.router.shed_admission = router_end.shed_admission - router_start.shed_admission;
  r.router.shed_queue_full =
      router_end.shed_queue_full - router_start.shed_queue_full;
  r.router.failovers = router_end.failovers - router_start.failovers;
  return r;
}

/// The workload's op is a light-phase request: its median latency is the
/// pass's end-to-end metric.
Metric OpP50(const PassResult& r) {
  return {"op.p50_ms", Median(r.phase[0].e2e_ms), "ms"};
}

/// Open-loop validity: a generator that runs late delays every later
/// request, so a pass whose lag p99 exceeds the light p50 is invalid.
bool LagValid(const PassResult& r) {
  const double lag_p99 = Quantile(r.lag_ms, 0.99);
  const double light_p50 = Median(r.phase[0].e2e_ms);
  std::fprintf(stderr,
               "[perfbench] generator lag p99 %.3f ms, light p50 %.3f ms, "
               "batch fill %.2f -> %.2f%s\n",
               lag_p99, light_p50, r.phase[0].pool.MeanBatchFill(),
               r.phase[1].pool.MeanBatchFill(),
               lag_p99 > light_p50 ? ": pass invalid" : "");
  return lag_p99 <= light_p50;
}

/// Runs a pass and checks its outputs: every full answer is bit-identical
/// to a direct PredictBatch of its video, computed after the pass at 4
/// threads (the repository guarantees that changes no bit).
PassResult RunCheckedPass(ServeState& s, const std::vector<Arrival>& arrivals,
                          Tracer* tracer, Outcome* out) {
  std::vector<double> probs;
  PassResult r = RunPass(s, arrivals, tracer, &probs);
  out->attempted += static_cast<int64_t>(arrivals.size());
  out->failed += r.failed;
  vsd::ThreadPool::SetGlobalThreads(4);
  const int n = static_cast<int>(s.videos.samples.size());
  std::vector<double> reference;
  for (int b = 0; b < n; b += 32) {
    const auto got =
        s.pipeline->PredictBatch(Pointers(s.videos, b, std::min(n, b + 32)));
    reference.insert(reference.end(), got.begin(), got.end());
  }
  vsd::ThreadPool::SetGlobalThreads(1);
  int64_t mismatches = 0;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (std::isnan(probs[i])) continue;  // Already counted as failed.
    mismatches += !SameBits(probs[i], reference[static_cast<size_t>(
                                          arrivals[i].video)]);
  }
  if (mismatches > 0) {
    out->failed += mismatches;
    out->Fail(std::to_string(mismatches) +
              " served probabilities differ from a direct PredictBatch");
  }
  return r;
}

/// Builds `s`'s pipeline over `s->model`, warms it (batch 1..8 and 32 on
/// `warm`), builds the pool and router over it, and wakes both workers
/// once so thread start-up is not a request.
void BuildServing(ServeState* s, const vdata::Dataset& warm, uint64_t seed) {
  s->pipeline = std::make_unique<vsd::cot::ChainPipeline>(s->model.get(),
                                                          ChainConfigFor(seed));
  WarmPredict(*s->pipeline, warm);
  const std::vector<const vsd::cot::ChainPipeline*> replicas(
      2, s->pipeline.get());
  s->pool = std::make_unique<serve::ReplicaPool>(replicas, PoolConfig());
  s->router = std::make_unique<serve::Router>(s->pool.get(), RouterConfig());
  std::vector<std::future<vsd::Result<serve::ServeResult>>> warmups;
  for (int i = 0; i < 16; ++i) {
    serve::RequestOptions options;
    options.session = static_cast<uint64_t>(i);
    warmups.push_back(
        s->router->Submit(warm.samples[static_cast<size_t>(i)], options));
  }
  for (auto& f : warmups) (void)f.get();
}

}  // namespace

void ServeProbe(const vsd::vlm::FoundationModel& model, uint64_t seed,
                Tracer* tracer, Outcome* out) {
  vsd::ThreadPool::SetGlobalThreads(1);
  // Each phase sends a few hundred requests.
  const std::vector<Arrival> schedule =
      MakeSchedule(seed ^ 0x5E47E, PassPhases(2.0), 0);
  Tracer off(false);
  ServeState s;
  s.model = model.Clone();
  s.videos = RenderVideos(static_cast<int>(schedule.size()), seed ^ 0x5E47E,
                          &off, -1);
  BuildServing(&s, RenderVideos(kWarmVideos, seed ^ 0xA11CE, &off, -1), seed);
  const PassResult r = RunCheckedPass(s, schedule, tracer, out);
  s.pool->Shutdown();

  out->Add("serve.submit_us", Median(r.submit_us), "us");
  out->Add("serve.gen_lag_ms", Quantile(r.lag_ms, 0.99), "ms");
  for (int p = 0; p < 2; ++p) {
    const std::string phase = kPhaseNames[p];
    out->Add("serve.resolve_ms." + phase, Median(r.phase[p].server_ms), "ms");
    out->Add("serve.batch_fill." + phase, r.phase[p].pool.MeanBatchFill(),
             "requests");
    out->Add("serve.batches_cut." + phase,
             static_cast<double>(r.phase[p].pool.batches_cut), "count");
  }
  out->Add("serve.degraded", static_cast<double>(r.degraded), "count");
  out->Add("serve.retries", static_cast<double>(r.retries), "count");
  out->Add("router.shed",
           static_cast<double>(r.router.shed_admission +
                               r.router.shed_queue_full),
           "count");
  out->Add("router.failovers", static_cast<double>(r.router.failovers),
           "count");
}

Outcome RunServeOpenLoop(const Args& args, Tracer* tracer) {
  vsd::ThreadPool::SetGlobalThreads(1);
  vsd::FaultInjector::Global().Disable();
  Outcome out;

  // The untraced run is one pass; the traced run is an untraced and a
  // traced pass of half the length each. Every pass sends videos of its
  // own: the set-up renders the first pass's, and the second pass renders
  // its own untimed.
  const int passes = args.trace ? 2 : 1;
  const std::vector<Phase> phases = PassPhases(args.seconds / passes);
  std::vector<Arrival> schedule = MakeSchedule(args.seed, phases, 0);

  auto state = TimedSetup<ServeState>(
      args, tracer, &out, [&](Tracer* t, int64_t span) {
        auto s = std::make_unique<ServeState>();
        s->videos = RenderVideos(static_cast<int>(schedule.size()), args.seed,
                                 t, span);
        const vdata::Dataset warm =
            RenderVideos(kWarmVideos, args.seed ^ 0xA11CE, t, span);
        s->rendered = static_cast<int>(schedule.size()) + kWarmVideos;
        s->model = PretrainBackbone(args.seed, t, span);
        ScopedSpan build(t, "setup.build_and_warm", -1, span);
        BuildServing(s.get(), warm, args.seed);
        return s;
      });

  std::vector<PassResult> results;
  for (int p = 0; p < passes; ++p) {
    if (p > 0) {
      const uint64_t seed = args.seed + 1000003ULL;
      schedule = MakeSchedule(seed, phases, 0);
      Tracer off(false);
      state->videos =
          RenderVideos(static_cast<int>(schedule.size()), seed, &off, -1);
    }
    tracer->set_enabled(args.trace && p == 1);
    results.push_back(RunCheckedPass(*state, schedule, tracer, &out));
    tracer->set_enabled(false);
    if (!LagValid(results.back())) {
      out.Fail("generator lag p99 exceeded the light-phase p50: run invalid");
    }
  }
  state->pool->Shutdown();
  if (out.failed > 0) out.Fail(std::to_string(out.failed) + " failed requests");

  if (!args.trace) {
    out.metrics.push_back(OpP50(results[0]));
    return out;
  }

  out.AddOverhead({OpP50(results[0])}, {OpP50(results[1])});
  AddSetupLayerMetrics(tracer->Spans(), state->rendered, &out);
  LayerProbes(*state->model, args.seed, tracer, &out);
  return out;
}

}  // namespace perfbench
