// train_fold: Algorithm 1 on eager autograd.
//
// Closed loop, 1 thread. Each op clones the pretrained backbone and runs
// cot::ChainTrainer::Train on the same 128 UVSD-sim + 128 DISFA-sim split
// with the same seed, so every op does identical work and must return an
// identical TrainReport.
#include <cstdio>

#include "common.h"
#include "common/thread_pool.h"
#include "probes.h"
#include "setup.h"

namespace perfbench {

namespace {

struct TrainState {
  std::unique_ptr<vsd::vlm::FoundationModel> model;
  FitSplit split;
};

bool SameReport(const vsd::cot::TrainReport& a, const vsd::cot::TrainReport& b) {
  return a.describe_dpo_pairs == b.describe_dpo_pairs &&
         a.rationale_dpo_pairs == b.rationale_dpo_pairs &&
         a.refined_descriptions == b.refined_descriptions &&
         SameBits(a.final_assess_loss, b.final_assess_loss);
}

struct PassResult {
  std::vector<double> fit_ms;
  std::vector<vsd::cot::TrainReport> reports;
};

PassResult RunPass(const TrainState& s, double seconds, uint64_t seed,
                   Tracer* tracer) {
  PassResult r;
  const SteadyTime start = Now();
  // At least one fit, so even a short run measures one.
  for (int64_t op = 0; op == 0 || SecondsBetween(start, Now()) < seconds; ++op) {
    const SteadyTime t0 = Now();
    ScopedSpan fit(tracer, "train.fit", op);
    r.reports.push_back(Fit(*s.model, s.split, seed, tracer, op, fit.index()));
    r.fit_ms.push_back(SecondsBetween(t0, Now()) * 1e3);
  }
  return r;
}

/// The workload's op is a fit: its median is the pass's end-to-end metric.
Metric OpP50(const PassResult& r) {
  return {"op.p50_ms", Median(r.fit_ms), "ms"};
}

}  // namespace

Outcome RunTrainFold(const Args& args, Tracer* tracer) {
  vsd::ThreadPool::SetGlobalThreads(1);
  Outcome out;
  auto state = TimedSetup<TrainState>(
      args, tracer, &out, [&](Tracer* t, int64_t span) {
        auto s = std::make_unique<TrainState>();
        s->split = MakeFitSplit(args.seed, t, span);
        s->model = PretrainBackbone(args.seed, t, span);
        return s;
      });

  const int passes = args.trace ? 2 : 1;
  std::vector<PassResult> results;
  for (int p = 0; p < passes; ++p) {
    tracer->set_enabled(args.trace && p == 1);
    results.push_back(RunPass(*state, args.seconds / passes, args.seed, tracer));
    tracer->set_enabled(false);
  }

  // Output check: every fit reports exactly what the first fit reported.
  const vsd::cot::TrainReport& first = results[0].reports[0];
  std::fprintf(stderr,
               "[perfbench] train_fold: %d describe + %d rationale DPO pairs, "
               "%d refined, final assess loss %.17g; %zu fits, median %.1f ms\n",
               first.describe_dpo_pairs, first.rationale_dpo_pairs,
               first.refined_descriptions, first.final_assess_loss,
               results[0].fit_ms.size(), Median(results[0].fit_ms));
  for (const PassResult& r : results) {
    for (const auto& report : r.reports) {
      ++out.attempted;
      if (!SameReport(report, first)) ++out.failed;
    }
  }
  if (out.failed > 0) {
    out.Fail(std::to_string(out.failed) + " fits differ from the first fit");
  }

  if (!args.trace) {
    out.metrics.push_back(OpP50(results[0]));
    return out;
  }

  out.AddOverhead({OpP50(results[0])}, {OpP50(results[1])});
  AddSetupLayerMetrics(
      tracer->Spans(), state->split.train.size() + state->split.au_data.size(),
      &out);
  LayerProbes(*state->model, args.seed, tracer, &out);
  return out;
}

}  // namespace perfbench
