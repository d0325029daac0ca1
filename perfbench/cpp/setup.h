#ifndef PERFBENCH_SETUP_H_
#define PERFBENCH_SETUP_H_

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.h"
#include "cot/chain_config.h"
#include "cot/pipeline.h"
#include "cot/trainer.h"
#include "data/sample.h"
#include "vlm/foundation_model.h"

namespace perfbench {

/// `n` distinct UVSD-sim videos rendered from `seed` (traced as
/// `data.render`).
vsd::data::Dataset RenderVideos(int n, uint64_t seed, Tracer* tracer,
                                int64_t parent);

/// The quick-spec generalist backbone, exactly as `bench::PretrainedBase`
/// builds it with `--quick`. Called directly because PretrainedBase caches
/// per process, and every set-up repetition must pay the pretrain (traced
/// as `vlm.pretrain`).
std::unique_ptr<vsd::vlm::FoundationModel> PretrainBackbone(uint64_t seed,
                                                            Tracer* tracer,
                                                            int64_t parent);

/// The data one Algorithm-1 fit trains on.
struct FitSplit {
  vsd::data::Dataset train;    ///< UVSD-sim videos.
  vsd::data::Dataset au_data;  ///< DISFA-sim videos (the AU dataset D').
};

/// 128 UVSD-sim + 128 DISFA-sim videos from `seed` (traced as
/// `data.render`).
FitSplit MakeFitSplit(uint64_t seed, Tracer* tracer, int64_t parent);

/// One fit as train_fold times it: clones `base` and runs
/// `cot::ChainTrainer::Train` on `split` with an RNG made from `seed`
/// (traced as `vlm.clone` and `cot.train` under `parent`).
vsd::cot::TrainReport Fit(const vsd::vlm::FoundationModel& base,
                          const FitSplit& split, uint64_t seed,
                          Tracer* tracer, int64_t op, int64_t parent);

/// `bench::OursChainConfig` at the quick spec.
vsd::cot::ChainConfig ChainConfigFor(uint64_t seed);

/// Compiles every inference graph the served and explained paths use:
/// `PredictBatch` at batch 1..8 and 32 over `warm` (needs >= 32 videos).
void WarmPredict(const vsd::cot::ChainPipeline& pipeline,
                 const vsd::data::Dataset& warm);

/// `vlm.pretrain_s` and `data.render_us` from the traced set-up's spans
/// (`rendered` videos in all).
void AddSetupLayerMetrics(const std::vector<Span>& spans, int rendered,
                          Outcome* out);

/// Pointers to `dataset.samples[begin, end)`.
std::vector<const vsd::data::VideoSample*> Pointers(
    const vsd::data::Dataset& dataset, int begin, int end);

/// Runs the workload's set-up (`build(tracer, setup_span)` returns the
/// state) and reports its time. It sets up three times. Untraced runs
/// report the median as `setup_s`. The traced run traces the last set-up
/// and reports the last minus the second as `overhead.setup_s` (the first
/// set-up of a process is the slowest). Returns the last state built.
template <typename State, typename Build>
std::unique_ptr<State> TimedSetup(const Args& args, Tracer* tracer,
                                  Outcome* out, Build build) {
  constexpr int kReps = 3;
  std::unique_ptr<State> state;
  std::vector<double> seconds;
  for (int rep = 0; rep < kReps; ++rep) {
    tracer->set_enabled(args.trace && rep == kReps - 1);
    state.reset();  // Free the previous state before building the next.
    const SteadyTime start = Now();
    const int64_t span = tracer->Begin("setup", -1);
    state = build(tracer, span);
    tracer->End(span);
    seconds.push_back(SecondsBetween(start, Now()));
    std::fprintf(stderr, "[perfbench] set-up %d/%d: %.3f s\n", rep + 1, kReps,
                 seconds.back());
  }
  tracer->set_enabled(false);
  if (args.trace) {
    out->Add("overhead.setup_s", seconds[2] - seconds[1], "s");
  } else {
    out->Add("setup_s", Median(seconds), "s");
  }
  return state;
}

}  // namespace perfbench

#endif  // PERFBENCH_SETUP_H_
