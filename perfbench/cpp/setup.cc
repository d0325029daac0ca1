#include "setup.h"

#include "bench/harness.h"
#include "common/rng.h"
#include "data/generator.h"
#include "vlm/api_models.h"

namespace perfbench {

namespace vdata = vsd::data;
namespace vlm = vsd::vlm;

vdata::Dataset RenderVideos(int n, uint64_t seed, Tracer* tracer,
                            int64_t parent) {
  ScopedSpan span(tracer, "data.render", -1, parent);
  return vdata::MakeUvsdSimSmall(n, seed);
}

std::unique_ptr<vlm::FoundationModel> PretrainBackbone(uint64_t seed,
                                                       Tracer* tracer,
                                                       int64_t parent) {
  ScopedSpan span(tracer, "vlm.pretrain", -1, parent);
  vlm::ApiModelSpec spec = vlm::BackboneInitSpec();
  spec.pretrain_epochs = 4;  // The --quick spec of bench::PretrainedBase.
  spec.corpus_size = 300;
  auto model = std::make_unique<vlm::FoundationModel>(spec.config);
  vlm::PretrainGeneralist(model.get(), spec, seed * 11 + 5);
  return model;
}

FitSplit MakeFitSplit(uint64_t seed, Tracer* tracer, int64_t parent) {
  constexpr int kFitVideos = 128;
  constexpr int kAuVideos = 128;
  FitSplit split;
  split.train = RenderVideos(kFitVideos, seed, tracer, parent);
  ScopedSpan render(tracer, "data.render", -1, parent);
  split.au_data = vdata::MakeDisfaSim(seed + 3, kAuVideos);
  return split;
}

vsd::cot::TrainReport Fit(const vlm::FoundationModel& base,
                          const FitSplit& split, uint64_t seed,
                          Tracer* tracer, int64_t op, int64_t parent) {
  std::unique_ptr<vlm::FoundationModel> model;
  {
    ScopedSpan clone(tracer, "vlm.clone", op, parent);
    model = base.Clone();
    model->ClearFeatureCache();
  }
  const vsd::cot::ChainTrainer trainer(ChainConfigFor(seed));
  vsd::Rng rng(seed ^ 0xF17);
  ScopedSpan train(tracer, "cot.train", op, parent);
  return trainer.Train(model.get(), split.au_data, split.train, &rng);
}

vsd::cot::ChainConfig ChainConfigFor(uint64_t seed) {
  vsd::bench::BenchOptions options;
  options.quick = true;
  options.seed = seed;
  return vsd::bench::OursChainConfig(options);
}

void WarmPredict(const vsd::cot::ChainPipeline& pipeline,
                 const vdata::Dataset& warm) {
  for (int b : {1, 2, 3, 4, 5, 6, 7, 8, 32}) {
    (void)pipeline.PredictBatch(Pointers(warm, 0, b));
  }
}

void AddSetupLayerMetrics(const std::vector<Span>& spans, int rendered,
                          Outcome* out) {
  out->Add("vlm.pretrain_s",
           Median(Tracer::Durations(spans, "vlm.pretrain")) / 1e3, "s");
  double render_ms = 0.0;
  for (double ms : Tracer::Durations(spans, "data.render")) render_ms += ms;
  out->Add("data.render_us", render_ms * 1e3 / rendered, "us");
}

std::vector<const vdata::VideoSample*> Pointers(const vdata::Dataset& dataset,
                                                int begin, int end) {
  std::vector<const vdata::VideoSample*> out;
  out.reserve(static_cast<size_t>(end - begin));
  for (int i = begin; i < end; ++i) {
    out.push_back(&dataset.samples[static_cast<size_t>(i)]);
  }
  return out;
}

}  // namespace perfbench
