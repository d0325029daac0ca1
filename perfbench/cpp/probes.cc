#include "probes.h"

#include <functional>
#include <string>
#include <vector>

#include "common/alloc_stats.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "cot/pipeline.h"
#include "nn/optimizer.h"
#include "setup.h"
#include "tensor/autograd.h"
#include "tensor/kernels.h"

namespace perfbench {

namespace kernels = vsd::tensor::kernels;
namespace vdata = vsd::data;

namespace {

/// Median wall time (ms) of `fn` over kProbeReps timed calls, each inside a
/// span called `name`. One untimed call first compiles lazy graphs.
double TimeMedianMs(Tracer* tracer, const std::string& name,
                    const std::function<void()>& fn) {
  fn();
  std::vector<double> ms;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const int64_t span = tracer->Begin(name, rep);
    const SteadyTime start = Now();
    fn();
    ms.push_back(SecondsBetween(start, Now()) * 1e3);
    tracer->End(span);
  }
  return Median(ms);
}

/// Median seconds per call of a kernel, timed in rounds of >= 2 ms.
double KernelSeconds(Tracer* tracer, const std::string& name,
                     const std::function<void()>& fn) {
  int calls = 1;
  SteadyTime start = Now();
  fn();
  while (SecondsBetween(start, Now()) < 2e-3) {
    calls *= 2;
    start = Now();
    for (int i = 0; i < calls; ++i) fn();
  }
  const double ms = TimeMedianMs(tracer, name, [&] {
    for (int i = 0; i < calls; ++i) fn();
  });
  return ms / 1e3 / calls;
}

std::vector<float> RandomFloats(size_t n, vsd::Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return v;
}

int ConvOut(int in, int kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

}  // namespace

void KernelProbe(Tracer* tracer, Outcome* out) {
  vsd::ThreadPool::SetGlobalThreads(1);
  vsd::Rng rng(0x6E77);
  constexpr int kFrames = 16;  // Batch 8 of (expressive, neutral) pairs.
  struct Shape {
    const char* metric;
    int m, k, n;
  };
  const int c1 = ConvOut(48, 5, 2, 2);  // 24
  const int c2 = ConvOut(c1, 3, 2, 1);  // 12
  const Shape shapes[] = {
      {"tensor.matmul.conv1_gflops", kFrames * c1 * c1, 5 * 5 * 1, 8},
      {"tensor.matmul.conv2_gflops", kFrames * c2 * c2, 3 * 3 * 8, 16},
      {"tensor.matmul.proj_gflops", kFrames, c2 * c2 * 16, 48},
      {"tensor.matmul.trunk_gflops", 8, 2 * 48, 96},
  };
  for (const Shape& s : shapes) {
    const auto a = RandomFloats(static_cast<size_t>(s.m) * s.k, &rng);
    const auto b = RandomFloats(static_cast<size_t>(s.k) * s.n, &rng);
    std::vector<float> c(static_cast<size_t>(s.m) * s.n);
    const double sec = KernelSeconds(tracer, s.metric, [&] {
      kernels::MatMulInto(a.data(), b.data(), c.data(), s.m, s.k, s.n);
    });
    out->Add(s.metric, 2.0 * s.m * s.k * s.n / sec / 1e9, "GFLOP/s");
  }

  // Bytes are computed from tensor sizes (input read + output written),
  // not measured traffic.
  struct Conv {
    int h, c, kernel, stride, pad;
  };
  double bytes = 0.0;
  double seconds = 0.0;
  for (const Conv& cv : {Conv{48, 1, 5, 2, 2}, Conv{c1, 8, 3, 2, 1}}) {
    const int o = ConvOut(cv.h, cv.kernel, cv.stride, cv.pad);
    const size_t in = static_cast<size_t>(kFrames) * cv.h * cv.h * cv.c;
    const size_t col =
        static_cast<size_t>(kFrames) * o * o * cv.kernel * cv.kernel * cv.c;
    const auto x = RandomFloats(in, &rng);
    std::vector<float> y(col);
    seconds += KernelSeconds(tracer, "tensor.im2col", [&] {
      kernels::Im2ColInto(x.data(), y.data(), kFrames, cv.h, cv.h, cv.c,
                          cv.kernel, cv.kernel, cv.stride, cv.pad);
    });
    bytes += 4.0 * static_cast<double>(in + col);
  }
  out->Add("tensor.im2col_gbps", bytes / seconds / 1e9, "GB/s");

  const int width = 8 * 96;  // Trunk activations at batch 8.
  const auto x = RandomFloats(width, &rng);
  std::vector<float> y(width);
  out->Add("tensor.gelu_gelems",
           width / KernelSeconds(tracer, "tensor.gelu", [&] {
             kernels::GeluInto(x.data(), y.data(), width);
           }) / 1e9,
           "Gelem/s");
  out->Add("tensor.relu_gelems",
           width / KernelSeconds(tracer, "tensor.relu", [&] {
             kernels::ReluInto(x.data(), y.data(), width);
           }) / 1e9,
           "Gelem/s");
}

void ModelProbe(const vsd::vlm::FoundationModel& model, uint64_t seed,
                Tracer* tracer, Outcome* out) {
  vsd::ThreadPool::SetGlobalThreads(1);
  // 1 warm-up + kProbeReps timed calls per batch size, each on videos the
  // model has never seen: 10 * (1 + 8 + 32) videos.
  constexpr int kPerSize = 1 + kProbeReps;
  const vdata::Dataset videos =
      RenderVideos(kPerSize * (1 + 8 + 32), seed ^ 0x9B0BE, tracer, -1);
  const vsd::cot::ChainPipeline pipeline(&model, ChainConfigFor(seed));
  const auto& vision = model.vision();

  int next = 0;  // Next unseen video.
  auto fresh = [&](int b) {
    auto batch = Pointers(videos, next, next + b);
    next += b;
    return batch;
  };
  auto frames = [](const std::vector<const vdata::VideoSample*>& batch,
                   bool expressive) {
    std::vector<const vsd::img::Image*> out;
    for (const auto* v : batch) {
      out.push_back(expressive ? &v->expressive_frame : &v->neutral_frame);
    }
    return out;
  };

  double fresh_b8 = 0.0;
  for (int b : {1, 8}) {
    const double ms = TimeMedianMs(
        tracer, "cot.predict_fresh.b" + std::to_string(b),
        [&] { (void)pipeline.PredictBatch(fresh(b)); });
    if (b == 8) fresh_b8 = ms / b;
    out->Add("cot.predict_fresh_us.b" + std::to_string(b), ms * 1e3 / b, "us");
  }

  // Vision tower alone, on the same kind of unseen pairs.
  double embed_b8 = 0.0;
  next = 0;
  for (int b : {1, 8, 32}) {
    const double ms =
        TimeMedianMs(tracer, "vlm.embed_pair.b" + std::to_string(b), [&] {
          const auto batch = fresh(b);
          (void)vision.EmbedPairs(frames(batch, true), frames(batch, false));
        });
    if (b == 8) embed_b8 = ms / b;
    out->Add("vlm.embed_pair_us.b" + std::to_string(b), ms * 1e3 / b, "us");
  }
  out->Add("cot.vision_passes", fresh_b8 / embed_b8, "ratio");

  {
    const auto batch = Pointers(videos, 0, 8);
    std::vector<const vsd::img::Image*> all = frames(batch, true);
    for (const auto* f : frames(batch, false)) all.push_back(f);
    const double ms = TimeMedianMs(tracer, "vlm.pack",
                                   [&] { (void)vision.PackImages(all); });
    out->Add("vlm.pack_us", ms * 1e3 / static_cast<double>(all.size()), "us");
  }

  {
    // One LIME-sized classifier batch: 32 perturbed expressive frames
    // against one shared neutral frame.
    const auto batch = Pointers(videos, 0, 32);
    const auto expressive = frames(batch, true);
    vsd::face::AuMask description{};
    const double ms = TimeMedianMs(tracer, "vlm.assess_frames", [&] {
      (void)model.AssessProbStressedWithFramesBatch(
          expressive, batch[0]->neutral_frame, description);
    });
    out->Add("vlm.assess_frames_us", ms * 1e3 / 32, "us");
  }

  {
    // Heads only: the same 8 videos after their features are cached.
    auto cached = model.Clone();
    const vdata::Dataset eight{"probe", {videos.samples.begin(),
                                         videos.samples.begin() + 8}};
    cached->PrecomputeFeatures(eight);
    const vsd::cot::ChainPipeline heads(cached.get(), ChainConfigFor(seed));
    const auto batch = Pointers(eight, 0, 8);
    const double ms = TimeMedianMs(tracer, "cot.predict_cached.b8",
                                   [&] { (void)heads.PredictBatch(batch); });
    out->Add("cot.predict_cached_us.b8", ms * 1e3 / 8, "us");
  }

  if (vsd::AllocHookInstalled()) {
    const auto batch = Pointers(videos, 0, 8);
    (void)pipeline.PredictBatch(batch);
    const uint64_t before = vsd::AllocCount();
    (void)pipeline.PredictBatch(batch);
    out->Add("nn.allocs_per_predict",
             static_cast<double>(vsd::AllocCount() - before) / 8, "count");
  }
}

void TrainProbe(const vsd::vlm::FoundationModel& base, uint64_t seed,
                Tracer* tracer, Outcome* out) {
  namespace ag = vsd::autograd;
  vsd::ThreadPool::SetGlobalThreads(1);
  Tracer off(false);
  const FitSplit split = MakeFitSplit(seed, &off, -1);
  auto model = base.Clone();
  model->ClearFeatureCache();
  const auto batch = Pointers(split.au_data, 0, 32);
  std::vector<vsd::face::AuMask> targets;
  for (const auto* v : batch) targets.push_back(v->au_label);
  vsd::nn::Adam adam(model->Parameters(), 1e-3f);

  std::vector<double> loss_ms, backward_ms, step_ms;
  for (int rep = 0; rep <= kProbeReps; ++rep) {
    const int64_t root = tracer->Begin("train.step", rep);
    SteadyTime t0 = Now();
    const int64_t s1 = tracer->Begin("vlm.describe_loss", rep, root);
    ag::Var loss = model->DescribeLoss(batch, targets, /*train_vision=*/true);
    tracer->End(s1);
    SteadyTime t1 = Now();
    adam.ZeroGrad();
    const int64_t s2 = tracer->Begin("tensor.backward", rep, root);
    ag::Backward(loss);
    tracer->End(s2);
    SteadyTime t2 = Now();
    const int64_t s3 = tracer->Begin("nn.adam_step", rep, root);
    adam.Step();
    tracer->End(s3);
    SteadyTime t3 = Now();
    tracer->End(root);
    if (rep == 0) continue;  // Warm-up step.
    loss_ms.push_back(SecondsBetween(t0, t1) * 1e3);
    backward_ms.push_back(SecondsBetween(t1, t2) * 1e3);
    step_ms.push_back(SecondsBetween(t2, t3) * 1e3);
  }
  out->Add("vlm.describe_loss_ms", Median(loss_ms), "ms");
  out->Add("tensor.backward_ms", Median(backward_ms), "ms");
  out->Add("nn.adam_step_ms", Median(step_ms), "ms");

  const double precompute_ms = TimeMedianMs(tracer, "vlm.precompute", [&] {
    model->ClearFeatureCache();
    model->PrecomputeFeatures(split.train);
  });
  out->Add("vlm.precompute_ms", precompute_ms, "ms");

  const int64_t fit = tracer->Begin("train.fit", 0);
  const vsd::cot::TrainReport report = Fit(base, split, seed, tracer, 0, fit);
  tracer->End(fit);
  out->Add("cot.fit_dpo_pairs",
           report.describe_dpo_pairs + report.rationale_dpo_pairs, "count");
}

void LayerProbes(const vsd::vlm::FoundationModel& model, uint64_t seed,
                 Tracer* tracer, Outcome* out) {
  tracer->set_enabled(true);
  KernelProbe(tracer, out);
  ModelProbe(model, seed, tracer, out);
  TrainProbe(model, seed, tracer, out);
  ExplainProbe(model, seed, tracer, out);
  ServeProbe(model, seed, tracer, out);
  tracer->set_enabled(false);
}

}  // namespace perfbench
