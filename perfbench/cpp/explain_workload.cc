// explain_fig6: both sides of the paper's Fig. 6 on unseen videos.
//
// Closed loop, one caller, 2 pool threads. Each video gets two ops:
//   chain  ChainPipeline::RunBatch on a batch of 1 (Describe -> Assess ->
//          Highlight, with text): the self-explanation.
//   lime   img::Slic with 64 segments, then LimeExplainer(1000) through
//          bench::ModelBatchClassifier: the post-hoc explanation, one
//          batch-32 vision forward per 32 perturbations.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>

#include "bench/harness.h"
#include "common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "cot/pipeline.h"
#include "explain/lime.h"
#include "img/slic.h"
#include "probes.h"
#include "setup.h"

namespace perfbench {

namespace vdata = vsd::data;
namespace explain = vsd::explain;

namespace {

constexpr int kThreads = 2;
constexpr int kLimeSamples = 1000;
constexpr int kWarmVideos = 32;
/// Videos rendered, untimed, each time a pass runs out of them.
constexpr int kMoreVideos = 32;

struct ExplainState {
  std::unique_ptr<vsd::vlm::FoundationModel> model;
  std::unique_ptr<vsd::cot::ChainPipeline> pipeline;
  vdata::Dataset videos;
  int rendered = 0;
};

struct LimeResult {
  double wall_ms = 0.0;
  explain::Attribution attribution;
};

/// One lime op on `video`. When tracing, every classifier call is also
/// recorded as a child span of the op.
LimeResult ExplainWithLime(const vsd::vlm::FoundationModel& model,
                           const vdata::VideoSample& video, uint64_t seed,
                           Tracer* tracer, int64_t op) {
  LimeResult t;
  const SteadyTime start = Now();
  const int64_t root = tracer->Begin("explain.lime_op", op);
  const int64_t slic_span = tracer->Begin("img.slic", op, root);
  const vsd::img::Segmentation segmentation =
      vsd::img::Slic(video.expressive_frame, vsd::bench::kNumSlicSegments);
  tracer->End(slic_span);

  const int64_t lime_span = tracer->Begin("explain.lime", op, root);
  explain::BatchClassifierFn classifier =
      vsd::bench::ModelBatchClassifier(model, video, /*use_chain=*/true);
  if (tracer->enabled()) {
    classifier = [inner = std::move(classifier), tracer, op,
                  lime_span](std::span<const vsd::img::Image> frames) {
      const int64_t a = NowNanos();
      std::vector<double> probs = inner(frames);
      tracer->Record("explain.classifier", op, lime_span, a, NowNanos());
      return probs;
    };
  }
  vsd::Rng rng(seed);
  const explain::LimeExplainer lime(kLimeSamples);
  t.attribution =
      lime.Explain(classifier, video.expressive_frame, segmentation, &rng);
  tracer->End(lime_span);
  tracer->End(root);
  t.wall_ms = SecondsBetween(start, Now()) * 1e3;
  return t;
}

/// Per-op medians of the lime ops' breakdown, from the traced spans.
void AddLimeBreakdown(const std::vector<Span>& spans, Outcome* out) {
  struct Op {
    int64_t wall_ns = 0;
    int64_t slic_ns = 0;
    std::vector<std::pair<int64_t, int64_t>> calls;
  };
  std::map<int64_t, Op> ops;
  for (const Span& sp : spans) {
    if (sp.name == "explain.lime_op") ops[sp.op].wall_ns = sp.end_ns - sp.start_ns;
    if (sp.name == "img.slic") ops[sp.op].slic_ns = sp.end_ns - sp.start_ns;
    if (sp.name == "explain.classifier") {
      ops[sp.op].calls.push_back({sp.start_ns, sp.end_ns});
    }
  }
  std::vector<double> slic, busy, calls, rest, eff;
  for (const auto& [id, op] : ops) {
    int64_t busy_ns = 0;
    for (const auto& [a, b] : op.calls) busy_ns += b - a;
    const int64_t covered_ns = CoveredNanos(op.calls, INT64_MIN, INT64_MAX);
    slic.push_back(static_cast<double>(op.slic_ns) / 1e6);
    busy.push_back(static_cast<double>(busy_ns) / 1e6);
    calls.push_back(static_cast<double>(op.calls.size()));
    rest.push_back(static_cast<double>(op.wall_ns - op.slic_ns - covered_ns) /
                   1e6);
    eff.push_back(static_cast<double>(busy_ns) /
                  (kThreads * static_cast<double>(covered_ns)));
  }
  out->Add("img.slic_ms", Median(slic), "ms");
  out->Add("explain.classifier_ms", Median(busy), "ms");
  out->Add("explain.classifier_calls", Median(calls), "count");
  out->Add("explain.rest_ms", Median(rest), "ms");
  out->Add("common.pool_eff", Median(eff), "ratio");
}

struct PassResult {
  std::vector<double> chain_ms;
  std::vector<double> lime_ms;
  std::vector<double> chain_probs;  ///< Assess probability per chain op.
  explain::Attribution first_lime;
  int videos = 0;  ///< Videos explained (from the pass's first video on).
};

/// Explains videos from `first_video` on for `seconds`, at least one. When
/// the set-up's videos run out, renders more unseen ones untimed.
PassResult RunPass(ExplainState& s, int first_video, double seconds,
                   uint64_t seed, Tracer* tracer) {
  PassResult r;
  const SteadyTime end = Now() + std::chrono::duration_cast<
                                     std::chrono::steady_clock::duration>(
                                     std::chrono::duration<double>(seconds));
  for (int v = first_video; v == first_video || Now() < end; ++v) {
    if (v == s.videos.size()) {
      Tracer off(false);
      vdata::Dataset more = RenderVideos(
          kMoreVideos, seed + 1000003ULL * static_cast<uint64_t>(v), &off, -1);
      for (auto& video : more.samples) s.videos.samples.push_back(std::move(video));
    }
    const vdata::VideoSample& video = s.videos.samples[static_cast<size_t>(v)];
    const vdata::VideoSample* one[] = {&video};
    {
      vsd::Rng rng(seed + static_cast<uint64_t>(v));
      const SteadyTime start = Now();
      ScopedSpan span(tracer, "explain.chain_op", v);
      const int64_t run = tracer->Begin("cot.run_batch", v, span.index());
      const auto outs = s.pipeline->RunBatch(one, &rng);
      tracer->End(run);
      r.chain_ms.push_back(SecondsBetween(start, Now()) * 1e3);
      r.chain_probs.push_back(outs[0].assess.prob_stressed);
    }
    LimeResult t = ExplainWithLime(*s.model, video,
                                   seed ^ static_cast<uint64_t>(v), tracer, v);
    r.lime_ms.push_back(t.wall_ms);
    if (v == first_video) r.first_lime = std::move(t.attribution);
    ++r.videos;
  }
  return r;
}

/// The workload's op is a lime op: its median is the pass's end-to-end
/// metric.
Metric OpP50(const PassResult& r) {
  return {"op.p50_ms", Median(r.lime_ms), "ms"};
}

}  // namespace

void ExplainProbe(const vsd::vlm::FoundationModel& model, uint64_t seed,
                  Tracer* tracer, Outcome* out) {
  vsd::ThreadPool::SetGlobalThreads(kThreads);
  Tracer off(false);
  const vdata::Dataset videos =
      RenderVideos(1 + kProbeReps, seed ^ 0xE4B1A1, &off, -1);
  const vsd::cot::ChainPipeline pipeline(&model, ChainConfigFor(seed));
  const size_t first_span = tracer->Spans().size();
  // The first video's ops compile the lazy graphs and are not traced.
  for (int v = 0; v <= kProbeReps; ++v) {
    Tracer* t = v == 0 ? &off : tracer;
    const vdata::VideoSample* one[] = {&videos.samples[static_cast<size_t>(v)]};
    vsd::Rng rng(seed + static_cast<uint64_t>(v));
    {
      ScopedSpan op(t, "explain.chain_op", v);
      const int64_t run = t->Begin("cot.run_batch", v, op.index());
      (void)pipeline.RunBatch(one, &rng);
      t->End(run);
    }
    (void)ExplainWithLime(model, *one[0], seed ^ static_cast<uint64_t>(v), t, v);
  }
  const std::vector<Span> all = tracer->Spans();
  const std::vector<Span> spans(all.begin() + static_cast<ptrdiff_t>(first_span),
                                all.end());
  out->Add("cot.run_fresh_us",
           Median(Tracer::Durations(spans, "cot.run_batch")) * 1e3, "us");
  AddLimeBreakdown(spans, out);
}

Outcome RunExplainFig6(const Args& args, Tracer* tracer) {
  vsd::ThreadPool::SetGlobalThreads(kThreads);
  Outcome out;
  // More videos than today's speed (~0.18 s per video) explains in a run.
  const int num_videos = static_cast<int>(args.seconds * 8) + 8;

  auto state = TimedSetup<ExplainState>(
      args, tracer, &out, [&](Tracer* t, int64_t span) {
        auto s = std::make_unique<ExplainState>();
        s->videos = RenderVideos(num_videos, args.seed, t, span);
        const vdata::Dataset warm =
            RenderVideos(kWarmVideos, args.seed ^ 0xA11CE, t, span);
        s->rendered = num_videos + kWarmVideos;
        s->model = PretrainBackbone(args.seed, t, span);
        ScopedSpan build(t, "setup.build_and_warm", -1, span);
        s->pipeline = std::make_unique<vsd::cot::ChainPipeline>(
            s->model.get(), ChainConfigFor(args.seed));
        WarmPredict(*s->pipeline, warm);
        // One op of each kind compiles the batch-1 chain graphs and the
        // batch-32 (and remainder) classifier graphs.
        const vdata::VideoSample* one[] = {&warm.samples[0]};
        vsd::Rng rng(1);
        (void)s->pipeline->RunBatch(one, &rng);
        Tracer off(false);
        (void)ExplainWithLime(*s->model, warm.samples[0], 1, &off, -1);
        return s;
      });

  const int passes = args.trace ? 2 : 1;
  std::vector<PassResult> results;
  int next_video = 0;
  for (int p = 0; p < passes; ++p) {
    tracer->set_enabled(args.trace && p == 1);
    results.push_back(RunPass(*state, next_video, args.seconds / passes,
                              args.seed, tracer));
    tracer->set_enabled(false);
    next_video += results.back().videos;
  }

  // Output checks: each chain op's Assess probability equals PredictBatch
  // for its video, and re-explaining each pass's first video with the same
  // seed gives a bit-identical LIME attribution.
  int video = 0;
  for (const PassResult& r : results) {
    out.attempted += static_cast<int64_t>(r.chain_ms.size() + r.lime_ms.size());
    const auto reference =
        state->pipeline->PredictBatch(Pointers(state->videos, video, video + r.videos));
    int64_t mismatches = 0;
    for (int i = 0; i < r.videos; ++i) {
      if (!SameBits(r.chain_probs[static_cast<size_t>(i)],
                    reference[static_cast<size_t>(i)])) {
        ++mismatches;
      }
    }
    Tracer off(false);
    const LimeResult again = ExplainWithLime(
        *state->model, state->videos.samples[static_cast<size_t>(video)],
        args.seed ^ static_cast<uint64_t>(video), &off, -1);
    ++out.attempted;
    bool same = again.attribution.segment_scores.size() ==
                r.first_lime.segment_scores.size();
    for (size_t i = 0; same && i < again.attribution.segment_scores.size(); ++i) {
      same = SameBits(again.attribution.segment_scores[i],
                      r.first_lime.segment_scores[i]);
    }
    if (mismatches > 0) {
      out.failed += mismatches;
      out.Fail(std::to_string(mismatches) +
               " chain Assess probabilities differ from PredictBatch");
    }
    if (!same) {
      ++out.failed;
      out.Fail("re-explaining the first video changed its LIME attribution");
    }
    video += r.videos;
  }

  std::fprintf(stderr, "[perfbench] explain_fig6: %zu chain ops, %zu lime ops\n",
               results.back().chain_ms.size(), results.back().lime_ms.size());
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
