// Equivalence + allocation harness for the graph-compiled executor
// (nn/graph.h). Three contracts are pinned here:
//
//  1. Bit-identity: with graph execution on, every wired inference surface
//     (pipeline predictions, model heads, explainer attributions, the
//     fallible Try* paths) produces results bit-identical to the eager
//     reference, across a (batch size, thread count) sweep.
//  2. Zero allocations: GraphExecutor::Execute performs no heap
//     allocations after warm-up, enforced with the counting allocator in
//     common/alloc_stats.h (alloc_hook.cc is linked into this test only).
//  3. Arena hygiene: executing with fresh inputs on a reused arena cannot
//     leak values from the previous batch.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "bench/harness.h"
#include "common/alloc_stats.h"
#include "common/batching.h"
#include "common/faults.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "cot/chain_config.h"
#include "cot/pipeline.h"
#include "data/generator.h"
#include "explain/kernel_shap.h"
#include "explain/lime.h"
#include "explain/occlusion.h"
#include "explain/sobol.h"
#include "img/slic.h"
#include "nn/graph.h"
#include "nn/layers.h"
#include "vlm/foundation_model.h"
#include "vlm/quantize.h"

namespace vsd {
namespace {

namespace graph = ::vsd::nn::graph;

/// Flips compiled execution on/off for a scope and restores the previous
/// mode on exit, so tests compose regardless of VSD_GRAPH_EXEC.
class GraphModeGuard {
 public:
  explicit GraphModeGuard(bool enabled)
      : previous_(graph::GraphExecEnabled()) {
    graph::SetGraphExecEnabled(enabled);
  }
  ~GraphModeGuard() { graph::SetGraphExecEnabled(previous_); }
  GraphModeGuard(const GraphModeGuard&) = delete;
  GraphModeGuard& operator=(const GraphModeGuard&) = delete;

 private:
  bool previous_;
};

/// Same small untrained world as batch_equivalence_test: deterministic and
/// cheap, which is all equivalence testing needs.
struct ModelWorld {
  data::Dataset dataset;
  vlm::FoundationModel model;

  ModelWorld()
      : dataset(data::MakeUvsdSimSmall(48, 1234)), model(MakeConfig()) {
    model.PrecomputeFeatures(dataset);
  }

  std::vector<const data::VideoSample*> Pointers(int n) const {
    std::vector<const data::VideoSample*> out;
    for (int i = 0; i < n && i < dataset.size(); ++i) {
      out.push_back(&dataset.samples[i]);
    }
    return out;
  }

  static vlm::FoundationModelConfig MakeConfig() {
    vlm::FoundationModelConfig config;
    config.vision_dim = 12;
    config.hidden_dim = 24;
    config.au_feature_dim = 12;
    config.seed = 9;
    return config;
  }
};

/// Parameterized over (batch size, thread count), like the batched-path
/// equivalence suite: compiled-vs-eager identity must hold at every point
/// of the sweep, including under concurrent executor leases.
class GraphExecTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  void SetUp() override {
    SetDefaultBatchSize(std::get<0>(GetParam()));
    ThreadPool::SetGlobalThreads(std::get<1>(GetParam()));
  }
  void TearDown() override {
    FaultInjector::Global().Disable();
    ThreadPool::SetGlobalThreads(1);
    SetDefaultBatchSize(32);
  }
};

TEST_P(GraphExecTest, PipelinePredictionsCompiledMatchEager) {
  ModelWorld world;
  cot::ChainConfig chain;
  cot::ChainPipeline pipeline(&world.model, chain);
  const auto samples = world.Pointers(world.dataset.size());

  std::vector<double> eager_probs;
  std::vector<int> eager_labels;
  std::vector<std::string> eager_transcripts;
  {
    GraphModeGuard eager(false);
    eager_probs = pipeline.PredictBatch(samples);
    eager_labels = pipeline.PredictLabelBatch(samples);
    std::vector<Rng> rngs;
    rngs.reserve(samples.size());
    for (size_t i = 0; i < samples.size(); ++i) rngs.emplace_back(900 + i);
    std::vector<Rng*> rng_ptrs;
    for (auto& rng : rngs) rng_ptrs.push_back(&rng);
    for (const auto& output : pipeline.RunBatch(samples, rng_ptrs)) {
      eager_transcripts.push_back(output.Transcript());
    }
  }

  GraphModeGuard compiled(true);
  EXPECT_EQ(pipeline.PredictBatch(samples), eager_probs);
  EXPECT_EQ(pipeline.PredictLabelBatch(samples), eager_labels);
  std::vector<Rng> rngs;
  rngs.reserve(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) rngs.emplace_back(900 + i);
  std::vector<Rng*> rng_ptrs;
  for (auto& rng : rngs) rng_ptrs.push_back(&rng);
  const std::vector<cot::ChainOutput> outputs =
      pipeline.RunBatch(samples, rng_ptrs);
  ASSERT_EQ(outputs.size(), eager_transcripts.size());
  for (size_t i = 0; i < outputs.size(); ++i) {
    EXPECT_EQ(outputs[i].Transcript(), eager_transcripts[i])
        << "sample " << i;
  }
}

TEST_P(GraphExecTest, ModelHeadsCompiledMatchEager) {
  ModelWorld world;
  const auto samples = world.Pointers(9);
  std::vector<face::AuMask> descriptions(samples.size());
  std::vector<int> assessments(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    descriptions[i][i % face::kNumAus] = true;
    descriptions[i][(3 * i) % face::kNumAus] = true;
    assessments[i] = static_cast<int>(i) % 2;
  }

  std::vector<std::vector<double>> eager_probs;
  std::vector<double> eager_log_probs;
  std::vector<double> eager_assess;
  std::vector<std::vector<int>> eager_rationales;
  {
    GraphModeGuard eager(false);
    eager_probs = world.model.DescribeProbsBatch(samples);
    eager_log_probs =
        world.model.DescriptionLogProbBatch(samples, descriptions);
    eager_assess =
        world.model.AssessProbStressedBatch(samples, descriptions);
    for (const auto& result :
         world.model.HighlightBatch(samples, descriptions, assessments,
                                    /*top_m=*/3, /*temperature=*/0.0, {})) {
      eager_rationales.push_back(result.ranked_aus);
    }
  }

  GraphModeGuard compiled(true);
  EXPECT_EQ(world.model.DescribeProbsBatch(samples), eager_probs);
  EXPECT_EQ(world.model.DescriptionLogProbBatch(samples, descriptions),
            eager_log_probs);
  EXPECT_EQ(world.model.AssessProbStressedBatch(samples, descriptions),
            eager_assess);
  const auto highlights =
      world.model.HighlightBatch(samples, descriptions, assessments,
                                 /*top_m=*/3, /*temperature=*/0.0, {});
  ASSERT_EQ(highlights.size(), eager_rationales.size());
  for (size_t i = 0; i < highlights.size(); ++i) {
    EXPECT_EQ(highlights[i].ranked_aus, eager_rationales[i])
        << "sample " << i;
  }
}

TEST_P(GraphExecTest, ExplainerAttributionsCompiledMatchEager) {
  ModelWorld world;
  const data::VideoSample& sample = world.dataset.samples[0];
  const img::Segmentation segmentation =
      img::Slic(sample.expressive_frame, bench::kNumSlicSegments);
  const explain::BatchClassifierFn classifier =
      bench::ModelBatchClassifier(world.model, sample, /*use_chain=*/true);

  const explain::LimeExplainer lime(48);
  const explain::KernelShapExplainer shap(48);
  const explain::SobolExplainer sobol(3);
  const explain::OcclusionExplainer occlusion;
  const std::vector<const explain::Explainer*> explainers = {
      &lime, &shap, &sobol, &occlusion};

  for (const explain::Explainer* explainer : explainers) {
    std::vector<double> eager_scores;
    {
      GraphModeGuard eager(false);
      Rng rng(321);
      eager_scores = explainer
                         ->Explain(classifier, sample.expressive_frame,
                                   segmentation, &rng)
                         .segment_scores;
    }
    GraphModeGuard compiled(true);
    Rng rng(321);
    const std::vector<double> compiled_scores =
        explainer
            ->Explain(classifier, sample.expressive_frame, segmentation,
                      &rng)
            .segment_scores;
    EXPECT_EQ(compiled_scores, eager_scores) << explainer->name();
  }
}

TEST_P(GraphExecTest, TryPathsCompiledMatchEager) {
  ModelWorld world;
  const auto samples = world.Pointers(10);
  std::vector<const img::Image*> images;
  std::vector<const img::Image*> neutrals;
  for (const auto* s : samples) {
    images.push_back(&s->expressive_frame);
    neutrals.push_back(&s->neutral_frame);
  }
  const auto& vision = world.model.vision();

  // Injected per-frame faults key off frame content, so both modes see the
  // exact same fault schedule; the surfaced Status must match too.
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = 11;
  faults.corrupt_rate = 0.08;
  faults.nan_rate = 0.1;
  FaultInjector::Global().Configure(faults);

  for (const bool fault_round : {false, true}) {
    if (!fault_round) FaultInjector::Global().Disable();
    if (fault_round) FaultInjector::Global().Configure(faults);

    vsd::Result<tensor::Tensor> eager_encode = Status::Internal("unset");
    vsd::Result<tensor::Tensor> eager_pairs = Status::Internal("unset");
    {
      GraphModeGuard eager(false);
      eager_encode = vision.TryEncodeBatch(images);
      eager_pairs = vision.TryEmbedPairs(images, neutrals);
    }
    GraphModeGuard compiled(true);
    const vsd::Result<tensor::Tensor> compiled_encode =
        vision.TryEncodeBatch(images);
    const vsd::Result<tensor::Tensor> compiled_pairs =
        vision.TryEmbedPairs(images, neutrals);

    ASSERT_EQ(compiled_encode.ok(), eager_encode.ok())
        << "fault_round " << fault_round;
    ASSERT_EQ(compiled_pairs.ok(), eager_pairs.ok())
        << "fault_round " << fault_round;
    if (compiled_encode.ok()) {
      const tensor::Tensor& a = compiled_encode.value();
      const tensor::Tensor& b = eager_encode.value();
      ASSERT_EQ(a.size(), b.size());
      for (int i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.at(i), b.at(i)) << "TryEncodeBatch element " << i;
      }
    } else {
      EXPECT_EQ(compiled_encode.status().ToString(),
                eager_encode.status().ToString());
    }
    if (compiled_pairs.ok()) {
      const tensor::Tensor& a = compiled_pairs.value();
      const tensor::Tensor& b = eager_pairs.value();
      ASSERT_EQ(a.size(), b.size());
      for (int i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.at(i), b.at(i)) << "TryEmbedPairs element " << i;
      }
    } else {
      EXPECT_EQ(compiled_pairs.status().ToString(),
                eager_pairs.status().ToString());
    }
  }
  FaultInjector::Global().Disable();
}

TEST_P(GraphExecTest, RepeatedExecutionOnReusedArenaStaysIdentical) {
  // Executors come back from the pool with a dirty arena; every kernel
  // must fully define its output range, so re-encoding different inputs
  // back-to-back has to keep matching eager exactly.
  ModelWorld world;
  const auto& vision = world.model.vision();
  for (int round = 0; round < 3; ++round) {
    std::vector<const img::Image*> images;
    for (int i = 0; i < 5; ++i) {
      images.push_back(
          &world.dataset.samples[(round * 5 + i) % world.dataset.size()]
               .expressive_frame);
    }
    std::vector<float> eager_rows;
    {
      GraphModeGuard eager(false);
      const tensor::Tensor rows = vision.EncodeBatch(images);
      eager_rows.assign(rows.data(), rows.data() + rows.size());
    }
    GraphModeGuard compiled(true);
    const tensor::Tensor rows = vision.EncodeBatch(images);
    ASSERT_EQ(rows.size(), static_cast<int>(eager_rows.size()));
    for (int i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(rows.at(i), eager_rows[i])
          << "round " << round << " element " << i;
    }
  }
}

TEST_P(GraphExecTest, QuantizedModelCompiledMatchesEager) {
  // Int8 weights flow through the fused MatMulI8 kernel in both execution
  // modes; compiled-vs-eager identity must survive quantization.
  ModelWorld world;
  const int converted = vlm::QuantizeFrozenModel(&world.model);
  ASSERT_GT(converted, 0);
  cot::ChainConfig chain;
  cot::ChainPipeline pipeline(&world.model, chain);
  const auto samples = world.Pointers(world.dataset.size());

  std::vector<double> eager_probs;
  std::vector<int> eager_labels;
  {
    GraphModeGuard eager(false);
    eager_probs = pipeline.PredictBatch(samples);
    eager_labels = pipeline.PredictLabelBatch(samples);
  }
  GraphModeGuard compiled(true);
  EXPECT_EQ(pipeline.PredictBatch(samples), eager_probs);
  EXPECT_EQ(pipeline.PredictLabelBatch(samples), eager_labels);
}

INSTANTIATE_TEST_SUITE_P(
    BatchThreadSweep, GraphExecTest,
    ::testing::Combine(::testing::Values(1, 2, 7, 32),
                       ::testing::Values(1, 4)));

// ---- Zero-allocation contract ----

TEST(GraphAllocTest, CountingAllocatorIsLinkedIn) {
  ASSERT_TRUE(AllocHookInstalled())
      << "graph_exec_test must link common/alloc_hook.cc";
  const uint64_t before = AllocCount();
  // Direct call: a plain new-expression may legally be elided.
  void* p = ::operator new(16);
  const uint64_t after = AllocCount();
  ::operator delete(p);
  EXPECT_GE(after, before + 1);
}

TEST(GraphAllocTest, ExecuteIsAllocationFreeAfterWarmup) {
  ASSERT_TRUE(AllocHookInstalled());
  Rng rng(5);
  const nn::Mlp mlp({24, 32, 16, 4}, nn::Activation::kGelu, &rng);
  graph::CompiledForward forward(
      [&mlp](graph::GraphBuilder* builder, int n) {
        return mlp.BuildGraph(builder, builder->Input({n, 24}));
      });

  std::vector<float> input(7 * 24);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = 0.01f * static_cast<float>(i) - 0.8f;
  }

  // Warm-up: compiles the graph, constructs the executor, grows the idle
  // pool to steady state.
  float checksum = 0.0f;
  {
    graph::CompiledForward::Lease lease = forward.Acquire(7);
    std::memcpy(lease->InputData(0), input.data(),
                input.size() * sizeof(float));
    lease->Execute();
    checksum = lease->OutputData()[0];
  }

  // Steady state: a full acquire/fill/execute/read/release cycle performs
  // zero heap allocations.
  const uint64_t before = AllocCount();
  float steady = 0.0f;
  {
    graph::CompiledForward::Lease lease = forward.Acquire(7);
    std::memcpy(lease->InputData(0), input.data(),
                input.size() * sizeof(float));
    lease->Execute();
    steady = lease->OutputData()[0];
  }
  const uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u)
      << "compiled forward cycle allocated " << (after - before) << " times";
  EXPECT_EQ(steady, checksum);
}

TEST(GraphAllocTest, ExecuteAloneIsAllocationFreeOnEveryCall) {
  ASSERT_TRUE(AllocHookInstalled());
  Rng rng(6);
  const nn::Linear linear(12, 3, &rng);
  graph::GraphBuilder builder;
  const int output =
      linear.BuildGraph(&builder, builder.Input({5, 12}));
  auto compiled =
      std::make_shared<const graph::CompiledGraph>(std::move(builder), output);
  graph::GraphExecutor executor(compiled);
  for (int i = 0; i < 5 * 12; ++i) {
    executor.InputData(0)[i] = 0.1f * static_cast<float>(i % 13);
  }

  executor.Execute();  // Warm-up (the arena was already constructor-owned).
  const uint64_t before = AllocCount();
  for (int repeat = 0; repeat < 100; ++repeat) {
    executor.Execute();
  }
  const uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u);
}

TEST(GraphAllocTest, ExecuteWithInt8WeightsIsAllocationFree) {
  // The fused int8 MatMul dispatches through the same registry lookup and
  // reads quantized storage in place, so the zero-allocation contract must
  // hold for quantized graphs too.
  ASSERT_TRUE(AllocHookInstalled());
  Rng rng(7);
  const nn::Linear linear(12, 3, &rng);
  for (const nn::Var& param : linear.Parameters()) {
    if (param.value().ndim() == 2) {
      param.node()->value = param.value().QuantizeInt8();
    }
  }
  graph::GraphBuilder builder;
  const int output = linear.BuildGraph(&builder, builder.Input({5, 12}));
  auto compiled =
      std::make_shared<const graph::CompiledGraph>(std::move(builder), output);
  graph::GraphExecutor executor(compiled);
  for (int i = 0; i < 5 * 12; ++i) {
    executor.InputData(0)[i] = 0.1f * static_cast<float>(i % 13);
  }

  executor.Execute();  // Warm-up.
  const uint64_t before = AllocCount();
  for (int repeat = 0; repeat < 100; ++repeat) {
    executor.Execute();
  }
  const uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace vsd
