#include "lint/dataflow.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.h"
#include "lint/lint.h"

namespace vsd::lint {
namespace {

// All fixtures live in raw strings: the repo's own lint run sees them as
// single string tokens, so fixture code can freely violate every rule.

const DfFunction* FindFn(const std::vector<DfFunction>& fns,
                         const std::string& qualified) {
  for (const DfFunction& fn : fns) {
    if (fn.QualifiedName() == qualified) return &fn;
  }
  return nullptr;
}

// ----------------------------------------------------- function recovery ----

TEST(ExtractFunctionsTest, RecoversFreeFunctionsMethodsCtorsAndDtors) {
  const LexResult lex = Lex(R"cc(
    int Add(int a, int b) { return a + b; }
    void Widget::Draw() const { Render(); }
    Widget::Widget() : x_(0), y_{1} { Init(); }
    Widget::~Widget() { Close(); }
  )cc");
  const std::vector<DfFunction> fns = ExtractFunctions("a.cc", lex.tokens);
  ASSERT_EQ(fns.size(), 4u);
  EXPECT_EQ(fns[0].QualifiedName(), "Add");
  EXPECT_TRUE(fns[0].params.count("a"));
  EXPECT_TRUE(fns[0].params.count("b"));
  EXPECT_EQ(fns[1].QualifiedName(), "Widget::Draw");
  EXPECT_EQ(fns[2].QualifiedName(), "Widget::Widget");
  EXPECT_EQ(fns[3].name, "~Widget");
  EXPECT_EQ(fns[3].qualifier, "Widget");
}

TEST(ExtractFunctionsTest, SkipsDeclarationsControlFlowAndCalls) {
  const LexResult lex = Lex(R"cc(
    void Declared(int x);
    void Body() {
      if (Check()) { Work(); }
      while (Check()) { Work(); }
      for (int i = 0; i < 3; ++i) { Work(); }
      switch (Mode()) { default: break; }
    }
  )cc");
  const std::vector<DfFunction> fns = ExtractFunctions("a.cc", lex.tokens);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "Body");
}

TEST(ExtractFunctionsTest, BodyExtentCoversTheWholeBraceRange) {
  const LexResult lex = Lex(R"cc(
    int Nested() {
      { int inner = 1; }
      return 0;
    }
  )cc");
  const std::vector<DfFunction> fns = ExtractFunctions("a.cc", lex.tokens);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_LT(fns[0].body_open, fns[0].body_close);
  EXPECT_EQ(lex.tokens[fns[0].body_open].text, "{");
  EXPECT_EQ(lex.tokens[fns[0].body_close].text, "}");
  // The close brace is the fixture's last real token (the lexer appends an
  // empty sentinel).
  EXPECT_EQ(fns[0].body_close + 2, lex.tokens.size());
}

TEST(CollectBodyLocalsTest, FindsTypedDeclarationsOnly) {
  const LexResult lex = Lex(R"cc(
    void F(int arg) {
      int count = 0;
      std::mutex mu;
      auto* ptr = &count;
      count = arg;
    }
  )cc");
  const std::vector<DfFunction> fns = ExtractFunctions("a.cc", lex.tokens);
  ASSERT_EQ(fns.size(), 1u);
  const std::set<std::string> locals =
      CollectBodyLocals(lex.tokens, fns[0].body_open, fns[0].body_close);
  EXPECT_TRUE(locals.count("count"));
  EXPECT_TRUE(locals.count("mu"));
  EXPECT_TRUE(locals.count("ptr"));
  // Plain assignments and parameters are not declarations.
  EXPECT_FALSE(locals.count("arg"));
}

// -------------------------------------------------------- call resolution ----

TEST(DataflowProgramTest, ResolvePrefersClassThenFileAndDropsAmbiguous) {
  DataflowProgram program;
  program.AddFile("a.cc", Lex(R"cc(
    void Helper() { }
    void A::Helper() { }
    void A::Run() { Helper(); Dup(); Unique(); }
  )cc"));
  program.AddFile("b.cc", Lex(R"cc(
    void Dup() { }
  )cc"));
  program.AddFile("c.cc", Lex(R"cc(
    void Dup() { }
    void Unique() { }
  )cc"));

  const DfFunction* run = FindFn(program.functions(), "A::Run");
  ASSERT_NE(run, nullptr);

  // Same-class candidate beats the same-file free function.
  std::vector<const DfFunction*> helper = program.Resolve(*run, "Helper");
  ASSERT_EQ(helper.size(), 1u);
  EXPECT_EQ(helper[0]->QualifiedName(), "A::Helper");

  // Defined in two other files with no tiebreaker: ambiguous, no link.
  EXPECT_TRUE(program.Resolve(*run, "Dup").empty());

  // A unique cross-file definition resolves.
  std::vector<const DfFunction*> unique = program.Resolve(*run, "Unique");
  ASSERT_EQ(unique.size(), 1u);
  EXPECT_EQ(unique[0]->file, "c.cc");
}

// -------------------------------------------------------------- lock-order ----

TEST(LockGraphTest, NestedGuardsMakeAnEdgeAndOpposingOrdersMakeACycle) {
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    std::mutex a;
    std::mutex b;
    void First() {
      std::lock_guard<std::mutex> ga(a);
      std::lock_guard<std::mutex> gb(b);
    }
    void Second() {
      std::lock_guard<std::mutex> gb(b);
      std::lock_guard<std::mutex> ga(a);
    }
  )cc"));
  const LockGraph graph = BuildLockGraph(program);
  ASSERT_EQ(graph.edges.size(), 2u);
  EXPECT_EQ(graph.edges[0].from, "x.cc::a");
  EXPECT_EQ(graph.edges[0].to, "x.cc::b");
  EXPECT_EQ(graph.edges[1].from, "x.cc::b");
  EXPECT_EQ(graph.edges[1].to, "x.cc::a");

  const std::vector<Finding> cycles = CheckLockOrder(graph);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].rule, "lock-order");
  EXPECT_NE(cycles[0].message.find("deadlock"), std::string::npos);
}

TEST(LockGraphTest, SequentialScopesDoNotMakeAnEdge) {
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    std::mutex a;
    std::mutex b;
    void Sequential() {
      { std::lock_guard<std::mutex> ga(a); }
      { std::lock_guard<std::mutex> gb(b); }
    }
  )cc"));
  const LockGraph graph = BuildLockGraph(program);
  EXPECT_EQ(graph.nodes.size(), 2u);
  EXPECT_TRUE(graph.edges.empty());
}

TEST(LockGraphTest, ScopedLockArgumentsAcquireAtomically) {
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    std::mutex a;
    std::mutex b;
    void Both() { std::scoped_lock g(a, b); }
  )cc"));
  const LockGraph graph = BuildLockGraph(program);
  EXPECT_EQ(graph.nodes.size(), 2u);
  // No edges among the group: std::scoped_lock deadlock-avoids internally.
  EXPECT_TRUE(graph.edges.empty());
}

TEST(LockGraphTest, ManualUnlockReleasesTheLock) {
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    std::mutex a;
    std::mutex b;
    void Released() {
      a.lock();
      a.unlock();
      std::lock_guard<std::mutex> gb(b);
    }
    void StillHeld() {
      a.lock();
      std::lock_guard<std::mutex> gb(b);
      a.unlock();
    }
  )cc"));
  const LockGraph graph = BuildLockGraph(program);
  // Only StillHeld contributes an edge; Released dropped `a` first.
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_EQ(graph.edges[0].from, "x.cc::a");
  EXPECT_EQ(graph.edges[0].to, "x.cc::b");
}

TEST(LockGraphTest, AcquisitionInACalleeLinksOneLevelDeep) {
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    std::mutex outer_mu;
    std::mutex inner_mu;
    void Inner() { std::lock_guard<std::mutex> g(inner_mu); }
    void Outer() {
      std::lock_guard<std::mutex> g(outer_mu);
      Inner();
    }
  )cc"));
  const LockGraph graph = BuildLockGraph(program);
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_EQ(graph.edges[0].from, "x.cc::outer_mu");
  EXPECT_EQ(graph.edges[0].to, "x.cc::inner_mu");
  EXPECT_EQ(graph.edges[0].via, "Inner");
}

TEST(LockGraphTest, ThisQualifiedCallsLinkLikeBareCalls) {
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    class S {
     public:
      void TakeB() {
        std::lock_guard<std::mutex> gb(b_);
        std::lock_guard<std::mutex> ga(a_);
      }
      void AThenB() {
        std::lock_guard<std::mutex> ga(a_);
        this->TakeB();
      }

     private:
      std::mutex a_;
      std::mutex b_;
    };
  )cc"));
  const LockGraph graph = BuildLockGraph(program);
  ASSERT_EQ(graph.edges.size(), 2u);
  EXPECT_EQ(graph.edges[0].from, "S::a_");
  EXPECT_EQ(graph.edges[0].to, "S::b_");
  EXPECT_EQ(graph.edges[0].via, "TakeB");
  const std::vector<Finding> cycles = CheckLockOrder(graph);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].rule, "lock-order");
}

TEST(LockGraphTest, CallsMadeWithNoLockHeldDoNotLink) {
  // lock-order links a call from each lock held at it, so a call made
  // with no lock held adds no edge; only the guard before the second call
  // going out of scope is tested here.
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    std::mutex outer_mu;
    std::mutex inner_mu;
    void Inner() { std::lock_guard<std::mutex> g(inner_mu); }
    void Outer() {
      Inner();
      { std::lock_guard<std::mutex> g(outer_mu); }
      Inner();
    }
  )cc"));
  const LockGraph graph = BuildLockGraph(program);
  EXPECT_EQ(graph.nodes.size(), 2u);
  EXPECT_TRUE(graph.edges.empty());
}

TEST(LockGraphTest, ManualRelockOfAHeldLockAcquiresAgain) {
  // `a.lock()` while a guard already holds `a` is one more acquisition:
  // the manual hold outlives the guard's scope, so taking `b` afterwards
  // orders it after `a`. (guarded-by treats the same relock as a no-op;
  // see CheckGuardedByTest.ManualRelockOfAHeldLockIsANoOp.)
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    std::mutex a;
    std::mutex b;
    void Relock() {
      {
        std::unique_lock<std::mutex> g(a);
        a.lock();
      }
      std::lock_guard<std::mutex> gb(b);
    }
  )cc"));
  const LockGraph graph = BuildLockGraph(program);
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_EQ(graph.edges[0].from, "x.cc::a");
  EXPECT_EQ(graph.edges[0].to, "x.cc::b");
}

TEST(LockGraphTest, MemberMutexesAreCanonicalizedPerClass) {
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    void Pool::Submit() {
      std::lock_guard<std::mutex> g1(submit_mu_);
      std::lock_guard<std::mutex> g2(mu_);
    }
  )cc"));
  const LockGraph graph = BuildLockGraph(program);
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_EQ(graph.edges[0].from, "Pool::submit_mu_");
  EXPECT_EQ(graph.edges[0].to, "Pool::mu_");
}

TEST(LockGraphTest, RequiresAnnotationSeedsTheHeldSet) {
  // A VSD_REQUIRES(mu_) function acquires nothing itself, but any lock it
  // takes inside must order after the annotated one — the annotation
  // contributes the same edge a visible lock_guard would.
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    class Pool {
     public:
      void DrainLocked() VSD_REQUIRES(mu_) {
        std::lock_guard<std::mutex> g(log_mu_);
      }

     private:
      std::mutex mu_;
      std::mutex log_mu_;
    };
  )cc"));
  const LockGraph graph = BuildLockGraph(program);
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_EQ(graph.edges[0].from, "Pool::mu_");
  EXPECT_EQ(graph.edges[0].to, "Pool::log_mu_");
}

TEST(LockGraphTest, AcquiresAnnotationCountsAsADirectAcquisition) {
  // An opposing order expressed half in code, half via VSD_ACQUIRES still
  // closes the deadlock cycle. (Contracts are member-scoped: the index is
  // keyed by class, so free functions cannot carry one.)
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    class S {
     public:
      void TakesB() VSD_ACQUIRES(b_mu_) { }
      void Forward() {
        std::lock_guard<std::mutex> g(a_mu_);
        TakesB();
      }
      void Backward() {
        std::lock_guard<std::mutex> g(b_mu_);
        std::lock_guard<std::mutex> h(a_mu_);
      }

     private:
      std::mutex a_mu_;
      std::mutex b_mu_;
    };
  )cc"));
  const LockGraph graph = BuildLockGraph(program);
  const std::vector<Finding> cycles = CheckLockOrder(graph);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].rule, "lock-order");
}

TEST(LockGraphTest, DumpLockDotEmitsNodesAndLabeledEdges) {
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    std::mutex a;
    std::mutex b;
    void First() {
      std::lock_guard<std::mutex> ga(a);
      std::lock_guard<std::mutex> gb(b);
    }
  )cc"));
  const std::string dot = DumpLockDot(BuildLockGraph(program));
  EXPECT_NE(dot.find("digraph vsd_locks"), std::string::npos);
  EXPECT_NE(dot.find("\"x.cc::a\" -> \"x.cc::b\""), std::string::npos);
  EXPECT_NE(dot.find("x.cc:"), std::string::npos);  // Edge label file:line.
}

// ------------------------------------------------------------ nondet-taint ----

TEST(FindNondetSourcesTest, ClocksCastsAndSharedRngDrawsAreSources) {
  const LexResult lex = Lex(R"cc(
    void F(Rng& rng, Item* item, std::vector<double>& vals) {
      const auto tick = std::chrono::system_clock::now();
      const auto key = reinterpret_cast<uintptr_t>(item);
      ParallelFor(8, [&](int64_t i) {
        vals[i] = rng.Uniform();
      });
    }
  )cc");
  const std::vector<DfFunction> fns = ExtractFunctions("a.cc", lex.tokens);
  ASSERT_EQ(fns.size(), 1u);
  const std::vector<TaintSource> seeds =
      FindNondetSources(lex.tokens, fns[0]);
  ASSERT_EQ(seeds.size(), 3u);
  EXPECT_NE(seeds[0].what.find("system_clock"), std::string::npos);
  EXPECT_NE(seeds[1].what.find("uintptr_t"), std::string::npos);
  EXPECT_NE(seeds[2].what.find("rng.Uniform"), std::string::npos);
}

TEST(FindNondetSourcesTest, NamesAloneAreNotSources) {
  const LexResult lex = Lex(R"cc(
    void F(Rng& rng) {
      int time = 3;        // A local *named* time is not a clock read.
      int clock = time;
      double x = rng.Uniform();  // Draw outside ParallelFor: rng-fork's job.
    }
  )cc");
  const std::vector<DfFunction> fns = ExtractFunctions("a.cc", lex.tokens);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_TRUE(FindNondetSources(lex.tokens, fns[0]).empty());
}

TEST(PropagateTaintTest, TaintFlowsThroughAssignmentsAndContainerInserts) {
  const LexResult lex = Lex(R"cc(
    void F(std::vector<double>& out) {
      const auto tick = std::chrono::system_clock::now();
      const double base = Convert(tick);
      double scaled = base * 2.0;
      out.push_back(scaled);
      double clean = 1.0;
    }
  )cc");
  const std::vector<DfFunction> fns = ExtractFunctions("a.cc", lex.tokens);
  ASSERT_EQ(fns.size(), 1u);
  const std::vector<TaintSource> seeds =
      FindNondetSources(lex.tokens, fns[0]);
  ASSERT_EQ(seeds.size(), 1u);
  const std::map<std::string, TaintSource> taint =
      PropagateTaint(lex.tokens, fns[0], seeds);
  EXPECT_TRUE(taint.count("tick"));
  EXPECT_TRUE(taint.count("base"));    // Through a call wrapper.
  EXPECT_TRUE(taint.count("scaled"));  // Through arithmetic.
  EXPECT_TRUE(taint.count("out"));     // Container mutator taints receiver.
  EXPECT_FALSE(taint.count("clean"));
}

TEST(CheckNondetTaintTest, LaunderedWallClockReachingAddRowIsAFinding) {
  const LexResult lex = Lex(R"cc(
    void Report(Table& table) {
      const auto now = std::chrono::system_clock::now();
      const double stamp = ToSeconds(now);
      table.AddRow("run", stamp);
    }
  )cc");
  const std::vector<Finding> findings =
      CheckNondetTaint("tools/report.cc", lex);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "nondet-taint");
  EXPECT_NE(findings[0].message.find("system_clock"), std::string::npos);
  EXPECT_NE(findings[0].message.find("AddRow"), std::string::npos);
}

TEST(CheckNondetTaintTest, ReturnIsASinkOnlyInCoreAndBench) {
  const LexResult lex = Lex(R"cc(
    double Stamp() {
      const double t = static_cast<double>(std::time(nullptr));
      return t;
    }
  )cc");
  EXPECT_EQ(CheckNondetTaint("src/core/stamp.cc", lex).size(), 1u);
  EXPECT_EQ(CheckNondetTaint("bench/stamp.cc", lex).size(), 1u);
  EXPECT_TRUE(CheckNondetTaint("src/serve/stamp.cc", lex).empty());
}

TEST(CheckNondetTaintTest, DeterministicDataIntoSinksIsClean) {
  const LexResult lex = Lex(R"cc(
    void Report(Table& table, const Metrics& m) {
      const double f1 = m.f1;
      table.AddRow("ours", f1);
    }
  )cc");
  EXPECT_TRUE(CheckNondetTaint("src/core/report.cc", lex).empty());
}

// ---------------------------------------------------------- hot-path-alloc ----

TEST(HotPathAllocTest, KernelsFileFunctionsAreScannedDirectly) {
  DataflowProgram program;
  program.AddFile("src/tensor/kernels.cc", Lex(R"cc(
    void MatMul(std::vector<float>& out) {
      out.push_back(1.0f);
    }
  )cc"));
  const std::vector<Finding> findings = CheckHotPathAlloc(program);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hot-path-alloc");
  EXPECT_NE(findings[0].message.find("push_back"), std::string::npos);
  EXPECT_NE(findings[0].message.find("MatMul"), std::string::npos);
}

TEST(HotPathAllocTest, ExecuteBodyAndItsDirectCalleesAreScanned) {
  DataflowProgram program;
  program.AddFile("src/nn/graph_exec.cc", Lex(R"cc(
    void Stage(std::vector<int>& v) { v.push_back(1); }
    void GraphExecutor::Execute() {
      float* buf = new float[16];
      Stage(scratch_);
    }
  )cc"));
  const std::vector<Finding> findings = CheckHotPathAlloc(program);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[0].message.find("'new'"), std::string::npos);
  EXPECT_NE(findings[1].message.find("reachable from GraphExecutor::Execute"),
            std::string::npos);
}

TEST(HotPathAllocTest, OnlyExplainParallelForBodiesAreHot) {
  DataflowProgram program;
  program.AddFile("src/explain/run.cc", Lex(R"cc(
    void Run(std::vector<int>& out) {
      ParallelFor(4, [&](int64_t i) {
        std::string s = std::to_string(i);
      });
      out.push_back(2);
    }
  )cc"));
  program.AddFile("src/core/other.cc", Lex(R"cc(
    void Other(std::vector<int>& out) {
      ParallelFor(4, [&](int64_t i) { out[i] = 1; });
      out.push_back(3);
    }
  )cc"));
  const std::vector<Finding> findings = CheckHotPathAlloc(program);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/explain/run.cc");
  EXPECT_NE(findings[0].message.find("to_string"), std::string::npos);
}

// ------------------------------------------------------------- meta checks ----

// The repo's own lock-acquisition graph must stay acyclic: a cycle is a
// potential deadlock and fails CI via `vsd_lint --dump-lock-graph` too.
TEST(DataflowMetaTest, RepoLockGraphIsAcyclic) {
  const LockGraph graph = BuildLockGraphFromTree(
      VSD_SOURCE_DIR, {"src", "bench", "tools", "tests", "examples"});
  EXPECT_GE(graph.nodes.size(), 4u);
  for (const Finding& f : CheckLockOrder(graph)) {
    ADD_FAILURE() << f.ToString();
  }
}

// The static twin of the runtime zero-allocation contract: nothing on the
// GraphExecutor::Execute path may allocate, not even behind a suppression.
TEST(DataflowMetaTest, ExecutePathHasNoHotPathAllocations) {
  DataflowProgram program;
  for (const std::string& rel : ListSourceFiles(
           VSD_SOURCE_DIR, {"src", "bench", "tools", "tests", "examples"})) {
    std::string content;
    if (ReadFileToString(VSD_SOURCE_DIR, rel, &content)) {
      program.AddFile(rel, Lex(content));
    }
  }
  for (const Finding& f : CheckHotPathAlloc(program)) {
    if (f.message.find("Execute") != std::string::npos) {
      ADD_FAILURE() << f.ToString();
    }
  }
}

}  // namespace
}  // namespace vsd::lint
