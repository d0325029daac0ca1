#include "lint/lint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "lint/include_graph.h"
#include "lint/lexer.h"

namespace vsd::lint {
namespace {

// Rule names reported for linting `src` as file `path`.
std::vector<std::string> Rules(const std::string& path,
                               const std::string& src) {
  std::vector<std::string> rules;
  for (const Finding& f : LintContent(path, src)) rules.push_back(f.rule);
  return rules;
}

bool HasRule(const std::vector<std::string>& rules, const std::string& rule) {
  for (const auto& r : rules) {
    if (r == rule) return true;
  }
  return false;
}

// ---------------------------------------------------------------- lexer ----

TEST(LexerTest, TokenizesIdentifiersNumbersAndPuncts) {
  LexResult lex = Lex("int x = 42; double y = 1.5e-3;");
  ASSERT_GE(lex.tokens.size(), 11u);
  EXPECT_EQ(lex.tokens[0].text, "int");
  EXPECT_EQ(lex.tokens[3].text, "42");
  EXPECT_FALSE(lex.tokens[3].is_float);
  EXPECT_EQ(lex.tokens[8].text, "1.5e-3");
  EXPECT_TRUE(lex.tokens[8].is_float);
}

TEST(LexerTest, BannedNamesInsideLiteralsAndCommentsAreNotTokens) {
  LexResult lex = Lex(
      "const char* s = \"std::rand()\";\n"
      "// std::rand in a comment\n"
      "/* srand too */\n"
      "auto r = R\"(mt19937 inside raw string)\";\n");
  for (const Token& t : lex.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "srand");
    EXPECT_NE(t.text, "mt19937");
  }
}

TEST(LexerTest, TracksLinesAcrossCommentsStringsAndContinuations) {
  LexResult lex = Lex("/* a\nb */\n\"x\ny\"\n#define M \\\n  1\nint z;\n");
  // `int` is on line 7: block comment spans 1-2, string literal 3-4,
  // continued #define 5-6.
  ASSERT_FALSE(lex.tokens.empty());
  EXPECT_EQ(lex.tokens[lex.tokens.size() - 4].text, "int");
  EXPECT_EQ(lex.tokens[lex.tokens.size() - 4].line, 7);
  ASSERT_EQ(lex.directives.size(), 1u);
  EXPECT_EQ(lex.directives[0].text, "#define M    1");
}

TEST(LexerTest, ParsesSuppressionComments) {
  LexResult lex = Lex("int a;  // vsd-lint: allow(float-eq, raw-rand)\n");
  ASSERT_EQ(lex.suppressions.count(1), 1u);
  EXPECT_EQ(lex.suppressions[1].count("float-eq"), 1u);
  EXPECT_EQ(lex.suppressions[1].count("raw-rand"), 1u);
}

TEST(LexerTest, PrefixedRawStringsAreSingleLiterals) {
  LexResult lex = Lex(
      "auto a = u8R\"(rand srand)\";\n"
      "auto b = uR\"x(mt19937)x\";\n"
      "auto c = LR\"delim(random_device)delim\";\n"
      "auto d = UR\"(rand)\";\n");
  for (const Token& t : lex.tokens) {
    if (t.kind == TokenKind::kIdentifier) {
      EXPECT_NE(t.text, "rand");
      EXPECT_NE(t.text, "mt19937");
      EXPECT_NE(t.text, "random_device");
    }
  }
}

TEST(LexerTest, MacroEndingInRIsNotARawString) {
  // Max munch: `MACRO_R"(x)"` lexes as identifier + ordinary string; only
  // the exact prefixes R / uR / UR / LR / u8R open a raw string.
  LexResult lex = Lex("auto a = MACRO_R\"(x)\";\n");
  ASSERT_GE(lex.tokens.size(), 5u);
  EXPECT_EQ(lex.tokens[3].text, "MACRO_R");
  EXPECT_EQ(lex.tokens[4].kind, TokenKind::kString);
}

TEST(LexerTest, RawStringSpanningLinesKeepsLineCount) {
  LexResult lex = Lex("auto s = R\"(line1\nline2\nline3)\";\nint after;\n");
  const Token* after = nullptr;
  for (const Token& t : lex.tokens) {
    if (t.text == "after") after = &t;
  }
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->line, 4);
}

TEST(LexerTest, DigitSeparatorsStayOneNumberToken) {
  LexResult lex = Lex("int64_t n = 1'000'000; double d = 1'234.5;\n");
  bool found_int = false, found_float = false;
  for (const Token& t : lex.tokens) {
    if (t.text == "1'000'000") {
      found_int = true;
      EXPECT_FALSE(t.is_float);
    }
    if (t.text == "1'234.5") {
      found_float = true;
      EXPECT_TRUE(t.is_float);
    }
  }
  EXPECT_TRUE(found_int);
  EXPECT_TRUE(found_float);
}

TEST(LexerTest, LineContinuationInCommentSwallowsNextLine) {
  // Phase-2 splicing: a // comment ending in backslash continues onto the
  // next line, so `int hidden;` is comment text, not code.
  LexResult lex = Lex("// comment continues \\\nint hidden;\nint visible;\n");
  for (const Token& t : lex.tokens) {
    EXPECT_NE(t.text, "hidden");
  }
  const Token* visible = nullptr;
  for (const Token& t : lex.tokens) {
    if (t.text == "visible") visible = &t;
  }
  ASSERT_NE(visible, nullptr);
  EXPECT_EQ(visible->line, 3);
}

TEST(LexerTest, SuppressionInContinuedCommentCoversItsStartLine) {
  LexResult lex =
      Lex("// vsd-lint: allow(raw-rand) reason \\\n   continued\nint x;\n");
  EXPECT_EQ(lex.suppressions.count(1), 1u);
}

// ------------------------------------------------------------- raw-rand ----

TEST(RawRandRule, FlagsStdRandSrandAndEngines) {
  EXPECT_TRUE(HasRule(Rules("src/cot/x.cc", "int v = std::rand();"),
                      "raw-rand"));
  EXPECT_TRUE(HasRule(Rules("src/cot/x.cc", "srand(42);"), "raw-rand"));
  EXPECT_TRUE(HasRule(
      Rules("src/cot/x.cc", "std::mt19937 gen; std::random_device rd;"),
      "raw-rand"));
}

TEST(RawRandRule, AllowsRngImplementationAndMemberAccess) {
  EXPECT_TRUE(Rules("src/common/rng.cc", "int v = std::rand();").empty());
  // A member named `rand` on some config object is not the C library.
  EXPECT_FALSE(
      HasRule(Rules("src/cot/x.cc", "int v = cfg.rand;"), "raw-rand"));
  EXPECT_FALSE(
      HasRule(Rules("src/cot/x.cc", "int v = cfg->rand;"), "raw-rand"));
}

TEST(RawRandRule, CleanCodeUsingVsdRngPasses) {
  EXPECT_TRUE(Rules("src/cot/x.cc",
                    "double D(Rng& rng) { return rng.Uniform(); }")
                  .empty());
}

// ------------------------------------------------------------- rng-fork ----

TEST(RngForkRule, FlagsSharedRngDrawInsideParallelFor) {
  const std::string bad = R"cc(
    void F(Rng& rng, std::vector<double>* out) {
      ParallelFor(8, [&](int64_t i) { (*out)[i] = rng.Uniform(); });
    }
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/explain/x.cc", bad), "rng-fork"));
}

TEST(RngForkRule, FlagsPointerDrawAndForkInsideBody) {
  const std::string bad_ptr = R"cc(
    ParallelFor(n, [&](int64_t i) { out[i] = rng->Next(); });
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/explain/x.cc", bad_ptr), "rng-fork"));
  // Fork() mutates the parent, so even forking *inside* the body races.
  const std::string bad_fork = R"cc(
    ParallelFor(n, [&](int64_t i) { Rng child = rng.Fork(); });
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/explain/x.cc", bad_fork), "rng-fork"));
}

TEST(RngForkRule, AllowsPreForkedStreamsAndBodyLocals) {
  const std::string good = R"cc(
    void F(Rng* rng, std::vector<double>* out) {
      std::vector<Rng> streams;
      for (int s = 0; s < 8; ++s) streams.push_back(rng->Fork());
      ParallelFor(8, [&](int64_t i) { (*out)[i] = streams[i].Uniform(); });
      ParallelFor(8, [&](int64_t i) {
        Rng local(1234 + i);
        (*out)[i] = local.Normal();
      });
      const std::vector<double> v = ParallelMap<double>(8, [&](int64_t i) {
        Rng& s = streams[i];
        return s.Uniform();
      });
    }
  )cc";
  EXPECT_TRUE(Rules("src/explain/x.cc", good).empty());
}

// ------------------------------------------------------------- float-eq ----

TEST(FloatEqRule, FlagsLiteralAndDeclaredDoubleComparisons) {
  EXPECT_TRUE(HasRule(
      Rules("src/core/metrics.cc", "bool b = x == 0.5;"), "float-eq"));
  EXPECT_TRUE(HasRule(
      Rules("src/common/math_util.cc", "double t = F(); bool b = t != u;"),
      "float-eq"));
}

TEST(FloatEqRule, ScopedToMetricAndMathPaths) {
  // Same code outside the metric kernels is not this rule's business.
  EXPECT_TRUE(Rules("src/cot/pipeline.cc", "bool b = x == 0.5;").empty());
  // Integer comparisons inside the kernels are fine.
  EXPECT_TRUE(
      Rules("src/core/metrics.cc", "bool b = y_true[i] == y_pred[i];")
          .empty());
  EXPECT_TRUE(
      Rules("src/core/metrics.cc", "bool b = a.size() != b.size();").empty());
}

// --------------------------------------------------------- header-guard ----

TEST(HeaderGuardRule, FlagsMissingAndMismatchedGuards) {
  EXPECT_TRUE(
      HasRule(Rules("src/cot/x.h", "int F();\n"), "header-guard"));
  EXPECT_TRUE(HasRule(
      Rules("src/cot/x.h", "#ifndef A_H_\n#define B_H_\n#endif\n"),
      "header-guard"));
}

TEST(HeaderGuardRule, AcceptsPragmaOnceAndMatchingGuard) {
  EXPECT_TRUE(Rules("src/cot/x.h", "#pragma once\nint F();\n").empty());
  EXPECT_TRUE(
      Rules("src/cot/x.h",
            "#ifndef VSD_COT_X_H_\n#define VSD_COT_X_H_\nint F();\n#endif\n")
          .empty());
  // Source files need no guard.
  EXPECT_TRUE(Rules("src/cot/x.cc", "int F() { return 1; }\n").empty());
}

// -------------------------------------------------------- include-order ----

TEST(IncludeOrderRule, FlagsMixedKindsAndUnsortedGroups) {
  EXPECT_TRUE(HasRule(
      Rules("src/cot/x.cc", "#include <vector>\n#include \"cot/x.h\"\n"),
      "include-order"));
  EXPECT_TRUE(HasRule(
      Rules("src/cot/x.cc", "#include <vector>\n#include <cmath>\n"),
      "include-order"));
}

TEST(IncludeOrderRule, AcceptsBlankLineSeparatedSortedGroups) {
  const std::string good =
      "#include \"cot/x.h\"\n\n#include <cmath>\n#include <vector>\n\n"
      "#include \"common/rng.h\"\n#include \"cot/refinement.h\"\n";
  EXPECT_TRUE(Rules("src/cot/x.cc", good).empty());
}

// ------------------------------------------------------- unordered-iter ----

TEST(UnorderedIterRule, FlagsRangeForAndBeginInResultPaths) {
  const std::string bad = R"cc(
    std::unordered_map<int, double> scores;
    void Dump(std::vector<double>* out) {
      for (const auto& kv : scores) out->push_back(kv.second);
    }
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/core/x.cc", bad), "unordered-iter"));
  const std::string bad_begin = R"cc(
    std::unordered_set<int> ids;
    auto it = ids.begin();
  )cc";
  EXPECT_TRUE(HasRule(Rules("bench/x.cc", bad_begin), "unordered-iter"));
}

TEST(UnorderedIterRule, AllowsLookupsOrderedMapsAndNonResultPaths) {
  const std::string lookups = R"cc(
    std::unordered_map<int, double> cache;
    double Get(int k) { auto it = cache.find(k); return it->second; }
  )cc";
  EXPECT_TRUE(Rules("src/core/x.cc", lookups).empty());
  const std::string ordered = R"cc(
    std::map<int, double> scores;
    void Dump(std::vector<double>* out) {
      for (const auto& kv : scores) out->push_back(kv.second);
    }
  )cc";
  EXPECT_TRUE(Rules("src/core/x.cc", ordered).empty());
  const std::string non_result = R"cc(
    std::unordered_set<int> visited;
    void Walk() { for (int v : visited) Use(v); }
  )cc";
  EXPECT_TRUE(Rules("src/tensor/x.cc", non_result).empty());
}

TEST(PerSamplePredictRule, FlagsSinglePredictCallsInLoops) {
  const std::string for_loop = R"cc(
    void Eval(const cot::ChainPipeline& pipeline, const Dataset& test) {
      for (const auto& sample : test.samples) {
        Use(pipeline.PredictLabel(sample));
      }
    }
  )cc";
  EXPECT_TRUE(HasRule(Rules("bench/x.cc", for_loop), "per-sample-predict"));
  const std::string while_loop = R"cc(
    void Eval(Model* model) {
      int i = 0;
      while (i < n) {
        Use(model->PredictProbStressed(samples[i]));
        ++i;
      }
    }
  )cc";
  EXPECT_TRUE(
      HasRule(Rules("src/core/x.cc", while_loop), "per-sample-predict"));
  const std::string parallel_map = R"cc(
    const auto labels = ParallelMap<int>(test.size(), [&](int64_t i) {
      return classifier.Predict(test.samples[i]);
    });
  )cc";
  EXPECT_TRUE(
      HasRule(Rules("bench/x.cc", parallel_map), "per-sample-predict"));
  const std::string evaluate_predictor = R"cc(
    const auto metrics = core::EvaluatePredictor(
        [&](const data::VideoSample& sample) {
          return pipeline.PredictLabel(sample);
        },
        test);
  )cc";
  EXPECT_TRUE(HasRule(Rules("bench/x.cc", evaluate_predictor),
                      "per-sample-predict"));
}

TEST(PerSamplePredictRule, AllowsBatchCallsTopLevelCallsAndOtherPaths) {
  const std::string batched = R"cc(
    void Eval(const cot::ChainPipeline& pipeline, const Dataset& test) {
      for (int64_t b = 0; b < NumBatches(n, bs); ++b) {
        Use(pipeline.PredictLabelBatch(Batch(test, b)));
      }
    }
  )cc";
  EXPECT_TRUE(Rules("bench/x.cc", batched).empty());
  const std::string top_level = R"cc(
    int One(const cot::ChainPipeline& pipeline, const Sample& sample) {
      return pipeline.PredictLabel(sample);
    }
  )cc";
  EXPECT_TRUE(Rules("bench/x.cc", top_level).empty());
  const std::string other_path = R"cc(
    void Eval(Model* model) {
      for (const auto& s : samples) Use(model->PredictLabel(s));
    }
  )cc";
  EXPECT_TRUE(Rules("src/cot/x.cc", other_path).empty());
  const std::string suppressed = R"cc(
    void Eval(const cot::ChainPipeline& pipeline, const Dataset& test) {
      for (const auto& sample : test.samples) {
        // vsd-lint: allow(per-sample-predict) retrieval is per-sample
        Use(pipeline.PredictLabel(sample));
      }
    }
  )cc";
  EXPECT_TRUE(Rules("bench/x.cc", suppressed).empty());
}

// -------------------------------------------- blocking-wait-no-deadline ----

TEST(BlockingWaitRule, FlagsBareCvWaitAndFutureGetInServe) {
  const std::string bare_wait = R"cc(
    void Drain() {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock);
    }
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/serve/server.cc", bare_wait),
                      "blocking-wait-no-deadline"));
  const std::string future_get = R"cc(
    double Collect(std::future<double>& result_future) {
      return result_future.get();
    }
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/serve/server.cc", future_get),
                      "blocking-wait-no-deadline"));
}

TEST(BlockingWaitRule, AllowsBoundedWaitsOtherGettersAndOtherPaths) {
  const std::string bounded = R"cc(
    void Drain() {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(10));
      cv_.wait_until(lock, deadline);
      future.wait_for(std::chrono::seconds(1));
    }
  )cc";
  EXPECT_TRUE(Rules("src/serve/server.cc", bounded).empty());
  // A predicated wait re-checks its condition on every wakeup, so a lost
  // notification cannot park the thread: allowed, even with a lambda whose
  // body contains commas or nested calls.
  const std::string predicated = R"cc(
    void Drain() {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return Done(a, b) || stop_; });
    }
  )cc";
  EXPECT_TRUE(Rules("src/serve/server.cc", predicated).empty());
  // unique_ptr::get() and promise::get_future() are not blocking waits.
  const std::string other_getters = R"cc(
    Request* Raw() { return req.get(); }
    std::future<int> F() { return promise.get_future(); }
  )cc";
  EXPECT_TRUE(Rules("src/serve/server.cc", other_getters).empty());
  // The rule is a serving-layer contract; tests and other layers may block.
  const std::string elsewhere = R"cc(
    void Wait(std::future<int>& my_future) {
      cv_.wait(lock);
      my_future.get();
    }
  )cc";
  EXPECT_TRUE(Rules("tests/serve_test.cc", elsewhere).empty());
  EXPECT_TRUE(Rules("src/common/thread_pool.cc", elsewhere).empty());
  const std::string suppressed = R"cc(
    void Drain() {
      // vsd-lint: allow(blocking-wait-no-deadline) joined at shutdown only
      cv_.wait(lock);
    }
  )cc";
  EXPECT_TRUE(Rules("src/serve/server.cc", suppressed).empty());
}

// ---------------------------------------------------- unguarded-capture ----

TEST(UnguardedCaptureRule, FlagsByRefWritesInParallelBodies) {
  const std::string sum = R"cc(
    double total = 0.0;
    ParallelFor(n, [&](int64_t i) { total += v[i]; });
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/explain/x.cc", sum), "unguarded-capture"));
  const std::string named = R"cc(
    ParallelFor(n, [&hits](int64_t i) { if (Test(i)) ++hits; });
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/core/x.cc", named), "unguarded-capture"));
  const std::string push = R"cc(
    std::vector<double> out;
    pool.ParallelFor(n, [&](int64_t i) { out.push_back(F(i)); });
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/core/x.cc", push), "unguarded-capture"));
  const std::string submit = R"cc(
    pool.Submit([&]() { done = true; });
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/serve/x.cc", submit), "unguarded-capture"));
}

TEST(UnguardedCaptureRule, FlagsWritesThroughReferenceAliases) {
  // A body-local reference is a second name for the captured object; the
  // write still races.
  const std::string alias_write = R"cc(
    ParallelFor(n, [&](int64_t i) {
      auto& slot = results;
      slot.push_back(F(i));
    });
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/core/x.cc", alias_write),
                      "unguarded-capture"));
  const std::string member_alias = R"cc(
    pool.Submit([this]() {
      double& h = this->hidden_;
      h += Step();
    });
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/serve/x.cc", member_alias),
                      "unguarded-capture"));
  // Two hops resolve transitively.
  const std::string chained = R"cc(
    ParallelFor(n, [&](int64_t i) {
      auto& a = total;
      auto& b = a;
      b += v[i];
    });
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/explain/x.cc", chained),
                      "unguarded-capture"));
}

TEST(UnguardedCaptureRule, AddressOfArgumentDeclaresNoLocal) {
  // `&total` in a call argument takes an address; it declares nothing, so
  // the plain write on the next line still races.
  const std::string address_of = R"cc(
    double total = 0.0;
    ParallelFor(n, [&](int64_t i) {
      Touch(&total);
      total = i;
    });
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/core/x.cc", address_of),
                      "unguarded-capture"));
}

TEST(UnguardedCaptureRule, NestedTemplateDeclarationIsALocal) {
  // A closing `>>` ends a nested template type, so `rows` is body-local.
  const std::string nested = R"cc(
    ParallelFor(n, [&](int64_t i) {
      std::vector<std::vector<int>> rows;
      rows = Build(i);
    });
  )cc";
  EXPECT_TRUE(Rules("src/core/x.cc", nested).empty());
}

TEST(UnguardedCaptureRule, AllowsAliasesOfPerIndexSlotsAndLocals) {
  // A reference into a subscripted slot names per-index storage.
  const std::string per_index_alias = R"cc(
    std::vector<double> out(n);
    ParallelFor(n, [&](int64_t i) {
      double& cell = out[i];
      cell = F(i);
    });
  )cc";
  EXPECT_TRUE(Rules("src/explain/x.cc", per_index_alias).empty());
  // A reference to a body-local object is still local state.
  const std::string local_alias = R"cc(
    ParallelFor(n, [&](int64_t i) {
      double acc = 0.0;
      double& a = acc;
      a += w[i];
      out[i] = a;
    });
  )cc";
  EXPECT_TRUE(Rules("src/explain/x.cc", local_alias).empty());
  // A reference to a call result aliases a temporary, not captured state.
  const std::string call_alias = R"cc(
    ParallelFor(n, [&](int64_t i) {
      auto& row = rows.at(i);
      row = F(i);
    });
  )cc";
  EXPECT_TRUE(Rules("src/core/x.cc", call_alias).empty());
}

TEST(UnguardedCaptureRule, AllowsPerIndexLocalsAtomicsLocksAndByValue) {
  const std::string per_index = R"cc(
    std::vector<double> out(n);
    ParallelFor(n, [&](int64_t i) { out[i] = F(i); });
  )cc";
  EXPECT_TRUE(Rules("src/explain/x.cc", per_index).empty());
  const std::string locals = R"cc(
    ParallelFor(n, [&](int64_t i) {
      double acc = 0.0;
      for (int64_t j = 0; j < m; ++j) acc += w[i * m + j];
      out[i] = acc;
    });
  )cc";
  EXPECT_TRUE(Rules("src/explain/x.cc", locals).empty());
  const std::string structured = R"cc(
    ParallelFor(chunks, [&](int64_t c) {
      auto [begin, end] = ChunkBounds(n, chunks, c);
      for (int64_t i = begin; i < end; ++i) out[i] = F(i);
    });
  )cc";
  EXPECT_TRUE(Rules("src/core/x.cc", structured).empty());
  const std::string atomic = R"cc(
    std::atomic<int64_t> done{0};
    ParallelFor(n, [&](int64_t i) { out[i] = F(i); done.fetch_add(1); });
  )cc";
  EXPECT_TRUE(Rules("src/core/x.cc", atomic).empty());
  const std::string locked = R"cc(
    ParallelFor(n, [&](int64_t i) {
      std::lock_guard<std::mutex> guard(mu);
      total += v[i];
    });
  )cc";
  EXPECT_TRUE(Rules("src/core/x.cc", locked).empty());
  const std::string by_value = R"cc(
    ParallelFor(n, [scale](int64_t i) mutable { scale *= 2.0; });
  )cc";
  EXPECT_TRUE(Rules("src/core/x.cc", by_value).empty());
  // A Submit *definition* (qualified name) is not a call site.
  const std::string defn = R"cc(
    void StressServer::Submit(Request r) { queue_size += 1; }
  )cc";
  EXPECT_FALSE(HasRule(Rules("src/serve/x.cc", defn), "unguarded-capture"));
}

// ----------------------------------------------------------- wall-clock ----

TEST(WallClockRule, FlagsWallClockReadsInResultPaths) {
  EXPECT_TRUE(HasRule(
      Rules("src/core/x.cc",
            "auto t = std::chrono::system_clock::now();"),
      "wall-clock"));
  EXPECT_TRUE(HasRule(Rules("src/cot/x.cc", "time_t t = time(nullptr);"),
                      "wall-clock"));
}

TEST(WallClockRule, AllowsSteadyClockMembersAndOtherPaths) {
  // steady_clock is monotonic and legitimate for durations.
  EXPECT_TRUE(
      Rules("bench/x.cc", "auto t = std::chrono::steady_clock::now();")
          .empty());
  // Members named `time` belong to their class, not <ctime>.
  EXPECT_TRUE(Rules("src/core/x.cc", "double t = stats.time;").empty());
  // The serving layer may read clocks for deadlines.
  EXPECT_TRUE(
      Rules("src/serve/x.cc", "auto t = std::chrono::system_clock::now();")
          .empty());
}

// ------------------------------------------------------------ thread-id ----

TEST(ThreadIdRule, FlagsThreadIdentityInResultPaths) {
  EXPECT_TRUE(HasRule(
      Rules("src/explain/x.cc", "auto id = std::this_thread::get_id();"),
      "thread-id"));
  EXPECT_TRUE(
      HasRule(Rules("bench/x.cc", "auto id = pthread_self();"), "thread-id"));
}

TEST(ThreadIdRule, AllowsSleepsAndOtherPaths) {
  EXPECT_TRUE(
      Rules("src/core/x.cc", "std::this_thread::sleep_for(d);").empty());
  EXPECT_TRUE(
      Rules("src/common/x.cc", "auto id = std::this_thread::get_id();")
          .empty());
}

// ---------------------------------------------------------- pointer-key ----

TEST(PointerKeyRule, FlagsPointerKeyedOrderedContainers) {
  EXPECT_TRUE(HasRule(
      Rules("src/core/x.cc", "std::map<Node*, double> scores;"),
      "pointer-key"));
  EXPECT_TRUE(HasRule(
      Rules("src/explain/x.cc", "std::set<const Sample*> seen;"),
      "pointer-key"));
}

TEST(PointerKeyRule, AllowsValueKeysPointerValuesAndOtherPaths) {
  // The mapped type may hold pointers; only the key orders iteration.
  EXPECT_TRUE(
      Rules("src/core/x.cc", "std::map<std::string, Node*> by_name;").empty());
  EXPECT_TRUE(Rules("src/core/x.cc", "std::set<int64_t> ids;").empty());
  // A setter is not a container.
  EXPECT_TRUE(Rules("src/core/x.cc", "cfg.set(k, v);").empty());
  EXPECT_TRUE(
      Rules("src/tensor/x.cc", "std::map<Node*, int> order;").empty());
}

TEST(KernelBypassRule, FlagsRawMacLoopsInModelLayers) {
  const std::string mac = R"(
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          out[i * n + j] += a[i * k + p] * b[p * n + j];
        }
      }
  )";
  EXPECT_TRUE(HasRule(Rules("src/nn/layers.cc", mac), "kernel-bypass"));
  EXPECT_TRUE(HasRule(Rules("src/vlm/vision.cc", mac), "kernel-bypass"));
  EXPECT_TRUE(HasRule(Rules("src/tensor/autograd.cc", mac), "kernel-bypass"));
  // Parenthesized factors still count as a multiply-accumulate.
  EXPECT_TRUE(HasRule(
      Rules("src/nn/x.cc", "acc[j] += (scale * q[j]) * w;"), "kernel-bypass"));
}

TEST(KernelBypassRule, AllowsKernelTUsOtherPathsAndNonMacUpdates) {
  const std::string mac = "out[j] += av * brow[j];";
  // The kernel TU is the one place MAC loops belong.
  EXPECT_TRUE(Rules("src/tensor/kernels.cc", mac).empty());
  // Outside the model layers the rule does not apply.
  EXPECT_TRUE(Rules("src/explain/lime.cc", mac).empty());
  EXPECT_TRUE(Rules("bench/harness.cc", mac).empty());
  // Plain accumulation (no multiply) is not a MAC.
  EXPECT_TRUE(Rules("src/nn/x.cc", "grad[j] += delta;").empty());
  // Scalar accumulators (no subscript store) are reductions, not kernels.
  EXPECT_TRUE(Rules("src/nn/x.cc", "sum += a[i] * b[i];").empty());
  // `*` as a dereference is not a multiply.
  EXPECT_TRUE(Rules("src/nn/x.cc", "out[j] += *p;").empty());
  // Suppression with a reason still works.
  EXPECT_TRUE(Rules("src/nn/x.cc",
                    "// vsd-lint: allow(kernel-bypass)\n"
                    "out[j] += av * brow[j];")
                  .empty());
}

// -------------------------------------------------------- include graph ----

TEST(IncludeGraphTest, LayerTableMatchesArchitecture) {
  EXPECT_EQ(LayerOf("src/common/rng.h"), 0);
  EXPECT_EQ(LayerOf("src/tensor/tensor.h"), 1);
  EXPECT_EQ(LayerOf("src/face/au.h"), 2);
  EXPECT_EQ(LayerOf("src/vlm/foundation_model.h"), 3);
  EXPECT_EQ(LayerOf("src/cot/pipeline.h"), 4);
  EXPECT_EQ(LayerOf("src/explain/sobol.h"), 5);
  EXPECT_EQ(LayerOf("src/core/evaluation.h"), 6);
  EXPECT_EQ(LayerOf("src/serve/server.h"), 7);
  EXPECT_EQ(LayerOf("bench/harness.h"), 8);
  EXPECT_EQ(LayerOf("tests/lint_test.cc"), -1);  // Unconstrained.
}

IncludeGraph GraphOf(
    const std::vector<std::pair<std::string, std::string>>& files) {
  IncludeGraphBuilder builder;
  for (const auto& [path, content] : files) {
    builder.AddFile(path, Lex(content));
  }
  return builder.Build();
}

TEST(IncludeGraphTest, ResolvesQuotedIncludesLikeTheBuild) {
  const IncludeGraph graph = GraphOf({
      {"src/cot/pipeline.h", "#include \"common/rng.h\"\n"},
      {"src/common/rng.h", "#include <cstdint>\n"},
      {"bench/bench_x.cc", "#include \"bench/harness.h\"\n"},
      {"bench/harness.h", "#include \"helpers.h\"\n"},
      {"bench/helpers.h", ""},
  });
  ASSERT_EQ(graph.edges.size(), 3u);  // <cstdint> is not a project edge.
  EXPECT_EQ(graph.edges[0].from, "bench/bench_x.cc");
  EXPECT_EQ(graph.edges[0].to, "bench/harness.h");
  // "helpers.h" resolves relative to the includer's directory.
  EXPECT_EQ(graph.edges[1].to, "bench/helpers.h");
  EXPECT_EQ(graph.edges[2].from, "src/cot/pipeline.h");
  EXPECT_EQ(graph.edges[2].to, "src/common/rng.h");
}

TEST(IncludeGraphTest, UpwardIncludeIsALayeringFinding) {
  const IncludeGraph graph = GraphOf({
      {"src/common/rng.h", "#include \"cot/pipeline.h\"\n"},
      {"src/cot/pipeline.h", ""},
  });
  const std::vector<Finding> findings = CheckLayering(graph);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_EQ(findings[0].file, "src/common/rng.h");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(IncludeGraphTest, DownwardAndSameLayerIncludesAreClean) {
  const IncludeGraph graph = GraphOf({
      {"src/cot/pipeline.h", "#include \"common/rng.h\"\n"
                             "#include \"cot/refinement.h\"\n"},
      {"src/common/rng.h", ""},
      {"src/cot/refinement.h", "#include \"common/rng.h\"\n"},
      {"tests/x_test.cc", "#include \"serve/server.h\"\n"},
      {"src/serve/server.h", ""},
  });
  EXPECT_TRUE(CheckLayering(graph).empty());
  EXPECT_TRUE(CheckCycles(graph).empty());
}

// Pins the AU-vocabulary layering: text (L1) may not reach up into face
// (L2), which is why the vocabulary lives in common/au_vocab.h — the one
// `allow(layering)` suppression this move retired must stay retired.
TEST(IncludeGraphTest, TextReachesAuVocabularyThroughCommonOnly) {
  const IncludeGraph upward = GraphOf({
      {"src/text/templates.h", "#include \"face/au.h\"\n"},
      {"src/face/au.h", ""},
  });
  const std::vector<Finding> findings = CheckLayering(upward);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_EQ(findings[0].file, "src/text/templates.h");
  const IncludeGraph through_common = GraphOf({
      {"src/text/templates.h", "#include \"common/au_vocab.h\"\n"},
      {"src/common/au_vocab.h", ""},
      {"src/face/au.h", "#include \"common/au_vocab.h\"\n"},
  });
  EXPECT_TRUE(CheckLayering(through_common).empty());
}

TEST(IncludeGraphTest, CycleIsReportedOnceWithTheFullPath) {
  const IncludeGraph graph = GraphOf({
      {"src/cot/a.h", "#include \"cot/b.h\"\n"},
      {"src/cot/b.h", "#include \"cot/c.h\"\n"},
      {"src/cot/c.h", "#include \"cot/a.h\"\n"},
  });
  const std::vector<Finding> findings = CheckCycles(graph);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "include-cycle");
  EXPECT_NE(findings[0].message.find("src/cot/a.h"), std::string::npos);
  EXPECT_NE(findings[0].message.find("src/cot/b.h"), std::string::npos);
  EXPECT_NE(findings[0].message.find("src/cot/c.h"), std::string::npos);
}

TEST(IncludeGraphTest, DotDumpIsModuleLevelWithLayers) {
  const IncludeGraph graph = GraphOf({
      {"src/cot/pipeline.h", "#include \"common/rng.h\"\n"},
      {"src/cot/refinement.h", "#include \"common/rng.h\"\n"},
      {"src/common/rng.h", ""},
  });
  const std::string dot = DumpDot(graph);
  EXPECT_NE(dot.find("digraph vsd_includes"), std::string::npos);
  EXPECT_NE(dot.find("\"src/cot\" [layer=4"), std::string::npos);
  EXPECT_NE(dot.find("\"src/common\" [layer=0"), std::string::npos);
  // Two file-level includes collapse into one labeled module edge.
  EXPECT_NE(dot.find("\"src/cot\" -> \"src/common\" [label=\"2\"]"),
            std::string::npos);
}

// --------------------------------------------------------- suppressions ----

TEST(SuppressionTest, TrailingAndPrecedingCommentsSuppress) {
  EXPECT_TRUE(
      Rules("src/cot/x.cc",
            "int v = std::rand();  // vsd-lint: allow(raw-rand) legacy\n")
          .empty());
  EXPECT_TRUE(Rules("src/cot/x.cc",
                    "// vsd-lint: allow(raw-rand) reason here\n"
                    "int v = std::rand();\n")
                  .empty());
}

TEST(SuppressionTest, OnlyNamedRuleIsSuppressed) {
  const std::string src =
      "int v = std::rand();  // vsd-lint: allow(float-eq)\n";
  EXPECT_TRUE(HasRule(Rules("src/cot/x.cc", src), "raw-rand"));
}

// ---------------------------------------------------- dataflow rules -------
// Engine-level coverage lives in dataflow_test.cc; these pin the rules as
// they fire through the normal LintContent entry point, suppressions
// included. Fixtures are raw strings so the repo's own lint run skips them.

TEST(LockOrderRuleTest, OpposingAcquisitionOrdersAreReported) {
  const std::string src = R"cc(
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
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/common/locks.cc", src), "lock-order"));
}

TEST(LockOrderRuleTest, SuppressionOnTheClosingEdgeSilencesIt) {
  const std::string src = R"cc(
    std::mutex a;
    std::mutex b;
    void First() {
      std::lock_guard<std::mutex> ga(a);
      // vsd-lint: allow(lock-order)
      std::lock_guard<std::mutex> gb(b);
    }
    void Second() {
      std::lock_guard<std::mutex> gb(b);
      // vsd-lint: allow(lock-order)
      std::lock_guard<std::mutex> ga(a);
    }
  )cc";
  EXPECT_FALSE(HasRule(Rules("src/common/locks.cc", src), "lock-order"));
}

TEST(NondetTaintRuleTest, LaunderedClockIntoATableIsReported) {
  const std::string src = R"cc(
    void Report(Table& table) {
      const auto now = std::chrono::system_clock::now();
      const double stamp = ToSeconds(now);
      table.AddRow("run", stamp);
    }
  )cc";
  // tools/ is outside the wall-clock result paths: only the taint rule
  // sees the laundered value reach the sink.
  const std::vector<std::string> rules = Rules("tools/report.cc", src);
  EXPECT_TRUE(HasRule(rules, "nondet-taint"));
  EXPECT_FALSE(HasRule(rules, "wall-clock"));
}

TEST(NondetTaintRuleTest, SuppressionOnTheSinkSilencesIt) {
  const std::string src = R"cc(
    void Report(Table& table) {
      const auto now = std::chrono::system_clock::now();
      // vsd-lint: allow(nondet-taint)
      table.AddRow("run", now);
    }
  )cc";
  EXPECT_FALSE(HasRule(Rules("tools/report.cc", src), "nondet-taint"));
}

TEST(HotPathAllocRuleTest, NamespaceQualifiedExecuteIsAHotPath) {
  // An out-of-namespace definition carries the namespace in its qualifier.
  const std::string src = R"cc(
    void nn::graph::GraphExecutor::Execute() {
      buffers_.push_back(0.0f);
    }
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/nn/graph.cc", src), "hot-path-alloc"));
}

TEST(HotPathAllocRuleTest, KernelAllocationIsReported) {
  const std::string src = R"cc(
    void MatMul(std::vector<float>& out) {
      out.push_back(1.0f);
    }
  )cc";
  EXPECT_TRUE(
      HasRule(Rules("src/tensor/kernels.cc", src), "hot-path-alloc"));
  // The same code outside a hot path is fine.
  EXPECT_FALSE(HasRule(Rules("src/tensor/ops.cc", src), "hot-path-alloc"));
}

TEST(HotPathAllocRuleTest, SuppressionSilencesIt) {
  const std::string src = R"cc(
    void MatMul(std::vector<float>& out) {
      // vsd-lint: allow(hot-path-alloc)
      out.push_back(1.0f);
    }
  )cc";
  EXPECT_FALSE(
      HasRule(Rules("src/tensor/kernels.cc", src), "hot-path-alloc"));
}

// ---------------------------------------------------------- json output ----

TEST(FindingsToJsonTest, FormatsOneObjectPerLineAndEscapes) {
  const std::vector<Finding> findings = {
      Finding{"a.cc", 3, "float-eq", "say \"hi\"\n\tdone"},
      Finding{"b\\c.cc", 7, "raw-rand", "plain"},
  };
  EXPECT_EQ(FindingsToJson(findings),
            "[\n"
            "  {\"file\": \"a.cc\", \"line\": 3, \"rule\": \"float-eq\", "
            "\"message\": \"say \\\"hi\\\"\\n\\tdone\"},\n"
            "  {\"file\": \"b\\\\c.cc\", \"line\": 7, \"rule\": "
            "\"raw-rand\", \"message\": \"plain\"}\n"
            "]\n");
}

TEST(FindingsToJsonTest, EmptyIsAnEmptyArray) {
  EXPECT_EQ(FindingsToJson({}), "[]\n");
}

TEST(FindingsToSarifTest, EmitsRunDriverRulesAndResults) {
  const std::vector<Finding> findings = {
      Finding{"src/a.cc", 3, "guarded-by", "say \"hi\""},
  };
  const std::string sarif = FindingsToSarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"vsd_lint\""), std::string::npos);
  // Every rule is declared so viewers can resolve any ruleId.
  for (const std::string& rule : AllRules()) {
    EXPECT_NE(sarif.find("\"id\": \"" + rule + "\""), std::string::npos);
  }
  EXPECT_NE(sarif.find("\"ruleId\": \"guarded-by\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/a.cc\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
  EXPECT_NE(sarif.find("say \\\"hi\\\""), std::string::npos);
}

TEST(FindingsToSarifTest, EmptyFindingsIsAValidEmptyRun) {
  const std::string sarif = FindingsToSarif({});
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
}

// ------------------------------------------------------ annotation rules ----

TEST(GuardedByRule, FlagsUnlockedAccessAndAcceptsGuardedOne) {
  const std::string src = R"cc(
    class Counter {
     public:
      void Inc() {
        std::lock_guard<std::mutex> lock(mu_);
        n_ += 1;
      }
      int BadRead() { return n_; }

     private:
      std::mutex mu_;
      int n_ VSD_GUARDED_BY(mu_) = 0;
    };
  )cc";
  const std::vector<Finding> findings = LintContent("src/x/c.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "guarded-by");
  EXPECT_EQ(findings[0].line, 8);  // the BadRead body, not Inc.
}

TEST(GuardedByRule, RequiresOnCalleeIsHonoredAndEnforcedAtCallSites) {
  const std::string good = R"cc(
    class Q {
     public:
      void Push(int v) {
        std::lock_guard<std::mutex> lock(mu_);
        PushLocked(v);
      }

     private:
      void PushLocked(int v) VSD_REQUIRES(mu_) { items_ += v; }
      std::mutex mu_;
      int items_ VSD_GUARDED_BY(mu_) = 0;
    };
  )cc";
  EXPECT_TRUE(Rules("src/x/c.cc", good).empty());

  const std::string bad = R"cc(
    class Q {
     public:
      void Push(int v) { PushLocked(v); }

     private:
      void PushLocked(int v) VSD_REQUIRES(mu_) { items_ += v; }
      std::mutex mu_;
      int items_ VSD_GUARDED_BY(mu_) = 0;
    };
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/x/c.cc", bad), "guarded-by"));
}

TEST(GuardedByRule, ManualUnlockWindowIsAFinding) {
  const std::string src = R"cc(
    class W {
     public:
      void F() {
        mu_.lock();
        n_ = 1;
        mu_.unlock();
        n_ = 2;
      }

     private:
      std::mutex mu_;
      int n_ VSD_GUARDED_BY(mu_) = 0;
    };
  )cc";
  const std::vector<Finding> findings = LintContent("src/x/c.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "guarded-by");
  EXPECT_EQ(findings[0].line, 8);  // after unlock(), not the locked write.
}

TEST(GuardedByRule, MultiMutexClassTracksTheRightLock) {
  const std::string src = R"cc(
    class Two {
     public:
      void WrongLock() {
        std::lock_guard<std::mutex> lock(a_mu_);
        b_ = 1;
      }
      void RightLock() {
        std::lock_guard<std::mutex> lock(b_mu_);
        b_ = 2;
      }

     private:
      std::mutex a_mu_;
      std::mutex b_mu_;
      int a_ VSD_GUARDED_BY(a_mu_) = 0;
      int b_ VSD_GUARDED_BY(b_mu_) = 0;
    };
  )cc";
  const std::vector<Finding> findings = LintContent("src/x/c.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 6);  // b_ under a_mu_ only.
}

TEST(GuardedByRule, ExcludesContractFlagsCallsMadeUnderTheLock) {
  const std::string src = R"cc(
    class R {
     public:
      void Drain() VSD_EXCLUDES(mu_) { }
      void Bad() {
        std::lock_guard<std::mutex> lock(mu_);
        n_ = 1;
        Drain();
      }

     private:
      std::mutex mu_;
      int n_ VSD_GUARDED_BY(mu_) = 0;
    };
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/x/c.cc", src), "guarded-by"));
}

TEST(GuardedByRule, SuppressionSilencesIt) {
  const std::string src = R"cc(
    class Counter {
     public:
      // vsd-lint: allow(guarded-by) reader tolerates a stale value.
      int Peek() { return n_; }

     private:
      std::mutex mu_;
      int n_ VSD_GUARDED_BY(mu_) = 0;
    };
  )cc";
  EXPECT_TRUE(Rules("src/x/c.cc", src).empty());
}

TEST(UnannotatedMutexRule, FlagsBareMutexInSrcOnly) {
  const std::string bare = R"cc(
    class C {
      std::mutex mu_;
      int n_ = 0;
    };
  )cc";
  EXPECT_TRUE(HasRule(Rules("src/x/c.cc", bare), "unannotated-mutex"));
  EXPECT_TRUE(Rules("tests/x/c.cc", bare).empty());

  const std::string annotated = R"cc(
    class C {
      std::mutex mu_;
      int n_ VSD_GUARDED_BY(mu_) = 0;
    };
  )cc";
  EXPECT_TRUE(Rules("src/x/c.cc", annotated).empty());
}

TEST(RefInvalidationRule, ReferenceUsedAcrossPushBackIsAFinding) {
  const std::string src = R"cc(
    int F() {
      std::vector<int> v;
      v.push_back(1);
      int& r = v[0];
      v.push_back(2);
      return r;
    }
  )cc";
  const std::vector<Finding> findings = LintContent("src/x/c.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "ref-invalidation");
  EXPECT_EQ(findings[0].line, 7);  // the use, after the second push_back.
}

// The minimized PR-7 Conv2d::BuildGraph shape: a pointer into a vector
// held across a same-class call that appends to the same vector.
TEST(RefInvalidationRule, PointerHeldAcrossMutatingMemberCallIsAFinding) {
  const std::string src = R"cc(
    class Graph {
     public:
      int* Append(int v) {
        nodes_.push_back(v);
        return &nodes_.back();
      }
      int Build() {
        nodes_.push_back(1);
        int* first = &nodes_[0];
        Append(7);
        return *first;
      }

     private:
      std::vector<int> nodes_;
    };
  )cc";
  const std::vector<Finding> findings = LintContent("src/x/c.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "ref-invalidation");
  EXPECT_EQ(findings[0].line, 12);  // *first after Append().
}

TEST(RefInvalidationRule, UseBeforeMutationAndNodeContainersAreClean) {
  const std::string before = R"cc(
    int F() {
      std::vector<int> v;
      v.push_back(1);
      int& r = v[0];
      int x = r;
      v.push_back(2);
      return x;
    }
  )cc";
  EXPECT_TRUE(Rules("src/x/c.cc", before).empty());

  // std::map references survive insertion; only contiguous containers
  // invalidate on growth.
  const std::string node_based = R"cc(
    int G() {
      std::map<int, int> m;
      int& r = m[0];
      m.emplace(1, 1);
      return r;
    }
  )cc";
  EXPECT_TRUE(Rules("src/x/c.cc", node_based).empty());
}

TEST(RefInvalidationRule, SuppressionSilencesIt) {
  const std::string src = R"cc(
    int F() {
      std::vector<int> v;
      v.reserve(2);
      int& r = v[0];
      v.push_back(2);
      // vsd-lint: allow(ref-invalidation) reserve() above pins capacity.
      return r;
    }
  )cc";
  EXPECT_TRUE(Rules("src/x/c.cc", src).empty());
}

// ------------------------------------------------------ suppression audit ----

TEST(AuditFilesTest, FlagsStaleKeepsLiveAndIgnoresUnknownRules) {
  const std::string live = R"cc(
    // vsd-lint: allow(float-eq) — exact guard is intended here.
    bool Same(double x, double y) { return x == y; }
  )cc";
  const std::string stale = R"cc(
    // vsd-lint: allow(float-eq) — nothing fires here anymore.
    int Answer() { return 42; }
  )cc";
  const std::string unknown = R"cc(
    // Doc text quoting the syntax, vsd-lint: allow(<rule>), parses too —
    // placeholder names are not real rules and are never audited.
    int Docs() { return 1; }
  )cc";
  const std::vector<Finding> findings = AuditFiles({
      {"src/core/metrics.cc", live},
      {"src/core/stale.cc", stale},
      {"src/core/docs.cc", unknown},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "stale-suppression");
  EXPECT_EQ(findings[0].file, "src/core/stale.cc");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(AuditFilesTest, TreeLevelRulesCountAsLive) {
  // A live lock-order suppression: the finding it matches is produced by
  // the whole-program pass, not the per-file one.
  const std::string src = R"cc(
    std::mutex a;
    std::mutex b;
    void First() {
      std::lock_guard<std::mutex> ga(a);
      // vsd-lint: allow(lock-order)
      std::lock_guard<std::mutex> gb(b);
    }
    void Second() {
      std::lock_guard<std::mutex> gb(b);
      // vsd-lint: allow(lock-order)
      std::lock_guard<std::mutex> ga(a);
    }
  )cc";
  // Exactly one of the two comments matches the cycle's closing edge; the
  // other is reported as stale — the audit is precise about which line the
  // finding lands on.
  const std::vector<Finding> findings =
      AuditFiles({{"src/common/locks.cc", src}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "stale-suppression");
}

// ------------------------------------------------------------ parallelism ----

// LintTree's contract: output is byte-identical at any thread count.
TEST(LintTreeTest, OutputIsByteIdenticalAcrossThreadCounts) {
  const int before = ThreadPool::GlobalThreads();
  ThreadPool::SetGlobalThreads(1);
  const std::vector<Finding> serial = LintTree(
      VSD_SOURCE_DIR, {"src", "bench", "tools", "tests", "examples"});
  ThreadPool::SetGlobalThreads(4);
  const std::vector<Finding> parallel = LintTree(
      VSD_SOURCE_DIR, {"src", "bench", "tools", "tests", "examples"});
  ThreadPool::SetGlobalThreads(before);

  std::string a, b;
  for (const Finding& f : serial) a += f.ToString() + "\n";
  for (const Finding& f : parallel) b += f.ToString() + "\n";
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------- misc -----

TEST(FindingTest, ToStringIsClickable) {
  Finding f{"src/cot/x.cc", 12, "raw-rand", "msg"};
  EXPECT_EQ(f.ToString(), "src/cot/x.cc:12: [raw-rand] msg");
}

TEST(AllRulesTest, NamesAreStable) {
  const std::vector<std::string> expected = {
      "raw-rand",       "rng-fork",      "float-eq",
      "header-guard",   "include-order", "unordered-iter",
      "per-sample-predict", "blocking-wait-no-deadline",
      "unguarded-capture",  "wall-clock", "thread-id",
      "pointer-key",    "layering",      "include-cycle",
      "lock-order",     "nondet-taint",  "hot-path-alloc",
      "kernel-bypass",  "guarded-by",    "unannotated-mutex",
      "ref-invalidation",
  };
  EXPECT_EQ(AllRules(), expected);
}

// The enforcement test: the real tree must lint clean — per-file rules and
// the whole-program graph rules (layering, include-cycle) both. New code
// that trips a rule either gets fixed or carries an explicit, reasoned
// suppression.
TEST(MetaTest, RepoSourceTreeIsLintClean) {
  const std::vector<Finding> findings = LintTree(
      VSD_SOURCE_DIR, {"src", "bench", "tools", "tests", "examples"});
  for (const Finding& f : findings) {
    ADD_FAILURE() << f.ToString();
  }
  EXPECT_TRUE(findings.empty());
}

// The repo's own include graph must stay acyclic — not suppressible, since
// a cyclic graph admits no layering at all.
TEST(MetaTest, RepoIncludeGraphIsAcyclic) {
  const IncludeGraph graph = BuildIncludeGraphFromTree(
      VSD_SOURCE_DIR, {"src", "bench", "tools", "tests", "examples"});
  EXPECT_GT(graph.files.size(), 50u);
  EXPECT_GT(graph.edges.size(), 100u);
  for (const Finding& f : CheckCycles(graph)) {
    ADD_FAILURE() << f.ToString();
  }
}

}  // namespace
}  // namespace vsd::lint
