#ifndef VSD_LINT_LINT_H_
#define VSD_LINT_LINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vsd::lint {

/// One diagnostic. `rule` is the stable rule name used both in output and
/// in `// vsd-lint: allow(<rule>)` suppression comments.
struct Finding {
  std::string file;  ///< Repo-relative path as given to the linter.
  int line = 0;
  std::string rule;
  std::string message;

  /// "file:line: [rule] message" — the grep/IDE-clickable form.
  std::string ToString() const;
};

/// Rule names (see docs/INTERNALS.md "Static analysis & sanitizers"):
///  * raw-rand        — std:: random machinery outside src/common/rng.*
///  * rng-fork        — shared Rng drawn from inside a ParallelFor body
///  * float-eq        — ==/!= on floating-point in metrics/math_util paths
///  * header-guard    — header missing #pragma once / include guard
///  * include-order   — include group mixes <>/"" kinds or is unsorted
///  * unordered-iter  — iteration over unordered containers in result paths
///  * per-sample-predict — single-sample predict call looped in bench/core
///  * blocking-wait-no-deadline — predicate-less cv wait() / future get()
///    in src/serve/ (every serving-layer wait must be bounded or
///    predicated: wait_for/wait_until/wait(lock, pred))
///  * unguarded-capture — by-reference capture written in a ParallelFor/
///    Submit body without mutex/atomic/per-index subscript (captures.h)
///  * wall-clock     — wall-clock reads (system_clock, time, ...) in result
///    paths; results must not depend on when they were computed
///  * thread-id      — thread identity (get_id, pthread_self) in result
///    paths; results must not depend on which worker ran an index
///  * pointer-key    — ordered container keyed by a pointer in result
///    paths; iteration order would follow addresses (ASLR)
///  * layering       — upward #include across the architecture layers
///    (include_graph.h; tree-level, reported by LintTree)
///  * include-cycle  — cycle in the project include graph (tree-level)
///  * lock-order     — cycle in the whole-program lock-acquisition graph
///    (dataflow.h; an edge A -> B means B acquired while A held, including
///    through one level of direct calls — a cycle is a potential deadlock)
///  * nondet-taint   — value derived from a nondeterministic source (wall
///    clock, thread id, shared-Rng draw, pointer-to-int cast) flows through
///    assignments/container inserts into a result sink (dataflow.h)
///  * hot-path-alloc — heap allocation reachable from
///    GraphExecutor::Execute, inside src/tensor/kernels, or inside an
///    explainer ParallelFor body (dataflow.h; the static twin of the
///    runtime counting-operator-new contract)
///  * kernel-bypass  — raw `out[...] += a * b` multiply-accumulate loop in
///    src/tensor/, src/nn/, or src/vlm/ outside src/tensor/kernels*; such
///    loops must route through the shared kernels in tensor/kernels.h
///    (int8 variant, eager/compiled bit-identity)
///  * guarded-by     — read/write of a VSD_GUARDED_BY(mu) field without
///    holding mu (guard declaration, manual lock window, or VSD_REQUIRES
///    on the enclosing function), or a resolvable call violating a
///    VSD_REQUIRES/VSD_EXCLUDES contract (annotations.h)
///  * unannotated-mutex — a mutex member in src/ whose class has zero
///    VSD_GUARDED_BY fields: the lock guards nothing the linter can check
///  * ref-invalidation — reference/pointer/iterator bound into vector or
///    Tensor storage used after a mutating call (push_back/resize/Append/
///    clear/...) on the same container, including through one same-class
///    call level — the static twin of the PR-7 Conv2d use-after-free
///
/// All rule names, for CLI validation and tests.
const std::vector<std::string>& AllRules();

/// Lints one file whose contents are already in memory. `path` should be
/// repo-relative with '/' separators: several rules are scoped by path
/// (e.g. float-eq only fires under src/core/metrics.* and
/// src/common/math_util.*; raw-rand is exempt in src/common/rng.*).
std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& content);

/// Repo-relative paths ('/'-separated) of every *.h / *.cc / *.cpp file
/// under `root`/`subdirs`, sorted. Directories named build* are skipped.
/// The shared walk behind LintTree, BuildIncludeGraphFromTree, and FixTree.
std::vector<std::string> ListSourceFiles(const std::string& root,
                                         const std::vector<std::string>& subdirs);

/// Reads `root`/`rel` into `*out`. Returns false on IO error.
bool ReadFileToString(const std::string& root, const std::string& rel,
                      std::string* out);

/// Walks `root` and lints every source file under the given subdirectories
/// (repo-relative, e.g. {"src", "bench", "tools", "tests"}), then runs the
/// whole-program checks (layering, include-cycle, lock-order,
/// hot-path-alloc) over the include graph and dataflow program of the same
/// walk. Per-file lexing and analysis run on the global thread pool
/// (VSD_THREADS), but findings are merged in sorted path order and come
/// back sorted by (file, line), so output is byte-identical at any thread
/// count. Unreadable files produce a finding with rule "io-error" rather
/// than aborting the walk. `// vsd-lint: allow(...)` suppressions apply to
/// tree-level findings too.
std::vector<Finding> LintTree(const std::string& root,
                              const std::vector<std::string>& subdirs);

/// Findings as a JSON array of {"file", "line", "rule", "message"} objects
/// (for `vsd_lint --format=json` and CI artifacts). Deterministic: one
/// object per line, input order preserved, trailing newline.
std::string FindingsToJson(const std::vector<Finding>& findings);

/// Findings as a SARIF 2.1.0 log (for `vsd_lint --format=sarif` and the CI
/// code-scanning artifact): one run, driver "vsd_lint" listing AllRules(),
/// one result per finding at level "error". Deterministic: input order
/// preserved, trailing newline.
std::string FindingsToSarif(const std::vector<Finding>& findings);

/// Stale-suppression audit over in-memory (path, content) pairs: every
/// `// vsd-lint: allow(<rule>)` comment must still match a raw (pre-
/// suppression) finding of that rule on its own line or the next one —
/// including the tree-level and dataflow rules. Dead comments come back as
/// rule "stale-suppression" findings (not part of AllRules: the rule
/// cannot be suppressed, only deleted).
std::vector<Finding> AuditFiles(
    const std::vector<std::pair<std::string, std::string>>& files);

/// AuditFiles over the standard tree walk (for --audit-suppressions).
std::vector<Finding> AuditSuppressions(const std::string& root,
                                       const std::vector<std::string>& subdirs);

/// Annotation-coverage audit over the standard tree walk (for
/// --audit-annotations): unannotated-mutex findings after suppressions,
/// plus coverage counters for the summary line.
struct AnnotationAudit {
  std::vector<Finding> findings;
  int64_t annotated_classes = 0;  ///< Classes with >= 1 guarded field.
  int64_t guarded_fields = 0;     ///< VSD_GUARDED_BY fields seen.
  int64_t contracts = 0;          ///< Methods with REQUIRES/ACQUIRES/EXCLUDES.
};
AnnotationAudit AuditAnnotations(const std::string& root,
                                 const std::vector<std::string>& subdirs);

}  // namespace vsd::lint

#endif  // VSD_LINT_LINT_H_
