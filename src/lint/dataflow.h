#ifndef VSD_LINT_DATAFLOW_H_
#define VSD_LINT_DATAFLOW_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.h"
#include "lint/lint.h"
#include "lint/tokens.h"

/// Lightweight intraprocedural dataflow on top of the lexer (no parser, no
/// types — see docs/INTERNALS.md "Dataflow analyses"). The engine recovers
/// function extents from the token stream, builds a whole-program function
/// table with call-site resolution, and runs three analyses over it:
///
///  * lock-order     — whole-program lock-acquisition graph; an edge A -> B
///                     means B is acquired while A is held (including through
///                     one level of resolved direct calls); any cycle is a
///                     potential deadlock.
///  * nondet-taint   — values derived from nondeterministic sources (wall
///                     clocks, thread ids, shared-Rng draws in ParallelFor
///                     bodies, pointer-to-integer casts) are propagated
///                     through assignments, arithmetic, and container inserts
///                     until they reach a result sink (CSV/metrics writers,
///                     BENCH_* sidecars, returns from src/core/ and bench/).
///  * hot-path-alloc — heap allocations reachable from
///                     GraphExecutor::Execute (one call level deep), inside
///                     src/tensor/kernels, or inside ParallelFor bodies in
///                     src/explain/: the static twin of the runtime counting
///                     operator-new contract in tests/graph_exec_test.cc.
namespace vsd::lint {

/// One function definition recovered from the token stream. Recovery is a
/// heuristic (identifier + balanced parens + optional specifiers/ctor-init
/// list + braced body); declarations, calls, and control-flow headers are
/// excluded by shape and keyword. Macro-style bodies (TEST(A, B) { ... })
/// are recovered under the macro's name, which is harmless.
struct DfFunction {
  std::string file;       ///< Repo-relative path the function lives in.
  std::string qualifier;  ///< "GraphExecutor" for GraphExecutor::Execute.
  std::string name;       ///< Unqualified name ("Execute", "~ThreadPool").
  int line = 0;           ///< Line of the function name.
  size_t body_open = 0;   ///< Token index of the body '{'.
  size_t body_close = 0;  ///< Token index of the matching '}'.
  std::set<std::string> params;  ///< Parameter names.

  std::string QualifiedName() const {
    return qualifier.empty() ? name : qualifier + "::" + name;
  }
};

/// Recovers all function definitions in a token stream (see DfFunction).
std::vector<DfFunction> ExtractFunctions(const std::string& file,
                                         const std::vector<Token>& toks);

/// Names declared as locals inside [body_open, body_close): `Type name ...`
/// shapes (IsDeclaredName) ending at = ; ( { or [, including static
/// locals. Used to scope lock identities and to distinguish per-function
/// statics from class members.
std::set<std::string> CollectBodyLocals(const std::vector<Token>& toks,
                                        size_t body_open, size_t body_close);

/// Whole-program function table over the same file walk as the include
/// graph. Call sites are resolved by name only: same-class candidates win,
/// then same-file, then a unique cross-file match; ambiguous names resolve
/// to nothing rather than risk a false edge.
class DataflowProgram {
 public:
  /// Registers a lexed file. Call in sorted path order for deterministic
  /// function/edge ordering downstream.
  void AddFile(const std::string& path, const LexResult& lex);

  const std::vector<std::string>& files() const { return files_; }
  const std::vector<Token>& tokens(const std::string& file) const;
  const std::vector<DfFunction>& functions() const { return functions_; }

  /// Candidate definitions for a call to `name` made from `caller`, or
  /// empty if unknown or ambiguous. All returned candidates share one file
  /// (overloads), so callers may union over them.
  std::vector<const DfFunction*> Resolve(const DfFunction& caller,
                                         const std::string& name) const;

 private:
  std::vector<std::string> files_;
  std::map<std::string, std::vector<Token>> tokens_;
  std::vector<DfFunction> functions_;
  std::map<std::string, std::vector<size_t>> by_name_;
};

// ---------------------------------------------------------------------------
// Held-lock scanning (lock-order and guarded-by)
// ---------------------------------------------------------------------------

/// Whether toks[k] heads a call the lock analyses resolve by name: a bare
/// call, a `this->` call, or a `::`-qualified call outside std and
/// friends. Calls through any other receiver (. / ->) are never linked —
/// the receiver's type is unknown to a lexer.
bool IsLinkableCall(const std::vector<Token>& toks, size_t k);

/// One lock held at some point of a ScanFunctionLocks walk.
struct HeldLock {
  std::string id;       ///< Canonical lock identity (see BuildLockGraph).
  std::string guard;    ///< Guard variable; empty for manual/entry holds.
  int depth = 0;        ///< Brace depth at acquisition (guards pop with it).
  bool manual = false;  ///< Manual or entry hold: never popped by scope exit.
};

struct LockScanHooks {
  /// Each acquisition of `id`; `held` is the held set just before it.
  std::function<void(const std::string& id, int line,
                     const std::vector<HeldLock>& held)>
      on_acquire;
  /// Every other identifier toks[k] of the body (anything that is not part
  /// of a guard declaration or a manual lock()/unlock() call).
  std::function<void(size_t k, const std::vector<HeldLock>& held)> on_token;
  /// What a manual lock() of an id already held does: lock-order counts it
  /// as one more acquisition (and a manual hold that outlives any guard);
  /// guarded-by treats it as a no-op.
  bool relock_acquires = true;
};

/// The one held-lock scanner behind lock-order and guarded-by. Walks `fn`'s
/// body tracking the held set by brace depth: a guard declaration
/// (lock_guard, unique_lock, shared_lock, scoped_lock) holds its mutex
/// arguments for its scope, manual lock()/unlock() (and the shared
/// variants) open and close a hold, and `entry_held` (VSD_REQUIRES) is held
/// from entry until a manual unlock(). `locals` (CollectBodyLocals of the
/// body) scope lock ids.
void ScanFunctionLocks(const std::vector<Token>& toks, const DfFunction& fn,
                       const std::set<std::string>& locals,
                       const std::set<std::string>& entry_held,
                       const LockScanHooks& hooks);

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

/// Edge in the lock-acquisition graph: `to` is acquired (at file:line) while
/// `from` is held. `via` names the callee when the acquisition happens one
/// call level away rather than lexically inside the holder.
struct LockEdge {
  std::string from;
  std::string to;
  std::string file;
  int line = 0;
  std::string via;
};

struct LockGraph {
  std::vector<std::string> nodes;  ///< Sorted canonical lock identities.
  std::vector<LockEdge> edges;     ///< Deduped by (from, to), sorted.
};

/// Lock identities are canonical strings: members lock as "Class::name",
/// locals/statics as "Function::name", file-scope mutexes in free functions
/// as "file::name" — consistent naming is what makes cycles comparable
/// across functions.
LockGraph BuildLockGraph(const DataflowProgram& program);

/// Cycles in the acquisition graph, one "lock-order" finding per distinct
/// cycle at the edge that closes it.
std::vector<Finding> CheckLockOrder(const LockGraph& graph);

/// DOT export for `vsd_lint --dump-lock-graph` (mirrors DumpDot for the
/// include graph). Call-linked edges are dashed.
std::string DumpLockDot(const LockGraph& graph);

/// Lex + AddFile over the standard tree walk, then BuildLockGraph.
LockGraph BuildLockGraphFromTree(const std::string& root,
                                 const std::vector<std::string>& subdirs);

// ---------------------------------------------------------------------------
// nondet-taint
// ---------------------------------------------------------------------------

/// Names that read the wall clock (system_clock, time, localtime, ...):
/// the wall-clock rule's ban list and nondet-taint's clock sources.
const std::set<std::string>& WallClockNames();

/// Names that read thread identity (get_id, pthread_self, gettid): the
/// thread-id rule's ban list and nondet-taint's thread-id sources.
const std::set<std::string>& ThreadIdNames();

/// A nondeterministic source occurrence inside one function body.
struct TaintSource {
  size_t token = 0;  ///< Token index of the source.
  int line = 0;
  std::string what;  ///< Human description ("wall clock 'system_clock'").
};

/// All nondeterministic sources in `fn`'s body: wall-clock reads, thread
/// ids, pointer-to-integer casts, and shared-Rng draws inside ParallelFor/
/// ParallelMap call extents.
std::vector<TaintSource> FindNondetSources(const std::vector<Token>& toks,
                                           const DfFunction& fn);

/// Forward taint propagation over `fn`'s body: a variable is tainted when a
/// source or an already-tainted identifier appears on the right of an
/// assignment/compound-assignment targeting it, or in the arguments of a
/// container mutator (push_back/insert/...) it receives. Iterated to a
/// fixpoint, so ordering between statements is conservative (taint sticks).
/// Returns var name -> originating source.
std::map<std::string, TaintSource> PropagateTaint(
    const std::vector<Token>& toks, const DfFunction& fn,
    const std::vector<TaintSource>& seeds);

/// The nondet-taint rule over one lexed file (intraprocedural): sources
/// propagated to result sinks — AddRow/WriteCsv/WriteBenchPerfJson calls
/// anywhere, and `return` values in src/core/ and bench/.
std::vector<Finding> CheckNondetTaint(const std::string& path,
                                      const LexResult& lex);

// ---------------------------------------------------------------------------
// hot-path-alloc
// ---------------------------------------------------------------------------

/// The hot-path-alloc rule: heap allocations (new, make_unique/make_shared,
/// growing container calls, string growth) inside GraphExecutor::Execute
/// and its one-level resolved callees, inside any function in
/// src/tensor/kernels.*, or inside ParallelFor/ParallelMap call extents in
/// src/explain/ files.
std::vector<Finding> CheckHotPathAlloc(const DataflowProgram& program);

}  // namespace vsd::lint

#endif  // VSD_LINT_DATAFLOW_H_
