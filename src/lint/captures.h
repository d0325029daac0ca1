#ifndef VSD_LINT_CAPTURES_H_
#define VSD_LINT_CAPTURES_H_

#include <string>
#include <vector>

#include "lint/lexer.h"
#include "lint/lint.h"

namespace vsd::lint {

/// Rule `unguarded-capture`: a static race check over the lambdas handed to
/// `ParallelFor` / `ParallelMap` / `*.Submit(...)`. The loop body runs
/// concurrently, so any variable captured by reference and *written* inside
/// the body is a data race — and, because scheduling decides the write
/// order, a determinism bug — unless one of the sanctioned patterns holds:
///
///  * the write lands in a per-index slot (`out[i] = ...`, subscript
///    anywhere on the left-hand side);
///  * the target is body-local (declared inside the lambda, including loop
///    variables, structured bindings, and parameters — found with the
///    same declarator shape as CollectBodyLocals plus a closing `>>`, so
///    `f(&x)` declares nothing);
///  * the target is a `std::atomic` (declared as such in this file) or the
///    write is an atomic member op (`fetch_add`, `store`, ...);
///  * the body takes a lock (`lock_guard` / `unique_lock` / `scoped_lock` /
///    explicit `.lock()`), which makes this checker stand down for the
///    whole lambda — lock-to-write matching is beyond a lexer;
///  * the capture is by value (writes hit a private copy).
///
/// A write through a body-local reference alias (`auto& a = shared;
/// a = 1;`) is a write to the object it renames. TSan remains the dynamic
/// backstop; this check exists to catch the common mistakes before a
/// nondeterministic bench ever runs.
void CheckUnguardedCaptures(const std::string& path, const LexResult& lex,
                            std::vector<Finding>* findings);

}  // namespace vsd::lint

#endif  // VSD_LINT_CAPTURES_H_
