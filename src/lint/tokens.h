#ifndef VSD_LINT_TOKENS_H_
#define VSD_LINT_TOKENS_H_

#include <set>
#include <string>
#include <vector>

#include "lint/lexer.h"

/// Token-walk utilities shared by every vsd_lint rule and analysis. They
/// pattern-match the lexer's token stream (lint/lexer.h) — no parser, no
/// types — so each shape they accept is a heuristic. Semantics are pinned
/// by tests/dataflow_test.cc and tests/lint_test.cc; a new rule should
/// build on these rather than re-walk brackets or chains by hand.
namespace vsd::lint {

// Defined here so the per-token loops of every rule inline them.
inline bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

inline bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

inline bool IsIdent(const Token& t) {
  return t.kind == TokenKind::kIdentifier;
}

/// Keywords that can precede '(' without being a call or definition head.
const std::set<std::string>& HeadKeywords();

/// Assignment and compound-assignment operators: = += -= ... <<= >>=.
const std::set<std::string>& AssignOps();

/// Index of the token matching the opener at `open` ("(" / "{" / "["), or
/// toks.size() when unbalanced.
size_t MatchForward(const std::vector<Token>& toks, size_t open,
                    const char* opener, const char* closer);

/// Index of the opener matching the closer at `close`, or toks.size() when
/// unbalanced.
size_t MatchBackward(const std::vector<Token>& toks, size_t close,
                     const char* opener, const char* closer);

/// With toks[open] == "<", returns the index one past the matching ">".
/// Handles ">>" closing two levels (template shorthand).
size_t SkipAngles(const std::vector<Token>& toks, size_t open);

/// Index of the name a declaration introduces when its type ends just
/// before `j`: skips `&`, `*` and `const` up to an identifier. Returns
/// `end` when no identifier comes before `end`.
size_t NameAfterType(const std::vector<Token>& toks, size_t j, size_t end);

/// Whether toks[k] is the name a `Type name` declarator introduces: a
/// non-keyword identifier after a type-ish token (an identifier or a
/// closing '>'), directly or across one `*` / `&` / `&&` sigil. A sigil
/// with no type before it is an operator: `f(&x)` and `= *p` declare
/// nothing. A closing '>>' does not count, since the lexer gives the shift
/// and extraction operator the same token (`in >> count_`). The caller
/// decides which following token ends a declarator.
bool IsDeclaredName(const std::vector<Token>& toks, size_t k);

/// One call `head<...>(...)`.
struct CallExtent {
  size_t head = 0;   ///< The callee identifier.
  size_t open = 0;   ///< '(' of the argument list.
  size_t close = 0;  ///< Matching ')', or toks.size() when unbalanced.
};

/// ParallelFor and ParallelMap: the loops whose callables run concurrently.
const std::set<std::string>& ParallelCallees();

/// Calls in [begin, end) to an identifier in `callees`, skipping template
/// arguments (`ParallelMap<T>(...)`). The scan resumes at each call's '(',
/// so calls nested in an argument list are found as well.
std::vector<CallExtent> FindCalls(
    const std::vector<Token>& toks, size_t begin, size_t end,
    const std::set<std::string>& callees = ParallelCallees());

/// Draws from a shared Rng inside the call extent (open, close): the
/// method tokens k of `rng.Next()`-shaped calls (Next, Uniform, Normal,
/// Shuffle, Fork, ...) whose receiver toks[k - 2] is an identifier not
/// declared inside the extent (`Rng r`, `auto& r`). `streams[i].Uniform()`
/// and `MakeRng(i).Next()` draw from per-index receivers, which is the
/// sanctioned pattern, and are never returned. A shared nested member
/// (`obj.rng.Next()`) still ends in an identifier and is returned.
std::vector<size_t> SharedRngDraws(const std::vector<Token>& toks,
                                   size_t open, size_t close);

/// Index of the root of the chain ending at identifier toks[last], walked
/// back through `.` / `->` links between identifiers (`a.b->c` gives a).
size_t WalkChain(const std::vector<Token>& toks, size_t last);

/// Receiver chain ending at token `e`, walked back through . / -> (and a
/// leading `this->`), e.g. "entry.mu". Empty when toks[e] is not an
/// identifier or is a bare `this`; a call or subscript link ends the walk
/// (`f().mu` and `v[i].mu` both give "mu").
std::string WalkBackChain(const std::vector<Token>& toks, size_t e);

}  // namespace vsd::lint

#endif  // VSD_LINT_TOKENS_H_
