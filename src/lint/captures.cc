#include "lint/captures.h"

#include <map>
#include <set>
#include <string>

#include "lint/tokens.h"

namespace vsd::lint {
namespace {

/// Keywords that can precede or be an identifier without declaring one.
const std::set<std::string>& Keywords() {
  static const std::set<std::string> kKeywords = {
      "return", "case",     "goto",   "co_return", "co_yield", "throw",
      "delete", "typename", "using",  "namespace", "else",     "do",
      "if",     "while",    "for",    "switch",    "break",    "continue",
      "new",    "sizeof",   "true",   "false",     "nullptr",  "this",
      "const",  "auto",     "static", "mutable",   "operator",
  };
  return kKeywords;
}

const std::set<std::string>& MutatingMethods() {
  static const std::set<std::string> kMutators = {
      "push_back", "emplace_back", "pop_back", "insert", "emplace",
      "erase",     "clear",        "resize",   "assign", "append",
      "push",      "pop",
  };
  return kMutators;
}

/// Atomic member operations are synchronized by definition.
const std::set<std::string>& AtomicOps() {
  static const std::set<std::string> kAtomicOps = {
      "fetch_add", "fetch_sub", "fetch_or", "fetch_and", "fetch_xor",
      "store",     "exchange",  "compare_exchange_weak",
      "compare_exchange_strong",
  };
  return kAtomicOps;
}

/// Identifiers declared as std::atomic<...> (or atomic_* aliases) anywhere
/// in the file. Writes to them are synchronized.
std::set<std::string> AtomicVars(const std::vector<Token>& toks) {
  std::set<std::string> vars;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i])) continue;
    const std::string& t = toks[i].text;
    if (t != "atomic" && !StartsWith(t, "atomic_")) continue;
    size_t j = i + 1;
    if (j < toks.size() && toks[j].text == "<") j = SkipAngles(toks, j);
    if (j < toks.size() && IsIdent(toks[j])) {
      vars.insert(toks[j].text);
    }
  }
  return vars;
}

struct CaptureList {
  bool default_ref = false;
  bool captures_this = false;
  std::set<std::string> by_ref;
  std::set<std::string> by_val;
};

/// Parses the tokens of `[...]` (exclusive of the brackets).
CaptureList ParseCaptures(const std::vector<Token>& toks, size_t open,
                          size_t close) {
  CaptureList captures;
  size_t i = open + 1;
  while (i < close) {
    // One capture entry, up to a top-level comma.
    bool is_ref = false;
    if (toks[i].text == "&") {
      is_ref = true;
      ++i;
    } else if (toks[i].text == "=") {
      ++i;
    }
    if (i < close && toks[i].kind == TokenKind::kIdentifier) {
      if (toks[i].text == "this") {
        captures.captures_this = true;
      } else if (is_ref) {
        captures.by_ref.insert(toks[i].text);
      } else {
        captures.by_val.insert(toks[i].text);
      }
      ++i;
    } else if (is_ref) {
      captures.default_ref = true;  // Bare '&'.
    }
    // Skip any init-capture expression / pack expansion to the next comma.
    int depth = 0;
    while (i < close) {
      const std::string& t = toks[i].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      else if (t == ")" || t == "]" || t == "}") --depth;
      else if (t == "," && depth == 0) {
        ++i;
        break;
      }
      ++i;
    }
  }
  return captures;
}

struct LambdaSite {
  size_t capture_open;   ///< '['
  size_t capture_close;  ///< ']'
  size_t body_open;      ///< '{'
  size_t body_close;     ///< '}'
  std::string callee;    ///< ParallelFor / ParallelMap / Submit.
};

/// IsDeclaredName, also taking a closing '>>' as the end of a type
/// (`std::vector<std::vector<int>> v`). The price is that `in >> x` makes
/// `x` a local too, which costs a missed race rather than a false positive.
bool IsLambdaDeclaredName(const std::vector<Token>& toks, size_t k) {
  if (IsDeclaredName(toks, k)) return true;
  if (k < 2 || !IsIdent(toks[k]) || HeadKeywords().count(toks[k].text)) {
    return false;
  }
  size_t type_end = k - 1;
  const std::string& prev = toks[type_end].text;
  if (prev == "*" || prev == "&" || prev == "&&") --type_end;
  return toks[type_end].text == ">>";
}

/// Locals of the lambda at `site`: body declarations (IsLambdaDeclaredName)
/// plus the lambda-only shapes — its own and nested lambdas' parameters,
/// structured bindings, range-for variables.
/// Permissive on purpose — an over-collected local costs a missed race
/// (TSan's job), an under-collected one costs a false positive (everyone's
/// time).
std::set<std::string> CollectLocals(const std::vector<Token>& toks,
                                    const LambdaSite& site) {
  // A body declaration ends at = ; { ( [, a parameter at ) or , and a
  // range-for variable at :.
  static const std::set<std::string> kDeclNext = {"=", ";", "{", "(", ")",
                                                  ",", ":", "["};
  std::set<std::string> locals;
  // From ']' on, so the lambda's own parameter list is scanned too.
  for (size_t i = site.capture_close + 1; i + 1 < site.body_close; ++i) {
    // Structured binding: auto [a, b] = ...
    if (toks[i].text == "auto" && toks[i + 1].text == "[") {
      size_t bind_end = MatchForward(toks, i + 1, "[", "]");
      for (size_t k = i + 2; k < bind_end; ++k) {
        if (IsIdent(toks[k])) locals.insert(toks[k].text);
      }
      i = bind_end;
      continue;
    }
    if (IsLambdaDeclaredName(toks, i) && kDeclNext.count(toks[i + 1].text)) {
      locals.insert(toks[i].text);
    }
  }
  return locals;
}

/// Where the assignment target chain ending at an identifier starts.
struct LvalueChain {
  size_t root = 0;            ///< Token index of the leftmost identifier.
  bool subscripted = false;   ///< Some link is indexed: a[i].b.
  bool through_call = false;  ///< The receiver is a call result: f().b.
};

/// Walks the chain ending at identifier toks[last] back to its root across
/// `.` / `->` / `::` links and indexed links (a[i].b), stopping at a call
/// result.
LvalueChain WalkLvalueChain(const std::vector<Token>& toks, size_t last) {
  LvalueChain chain;
  chain.root = last;
  size_t pos = last;
  while (pos >= 2) {
    const std::string& link = toks[pos - 1].text;
    if (link != "." && link != "->" && link != "::") break;
    size_t before = pos - 2;
    if (toks[before].text == "]") {
      chain.subscripted = true;
      // Walk back over the subscript to the object it indexes.
      before = MatchBackward(toks, before, "[", "]");
      if (before == 0 || before >= toks.size()) break;
      --before;
    }
    if (toks[before].text == ")") {
      chain.through_call = true;
      break;
    }
    if (!IsIdent(toks[before])) break;
    pos = before;
    chain.root = before;
  }
  return chain;
}

/// Reference declarations inside the body (`auto& slot = shared;`,
/// `T& h = this->hidden_;`) create a second name for an existing object:
/// a write through the alias is a write to the aliased object, so the
/// alias maps to the root identifier of its initializer chain. Aliases of
/// subscripted or call-result initializers are NOT recorded — they name a
/// per-index slot or a temporary and stay plain locals.
std::map<std::string, std::string> CollectRefAliases(
    const std::vector<Token>& toks, const LambdaSite& site) {
  std::map<std::string, std::string> aliases;
  for (size_t i = site.body_open + 1; i + 3 < site.body_close; ++i) {
    if (toks[i].text != "&" && toks[i].text != "&&") continue;
    const Token& prev = toks[i - 1];
    const bool type_prev =
        prev.text == "auto" || prev.text == ">" || prev.text == ">>" ||
        (prev.kind == TokenKind::kIdentifier && !Keywords().count(prev.text));
    if (!type_prev) continue;
    const Token& name = toks[i + 1];
    if (name.kind != TokenKind::kIdentifier || Keywords().count(name.text)) {
      continue;
    }
    if (toks[i + 2].text != "=") continue;
    // Initializer must be a pure identifier chain (a . b -> c :: d) ending
    // at ';' — anything else (subscript, call, arithmetic) is not an alias
    // of a captured object.
    size_t j = i + 3;
    const bool root_this = toks[j].text == "this";
    if (toks[j].kind != TokenKind::kIdentifier ||
        (!root_this && Keywords().count(toks[j].text))) {
      continue;
    }
    const std::string root = toks[j].text;
    ++j;
    bool simple = true;
    while (j < site.body_close && toks[j].text != ";") {
      const std::string& link = toks[j].text;
      if ((link == "." || link == "->" || link == "::") &&
          j + 1 < site.body_close &&
          toks[j + 1].kind == TokenKind::kIdentifier) {
        j += 2;
        continue;
      }
      simple = false;
      break;
    }
    if (simple) aliases[name.text] = root;
  }
  return aliases;
}

void AnalyzeLambda(const std::string& path, const std::vector<Token>& toks,
                   const LambdaSite& site,
                   const std::set<std::string>& atomics,
                   std::set<std::string>* seen,
                   std::vector<Finding>* findings) {
  const CaptureList captures =
      ParseCaptures(toks, site.capture_open, site.capture_close);
  if (!captures.default_ref && captures.by_ref.empty() &&
      !captures.captures_this) {
    return;  // Everything is copied; writes cannot race.
  }

  // Lock-to-write matching is beyond a lexer: a body that takes any lock is
  // the synchronized-update pattern and the checker stands down.
  static const std::set<std::string> kLockTokens = {
      "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
      "lock",       "try_lock",    "mutex",
  };
  for (size_t i = site.body_open + 1; i < site.body_close; ++i) {
    if (toks[i].kind == TokenKind::kIdentifier &&
        kLockTokens.count(toks[i].text)) {
      return;
    }
  }

  const std::set<std::string> locals = CollectLocals(toks, site);
  const std::map<std::string, std::string> ref_aliases =
      CollectRefAliases(toks, site);

  // Left-hand-side chains: indexed links are per-index slots and a
  // call-result receiver is a temporary, never a captured object.
  auto classify = [&](const LvalueChain& chain, int line) {
    if (chain.subscripted || chain.through_call) return;
    const Token& root = toks[chain.root];
    if (root.kind != TokenKind::kIdentifier) return;
    // Follow reference aliases back to the object they rename: writing
    // through `auto& slot = shared;` is writing `shared`. Bounded hops in
    // case of a (nonsensical) alias cycle.
    std::string name = root.text;
    std::string via;
    for (int hop = 0; hop < 8; ++hop) {
      const auto it = ref_aliases.find(name);
      if (it == ref_aliases.end() || it->second == name) break;
      if (via.empty()) via = name;
      name = it->second;
    }
    if (locals.count(name) || atomics.count(name)) return;
    if (captures.by_val.count(name)) return;  // Writes hit the copy.
    if (name == "this" && !captures.captures_this && !captures.default_ref) {
      return;
    }
    if (!seen->insert(std::to_string(line) + ":" + name).second) return;
    const std::string written =
        via.empty() ? "written"
                    : "written through the reference alias '" + via + "'";
    findings->push_back(Finding{
        path, line, "unguarded-capture",
        "'" + name + "' is captured by reference and " + written +
            " inside a " + site.callee +
            " body without a mutex/atomic/per-index subscript — a data race "
            "whose result depends on scheduling; write to a per-index slot "
            "(out[i]) or guard the update (docs/INTERNALS.md, determinism "
            "contract)"});
  };

  for (size_t i = site.body_open + 1; i < site.body_close; ++i) {
    const Token& t = toks[i];
    // Compound/simple assignment.
    if (t.kind == TokenKind::kPunct && AssignOps().count(t.text)) {
      const Token& prev = toks[i - 1];
      if (prev.text == "]") {
        continue;  // Subscripted slot: x[...] = v.
      }
      if (prev.kind == TokenKind::kIdentifier &&
          !Keywords().count(prev.text)) {
        classify(WalkLvalueChain(toks, i - 1), t.line);
      }
      continue;
    }
    // Increment / decrement (pre or post).
    if (t.text == "++" || t.text == "--") {
      const Token& prev = toks[i - 1];
      if (prev.text == "]") continue;
      if (prev.kind == TokenKind::kIdentifier && !Keywords().count(prev.text)) {
        classify(WalkLvalueChain(toks, i - 1), t.line);
        continue;
      }
      // Pre-increment: root is the start of the following chain; indexed
      // targets (++counts[i]) are per-index slots.
      size_t j = i + 1;
      if (j < site.body_close && toks[j].kind == TokenKind::kIdentifier) {
        size_t root = j;
        while (j + 2 < site.body_close &&
               (toks[j + 1].text == "." || toks[j + 1].text == "->") &&
               toks[j + 2].kind == TokenKind::kIdentifier) {
          j += 2;
        }
        if (j + 1 < site.body_close && toks[j + 1].text == "[") continue;
        LvalueChain chain;
        chain.root = root;
        classify(chain, t.line);
      }
      continue;
    }
    // Mutating member calls: x.push_back(...), x->insert(...).
    if (t.kind == TokenKind::kIdentifier && i + 1 < site.body_close &&
        toks[i + 1].text == "(" &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
      if (AtomicOps().count(t.text)) continue;  // Synchronized by definition.
      if (!MutatingMethods().count(t.text)) continue;
      if (toks[i - 2].text == "]") continue;  // Per-index receiver.
      if (toks[i - 2].kind != TokenKind::kIdentifier) continue;
      classify(WalkLvalueChain(toks, i - 2), t.line);
    }
  }
}

}  // namespace

void CheckUnguardedCaptures(const std::string& path, const LexResult& lex,
                            std::vector<Finding>* findings) {
  static const std::set<std::string> kCallees = {"ParallelFor", "ParallelMap",
                                                 "Submit"};
  const auto& toks = lex.tokens;
  const std::set<std::string> atomics = AtomicVars(toks);
  std::set<std::string> seen;       // line:name, dedupes nested analyses.
  std::set<size_t> analyzed;        // body_open indices already handled.

  for (const CallExtent& call : FindCalls(toks, 0, toks.size(), kCallees)) {
    const std::string& callee = toks[call.head].text;
    // Submit only as a member call (pool.Submit): a definition or a free
    // function of that name is not a pool.
    if (callee == "Submit" && (call.head == 0 ||
                               (toks[call.head - 1].text != "." &&
                                toks[call.head - 1].text != "->"))) {
      continue;
    }
    // Every lambda literal inside the argument list.
    for (size_t k = call.open + 1; k < call.close; ++k) {
      if (toks[k].text != "[") continue;
      const std::string& before = toks[k - 1].text;
      if (before != "(" && before != ",") continue;  // Subscript, not lambda.
      LambdaSite site;
      site.capture_open = k;
      site.capture_close = MatchForward(toks, k, "[", "]");
      size_t cursor = site.capture_close + 1;
      if (cursor < toks.size() && toks[cursor].text == "(") {
        cursor = MatchForward(toks, cursor, "(", ")") + 1;
      }
      // Skip specifiers (mutable, noexcept, -> ret) up to the body.
      while (cursor < toks.size() && toks[cursor].text != "{" &&
             toks[cursor].text != ")" && toks[cursor].text != ",") {
        ++cursor;
      }
      if (cursor >= toks.size() || toks[cursor].text != "{") continue;
      site.body_open = cursor;
      site.body_close = MatchForward(toks, cursor, "{", "}");
      site.callee = callee;
      if (analyzed.insert(site.body_open).second) {
        AnalyzeLambda(path, toks, site, atomics, &seen, findings);
      }
      k = site.body_close;
    }
  }
}

}  // namespace vsd::lint
