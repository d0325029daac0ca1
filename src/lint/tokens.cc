#include "lint/tokens.h"

namespace vsd::lint {

const std::set<std::string>& HeadKeywords() {
  static const std::set<std::string> kw = {
      "if",      "for",      "while",    "switch",        "catch",
      "return",  "sizeof",   "alignof",  "decltype",      "constexpr",
      "static_assert",       "assert",   "defined",       "new",
      "delete",  "throw",    "else",     "case",          "do",
      "alignas", "noexcept", "typename", "static_cast",   "const_cast",
      "dynamic_cast",        "reinterpret_cast",          "operator",
  };
  return kw;
}

const std::set<std::string>& AssignOps() {
  static const std::set<std::string> kOps = {
      "=",  "+=", "-=", "*=",  "/=",  "%=",
      "&=", "|=", "^=", "<<=", ">>=",
  };
  return kOps;
}

size_t MatchForward(const std::vector<Token>& toks, size_t open,
                    const char* opener, const char* closer) {
  int depth = 1;
  size_t k = open + 1;
  while (k < toks.size() && depth > 0) {
    if (toks[k].text == opener) ++depth;
    else if (toks[k].text == closer) --depth;
    if (depth == 0) break;
    ++k;
  }
  return k;
}

size_t MatchBackward(const std::vector<Token>& toks, size_t close,
                     const char* opener, const char* closer) {
  int depth = 1;
  size_t k = close;
  while (k > 0 && depth > 0) {
    --k;
    if (toks[k].text == closer) ++depth;
    else if (toks[k].text == opener) --depth;
  }
  return depth == 0 ? k : toks.size();
}

size_t SkipAngles(const std::vector<Token>& toks, size_t open) {
  int depth = 1;
  size_t j = open + 1;
  while (j < toks.size() && depth > 0) {
    if (toks[j].text == "<") ++depth;
    else if (toks[j].text == ">") --depth;
    else if (toks[j].text == ">>") depth -= 2;
    ++j;
  }
  return j;
}

size_t NameAfterType(const std::vector<Token>& toks, size_t j, size_t end) {
  while (j < end && (toks[j].text == "&" || toks[j].text == "*" ||
                     toks[j].text == "const")) {
    ++j;
  }
  return j < end && IsIdent(toks[j]) ? j : end;
}

bool IsDeclaredName(const std::vector<Token>& toks, size_t k) {
  static const std::set<std::string> kNotType = {
      "return", "else",     "delete", "new",      "throw",  "case",
      "goto",   "do",       "public", "private",  "protected",
      "break",  "continue", "struct", "class",    "enum",
  };
  if (k == 0 || !IsIdent(toks[k]) || HeadKeywords().count(toks[k].text)) {
    return false;
  }
  const auto type_ish = [](const Token& t) {
    return (IsIdent(t) && !kNotType.count(t.text) &&
            !HeadKeywords().count(t.text)) ||
           t.text == ">";
  };
  const std::string& prev = toks[k - 1].text;
  if (prev == "*" || prev == "&" || prev == "&&") {
    return k >= 2 && type_ish(toks[k - 2]);
  }
  return type_ish(toks[k - 1]);
}

const std::set<std::string>& ParallelCallees() {
  static const std::set<std::string> kCallees = {"ParallelFor",
                                                 "ParallelMap"};
  return kCallees;
}

std::vector<CallExtent> FindCalls(const std::vector<Token>& toks,
                                  size_t begin, size_t end,
                                  const std::set<std::string>& callees) {
  std::vector<CallExtent> calls;
  for (size_t i = begin; i + 1 < end && i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i]) || !callees.count(toks[i].text)) continue;
    size_t j = i + 1;
    if (toks[j].text == "<") j = SkipAngles(toks, j);
    if (j >= toks.size() || toks[j].text != "(") continue;
    calls.push_back(CallExtent{i, j, MatchForward(toks, j, "(", ")")});
    i = j;
  }
  return calls;
}

std::vector<size_t> SharedRngDraws(const std::vector<Token>& toks,
                                   size_t open, size_t close) {
  static const std::set<std::string> kDrawMethods = {
      "Next",        "Uniform",  "UniformInt",
      "Normal",      "Bernoulli", "Shuffle",
      "SampleIndex", "SampleWithoutReplacement", "Fork",
  };
  // Rng objects declared inside the extent are per-iteration locals.
  std::set<std::string> locals;
  for (size_t k = open + 1; k + 1 < close; ++k) {
    const std::string& t = toks[k].text;
    if (!IsIdent(toks[k]) || (t != "Rng" && t != "auto")) continue;
    const size_t name = NameAfterType(toks, k + 1, close);
    if (name < close) locals.insert(toks[name].text);
  }
  std::vector<size_t> draws;
  for (size_t k = open + 2; k + 1 < close; ++k) {
    if (!IsIdent(toks[k]) || !kDrawMethods.count(toks[k].text)) continue;
    const std::string& access = toks[k - 1].text;
    if (access != "." && access != "->") continue;
    if (toks[k + 1].text != "(") continue;
    const Token& recv = toks[k - 2];
    if (!IsIdent(recv) || locals.count(recv.text)) continue;
    draws.push_back(k);
  }
  return draws;
}

size_t WalkChain(const std::vector<Token>& toks, size_t last) {
  size_t root = last;
  while (root >= 2 && (toks[root - 1].text == "." ||
                       toks[root - 1].text == "->") &&
         IsIdent(toks[root - 2])) {
    root -= 2;
  }
  return root;
}

std::string WalkBackChain(const std::vector<Token>& toks, size_t e) {
  if (e >= toks.size() || !IsIdent(toks[e])) return {};
  size_t k = WalkChain(toks, e);
  if (toks[k].text == "this") {
    if (k == e) return {};
    k += 2;  // A leading `this->` names the same member.
  }
  std::string chain = toks[k].text;
  for (k += 2; k <= e; k += 2) chain += "." + toks[k].text;
  return chain;
}

}  // namespace vsd::lint
