#include "lint/annotations.h"

#include <utility>

namespace vsd::lint {
namespace {

/// Mutex-ish std type names whose members demand annotation.
const std::set<std::string>& MutexTypes() {
  static const std::set<std::string> kTypes = {
      "mutex",       "shared_mutex",       "recursive_mutex",
      "timed_mutex", "shared_timed_mutex",
  };
  return kTypes;
}

std::string LastComponent(const std::string& qualified) {
  const size_t pos = qualified.rfind("::");
  return pos == std::string::npos ? qualified : qualified.substr(pos + 2);
}

}  // namespace

std::vector<ClassExtent> FindClassExtents(const std::vector<Token>& toks) {
  std::vector<ClassExtent> extents;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t != "class" && t != "struct") continue;
    if (i > 0 && toks[i - 1].text == "enum") continue;
    size_t j = i + 1;
    if (!IsIdent(toks[j])) continue;  // Anonymous — nothing to key on.
    std::string name = toks[j].text;
    ++j;
    while (j + 1 < toks.size() && toks[j].text == "::" &&
           IsIdent(toks[j + 1])) {
      name = toks[j + 1].text;  // `struct Outer::Inner` keys as "Inner".
      j += 2;
    }
    if (j < toks.size() && toks[j].text == "<") {
      j = SkipAngles(toks, j);  // Explicit specialization.
    }
    if (j < toks.size() && toks[j].text == "final") ++j;
    if (j < toks.size() && toks[j].text == ":") {  // Base clause.
      ++j;
      int angle = 0;
      bool ok = true;
      while (j < toks.size()) {
        const std::string& u = toks[j].text;
        if (angle == 0 && u == "{") break;
        if (angle == 0 && (u == ";" || u == ")" || u == "}")) {
          ok = false;  // Bit-field / ternary / mis-shape, not a base clause.
          break;
        }
        if (u == "<") ++angle;
        else if (u == ">") --angle;
        else if (u == ">>") angle -= 2;
        ++j;
      }
      if (!ok || j >= toks.size()) continue;
    }
    if (j >= toks.size() || toks[j].text != "{") continue;
    const size_t close = MatchForward(toks, j, "{", "}");
    if (close >= toks.size()) continue;
    extents.push_back(ClassExtent{name, toks[i].line, j, close});
  }
  return extents;
}

void AnnotationIndex::AddFile(const std::string& path,
                              const std::vector<Token>& toks) {
  const std::vector<ClassExtent> extents = FindClassExtents(toks);
  const std::vector<DfFunction> fns = ExtractFunctions(path, toks);

  auto innermost = [&](size_t k) -> const ClassExtent* {
    const ClassExtent* best = nullptr;
    for (const ClassExtent& c : extents) {
      if (k > c.body_open && k < c.body_close &&
          (best == nullptr || c.body_open > best->body_open)) {
        best = &c;
      }
    }
    return best;
  };
  auto in_function_body = [&](size_t k) {
    for (const DfFunction& f : fns) {
      if (k > f.body_open && k < f.body_close) return true;
    }
    return false;
  };
  auto cls_entry = [&](const std::string& name, int line) -> ClassAnnotations& {
    ClassAnnotations& ca = classes_[name];
    if (ca.file.empty()) {
      ca.file = path;
      ca.line = line;
    }
    return ca;
  };

  for (size_t k = 0; k + 1 < toks.size(); ++k) {
    if (!IsIdent(toks[k]) || toks[k + 1].text != "(") continue;
    const std::string& t = toks[k].text;

    if (t == "VSD_GUARDED_BY") {
      const size_t close = MatchForward(toks, k + 1, "(", ")");
      if (close >= toks.size()) continue;
      const std::string chain = WalkBackChain(toks, close - 1);
      const ClassExtent* c = innermost(k);
      if (c == nullptr || chain.empty() || k == 0 || !IsIdent(toks[k - 1])) {
        continue;
      }
      cls_entry(c->name, c->line).guarded[toks[k - 1].text] =
          c->name + "::" + chain;
      continue;
    }

    if (t == "VSD_REQUIRES" || t == "VSD_ACQUIRES" || t == "VSD_EXCLUDES") {
      const size_t close = MatchForward(toks, k + 1, "(", ")");
      if (close >= toks.size()) continue;
      const std::string chain = WalkBackChain(toks, close - 1);
      if (chain.empty()) continue;
      // Walk back over trailing specifiers (and earlier annotation macros)
      // to the ')' closing the parameter list, then to the method name.
      // `params_open(j)` is the '(' of the list whose trailing specifiers
      // end just before j, or toks.size() when no list ends there.
      auto params_open = [&](size_t j) {
        static const std::set<std::string> kSpecifiers = {
            "const", "override", "final", "&", "&&", "noexcept",
        };
        while (j > 0 && kSpecifiers.count(toks[j - 1].text)) --j;
        if (j == 0 || toks[j - 1].text != ")") return toks.size();
        return MatchBackward(toks, j - 1, "(", ")");
      };
      size_t open = params_open(k);
      // An earlier VSD_*(...) group is a specifier too: hop over it.
      while (open < toks.size() && open > 0 && IsIdent(toks[open - 1]) &&
             StartsWith(toks[open - 1].text, "VSD_")) {
        open = params_open(open - 1);
      }
      if (open >= toks.size() || open == 0 || !IsIdent(toks[open - 1])) {
        continue;
      }
      const size_t name_idx = open - 1;
      const std::string method = toks[name_idx].text;
      std::string cls;
      if (const ClassExtent* c = innermost(k)) {
        cls = c->name;
      } else if (name_idx >= 2 && toks[name_idx - 1].text == "::" &&
                 IsIdent(toks[name_idx - 2])) {
        cls = toks[name_idx - 2].text;  // Out-of-class definition.
      }
      if (cls.empty()) continue;
      MethodContract& mc =
          cls_entry(cls, toks[k].line).methods[method];
      const std::string id = cls + "::" + chain;
      if (t == "VSD_REQUIRES") mc.requires_held.insert(id);
      else if (t == "VSD_ACQUIRES") mc.acquires.insert(id);
      else mc.excludes.insert(id);
      continue;
    }
  }

  // Mutex-typed members (declaration shape `mutex name ;`, at class scope
  // but not inside a member-function body).
  for (size_t k = 1; k + 2 < toks.size(); ++k) {
    if (!IsIdent(toks[k]) || !MutexTypes().count(toks[k].text)) continue;
    if (!IsIdent(toks[k + 1]) || toks[k + 2].text != ";") continue;
    const std::string& prev = toks[k - 1].text;
    if (prev == "." || prev == "->") continue;
    const ClassExtent* c = innermost(k);
    if (c == nullptr || in_function_body(k)) continue;
    cls_entry(c->name, c->line)
        .mutexes.push_back(MutexMember{toks[k + 1].text, toks[k + 1].line});
  }
}

const ClassAnnotations* AnnotationIndex::ForClass(
    const std::string& cls) const {
  auto it = classes_.find(cls);
  return it == classes_.end() ? nullptr : &it->second;
}

const MethodContract* AnnotationIndex::ContractFor(
    const std::string& qualifier, const std::string& name) const {
  const ClassAnnotations* ca = ForClass(LastComponent(qualifier));
  if (ca == nullptr) return nullptr;
  auto it = ca->methods.find(name);
  return it == ca->methods.end() ? nullptr : &it->second;
}

AnnotationIndex BuildAnnotationIndex(const DataflowProgram& program) {
  AnnotationIndex index;
  for (const std::string& file : program.files()) {
    index.AddFile(file, program.tokens(file));
  }
  return index;
}

// ---------------------------------------------------------------------------
// guarded-by
// ---------------------------------------------------------------------------

std::vector<Finding> CheckGuardedBy(const DataflowProgram& program,
                                    const AnnotationIndex& index) {
  std::vector<Finding> findings;
  for (const DfFunction& fn : program.functions()) {
    const std::vector<Token>& toks = program.tokens(fn.file);
    const std::string cls = LastComponent(fn.qualifier);
    const ClassAnnotations* ca = index.ForClass(cls);
    const MethodContract* self = index.ContractFor(fn.qualifier, fn.name);
    // Constructors/destructors run before/after the object is shared;
    // field initialization there needs no lock.
    const bool ctor_like =
        !cls.empty() && (fn.name == cls || fn.name == "~" + cls);
    const std::set<std::string> locals =
        CollectBodyLocals(toks, fn.body_open, fn.body_close);
    std::set<std::string> reported;

    LockScanHooks hooks;
    hooks.relock_acquires = false;
    hooks.on_token = [&](size_t k, const std::vector<HeldLock>& held) {
      const std::string& t = toks[k].text;
      auto holds = [&](const std::string& id) {
        for (const HeldLock& h : held) {
          if (h.id == id) return true;
        }
        return false;
      };
      // Access to a VSD_GUARDED_BY field of this class.
      if (!ctor_like && ca != nullptr && ca->guarded.count(t) &&
          !locals.count(t) && !fn.params.count(t)) {
        const std::string& prev = toks[k - 1].text;
        const bool bare = prev != "." && prev != "->" && prev != "::";
        const bool via_this =
            prev == "->" && k >= 2 && toks[k - 2].text == "this";
        if (bare || via_this) {
          const std::string& required = ca->guarded.at(t);
          if (!holds(required) &&
              reported.insert(t + ":" + std::to_string(toks[k].line))
                  .second) {
            findings.push_back(Finding{
                fn.file, toks[k].line, "guarded-by",
                "'" + t + "' is VSD_GUARDED_BY(" + LastComponent(required) +
                    ") but " + fn.QualifiedName() +
                    " touches it without holding '" + required +
                    "'; take the lock, or mark the function VSD_REQUIRES(" +
                    LastComponent(required) + ") and fix its callers"});
          }
          return;
        }
      }

      // Resolvable call: enforce the callee's REQUIRES/EXCLUDES contract.
      if (!IsLinkableCall(toks, k)) return;
      for (const DfFunction* callee : program.Resolve(fn, t)) {
        const MethodContract* c2 =
            index.ContractFor(callee->qualifier, callee->name);
        if (c2 == nullptr) continue;
        for (const std::string& id : c2->requires_held) {
          if (holds(id)) continue;
          const std::string key =
              "req:" + t + ":" + id + ":" + std::to_string(toks[k].line);
          if (reported.insert(key).second) {
            findings.push_back(Finding{
                fn.file, toks[k].line, "guarded-by",
                "call to '" + callee->QualifiedName() +
                    "' which is VSD_REQUIRES(" + LastComponent(id) +
                    ") without holding '" + id +
                    "'; acquire the lock before the call"});
          }
        }
        for (const std::string& id : c2->excludes) {
          if (!holds(id)) continue;
          const std::string key =
              "exc:" + t + ":" + id + ":" + std::to_string(toks[k].line);
          if (reported.insert(key).second) {
            findings.push_back(Finding{
                fn.file, toks[k].line, "guarded-by",
                "call to '" + callee->QualifiedName() +
                    "' which is VSD_EXCLUDES(" + LastComponent(id) +
                    ") while holding '" + id +
                    "'; a non-recursive mutex self-deadlocks — release "
                    "before the call"});
          }
        }
      }
    };
    ScanFunctionLocks(toks, fn, locals,
                      self != nullptr ? self->requires_held
                                      : std::set<std::string>{},
                      hooks);
  }
  return findings;
}

// ---------------------------------------------------------------------------
// unannotated-mutex
// ---------------------------------------------------------------------------

std::vector<Finding> CheckUnannotatedMutex(const AnnotationIndex& index) {
  std::vector<Finding> findings;
  for (const auto& [cls, ca] : index.classes()) {
    if (!StartsWith(ca.file, "src/")) continue;
    if (ca.mutexes.empty() || !ca.guarded.empty()) continue;
    for (const MutexMember& mu : ca.mutexes) {
      findings.push_back(Finding{
          ca.file, mu.line, "unannotated-mutex",
          "class '" + cls + "' has a mutex member '" + mu.name +
              "' but no VSD_GUARDED_BY fields — the lock guards nothing "
              "the linter can check; annotate the fields it protects "
              "(common/annotations.h) or allow() with the reason it is "
              "not a data guard"});
    }
  }
  return findings;
}

// ---------------------------------------------------------------------------
// ref-invalidation
// ---------------------------------------------------------------------------

namespace {

enum class ContKind {
  kInvalidating,  ///< Contiguous/reallocating storage (vector, Tensor...).
  kStable,        ///< Node-based: refs survive insert/erase (map, list...).
  kUnknown,
};

/// Declared container kinds, by variable/member name, over a whole file.
std::map<std::string, ContKind> DeclaredContainers(
    const std::vector<Token>& toks) {
  static const std::set<std::string> kContig = {
      "vector", "deque", "string", "basic_string", "Tensor",
  };
  static const std::set<std::string> kNode = {
      "map",           "set",
      "multimap",      "multiset",
      "unordered_map", "unordered_set",
      "unordered_multimap", "unordered_multiset",
      "list",          "forward_list",
      "array",  // Fixed storage: never reallocates.
  };
  std::map<std::string, ContKind> kinds;
  for (size_t k = 0; k + 1 < toks.size(); ++k) {
    if (!IsIdent(toks[k])) continue;
    ContKind kind;
    if (kContig.count(toks[k].text)) kind = ContKind::kInvalidating;
    else if (kNode.count(toks[k].text)) kind = ContKind::kStable;
    else continue;
    size_t j = k + 1;
    if (j < toks.size() && toks[j].text == "<") j = SkipAngles(toks, j);
    const size_t name = NameAfterType(toks, j, toks.size());
    if (name < toks.size()) kinds[toks[name].text] = kind;
  }
  return kinds;
}

/// Member calls that (may) reallocate or invalidate into contiguous
/// storage. pop_back is deliberately absent: the dominant repo idiom is
/// DFS stacks where the popped frame is no longer referenced.
const std::set<std::string>& InvalidatingMutators() {
  static const std::set<std::string> kMut = {
      "push_back", "emplace_back", "insert", "emplace",  "erase",
      "resize",    "Resize",       "reserve", "Reserve", "clear",
      "Clear",     "Append",       "append",  "assign",  "shrink_to_fit",
  };
  return kMut;
}

/// The subset that still invalidates node-based containers.
const std::set<std::string>& NodeMutators() {
  static const std::set<std::string> kMut = {"clear", "assign"};
  return kMut;
}

struct RefBinding {
  std::string var;
  std::string recv;       ///< Receiver chain ("nodes_", "t.data").
  std::string kind_word;  ///< "reference" / "pointer" / "iterator".
  ContKind cont = ContKind::kUnknown;
  int line = 0;
  int depth = 0;
  size_t decl_token = 0;      ///< The declared name's own token index.
  bool is_ref = false;        ///< Writes through the name are uses.
  size_t mutated_at = 0;      ///< Token index past the mutating call, or 0.
  int mutated_line = 0;
  std::string mutator;
  bool active = true;
};

/// True when `r` is `b` or a receiver prefix of `b` ("t" mutates "t.data").
bool ChainCovers(const std::string& r, const std::string& b) {
  if (r == b) return true;
  return b.size() > r.size() && b.compare(0, r.size(), r) == 0 &&
         b[r.size()] == '.';
}

}  // namespace

std::vector<Finding> CheckRefInvalidation(const DataflowProgram& program) {
  // Pass A: member container chains each function mutates (for one level
  // of same-class call linking — the `Append(...)` in Conv2d::BuildGraph).
  const std::vector<DfFunction>& fns = program.functions();
  std::vector<std::set<std::string>> mutated_members(fns.size());
  for (size_t i = 0; i < fns.size(); ++i) {
    const std::vector<Token>& toks = program.tokens(fns[i].file);
    const std::set<std::string> locals =
        CollectBodyLocals(toks, fns[i].body_open, fns[i].body_close);
    for (size_t k = fns[i].body_open + 1;
         k + 1 < fns[i].body_close && k + 1 < toks.size(); ++k) {
      if (!IsIdent(toks[k]) || !InvalidatingMutators().count(toks[k].text)) {
        continue;
      }
      if (toks[k - 1].text != "." && toks[k - 1].text != "->") continue;
      if (toks[k + 1].text != "(") continue;
      const std::string chain = WalkBackChain(toks, k - 2);
      if (chain.empty()) continue;
      const std::string base = chain.substr(0, chain.find('.'));
      if (locals.count(base) || fns[i].params.count(base)) continue;
      mutated_members[i].insert(chain);
    }
  }
  std::map<const DfFunction*, size_t> index;
  for (size_t i = 0; i < fns.size(); ++i) index[&fns[i]] = i;

  static const std::set<std::string> kRefAccessors = {
      "back", "front", "at", "top", "data",
  };
  static const std::set<std::string> kIterAccessors = {
      "begin", "end", "cbegin", "cend", "rbegin", "rend", "data",
  };

  std::vector<Finding> findings;
  for (const DfFunction& fn : fns) {
    const std::vector<Token>& toks = program.tokens(fn.file);
    const std::map<std::string, ContKind> kinds = DeclaredContainers(toks);
    const std::set<std::string> locals =
        CollectBodyLocals(toks, fn.body_open, fn.body_close);
    std::vector<RefBinding> bindings;
    int depth = 0;

    auto kind_of = [&](const std::string& chain) {
      const std::string base = chain.substr(0, chain.find('.'));
      auto it = kinds.find(base);
      return it == kinds.end() ? ContKind::kUnknown : it->second;
    };
    auto add_binding = [&](const std::string& var, size_t decl_token,
                           size_t rhs_begin, size_t rhs_end,
                           const char* kind_word, bool is_ref, bool iter,
                           int line) {
      std::string recv;
      for (size_t m = rhs_begin; m + 2 < rhs_end && m + 2 < toks.size();
           ++m) {
        if (!iter && toks[m].text == "[" && m > rhs_begin) {
          recv = WalkBackChain(toks, m - 1);
          if (!recv.empty()) break;
        }
        if ((toks[m].text == "." || toks[m].text == "->") &&
            IsIdent(toks[m + 1]) && toks[m + 2].text == "(" &&
            (iter ? kIterAccessors : kRefAccessors)
                .count(toks[m + 1].text) &&
            m > rhs_begin) {
          recv = WalkBackChain(toks, m - 1);
          if (!recv.empty()) break;
        }
      }
      if (recv.empty()) return;
      RefBinding b;
      b.var = var;
      b.recv = recv;
      b.kind_word = kind_word;
      b.cont = kind_of(recv);
      b.line = line;
      b.depth = depth;
      b.decl_token = decl_token;
      b.is_ref = is_ref;
      bindings.push_back(std::move(b));
    };

    for (size_t k = fn.body_open + 1; k < fn.body_close && k < toks.size();
         ++k) {
      const std::string& t = toks[k].text;
      if (t == "{") {
        ++depth;
        continue;
      }
      if (t == "}") {
        --depth;
        for (RefBinding& b : bindings) {
          if (b.depth > depth) b.active = false;
        }
        continue;
      }

      // New binding declarations.
      if ((t == "&" || t == "&&" || t == "*" || t == "auto") &&
          k + 2 < toks.size() && IsIdent(toks[k + 1]) &&
          toks[k + 2].text == "=") {
        const std::string& prev = toks[k - 1].text;
        const bool type_before = IsIdent(toks[k - 1]) || prev == ">";
        const bool ref_like = (t == "&" || t == "&&") && type_before &&
                              prev != "return" && prev != "operator";
        const bool ptr_like = t == "*" && type_before && prev != "return";
        const bool auto_val = t == "auto" && prev != "&" && prev != "*";
        if (!ref_like && !ptr_like && !auto_val) continue;
        size_t rhs_end = k + 3;
        int pd = 0;
        while (rhs_end < fn.body_close && rhs_end < toks.size()) {
          const std::string& u = toks[rhs_end].text;
          if (pd == 0 && (u == ";" || u == "{")) break;
          if (u == "(" || u == "[") ++pd;
          else if (u == ")" || u == "]") --pd;
          ++rhs_end;
        }
        if (ref_like) {
          add_binding(toks[k + 1].text, k + 1, k + 3, rhs_end, "reference",
                      true, false, toks[k + 1].line);
        } else if (ptr_like) {
          add_binding(toks[k + 1].text, k + 1, k + 3, rhs_end, "pointer",
                      false, false, toks[k + 1].line);
        } else {
          add_binding(toks[k + 1].text, k + 1, k + 3, rhs_end, "iterator",
                      false, true, toks[k + 1].line);
        }
        continue;
      }

      if (!IsIdent(toks[k])) continue;

      // Direct mutating member call on a tracked receiver.
      if (InvalidatingMutators().count(t) && k >= 2 &&
          (toks[k - 1].text == "." || toks[k - 1].text == "->") &&
          k + 1 < toks.size() && toks[k + 1].text == "(") {
        const std::string recv = WalkBackChain(toks, k - 2);
        if (!recv.empty()) {
          const size_t close = MatchForward(toks, k + 1, "(", ")");
          for (RefBinding& b : bindings) {
            if (!b.active || b.mutated_at != 0) continue;
            if (!ChainCovers(recv, b.recv)) continue;
            if (b.cont == ContKind::kStable && !NodeMutators().count(t)) {
              continue;
            }
            b.mutated_at = close;
            b.mutated_line = toks[k].line;
            b.mutator = recv + "." + t + "()";
          }
        }
        continue;
      }

      // Same-class call that mutates a member container the binding points
      // into (the PR-7 `Append` shape), one level deep.
      if (k + 1 < toks.size() && toks[k + 1].text == "(" &&
          !HeadKeywords().count(t) && !fn.qualifier.empty()) {
        const std::string& prev = toks[k - 1].text;
        const bool via_this =
            prev == "->" && k >= 2 && toks[k - 2].text == "this";
        const bool bare = prev != "." && prev != "->" && prev != "::";
        if (bare || via_this) {
          for (const DfFunction* callee : program.Resolve(fn, t)) {
            if (callee->qualifier != fn.qualifier) continue;
            const size_t close = MatchForward(toks, k + 1, "(", ")");
            for (const std::string& chain :
                 mutated_members[index[callee]]) {
              for (RefBinding& b : bindings) {
                if (!b.active || b.mutated_at != 0) continue;
                if (!ChainCovers(chain, b.recv)) continue;
                const std::string base = b.recv.substr(0, b.recv.find('.'));
                if (locals.count(base) || fn.params.count(base)) continue;
                if (b.cont == ContKind::kStable) continue;
                b.mutated_at = close;
                b.mutated_line = toks[k].line;
                b.mutator = t + "() [mutates " + chain + "]";
              }
            }
          }
        }
      }

      // Use of a bound name after its container mutated.
      for (RefBinding& b : bindings) {
        if (!b.active || b.var != t || k == b.decl_token) continue;
        const std::string& prev = toks[k - 1].text;
        if (prev == "." || prev == "->" || prev == "::") continue;
        const bool rebind = !b.is_ref && k + 1 < toks.size() &&
                            toks[k + 1].text == "=" && prev != "*";
        if (rebind) {
          b.active = false;
          continue;
        }
        if (b.mutated_at == 0 || k <= b.mutated_at) continue;
        findings.push_back(Finding{
            fn.file, toks[k].line, "ref-invalidation",
            "'" + b.var + "' (" + b.kind_word + " into '" + b.recv +
                "', bound at line " + std::to_string(b.line) +
                ") is used after '" + b.mutator + "' at line " +
                std::to_string(b.mutated_line) +
                " may reallocate or invalidate it; re-take it after the "
                "mutation or reserve capacity up front (the "
                "Conv2d::BuildGraph use-after-free shape)"});
        b.active = false;
      }
    }
  }
  return findings;
}

}  // namespace vsd::lint
