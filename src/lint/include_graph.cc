#include "lint/include_graph.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "lint/tokens.h"

namespace vsd::lint {
namespace {

/// Prefix -> layer. Order matters only for readability; prefixes are
/// disjoint. Kept in one table so the checker, the DOT dump, and the docs
/// diagram can never drift apart.
struct LayerEntry {
  const char* prefix;
  int layer;
};
constexpr LayerEntry kLayerTable[] = {
    {"src/common/", 0},
    {"src/tensor/", 1},    {"src/img/", 1},     {"src/text/", 1},
    {"src/data/", 2},      {"src/nn/", 2},      {"src/face/", 2},
    {"src/vlm/", 3},
    {"src/cot/", 4},
    {"src/baselines/", 5}, {"src/explain/", 5},
    {"src/core/", 6},
    {"src/serve/", 7},
    {"src/lint/", 8},      {"bench/", 8},       {"tools/", 8},
    {"examples/", 8},
};

const std::string kLayerNames[] = {
    "common",           "tensor/img/text", "data/nn/face", "vlm",
    "cot",              "baselines/explain", "core",       "serve",
    "lint/bench/tools",
};

/// "src/cot/pipeline.h" -> "src/cot"; "bench/harness.h" -> "bench".
std::string ModuleOf(const std::string& path) {
  size_t first = path.find('/');
  if (first == std::string::npos) return path;
  if (path.compare(0, first, "src") == 0) {
    size_t second = path.find('/', first + 1);
    if (second == std::string::npos) return path;
    return path.substr(0, second);
  }
  return path.substr(0, first);
}

std::string DirOf(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

}  // namespace

int LayerOf(const std::string& path) {
  for (const LayerEntry& e : kLayerTable) {
    if (StartsWith(path, e.prefix)) return e.layer;
  }
  return -1;
}

const std::string& LayerName(int layer) {
  return kLayerNames[layer];
}

void IncludeGraphBuilder::AddFile(const std::string& path,
                                  const LexResult& lex) {
  files_.push_back(path);
  for (const PpDirective& d : lex.directives) {
    if (!StartsWith(d.text, "#include")) continue;
    size_t open = d.text.find('"', 8);
    if (open == std::string::npos) continue;  // System or macro include.
    size_t close = d.text.find('"', open + 1);
    if (close == std::string::npos) continue;
    includes_.push_back(
        RawInclude{path, d.text.substr(open + 1, close - open - 1), d.line});
  }
}

IncludeGraph IncludeGraphBuilder::Build() const {
  IncludeGraph graph;
  graph.files = files_;
  std::sort(graph.files.begin(), graph.files.end());
  const std::set<std::string> known(graph.files.begin(), graph.files.end());

  for (const RawInclude& inc : includes_) {
    // Quoted-include resolution order, mirroring the build's include dirs.
    const std::string candidates[] = {
        "src/" + inc.target,
        inc.target,
        DirOf(inc.from) + "/" + inc.target,
    };
    for (const std::string& c : candidates) {
      if (known.count(c)) {
        graph.edges.push_back(IncludeEdge{inc.from, c, inc.line});
        break;
      }
    }
  }
  std::stable_sort(graph.edges.begin(), graph.edges.end(),
                   [](const IncludeEdge& a, const IncludeEdge& b) {
                     return a.from != b.from ? a.from < b.from
                                             : a.line < b.line;
                   });
  return graph;
}

std::vector<Finding> CheckLayering(const IncludeGraph& graph) {
  std::vector<Finding> findings;
  for (const IncludeEdge& e : graph.edges) {
    const int from_layer = LayerOf(e.from);
    const int to_layer = LayerOf(e.to);
    if (from_layer < 0 || to_layer < 0 || to_layer <= from_layer) continue;
    findings.push_back(Finding{
        e.from, e.line, "layering",
        "'" + e.to + "' (layer " + std::to_string(to_layer) + ": " +
            LayerName(to_layer) + ") is above this file's layer " +
            std::to_string(from_layer) + " (" + LayerName(from_layer) +
            "); includes must point toward common — move the shared type "
            "down a layer or invert the dependency"});
  }
  return findings;
}

std::vector<Finding> CheckCycles(const IncludeGraph& graph) {
  // Adjacency in deterministic order.
  std::map<std::string, std::vector<const IncludeEdge*>> adj;
  for (const IncludeEdge& e : graph.edges) adj[e.from].push_back(&e);

  enum class Color { kWhite, kGray, kBlack };
  std::map<std::string, Color> color;
  for (const std::string& f : graph.files) color[f] = Color::kWhite;

  std::vector<Finding> findings;
  std::set<std::string> reported;  // Canonical cycle keys, reported once.

  // Iterative DFS; `path` mirrors the gray stack for cycle extraction.
  struct Frame {
    std::string node;
    size_t next_edge = 0;
  };
  for (const std::string& start : graph.files) {
    if (color[start] != Color::kWhite) continue;
    std::vector<Frame> stack{{start, 0}};
    std::vector<std::string> path{start};
    color[start] = Color::kGray;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto& edges = adj[frame.node];
      if (frame.next_edge >= edges.size()) {
        color[frame.node] = Color::kBlack;
        stack.pop_back();
        path.pop_back();
        continue;
      }
      const IncludeEdge* e = edges[frame.next_edge++];
      switch (color[e->to]) {
        case Color::kWhite:
          color[e->to] = Color::kGray;
          stack.push_back(Frame{e->to, 0});
          path.push_back(e->to);
          break;
        case Color::kGray: {
          // Cycle: path from e->to to the top, closed by this edge.
          auto begin =
              std::find(path.begin(), path.end(), e->to);
          std::vector<std::string> cycle(begin, path.end());
          // Canonical key: rotate so the smallest node leads.
          auto smallest = std::min_element(cycle.begin(), cycle.end());
          std::rotate(cycle.begin(), smallest, cycle.end());
          std::string key;
          std::string pretty;
          for (const std::string& node : cycle) {
            key += node + "|";
            pretty += node + " -> ";
          }
          pretty += cycle.front();
          if (reported.insert(key).second) {
            findings.push_back(Finding{
                e->from, e->line, "include-cycle",
                "include cycle: " + pretty +
                    "; no layering can order these files — break the cycle "
                    "with a forward declaration or by splitting the header"});
          }
          break;
        }
        case Color::kBlack:
          break;
      }
    }
  }
  return findings;
}

std::string DumpDot(const IncludeGraph& graph) {
  std::set<std::string> modules;
  for (const std::string& f : graph.files) modules.insert(ModuleOf(f));
  std::map<std::pair<std::string, std::string>, int> edge_counts;
  for (const IncludeEdge& e : graph.edges) {
    const std::string from = ModuleOf(e.from);
    const std::string to = ModuleOf(e.to);
    if (from != to) ++edge_counts[{from, to}];
  }

  std::ostringstream out;
  out << "digraph vsd_includes {\n";
  out << "  // Generated by `vsd_lint --dump-graph`. Edges point at the\n";
  out << "  // included (lower-layer) module; `layer` attrs match\n";
  out << "  // lint::LayerOf.\n";
  out << "  rankdir=BT;\n";
  out << "  node [shape=box];\n";
  std::map<int, std::vector<std::string>> by_layer;
  for (const std::string& m : modules) {
    // A representative path inside the module resolves its layer.
    const int layer = LayerOf(m + "/x.h");
    out << "  \"" << m << "\" [layer=" << layer;
    if (layer >= 0) out << ", label=\"" << m << "\\nL" << layer << "\"";
    out << "];\n";
    by_layer[layer].push_back(m);
  }
  for (const auto& [layer, members] : by_layer) {
    if (layer < 0 || members.size() < 2) continue;
    out << "  { rank=same;";
    for (const std::string& m : members) out << " \"" << m << "\";";
    out << " }\n";
  }
  for (const auto& [pair, count] : edge_counts) {
    out << "  \"" << pair.first << "\" -> \"" << pair.second << "\" [label=\""
        << count << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

IncludeGraph BuildIncludeGraphFromTree(
    const std::string& root, const std::vector<std::string>& subdirs) {
  IncludeGraphBuilder builder;
  for (const std::string& rel : ListSourceFiles(root, subdirs)) {
    std::string content;
    if (!ReadFileToString(root, rel, &content)) continue;
    builder.AddFile(rel, Lex(content));
  }
  return builder.Build();
}

}  // namespace vsd::lint
