// Pass 1 — include-graph layering.
//
// Parses every #include "..." edge between project files and enforces the
// layer DAG: common → obs → tensor → nn → models → data → prune → graph →
// rl → fl core → {fl/store, fl/async, fl/churn} → {algorithm, compression,
// local_only, runner} → core, with tools/bench/tests/examples
// free to include anything. An includer must sit at or above its includee's
// layer; a downward include (lower layer reaching up) or any cycle is
// reported with the offending edge path printed. Grandfathered edges live
// in the baseline file, not in the rank table.
#include <algorithm>
#include <filesystem>
#include <map>

#include "analysis/analysis.hpp"

namespace spatl::analysis {
namespace {

struct Layer {
  std::string name;
  int rank = 13;
};

Layer layer_of(const std::string& rel) {
  // Ordered prefix rules, most specific first. Anything unmatched (tools,
  // tests, bench, examples, new src/ trees) ranks on top and is
  // unconstrained as an includer.
  static const struct Rule {
    const char* prefix;
    const char* name;
    int rank;
  } kRules[] = {
      {"src/common/", "common", 0},
      {"src/obs/", "obs", 1},
      {"src/tensor/", "tensor", 2},
      {"src/nn/", "nn", 3},
      {"src/models/", "models", 4},
      {"src/data/", "data", 5},
      {"src/prune/", "prune", 6},
      {"src/graph/", "graph", 7},
      {"src/rl/", "rl", 8},
      {"src/fl/store/", "fl-store", 10},
      {"src/fl/async", "fl-async", 10},
      {"src/fl/churn", "fl-churn", 10},
      {"src/fl/algorithm", "fl-algorithms", 11},
      {"src/fl/compression", "fl-algorithms", 11},
      {"src/fl/local_only", "fl-algorithms", 11},
      {"src/fl/runner", "fl-runner", 11},
      {"src/fl/", "fl", 9},
      {"src/core/", "core", 12},
  };
  for (const auto& rule : kRules) {
    if (rel.rfind(rule.prefix, 0) == 0) return {rule.name, rule.rank};
  }
  return {"top", 13};
}

struct IncludeEdge {
  std::size_t to = 0;   // index of the included project file
  std::size_t pos = 0;  // byte position of the directive in the includer
  std::string path;     // the quoted path as written
};

/// The quoted includes of `f`, resolved against the project file set.
/// Angle-bracket includes carry no string literal and are skipped, which is
/// exactly right: system headers are outside the layer contract.
std::vector<IncludeEdge> edges_of(
    const SourceFile& f, const std::map<std::string, std::size_t>& index) {
  namespace fs = std::filesystem;
  std::vector<IncludeEdge> edges;
  for (std::size_t p : find_token(f.text.code, "include")) {
    std::size_t q = p;
    while (q > 0 && (f.text.code[q - 1] == ' ' || f.text.code[q - 1] == '\t')) {
      --q;
    }
    if (q == 0 || f.text.code[q - 1] != '#') continue;
    const std::size_t eol = f.text.code.find('\n', p);
    for (const auto& lit : f.text.strings) {
      if (lit.pos < p || lit.pos >= eol) continue;
      // Candidate resolutions: the -Isrc/-Itools roots, then
      // includer-relative.
      const fs::path self(f.rel);
      const fs::path candidates[] = {fs::path("src") / lit.text,
                                     fs::path("tools") / lit.text,
                                     self.parent_path() / lit.text};
      for (const fs::path& cand : candidates) {
        const auto it = index.find(cand.lexically_normal().generic_string());
        if (it != index.end()) {
          edges.push_back({it->second, p, lit.text});
          break;
        }
      }
      break;  // only the first literal on the line is the include path
    }
  }
  return edges;
}

struct CycleFinder {
  const Project& project;
  const std::vector<std::vector<IncludeEdge>>& adj;
  std::vector<Finding>* out;
  std::vector<int> color;           // 0 white, 1 on stack, 2 done
  std::vector<std::size_t> stack;   // current DFS path (file indices)
  std::set<std::vector<std::string>> reported;  // canonicalized cycles

  void visit(std::size_t u) {
    color[u] = 1;
    stack.push_back(u);
    for (const auto& e : adj[u]) {
      if (color[e.to] == 0) {
        visit(e.to);
      } else if (color[e.to] == 1) {
        report(u, e);
      }
    }
    stack.pop_back();
    color[u] = 2;
  }

  void report(std::size_t from, const IncludeEdge& back) {
    const auto begin =
        std::find(stack.begin(), stack.end(), back.to);
    std::vector<std::string> cycle;
    for (auto it = begin; it != stack.end(); ++it) {
      cycle.push_back(project.files[*it].rel);
    }
    // Canonicalize: rotate the smallest member to the front so one cycle
    // reports once no matter where the DFS entered it.
    auto canon = cycle;
    std::rotate(canon.begin(),
                std::min_element(canon.begin(), canon.end()), canon.end());
    if (!reported.insert(canon).second) return;
    std::string path;
    for (const auto& rel : cycle) path += rel + " -> ";
    path += cycle.front();
    emit(project.files[from], out, "include-cycle", back.pos,
         "include cycle: " + path +
             " — break the loop with a forward declaration or by moving "
             "the shared type down a layer");
  }
};

}  // namespace

void run_include_graph(const Project& project, std::vector<Finding>* out) {
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < project.files.size(); ++i) {
    index[project.files[i].rel] = i;
  }

  std::vector<std::vector<IncludeEdge>> adj(project.files.size());
  for (std::size_t i = 0; i < project.files.size(); ++i) {
    const SourceFile& f = project.files[i];
    adj[i] = edges_of(f, index);
    const Layer from = layer_of(f.rel);
    for (const auto& e : adj[i]) {
      const Layer to = layer_of(project.files[e.to].rel);
      if (from.rank < to.rank) {
        emit(f, out, "include-layer", e.pos,
             "layer '" + from.name + "' file includes '" + to.name +
                 "' header \"" + e.path + "\" (" + f.rel + " -> " +
                 project.files[e.to].rel +
                 ") — the layer DAG places " + to.name + " above " +
                 from.name + "; invert the dependency or move the shared "
                 "piece down");
      }
    }
  }

  CycleFinder finder{project, adj, out, {}, {}, {}};
  finder.color.assign(project.files.size(), 0);
  for (std::size_t i = 0; i < project.files.size(); ++i) {
    if (finder.color[i] == 0) finder.visit(i);
  }
}

}  // namespace spatl::analysis
