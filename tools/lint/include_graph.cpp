#include "include_graph.h"

#include <algorithm>
#include <map>
#include <set>

namespace rit::lint::internal {
namespace {

struct ModuleLayer {
  const char* module;
  int layer;
};

// The declared layering DAG (see the header comment and
// docs/static_analysis.md). Order within a tier is alphabetical and
// carries no meaning.
const ModuleLayer kLayers[] = {
    {"common", 0},   {"rng", 0},                        //
    {"graph", 1},    {"tree", 1},                       //
    {"core", 2},     {"stats", 2},                      //
    {"obs", 3},      {"sim", 3},                        //
    {"attack", 4},   {"baselines", 4},                  //
    {"extensions", 4}, {"platform", 4}, {"testkit", 4},  //
    {"bench", 5},    {"cli", 5},      {"examples", 5},  //
    {"tests", 5},    {"tools", 5},
};

// Declared cross-tier edges: instrumentation via the obs macro facade,
// which compiles away under RIT_OBS_ENABLED=OFF and depends only on
// common/stats — the graph stays a DAG.
const std::pair<const char*, const char*> kLayeringExceptions[] = {
    {"tree", "obs"},
    {"core", "obs"},
};

// Top-level directories that are modules of their own (everything in them
// sits in the top tier and may include anything).
const char* const kTopLevelModules[] = {"bench", "tests", "tools",
                                        "examples"};

}  // namespace

std::string module_of(const std::string& path) {
  if (path.compare(0, 4, "src/") == 0) {
    const std::size_t slash = path.find('/', 4);
    if (slash == std::string::npos) return {};
    const std::string mod = path.substr(4, slash - 4);
    return layer_of(mod) >= 0 ? mod : std::string{};
  }
  for (const char* top : kTopLevelModules) {
    const std::string prefix = std::string(top) + "/";
    if (path.compare(0, prefix.size(), prefix) == 0) return top;
  }
  return {};
}

int layer_of(const std::string& module) {
  for (const ModuleLayer& ml : kLayers) {
    if (module == ml.module) return ml.layer;
  }
  return -1;
}

bool layering_exception(const std::string& from, const std::string& to) {
  for (const auto& [f, t] : kLayeringExceptions) {
    if (from == f && to == t) return true;
  }
  return false;
}

std::string include_target_module(const std::string& target) {
  const std::size_t slash = target.find('/');
  if (slash == std::string::npos) return {};
  const std::string head = target.substr(0, slash);
  // Only src/ modules are addressable by a bare "module/header.h" include
  // (every library sets src/ as its include root); bench/tests/tools
  // headers are included relative to their own directory.
  if (layer_of(head) < 0) return {};
  for (const char* top : kTopLevelModules) {
    if (head == top) return {};
  }
  return head;
}

IncludeGraph build_include_graph(const std::vector<Prepped>& prepped) {
  IncludeGraph graph;
  graph.files.reserve(prepped.size());
  std::map<std::string, int> index_of;
  for (const Prepped& p : prepped) {
    index_of[p.src->path] = static_cast<int>(graph.files.size());
    graph.files.push_back(&p);
  }
  graph.edges.resize(graph.files.size());

  auto dirname = [](const std::string& path) {
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string{}
                                      : path.substr(0, slash);
  };

  for (std::size_t i = 0; i < graph.files.size(); ++i) {
    const Prepped& p = *graph.files[i];
    const std::string dir = dirname(p.src->path);
    for (const IncludeDirective& inc : p.includes) {
      // Resolution mirrors the build: the includer's own directory first
      // (tools/lint/ and bench/ include same-directory headers bare),
      // then src/ (every library's include root), then the repo root.
      const std::string candidates[] = {
          dir.empty() ? inc.target : dir + "/" + inc.target,
          "src/" + inc.target,
          inc.target,
      };
      for (const std::string& cand : candidates) {
        auto it = index_of.find(cand);
        if (it != index_of.end()) {
          graph.edges[i].emplace_back(inc.line, it->second);
          break;
        }
      }
    }
  }
  return graph;
}

// ---------------------------------------------------------------------------
// include-cycle: Tarjan SCC, iterative so deep include chains cannot
// overflow the stack.
// ---------------------------------------------------------------------------

std::vector<std::vector<int>> include_cycles(const IncludeGraph& graph) {
  const int n = static_cast<int>(graph.files.size());
  std::vector<int> index(n, -1), lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<int> stack;
  std::vector<std::vector<int>> sccs;
  int next_index = 0;

  struct Frame {
    int node;
    std::size_t edge;
  };
  for (int root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    std::vector<Frame> call_stack{{root, 0}};
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const int v = frame.node;
      if (frame.edge < graph.edges[v].size()) {
        const int w = graph.edges[v][frame.edge].second;
        ++frame.edge;
        if (index[w] == -1) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          call_stack.push_back(Frame{w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        if (lowlink[v] == index[v]) {
          std::vector<int> scc;
          int w;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc.push_back(w);
          } while (w != v);
          bool self_loop = false;
          for (const auto& [line, to] : graph.edges[v]) {
            (void)line;
            if (to == v) self_loop = true;
          }
          if (scc.size() > 1 || self_loop) {
            std::sort(scc.begin(), scc.end(), [&](int a, int b) {
              return graph.files[a]->src->path < graph.files[b]->src->path;
            });
            sccs.push_back(std::move(scc));
          }
        }
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const int parent = call_stack.back().node;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
      }
    }
  }
  std::sort(sccs.begin(), sccs.end(),
            [&](const std::vector<int>& a, const std::vector<int>& b) {
              return graph.files[a[0]]->src->path <
                     graph.files[b[0]]->src->path;
            });
  return sccs;
}

// ---------------------------------------------------------------------------
// layer-violation
// ---------------------------------------------------------------------------

void run_layering_rule(const std::vector<Prepped>& prepped,
                       std::vector<Finding>* out) {
  static const char* kId = "layer-violation";
  for (const Prepped& p : prepped) {
    if (p.file_class != FileClass::kCpp) continue;
    const std::string from = module_of(p.src->path);
    const int from_layer = layer_of(from);
    if (from_layer < 0) continue;
    for (const IncludeDirective& inc : p.includes) {
      const std::string to = include_target_module(inc.target);
      if (to.empty() || to == from) continue;
      const int to_layer = layer_of(to);
      if (to_layer <= from_layer) continue;
      if (layering_exception(from, to)) continue;
      emit(p, inc.line, kId,
           "module '" + from + "' (tier " + std::to_string(from_layer) +
               ") includes \"" + inc.target + "\" from module '" + to +
               "' (tier " + std::to_string(to_layer) +
               "), which sits above it in the declared layering DAG "
               "(common/rng -> graph/tree -> core/stats -> sim/obs -> "
               "attack/baselines/extensions/platform -> cli/bench/tools); "
               "invert the dependency or move the shared code down",
           Severity::kError, out);
    }
  }
}

// ---------------------------------------------------------------------------
// include-cycle
// ---------------------------------------------------------------------------

void run_include_cycle_rule(const IncludeGraph& graph,
                            std::vector<Finding>* out) {
  static const char* kId = "include-cycle";
  for (const std::vector<int>& scc : include_cycles(graph)) {
    const std::set<int> members(scc.begin(), scc.end());
    // Anchor the finding at the smallest path's first include that stays
    // inside the component; list the whole component in the message.
    const int anchor = scc[0];
    std::size_t line = 1;
    for (const auto& [l, to] : graph.edges[anchor]) {
      if (members.count(to) != 0) {
        line = l;
        break;
      }
    }
    std::string cycle;
    for (const int v : scc) {
      if (!cycle.empty()) cycle += " -> ";
      cycle += graph.files[v]->src->path;
    }
    cycle += " -> " + graph.files[anchor]->src->path;
    emit(*graph.files[anchor], line, kId,
         "#include cycle: " + cycle +
             "; headers in a cycle cannot be compiled stand-alone and the "
             "module boundary between them is fiction — break the cycle "
             "with a forward declaration or by moving the shared type down "
             "a layer",
         Severity::kError, out);
  }
}

// ---------------------------------------------------------------------------
// unused-include (IWYU-lite, report-only)
// ---------------------------------------------------------------------------

namespace {

// Adds the names one stripped line declares or calls: NAME after a
// `class`/`struct`/`enum`/`union` keyword (for `enum class E` that is
// `class`, which is harmless over-collection), NAME in `using NAME =`, and
// every NAME directly followed by `(` that is not a keyword.
void line_markers(const std::string& line, std::set<std::string>* markers) {
  static const std::set<std::string> kTypeKeywords = {"class", "struct",
                                                      "enum", "union"};
  static const std::set<std::string> kNoise = {
      "if",     "for",    "while",  "switch",   "return", "sizeof",
      "catch",  "defined", "alignof", "decltype", "static_assert",
      "assert", "class",  "struct", "enum",     "union",  "explicit",
      "operator"};
  for (std::size_t pos = find_word(line, 0); pos < line.size();
       pos = find_word(line, pos)) {
    const std::size_t end = word_end(line, pos);
    const std::string word = line.substr(pos, end - pos);
    pos = end;
    if (kTypeKeywords.count(word) == 0 || end == line.size() ||
        !is_space(line[end])) {
      continue;
    }
    const std::size_t name = skip_spaces(line, end);
    const std::size_t name_end = word_end(line, name);
    if (name_end == name) continue;
    markers->insert(line.substr(name, name_end - name));
    pos = name_end;
  }
  for (std::size_t pos = find_word(line, 0); pos < line.size();
       pos = find_word(line, pos)) {
    const std::size_t end = word_end(line, pos);
    const bool is_using = line.compare(pos, end - pos, "using") == 0;
    pos = end;
    if (!is_using || end == line.size() || !is_space(line[end])) continue;
    const std::size_t name = skip_spaces(line, end);
    const std::size_t name_end = word_end(line, name);
    const std::size_t eq = skip_spaces(line, name_end);
    if (name_end == name || !has_at(line, eq, "=")) continue;
    markers->insert(line.substr(name, name_end - name));
    pos = eq + 1;
  }
  if (line.find("#include") != std::string::npos) return;
  for (std::size_t pos = find_word(line, 0); pos < line.size();
       pos = find_word(line, pos)) {
    const std::size_t end = word_end(line, pos);
    const std::string name = line.substr(pos, end - pos);
    pos = skip_spaces(line, end);
    if (has_at(line, pos, "(") && kNoise.count(name) == 0) {
      markers->insert(name);
    }
  }
}

// NAME of a raw line shaped `# define NAME...`, or "".
std::string defined_macro(const std::string& raw) {
  std::size_t i = skip_spaces(raw, 0);
  if (!has_at(raw, i, "#")) return "";
  i = skip_spaces(raw, i + 1);
  if (!has_at(raw, i, "define") || i + 6 == raw.size() ||
      !is_space(raw[i + 6])) {
    return "";
  }
  i = skip_spaces(raw, i + 6);
  return raw.substr(i, word_end(raw, i) - i);
}

// Names a header "exports", approximated lexically: type names, using
// aliases, macro names, and anything that syntactically looks like a
// function/constructor name. Over-collection is fine — the check only
// needs one exported name to be mentioned by the includer — and markers
// are collected transitively so umbrella headers (graph/graph.h) credit
// their re-exports.
void collect_markers(const IncludeGraph& graph, int node,
                     std::vector<std::set<std::string>>* memo,
                     std::vector<int>* state) {
  if ((*state)[node] != 0) return;  // visiting or done: cycle-safe
  (*state)[node] = 1;
  std::set<std::string>& markers = (*memo)[node];
  const Prepped& p = *graph.files[node];

  for (const std::string& line : p.lines) line_markers(line, &markers);
  // Macro names come from the raw content: stripping erases neither
  // `#define` nor the name, but this is cheap insurance against future
  // strip changes and picks up conditional definitions too.
  for (const std::string& raw : split_lines(p.src->content)) {
    const std::string name = defined_macro(raw);
    if (!name.empty()) markers.insert(name);
  }

  for (const auto& [line, to] : graph.edges[node]) {
    (void)line;
    collect_markers(graph, to, memo, state);
    markers.insert((*memo)[to].begin(), (*memo)[to].end());
  }
  (*state)[node] = 2;
}

std::string stem_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::size_t from = slash == std::string::npos ? 0 : slash + 1;
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || dot < from) return path.substr(from);
  return path.substr(from, dot - from);
}

}  // namespace

void run_unused_include_rule(const IncludeGraph& graph,
                             std::vector<Finding>* out) {
  static const char* kId = "unused-include";
  std::vector<std::set<std::string>> markers(graph.files.size());
  std::vector<int> state(graph.files.size(), 0);

  for (std::size_t i = 0; i < graph.files.size(); ++i) {
    const Prepped& p = *graph.files[i];
    // Only .cpp includers: headers legitimately include-to-re-export
    // (umbrella headers), which a lexical heuristic cannot tell from an
    // unused include.
    const std::string& path = p.src->path;
    const bool is_cpp_tu =
        path.size() > 4 && (path.compare(path.size() - 4, 4, ".cpp") == 0 ||
                            path.compare(path.size() - 3, 3, ".cc") == 0);
    if (!is_cpp_tu || graph.edges[i].empty()) continue;

    for (const auto& [line, to] : graph.edges[i]) {
      const Prepped& target = *graph.files[to];
      // foo.cpp -> foo.h is the definition edge, never "unused".
      if (stem_of(target.src->path) == stem_of(path)) continue;
      collect_markers(graph, to, &markers, &state);
      const std::set<std::string>& exported = markers[to];
      if (exported.empty()) continue;
      bool used = false;
      for (std::size_t ln = 0; ln < p.lines.size() && !used; ++ln) {
        const std::string& text = p.lines[ln];
        if (text.find("#include") != std::string::npos) continue;
        for (const std::string& name : exported) {
          if (text.size() >= name.size() && line_has_token(text, name)) {
            used = true;
            break;
          }
        }
      }
      if (!used) {
        emit(p, line, kId,
             "no name exported by \"" + target.src->path +
                 "\" appears in this file (IWYU-lite heuristic); drop the "
                 "include or annotate why it is load-bearing",
             Severity::kNote, out);
      }
    }
  }
}

}  // namespace rit::lint::internal
