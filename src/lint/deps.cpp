// Architecture-conformance passes: include-graph layering and the
// sim-purity ledger. See deps.hpp for the pass contracts and
// DESIGN.md §8 for the module-layer table these passes enforce.
#include "lint/deps.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <set>
#include <sstream>
#include <utility>

namespace vsgc::lint {

namespace {

using Toks = std::vector<Token>;

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool is_punct(const Toks& t, std::size_t i, char c) {
  return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text[0] == c;
}

}  // namespace

// --- include extraction -----------------------------------------------------

std::vector<RawInclude> extract_includes(const std::vector<Token>& toks) {
  std::vector<RawInclude> out;
  for (const Token& t : toks) {
    if (t.kind != TokKind::kPreprocessor) continue;
    // Directive text starts with '#'; continuations are already folded.
    std::size_t p = 1;
    while (p < t.text.size() && (t.text[p] == ' ' || t.text[p] == '\t')) ++p;
    if (t.text.compare(p, 7, "include") != 0) continue;
    const std::size_t q = t.text.find_first_of("\"<", p + 7);
    if (q == std::string::npos) continue;
    const char closer = t.text[q] == '"' ? '"' : '>';
    const std::size_t e = t.text.find(closer, q + 1);
    if (e == std::string::npos) continue;
    out.push_back({t.line, t.text.substr(q + 1, e - q - 1), closer == '>'});
  }
  return out;
}

// --- sim-purity scan --------------------------------------------------------

bool in_sim_purity_scope(std::string_view rel_path) {
  return starts_with(rel_path, "src/transport/") ||
         starts_with(rel_path, "src/gcs/") ||
         starts_with(rel_path, "src/membership/");
}

std::vector<SimUse> find_sim_uses(const std::vector<Token>& toks,
                                  const std::vector<RawInclude>& includes) {
  // sim/time.hpp is the sanctioned surface (Time/Duration/TimerHandle value
  // types); every other sim/ header pulls in the event kernel.
  static constexpr std::array<std::string_view, 4> kSimTypes = {
      "Simulator", "TimerHandle", "NondetSource", "FailureInjector"};
  static constexpr std::array<std::string_view, 4> kSchedCalls = {
      "schedule", "schedule_at", "schedule_in", "schedule_after"};

  std::vector<SimUse> out;
  std::set<std::pair<std::string, std::string>> seen;
  auto add = [&](int line, const char* kind, const std::string& detail) {
    if (seen.insert({kind, detail}).second) out.push_back({line, kind, detail});
  };

  for (const RawInclude& inc : includes) {
    if (!inc.angled && starts_with(inc.spec, "sim/") &&
        inc.spec != "sim/time.hpp") {
      add(inc.line, "include", inc.spec);
    }
  }
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    for (std::string_view s : kSimTypes) {
      if (toks[i].text == s) add(toks[i].line, "symbol", toks[i].text);
    }
    for (std::string_view s : kSchedCalls) {
      if (toks[i].text == s && is_punct(toks, i + 1, '(')) {
        add(toks[i].line, "symbol", toks[i].text);
      }
    }
  }
  return out;
}

// --- module layer table -----------------------------------------------------

int module_rank(std::string_view module) {
  static constexpr std::array<std::pair<std::string_view, int>, 9> kRanks = {{
      {"util", 0},
      {"sim", 10},
      {"net", 20},
      {"transport", 30},
      {"membership", 40},
      {"gcs", 50},
      {"baseline", 60},
      {"app", 70},
      {"mc", 80},
  }};
  for (const auto& [name, rank] : kRanks) {
    if (module == name) return rank;
  }
  return -1;
}

std::string module_of(std::string_view rel_path) {
  if (starts_with(rel_path, "src/")) {
    const std::string_view rest = rel_path.substr(4);
    const std::size_t slash = rest.find('/');
    if (slash != std::string_view::npos) {
      return std::string(rest.substr(0, slash));
    }
    return "";
  }
  for (std::string_view top : {"tools", "tests", "bench"}) {
    if (starts_with(rel_path, std::string(top) + "/")) {
      return std::string(top);
    }
  }
  return "";
}

namespace {

bool is_harness(std::string_view m) {
  return m == "tools" || m == "tests" || m == "bench";
}

bool among(std::string_view m, std::initializer_list<std::string_view> set) {
  for (std::string_view s : set) {
    if (m == s) return true;
  }
  return false;
}

/// nullptr = the edge is allowed; otherwise the reason it is not.
const char* edge_violation(std::string_view mf, std::string_view mg) {
  if (mf.empty() || mg.empty()) return nullptr;  // unknown dirs: no verdict
  if (mf == mg) return nullptr;
  if (mg == "util") return nullptr;
  if (is_harness(mf)) {
    if (is_harness(mg)) {
      return "harness trees (tools/tests/bench) stay independent of each "
             "other";
    }
    return nullptr;  // harness code may include any src module
  }
  if (is_harness(mg)) {
    return "src/ code must never depend on harness code (tools/tests/bench)";
  }
  if (mf == "spec") {
    if (among(mg, {"sim", "net", "transport", "membership", "gcs"})) {
      return nullptr;
    }
    return "spec observes the protocol stack; it may include only "
           "util/sim/net/transport/membership/gcs";
  }
  if (mf == "obs") {
    if (among(mg, {"sim", "net", "transport", "membership", "gcs", "spec"})) {
      return nullptr;
    }
    return "obs observes; it may include only "
           "util/sim/net/transport/membership/gcs/spec";
  }
  if (mf == "lint") {
    if (mg == "obs") return nullptr;
    return "lint is dependency-free tooling; it may include only util and "
           "obs";
  }
  if (mg == "spec") {
    if (mf == "util") {
      return "util is the bottom layer; it includes nothing above itself";
    }
    return nullptr;  // the spec observer is includable by every src module
  }
  if (mg == "obs") {
    if (among(mf, {"sim", "app", "mc"})) return nullptr;
    return "obs is includable only by sim, app, mc, lint, and harness code";
  }
  if (mg == "lint") return "only harness code may include lint";
  const int rf = module_rank(mf);
  const int rg = module_rank(mg);
  if (rf >= 0 && rg >= 0 && rf < rg) {
    return "protocol layers depend strictly downward";
  }
  return nullptr;
}

/// Resolve a quoted include spec against the scanned-file set: repo includes
/// are rooted at src/ (the -I path), harness files may also be named from
/// the repo root or relative to the including file. External/system headers
/// resolve to "".
std::string resolve_include(const std::set<std::string>& fileset,
                            const std::string& from, const RawInclude& inc) {
  if (inc.angled) return "";
  if (fileset.count("src/" + inc.spec) != 0) return "src/" + inc.spec;
  if (fileset.count(inc.spec) != 0) return inc.spec;
  const std::size_t slash = from.rfind('/');
  if (slash != std::string::npos) {
    const std::string sibling = from.substr(0, slash + 1) + inc.spec;
    if (fileset.count(sibling) != 0) return sibling;
  }
  return "";
}

}  // namespace

// --- include graph: layering + cycles --------------------------------------

void analyze_includes(
    const std::map<std::string, std::vector<RawInclude>>& includes_by_file,
    std::map<std::string, std::vector<Finding>>& findings_by_file,
    DepsResult& result) {
  std::set<std::string> fileset;
  for (const auto& [path, incs] : includes_by_file) fileset.insert(path);
  result.files = static_cast<int>(fileset.size());

  std::map<std::string, std::vector<std::pair<std::string, int>>> adj;
  std::map<std::pair<std::string, std::string>, int> module_edges;
  for (const auto& [from, incs] : includes_by_file) {
    const std::string mf = module_of(from);
    if (!mf.empty()) ++result.module_files[mf];
    for (const RawInclude& inc : incs) {
      const std::string to = resolve_include(fileset, from, inc);
      if (to.empty()) {
        ++result.external_includes;
        continue;
      }
      ++result.internal_edges;
      adj[from].push_back({to, inc.line});
      const std::string mg = module_of(to);
      if (!mf.empty() && !mg.empty() && mf != mg) {
        ++module_edges[{mf, mg}];
      }
      if (const char* why = edge_violation(mf, mg)) {
        ++result.layer_violations;
        findings_by_file[from].push_back(
            {from, inc.line, "layer-violation",
             "include of \"" + inc.spec + "\" reaches module '" + mg +
                 "' from module '" + mf + "': " + why,
             false, ""});
      }
    }
  }
  for (const auto& [edge, count] : module_edges) {
    result.module_edges.push_back({edge.first, edge.second, count});
  }

  // File-level cycle detection (module-level cycles like gcs <-> spec are
  // expected; the file graph must stay a DAG or builds become order-fragile).
  std::map<std::string, int> color;  // 0 white, 1 on stack, 2 done
  std::vector<std::string> stack;
  std::set<std::string> reported;
  std::function<void(const std::string&)> dfs = [&](const std::string& u) {
    color[u] = 1;
    stack.push_back(u);
    for (const auto& [v, line] : adj[u]) {
      if (color[v] == 1) {
        auto it = std::find(stack.begin(), stack.end(), v);
        std::vector<std::string> cyc(it, stack.end());
        std::rotate(cyc.begin(), std::min_element(cyc.begin(), cyc.end()),
                    cyc.end());
        std::string desc;
        for (const std::string& n : cyc) desc += n + " -> ";
        desc += cyc.front();
        if (!reported.insert(desc).second) continue;
        result.cycles.push_back(desc);
        const std::string& anchor = cyc.front();
        const std::string& next = cyc.size() > 1 ? cyc[1] : cyc.front();
        int anchor_line = 1;
        for (const auto& [t, l] : adj[anchor]) {
          if (t == next) {
            anchor_line = l;
            break;
          }
        }
        findings_by_file[anchor].push_back(
            {anchor, anchor_line, "include-cycle", "include cycle: " + desc,
             false, ""});
      } else if (color[v] == 0) {
        dfs(v);
      }
    }
    stack.pop_back();
    color[u] = 2;
  };
  for (const auto& [path, incs] : includes_by_file) {
    if (color[path] == 0) dfs(path);
  }
  std::sort(result.cycles.begin(), result.cycles.end());
}

// --- sim-purity ledger ------------------------------------------------------

Ledger parse_ledger(const std::string& display_path, const std::string& text) {
  Ledger lg;
  lg.display_path = display_path;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::string file, kind, detail, extra;
    if (!(fields >> file)) continue;       // blank line
    if (file[0] == '#') continue;          // comment
    if (!(fields >> kind >> detail) || (fields >> extra) ||
        (kind != "include" && kind != "symbol")) {
      lg.parse_findings.push_back(
          {display_path, line_no, "sim-purity",
           "malformed ledger line; expected '<path> include|symbol <detail>'",
           false, ""});
      continue;
    }
    lg.entries.push_back({line_no, file, kind, detail, false});
  }
  return lg;
}

void check_sim_purity(
    const std::map<std::string, std::vector<SimUse>>& uses_by_file,
    Ledger& ledger,
    std::map<std::string, std::vector<Finding>>& findings_by_file,
    DepsResult& result) {
  for (const auto& [file, uses] : uses_by_file) {
    for (const SimUse& u : uses) {
      ++result.sim_entries;
      bool ledgered = false;
      for (LedgerEntry& e : ledger.entries) {
        if (e.file == file && e.kind == u.kind && e.detail == u.detail) {
          e.matched = true;
          ledgered = true;
          break;
        }
      }
      if (ledgered) {
        ++result.sim_ledgered;
        findings_by_file[file].push_back(
            {file, u.line, "sim-purity",
             "sim dependency '" + u.detail + "' (" + u.kind + ")", true,
             "ledgered in " + ledger.display_path +
                 " (ratchet: the ledger only shrinks)"});
      } else {
        ++result.sim_unledgered;
        findings_by_file[file].push_back(
            {file, u.line, "sim-purity",
             "protocol code depends on sim-only '" + u.detail + "' (" +
                 u.kind + ") not recorded in " + ledger.display_path +
                 "; the ledger only shrinks — use the sim/time.hpp surface "
                 "instead of adding sim debt",
             false, ""});
      }
    }
  }
  for (const LedgerEntry& e : ledger.entries) {
    if (e.matched) continue;
    ++result.sim_stale;
    findings_by_file[ledger.display_path].push_back(
        {ledger.display_path, e.line, "sim-purity",
         "stale ledger entry '" + e.file + " " + e.kind + " " + e.detail +
             "': the dependency is gone; delete this line to ratchet the "
             "debt down",
         false, ""});
  }
  for (const Finding& f : ledger.parse_findings) {
    findings_by_file[ledger.display_path].push_back(f);
  }
}

// --- artifacts --------------------------------------------------------------

obs::JsonValue deps_to_json(const DepsResult& result,
                            const std::string& root) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc["tool"] = "vsgc_deps";
  doc["schema_version"] = 1;
  doc["root"] = root;
  doc["files"] = result.files;
  doc["internal_edges"] = result.internal_edges;
  doc["external_includes"] = result.external_includes;

  std::vector<std::pair<std::string, int>> mods(result.module_files.begin(),
                                                result.module_files.end());
  std::stable_sort(mods.begin(), mods.end(),
                   [](const auto& a, const auto& b) {
                     return module_rank(a.first) < module_rank(b.first);
                   });
  obs::JsonValue modules = obs::JsonValue::array();
  for (const auto& [name, files] : mods) {
    obs::JsonValue m = obs::JsonValue::object();
    m["name"] = name;
    m["rank"] = module_rank(name);
    m["files"] = files;
    modules.push_back(std::move(m));
  }
  doc["modules"] = std::move(modules);

  obs::JsonValue edges = obs::JsonValue::array();
  for (const ModuleEdge& e : result.module_edges) {
    obs::JsonValue row = obs::JsonValue::object();
    row["from"] = e.from;
    row["to"] = e.to;
    row["count"] = e.count;
    edges.push_back(std::move(row));
  }
  doc["module_edges"] = std::move(edges);

  doc["cycles"] = static_cast<int>(result.cycles.size());
  doc["layer_violations"] = result.layer_violations;
  obs::JsonValue sim = obs::JsonValue::object();
  sim["entries"] = result.sim_entries;
  sim["ledgered"] = result.sim_ledgered;
  sim["unledgered"] = result.sim_unledgered;
  sim["stale"] = result.sim_stale;
  doc["sim_purity"] = std::move(sim);
  return doc;
}

std::string deps_to_dot(const DepsResult& result) {
  // Module-level diagram of src/ only: harness edges (tests include
  // everything) would bury the layer structure the diagram exists to show.
  std::ostringstream out;
  out << "digraph vsgc_modules {\n"
      << "  rankdir = BT;\n"
      << "  node [shape=box, fontname=\"Helvetica\"];\n";
  std::vector<std::pair<std::string, int>> mods(result.module_files.begin(),
                                                result.module_files.end());
  std::stable_sort(mods.begin(), mods.end(),
                   [](const auto& a, const auto& b) {
                     return module_rank(a.first) < module_rank(b.first);
                   });
  for (const auto& [name, files] : mods) {
    if (is_harness(name)) continue;
    out << "  \"" << name << "\" [label=\"" << name;
    if (module_rank(name) >= 0) {
      out << "\\nrank " << module_rank(name);
    } else {
      out << "\\nobserver";
    }
    out << "  (" << files << " files)\"];\n";
  }
  for (const ModuleEdge& e : result.module_edges) {
    if (is_harness(e.from) || is_harness(e.to)) continue;
    out << "  \"" << e.from << "\" -> \"" << e.to << "\" [label=\" "
        << e.count << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace vsgc::lint
