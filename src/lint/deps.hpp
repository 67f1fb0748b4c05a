// Architecture-conformance passes of vsgc-lint (DESIGN.md §8):
//
//   * include graph + layering — the full #include graph over
//     {src,tools,bench,tests}, checked against the declared module-layer
//     table (layer-violation) and for file-level cycles (include-cycle),
//     with a Graphviz export of the module diagram;
//   * sim-purity ledger — every sim/ include and sim-only symbol reference
//     in protocol code (src/transport, src/gcs, src/membership), matched
//     against the ratchet-only allowlist tools/sim_purity_ledger.txt
//     (sim-purity).
//
// These are pure functions over lexed token streams and repo-relative paths;
// the Linter wires them into lint_source()/finalize() so virtual-path test
// fixtures exercise them without touching the filesystem.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lint/rules.hpp"
#include "lint/token.hpp"
#include "obs/json.hpp"

namespace vsgc::lint {

/// One #include directive as written: `spec` is the text between the quotes
/// or angle brackets. Resolution against the scanned-file set happens later.
struct RawInclude {
  int line = 0;
  std::string spec;
  bool angled = false;  ///< <...> includes are always external (std headers)
};

std::vector<RawInclude> extract_includes(const std::vector<Token>& toks);

/// One sim dependency in protocol code: kind is "include" (a sim/ header
/// other than the sanctioned sim/time.hpp surface) or "symbol" (Simulator,
/// TimerHandle, NondetSource, FailureInjector, or a schedule* call).
/// Deduplicated per (file, kind, detail); line is the first occurrence.
struct SimUse {
  int line = 0;
  std::string kind;
  std::string detail;
};

/// Protocol directories whose sim dependencies are ratcheted debt.
bool in_sim_purity_scope(std::string_view rel_path);

std::vector<SimUse> find_sim_uses(const std::vector<Token>& toks,
                                  const std::vector<RawInclude>& includes);

/// Module-layer table. Ranked modules may include same-or-lower ranks (plus
/// util and the observer layer spec); -1 = unranked (util, observers,
/// lint, harness dirs), governed by the special rules in edge_allowed().
int module_rank(std::string_view module);

/// Module of a repo-relative path: "src/gcs/..." -> "gcs", "tools/..." ->
/// "tools", etc. Empty when the path fits no known top directory.
std::string module_of(std::string_view rel_path);

bool edge_allowed(std::string_view from_module, std::string_view to_module);

/// Aggregated result of the include-graph pass, the source of truth for the
/// LINT_deps.json artifact and the dot export.
struct ModuleEdge {
  std::string from;
  std::string to;
  int count = 0;
};

struct DepsResult {
  int files = 0;
  int internal_edges = 0;     ///< quoted includes resolved inside the tree
  int external_includes = 0;  ///< angled or unresolved includes
  std::map<std::string, int> module_files;
  std::vector<ModuleEdge> module_edges;  ///< sorted (from, to)
  std::vector<std::string> cycles;       ///< "a -> b -> a" per distinct cycle
  int layer_violations = 0;              ///< found, before suppression
  int sim_entries = 0;
  int sim_ledgered = 0;
  int sim_unledgered = 0;
  int sim_stale = 0;
};

/// Build the include graph over `includes_by_file`, run the layering and
/// cycle checks, and append per-file findings (unsuppressed; the caller owns
/// pragma application). Fills the graph/cycle fields of `result`.
void analyze_includes(
    const std::map<std::string, std::vector<RawInclude>>& includes_by_file,
    std::map<std::string, std::vector<Finding>>& findings_by_file,
    DepsResult& result);

/// Parsed ratchet ledger. Lines are `<path> <kind> <detail>`; '#' comments
/// and blank lines are skipped; malformed lines become findings.
struct LedgerEntry {
  int line = 0;
  std::string file;
  std::string kind;
  std::string detail;
  bool matched = false;
};

struct Ledger {
  std::string display_path;  ///< path findings on the ledger itself anchor to
  std::vector<LedgerEntry> entries;
  std::vector<Finding> parse_findings;
};

Ledger parse_ledger(const std::string& display_path, const std::string& text);

/// Match sim uses against the ledger: ledgered uses become suppressed
/// findings, unledgered ones fail the ratchet, unmatched ledger entries are
/// stale. Fills the sim_* tallies of `result`.
void check_sim_purity(
    const std::map<std::string, std::vector<SimUse>>& uses_by_file,
    Ledger& ledger,
    std::map<std::string, std::vector<Finding>>& findings_by_file,
    DepsResult& result);

/// LINT_deps.json document (schema checked by tools/validate_bench_json).
obs::JsonValue deps_to_json(const DepsResult& result, const std::string& root);

/// Graphviz digraph of the module layer diagram (modules ranked bottom-up,
/// one edge per module pair with the file-edge count as label).
std::string deps_to_dot(const DepsResult& result);

}  // namespace vsgc::lint
