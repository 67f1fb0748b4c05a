// Rule vocabulary of vsgc-lint.
//
// Three rule families (DESIGN.md §8):
//   * determinism — source constructs that would make a simulated execution
//     depend on anything other than its seed (wall clocks, ambient
//     randomness, hash/address ordering). Scoped to the protocol + simulator
//     directories; observability and test scaffolding may touch real time.
//   * protocol hygiene — wire structs fully initialized, every spec event
//     consumed by a checker, one include-guard style.
//   * architecture conformance — the include graph respects the declared
//     module layering and stays acyclic, and sim dependencies in protocol
//     code are ratchet-ledgered (lint/deps.hpp).
// Every rule is suppressible at the offending line with a line comment of
// the form `vsgc-lint` + colon + ` allow(<rule>) <justification>` — except
// bad-pragma, which polices the pragmas themselves. (The marker is spelled
// out indirectly here so this very comment does not parse as a pragma.)
#pragma once

#include <array>
#include <string>
#include <string_view>

namespace vsgc::lint {

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

inline constexpr std::array<RuleInfo, 12> kRules = {{
    {"banned-random",
     "ambient randomness (std::rand, random_device, mt19937, ...) in "
     "deterministic code; all randomness must flow through util/rng.hpp"},
    {"banned-time",
     "wall-clock time source (time(), gettimeofday, std::chrono clocks) in "
     "deterministic code; use sim::Simulator::now()"},
    {"banned-getenv",
     "environment lookup outside src/obs and src/util/logging.hpp; ambient "
     "configuration breaks replay"},
    {"unordered-iteration",
     "iteration over std::unordered_{map,set} whose body sends, schedules, "
     "or traces; hash order is not deterministic across runs"},
    {"pointer-order",
     "pointer-keyed ordered container or std::less<T*>; address order "
     "changes with ASLR"},
    {"wire-init",
     "wire/message struct member without an in-class initializer; "
     "uninitialized wire fields leak indeterminate bytes"},
    {"event-coverage",
     "spec event type not consumed by any checker reachable from "
     "src/spec/all_checkers.hpp"},
    {"layer-violation",
     "#include crosses the module-layer table (DESIGN.md §8): protocol "
     "layers depend strictly downward, observers observe, src/ never "
     "includes harness code"},
    {"include-cycle",
     "file-level #include cycle; the include graph must stay a DAG"},
    {"sim-purity",
     "sim/ include or sim-only symbol (Simulator, TimerHandle, schedule*) "
     "in protocol code not covered by tools/sim_purity_ledger.txt — the "
     "ledger is a ratchet that only shrinks"},
    {"include-guard",
     "header does not start with '#pragma once' (the repo's single "
     "include-guard style)"},
    {"bad-pragma",
     "malformed, unknown-rule, justification-free, or unused "
     "vsgc-lint pragma"},
}};

inline bool is_known_rule(std::string_view id) {
  for (const RuleInfo& r : kRules) {
    if (r.id == id) return true;
  }
  return false;
}

struct Finding {
  std::string file;  ///< path relative to the lint root, forward slashes
  int line = 0;
  std::string rule;
  std::string message;
  bool suppressed = false;
  std::string justification;  ///< non-empty iff suppressed

  friend bool operator==(const Finding&, const Finding&) = default;
};

}  // namespace vsgc::lint
