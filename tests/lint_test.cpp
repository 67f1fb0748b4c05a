// Self-checks for vsgc-lint, mirroring the planted-bug style of vsgc_stress
// and vsgc_mc: for every rule there is a fixture with a planted violation
// (the lint must flag it), a clean fixture (must pass), and a
// pragma-suppressed fixture (must pass with the finding recorded as
// suppressed). Fixture sources are string literals, so scanning this test
// file itself stays clean — the tokenizer never reads pragmas or banned
// names out of string literals.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/linter.hpp"
#include "obs/json.hpp"

namespace vsgc::lint {
namespace {

std::vector<Finding> run_one(const std::string& path,
                             const std::string& text) {
  Linter linter;
  linter.lint_source(path, text);
  linter.finalize();
  return linter.findings();
}

int count_rule(const std::vector<Finding>& fs, const std::string& rule,
               bool suppressed = false) {
  int n = 0;
  for (const Finding& f : fs) {
    if (f.rule == rule && f.suppressed == suppressed) ++n;
  }
  return n;
}

// --- banned-random ----------------------------------------------------------

TEST(LintBannedRandom, PlantedViolationIsFlagged) {
  const auto fs = run_one("src/sim/fixture.cpp",
                          "int f() { return std::rand(); }\n");
  EXPECT_EQ(count_rule(fs, "banned-random"), 1);
  EXPECT_EQ(fs[0].line, 1);
}

TEST(LintBannedRandom, Mt19937AndRandomDeviceAreFlagged) {
  const auto fs = run_one("src/mc/fixture.cpp",
                          "std::mt19937 gen{std::random_device{}()};\n");
  EXPECT_EQ(count_rule(fs, "banned-random"), 2);
}

TEST(LintBannedRandom, CleanRngUsePasses) {
  const auto fs = run_one("src/sim/fixture.cpp",
                          "#include \"util/rng.hpp\"\n"
                          "std::uint64_t f(vsgc::Rng& rng) {"
                          " return rng.next_u64(); }\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LintBannedRandom, PragmaSuppresses) {
  const auto fs = run_one(
      "src/sim/fixture.cpp",
      "// vsgc-lint: allow(banned-random) fixture exercising suppression\n"
      "int f() { return std::rand(); }\n");
  EXPECT_EQ(count_rule(fs, "banned-random", /*suppressed=*/true), 1);
  EXPECT_EQ(count_rule(fs, "banned-random", /*suppressed=*/false), 0);
}

TEST(LintBannedRandom, OutsideDeterminismScopeNotFlagged) {
  const auto fs =
      run_one("tests/fixture.cpp", "int f() { return std::rand(); }\n");
  EXPECT_TRUE(fs.empty());
}

// --- banned-time ------------------------------------------------------------

TEST(LintBannedTime, TimeCallAndChronoClocksAreFlagged) {
  const auto fs = run_one(
      "src/net/fixture.cpp",
      "long f() { return time(nullptr); }\n"
      "auto g() { return std::chrono::steady_clock::now(); }\n");
  EXPECT_EQ(count_rule(fs, "banned-time"), 2);
}

TEST(LintBannedTime, MemberNamedTimeIsNotFlagged) {
  // `.time(...)` is a member call on a simulated object, not ::time().
  const auto fs = run_one("src/gcs/fixture.cpp",
                          "long f(Sim& s) { return s.time(); }\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LintBannedTime, PragmaSuppresses) {
  const auto fs = run_one(
      "src/sim/fixture.cpp",
      "long f() { return time(nullptr); }  "
      "// vsgc-lint: allow(banned-time) same-line suppression fixture\n");
  EXPECT_EQ(count_rule(fs, "banned-time", /*suppressed=*/true), 1);
  EXPECT_EQ(count_rule(fs, "banned-time", /*suppressed=*/false), 0);
}

// --- banned-getenv ----------------------------------------------------------

TEST(LintBannedGetenv, FlaggedEverywhereOutsideObs) {
  EXPECT_EQ(count_rule(run_one("src/gcs/fixture.cpp",
                               "const char* e = std::getenv(\"X\");\n"),
                       "banned-getenv"),
            1);
  EXPECT_EQ(count_rule(run_one("tools/fixture.cpp",
                               "const char* e = getenv(\"X\");\n"),
                       "banned-getenv"),
            1);
}

TEST(LintBannedGetenv, ObsAndLoggingAreExempt) {
  EXPECT_TRUE(run_one("src/obs/fixture.cpp",
                      "const char* e = std::getenv(\"X\");\n")
                  .empty());
  const auto fs = run_one("src/util/logging.hpp",
                          "#pragma once\n"
                          "inline const char* e() { return getenv(\"X\"); }\n");
  EXPECT_EQ(count_rule(fs, "banned-getenv"), 0);
}

TEST(LintBannedGetenv, PragmaSuppresses) {
  const auto fs = run_one(
      "src/membership/fixture.cpp",
      "// vsgc-lint: allow(banned-getenv) fixture justification\n"
      "const char* e = getenv(\"X\");\n");
  EXPECT_EQ(count_rule(fs, "banned-getenv", /*suppressed=*/true), 1);
  EXPECT_EQ(count_rule(fs, "banned-getenv", /*suppressed=*/false), 0);
}

// --- unordered-iteration ----------------------------------------------------

constexpr const char* kUnorderedSendLoop = R"lint(
#include <unordered_map>
void f(Net& net) {
  std::unordered_map<int, int> peers;
  for (auto& [id, st] : peers) {
    net.send(id, st);
  }
}
)lint";

TEST(LintUnorderedIteration, RangeForFeedingSendIsFlagged) {
  const auto fs = run_one("src/net/fixture.cpp", kUnorderedSendLoop);
  EXPECT_EQ(count_rule(fs, "unordered-iteration"), 1);
}

TEST(LintUnorderedIteration, IteratorLoopFeedingScheduleIsFlagged) {
  const auto fs = run_one("src/sim/fixture.cpp", R"lint(
void f(Sim& sim) {
  std::unordered_set<int> ready;
  for (auto it = ready.begin(); it != ready.end(); ++it) {
    sim.schedule_at(*it, 0);
  }
}
)lint");
  EXPECT_EQ(count_rule(fs, "unordered-iteration"), 1);
}

TEST(LintUnorderedIteration, PureAccumulationPasses) {
  const auto fs = run_one("src/net/fixture.cpp", R"lint(
int f() {
  std::unordered_map<int, int> peers;
  int sum = 0;
  for (auto& [id, st] : peers) {
    sum += st;
  }
  return sum;
}
)lint");
  EXPECT_TRUE(fs.empty());
}

TEST(LintUnorderedIteration, OrderedMapFeedingSendPasses) {
  const auto fs = run_one("src/net/fixture.cpp", R"lint(
void f(Net& net) {
  std::map<int, int> peers;
  for (auto& [id, st] : peers) {
    net.send(id, st);
  }
}
)lint");
  EXPECT_TRUE(fs.empty());
}

TEST(LintUnorderedIteration, PragmaSuppresses) {
  const auto fs = run_one("src/net/fixture.cpp", R"lint(
void f(Net& net) {
  std::unordered_map<int, int> peers;
  // vsgc-lint: allow(unordered-iteration) fixture: send is order-insensitive here
  for (auto& [id, st] : peers) {
    net.send(id, st);
  }
}
)lint");
  EXPECT_EQ(count_rule(fs, "unordered-iteration", /*suppressed=*/true), 1);
  EXPECT_EQ(count_rule(fs, "unordered-iteration", /*suppressed=*/false), 0);
}

// --- pointer-order ----------------------------------------------------------

TEST(LintPointerOrder, PointerKeyedMapAndSetAreFlagged) {
  const auto fs = run_one("src/membership/fixture.cpp",
                          "std::map<Node*, int> owners;\n"
                          "std::set<Conn*> conns;\n");
  EXPECT_EQ(count_rule(fs, "pointer-order"), 2);
}

TEST(LintPointerOrder, PointerValuesAndComparisonsPass) {
  const auto fs = run_one("src/membership/fixture.cpp",
                          "std::map<int, Node*> by_id;\n"
                          "bool f(int set, int x) { return set < x; }\n"
                          "std::priority_queue<E, std::vector<E>, "
                          "std::greater<>> q;\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LintPointerOrder, PragmaSuppresses) {
  const auto fs = run_one(
      "src/app/fixture.cpp",
      "// vsgc-lint: allow(pointer-order) fixture: map is per-run scratch\n"
      "std::map<Node*, int> owners;\n");
  EXPECT_EQ(count_rule(fs, "pointer-order", /*suppressed=*/true), 1);
  EXPECT_EQ(count_rule(fs, "pointer-order", /*suppressed=*/false), 0);
}

// --- wire-init --------------------------------------------------------------

TEST(LintWireInit, UninitializedMemberIsFlagged) {
  const auto fs = run_one("src/gcs/messages.hpp",
                          "#pragma once\n"
                          "struct Ping {\n"
                          "  std::uint32_t seq;\n"
                          "};\n");
  ASSERT_EQ(count_rule(fs, "wire-init"), 1);
  EXPECT_EQ(fs[0].line, 3);
  EXPECT_NE(fs[0].message.find("'seq'"), std::string::npos);
}

TEST(LintWireInit, InitializedMembersAndFunctionsPass) {
  const auto fs = run_one("src/membership/wire.hpp", R"lint(
#pragma once
struct Ping {
  std::uint32_t seq = 0;
  View view{};
  std::map<ProcessId, std::int64_t> cut{};
  static constexpr std::size_t kWireSize = 5;
  void encode(Encoder& enc) const { enc.put_u32(seq); }
  static Ping decode(Decoder& dec);
  friend bool operator==(const Ping&, const Ping&) = default;
};
)lint");
  EXPECT_EQ(count_rule(fs, "wire-init"), 0);
}

TEST(LintWireInit, TransportFrameHeaderIsInScope) {
  // The frame structs (DESIGN.md §11) are wire types: every member needs an
  // in-class initializer, exactly like messages.hpp and wire.hpp.
  const auto fs = run_one("src/transport/frame.hpp",
                          "#pragma once\n"
                          "struct FrameHeader {\n"
                          "  std::uint64_t base_seq;\n"
                          "};\n");
  ASSERT_EQ(count_rule(fs, "wire-init"), 1);
  EXPECT_NE(fs[0].message.find("'base_seq'"), std::string::npos);
}

TEST(LintWireInit, FieldListDoesNotHideLaterMembers) {
  // A field list declared ahead of the members is a function definition:
  // the scan resumes after its body and still sees every member.
  const auto fs = run_one("src/gcs/messages.hpp", R"lint(
#pragma once
struct Ping {
  static constexpr Tag kTag = Tag::kPing;
  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.seq, s.view);
  }
  std::uint32_t seq;
  View view{};
  void validate() const { if (seq == 0) throw DecodeError("zero"); }
  std::map<ProcessId, std::int64_t> cut;
};
)lint");
  ASSERT_EQ(count_rule(fs, "wire-init"), 2);
  EXPECT_NE(fs[0].message.find("'seq'"), std::string::npos);
  EXPECT_NE(fs[1].message.find("'cut'"), std::string::npos);
}

TEST(LintWireInit, ViewAndAppMsgHeadersAreInScope) {
  for (const char* path : {"src/membership/view.hpp", "src/gcs/app_msg.hpp"}) {
    const auto fs = run_one(path,
                            "#pragma once\n"
                            "struct View {\n"
                            "  ViewId id;\n"
                            "};\n");
    EXPECT_EQ(count_rule(fs, "wire-init"), 1) << path;
  }
}

TEST(LintWireInit, OnlyWireHeadersAreInScope) {
  const auto fs = run_one("src/gcs/other.hpp",
                          "#pragma once\n"
                          "struct Scratch { int x; };\n");
  EXPECT_EQ(count_rule(fs, "wire-init"), 0);
}

TEST(LintWireInit, PragmaSuppresses) {
  const auto fs = run_one(
      "src/gcs/messages.hpp",
      "#pragma once\n"
      "struct Ping {\n"
      "  std::uint32_t seq;  "
      "// vsgc-lint: allow(wire-init) fixture: seq is set by every ctor\n"
      "};\n");
  EXPECT_EQ(count_rule(fs, "wire-init", /*suppressed=*/true), 1);
  EXPECT_EQ(count_rule(fs, "wire-init", /*suppressed=*/false), 0);
}

// --- event-coverage ---------------------------------------------------------

constexpr const char* kEventsTwo =
    "#pragma once\n"
    "struct EvA { int p; };\n"
    "struct EvB { int p; };\n"
    "using EventBody = std::variant<EvA, EvB>;\n";

std::vector<Finding> run_spec_trio(const std::string& events,
                                   const std::string& checker) {
  Linter linter;
  linter.lint_source("src/spec/events.hpp", events);
  linter.lint_source("src/spec/all_checkers.hpp",
                     "#pragma once\n#include \"spec/foo_checker.hpp\"\n");
  linter.lint_source("src/spec/foo_checker.hpp", checker);
  linter.finalize();
  return linter.findings();
}

TEST(LintEventCoverage, UnconsumedEventIsFlagged) {
  const auto fs = run_spec_trio(
      kEventsTwo, "#pragma once\nvoid on_a(const EvA& e);\n");
  ASSERT_EQ(count_rule(fs, "event-coverage"), 1);
  EXPECT_EQ(fs[0].file, "src/spec/events.hpp");
  EXPECT_EQ(fs[0].line, 3);  // anchored at `struct EvB`
  EXPECT_NE(fs[0].message.find("EvB"), std::string::npos);
}

TEST(LintEventCoverage, FullyConsumedVariantPasses) {
  const auto fs = run_spec_trio(
      kEventsTwo,
      "#pragma once\nvoid on_a(const EvA& e);\nvoid on_b(const EvB& e);\n");
  EXPECT_EQ(count_rule(fs, "event-coverage"), 0);
}

std::vector<Finding> run_with_hub(const std::string& hub) {
  Linter linter;
  linter.lint_source("src/spec/events.hpp", kEventsTwo);
  linter.lint_source("src/spec/all_checkers.hpp",
                     "#pragma once\n#include \"spec/events.hpp\"\n"
                     "#include \"spec/foo_checker.hpp\"\n" + hub);
  linter.lint_source("src/spec/foo_checker.hpp",
                     "#pragma once\nvoid on_a(const EvA& e);\n");
  linter.finalize();
  return linter.findings();
}

TEST(LintEventCoverage, EventConsumedOnlyByTheHubPasses) {
  // The bundle in all_checkers.hpp is itself a consumer (it reads the
  // corruption markers that time its tolerance window).
  EXPECT_EQ(count_rule(run_with_hub("void on_b(const EvB& e);\n"),
                       "event-coverage"),
            0);
}

TEST(LintEventCoverage, HubIncludingTheEventsFileConsumesNothing) {
  // events.hpp declares every event; including it consumes none of them.
  const auto fs = run_with_hub("");
  ASSERT_EQ(count_rule(fs, "event-coverage"), 1);
  EXPECT_NE(fs[0].message.find("EvB"), std::string::npos);
}

TEST(LintEventCoverage, PragmaSuppresses) {
  const auto fs = run_spec_trio(
      "#pragma once\n"
      "struct EvA { int p; };\n"
      "// vsgc-lint: allow(event-coverage) fixture: metadata-only event\n"
      "struct EvB { int p; };\n"
      "using EventBody = std::variant<EvA, EvB>;\n",
      "#pragma once\nvoid on_a(const EvA& e);\n");
  EXPECT_EQ(count_rule(fs, "event-coverage", /*suppressed=*/true), 1);
  EXPECT_EQ(count_rule(fs, "event-coverage", /*suppressed=*/false), 0);
}

// Span-marker variants (MsgWireSend and friends) are consumed by
// obs::analyze, not by a spec checker — the rule must still flag them
// (obs is outside the all_checkers reachability set), and the repo's
// span-marker pragma idiom must suppress them with its justification intact.
TEST(LintEventCoverage, SpanMarkerConsumedOnlyByObsStillNeedsPragma) {
  Linter linter;
  linter.lint_source("src/spec/events.hpp",
                     "#pragma once\n"
                     "struct EvA { int p; };\n"
                     "struct MsgWireSend { int p; };\n"
                     "using EventBody = std::variant<EvA, MsgWireSend>;\n");
  linter.lint_source("src/spec/all_checkers.hpp",
                     "#pragma once\n#include \"spec/foo_checker.hpp\"\n");
  linter.lint_source("src/spec/foo_checker.hpp",
                     "#pragma once\nvoid on_a(const EvA& e);\n");
  linter.lint_source(
      "src/obs/span.cpp",
      "#include \"spec/events.hpp\"\n"
      "void on_event(const MsgWireSend& e);\n");  // obs-side consumer
  linter.finalize();
  const auto fs = linter.findings();
  ASSERT_EQ(count_rule(fs, "event-coverage"), 1);
  EXPECT_NE(fs[0].message.find("MsgWireSend"), std::string::npos);
}

TEST(LintEventCoverage, SpanMarkerPragmaIdiomSuppresses) {
  const auto fs = run_spec_trio(
      "#pragma once\n"
      "struct EvA { int p; };\n"
      "// vsgc-lint: allow(event-coverage) causal span marker, consumed by "
      "obs::analyze / tools/vsgc_trace rather than by a spec checker\n"
      "struct MsgWireSend { int p; };\n"
      "using EventBody = std::variant<EvA, MsgWireSend>;\n",
      "#pragma once\nvoid on_a(const EvA& e);\n");
  EXPECT_EQ(count_rule(fs, "event-coverage", /*suppressed=*/true), 1);
  EXPECT_EQ(count_rule(fs, "event-coverage", /*suppressed=*/false), 0);
  const auto it = std::find_if(fs.begin(), fs.end(), [](const Finding& f) {
    return f.rule == "event-coverage";
  });
  ASSERT_NE(it, fs.end());
  EXPECT_NE(it->justification.find("obs::analyze"), std::string::npos);
}

// --- include-guard ----------------------------------------------------------

TEST(LintIncludeGuard, MissingPragmaOnceIsFlagged) {
  const auto fs =
      run_one("src/util/fixture.hpp", "struct X { int a = 0; };\n");
  EXPECT_EQ(count_rule(fs, "include-guard"), 1);
}

TEST(LintIncludeGuard, IfndefStyleIsFlagged) {
  const auto fs = run_one("src/util/fixture.hpp",
                          "#ifndef VSGC_FIXTURE_HPP\n"
                          "#define VSGC_FIXTURE_HPP\n"
                          "#endif\n");
  ASSERT_EQ(count_rule(fs, "include-guard"), 1);
  EXPECT_NE(fs[0].message.find("#ifndef"), std::string::npos);
}

TEST(LintIncludeGuard, PragmaOnceAfterCommentsPasses) {
  const auto fs = run_one("src/util/fixture.hpp",
                          "// file comment\n"
                          "#pragma once\n"
                          "struct X { int a = 0; };\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LintIncludeGuard, CppFilesAreNotHeaders) {
  EXPECT_TRUE(run_one("src/util/fixture.cpp", "int x = 0;\n").empty());
}

// --- bad-pragma -------------------------------------------------------------

TEST(LintBadPragma, MissingJustificationDoesNotSuppress) {
  const auto fs = run_one("src/sim/fixture.cpp",
                          "// vsgc-lint: allow(banned-random)\n"
                          "int f() { return std::rand(); }\n");
  EXPECT_EQ(count_rule(fs, "bad-pragma"), 1);
  EXPECT_EQ(count_rule(fs, "banned-random", /*suppressed=*/false), 1);
}

TEST(LintBadPragma, UnknownRuleIsFlagged) {
  const auto fs = run_one(
      "src/sim/fixture.cpp",
      "// vsgc-lint: allow(no-such-rule) justified at length\nint x = 0;\n");
  EXPECT_EQ(count_rule(fs, "bad-pragma"), 1);
}

TEST(LintBadPragma, MalformedPragmaIsFlagged) {
  const auto fs = run_one("src/sim/fixture.cpp",
                          "// vsgc-lint: disable everything please\n"
                          "int x = 0;\n");
  EXPECT_EQ(count_rule(fs, "bad-pragma"), 1);
}

TEST(LintBadPragma, StalePragmaIsFlagged) {
  const auto fs = run_one(
      "src/sim/fixture.cpp",
      "// vsgc-lint: allow(banned-random) nothing to suppress below\n"
      "int x = 0;\n");
  ASSERT_EQ(count_rule(fs, "bad-pragma"), 1);
  EXPECT_NE(fs[0].message.find("suppresses nothing"), std::string::npos);
}

// --- layer-violation --------------------------------------------------------

std::vector<Finding> run_two(const std::string& path_a,
                             const std::string& text_a,
                             const std::string& path_b,
                             const std::string& text_b) {
  Linter linter;
  linter.lint_source(path_a, text_a);
  linter.lint_source(path_b, text_b);
  linter.finalize();
  return linter.findings();
}

TEST(LintLayerViolation, UpwardIncludeIsFlagged) {
  const auto fs = run_two("src/transport/fixture.hpp",
                          "#pragma once\n#include \"gcs/view.hpp\"\n",
                          "src/gcs/view.hpp", "#pragma once\n");
  ASSERT_EQ(count_rule(fs, "layer-violation"), 1);
  const auto it = std::find_if(fs.begin(), fs.end(), [](const Finding& f) {
    return f.rule == "layer-violation";
  });
  ASSERT_NE(it, fs.end());
  EXPECT_EQ(it->file, "src/transport/fixture.hpp");
  EXPECT_EQ(it->line, 2);
  EXPECT_NE(it->message.find("strictly downward"), std::string::npos);
}

TEST(LintLayerViolation, DownwardIncludePasses) {
  const auto fs = run_two("src/gcs/fixture.hpp",
                          "#pragma once\n#include \"transport/frames.hpp\"\n",
                          "src/transport/frames.hpp", "#pragma once\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LintLayerViolation, SrcMustNotIncludeHarness) {
  const auto fs = run_two("src/util/fixture.hpp",
                          "#pragma once\n#include \"tools/helper.hpp\"\n",
                          "tools/helper.hpp", "#pragma once\n");
  ASSERT_EQ(count_rule(fs, "layer-violation"), 1);
}

TEST(LintLayerViolation, ObsIsIncludableByAppButNotByProtocolLayers) {
  const auto app = run_two("src/app/fixture.hpp",
                           "#pragma once\n#include \"obs/metrics.hpp\"\n",
                           "src/obs/metrics.hpp", "#pragma once\n");
  EXPECT_EQ(count_rule(app, "layer-violation"), 0);
  const auto gcs = run_two("src/gcs/fixture.hpp",
                           "#pragma once\n#include \"obs/metrics.hpp\"\n",
                           "src/obs/metrics.hpp", "#pragma once\n");
  EXPECT_EQ(count_rule(gcs, "layer-violation"), 1);
}

TEST(LintLayerViolation, PragmaSuppresses) {
  const auto fs = run_two(
      "src/transport/fixture.hpp",
      "#pragma once\n"
      "// vsgc-lint: allow(layer-violation) fixture: transitional edge\n"
      "#include \"gcs/view.hpp\"\n",
      "src/gcs/view.hpp", "#pragma once\n");
  EXPECT_EQ(count_rule(fs, "layer-violation", /*suppressed=*/true), 1);
  EXPECT_EQ(count_rule(fs, "layer-violation", /*suppressed=*/false), 0);
}

// --- include-cycle ----------------------------------------------------------

TEST(LintIncludeCycle, MutualIncludeIsFlagged) {
  const auto fs = run_two("src/util/a.hpp",
                          "#pragma once\n#include \"util/b.hpp\"\n",
                          "src/util/b.hpp",
                          "#pragma once\n#include \"util/a.hpp\"\n");
  ASSERT_EQ(count_rule(fs, "include-cycle"), 1);
  const auto it = std::find_if(fs.begin(), fs.end(), [](const Finding& f) {
    return f.rule == "include-cycle";
  });
  ASSERT_NE(it, fs.end());
  EXPECT_EQ(it->file, "src/util/a.hpp");
  EXPECT_NE(
      it->message.find(
          "src/util/a.hpp -> src/util/b.hpp -> src/util/a.hpp"),
      std::string::npos);
}

TEST(LintIncludeCycle, AcyclicChainPasses) {
  Linter linter;
  linter.lint_source("src/util/a.hpp",
                     "#pragma once\n#include \"util/b.hpp\"\n");
  linter.lint_source("src/util/b.hpp",
                     "#pragma once\n#include \"util/c.hpp\"\n");
  linter.lint_source("src/util/c.hpp", "#pragma once\n");
  linter.finalize();
  EXPECT_TRUE(linter.findings().empty());
}

TEST(LintIncludeCycle, PragmaSuppresses) {
  const auto fs = run_two(
      "src/util/a.hpp",
      "#pragma once\n"
      "// vsgc-lint: allow(include-cycle) fixture: being untangled\n"
      "#include \"util/b.hpp\"\n",
      "src/util/b.hpp", "#pragma once\n#include \"util/a.hpp\"\n");
  EXPECT_EQ(count_rule(fs, "include-cycle", /*suppressed=*/true), 1);
  EXPECT_EQ(count_rule(fs, "include-cycle", /*suppressed=*/false), 0);
}

// --- sim-purity -------------------------------------------------------------

TEST(LintSimPurity, UnledgeredSimIncludeIsFlagged) {
  const auto fs = run_one("src/gcs/fixture.hpp",
                          "#pragma once\n#include \"sim/simulator.hpp\"\n");
  ASSERT_EQ(count_rule(fs, "sim-purity"), 1);
  const auto it = std::find_if(fs.begin(), fs.end(), [](const Finding& f) {
    return f.rule == "sim-purity";
  });
  ASSERT_NE(it, fs.end());
  EXPECT_EQ(it->line, 2);
  EXPECT_NE(it->message.find("tools/sim_purity_ledger.txt"),
            std::string::npos);
}

TEST(LintSimPurity, UnledgeredSimSymbolIsFlagged) {
  const auto fs = run_one("src/transport/fixture.hpp",
                          "#pragma once\nTimerHandle retransmit_timer{};\n");
  ASSERT_EQ(count_rule(fs, "sim-purity"), 1);
}

TEST(LintSimPurity, TimeSurfaceIsExempt) {
  // sim/time.hpp is the sanctioned sim surface (Time/Duration/TimerHandle
  // value types): including it from protocol code is the *goal* of the
  // ratchet, never a finding.
  const auto fs = run_one("src/gcs/fixture.hpp",
                          "#pragma once\n#include \"sim/time.hpp\"\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LintSimPurity, OnlyCallShapedScheduleIsFlagged) {
  const auto fs = run_one("src/membership/fixture.cpp",
                          "int schedule = 3;\nint x = schedule + 1;\n");
  EXPECT_EQ(count_rule(fs, "sim-purity"), 0);
  const auto fs2 =
      run_one("src/membership/fixture.cpp", "void f() { schedule(0); }\n");
  EXPECT_EQ(count_rule(fs2, "sim-purity"), 1);
}

TEST(LintSimPurity, OutsideScopePasses) {
  const auto fs = run_one("src/app/fixture.hpp",
                          "#pragma once\n#include \"sim/simulator.hpp\"\n");
  EXPECT_EQ(count_rule(fs, "sim-purity"), 0);
}

TEST(LintSimPurity, LedgeredEntrySuppressesWithRatchetJustification) {
  Linter linter;
  linter.set_sim_ledger("tools/sim_purity_ledger.txt",
                        "# comment line\n"
                        "src/gcs/fixture.hpp include sim/simulator.hpp\n");
  linter.lint_source("src/gcs/fixture.hpp",
                     "#pragma once\n#include \"sim/simulator.hpp\"\n");
  linter.finalize();
  const auto fs = linter.findings();
  EXPECT_EQ(count_rule(fs, "sim-purity", /*suppressed=*/true), 1);
  EXPECT_EQ(count_rule(fs, "sim-purity", /*suppressed=*/false), 0);
  const auto it = std::find_if(fs.begin(), fs.end(), [](const Finding& f) {
    return f.rule == "sim-purity";
  });
  ASSERT_NE(it, fs.end());
  EXPECT_NE(it->justification.find("ratchet"), std::string::npos);
}

TEST(LintSimPurity, StaleLedgerEntryIsFlaggedAtTheLedger) {
  Linter linter;
  linter.set_sim_ledger("tools/sim_purity_ledger.txt",
                        "src/gcs/gone.hpp symbol Simulator\n");
  linter.lint_source("src/gcs/fixture.hpp", "#pragma once\n");
  linter.finalize();
  const auto fs = linter.findings();
  ASSERT_EQ(count_rule(fs, "sim-purity", /*suppressed=*/false), 1);
  const auto it = std::find_if(fs.begin(), fs.end(), [](const Finding& f) {
    return f.rule == "sim-purity";
  });
  ASSERT_NE(it, fs.end());
  EXPECT_EQ(it->file, "tools/sim_purity_ledger.txt");
  EXPECT_EQ(it->line, 1);
  EXPECT_NE(it->message.find("stale"), std::string::npos);
}

TEST(LintSimPurity, MalformedLedgerLineIsFlagged) {
  Linter linter;
  linter.set_sim_ledger("tools/sim_purity_ledger.txt",
                        "src/gcs/fixture.hpp frobnicate\n");
  linter.lint_source("src/gcs/fixture.hpp", "#pragma once\n");
  linter.finalize();
  const auto fs = linter.findings();
  ASSERT_EQ(count_rule(fs, "sim-purity", /*suppressed=*/false), 1);
  EXPECT_NE(fs[0].message.find("malformed"), std::string::npos);
}

// --- deps artifact ----------------------------------------------------------

TEST(LintDeps, ArtifactHasSchemaFieldsAndDotHeader) {
  Linter linter;
  linter.lint_source("src/gcs/fixture.hpp",
                     "#pragma once\n#include \"transport/frames.hpp\"\n");
  linter.lint_source("src/transport/frames.hpp", "#pragma once\n");
  linter.finalize();

  std::string error;
  const obs::JsonValue doc =
      obs::JsonValue::parse(linter.deps_json(".").dump_pretty(), &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(doc.find("tool")->as_string(), "vsgc_deps");
  EXPECT_EQ(doc.find("schema_version")->as_int(), 1);
  EXPECT_EQ(doc.find("files")->as_int(), 2);
  EXPECT_EQ(doc.find("internal_edges")->as_int(), 1);
  EXPECT_EQ(doc.find("cycles")->as_int(), 0);
  EXPECT_EQ(doc.find("layer_violations")->as_int(), 0);
  const obs::JsonValue* modules = doc.find("modules");
  ASSERT_TRUE(modules != nullptr && modules->is_array());
  EXPECT_EQ(modules->size(), 2u);

  const std::string dot = linter.deps_dot();
  EXPECT_NE(dot.find("digraph vsgc_modules"), std::string::npos);
  EXPECT_NE(dot.find("\"gcs\" -> \"transport\""), std::string::npos);
}

// --- artifact schema --------------------------------------------------------

TEST(LintJson, ArtifactHasSchemaFieldsAndRoundTrips) {
  Linter linter;
  linter.lint_source("src/sim/fixture.cpp",
                     "int f() { return std::rand(); }\n");
  linter.finalize();
  const std::string text = linter.to_json(".").dump_pretty();

  std::string error;
  const obs::JsonValue doc = obs::JsonValue::parse(text, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("tool")->as_string(), "vsgc_lint");
  EXPECT_EQ(doc.find("schema_version")->as_int(), 1);
  EXPECT_EQ(doc.find("files_scanned")->as_int(), 1);
  EXPECT_EQ(doc.find("unsuppressed")->as_int(), 1);
  EXPECT_EQ(doc.find("suppressed")->as_int(), 0);
  const obs::JsonValue* findings = doc.find("findings");
  ASSERT_TRUE(findings != nullptr && findings->is_array());
  ASSERT_EQ(findings->size(), 1u);
  const obs::JsonValue& row = findings->at(0);
  EXPECT_EQ(row.find("file")->as_string(), "src/sim/fixture.cpp");
  EXPECT_EQ(row.find("line")->as_int(), 1);
  EXPECT_EQ(row.find("rule")->as_string(), "banned-random");
  EXPECT_FALSE(row.find("suppressed")->as_bool());
}

// Deterministic output: two identical runs produce byte-identical artifacts
// (the property the CI JSON diff gate relies on).
TEST(LintJson, ArtifactIsByteDeterministic) {
  auto render = [] {
    Linter linter;
    linter.lint_source("src/sim/fixture.cpp",
                       "int a = std::rand();\nint b = time(nullptr);\n");
    linter.finalize();
    return linter.to_json(".").dump_pretty();
  };
  EXPECT_EQ(render(), render());
}

}  // namespace
}  // namespace vsgc::lint
