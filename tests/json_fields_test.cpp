// JSON record tests, driven by the field lists that obs/json_fields.hpp
// derives every mapping from: one non-default instance of every trace event
// type and a fault script covering every op kind, pinned byte for byte by
// golden records; write -> read -> write byte-identical per type; and, per
// type, dropping any declared field or changing its JSON kind fails the
// reader. The JSONL and script formats are part of the public contract
// (repro bundles replay across versions).
#include "obs/json_fields.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "gcs/process.hpp"
#include "mc/explorer.hpp"
#include "mc/schedule_script.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/failure_injector.hpp"

namespace vsgc {
namespace {

using sim::FaultOp;
using sim::FaultScript;

std::vector<spec::Event> sample_events() {
  const View v(ViewId{3, 2}, {ProcessId{1}, ProcessId{2}, ProcessId{3}},
               {{ProcessId{1}, StartChangeId{4}},
                {ProcessId{2}, StartChangeId{5}},
                {ProcessId{3}, StartChangeId{6}}});
  const gcs::AppMsg msg{ProcessId{1}, 7, "hi \x01 \"there\""};
  const ProcessId p1{1}, p2{2}, p3{3}, p4{4};
  return {
      {10, spec::GcsSend{p1, msg}},
      {20, spec::GcsDeliver{p2, p1, msg}},
      {30, spec::GcsView{p2, v, {p1, p2}}},
      {40, spec::GcsBlock{p3}},
      {50, spec::GcsBlockOk{p3}},
      {60, spec::MbrStartChange{p1, StartChangeId{9}, {p1, p2}}},
      {70, spec::MbrView{p1, v}},
      {80, spec::Crash{p4}},
      {90, spec::Recover{p4}},
      {100, spec::FaultInjected{"partition", "p1 p2 | p3 s0"}},
      {110, spec::MsgWireSend{p1, p1, ~std::uint64_t{0}}},
      {120, spec::MsgRecv{p2, p3, p1, 12, true}},
      {130, spec::MsgForward{p3, p1, 12, 2}},
      {140, spec::SyncSent{p2, StartChangeId{9}}},
      {150, spec::SyncRecv{p2, p1, StartChangeId{9}}},
      {160, spec::XportRetransmit{4294967295u, 1000002u, 5}},
      {170, spec::MbrPhase{1000001u, "round_start", std::uint64_t{1} << 40}},
  };
}

// Pinned bytes: a change here is a format change, and recorded traces and
// repro bundles stop replaying byte-identically.
constexpr const char* kGoldenJsonl =
    R"({"at":10,"type":"gcs_send","p":1,"msg":{"sender":1,"uid":7,"payload":"hi \u0001 \"there\""}}
{"at":20,"type":"gcs_deliver","p":2,"q":1,"msg":{"sender":1,"uid":7,"payload":"hi \u0001 \"there\""}}
{"at":30,"type":"gcs_view","p":2,"view":{"epoch":3,"origin":2,"members":[1,2,3],"start_id":{"1":4,"2":5,"3":6}},"transitional":[1,2]}
{"at":40,"type":"gcs_block","p":3}
{"at":50,"type":"gcs_block_ok","p":3}
{"at":60,"type":"mbr_start_change","p":1,"cid":9,"set":[1,2]}
{"at":70,"type":"mbr_view","p":1,"view":{"epoch":3,"origin":2,"members":[1,2,3],"start_id":{"1":4,"2":5,"3":6}}}
{"at":80,"type":"crash","p":4}
{"at":90,"type":"recover","p":4}
{"at":100,"type":"fault","kind":"partition","detail":"p1 p2 | p3 s0"}
{"at":110,"type":"msg_wire_send","p":1,"sender":1,"uid":-1}
{"at":120,"type":"msg_recv","p":2,"from":3,"sender":1,"uid":12,"fwd":true}
{"at":130,"type":"msg_forward","p":3,"sender":1,"uid":12,"copies":2}
{"at":140,"type":"sync_sent","p":2,"cid":9}
{"at":150,"type":"sync_recv","p":2,"from":1,"cid":9}
{"at":160,"type":"xport_retransmit","from_node":4294967295,"to_node":1000002,"packets":5}
{"at":170,"type":"mbr_phase","node":1000001,"phase":"round_start","round":1099511627776}
)";

FaultScript sample_script() {
  using K = FaultOp::Kind;
  FaultScript s;
  s.seed = 42;
  const auto op = [&s](K kind) -> FaultOp& {
    FaultOp o;
    o.at = static_cast<sim::Time>(s.ops.size() + 1) * 1000;
    o.kind = kind;
    s.ops.push_back(o);
    return s.ops.back();
  };
  op(K::kCrash).a = 1;
  op(K::kRecover).a = 1;
  op(K::kLeave).a = 2;
  op(K::kRejoin).a = 2;
  op(K::kServerDown).a = 1;
  op(K::kServerUp).a = 1;
  op(K::kPartition).groups = {{0, 1, sim::encode_server(0)},
                              {2, 3, sim::encode_server(1)}};
  op(K::kWave).groups = {{0, 2}};
  op(K::kWaveLift).groups = {{0, 2}};
  op(K::kHeal);
  {
    FaultOp& o = op(K::kLinkDown);
    o.a = 0;
    o.b = sim::encode_server(0);
    o.oneway = true;
  }
  {
    FaultOp& o = op(K::kLinkUp);
    o.a = 1;
    o.b = 2;
  }
  op(K::kDrop).p = 0.25;
  {
    FaultOp& o = op(K::kLatency);
    o.t0 = 25000;
    o.t1 = 5000;
  }
  op(K::kCrashInDelivery).a = 3;
  {
    FaultOp& o = op(K::kTraffic);
    o.a = 1;
    o.payload = "x\x01y";
  }
  op(K::kBugDupDeliver);
  const auto corrupt = [&op](K kind, int a, int b, std::uint64_t v) {
    FaultOp& o = op(kind);
    o.a = a;
    o.b = b;
    o.v = v;
  };
  corrupt(K::kCorruptSeq, 0, 1, 4);
  corrupt(K::kCorruptAck, 1, 0, 3);
  corrupt(K::kCorruptReliable, 2, 3, 1);
  corrupt(K::kCorruptView, 3, -1, std::uint64_t{1} << 40);
  corrupt(K::kCorruptBackoff, 0, 2, 7);
  corrupt(K::kBugCorruptWedge, 1, -1, ~std::uint64_t{0});
  s.end_at = 24000;
  return s;
}

// Pinned bytes, as for kGoldenJsonl.
constexpr const char* kGoldenFaultScript =
    R"({"seed":42,"end_at":24000,"ops":[{"at":1000,"kind":"crash","a":1},{"at":2000,"kind":"recover","a":1},{"at":3000,"kind":"leave","a":2},{"at":4000,"kind":"rejoin","a":2},{"at":5000,"kind":"server_down","a":1},{"at":6000,"kind":"server_up","a":1},{"at":7000,"kind":"partition","groups":[[0,1,-1],[2,3,-2]]},{"at":8000,"kind":"wave","groups":[[0,2]]},{"at":9000,"kind":"wave_lift","groups":[[0,2]]},{"at":10000,"kind":"heal"},{"at":11000,"kind":"link_down","a":0,"b":-1,"oneway":true},{"at":12000,"kind":"link_up","a":1,"b":2,"oneway":false},{"at":13000,"kind":"drop","p":0.25},{"at":14000,"kind":"latency","t0":25000,"t1":5000},{"at":15000,"kind":"crash_in_delivery","a":3},{"at":16000,"kind":"traffic","a":1,"payload":"x\u0001y"},{"at":17000,"kind":"bug_dup_deliver"},{"at":18000,"kind":"corrupt_seq","a":0,"b":1,"v":4},{"at":19000,"kind":"corrupt_ack","a":1,"b":0,"v":3},{"at":20000,"kind":"corrupt_reliable_set","a":2,"b":3,"v":1},{"at":21000,"kind":"corrupt_view_id","a":3,"v":1099511627776},{"at":22000,"kind":"corrupt_backoff","a":0,"b":2,"v":7},{"at":23000,"kind":"bug_corrupt_wedge","a":1,"v":-1}]})";

obs::JsonValue parse(const std::string& text) {
  std::string error;
  obs::JsonValue j = obs::JsonValue::parse(text, &error);
  EXPECT_TRUE(error.empty()) << error << " in " << text;
  return j;
}

/// `obj` with member `i` dropped (nullopt) or replaced.
obs::JsonValue with_member(const obs::JsonValue& obj, std::size_t i,
                           const std::optional<obs::JsonValue>& value) {
  obs::JsonValue out = obs::JsonValue::object();
  for (std::size_t k = 0; k < obj.members().size(); ++k) {
    const auto& [key, member] = obj.members()[k];
    if (k != i) {
      out[key] = member;
    } else if (value) {
      out[key] = *value;
    }
  }
  return out;
}

/// Every copy of `obj` with one declared field dropped or given the wrong
/// JSON kind, recursing into nested records. A `start_id` object is a map,
/// not a record: its entries are data, so only the member itself mutates.
std::vector<obs::JsonValue> mutants(const obs::JsonValue& obj) {
  std::vector<obs::JsonValue> out;
  for (std::size_t i = 0; i < obj.members().size(); ++i) {
    const auto& [key, member] = obj.members()[i];
    const obs::JsonValue wrong_kind =
        member.is_string() ? obs::JsonValue(1) : obs::JsonValue("x");
    out.push_back(with_member(obj, i, std::nullopt));
    out.push_back(with_member(obj, i, wrong_kind));
    if (member.is_object() && key != "start_id") {
      for (obs::JsonValue& inner : mutants(member)) {
        out.push_back(with_member(obj, i, std::move(inner)));
      }
    }
  }
  return out;
}

/// The per-type contract: write -> read -> write is byte-identical, and
/// every single-field mutant of the written record is rejected.
template <class T>
void expect_strict_round_trip(const T& x) {
  const std::string text = obs::to_json(x).dump();
  T back{};
  ASSERT_TRUE(obs::from_json(parse(text), &back)) << text;
  EXPECT_EQ(obs::to_json(back).dump(), text);
  for (const obs::JsonValue& m : mutants(parse(text))) {
    T out{};
    EXPECT_FALSE(obs::from_json(m, &out)) << "accepted " << m.dump();
  }
}

// ---------------------------------------------------------------- events

TEST(JsonFields, SampleEventsCoverEveryEventType) {
  std::set<std::size_t> seen;
  for (const spec::Event& ev : sample_events()) seen.insert(ev.body.index());
  EXPECT_EQ(seen.size(), std::variant_size_v<spec::EventBody>);
  EXPECT_EQ(sample_events().size(), std::variant_size_v<spec::EventBody>);
}

TEST(JsonFields, EventsMatchGoldenJsonl) {
  std::ostringstream os;
  obs::write_jsonl(sample_events(), os);
  EXPECT_EQ(os.str(), kGoldenJsonl);

  std::istringstream is(kGoldenJsonl);
  std::vector<spec::Event> parsed;
  ASSERT_TRUE(obs::read_jsonl(is, &parsed));
  std::ostringstream again;
  obs::write_jsonl(parsed, again);
  EXPECT_EQ(again.str(), kGoldenJsonl);
}

TEST(JsonFields, EveryEventTypeRoundTripsAndRejectsEachBrokenField) {
  for (const spec::Event& ev : sample_events()) {
    SCOPED_TRACE(obs::to_json(ev).dump());
    expect_strict_round_trip(ev);
  }
}

TEST(JsonFields, EventReaderChecksRangesKeysAndTypeNames) {
  spec::Event ev;
  EXPECT_TRUE(obs::from_json(parse(R"({"at":1,"type":"crash","p":4294967295})"), &ev));
  EXPECT_FALSE(obs::from_json(parse(R"({"at":1,"type":"crash","p":4294967296})"), &ev));
  EXPECT_FALSE(obs::from_json(parse(R"({"at":1,"type":"crash","p":-1})"), &ev));
  EXPECT_FALSE(obs::from_json(parse(R"({"at":1,"type":"crash","p":1.5})"), &ev));
  EXPECT_FALSE(obs::from_json(parse(R"({"at":1,"type":"nonsense","p":1})"), &ev));
  EXPECT_FALSE(obs::from_json(parse(R"([1,2])"), &ev));
  // Unknown keys are ignored.
  ASSERT_TRUE(obs::from_json(parse(R"({"at":1,"type":"crash","p":2,"x":[]})"), &ev));
  EXPECT_EQ(std::get<spec::Crash>(ev.body).p, ProcessId{2});

  // start_id keys are decimal pids within range; values are integers.
  const std::string view =
      R"({"at":1,"type":"mbr_view","p":1,"view":{"epoch":1,"origin":1,"members":[1],"start_id":)";
  EXPECT_TRUE(obs::from_json(parse(view + R"({"1":2}}})"), &ev));
  for (const char* bad : {R"({"x":2})", R"({"":2})", R"({"-1":2})",
                          R"({"1x":2})", R"({"4294967296":2})",
                          R"({"1":"2"})"}) {
    EXPECT_FALSE(obs::from_json(parse(view + bad + "}}"), &ev)) << bad;
  }
}

// ----------------------------------------------------------- fault script

TEST(JsonFields, SampleScriptCoversEveryFaultKind) {
  std::set<FaultOp::Kind> kinds;
  for (const FaultOp& op : sample_script().ops) kinds.insert(op.kind);
  EXPECT_EQ(kinds.size(), sim::enum_names(FaultOp::Kind{}).size());
}

TEST(JsonFields, FaultScriptMatchesGolden) {
  EXPECT_EQ(obs::to_json(sample_script()).dump(), kGoldenFaultScript);
}

TEST(JsonFields, FaultScriptRoundTripsAndRejectsEachBrokenField) {
  const FaultScript script = sample_script();
  expect_strict_round_trip(script);
  for (const FaultOp& op : script.ops) {
    SCOPED_TRACE(op.name());
    expect_strict_round_trip(op);
  }
}

TEST(JsonFields, FaultOpReaderRequiresExactlyTheFieldsItsKindCarries) {
  FaultOp op;
  EXPECT_FALSE(obs::from_json(parse(R"({"at":0,"kind":"leave"})"), &op));
  EXPECT_FALSE(obs::from_json(parse(R"({"at":0,"kind":"crash","a":"x"})"), &op));
  EXPECT_FALSE(obs::from_json(parse(R"({"at":0,"kind":"crash","a":2147483648})"), &op));
  EXPECT_FALSE(obs::from_json(parse(R"({"at":0,"kind":"explode","a":1})"), &op));
  EXPECT_FALSE(obs::from_json(parse(R"({"at":0,"kind":"link_up","a":1,"b":2})"), &op));
  // Fields a kind does not carry are unknown keys: ignored, not read.
  op = FaultOp{};
  ASSERT_TRUE(obs::from_json(parse(R"({"at":5,"kind":"heal","a":"x","b":3})"), &op));
  EXPECT_EQ(op.kind, FaultOp::Kind::kHeal);
  EXPECT_EQ(op.at, 5);
  EXPECT_EQ(op.b, -1);
}

// ---------------------------------------------- schedules, configs, stats

TEST(JsonFields, ScheduleScriptRoundTripsAndRejectsEachBrokenField) {
  mc::ScheduleScript script;
  script.seed = 99;
  script.choices = {{"sim.tiebreak", 3, 1}, {"mc.fault", 8, 7}};
  expect_strict_round_trip(script);
  expect_strict_round_trip(script.choices.front());
  mc::Choice c;
  EXPECT_FALSE(obs::from_json(parse(R"({"kind":"x","n":-1,"pick":0})"), &c));
}

TEST(JsonFields, ScenarioConfigRoundTripsAndRejectsEachBrokenField) {
  mc::ScenarioConfig sc;
  sc.clients = 5;
  sc.servers = 2;
  sc.seed = ~std::uint64_t{0};
  sc.messages = 3;
  sc.trigger_leave = false;
  sc.fault_slots = 2;
  sc.drop = 0.5;
  sc.jitter = 7;
  sc.inject_bug = true;
  sc.corruption = true;
  expect_strict_round_trip(sc);
  // An integer is a valid JSON number for a double field.
  obs::JsonValue j = obs::to_json(sc);
  j["drop"] = 0;
  mc::ScenarioConfig back;
  ASSERT_TRUE(obs::from_json(j, &back));
  EXPECT_EQ(back.drop, 0.0);
  j["clients"] = std::int64_t{INT_MAX} + 1;
  EXPECT_FALSE(obs::from_json(j, &back));
}

TEST(JsonFields, ExploreStatsRoundTripWithTheirLevels) {
  mc::ExploreStats stats;
  stats.runs = 12;
  stats.deduped = 3;
  stats.choice_points = 400;
  stats.unique_traces = 9;
  stats.violations = 1;
  stats.depth_completed = 1;
  stats.frontier_exhausted = true;
  stats.levels = {{0, 1, 0, 6}, {1, 11, 3, 40}};
  expect_strict_round_trip(stats);
}

TEST(JsonFields, EnumFieldsMapThroughTheirNameTable) {
  using Forwarding = obs::JsonField<gcs::ForwardingKind>;
  EXPECT_EQ(Forwarding::put(gcs::ForwardingKind::kSimple).as_string(),
            "simple");
  gcs::ForwardingKind kind = gcs::ForwardingKind::kSimple;
  ASSERT_TRUE(Forwarding::get(obs::JsonValue("mincopies"), &kind));
  EXPECT_EQ(kind, gcs::ForwardingKind::kMinCopies);
  EXPECT_FALSE(Forwarding::get(obs::JsonValue("bogus"), &kind));
  EXPECT_FALSE(Forwarding::get(obs::JsonValue(1), &kind));
  EXPECT_EQ(kind, gcs::ForwardingKind::kMinCopies);
}

}  // namespace
}  // namespace vsgc
