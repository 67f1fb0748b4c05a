// Tests for the vsgc::obs observability subsystem: metric primitive
// semantics, JSONL round-trip of recorded traces, metrics derived from a
// scripted view change, Chrome-trace export, and the determinism guarantee
// that same-seed executions produce byte-identical trace files.
#include <gtest/gtest.h>

#include <sstream>

#include "app/world.hpp"
#include "obs/artifact.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_collector.hpp"
#include "obs/trace_recorder.hpp"
#include "obs/xport_metrics.hpp"

namespace vsgc {
namespace {

// ---------------------------------------------------------------- JSON model

TEST(Json, ScalarRoundTrip) {
  EXPECT_EQ(obs::JsonValue(42).dump(), "42");
  EXPECT_EQ(obs::JsonValue(-7).dump(), "-7");
  EXPECT_EQ(obs::JsonValue(true).dump(), "true");
  EXPECT_EQ(obs::JsonValue(false).dump(), "false");
  EXPECT_EQ(obs::JsonValue().dump(), "null");
  EXPECT_EQ(obs::JsonValue("hi").dump(), "\"hi\"");
  EXPECT_EQ(obs::JsonValue(0.3).dump(), "0.3");
  EXPECT_EQ(obs::JsonValue(2.0).dump(), "2.0");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(obs::JsonValue("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
  // Non-ASCII bytes escape to \u00XX and decode back to the same byte.
  const std::string payload = "x\x01\xffy";
  const std::string text = obs::JsonValue(payload).dump();
  std::string error;
  const obs::JsonValue parsed = obs::JsonValue::parse(text, &error);
  ASSERT_TRUE(parsed.is_string()) << error;
  EXPECT_EQ(parsed.as_string(), payload);
}

TEST(Json, ParseDocument) {
  std::string error;
  const obs::JsonValue v = obs::JsonValue::parse(
      R"({"a": [1, 2.5, "x"], "b": {"c": true, "d": null}})", &error);
  ASSERT_TRUE(v.is_object()) << error;
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("a")->at(0).as_int(), 1);
  EXPECT_DOUBLE_EQ(v.find("a")->at(1).as_double(), 2.5);
  EXPECT_EQ(v.find("a")->at(2).as_string(), "x");
  EXPECT_TRUE(v.find("b")->find("c")->as_bool());
  EXPECT_TRUE(v.find("b")->find("d")->is_null());
}

TEST(Json, ParseErrors) {
  std::string error;
  EXPECT_TRUE(obs::JsonValue::parse("{", &error).is_null());
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(obs::JsonValue::parse("[1,]", &error).is_null());
  EXPECT_TRUE(obs::JsonValue::parse("{\"a\":1} trailing", &error).is_null());
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  obs::JsonValue v = obs::JsonValue::object();
  v["zebra"] = 1;
  v["alpha"] = 2;
  EXPECT_EQ(v.dump(), "{\"zebra\":1,\"alpha\":2}");
}

// ----------------------------------------------------------- metric primitives

TEST(Metrics, CounterSemantics) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(9);
  EXPECT_EQ(c.value(), 10u);
  // Same (name, labels) key => same instance; different labels => distinct.
  EXPECT_EQ(&reg.counter("test.counter"), &c);
  obs::Counter& labeled = reg.counter("test.counter", obs::process_labels(1));
  EXPECT_NE(&labeled, &c);
  labeled.inc(5);
  EXPECT_EQ(reg.counter_total("test.counter"), 15u);
}

TEST(Metrics, HistogramLogBuckets) {
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3);
  EXPECT_EQ(obs::Histogram::bucket_of(1023), 10);
  EXPECT_EQ(obs::Histogram::bucket_of(1024), 11);

  obs::Histogram h;
  for (int v : {1, 2, 3, 100, 1000}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1106u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1106.0 / 5.0);
  // Quantiles report the containing bucket's upper bound, clamped to max.
  EXPECT_LE(h.quantile(0.5), 3u);
  EXPECT_EQ(h.quantile(1.0), 1000u);
  // Negative samples clamp to zero rather than corrupting buckets.
  obs::Histogram neg;
  neg.observe(-5);
  EXPECT_EQ(neg.min(), 0u);
  EXPECT_EQ(neg.count(), 1u);
}

TEST(Metrics, RegistryJsonIsDeterministicAndSorted) {
  obs::Registry reg;
  reg.counter("b.metric").inc(2);
  reg.counter("a.metric", obs::process_labels(2)).inc(1);
  reg.counter("a.metric", obs::process_labels(1)).inc(1);
  reg.histogram("h").observe(7);
  const std::string dump = reg.to_json().dump();
  // Export iterates in (name, labels) order regardless of creation order.
  EXPECT_LT(dump.find("a.metric"), dump.find("b.metric"));
  EXPECT_LT(dump.find("\"p1\""), dump.find("\"p2\""));

  obs::Registry reg2;
  reg2.histogram("h").observe(7);
  reg2.counter("a.metric", obs::process_labels(1)).inc(1);
  reg2.counter("a.metric", obs::process_labels(2)).inc(1);
  reg2.counter("b.metric").inc(2);
  EXPECT_EQ(dump, reg2.to_json().dump());
}

// ------------------------------------------------------- scripted view change

/// Script of a reconfiguration at p1, with one view that became obsolete
/// before installation (timestamps in microseconds).
std::vector<spec::Event> scripted_view_change() {
  const ProcessId p1{1};
  const ProcessId p2{2};
  View v1;
  v1.id = ViewId{1, 0};
  v1.members = {p1, p2};
  v1.start_id = {{p1, StartChangeId{1}}, {p2, StartChangeId{1}}};
  View v2 = v1;
  v2.id = ViewId{2, 0};
  v2.start_id = {{p1, StartChangeId{2}}, {p2, StartChangeId{2}}};

  std::vector<spec::Event> events;
  events.push_back({0, spec::MbrStartChange{p1, StartChangeId{1}, {p1, p2}}});
  events.push_back({500, spec::GcsBlock{p1}});
  events.push_back({600, spec::GcsBlockOk{p1}});
  events.push_back({1000, spec::MbrView{p1, v1}});  // mbr round: 1000us
  // v1 is superseded before p1 can install it:
  events.push_back({1500, spec::MbrStartChange{p1, StartChangeId{2}, {p1, p2}}});
  events.push_back({2500, spec::MbrView{p1, v2}});
  events.push_back({3000, spec::GcsView{p1, v2, {p1, p2}}});
  events.push_back(
      {3200, spec::GcsSend{p1, gcs::AppMsg{p1, 1, "payload"}}});
  events.push_back(
      {3400, spec::GcsDeliver{p1, p1, gcs::AppMsg{p1, 1, "payload"}}});
  return events;
}

TEST(MetricsCollector, DerivesHeadlineMetricsFromScriptedChange) {
  obs::Registry reg;
  obs::MetricsCollector collector(reg);
  spec::TraceBus bus;
  bus.subscribe(collector);
  for (const spec::Event& ev : scripted_view_change()) {
    bus.emit(ev.at, ev.body);
  }

  EXPECT_EQ(reg.counter_total("mbr.start_changes"), 2u);
  EXPECT_EQ(reg.counter_total("mbr.views"), 2u);
  EXPECT_EQ(reg.counter_total("gcs.views_installed"), 1u);
  EXPECT_EQ(reg.counter_total("gcs.blocks"), 1u);
  EXPECT_EQ(reg.counter_total("gcs.block_oks"), 1u);
  // v1 was announced but never installed => exactly one obsolete view.
  EXPECT_EQ(reg.counter_total("gcs.obsolete_views"), 1u);
  EXPECT_EQ(reg.counter_total("gcs.msgs_sent"), 1u);
  EXPECT_EQ(reg.counter_total("gcs.msgs_delivered"), 1u);
  EXPECT_EQ(reg.counter_total("gcs.payload_bytes_sent"), 7u);

  // View-change latency: first start_change (t=0) -> install (t=3000).
  const obs::Histogram& vc = reg.histogram("gcs.view_change_latency_us");
  EXPECT_EQ(vc.count(), 1u);
  EXPECT_EQ(vc.sum(), 3000u);
  // Blocking window: block (t=500) -> install (t=3000).
  EXPECT_EQ(reg.histogram("gcs.blocking_window_us").sum(), 2500u);
  // Membership rounds: 0->1000 and 1500->2500.
  const obs::Histogram& mr = reg.histogram("mbr.round_us");
  EXPECT_EQ(mr.count(), 2u);
  EXPECT_EQ(mr.sum(), 2000u);
  // Two start_changes were collapsed into the single installed view.
  EXPECT_EQ(reg.histogram("gcs.sync_rounds_per_view").sum(), 2u);
}

TEST(MetricsCollector, CrashResetsOpenIntervals) {
  obs::Registry reg;
  obs::MetricsCollector collector(reg);
  spec::TraceBus bus;
  bus.subscribe(collector);
  const ProcessId p1{1};
  bus.emit(0, spec::MbrStartChange{p1, StartChangeId{1}, {p1}});
  bus.emit(100, spec::GcsBlock{p1});
  bus.emit(200, spec::Crash{p1});
  bus.emit(300, spec::Recover{p1});
  View v = View::initial(p1);
  v.id = ViewId{1, 0};
  v.start_id = {{p1, StartChangeId{1}}};
  bus.emit(5000, spec::GcsView{p1, v, {p1}});
  // The pre-crash block/start_change must not pair with the post-recovery
  // view: no bogus 4900us windows.
  EXPECT_EQ(reg.histogram("gcs.blocking_window_us").count(), 0u);
  EXPECT_EQ(reg.histogram("gcs.view_change_latency_us").count(), 0u);
  EXPECT_EQ(reg.counter_total("crashes"), 1u);
  EXPECT_EQ(reg.counter_total("recoveries"), 1u);
}

// ------------------------------------------------------------ trace recorder

TEST(TraceRecorder, JsonlRoundTripOfScriptedTrace) {
  spec::TraceBus bus;
  bus.set_recording(true);
  for (const spec::Event& ev : scripted_view_change()) {
    bus.emit(ev.at, ev.body);
  }

  std::ostringstream first;
  obs::write_jsonl(bus.recorded(), first);
  ASSERT_FALSE(first.str().empty());

  std::istringstream is(first.str());
  std::vector<spec::Event> parsed;
  ASSERT_TRUE(obs::read_jsonl(is, &parsed));
  ASSERT_EQ(parsed.size(), bus.recorded().size());

  // Round-trip fidelity: re-serializing the parsed events is byte-identical.
  std::ostringstream second;
  obs::write_jsonl(parsed, second);
  EXPECT_EQ(first.str(), second.str());

  // Spot-check a structured field survived: the installed view.
  const auto* view = std::get_if<spec::GcsView>(&parsed[6].body);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->view.id, (ViewId{2, 0}));
  EXPECT_EQ(view->view.start_id.at(ProcessId{1}), StartChangeId{2});
  EXPECT_EQ(view->transitional, (std::set<ProcessId>{{1}, {2}}));
}

TEST(TraceRecorder, FaultEventsRoundTripThroughJsonl) {
  // FaultInjected records carry no "p" tag — a dedicated parse path.
  spec::TraceBus bus;
  bus.set_recording(true);
  bus.emit(10, spec::FaultInjected{"partition", "groups=[p1 p2 | p3 s0]"});
  bus.emit(20, spec::Crash{ProcessId{1}});
  bus.emit(30, spec::FaultInjected{"stabilize", ""});

  std::ostringstream first;
  obs::write_jsonl(bus.recorded(), first);
  std::istringstream is(first.str());
  std::vector<spec::Event> parsed;
  ASSERT_TRUE(obs::read_jsonl(is, &parsed));
  ASSERT_EQ(parsed.size(), 3u);

  const auto* fault = std::get_if<spec::FaultInjected>(&parsed[0].body);
  ASSERT_NE(fault, nullptr);
  EXPECT_EQ(parsed[0].at, 10);
  EXPECT_EQ(fault->kind, "partition");
  EXPECT_EQ(fault->detail, "groups=[p1 p2 | p3 s0]");

  std::ostringstream second;
  obs::write_jsonl(parsed, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(TraceRecorder, RejectsMalformedJsonl) {
  std::istringstream is("{\"at\":1,\"type\":\"nonsense\",\"p\":1}\n");
  std::vector<spec::Event> parsed;
  EXPECT_FALSE(obs::read_jsonl(is, &parsed));
  std::istringstream garbage("not json at all\n");
  parsed.clear();
  EXPECT_FALSE(obs::read_jsonl(garbage, &parsed));
  // A non-decimal start_id key, and pids outside 32 bits, fail the line
  // instead of throwing or wrapping.
  for (const char* line :
       {R"({"at":1,"type":"gcs_view","p":1,"view":{"epoch":1,"origin":1,"members":[1],"start_id":{"x":1}},"transitional":[1]})",
        R"({"at":1,"type":"crash","p":-1})",
        R"({"at":1,"type":"crash","p":4294967297})"}) {
    std::istringstream bad(std::string(line) + "\n");
    parsed.clear();
    EXPECT_FALSE(obs::read_jsonl(bad, &parsed)) << line;
  }
}

TEST(TraceRecorder, ChromeTraceShowsOverlappingRounds) {
  spec::TraceBus bus;
  bus.set_recording(true);
  for (const spec::Event& ev : scripted_view_change()) {
    bus.emit(ev.at, ev.body);
  }
  std::ostringstream os;
  obs::write_chrome_trace(bus.recorded(), os);

  std::string error;
  const obs::JsonValue doc = obs::JsonValue::parse(os.str(), &error);
  ASSERT_TRUE(doc.is_object()) << error;
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  bool saw_mbr_round = false;
  bool saw_view_change = false;
  bool saw_blocked = false;
  for (const obs::JsonValue& ev : events->items()) {
    const obs::JsonValue* name = ev.find("name");
    const obs::JsonValue* ph = ev.find("ph");
    if (name == nullptr || ph == nullptr) continue;
    if (ph->as_string() != "X") continue;
    const std::string& n = name->as_string();
    const std::int64_t ts = ev.find("ts")->as_int();
    const std::int64_t dur = ev.find("dur")->as_int();
    if (n.starts_with("mbrshp round cid:1")) {
      saw_mbr_round = true;
      EXPECT_EQ(ts, 0);
    }
    if (n.starts_with("view change")) {
      saw_view_change = true;
      // The VS round span covers the membership round: the overlap the
      // paper's E1 claim is about, visible as parallel tracks in Perfetto.
      EXPECT_EQ(ts, 0);
      EXPECT_EQ(ts + dur, 3000);
    }
    if (n == "blocked") {
      saw_blocked = true;
      EXPECT_EQ(ts, 500);
      EXPECT_EQ(ts + dur, 3000);
    }
  }
  EXPECT_TRUE(saw_mbr_round);
  EXPECT_TRUE(saw_view_change);
  EXPECT_TRUE(saw_blocked);
}

// ----------------------------------------------------- determinism & artifact

std::string jsonl_of_seeded_run(std::uint64_t seed) {
  app::WorldConfig cfg;
  cfg.num_clients = 3;
  cfg.num_servers = 1;
  cfg.seed = seed;
  cfg.net.jitter = 300;
  cfg.attach_checkers = false;
  app::World w(cfg);
  w.start();
  w.run_until_converged(w.all_members(), 10 * sim::kSecond);
  w.client(0).send("hello");
  w.process(2).crash();
  w.run_for(5 * sim::kSecond);
  std::ostringstream os;
  obs::write_jsonl(w.trace().recorded(), os);
  return os.str();
}

TEST(TraceRecorder, SameSeedProducesByteIdenticalJsonl) {
  const std::string a = jsonl_of_seeded_run(11);
  const std::string b = jsonl_of_seeded_run(11);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "trace files must be a pure function of the seed";
  EXPECT_NE(a, jsonl_of_seeded_run(12));
}

TEST(BenchArtifact, SchemaAndSimSection) {
  obs::BenchArtifact art("unit_test");
  art.config("alpha") = 0.5;
  obs::JsonValue& row = art.add_result();
  row["x"] = 1;
  sim::Simulator sim;
  sim.schedule(1, [] {});
  sim.run_to_quiescence();
  art.tally(sim);
  obs::Registry reg;
  reg.counter("c").inc(3);
  art.set_metrics(reg);

  const obs::JsonValue& root = art.root();
  EXPECT_EQ(root.find("bench")->as_string(), "unit_test");
  EXPECT_EQ(root.find("schema_version")->as_int(), 1);
  EXPECT_DOUBLE_EQ(root.find("config")->find("alpha")->as_double(), 0.5);
  EXPECT_EQ(root.find("results")->at(0).find("x")->as_int(), 1);
  EXPECT_EQ(root.find("metrics")
                ->find("counters")
                ->at(0)
                .find("value")
                ->as_int(),
            3);
}

TEST(XportMetrics, RecordsFrameAndWindowStats) {
  transport::CoRfifoTransport::Stats s;
  s.frames_sent = 10;
  s.entries_sent = 64;
  s.acks_sent = 3;
  s.acks_piggybacked = 7;
  s.retransmissions = 2;
  s.bytes_sent = 4096;
  s.window_stalls = 1;
  s.ooo_dropped = 5;
  s.peak_unacked = 12;
  s.peak_out_of_order = 4;
  s.peak_pending = 30;

  obs::Registry reg;
  const obs::Labels labels = obs::process_labels(1);
  obs::record_xport_stats(reg, labels, s);
  EXPECT_EQ(reg.counter("xport.frame.frames_sent", labels).value(), 10u);
  EXPECT_EQ(reg.counter("xport.frame.entries_sent", labels).value(), 64u);
  EXPECT_EQ(reg.counter("xport.frame.acks_sent", labels).value(), 3u);
  EXPECT_EQ(reg.counter("xport.frame.acks_piggybacked", labels).value(), 7u);
  EXPECT_EQ(reg.counter("xport.window.stalls", labels).value(), 1u);
  EXPECT_EQ(reg.counter("xport.window.ooo_dropped", labels).value(), 5u);
  EXPECT_EQ(reg.gauge("xport.window.peak_unacked", labels).value(), 12);
  EXPECT_EQ(reg.gauge("xport.window.peak_out_of_order", labels).value(), 4);
  EXPECT_EQ(reg.gauge("xport.window.peak_pending", labels).value(), 30);

  // Gauges fold with max_of: a second, quieter transport cannot shrink them.
  transport::CoRfifoTransport::Stats quiet;
  quiet.peak_unacked = 2;
  obs::record_xport_stats(reg, labels, quiet);
  EXPECT_EQ(reg.gauge("xport.window.peak_unacked", labels).value(), 12);
  EXPECT_EQ(reg.counter("xport.frame.frames_sent", labels).value(), 10u);
}

}  // namespace
}  // namespace vsgc
