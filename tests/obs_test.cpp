// Tests for the vsgc::obs observability subsystem: metric primitive
// semantics, JSONL round-trip of recorded traces, the trace fold
// (record_trace_metrics) on a scripted view change and against a golden
// registry, the layer snapshot, Chrome-trace export, and the determinism
// guarantee that same-seed executions produce byte-identical trace files.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "app/world.hpp"
#include "obs/artifact.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_recorder.hpp"

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
  const View v1(ViewId{1, 0}, {p1, p2},
                {{p1, StartChangeId{1}}, {p2, StartChangeId{1}}});
  const View v2(ViewId{2, 0}, v1.members(),
                {{p1, StartChangeId{2}}, {p2, StartChangeId{2}}});

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

TEST(TraceMetrics, DerivesHeadlineMetricsFromScriptedChange) {
  obs::Registry reg;
  obs::record_trace_metrics(obs::analyze(scripted_view_change()), reg);

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

TEST(TraceMetrics, CrashResetsOpenIntervals) {
  spec::TraceBus bus;
  bus.set_recording(true);
  const ProcessId p1{1};
  View stale = View::initial(p1);
  stale.id = ViewId{1, 0};
  const View v(ViewId{2, 0}, {p1}, {{p1, StartChangeId{1}}});
  bus.emit(0, spec::MbrStartChange{p1, StartChangeId{1}, {p1}});
  bus.emit(100, spec::GcsBlock{p1});
  bus.emit(150, spec::MbrView{p1, stale});  // membership round: 150us
  bus.emit(160, spec::MbrStartChange{p1, StartChangeId{2}, {p1}});
  bus.emit(200, spec::Crash{p1});
  bus.emit(300, spec::Recover{p1});
  bus.emit(4000, spec::MbrView{p1, v});
  bus.emit(5000, spec::GcsView{p1, v, {p1}});
  obs::Registry reg;
  obs::record_trace_metrics(obs::analyze(bus.recorded()), reg);
  // The pre-crash block/start_change must not pair with the post-recovery
  // view: no bogus 4900us windows.
  EXPECT_EQ(reg.histogram("gcs.blocking_window_us").count(), 0u);
  EXPECT_EQ(reg.histogram("gcs.view_change_latency_us").count(), 0u);
  EXPECT_EQ(reg.counter_total("crashes"), 1u);
  EXPECT_EQ(reg.counter_total("recoveries"), 1u);
  // Nor may the round opened at 160us close at the post-recovery MBRSHP
  // view, the pre-crash start_changes count towards the installed view, or
  // the pre-crash announcement count as superseded.
  EXPECT_EQ(reg.histogram("mbr.round_us").count(), 1u);
  EXPECT_EQ(reg.histogram("mbr.round_us").sum(), 150u);
  EXPECT_EQ(reg.histogram("gcs.sync_rounds_per_view").count(), 0u);
  EXPECT_EQ(reg.counter_total("gcs.obsolete_views"), 0u);
  // The first view after recovery ends no view, so no msgs_per_view sample.
  EXPECT_EQ(reg.histogram("gcs.msgs_per_view").count(), 0u);
}

/// The examples/observability scenario: 4 clients on 2 servers converge,
/// multicast, lose p4 to a crash and take it back after recovery.
void run_crash_recover_tour(app::World& world) {
  world.start();
  EXPECT_TRUE(world.run_until_converged(world.all_members(), 10 * sim::kSecond));
  for (int i = 0; i < world.num_clients(); ++i) {
    world.client(i).send("hello from p" + std::to_string(i + 1));
  }
  world.run_for(sim::kSecond);
  world.process(3).crash();
  std::set<ProcessId> survivors = world.all_members();
  survivors.erase(ProcessId{4});
  EXPECT_TRUE(world.run_until_converged(survivors, 30 * sim::kSecond));
  world.process(3).recover();
  EXPECT_TRUE(
      world.run_until_converged(world.all_members(), 30 * sim::kSecond));
  world.finalize_checkers();
}

app::WorldConfig tour_config() {
  app::WorldConfig config;
  config.num_clients = 4;
  config.num_servers = 2;
  return config;
}

/// Every row the streaming MetricsCollector (a TraceBus subscriber, since
/// replaced by the post-mortem fold) wrote for run_crash_recover_tour(), as
/// Registry::to_json().dump() bytes. One row per line; the newlines are not
/// part of the dump.
constexpr const char* kCollectorGolden = R"(
{"counters":[
{"name":"crashes","labels":{"process":"p4"},"value":1},
{"name":"gcs.block_oks","labels":{"process":"p1"},"value":3},
{"name":"gcs.block_oks","labels":{"process":"p2"},"value":3},
{"name":"gcs.block_oks","labels":{"process":"p3"},"value":3},
{"name":"gcs.block_oks","labels":{"process":"p4"},"value":2},
{"name":"gcs.blocks","labels":{"process":"p1"},"value":3},
{"name":"gcs.blocks","labels":{"process":"p2"},"value":3},
{"name":"gcs.blocks","labels":{"process":"p3"},"value":3},
{"name":"gcs.blocks","labels":{"process":"p4"},"value":2},
{"name":"gcs.msgs_delivered","labels":{"process":"p1"},"value":4},
{"name":"gcs.msgs_delivered","labels":{"process":"p2"},"value":4},
{"name":"gcs.msgs_delivered","labels":{"process":"p3"},"value":4},
{"name":"gcs.msgs_delivered","labels":{"process":"p4"},"value":4},
{"name":"gcs.msgs_sent","labels":{"process":"p1"},"value":1},
{"name":"gcs.msgs_sent","labels":{"process":"p2"},"value":1},
{"name":"gcs.msgs_sent","labels":{"process":"p3"},"value":1},
{"name":"gcs.msgs_sent","labels":{"process":"p4"},"value":1},
{"name":"gcs.obsolete_views","labels":{"process":"p1"},"value":1},
{"name":"gcs.obsolete_views","labels":{"process":"p3"},"value":1},
{"name":"gcs.payload_bytes_delivered","labels":{"process":"p1"},"value":52},
{"name":"gcs.payload_bytes_delivered","labels":{"process":"p2"},"value":52},
{"name":"gcs.payload_bytes_delivered","labels":{"process":"p3"},"value":52},
{"name":"gcs.payload_bytes_delivered","labels":{"process":"p4"},"value":52},
{"name":"gcs.payload_bytes_sent","labels":{"process":"p1"},"value":13},
{"name":"gcs.payload_bytes_sent","labels":{"process":"p2"},"value":13},
{"name":"gcs.payload_bytes_sent","labels":{"process":"p3"},"value":13},
{"name":"gcs.payload_bytes_sent","labels":{"process":"p4"},"value":13},
{"name":"gcs.views_installed","labels":{"process":"p1"},"value":3},
{"name":"gcs.views_installed","labels":{"process":"p2"},"value":3},
{"name":"gcs.views_installed","labels":{"process":"p3"},"value":3},
{"name":"gcs.views_installed","labels":{"process":"p4"},"value":2},
{"name":"mbr.start_changes","labels":{"process":"p1"},"value":7},
{"name":"mbr.start_changes","labels":{"process":"p2"},"value":6},
{"name":"mbr.start_changes","labels":{"process":"p3"},"value":8},
{"name":"mbr.start_changes","labels":{"process":"p4"},"value":6},
{"name":"mbr.views","labels":{"process":"p1"},"value":4},
{"name":"mbr.views","labels":{"process":"p2"},"value":3},
{"name":"mbr.views","labels":{"process":"p3"},"value":4},
{"name":"mbr.views","labels":{"process":"p4"},"value":2},
{"name":"recoveries","labels":{"process":"p4"},"value":1}],
"gauges":[],
"histograms":[
{"name":"gcs.blocking_window_us","labels":{},"count":11,"sum":20272,"min":997,"max":2342,"mean":1842.909090909091,"p50":2342,"p90":2342,"p99":2342},
{"name":"gcs.msgs_per_view","labels":{},"count":6,"sum":12,"min":0,"max":4,"mean":2.0,"p50":0,"p90":4,"p99":4},
{"name":"gcs.sync_rounds_per_view","labels":{},"count":11,"sum":27,"min":1,"max":5,"mean":2.4545454545454546,"p50":3,"p90":5,"p99":5},
{"name":"gcs.view_change_latency_us","labels":{},"count":11,"sum":20272,"min":997,"max":2342,"mean":1842.909090909091,"p50":2342,"p90":2342,"p99":2342},
{"name":"mbr.round_us","labels":{},"count":13,"sum":10579,"min":0,"max":2099,"mean":813.7692307692307,"p50":1023,"p90":2099,"p99":2099}]}
)";

/// `reg`'s export without its span.* rows.
std::string without_span_rows(const obs::Registry& reg) {
  const obs::JsonValue all = reg.to_json();
  obs::JsonValue out = obs::JsonValue::object();
  for (const char* section : {"counters", "gauges", "histograms"}) {
    obs::JsonValue& rows = out[section] = obs::JsonValue::array();
    for (const obs::JsonValue& row : all.find(section)->items()) {
      if (!row.find("name")->as_string().starts_with("span.")) {
        rows.push_back(row);
      }
    }
  }
  return out.dump();
}

TEST(TraceMetrics, ReproducesTheCollectorGoldenByteForByte) {
  app::World world(tour_config());
  run_crash_recover_tour(world);
  obs::Registry reg;
  obs::record_trace_metrics(obs::analyze(world.trace().recorded()), reg);
  std::string golden = kCollectorGolden;
  std::erase(golden, '\n');
  EXPECT_EQ(without_span_rows(reg), golden);
}

/// Every metric name in `reg`'s export.
std::set<std::string> metric_names(const obs::Registry& reg) {
  std::set<std::string> names;
  const obs::JsonValue all = reg.to_json();
  for (const char* section : {"counters", "gauges", "histograms"}) {
    for (const obs::JsonValue& row : all.find(section)->items()) {
      names.insert(row.find("name")->as_string());
    }
  }
  return names;
}

TEST(WorldSnapshot, CountersSumTheLayersAndStayDisjointFromTheTraceFold) {
  app::World world(tour_config());
  run_crash_recover_tour(world);
  obs::Registry reg;
  world.snapshot(reg);

  std::uint64_t frames = 0, entries = 0, acks = 0, bytes = 0;
  std::uint64_t peak_unacked = 0;
  const auto add = [&](const transport::CoRfifoTransport& t) {
    frames += t.stats().frames_sent;
    entries += t.stats().entries_sent;
    acks += t.stats().acks_sent;
    bytes += t.stats().bytes_sent;
    peak_unacked = std::max(peak_unacked, t.stats().peak_unacked);
  };
  std::uint64_t sync_sent = 0, forwards = 0;
  for (int i = 0; i < world.num_clients(); ++i) {
    add(world.process(i).transport());
    sync_sent += world.process(i).endpoint().vs_stats().sync_msgs_sent;
    forwards += world.process(i).endpoint().vs_stats().forwards_sent;
  }
  std::uint64_t rounds = 0, start_changes = 0;
  for (int s = 0; s < world.num_servers(); ++s) {
    add(world.server(s).transport());
    rounds += world.server(s).stats().rounds_started;
    start_changes += world.server(s).stats().start_changes_sent;
  }
  const net::Network::Stats& net = world.network().stats();
  EXPECT_GT(frames, 0u);
  EXPECT_GT(sync_sent, 0u);
  EXPECT_GT(rounds, 0u);
  EXPECT_EQ(reg.counter_total("net.packets_sent"), net.packets_sent);
  EXPECT_EQ(reg.counter_total("net.bytes_sent"), net.bytes_sent);
  EXPECT_EQ(reg.counter_total("xport.frame.frames_sent"), frames);
  EXPECT_EQ(reg.counter_total("xport.frame.entries_sent"), entries);
  EXPECT_EQ(reg.counter_total("xport.frame.acks_sent"), acks);
  EXPECT_EQ(reg.counter_total("xport.frame.bytes_sent"), bytes);
  EXPECT_EQ(reg.counter_total("gcs.sync_msgs_sent"), sync_sent);
  EXPECT_EQ(reg.counter_total("gcs.forwards_sent"), forwards);
  EXPECT_EQ(reg.counter_total("mbr.server.rounds_started"), rounds);
  EXPECT_EQ(reg.counter_total("mbr.server.start_changes_sent"),
            start_changes);
  // Each transport is labelled by its node.
  EXPECT_EQ(
      reg.counter("xport.frame.frames_sent", obs::process_labels(1)).value(),
      world.process(0).transport().stats().frames_sent);
  EXPECT_EQ(reg.counter("xport.frame.frames_sent", {{"server", "s1"}}).value(),
            world.server(1).transport().stats().frames_sent);

  // A second snapshot into the same registry doubles every counter and
  // leaves every gauge (a max) unchanged.
  const obs::JsonValue once = reg.to_json();
  world.snapshot(reg);
  const obs::JsonValue twice = reg.to_json();
  ASSERT_EQ(once.find("counters")->size(), twice.find("counters")->size());
  for (std::size_t i = 0; i < once.find("counters")->size(); ++i) {
    EXPECT_EQ(twice.find("counters")->at(i).find("value")->as_int(),
              2 * once.find("counters")->at(i).find("value")->as_int());
  }
  EXPECT_EQ(twice.find("gauges")->dump(), once.find("gauges")->dump());
  EXPECT_GT(once.find("gauges")->size(), 0u);
  std::int64_t peak = 0;
  for (const obs::JsonValue& g : once.find("gauges")->items()) {
    if (g.find("name")->as_string() == "xport.window.peak_unacked") {
      peak = std::max(peak, g.find("value")->as_int());
    }
  }
  EXPECT_EQ(peak, static_cast<std::int64_t>(peak_unacked));

  // No snapshot name is one the trace fold writes for the same run.
  obs::Registry trace_reg;
  obs::record_trace_metrics(obs::analyze(world.trace().recorded()),
                            trace_reg);
  const std::set<std::string> layer = metric_names(reg);
  const std::set<std::string> trace = metric_names(trace_reg);
  EXPECT_FALSE(layer.empty());
  EXPECT_FALSE(trace.empty());
  for (const std::string& name : layer) {
    EXPECT_FALSE(trace.contains(name)) << name;
  }
}

// A transport recycles its frame cells (DESIGN.md §11.1): once steady
// multicast has warmed every transport up, 100 more ticks of it send frames
// without making a single new cell.
TEST(WorldSnapshot, FrameCellsStayFlatUnderSteadyMulticast) {
  app::WorldConfig config;
  config.num_clients = 8;
  config.num_servers = 2;
  config.attach_checkers = false;
  config.record_trace = false;
  app::World world(config);
  world.start();
  ASSERT_TRUE(
      world.run_until_converged(world.all_members(), 10 * sim::kSecond));
  const std::string payload(64, 'm');
  const auto ticks = [&](int n) {
    for (int t = 0; t < n; ++t) {
      for (int c = 0; c < world.num_clients(); ++c) {
        world.client(c).send(payload);
      }
      world.run_for(sim::kMillisecond);
    }
  };
  ticks(20);
  obs::Registry warm;
  world.snapshot(warm);
  ticks(100);
  obs::Registry after;
  world.snapshot(after);

  EXPECT_GT(warm.counter_total("xport.frame.cells_allocated"), 0u);
  EXPECT_EQ(after.counter_total("xport.frame.cells_allocated"),
            warm.counter_total("xport.frame.cells_allocated"));
  EXPECT_GT(after.counter_total("xport.frame.frames_sent"),
            warm.counter_total("xport.frame.frames_sent") + 1000);
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
  EXPECT_EQ(view->view.start_id_of(ProcessId{1}), StartChangeId{2});
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

}  // namespace
}  // namespace vsgc
