// Tests for the causal span layer (src/obs/span.*, DESIGN.md §10): span
// metrics folded from analyze(), post-mortem accounting and orphan
// classification under crashes/churn, the planted-loss negative case (a
// deleted delivery must surface as "unexplained"), byte-determinism of the
// vsgc_trace report, JSONL round-trip of the span event variants, and the
// Chrome-trace message-lifecycle lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "app/world.hpp"
#include "obs/artifact.hpp"
#include "obs/span.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/failure_injector.hpp"

namespace vsgc {
namespace {

/// Fault-free seeded run: converge, pace `messages` app messages across the
/// clients, quiesce, and return the recorded lifecycle trace.
std::vector<spec::Event> record_fault_free(std::uint64_t seed, int clients,
                                           int messages) {
  app::WorldConfig wc;
  wc.num_clients = clients;
  wc.seed = seed;
  wc.record_trace = true;
  wc.lifecycle_spans = true;
  app::World w(wc);
  w.start();
  EXPECT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  for (int m = 0; m < messages; ++m) {
    w.client(m % clients).send("span-msg-" + std::to_string(m));
    w.run_for(2 * sim::kMillisecond);
  }
  w.run_for(1 * sim::kSecond);
  return w.trace().recorded();
}

// ------------------------------------------------ record_trace_metrics()

TEST(SpanMetrics, DerivesPhaseHistogramsFromARun) {
  app::WorldConfig wc;
  wc.num_clients = 4;
  wc.lifecycle_spans = true;
  app::World w(wc);

  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  for (int m = 0; m < 10; ++m) {
    w.client(m % 4).send("x");
    w.run_for(2 * sim::kMillisecond);
  }
  w.run_for(1 * sim::kSecond);
  obs::Registry reg;
  obs::record_trace_metrics(obs::analyze(w.trace().recorded()), reg);

  // 10 messages, 4 members each: 40 end-to-end legs, 30 remote wire legs.
  EXPECT_EQ(reg.histogram("span.msg.e2e_us").count(), 40u);
  EXPECT_EQ(reg.histogram("span.msg.wire_us").count(), 30u);
  EXPECT_EQ(reg.histogram("span.msg.sender_queue_us").count(), 10u);
  // Every process installed at least the converged view through a full
  // start_change -> install window.
  EXPECT_GE(reg.histogram("span.view.e2e_us").count(), 4u);
  EXPECT_EQ(reg.histogram("span.view.e2e_us").count(),
            reg.histogram("span.view.membership_wait_us").count());
}

TEST(SpanMetrics, LifecycleOffEmitsNoSpanEvents) {
  app::WorldConfig wc;
  wc.num_clients = 3;
  wc.lifecycle_spans = false;  // default: spans cost one branch, no events
  app::World w(wc);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  w.client(0).send("x");
  w.run_for(100 * sim::kMillisecond);
  obs::Registry reg;
  obs::record_trace_metrics(obs::analyze(w.trace().recorded()), reg);
  EXPECT_EQ(reg.histogram("span.msg.wire_us").count(), 0u);
  // GcsSend/GcsDeliver still flow (they are protocol events), so e2e legs
  // are observable even without the fine-grained lifecycle.
  EXPECT_EQ(reg.histogram("span.msg.e2e_us").count(), 3u);
}

TEST(SpanMetrics, EveryHistogramCountsExactlyItsPhaseRow) {
  // Under churn some receivers see a message's wire leg but never deliver
  // it; the histograms and the phase rows must still be the same samples.
  app::WorldConfig wc;
  wc.num_clients = 5;
  wc.num_servers = 2;
  wc.seed = 3;
  wc.lifecycle_spans = true;
  app::World w(wc);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  sim::FailureInjector::Policy policy;
  policy.steps = 20;
  sim::FailureInjector injector(w.fault_target(), policy, wc.seed);
  injector.run_churn();
  injector.stabilize();
  w.run_for(30 * sim::kSecond);

  const obs::TraceAnalysis a = obs::analyze(w.trace().recorded());
  obs::Registry reg;
  obs::record_trace_metrics(a, reg);
  obs::BenchArtifact art("span_test");
  obs::append_tracelat_results(a, art);
  const std::map<std::string, std::string> histogram_of = {
      {"msg_phase/sender_queue", "span.msg.sender_queue_us"},
      {"msg_phase/wire", "span.msg.wire_us"},
      {"msg_phase/gate", "span.msg.gate_us"},
      {"msg_phase/end_to_end", "span.msg.e2e_us"},
      {"view_phase/blocking", "span.view.blocking_us"},
      {"view_phase/sync_send", "span.view.sync_send_us"},
      {"view_phase/membership_wait", "span.view.membership_wait_us"},
      {"view_phase/install_wait", "span.view.install_wait_us"},
      {"view_phase/end_to_end", "span.view.e2e_us"},
  };
  std::size_t checked = 0;
  for (const obs::JsonValue& row : art.root().find("results")->items()) {
    if (row.find("phase") == nullptr) continue;
    const std::string key =
        row.find("row")->as_string() + "/" + row.find("phase")->as_string();
    const obs::Histogram& h = reg.histogram(histogram_of.at(key));
    EXPECT_EQ(static_cast<std::int64_t>(h.count()),
              row.find("count")->as_int())
        << key;
    EXPECT_EQ(static_cast<std::int64_t>(h.max()), row.find("max_us")->as_int())
        << key;
    ++checked;
  }
  EXPECT_EQ(checked, histogram_of.size());
  EXPECT_GT(reg.histogram("span.msg.wire_us").count(), 0u);
  EXPECT_EQ(reg.counter_total("span.retransmit_packets"),
            a.retransmit_packets);
  EXPECT_EQ(reg.counter_total("span.mbr.round_start"), a.mbr_rounds);
}

// ---------------------------------------------------------------- analyze()

TEST(SpanAnalyze, FaultFreeRunAccountsForEveryDelivery) {
  const std::vector<spec::Event> events = record_fault_free(7, 4, 12);
  const obs::TraceAnalysis a = obs::analyze(events);
  EXPECT_EQ(a.messages.size(), 12u);
  EXPECT_EQ(a.legs_expected, 48u);  // 12 messages x 4 members
  EXPECT_EQ(a.legs_delivered, a.legs_expected);
  EXPECT_EQ(a.orphans, 0u);
  EXPECT_EQ(a.unexplained(), 0u);
  // Phase milestones reconstructed: every remote leg has a wire-send and a
  // receive timestamp bracketing its delivery.
  for (const obs::MsgSpan& m : a.messages) {
    EXPECT_GE(m.submit_at, 0);
    EXPECT_GE(m.wire_send_at, m.submit_at);
    for (const obs::DeliveryLeg& leg : m.legs) {
      ASSERT_GE(leg.deliver_at, 0);
      if (leg.receiver != m.id.sender) {
        EXPECT_GE(leg.recv_at, m.wire_send_at);
        EXPECT_GE(leg.deliver_at, leg.recv_at);
      }
    }
  }
}

TEST(SpanAnalyze, CrashedReceiverLegsAreClassifiedNotUnexplained) {
  app::WorldConfig wc;
  wc.num_clients = 4;
  wc.seed = 3;
  wc.record_trace = true;
  wc.lifecycle_spans = true;
  app::World w(wc);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));

  // A message enters the pipe; one receiver dies before it can deliver.
  w.client(0).send("doomed-for-p3");
  w.process(2).crash();
  w.run_for(30 * sim::kSecond);  // survivors reconfigure and deliver

  const obs::TraceAnalysis a = obs::analyze(w.trace().recorded());
  EXPECT_GT(a.orphans, 0u);
  EXPECT_EQ(a.unexplained(), 0u)
      << "crash-attributable losses must not read as VS violations";
  EXPECT_GT(
      a.orphans_by_kind[static_cast<int>(obs::OrphanKind::kReceiverCrashed)],
      0u);
}

TEST(SpanAnalyze, InjectorChurnNeverProducesUnexplainedOrphans) {
  app::WorldConfig wc;
  wc.num_clients = 4;
  wc.num_servers = 2;
  wc.seed = 11;
  wc.record_trace = true;
  wc.lifecycle_spans = true;
  app::World w(wc);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));

  sim::FailureInjector::Policy policy;
  policy.steps = 25;
  sim::FailureInjector injector(w.fault_target(), policy, wc.seed);
  injector.run_churn();
  injector.stabilize();
  w.run_for(30 * sim::kSecond);

  const obs::TraceAnalysis a = obs::analyze(w.trace().recorded());
  EXPECT_GT(a.events, 0u);
  EXPECT_EQ(a.unexplained(), 0u)
      << "every churn orphan must be attributable to a fault or the cut";
}

TEST(SpanAnalyze, PlantedLostDeliveryIsFlaggedUnexplained) {
  std::vector<spec::Event> events = record_fault_free(9, 3, 6);
  // Plant a virtual-synchrony violation: erase one remote delivery (the
  // receiver keeps its MsgRecv, so the loss is provably not wire-level).
  const auto victim =
      std::find_if(events.begin(), events.end(), [](const spec::Event& ev) {
        const auto* d = std::get_if<spec::GcsDeliver>(&ev.body);
        return d != nullptr && d->p != d->q;
      });
  ASSERT_NE(victim, events.end());
  events.erase(victim);

  const obs::TraceAnalysis a = obs::analyze(events);
  EXPECT_EQ(a.orphans, 1u);
  EXPECT_EQ(a.unexplained(), 1u)
      << "a deleted delivery in a fault-free run is exactly a VS loss";
}

// ------------------------------------------------------------- determinism

TEST(SpanReport, SameSeedRunsProduceByteIdenticalReports) {
  const std::vector<spec::Event> run1 = record_fault_free(21, 4, 10);
  const std::vector<spec::Event> run2 = record_fault_free(21, 4, 10);
  std::ostringstream r1, r2;
  obs::write_trace_report(obs::analyze(run1), r1);
  obs::write_trace_report(obs::analyze(run2), r2);
  EXPECT_FALSE(r1.str().empty());
  EXPECT_EQ(r1.str(), r2.str());

  std::ostringstream other;
  obs::write_trace_report(obs::analyze(record_fault_free(22, 4, 10)), other);
  EXPECT_NE(r1.str(), other.str()) << "the report must reflect the run";
}

// ------------------------------------------------- serialization round-trip

TEST(SpanEvents, JsonlRoundTripsEverySpanVariant) {
  std::vector<spec::Event> events;
  events.push_back({10, spec::MsgWireSend{ProcessId{1}, ProcessId{1}, 7}});
  events.push_back(
      {20, spec::MsgRecv{ProcessId{2}, ProcessId{3}, ProcessId{1}, 7, true}});
  events.push_back({30, spec::MsgForward{ProcessId{3}, ProcessId{1}, 7, 2}});
  events.push_back({40, spec::SyncSent{ProcessId{1}, StartChangeId{5}}});
  events.push_back(
      {50, spec::SyncRecv{ProcessId{2}, ProcessId{1}, StartChangeId{5}}});
  events.push_back({60, spec::XportRetransmit{1, net::kServerBase, 4}});
  events.push_back({70, spec::MbrPhase{net::kServerBase, "round_start", 3}});

  std::stringstream buf;
  obs::write_jsonl(events, buf);
  std::vector<spec::Event> parsed;
  ASSERT_TRUE(obs::read_jsonl(buf, &parsed));
  ASSERT_EQ(parsed.size(), events.size());
  std::ostringstream a, b;
  obs::write_jsonl(events, a);
  obs::write_jsonl(parsed, b);
  EXPECT_EQ(a.str(), b.str());

  const auto* recv = std::get_if<spec::MsgRecv>(&parsed[1].body);
  ASSERT_NE(recv, nullptr);
  EXPECT_EQ(recv->from, ProcessId{3});
  EXPECT_EQ(recv->sender, ProcessId{1});
  EXPECT_TRUE(recv->forwarded);
  const auto* mp = std::get_if<spec::MbrPhase>(&parsed[6].body);
  ASSERT_NE(mp, nullptr);
  EXPECT_EQ(mp->phase, "round_start");
  EXPECT_EQ(mp->round, 3u);
}

TEST(SpanEvents, ChromeTraceCarriesMessageLifecycleLane) {
  const std::vector<spec::Event> events = record_fault_free(5, 3, 4);
  std::ostringstream t1, t2;
  obs::write_chrome_trace(events, t1);
  obs::write_chrome_trace(events, t2);
  EXPECT_EQ(t1.str(), t2.str()) << "exporter ordering must be stable";
  EXPECT_NE(t1.str().find("message lifecycle"), std::string::npos);
  EXPECT_NE(t1.str().find("\"ph\": \"X\""), std::string::npos);
}

// ----------------------------------------------------------- phase algebra

TEST(SpanPhases, TelescopeExactlyEvenWithMissingMilestones) {
  obs::ViewSpan vs;
  vs.p = ProcessId{1};
  vs.start_change_at = 100;
  vs.block_ok_at = 150;
  vs.sync_sent_at = -1;  // never observed: zero-width, absorbed by successor
  vs.mbr_view_at = 400;
  vs.installed_at = 1000;
  const obs::ViewPhases ph = obs::view_phases(vs);
  EXPECT_EQ(ph.blocking, 50);
  EXPECT_EQ(ph.sync_send, 0);
  EXPECT_EQ(ph.membership_wait, 250);
  EXPECT_EQ(ph.install_wait, 600);
  EXPECT_EQ(ph.total, 900);
  EXPECT_EQ(ph.blocking + ph.sync_send + ph.membership_wait + ph.install_wait,
            ph.total);

  // A milestone recorded outside the window clamps rather than going
  // negative (e.g. block_ok from a previous overlapping change).
  vs.block_ok_at = 50;
  vs.mbr_view_at = 5000;
  const obs::ViewPhases clamped = obs::view_phases(vs);
  EXPECT_EQ(clamped.blocking, 0);
  EXPECT_EQ(clamped.membership_wait, 900);
  EXPECT_EQ(clamped.install_wait, 0);
  EXPECT_EQ(clamped.total, 900);
}

TEST(SpanPhases, NearestRankPercentilesAreExact) {
  std::vector<sim::Time> samples = {5, 1, 3, 2, 4};
  const obs::PhaseStats st = obs::phase_stats(samples);
  EXPECT_EQ(st.count, 5u);
  EXPECT_EQ(st.p50, 3);
  EXPECT_EQ(st.p95, 5);
  EXPECT_EQ(st.p99, 5);
  EXPECT_EQ(st.max, 5);

  std::vector<sim::Time> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  const obs::PhaseStats h = obs::phase_stats(hundred);
  EXPECT_EQ(h.p50, 50);
  EXPECT_EQ(h.p95, 95);
  EXPECT_EQ(h.p99, 99);
  EXPECT_EQ(h.max, 100);
}

}  // namespace
}  // namespace vsgc
