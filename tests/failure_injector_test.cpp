// sim::FailureInjector: script serialization, replay/elision semantics, the
// stabilize() contract, asymmetric links, crash-inside-delivery, and the
// deliberate-bug test hook that vsgc_stress's CI pipeline check rides on.
#include "sim/failure_injector.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <set>
#include <sstream>
#include <string_view>

#include "app/repro.hpp"
#include "app/world.hpp"
#include "obs/json.hpp"
#include "obs/json_fields.hpp"
#include "util/assert.hpp"

namespace vsgc {
namespace {

using sim::FailureInjector;
using sim::FaultOp;
using sim::FaultScript;

// -- FaultScript JSON round-trip ---------------------------------------------

FaultScript SampleScript() {
  FaultScript script;
  script.seed = 42;
  FaultOp crash;
  crash.at = 100 * sim::kMillisecond;
  crash.kind = FaultOp::Kind::kCrash;
  crash.a = 2;
  script.ops.push_back(crash);

  FaultOp link;
  link.at = 200 * sim::kMillisecond;
  link.kind = FaultOp::Kind::kLinkDown;
  link.a = 0;
  link.b = sim::encode_server(1);
  link.oneway = true;
  script.ops.push_back(link);

  FaultOp drop;
  drop.at = 300 * sim::kMillisecond;
  drop.kind = FaultOp::Kind::kDrop;
  drop.p = 0.4;
  script.ops.push_back(drop);

  FaultOp latency;
  latency.at = 350 * sim::kMillisecond;
  latency.kind = FaultOp::Kind::kLatency;
  latency.t0 = 25 * sim::kMillisecond;
  latency.t1 = 5 * sim::kMillisecond;
  script.ops.push_back(latency);

  FaultOp part;
  part.at = 400 * sim::kMillisecond;
  part.kind = FaultOp::Kind::kPartition;
  part.groups = {{0, 1, sim::encode_server(0)}, {2, 3, sim::encode_server(1)}};
  script.ops.push_back(part);

  FaultOp traffic;
  traffic.at = 500 * sim::kMillisecond;
  traffic.kind = FaultOp::Kind::kTraffic;
  traffic.a = 1;
  traffic.payload = "hello \x01 world";  // non-ASCII byte must round-trip
  script.ops.push_back(traffic);

  FaultOp corrupt;
  corrupt.at = 600 * sim::kMillisecond;
  corrupt.kind = FaultOp::Kind::kCorruptSeq;
  corrupt.a = 0;
  corrupt.b = 1;
  corrupt.v = 4;
  script.ops.push_back(corrupt);

  FaultOp wedge;
  wedge.at = 700 * sim::kMillisecond;
  wedge.kind = FaultOp::Kind::kBugCorruptWedge;
  wedge.a = 1;
  wedge.v = std::uint64_t{1} << 40;  // above-32-bit value must round-trip
  script.ops.push_back(wedge);

  FaultOp wave;
  wave.at = 800 * sim::kMillisecond;
  wave.kind = FaultOp::Kind::kWave;
  wave.groups = {{0, 2, sim::encode_server(1)}};  // slice rides in groups[0]
  script.ops.push_back(wave);
  script.end_at = 900 * sim::kMillisecond;
  return script;
}

TEST(FaultScript, JsonRoundTripPreservesEveryField) {
  const FaultScript script = SampleScript();
  const std::string text = obs::to_json(script).dump();

  std::string error;
  const obs::JsonValue parsed = obs::JsonValue::parse(text, &error);
  ASSERT_TRUE(error.empty()) << error;
  FaultScript back;
  ASSERT_TRUE(obs::from_json(parsed, &back));

  ASSERT_EQ(back.seed, script.seed);
  ASSERT_EQ(back.end_at, script.end_at);
  ASSERT_EQ(back.ops.size(), script.ops.size());
  for (std::size_t i = 0; i < script.ops.size(); ++i) {
    const FaultOp& a = script.ops[i];
    const FaultOp& b = back.ops[i];
    EXPECT_EQ(a.at, b.at) << "op " << i;
    EXPECT_EQ(a.kind, b.kind) << "op " << i;
    EXPECT_EQ(a.a, b.a) << "op " << i;
    EXPECT_EQ(a.b, b.b) << "op " << i;
    EXPECT_EQ(a.oneway, b.oneway) << "op " << i;
    EXPECT_EQ(a.p, b.p) << "op " << i;
    EXPECT_EQ(a.t0, b.t0) << "op " << i;
    EXPECT_EQ(a.t1, b.t1) << "op " << i;
    EXPECT_EQ(a.groups, b.groups) << "op " << i;
    EXPECT_EQ(a.payload, b.payload) << "op " << i;
    EXPECT_EQ(a.v, b.v) << "op " << i;
  }
  // Serialization itself is byte-deterministic.
  EXPECT_EQ(text, obs::to_json(back).dump());
}

TEST(FaultScript, FitsChecksEveryProcessAndServerReference) {
  const FaultScript script = SampleScript();  // p0..p3, s0 and s1
  EXPECT_TRUE(script.fits(4, 2));
  EXPECT_FALSE(script.fits(3, 2));  // partition entry p3
  EXPECT_FALSE(script.fits(4, 1));  // link endpoint s1, wave entry s1

  const auto fits_alone = [](const FaultOp& op) {
    FaultScript one;
    one.ops.push_back(op);
    return one.fits(4, 1);
  };
  FaultOp op;
  op.kind = FaultOp::Kind::kLeave;
  EXPECT_FALSE(fits_alone(op));  // a defaults to -1
  op.a = 3;
  EXPECT_TRUE(fits_alone(op));
  op.a = 99;
  EXPECT_FALSE(fits_alone(op));

  op = FaultOp{};
  op.kind = FaultOp::Kind::kServerDown;
  op.a = 0;
  EXPECT_TRUE(fits_alone(op));
  op.a = 7;
  EXPECT_FALSE(fits_alone(op));

  op = FaultOp{};
  op.kind = FaultOp::Kind::kLinkDown;
  op.a = 3;
  op.b = sim::encode_server(0);
  EXPECT_TRUE(fits_alone(op));
  op.b = sim::encode_server(1);
  EXPECT_FALSE(fits_alone(op));
  op.b = 4;
  EXPECT_FALSE(fits_alone(op));

  op = FaultOp{};
  op.kind = FaultOp::Kind::kPartition;
  op.groups = {{0, 1}, {2, 3, sim::encode_server(0)}};
  EXPECT_TRUE(fits_alone(op));
  op.groups[1].push_back(77);
  EXPECT_FALSE(fits_alone(op));
  op.kind = FaultOp::Kind::kWave;
  op.groups = {{0, INT_MIN}};
  EXPECT_FALSE(fits_alone(op));

  op = FaultOp{};
  op.kind = FaultOp::Kind::kCorruptAck;
  op.a = 0;
  op.b = 3;
  EXPECT_TRUE(fits_alone(op));
  op.b = 4;
  EXPECT_FALSE(fits_alone(op));

  op = FaultOp{};
  op.kind = FaultOp::Kind::kDrop;  // no process or server reference
  EXPECT_TRUE(fits_alone(op));
}

// -- Replay and elision -------------------------------------------------------

app::WorldConfig SmallWorld(int clients = 4, int servers = 2) {
  app::WorldConfig cfg;
  cfg.num_clients = clients;
  cfg.num_servers = servers;
  cfg.seed = 99;
  return cfg;
}

FaultOp At(sim::Time at, FaultOp::Kind kind, int a = -1) {
  FaultOp op;
  op.at = at;
  op.kind = kind;
  op.a = a;
  return op;
}

TEST(FailureInjector, ReplayAppliesOpsAndElisionSkipsThem) {
  FaultScript script;
  script.ops.push_back(At(1 * sim::kSecond, FaultOp::Kind::kCrash, 1));
  script.ops.push_back(At(2 * sim::kSecond, FaultOp::Kind::kCrash, 2));

  {
    app::World w(SmallWorld());
    w.start();
    ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
    FailureInjector injector(w.fault_target(), {}, 1);
    injector.replay(script);
    EXPECT_TRUE(w.process(1).crashed());
    EXPECT_TRUE(w.process(2).crashed());
    // Replay records what it applied, at the times it applied it.
    ASSERT_EQ(injector.script().ops.size(), 2u);
    EXPECT_EQ(injector.script().ops[0].at, 1 * sim::kSecond);
  }
  {
    app::World w(SmallWorld());
    w.start();
    ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
    FailureInjector injector(w.fault_target(), {}, 1);
    injector.replay(script, /*elide=*/{0});
    EXPECT_FALSE(w.process(1).crashed()) << "elided op must not apply";
    EXPECT_TRUE(w.process(2).crashed());
    // Time still advances past every op, elided or not.
    EXPECT_GE(w.sim().now(), 2 * sim::kSecond);
  }
}

TEST(FailureInjector, ArbitrarySubsetsReplayWithoutFaulting) {
  // Unpaired recover/rejoin/heal ops must be harmless no-ops: the minimizer
  // probes arbitrary subsets and relies on every subset being a valid run.
  FaultScript script;
  script.ops.push_back(At(1 * sim::kSecond, FaultOp::Kind::kRecover, 0));
  script.ops.push_back(At(2 * sim::kSecond, FaultOp::Kind::kRejoin, 1));
  script.ops.push_back(At(3 * sim::kSecond, FaultOp::Kind::kHeal));
  script.ops.push_back(At(4 * sim::kSecond, FaultOp::Kind::kServerUp, 0));
  script.ops.push_back(At(5 * sim::kSecond, FaultOp::Kind::kCrash, 1));
  script.ops.push_back(At(6 * sim::kSecond, FaultOp::Kind::kCrash, 1));  // dup

  app::World w(SmallWorld());
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  FailureInjector injector(w.fault_target(), {}, 1);
  injector.replay(script);
  injector.stabilize();
  EXPECT_TRUE(w.run_until_converged(w.all_members(), 60 * sim::kSecond));
}

// -- stabilize() --------------------------------------------------------------

TEST(FailureInjector, StabilizeUndoesCrashesPartitionsAndServerOutages) {
  app::World w(SmallWorld(4, 2));
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));

  FaultScript script;
  script.ops.push_back(At(1 * sim::kSecond, FaultOp::Kind::kCrash, 0));
  script.ops.push_back(At(1 * sim::kSecond, FaultOp::Kind::kLeave, 1));
  script.ops.push_back(At(1 * sim::kSecond, FaultOp::Kind::kServerDown, 1));
  FaultOp part;
  part.at = 2 * sim::kSecond;
  part.kind = FaultOp::Kind::kPartition;
  part.groups = {{0, 1, sim::encode_server(0)}, {2, 3, sim::encode_server(1)}};
  script.ops.push_back(part);
  FaultOp drop;
  drop.at = 2 * sim::kSecond;
  drop.kind = FaultOp::Kind::kDrop;
  drop.p = 0.9;
  script.ops.push_back(drop);

  FailureInjector injector(w.fault_target(), {}, 1);
  injector.replay(script);
  EXPECT_TRUE(w.process(0).crashed());

  injector.stabilize();
  EXPECT_TRUE(w.run_until_converged(w.all_members(), 60 * sim::kSecond))
      << "every member must be back in one agreed view after stabilize()";
}

TEST(FailureInjector, FaultRestoresReturnToTheWorldsOwnNetwork) {
  // A world whose network is not the default one. Every restore the
  // injector makes (the timed restore of a drop spike or delay burst, and
  // stabilize()) returns to that world's own drop, latency and jitter: the
  // injector reads them from its target, and no caller copies them.
  app::WorldConfig cfg = SmallWorld(3, 1);
  cfg.net.base_latency = 3 * sim::kMillisecond;
  cfg.net.jitter = 700;
  cfg.net.drop_probability = 0.02;
  const auto expect_own_network = [&cfg](const net::Network& net) {
    EXPECT_EQ(net.config().base_latency, cfg.net.base_latency);
    EXPECT_EQ(net.config().jitter, cfg.net.jitter);
    EXPECT_EQ(net.config().drop_probability, cfg.net.drop_probability);
  };

  // Generate mode, drop spikes and delay bursts only: each is followed by a
  // recorded restore op.
  {
    app::World w(cfg);
    w.start();
    ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
    FailureInjector::Policy policy;
    policy.steps = 8;
    policy.w_traffic = 0;
    policy.w_crash = 0;
    policy.w_recover = 0;
    policy.w_leave = 0;
    policy.w_rejoin = 0;
    policy.w_partition = 0;
    policy.w_heal = 0;
    policy.w_link = 0;
    policy.w_server_outage = 0;
    policy.w_crash_in_delivery = 0;
    policy.w_partition_in_view_change = 0;
    FailureInjector injector(w.fault_target(), policy, 1);
    injector.run_churn();
    int spikes = 0, bursts = 0, restores = 0;
    for (const FaultOp& op : injector.script().ops) {
      if (op.kind == FaultOp::Kind::kDrop) {
        if (op.p == FailureInjector::kSpikeDrop) {
          ++spikes;
          continue;
        }
        ++restores;
        EXPECT_EQ(op.p, cfg.net.drop_probability);
      } else if (op.kind == FaultOp::Kind::kLatency) {
        if (op.t0 == FailureInjector::kBurstLatency) {
          ++bursts;
          continue;
        }
        ++restores;
        EXPECT_EQ(op.t0, cfg.net.base_latency);
        EXPECT_EQ(op.t1, cfg.net.jitter);
      }
    }
    EXPECT_GT(spikes, 0);
    EXPECT_GT(bursts, 0);
    EXPECT_EQ(restores, spikes + bursts) << "one restore per spike or burst";
    expect_own_network(w.network());
    injector.stabilize();
    expect_own_network(w.network());
  }

  // Replay of a spike and a burst that nothing restores: stabilize() does.
  {
    app::World w(cfg);
    w.start();
    ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
    FaultOp burst = At(w.sim().now(), FaultOp::Kind::kLatency);
    burst.t0 = 25 * sim::kMillisecond;
    burst.t1 = 5 * sim::kMillisecond;
    FaultOp spike = At(w.sim().now(), FaultOp::Kind::kDrop);
    spike.p = 0.4;
    FaultScript script;
    script.ops = {burst, spike};
    FailureInjector injector(w.fault_target(), {}, 1);
    injector.replay(script);
    EXPECT_EQ(w.network().config().base_latency, burst.t0);
    EXPECT_EQ(w.network().config().drop_probability, spike.p);
    injector.stabilize();
    expect_own_network(w.network());
    EXPECT_TRUE(w.run_until_converged(w.all_members(), 60 * sim::kSecond));
  }
}

// -- Correlated failure waves -------------------------------------------------

TEST(FailureInjector, WaveIsolatesSliceInBulkAndLiftRestoresIt) {
  app::World w(SmallWorld(4, 1));
  const net::NodeId in_wave = net::node_of(ProcessId{1});
  const net::NodeId in_wave2 = net::node_of(ProcessId{2});
  const net::NodeId outside = net::node_of(ProcessId{3});
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));

  FaultOp wave;
  wave.at = w.sim().now();
  wave.kind = FaultOp::Kind::kWave;
  wave.groups = {{0, 1}};  // processes 0 and 1
  FaultOp lift = wave;
  lift.at = wave.at + sim::kSecond;
  lift.kind = FaultOp::Kind::kWaveLift;
  FaultScript script;
  script.ops.push_back(wave);
  script.ops.push_back(lift);

  FailureInjector injector(w.fault_target(), {}, 1);
  injector.replay(script);
  // Both ops already applied: the slice is back up.
  EXPECT_TRUE(w.network().can_send(in_wave, outside));
  EXPECT_TRUE(w.network().can_send(in_wave2, outside));
  EXPECT_TRUE(w.run_until_converged(w.all_members(), 60 * sim::kSecond));
}

TEST(FailureInjector, StabilizeLiftsOutstandingWaves) {
  app::World w(SmallWorld(4, 1));
  const net::NodeId in_wave = net::node_of(ProcessId{1});
  const net::NodeId outside = net::node_of(ProcessId{3});
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));

  FaultOp wave;
  wave.at = w.sim().now();
  wave.kind = FaultOp::Kind::kWave;
  wave.groups = {{0, 1}};
  FaultScript script;
  script.ops.push_back(wave);

  FailureInjector injector(w.fault_target(), {}, 1);
  injector.replay(script);
  EXPECT_FALSE(w.network().can_send(in_wave, outside));
  EXPECT_FALSE(w.network().can_send(outside, in_wave))
      << "isolation is symmetric: no traffic in either direction";

  injector.stabilize();
  EXPECT_TRUE(w.network().can_send(in_wave, outside));
  EXPECT_TRUE(w.run_until_converged(w.all_members(), 60 * sim::kSecond));
}

TEST(Network, IsolateBlocksPairsTouchingTheSliceOnly) {
  sim::Simulator sim;
  net::Network net(sim, Rng(1), {});
  const net::NodeId a{1}, b{2}, c{3}, d{4};
  net.isolate({a, b});
  EXPECT_FALSE(net.can_send(a, c));
  EXPECT_FALSE(net.can_send(c, a));
  EXPECT_FALSE(net.can_send(a, b)) << "two isolated nodes cannot talk either";
  EXPECT_TRUE(net.can_send(c, d)) << "pairs outside the slice are untouched";
  net.deisolate({a});
  EXPECT_TRUE(net.can_send(a, c));
  EXPECT_FALSE(net.can_send(b, c));
  net.heal();
  EXPECT_TRUE(net.can_send(b, c)) << "heal clears isolation";
}

// -- Asymmetric links ---------------------------------------------------------

TEST(FailureInjector, OnewayLinkDownBlocksExactlyOneDirection) {
  app::World w(SmallWorld(2, 1));
  const net::NodeId n0 = net::node_of(ProcessId{1});
  const net::NodeId n1 = net::node_of(ProcessId{2});
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));

  FaultOp down;
  down.at = w.sim().now();
  down.kind = FaultOp::Kind::kLinkDown;
  down.a = 0;
  down.b = 1;
  down.oneway = true;
  FaultScript script;
  script.ops.push_back(down);

  FailureInjector injector(w.fault_target(), {}, 1);
  injector.replay(script);
  EXPECT_FALSE(w.network().can_send(n0, n1));
  EXPECT_TRUE(w.network().can_send(n1, n0)) << "reverse direction stays up";

  injector.stabilize();
  EXPECT_TRUE(w.network().can_send(n0, n1));
}

// -- Crash inside the delivery callback ---------------------------------------

TEST(FailureInjector, CrashInDeliveryCrashesTheReceiverMidCallback) {
  app::World w(SmallWorld(3, 1));
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));

  FaultScript script;
  FaultOp arm = At(w.sim().now(), FaultOp::Kind::kCrashInDelivery, 2);
  script.ops.push_back(arm);
  FaultOp traffic;
  traffic.at = w.sim().now();
  traffic.kind = FaultOp::Kind::kTraffic;
  traffic.a = 0;
  traffic.payload = "boom";
  script.ops.push_back(traffic);

  FailureInjector injector(w.fault_target(), {}, 1);
  injector.replay(script);
  w.run_for(3 * sim::kSecond);
  EXPECT_TRUE(w.process(2).crashed())
      << "armed process must crash inside its delivery callback";
  EXPECT_FALSE(w.process(0).crashed());
  EXPECT_FALSE(w.process(1).crashed());

  injector.stabilize();
  EXPECT_TRUE(w.run_until_converged(w.all_members(), 60 * sim::kSecond));
}

// -- The deliberate-bug hook ---------------------------------------------------

TEST(FailureInjector, InjectedDuplicateDeliveryTripsTheCheckers) {
  app::WorldConfig cfg;
  cfg.num_clients = 3;
  cfg.num_servers = 1;
  cfg.seed = 5;
  app::World w(cfg);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  // Real deliveries must exist before the forged duplicate.
  w.client(0).send("payload");
  w.run_for(3 * sim::kSecond);

  FailureInjector::Policy policy;
  policy.steps = 3;
  policy.bug_at_step = 1;
  FailureInjector injector(w.fault_target(), policy, 7);
  EXPECT_THROW(injector.run_churn(), InvariantViolation)
      << "the WV checker must catch the forged duplicate delivery";
}

// -- State-corruption family (DESIGN.md §12) ----------------------------------

app::WorldConfig EventualWorld(int clients = 4, int servers = 2) {
  app::WorldConfig cfg = SmallWorld(clients, servers);
  cfg.tolerance_window = 30 * sim::kSecond;  // corruption fallout is tolerated
  return cfg;
}

FaultOp CorruptAt(sim::Time at, FaultOp::Kind kind, int a, int b,
                  std::uint64_t v) {
  FaultOp op = At(at, kind, a);
  op.b = b;
  op.v = v;
  return op;
}

TEST(FailureInjector, RecoverableCorruptionHealsAndReconverges) {
  app::World w(EventualWorld(3, 1));
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  // Seed the p0->p1 / p1->p0 streams with real traffic so the corruption ops
  // hit live transport state.
  w.client(0).send("warm0");
  w.client(1).send("warm1");
  w.run_for(2 * sim::kSecond);

  const sim::Time t0 = w.sim().now();
  FaultScript script;
  script.ops.push_back(
      CorruptAt(t0, FaultOp::Kind::kCorruptSeq, 0, 1, 4));
  script.ops.push_back(
      CorruptAt(t0, FaultOp::Kind::kCorruptAck, 1, 0, 3));
  script.ops.push_back(
      CorruptAt(t0, FaultOp::Kind::kCorruptReliable, 0, 1, 0));
  script.ops.push_back(CorruptAt(t0, FaultOp::Kind::kCorruptView, 1, -1,
                                 std::uint64_t{1} << 40));
  script.ops.push_back(
      CorruptAt(t0, FaultOp::Kind::kCorruptBackoff, 0, 1, 0));
  FaultOp traffic;
  traffic.at = t0;
  traffic.kind = FaultOp::Kind::kTraffic;
  traffic.a = 0;
  traffic.payload = "detect";
  script.ops.push_back(traffic);

  FailureInjector injector(w.fault_target(), {}, 1);
  injector.replay(script);
  injector.stabilize();
  EXPECT_TRUE(w.run_until_converged(w.all_members(), 60 * sim::kSecond))
      << "every recoverable corruption must self-stabilize";
  w.run_for(2 * sim::kSecond);
  w.finalize_checkers();  // window-aware end-of-run checks stay green

  // At least one detection path fired: a transport incarnation reset or a
  // membership client re-sync.
  std::uint64_t repairs = 0;
  for (int i = 0; i < 3; ++i) {
    repairs += w.process(i).transport().stats().corruption_resets;
    repairs += w.process(i).membership().resyncs();
  }
  EXPECT_GT(repairs, 0u);
}

TEST(FailureInjector, CorruptionSubsetsReplayWithoutFaulting) {
  // The greedy minimizer probes arbitrary subsets of a corruption script;
  // every subset must be a valid run that still reconverges.
  app::World w(EventualWorld(3, 1));
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  w.client(0).send("warm");
  w.run_for(2 * sim::kSecond);

  const sim::Time t0 = w.sim().now();
  FaultScript script;
  script.ops.push_back(
      CorruptAt(t0, FaultOp::Kind::kCorruptSeq, 0, 1, 2));
  script.ops.push_back(CorruptAt(t0 + sim::kSecond, FaultOp::Kind::kCorruptView,
                                 1, -1, std::uint64_t{1} << 40));
  script.ops.push_back(CorruptAt(t0 + 2 * sim::kSecond,
                                 FaultOp::Kind::kCorruptAck, 0, 1, 5));
  // Corruption aimed at a crashed process or a dead stream must no-op.
  script.ops.push_back(CorruptAt(t0 + 2 * sim::kSecond,
                                 FaultOp::Kind::kCorruptSeq, 2, 0, 9));

  FailureInjector injector(w.fault_target(), {}, 1);
  injector.replay(script, /*elide=*/{1, 3});
  injector.stabilize();
  EXPECT_TRUE(w.run_until_converged(w.all_members(), 60 * sim::kSecond));
  w.finalize_checkers();
}

TEST(FailureInjector, CorruptionChurnRecordsCorruptOpsAndRecovers) {
  app::World w(EventualWorld(4, 2));
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));

  FailureInjector::Policy policy;
  policy.steps = 30;
  policy.w_corrupt = 12;
  FailureInjector injector(w.fault_target(), policy, 9);
  injector.run_churn();
  bool saw_corrupt = false;
  for (const FaultOp& op : injector.script().ops) {
    if (std::string_view(op.name()).starts_with("corrupt_")) {
      saw_corrupt = true;
    }
  }
  EXPECT_TRUE(saw_corrupt) << "w_corrupt must put corruption in the mix";

  injector.stabilize();
  EXPECT_TRUE(w.run_until_converged(w.all_members(), 60 * sim::kSecond));
  w.run_for(2 * sim::kSecond);
  w.finalize_checkers();
}

/// The vsgc_stress --corrupt recipe on a 4-client, 1-server world: churn
/// (or a replay of `replay`), then World::stabilize_and_check. Returns the
/// recorded JSONL trace; `*out` receives the script the run applied.
std::string CorruptionRecipeTrace(std::uint64_t seed,
                                  const FaultScript* replay,
                                  FaultScript* out) {
  app::WorldConfig cfg = EventualWorld(4, 1);
  cfg.seed = seed;
  app::World w(cfg);
  FailureInjector::Policy policy;
  policy.w_corrupt = 6;
  FailureInjector injector(w.fault_target(), policy, seed);
  w.start();
  EXPECT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  if (replay != nullptr) injector.replay(*replay);
  else injector.run_churn();
  w.stabilize_and_check(injector, "probe");
  *out = injector.script();
  return app::render_trace(w.trace().recorded());
}

TEST(FailureInjector, CorruptionChurnReplaysItsOwnTraceByteForByte) {
  FaultScript generated;
  const std::string trace = CorruptionRecipeTrace(3, nullptr, &generated);
  ASSERT_FALSE(generated.ops.empty());
  // The churn ran on past its last op: replay must run to end_at too, or
  // the stabilize point (and everything after it) would move.
  EXPECT_GT(generated.end_at, generated.ops.back().at);

  FaultScript replayed;
  EXPECT_EQ(CorruptionRecipeTrace(3, &generated, &replayed), trace);
  EXPECT_EQ(obs::to_json(replayed).dump(), obs::to_json(generated).dump());
}

TEST(FailureInjector, CorruptionWedgeBugDefeatsReconvergence) {
  // bug_is_corruption plants kBugCorruptWedge: an unrecoverable view-epoch
  // wedge the stabilize-and-reconverge epilogue must flag even with a
  // tolerance window — the corruption twin of the dup-delivery hook.
  app::World w(EventualWorld(3, 1));
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));

  // Traffic-only churn: a crash + recover pair would reset the wedged
  // endpoint's state wholesale and mask the planted bug.
  FailureInjector::Policy policy;
  policy.steps = 3;
  policy.w_crash = 0;
  policy.w_recover = 0;
  policy.w_leave = 0;
  policy.w_rejoin = 0;
  policy.w_partition = 0;
  policy.w_heal = 0;
  policy.w_link = 0;
  policy.w_drop_spike = 0;
  policy.w_delay_burst = 0;
  policy.w_server_outage = 0;
  policy.w_crash_in_delivery = 0;
  policy.w_partition_in_view_change = 0;
  policy.bug_at_step = 1;
  policy.bug_is_corruption = true;
  FailureInjector injector(w.fault_target(), policy, 7);
  injector.run_churn();
  injector.stabilize();
  EXPECT_FALSE(w.run_until_converged(w.all_members(), 60 * sim::kSecond))
      << "the wedged endpoint must never re-enter an agreed view";
}

// -- Fault events land on the trace -------------------------------------------

TEST(FailureInjector, PublishesFaultEventsOnTheTraceBus) {
  app::World w(SmallWorld(3, 1));
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));

  FaultScript script;
  script.ops.push_back(At(w.sim().now(), FaultOp::Kind::kCrash, 1));
  FailureInjector injector(w.fault_target(), {}, 1);
  injector.replay(script);

  bool saw_fault = false;
  for (const spec::Event& ev : w.trace().recorded()) {
    if (const auto* f = std::get_if<spec::FaultInjected>(&ev.body)) {
      EXPECT_EQ(f->kind, "crash");
      saw_fault = true;
    }
  }
  EXPECT_TRUE(saw_fault);
}

TEST(FailureInjector, PublishesCorruptionFaultEventsOnTheTraceBus) {
  app::World w(EventualWorld(3, 1));
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  w.client(0).send("warm");
  w.run_for(2 * sim::kSecond);

  FaultScript script;
  script.ops.push_back(
      CorruptAt(w.sim().now(), FaultOp::Kind::kCorruptSeq, 0, 1, 2));
  FailureInjector injector(w.fault_target(), {}, 1);
  injector.replay(script);

  bool saw_corrupt = false;
  for (const spec::Event& ev : w.trace().recorded()) {
    if (const auto* f = std::get_if<spec::FaultInjected>(&ev.body)) {
      if (f->kind == "corrupt_seq") saw_corrupt = true;
    }
  }
  EXPECT_TRUE(saw_corrupt)
      << "corruption ops must land on the trace for replay/minimization";
}

}  // namespace
}  // namespace vsgc
