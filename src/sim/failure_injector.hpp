// FailureInjector: seeded, policy-driven fault scheduler (paper §8 + the
// DESIGN.md §3 "failure/partition injector" row).
//
// The injector composes the whole fault vocabulary of this repository —
// process crash/recover, graceful leave/rejoin, repeated multi-way
// partitions and heals, symmetric and asymmetric link down/up,
// drop-probability spikes, latency bursts, membership-server outages,
// crash-inside-delivery-callback, and interleaved application traffic —
// against any target (in practice app::World) through a thin callback
// surface, so it has no dependency on the protocol stack itself.
//
// Two modes share one code path:
//   * generate (run_churn): a seeded policy picks weighted random actions
//     with random gaps; every applied op is recorded into a FaultScript.
//   * replay: re-applies a recorded script, optionally with some ops elided
//     — the substrate of vsgc_stress's greedy fault-script minimizer.
// Both publish every fault on the TraceBus (spec::FaultInjected, plus the
// Crash/Recover events the endpoints emit themselves), so exported JSONL
// traces and Chrome-trace timelines show the exact adversarial schedule.
//
// Determinism: an injector run is a pure function of (target construction
// seed, policy, injector seed) — property tests assert byte-identical JSONL
// traces across same-seed runs.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "spec/events.hpp"
#include "util/rng.hpp"

namespace vsgc::sim {

/// One concrete fault (or traffic nudge) applied at a simulated time.
/// Every op is absolute and self-contained, so ANY subset of a script is a
/// valid schedule — the property the greedy minimizer relies on.
struct FaultOp {
  enum class Kind {
    kCrash,            ///< crash process a
    kRecover,          ///< recover process a
    kLeave,            ///< graceful leave of process a
    kRejoin,           ///< re-attach process a after a leave
    kServerDown,       ///< membership server a unreachable (node down)
    kServerUp,         ///< membership server a reachable again
    kPartition,        ///< multi-way partition into `groups`
    kWave,             ///< correlated failure wave: isolate groups[0] in bulk
    kWaveLift,         ///< lift a wave: de-isolate groups[0]
    kHeal,             ///< remove partition + all link failures + waves
    kLinkDown,         ///< link a->b down (both ways unless `oneway`)
    kLinkUp,           ///< link a->b back up
    kDrop,             ///< set network drop probability to `p`
    kLatency,          ///< set network base latency/jitter to t0/t1
    kCrashInDelivery,  ///< arm: process a crashes inside its next delivery
    kTraffic,          ///< process a multicasts `payload`
    kBugDupDeliver,    ///< test hook: forge a duplicate delivery trace event
    // State-corruption family (DESIGN.md §12): targeted transient mutations
    // of live protocol state. Recoverable by the stack's self-stabilization
    // paths; the eventual-safety checkers tolerate their fallout only inside
    // a bounded post-injection window.
    kCorruptSeq,       ///< bump p_a's CO_RFIFO next_seq toward p_b by `v`
    kCorruptAck,       ///< bump p_a's acked cursor toward p_b by `v`
    kCorruptReliable,  ///< drop p_b from p_a's transport reliable_set
    kCorruptView,      ///< overwrite p_a's membership view-id floor epoch = v
    kCorruptBackoff,   ///< set p_a's retransmit backoff toward p_b to `v`
    kBugCorruptWedge,  ///< test hook: unrecoverable endpoint view-epoch wedge
  };

  Time at = 0;
  Kind kind = Kind::kHeal;
  int a = -1;          ///< process/server index (see kind)
  int b = -1;          ///< second endpoint for link/corruption ops
  bool oneway = false;
  double p = 0.0;      ///< drop probability
  Time t0 = 0, t1 = 0; ///< latency base/jitter
  std::uint64_t v = 0; ///< corruption value (delta, epoch, or counter)
  std::vector<std::vector<int>> groups;  ///< partition components (encoded)
  std::string payload;

  /// The optional fields of a script record, one bit each. The kind table
  /// (enum_names below) says which of them each kind carries.
  enum Arg : unsigned {
    kArgA = 1 << 0,
    kArgB = 1 << 1,
    kArgOneway = 1 << 2,
    kArgP = 1 << 3,
    kArgT0 = 1 << 4,
    kArgT1 = 1 << 5,
    kArgV = 1 << 6,
    kArgPayload = 1 << 7,
    kArgGroups = 1 << 8,
  };

  /// Stable op name as published on the TraceBus and in scripts.
  const char* name() const;
  /// Whether this op's kind carries the optional field `arg`.
  bool carries(Arg arg) const;

  /// Script record: `at`, `kind`, then only the optional fields the kind
  /// carries. `kind` is read before the presence tests are evaluated (see
  /// obs/json_fields.hpp), so the reader requires exactly those fields.
  template <class S, class V>
  static void json_fields(S& s, V& v) {
    v("at", s.at)("kind", s.kind)("a", s.a, s.carries(kArgA))
     ("b", s.b, s.carries(kArgB))("oneway", s.oneway, s.carries(kArgOneway))
     ("p", s.p, s.carries(kArgP))("t0", s.t0, s.carries(kArgT0))
     ("t1", s.t1, s.carries(kArgT1))("v", s.v, s.carries(kArgV))
     ("payload", s.payload, s.carries(kArgPayload))
     ("groups", s.groups, s.carries(kArgGroups));
  }
};

/// One row of the FaultOp kind table: the kind's stable name and the
/// FaultOp::Arg bits of the optional fields it carries.
struct FaultKindName {
  FaultOp::Kind value;
  const char* name;
  unsigned args;
};

/// The kind table, one row per kind; obs/json_fields.hpp maps FaultOp::kind
/// through it.
std::span<const FaultKindName> enum_names(FaultOp::Kind);

/// Encoding of mixed process/server node references inside FaultOp fields
/// (partition groups and link endpoints): process i => i, server s => -(s+1).
inline int encode_process(int i) { return i; }
inline int encode_server(int s) { return -(s + 1); }
inline bool encodes_server(int v) { return v < 0; }
inline int decode_server(int v) { return -v - 1; }

/// A recorded fault schedule: replayable, serializable, minimizable.
struct FaultScript {
  std::uint64_t seed = 0;  ///< injector seed that generated it (provenance)
  /// Simulated time at which the schedule ended: run_churn keeps running
  /// after its last op (gaps, timed restores), and replay runs to here too,
  /// so what follows the schedule starts at the same instant.
  Time end_at = 0;
  std::vector<FaultOp> ops;

  /// Whether every process or server reference in the script names one of
  /// `num_processes` processes or `num_servers` servers: op targets, decoded
  /// link endpoints, and partition and wave group entries. A replayed script
  /// must fit its world.
  bool fits(int num_processes, int num_servers) const;

  template <class S, class V>
  static void json_fields(S& s, V& v) {
    v("seed", s.seed)("end_at", s.end_at)("ops", s.ops);
  }
};

/// The surface a deployment exposes to the injector. All callbacks must be
/// safe to invoke in any target state (guard internally and no-op instead of
/// failing), so that arbitrary script subsets replay cleanly.
struct FaultTarget {
  Simulator* sim = nullptr;
  spec::TraceBus* trace = nullptr;  ///< may be null (no fault events then)
  int num_processes = 0;
  int num_servers = 0;

  std::function<bool(int)> process_crashed;
  std::function<void(int)> crash_process;
  std::function<void(int)> recover_process;
  std::function<void(int)> leave_process;
  std::function<void(int)> rejoin_process;
  std::function<void(int, bool)> set_server_up;
  /// Partition into components of encoded node refs (see encode_process/
  /// encode_server); every node appears in exactly one component.
  std::function<void(const std::vector<std::vector<int>>&)> partition;
  /// Bulk wave isolation of encoded node refs (kWave / kWaveLift): the whole
  /// slice goes down (or comes back) in ONE call, so a 10% wave over 5k
  /// clients is O(slice) work, never O(slice x nodes) per-pair link edits.
  std::function<void(const std::vector<int>&, bool)> set_isolated;
  std::function<void()> heal;
  /// Link control between encoded node refs; `oneway` downs a->b only.
  std::function<void(int, int, bool, bool)> set_link;  // a, b, up, oneway
  std::function<void(double)> set_drop;
  std::function<void(Time, Time)> set_latency;  // base, jitter
  /// The wrapped network's own drop probability, base latency and jitter:
  /// what drop-spike and delay-burst restores and stabilize() return to.
  /// Whoever builds the target fills them from the network it wraps.
  double base_drop = 0.0;
  Time base_latency = 0;
  Time base_jitter = 0;
  /// Arm (or disarm) "crash inside the next delivery callback" at process a.
  std::function<void(int, bool)> arm_crash_in_delivery;
  std::function<void(int, const std::string&)> send_traffic;
  /// Apply a state-corruption op (one of the kCorrupt*/kBugCorruptWedge
  /// kinds) to live protocol state. Must no-op gracefully when the target
  /// process is crashed or the referenced stream does not exist.
  std::function<void(const FaultOp&)> corrupt;
};

class FailureInjector {
 public:
  /// Weighted action mix and pacing for generate mode. Weight 0 removes an
  /// action from the vocabulary (e.g. partitions in single-component tests);
  /// the defaults reproduce a broad churn mix.
  struct Policy {
    int steps = 25;                 ///< actions per run_churn()
    Time min_gap = 50 * kMillisecond;
    Time max_gap = 600 * kMillisecond;

    int w_traffic = 10;
    int w_crash = 3;
    int w_recover = 3;
    int w_leave = 1;
    int w_rejoin = 1;
    int w_partition = 2;
    int w_heal = 2;
    int w_link = 1;            ///< symmetric or one-way link flap
    int w_drop_spike = 1;
    int w_delay_burst = 1;
    int w_server_outage = 1;   ///< only effective with >= 2 servers
    int w_crash_in_delivery = 1;
    int w_partition_in_view_change = 1;  ///< leave, then partition mid-change
    /// Correlated failure wave: isolate a random kWaveFraction slice of the
    /// processes in one bulk call, lift it after a random hold. Off by
    /// default; the scale bench turns it on to model rack/AZ failures.
    int w_wave = 0;
    /// State-corruption family weight (off by default so crash/partition-only
    /// suites keep their exact-safety contract; vsgc_stress --corrupt and the
    /// mc corruption menu turn it on). One draw picks uniformly among the
    /// five recoverable corruption kinds.
    int w_corrupt = 0;

    /// Test hook: at this churn step (if >= 0), forge a duplicate-delivery
    /// trace event — a deliberately injected "endpoint bug" that the spec
    /// checkers must catch (vsgc_stress --inject-bug, CI pipeline check).
    int bug_at_step = -1;

    /// When bug_at_step fires and this is set, plant kBugCorruptWedge (an
    /// unrecoverable view-epoch corruption that wedges reconvergence) instead
    /// of the duplicate-delivery forgery — the corruption-family variant of
    /// the pipeline self-check.
    bool bug_is_corruption = false;
  };

  // Shapes of the generated faults.
  static constexpr int kMaxPartitionWays = 3;
  static constexpr double kSpikeDrop = 0.4;  ///< drop probability of a spike
  /// How long a drop spike lasts; link flaps, server outages and waves hold
  /// for 1-3 times this.
  static constexpr Time kSpikeLen = 300 * kMillisecond;
  static constexpr Time kBurstLatency = 25 * kMillisecond;
  static constexpr Time kBurstJitter = 5 * kMillisecond;
  static constexpr Time kBurstLen = 300 * kMillisecond;
  /// Gap between the leave and the split of a partition-in-view-change.
  static constexpr Time kViewChangeDelay = 15 * kMillisecond;
  /// Share of the live processes a failure wave isolates.
  static constexpr double kWaveFraction = 0.1;

  FailureInjector(FaultTarget target, Policy policy, std::uint64_t seed);

  /// Generate mode: apply `policy.steps` weighted random actions separated
  /// by random gaps, advancing the target's simulator. Every applied op
  /// (including traffic and timed spike/burst restores) lands in script().
  void run_churn();

  /// Replay `script` against the target: advance the simulator to each op's
  /// time and apply it, then to `script.end_at`. Ops whose index is in
  /// `elide` are skipped (the minimizer's probe); time still advances
  /// identically.
  void replay(const FaultScript& script, const std::set<std::size_t>& elide = {});

  /// Apply one op at the current simulated time, recording it into script().
  /// The model checker's fault decision points (src/mc) land explorer-chosen
  /// faults mid-schedule through this; stabilize() still undoes them.
  void apply_now(const FaultOp& op) { apply(op, /*record=*/true); }

  /// Undo every outstanding fault so liveness can be checked: heal the
  /// network, restore baseline drop/latency, bring servers up, disarm
  /// delivery crashes, rejoin leavers, recover crashed processes.
  void stabilize();

  /// Everything applied so far (generate and replay both record).
  const FaultScript& script() const { return script_; }

 private:
  struct PendingOp {
    Time at;
    FaultOp op;
  };

  void apply(const FaultOp& op, bool record);
  void drain_pending(Time up_to);
  void schedule_restore(Time at, FaultOp op);
  bool generate_step(int step);
  void publish(const FaultOp& op);

  FaultTarget target_;
  Policy policy_;
  Rng rng_;
  FaultScript script_;

  // Mirror of the fault state we created (for picking valid actions and for
  // stabilize()); the target stays the source of truth for crash state.
  std::vector<bool> left_;
  std::vector<bool> server_down_;
  std::vector<FaultOp> downed_links_;
  std::vector<FaultOp> waves_;  ///< outstanding (un-lifted) kWave ops
  bool partitioned_ = false;
  std::vector<PendingOp> pending_;  ///< timed restores, sorted by time
  std::uint64_t traffic_counter_ = 0;
};

}  // namespace vsgc::sim
