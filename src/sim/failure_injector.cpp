#include "sim/failure_injector.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "obs/json.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace vsgc::sim {

namespace {

using enum FaultOp::Arg;

constexpr FaultKindName kKindNames[] = {
    {FaultOp::Kind::kCrash, "crash", kArgA},
    {FaultOp::Kind::kRecover, "recover", kArgA},
    {FaultOp::Kind::kLeave, "leave", kArgA},
    {FaultOp::Kind::kRejoin, "rejoin", kArgA},
    {FaultOp::Kind::kServerDown, "server_down", kArgA},
    {FaultOp::Kind::kServerUp, "server_up", kArgA},
    {FaultOp::Kind::kPartition, "partition", kArgGroups},
    {FaultOp::Kind::kWave, "wave", kArgGroups},
    {FaultOp::Kind::kWaveLift, "wave_lift", kArgGroups},
    {FaultOp::Kind::kHeal, "heal", 0},
    {FaultOp::Kind::kLinkDown, "link_down", kArgA | kArgB | kArgOneway},
    {FaultOp::Kind::kLinkUp, "link_up", kArgA | kArgB | kArgOneway},
    {FaultOp::Kind::kDrop, "drop", kArgP},
    {FaultOp::Kind::kLatency, "latency", kArgT0 | kArgT1},
    {FaultOp::Kind::kCrashInDelivery, "crash_in_delivery", kArgA},
    {FaultOp::Kind::kTraffic, "traffic", kArgA | kArgPayload},
    {FaultOp::Kind::kBugDupDeliver, "bug_dup_deliver", 0},
    {FaultOp::Kind::kCorruptSeq, "corrupt_seq", kArgA | kArgB | kArgV},
    {FaultOp::Kind::kCorruptAck, "corrupt_ack", kArgA | kArgB | kArgV},
    {FaultOp::Kind::kCorruptReliable, "corrupt_reliable_set",
     kArgA | kArgB | kArgV},
    {FaultOp::Kind::kCorruptView, "corrupt_view_id", kArgA | kArgV},
    {FaultOp::Kind::kCorruptBackoff, "corrupt_backoff", kArgA | kArgB | kArgV},
    {FaultOp::Kind::kBugCorruptWedge, "bug_corrupt_wedge", kArgA | kArgV},
};

const FaultKindName* kind_row(FaultOp::Kind kind) {
  for (const FaultKindName& row : kKindNames) {
    if (row.value == kind) return &row;
  }
  return nullptr;
}

std::string node_ref(int v) {
  return encodes_server(v) ? "s" + std::to_string(decode_server(v))
                           : "p" + std::to_string(v);
}

std::string op_detail(const FaultOp& op) {
  std::ostringstream os;
  switch (op.kind) {
    case FaultOp::Kind::kCrash:
    case FaultOp::Kind::kRecover:
    case FaultOp::Kind::kLeave:
    case FaultOp::Kind::kRejoin:
    case FaultOp::Kind::kCrashInDelivery:
    case FaultOp::Kind::kTraffic:
      os << "p" << op.a;
      break;
    case FaultOp::Kind::kServerDown:
    case FaultOp::Kind::kServerUp:
      os << "s" << op.a;
      break;
    case FaultOp::Kind::kPartition: {
      bool first_group = true;
      for (const auto& group : op.groups) {
        if (!first_group) os << " | ";
        first_group = false;
        bool first = true;
        for (int v : group) {
          if (!first) os << " ";
          first = false;
          os << node_ref(v);
        }
      }
      break;
    }
    case FaultOp::Kind::kWave:
    case FaultOp::Kind::kWaveLift:
      if (!op.groups.empty()) {
        os << "n=" << op.groups.front().size();
        for (int v : op.groups.front()) os << " " << node_ref(v);
      }
      break;
    case FaultOp::Kind::kHeal:
    case FaultOp::Kind::kBugDupDeliver:
      break;
    case FaultOp::Kind::kLinkDown:
    case FaultOp::Kind::kLinkUp:
      os << node_ref(op.a) << (op.oneway ? "->" : "<->") << node_ref(op.b);
      break;
    case FaultOp::Kind::kDrop:
      os << "p=" << obs::format_double(op.p);
      break;
    case FaultOp::Kind::kLatency:
      os << "base=" << op.t0 << " jitter=" << op.t1;
      break;
    case FaultOp::Kind::kCorruptSeq:
    case FaultOp::Kind::kCorruptAck:
    case FaultOp::Kind::kCorruptBackoff:
      os << "p" << op.a << "->p" << op.b << " v=" << op.v;
      break;
    case FaultOp::Kind::kCorruptReliable:
      os << "p" << op.a << " drops p" << op.b;
      break;
    case FaultOp::Kind::kCorruptView:
    case FaultOp::Kind::kBugCorruptWedge:
      os << "p" << op.a << " epoch=" << op.v;
      break;
  }
  return os.str();
}

}  // namespace

const char* FaultOp::name() const {
  const FaultKindName* row = kind_row(kind);
  return row != nullptr ? row->name : "unknown";
}

bool FaultOp::carries(Arg arg) const {
  const FaultKindName* row = kind_row(kind);
  return row != nullptr && (row->args & arg) != 0;
}

std::span<const FaultKindName> enum_names(FaultOp::Kind) { return kKindNames; }

bool FaultScript::fits(int num_processes, int num_servers) const {
  const auto process = [&](int i) { return i >= 0 && i < num_processes; };
  // Encoded refs: servers 0..num_servers-1 encode as -1..-num_servers.
  const auto node = [&](int v) {
    return v >= encode_server(num_servers - 1) && v < num_processes;
  };
  return std::ranges::all_of(ops, [&](const FaultOp& op) {
    if (op.kind == FaultOp::Kind::kServerDown ||
        op.kind == FaultOp::Kind::kServerUp) {
      return op.a >= 0 && op.a < num_servers;
    }
    // Link ops (the kinds with a direction) join encoded node refs; every
    // other a/b is a process index.
    const bool link = op.carries(kArgOneway);
    const auto ref = [&](int v) { return link ? node(v) : process(v); };
    if (op.carries(kArgA) && !ref(op.a)) return false;
    if (op.carries(kArgB) && !ref(op.b)) return false;
    if (!op.carries(kArgGroups)) return true;
    return std::ranges::all_of(op.groups, [&](const std::vector<int>& g) {
      return std::ranges::all_of(g, node);
    });
  });
}

// ---------------------------------------------------------------------------
// FailureInjector
// ---------------------------------------------------------------------------

FailureInjector::FailureInjector(FaultTarget target, Policy policy,
                                 std::uint64_t seed)
    : target_(std::move(target)), policy_(policy), rng_(seed * 7919 + 13) {
  VSGC_REQUIRE(target_.sim != nullptr, "FailureInjector needs a simulator");
  script_.seed = seed;
  left_.assign(static_cast<std::size_t>(target_.num_processes), false);
  server_down_.assign(static_cast<std::size_t>(target_.num_servers), false);
}

void FailureInjector::publish(const FaultOp& op) {
  if (target_.trace == nullptr) return;
  if (op.kind == FaultOp::Kind::kTraffic) return;  // GcsSend covers traffic
  target_.trace->emit(target_.sim->now(),
                      spec::FaultInjected{op.name(), op_detail(op)});
}

void FailureInjector::apply(const FaultOp& op, bool record) {
  FaultOp applied = op;
  applied.at = target_.sim->now();
  publish(applied);
  if (record) script_.ops.push_back(applied);

  const auto crashed = [&](int i) {
    return target_.process_crashed && target_.process_crashed(i);
  };

  switch (op.kind) {
    case FaultOp::Kind::kCrash:
      if (!crashed(op.a) && target_.crash_process) target_.crash_process(op.a);
      break;
    case FaultOp::Kind::kRecover:
      if (crashed(op.a) && target_.recover_process) {
        target_.recover_process(op.a);
        // Recovery re-attaches to the membership server (Section 8), so a
        // pre-crash leave no longer holds.
        left_[static_cast<std::size_t>(op.a)] = false;
      }
      break;
    case FaultOp::Kind::kLeave:
      if (!crashed(op.a) && target_.leave_process) {
        target_.leave_process(op.a);
        left_[static_cast<std::size_t>(op.a)] = true;
      }
      break;
    case FaultOp::Kind::kRejoin:
      if (!crashed(op.a) && target_.rejoin_process) {
        target_.rejoin_process(op.a);
        left_[static_cast<std::size_t>(op.a)] = false;
      }
      break;
    case FaultOp::Kind::kServerDown:
      if (target_.set_server_up) {
        target_.set_server_up(op.a, false);
        server_down_[static_cast<std::size_t>(op.a)] = true;
      }
      break;
    case FaultOp::Kind::kServerUp:
      if (target_.set_server_up) {
        target_.set_server_up(op.a, true);
        server_down_[static_cast<std::size_t>(op.a)] = false;
      }
      break;
    case FaultOp::Kind::kPartition:
      if (target_.partition) {
        target_.partition(op.groups);
        partitioned_ = true;
      }
      break;
    case FaultOp::Kind::kWave:
      if (target_.set_isolated && !op.groups.empty()) {
        target_.set_isolated(op.groups.front(), true);
        waves_.push_back(applied);
      }
      break;
    case FaultOp::Kind::kWaveLift:
      if (target_.set_isolated && !op.groups.empty()) {
        target_.set_isolated(op.groups.front(), false);
        std::erase_if(waves_, [&](const FaultOp& w) {
          return w.groups == op.groups;
        });
      }
      break;
    case FaultOp::Kind::kHeal:
      if (target_.heal) {
        target_.heal();
        partitioned_ = false;
        downed_links_.clear();
        waves_.clear();  // Network::heal clears wave isolation too
      }
      break;
    case FaultOp::Kind::kLinkDown:
      if (target_.set_link) {
        target_.set_link(op.a, op.b, false, op.oneway);
        downed_links_.push_back(applied);
      }
      break;
    case FaultOp::Kind::kLinkUp:
      if (target_.set_link) {
        target_.set_link(op.a, op.b, true, op.oneway);
        std::erase_if(downed_links_, [&](const FaultOp& d) {
          return d.a == op.a && d.b == op.b && d.oneway == op.oneway;
        });
      }
      break;
    case FaultOp::Kind::kDrop:
      if (target_.set_drop) target_.set_drop(op.p);
      break;
    case FaultOp::Kind::kLatency:
      if (target_.set_latency) target_.set_latency(op.t0, op.t1);
      break;
    case FaultOp::Kind::kCrashInDelivery:
      if (!crashed(op.a) && target_.arm_crash_in_delivery) {
        target_.arm_crash_in_delivery(op.a, true);
      }
      break;
    case FaultOp::Kind::kTraffic:
      if (!crashed(op.a) && target_.send_traffic) {
        target_.send_traffic(op.a, op.payload);
      }
      break;
    case FaultOp::Kind::kBugDupDeliver: {
      // Deliberate "endpoint bug" for pipeline self-tests: re-emit the most
      // recent delivery, which violates WV_RFIFO's gap-free FIFO delivery.
      if (target_.trace == nullptr) break;
      const auto& recorded = target_.trace->recorded();
      for (auto it = recorded.rbegin(); it != recorded.rend(); ++it) {
        if (const auto* d = std::get_if<spec::GcsDeliver>(&it->body)) {
          const spec::GcsDeliver dup = *d;
          target_.trace->emit(target_.sim->now(), dup);
          break;
        }
      }
      break;
    }
    case FaultOp::Kind::kCorruptSeq:
    case FaultOp::Kind::kCorruptAck:
    case FaultOp::Kind::kCorruptReliable:
    case FaultOp::Kind::kCorruptView:
    case FaultOp::Kind::kCorruptBackoff:
    case FaultOp::Kind::kBugCorruptWedge:
      if (!crashed(op.a) && target_.corrupt) target_.corrupt(op);
      break;
  }
}

void FailureInjector::schedule_restore(Time at, FaultOp op) {
  op.at = at;
  pending_.push_back(PendingOp{at, std::move(op)});
  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const PendingOp& x, const PendingOp& y) {
                     return x.at < y.at;
                   });
}

void FailureInjector::drain_pending(Time up_to) {
  while (!pending_.empty() && pending_.front().at <= up_to) {
    PendingOp next = std::move(pending_.front());
    pending_.erase(pending_.begin());
    if (target_.sim->now() < next.at) target_.sim->run_until(next.at);
    apply(next.op, /*record=*/true);
  }
}

bool FailureInjector::generate_step(int step) {
  if (step == policy_.bug_at_step) {
    FaultOp op;
    if (policy_.bug_is_corruption) {
      // Unrecoverable planted corruption: wedge a live process's endpoint on
      // an impossibly-high view epoch so it can never install another view.
      op.kind = FaultOp::Kind::kBugCorruptWedge;
      op.a = 0;
      for (int i = 0; i < target_.num_processes; ++i) {
        if (!target_.process_crashed || !target_.process_crashed(i)) {
          op.a = i;
          break;
        }
      }
      op.v = std::uint64_t{1} << 40;
    } else {
      op.kind = FaultOp::Kind::kBugDupDeliver;
    }
    apply(op, /*record=*/true);
    return true;
  }

  const auto crashed = [&](int i) {
    return target_.process_crashed && target_.process_crashed(i);
  };
  const auto pick_where = [&](auto&& pred) -> int {
    std::vector<int> candidates;
    for (int i = 0; i < target_.num_processes; ++i) {
      if (pred(i)) candidates.push_back(i);
    }
    if (candidates.empty()) return -1;
    return candidates[rng_.next_below(candidates.size())];
  };
  const auto random_groups = [&]() {
    const int ways =
        2 + static_cast<int>(
                rng_.next_below(std::uint64_t{kMaxPartitionWays - 1}));
    std::vector<std::vector<int>> groups(static_cast<std::size_t>(ways));
    for (int i = 0; i < target_.num_processes; ++i) {
      groups[rng_.next_below(static_cast<std::uint64_t>(ways))].push_back(
          encode_process(i));
    }
    for (int s = 0; s < target_.num_servers; ++s) {
      groups[rng_.next_below(static_cast<std::uint64_t>(ways))].push_back(
          encode_server(s));
    }
    return groups;
  };
  const auto send_traffic_to = [&](int proc) {
    FaultOp op;
    op.kind = FaultOp::Kind::kTraffic;
    op.a = proc;
    op.payload = "churn-" + std::to_string(traffic_counter_++);
    apply(op, /*record=*/true);
  };
  // Fallback when the drawn action has no valid target: traffic keeps the
  // schedule dense instead of wasting the step.
  const auto fallback_traffic = [&]() {
    const int proc = pick_where([&](int i) {
      return !crashed(i) && !left_[static_cast<std::size_t>(i)];
    });
    if (proc < 0) return false;
    send_traffic_to(proc);
    return true;
  };

  struct Action {
    int weight;
    FaultOp::Kind kind;  // representative kind (composites special-cased)
  };
  const Action actions[] = {
      {policy_.w_traffic, FaultOp::Kind::kTraffic},
      {policy_.w_crash, FaultOp::Kind::kCrash},
      {policy_.w_recover, FaultOp::Kind::kRecover},
      {policy_.w_leave, FaultOp::Kind::kLeave},
      {policy_.w_rejoin, FaultOp::Kind::kRejoin},
      {policy_.w_partition, FaultOp::Kind::kPartition},
      {policy_.w_heal, FaultOp::Kind::kHeal},
      {policy_.w_link, FaultOp::Kind::kLinkDown},
      {policy_.w_drop_spike, FaultOp::Kind::kDrop},
      {policy_.w_delay_burst, FaultOp::Kind::kLatency},
      {target_.num_servers > 1 ? policy_.w_server_outage : 0,
       FaultOp::Kind::kServerDown},
      {policy_.w_crash_in_delivery, FaultOp::Kind::kCrashInDelivery},
      {policy_.w_partition_in_view_change, FaultOp::Kind::kLeave},  // marker
      {target_.num_processes > 1 ? policy_.w_corrupt : 0,
       FaultOp::Kind::kCorruptSeq},  // marker: sub-kind drawn below
      {target_.num_processes >= 2 ? policy_.w_wave : 0, FaultOp::Kind::kWave},
  };
  int total = 0;
  for (const Action& a : actions) total += a.weight;
  if (total == 0) return false;
  int draw = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(total)));
  int index = 0;
  for (const Action& a : actions) {
    if (draw < a.weight) break;
    draw -= a.weight;
    ++index;
  }

  FaultOp op;
  switch (index) {
    case 0:  // traffic
      return fallback_traffic();
    case 1: {  // crash
      const int proc = pick_where([&](int i) { return !crashed(i); });
      if (proc < 0) return fallback_traffic();
      op.kind = FaultOp::Kind::kCrash;
      op.a = proc;
      apply(op, true);
      return true;
    }
    case 2: {  // recover
      const int proc = pick_where([&](int i) { return crashed(i); });
      if (proc < 0) return fallback_traffic();
      op.kind = FaultOp::Kind::kRecover;
      op.a = proc;
      apply(op, true);
      return true;
    }
    case 3: {  // leave
      const int proc = pick_where([&](int i) {
        return !crashed(i) && !left_[static_cast<std::size_t>(i)];
      });
      if (proc < 0) return fallback_traffic();
      op.kind = FaultOp::Kind::kLeave;
      op.a = proc;
      apply(op, true);
      return true;
    }
    case 4: {  // rejoin
      const int proc = pick_where([&](int i) {
        return !crashed(i) && left_[static_cast<std::size_t>(i)];
      });
      if (proc < 0) return fallback_traffic();
      op.kind = FaultOp::Kind::kRejoin;
      op.a = proc;
      apply(op, true);
      return true;
    }
    case 5: {  // partition (also re-partitions an already split network)
      op.kind = FaultOp::Kind::kPartition;
      op.groups = random_groups();
      apply(op, true);
      return true;
    }
    case 6: {  // heal
      if (!partitioned_ && downed_links_.empty()) return fallback_traffic();
      op.kind = FaultOp::Kind::kHeal;
      apply(op, true);
      return true;
    }
    case 7: {  // link flap: down now, back up after a random hold
      const int total_nodes = target_.num_processes + target_.num_servers;
      if (total_nodes < 2) return fallback_traffic();
      const int ia = static_cast<int>(
          rng_.next_below(static_cast<std::uint64_t>(total_nodes)));
      int ib = static_cast<int>(
          rng_.next_below(static_cast<std::uint64_t>(total_nodes - 1)));
      if (ib >= ia) ++ib;
      const auto encode = [&](int v) {
        return v < target_.num_processes
                   ? encode_process(v)
                   : encode_server(v - target_.num_processes);
      };
      op.kind = FaultOp::Kind::kLinkDown;
      op.a = encode(ia);
      op.b = encode(ib);
      op.oneway = rng_.next_below(2) == 1;
      apply(op, true);
      FaultOp up = op;
      up.kind = FaultOp::Kind::kLinkUp;
      schedule_restore(target_.sim->now() +
                           kSpikeLen *
                               (1 + static_cast<Time>(rng_.next_below(3))),
                       up);
      return true;
    }
    case 8: {  // drop spike
      op.kind = FaultOp::Kind::kDrop;
      op.p = kSpikeDrop;
      apply(op, true);
      FaultOp restore;
      restore.kind = FaultOp::Kind::kDrop;
      restore.p = target_.base_drop;
      schedule_restore(target_.sim->now() + kSpikeLen, restore);
      return true;
    }
    case 9: {  // delay burst
      op.kind = FaultOp::Kind::kLatency;
      op.t0 = kBurstLatency;
      op.t1 = kBurstJitter;
      apply(op, true);
      FaultOp restore;
      restore.kind = FaultOp::Kind::kLatency;
      restore.t0 = target_.base_latency;
      restore.t1 = target_.base_jitter;
      schedule_restore(target_.sim->now() + kBurstLen, restore);
      return true;
    }
    case 10: {  // server outage (keep a majority-ish: at least one server up)
      std::vector<int> up;
      for (int s = 0; s < target_.num_servers; ++s) {
        if (!server_down_[static_cast<std::size_t>(s)]) up.push_back(s);
      }
      if (up.size() < 2) return fallback_traffic();
      op.kind = FaultOp::Kind::kServerDown;
      op.a = up[rng_.next_below(up.size())];
      apply(op, true);
      FaultOp restore;
      restore.kind = FaultOp::Kind::kServerUp;
      restore.a = op.a;
      schedule_restore(target_.sim->now() +
                           kSpikeLen *
                               (1 + static_cast<Time>(rng_.next_below(3))),
                       restore);
      return true;
    }
    case 11: {  // crash inside the next delivery callback
      const int proc = pick_where([&](int i) { return !crashed(i); });
      if (proc < 0) return fallback_traffic();
      op.kind = FaultOp::Kind::kCrashInDelivery;
      op.a = proc;
      apply(op, true);
      // A nudge of traffic so the armed crash actually has a delivery to
      // fire inside (the sender may be anyone, including the armed process).
      return fallback_traffic(), true;
    }
    case 12: {  // partition during a view change: leave, then split mid-round
      const int proc = pick_where([&](int i) {
        return !crashed(i) && !left_[static_cast<std::size_t>(i)];
      });
      if (proc < 0) return fallback_traffic();
      op.kind = FaultOp::Kind::kLeave;
      op.a = proc;
      apply(op, true);
      FaultOp split;
      split.kind = FaultOp::Kind::kPartition;
      split.groups = random_groups();
      schedule_restore(target_.sim->now() + kViewChangeDelay, split);
      partitioned_ = true;  // the split is committed (pending)
      return true;
    }
    case 13: {  // state corruption: one of the five recoverable mutators
      const int proc = pick_where([&](int i) {
        return !crashed(i) && !left_[static_cast<std::size_t>(i)];
      });
      if (proc < 0 || target_.num_processes < 2) return fallback_traffic();
      int peer = static_cast<int>(rng_.next_below(
          static_cast<std::uint64_t>(target_.num_processes - 1)));
      if (peer >= proc) ++peer;
      op.a = proc;
      op.b = peer;
      switch (rng_.next_below(5)) {
        case 0:
          op.kind = FaultOp::Kind::kCorruptSeq;
          op.v = 1 + rng_.next_below(8);
          break;
        case 1:
          op.kind = FaultOp::Kind::kCorruptAck;
          op.v = 1 + rng_.next_below(8);
          break;
        case 2:
          op.kind = FaultOp::Kind::kCorruptReliable;
          break;
        case 3:
          // Resurrected/wrapped view-id floor: half far-future (wedges
          // delivery until the stale-drop re-sync), half back to zero.
          op.kind = FaultOp::Kind::kCorruptView;
          op.v = rng_.next_below(2) == 0 ? (std::uint64_t{1} << 40) : 0;
          break;
        default:
          // Corrupted retransmit multiplier: 0 would spin, huge would freeze.
          op.kind = FaultOp::Kind::kCorruptBackoff;
          op.v = rng_.next_below(2) == 0 ? 0 : (std::uint64_t{1} << 20);
          break;
      }
      apply(op, true);
      // A nudge of traffic so the corrupted stream actually carries data
      // (idle corrupted cursors would otherwise stay dormant for the run).
      return fallback_traffic(), true;
    }
    case 14: {  // correlated failure wave: isolate a random slice in bulk
      std::vector<int> alive;
      for (int i = 0; i < target_.num_processes; ++i) {
        if (!crashed(i)) alive.push_back(encode_process(i));
      }
      const std::size_t slice = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 static_cast<double>(alive.size()) * kWaveFraction));
      if (alive.size() < 2 || slice >= alive.size()) {
        return fallback_traffic();
      }
      // Partial Fisher-Yates: the first `slice` entries become the wave.
      for (std::size_t i = 0; i < slice; ++i) {
        const std::size_t j = i + rng_.next_below(alive.size() - i);
        std::swap(alive[i], alive[j]);
      }
      alive.resize(slice);
      std::sort(alive.begin(), alive.end());
      op.kind = FaultOp::Kind::kWave;
      op.groups = {alive};
      apply(op, true);
      FaultOp lift = op;
      lift.kind = FaultOp::Kind::kWaveLift;
      schedule_restore(target_.sim->now() +
                           kSpikeLen *
                               (1 + static_cast<Time>(rng_.next_below(3))),
                       lift);
      return true;
    }
    default:
      return fallback_traffic();
  }
}

void FailureInjector::run_churn() {
  for (int step = 0; step < policy_.steps; ++step) {
    const Time gap =
        policy_.min_gap +
        static_cast<Time>(rng_.next_below(static_cast<std::uint64_t>(
            policy_.max_gap - policy_.min_gap + 1)));
    const Time when = target_.sim->now() + gap;
    drain_pending(when);
    target_.sim->run_until(when);
    generate_step(step);
  }
  // Let the tail of the schedule (pending restores) play out.
  drain_pending(std::numeric_limits<Time>::max());
  script_.end_at = target_.sim->now();
}

void FailureInjector::replay(const FaultScript& script,
                             const std::set<std::size_t>& elide) {
  for (std::size_t i = 0; i < script.ops.size(); ++i) {
    const FaultOp& op = script.ops[i];
    if (target_.sim->now() < op.at) target_.sim->run_until(op.at);
    if (elide.contains(i)) continue;
    apply(op, /*record=*/true);
  }
  if (target_.sim->now() < script.end_at) target_.sim->run_until(script.end_at);
  script_.end_at = target_.sim->now();
}

void FailureInjector::stabilize() {
  pending_.clear();
  if (target_.trace != nullptr) {
    target_.trace->emit(target_.sim->now(),
                        spec::FaultInjected{"stabilize", ""});
  }
  // Lift outstanding waves through the bulk callback first: a target whose
  // set_isolated is not Network-backed still converges, and Network-backed
  // targets are idempotent under the heal() below.
  for (const FaultOp& w : waves_) {
    if (target_.set_isolated && !w.groups.empty()) {
      target_.set_isolated(w.groups.front(), false);
    }
  }
  waves_.clear();
  if (target_.heal) target_.heal();
  partitioned_ = false;
  downed_links_.clear();
  if (target_.set_drop) target_.set_drop(target_.base_drop);
  if (target_.set_latency) {
    target_.set_latency(target_.base_latency, target_.base_jitter);
  }
  for (int s = 0; s < target_.num_servers; ++s) {
    if (server_down_[static_cast<std::size_t>(s)] && target_.set_server_up) {
      target_.set_server_up(s, true);
      server_down_[static_cast<std::size_t>(s)] = false;
    }
  }
  for (int i = 0; i < target_.num_processes; ++i) {
    if (target_.arm_crash_in_delivery) target_.arm_crash_in_delivery(i, false);
    if (target_.process_crashed && target_.process_crashed(i)) {
      if (target_.recover_process) target_.recover_process(i);
      left_[static_cast<std::size_t>(i)] = false;
    } else if (left_[static_cast<std::size_t>(i)]) {
      if (target_.rejoin_process) target_.rejoin_process(i);
      left_[static_cast<std::size_t>(i)] = false;
    }
  }
}

}  // namespace vsgc::sim
