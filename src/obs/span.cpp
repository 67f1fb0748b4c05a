#include "obs/span.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <ostream>

#include "obs/artifact.hpp"

namespace vsgc::obs {

std::string to_string(const MsgTraceId& id) {
  return vsgc::to_string(id.sender) + "/" + std::to_string(id.uid);
}

const char* to_string(OrphanKind kind) {
  switch (kind) {
    case OrphanKind::kNeverInView: return "never_in_view";
    case OrphanKind::kReceiverCrashed: return "receiver_crashed";
    case OrphanKind::kSenderCrashed: return "sender_crashed";
    case OrphanKind::kExcludedByCut: return "excluded_by_cut";
    case OrphanKind::kInFlightAtEnd: return "in_flight_at_end";
    case OrphanKind::kUnexplained: return "unexplained";
  }
  return "?";
}

ViewPhases view_phases(const ViewSpan& span) {
  ViewPhases ph;
  if (span.start_change_at < 0 || span.installed_at < 0) return ph;
  // Clamped telescoping: each milestone is forced into [prev, installed_at],
  // a missing milestone (-1) collapses onto prev, so the four deltas sum to
  // installed_at - start_change_at EXACTLY.
  sim::Time prev = span.start_change_at;
  const auto step = [&](sim::Time raw) {
    sim::Time m = raw < prev ? prev : raw;
    if (m > span.installed_at) m = span.installed_at;
    const sim::Time d = m - prev;
    prev = m;
    return d;
  };
  ph.blocking = step(span.block_ok_at);
  ph.sync_send = step(span.sync_sent_at);
  ph.membership_wait = step(span.mbr_view_at);
  ph.install_wait = span.installed_at - prev;
  ph.total = span.installed_at - span.start_change_at;
  return ph;
}

PhaseStats phase_stats(std::vector<sim::Time>& samples) {
  PhaseStats s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::uint64_t n = samples.size();
  // Exact nearest-rank: rank(q) = ceil(q/100 * n), 1-based.
  const auto at_rank = [&](std::uint64_t q) {
    std::uint64_t rank = (n * q + 99) / 100;
    if (rank < 1) rank = 1;
    return samples[rank - 1];
  };
  s.p50 = at_rank(50);
  s.p95 = at_rank(95);
  s.p99 = at_rank(99);
  s.max = samples.back();
  return s;
}

// --------------------------------------------------------------------------
// Post-mortem analysis
// --------------------------------------------------------------------------

namespace {

struct MsgAcc {
  sim::Time submit = -1;
  sim::Time wire_send = -1;
  View view;
  std::map<ProcessId, std::pair<sim::Time, bool>> recv;  ///< at, forwarded
  std::map<ProcessId, sim::Time> deliver;
};

struct ProcTimeline {
  struct Installed {
    sim::Time at = 0;
    View view;
    ProcessSet transitional;
  };
  std::vector<Installed> installs;
  std::vector<sim::Time> crashes;
  View cur;  ///< current view (View::initial until the first installation)
  bool cur_init = false;

  bool change_open = false;
  /// The installation being built; reset by each GcsView and each Crash.
  /// prev_view_deliveries counts up while the process is in a view.
  ViewSpan change;
  std::map<ViewId, sim::Time> mbr_view_at;
  std::vector<ViewId> announced;  ///< MbrView ids since the last install
  sim::Time mbr_round_from = -1;  ///< last MbrStartChange awaiting a view

  View& current(ProcessId p) {
    if (!cur_init) {
      cur = View::initial(p);
      cur_init = true;
    }
    return cur;
  }

  bool crashed_in(sim::Time from, sim::Time to_exclusive) const {
    for (sim::Time c : crashes) {
      if (c >= from && (to_exclusive < 0 || c <= to_exclusive)) return true;
    }
    return false;
  }
};

OrphanKind classify(const MsgAcc& m, MsgTraceId id, ProcessId receiver,
                    const ProcTimeline& rt, const ProcTimeline& st) {
  // Locate the receiver's tenure in the send view. The initial singleton
  // view is never installed through GcsView; its only member is the sender,
  // which holds it from (re)birth, so the tenure opens at submit time.
  sim::Time enter = -1;
  std::size_t next_idx = rt.installs.size();
  if (m.view.id == ViewId::zero()) {
    enter = m.submit;
    for (std::size_t i = 0; i < rt.installs.size(); ++i) {
      if (rt.installs[i].at >= m.submit) {
        next_idx = i;
        break;
      }
    }
  } else {
    bool found = false;
    for (std::size_t i = 0; i < rt.installs.size(); ++i) {
      if (rt.installs[i].view.id == m.view.id) {
        enter = rt.installs[i].at;
        next_idx = i + 1;
        found = true;
        break;
      }
    }
    if (!found) return OrphanKind::kNeverInView;
  }

  // The message is outstanding at the receiver from max(enter, submit).
  const sim::Time outstanding = enter > m.submit ? enter : m.submit;
  const bool has_next = next_idx < rt.installs.size();
  const sim::Time next_at = has_next ? rt.installs[next_idx].at : -1;

  if (rt.crashed_in(outstanding, next_at)) {
    return OrphanKind::kReceiverCrashed;
  }

  const bool sender_crashed = st.crashed_in(m.submit, -1);

  if (has_next) {
    // The receiver moved on to a successor view. Virtual synchrony only
    // obliges it to carry the message across the cut if the sender survived
    // it (sender in the transitional set) and the sender itself delivered
    // the message in the send view.
    const auto& next = rt.installs[next_idx];
    if (!next.transitional.contains(id.sender)) {
      return OrphanKind::kExcludedByCut;
    }
    if (m.deliver.contains(id.sender)) return OrphanKind::kUnexplained;
    if (sender_crashed) return OrphanKind::kSenderCrashed;
    return OrphanKind::kInFlightAtEnd;
  }

  // No successor view: the receiver stayed in the send view to trace end.
  if (sender_crashed) return OrphanKind::kSenderCrashed;
  if (m.recv.contains(receiver)) return OrphanKind::kUnexplained;
  return OrphanKind::kInFlightAtEnd;
}

}  // namespace

TraceAnalysis analyze(const std::vector<spec::Event>& events) {
  TraceAnalysis out;
  std::map<MsgTraceId, MsgAcc> msgs;
  std::map<ProcessId, ProcTimeline> procs;

  for (const spec::Event& ev : events) {
    ++out.events;
    if (ev.at > out.end_at) out.end_at = ev.at;
    const spec::EventBody& b = ev.body;

    if (const auto* e = std::get_if<spec::GcsSend>(&b)) {
      auto& proc = procs[e->p];
      MsgAcc& m = msgs[MsgTraceId{e->msg.sender, e->msg.uid}];
      m.submit = ev.at;
      m.view = proc.current(e->p);
      ProcessCounts& n = out.counts[e->p];
      ++n.msgs_sent;
      n.payload_bytes_sent += e->msg.payload().size();
    } else if (const auto* e = std::get_if<spec::MsgWireSend>(&b)) {
      MsgAcc& m = msgs[MsgTraceId{e->sender, e->uid}];
      if (m.wire_send < 0) m.wire_send = ev.at;
    } else if (const auto* e = std::get_if<spec::MsgRecv>(&b)) {
      MsgAcc& m = msgs[MsgTraceId{e->sender, e->uid}];
      m.recv.try_emplace(e->p, ev.at, e->forwarded);
    } else if (const auto* e = std::get_if<spec::GcsDeliver>(&b)) {
      MsgAcc& m = msgs[MsgTraceId{e->msg.sender, e->msg.uid}];
      m.deliver.try_emplace(e->p, ev.at);
      ProcessCounts& n = out.counts[e->p];
      ++n.msgs_delivered;
      n.payload_bytes_delivered += e->msg.payload().size();
      ViewSpan& change = procs[e->p].change;
      if (change.prev_view_deliveries >= 0) ++change.prev_view_deliveries;
    } else if (const auto* e = std::get_if<spec::GcsView>(&b)) {
      auto& proc = procs[e->p];
      ++out.counts[e->p].views_installed;
      proc.current(e->p) = e->view;
      proc.installs.push_back({ev.at, e->view, e->transitional});
      ViewSpan span = proc.change;
      span.p = e->p;
      span.view = e->view.id;
      span.installed_at = ev.at;
      auto mv = proc.mbr_view_at.find(e->view.id);
      span.mbr_view_at = mv == proc.mbr_view_at.end() ? -1 : mv->second;
      // Every view announced since the last install that is not the one
      // being installed was superseded before the application saw it.
      span.obsolete_views = static_cast<std::uint64_t>(std::count_if(
          proc.announced.begin(), proc.announced.end(),
          [&](ViewId id) { return !(id == e->view.id); }));
      out.views.push_back(span);
      proc.change_open = false;
      proc.change = ViewSpan{};
      proc.change.prev_view_deliveries = 0;
      proc.announced.clear();
      std::erase_if(proc.mbr_view_at, [&](const auto& entry) {
        return !(e->view.id < entry.first);
      });
    } else if (const auto* e = std::get_if<spec::MbrStartChange>(&b)) {
      auto& proc = procs[e->p];
      ++out.counts[e->p].start_changes;
      if (!proc.change_open) {
        proc.change_open = true;
        proc.change.start_change_at = ev.at;
      }
      ++proc.change.start_changes;
      proc.mbr_round_from = ev.at;
    } else if (const auto* e = std::get_if<spec::GcsBlock>(&b)) {
      ++out.counts[e->p].blocks;
      procs[e->p].change.block_at = ev.at;
    } else if (const auto* e = std::get_if<spec::GcsBlockOk>(&b)) {
      auto& proc = procs[e->p];
      ++out.counts[e->p].block_oks;
      if (proc.change_open && proc.change.block_ok_at < 0) {
        proc.change.block_ok_at = ev.at;
      }
    } else if (const auto* e = std::get_if<spec::SyncSent>(&b)) {
      auto& proc = procs[e->p];
      if (proc.change_open && proc.change.sync_sent_at < 0) {
        proc.change.sync_sent_at = ev.at;
      }
    } else if (const auto* e = std::get_if<spec::MbrView>(&b)) {
      auto& proc = procs[e->p];
      ++out.counts[e->p].mbr_views;
      proc.mbr_view_at.try_emplace(e->view.id, ev.at);
      proc.announced.push_back(e->view.id);
      if (proc.mbr_round_from >= 0) {
        out.mbr_rounds_us.push_back(ev.at - proc.mbr_round_from);
        proc.mbr_round_from = -1;
      }
    } else if (const auto* e = std::get_if<spec::Crash>(&b)) {
      // A crash wipes the process: open intervals close without a sample,
      // so nothing pairs with a post-recovery event.
      auto& proc = procs[e->p];
      ++out.counts[e->p].crashes;
      proc.crashes.push_back(ev.at);
      proc.change_open = false;
      proc.change = ViewSpan{};
      proc.mbr_view_at.clear();
      proc.announced.clear();
      proc.mbr_round_from = -1;
      proc.current(e->p) = View::initial(e->p);
    } else if (const auto* e = std::get_if<spec::Recover>(&b)) {
      ++out.counts[e->p].recoveries;
    } else if (const auto* e = std::get_if<spec::XportRetransmit>(&b)) {
      out.retransmit_packets += e->packets;
    } else if (const auto* e = std::get_if<spec::MsgForward>(&b)) {
      out.forward_copies += e->copies;
    } else if (const auto* e = std::get_if<spec::MbrPhase>(&b)) {
      if (e->phase == "round_start") ++out.mbr_rounds;
      else if (e->phase == "view_formed") ++out.mbr_views_formed;
      else if (e->phase == "suspicion") ++out.mbr_suspicions;
      else if (e->phase == "notify_drop") ++out.notify_drops;
    }
    // FaultInjected, SyncRecv: no span state to update.
  }

  // Build the message spans: one leg per member of the send view, orphan
  // classification for every expected-but-missing delivery.
  for (auto& [id, m] : msgs) {
    if (m.submit < 0) continue;  // truncated trace: no GcsSend record
    MsgSpan span;
    span.id = id;
    span.submit_at = m.submit;
    span.wire_send_at = m.wire_send;
    span.view = m.view;
    const ProcTimeline& st = procs[id.sender];
    for (ProcessId r : m.view.members()) {
      DeliveryLeg leg;
      leg.receiver = r;
      if (auto it = m.recv.find(r); it != m.recv.end()) {
        leg.recv_at = it->second.first;
        leg.via_forward = it->second.second;
      }
      ++out.legs_expected;
      if (auto it = m.deliver.find(r); it != m.deliver.end()) {
        leg.deliver_at = it->second;
        ++out.legs_delivered;
      } else {
        const OrphanKind kind = classify(m, id, r, procs[r], st);
        leg.orphan = kind;
        ++out.orphans;
        ++out.orphans_by_kind[static_cast<int>(kind)];
      }
      span.legs.push_back(leg);
    }
    out.messages.push_back(std::move(span));
  }
  return out;
}

// --------------------------------------------------------------------------
// Derived samples, report, artifact rows
// --------------------------------------------------------------------------

namespace {

struct PhaseSamples {
  std::vector<sim::Time> sender_queue, wire, gate, e2e;
  std::vector<sim::Time> v_blocking, v_sync, v_mbr, v_install, v_e2e;
};

PhaseSamples collect_samples(const TraceAnalysis& a) {
  PhaseSamples s;
  for (const MsgSpan& m : a.messages) {
    if (m.wire_send_at >= 0 && m.submit_at >= 0) {
      s.sender_queue.push_back(m.wire_send_at - m.submit_at);
    }
    for (const DeliveryLeg& leg : m.legs) {
      if (leg.deliver_at < 0) continue;
      s.e2e.push_back(leg.deliver_at - m.submit_at);
      if (leg.recv_at >= 0) {
        s.gate.push_back(leg.deliver_at - leg.recv_at);
        if (m.wire_send_at >= 0) {
          s.wire.push_back(leg.recv_at - m.wire_send_at);
        }
      }
    }
  }
  for (const ViewSpan& v : a.views) {
    if (v.start_change_at < 0 || v.installed_at < 0) continue;
    const ViewPhases ph = view_phases(v);
    s.v_blocking.push_back(ph.blocking);
    s.v_sync.push_back(ph.sync_send);
    s.v_mbr.push_back(ph.membership_wait);
    s.v_install.push_back(ph.install_wait);
    s.v_e2e.push_back(ph.total);
  }
  return s;
}

void phase_row(std::ostream& os, const char* name, const PhaseStats& s) {
  os << "  " << std::left << std::setw(16) << name << std::right
     << std::setw(8) << s.count << std::setw(10) << s.p50 << std::setw(10)
     << s.p95 << std::setw(10) << s.p99 << std::setw(10) << s.max << "\n";
}

void phase_header(std::ostream& os) {
  os << "  " << std::left << std::setw(16) << "phase" << std::right
     << std::setw(8) << "count" << std::setw(10) << "p50" << std::setw(10)
     << "p95" << std::setw(10) << "p99" << std::setw(10) << "max" << "\n";
}

struct SlowLeg {
  const MsgSpan* msg;
  const DeliveryLeg* leg;
  sim::Time e2e;
};

}  // namespace

void write_trace_report(const TraceAnalysis& a, std::ostream& os, int top_k) {
  PhaseSamples s = collect_samples(a);

  os << "vsgc_trace causal span report\n";
  os << "=============================\n";
  os << "events:                " << a.events << "\n";
  os << "trace end (us):        " << a.end_at << "\n";
  os << "messages:              " << a.messages.size() << "\n";
  os << "view installations:    " << a.views.size() << "\n";
  os << "membership rounds:     " << a.mbr_rounds << " started, "
     << a.mbr_views_formed << " views formed, " << a.mbr_suspicions
     << " suspicions\n";
  os << "notifications dropped: " << a.notify_drops << "\n";
  os << "retransmitted packets: " << a.retransmit_packets << "\n";
  os << "forward copies:        " << a.forward_copies << "\n";
  os << "\n";

  os << "message delivery accounting\n";
  os << "---------------------------\n";
  os << "expected legs:  " << a.legs_expected << "\n";
  os << "delivered legs: " << a.legs_delivered << "\n";
  os << "orphans:        " << a.orphans << "\n";
  for (int k = 0; k < kOrphanKinds; ++k) {
    os << "  " << std::left << std::setw(17)
       << to_string(static_cast<OrphanKind>(k)) << std::right
       << a.orphans_by_kind[k] << "\n";
  }
  os << "\n";

  os << "message phase latency (us)\n";
  os << "--------------------------\n";
  phase_header(os);
  phase_row(os, "sender_queue", phase_stats(s.sender_queue));
  phase_row(os, "wire", phase_stats(s.wire));
  phase_row(os, "gate", phase_stats(s.gate));
  phase_row(os, "end_to_end", phase_stats(s.e2e));
  os << "\n";

  os << "view-change phase latency (us)\n";
  os << "------------------------------\n";
  phase_header(os);
  phase_row(os, "blocking", phase_stats(s.v_blocking));
  phase_row(os, "sync_send", phase_stats(s.v_sync));
  phase_row(os, "membership_wait", phase_stats(s.v_mbr));
  phase_row(os, "install_wait", phase_stats(s.v_install));
  phase_row(os, "end_to_end", phase_stats(s.v_e2e));
  os << "\n";

  // Critical paths: the slowest delivered legs, decomposed. Deterministic
  // order: latency desc, then (sender, uid, receiver) asc.
  std::vector<SlowLeg> slow;
  for (const MsgSpan& m : a.messages) {
    for (const DeliveryLeg& leg : m.legs) {
      if (leg.deliver_at < 0) continue;
      slow.push_back({&m, &leg, leg.deliver_at - m.submit_at});
    }
  }
  std::sort(slow.begin(), slow.end(), [](const SlowLeg& x, const SlowLeg& y) {
    if (x.e2e != y.e2e) return x.e2e > y.e2e;
    if (x.msg->id != y.msg->id) return x.msg->id < y.msg->id;
    return x.leg->receiver < y.leg->receiver;
  });
  os << "slowest deliveries (critical path)\n";
  os << "----------------------------------\n";
  const std::size_t n_slow =
      std::min<std::size_t>(slow.size(), top_k < 0 ? 0 : top_k);
  for (std::size_t i = 0; i < n_slow; ++i) {
    const SlowLeg& sl = slow[i];
    const MsgSpan& m = *sl.msg;
    const DeliveryLeg& leg = *sl.leg;
    os << "  " << (i + 1) << ". " << to_string(m.id) << " -> "
       << vsgc::to_string(leg.receiver) << ": e2e=" << sl.e2e
       << "  submit=" << m.submit_at;
    if (m.wire_send_at >= 0) {
      os << " queue=" << (m.wire_send_at - m.submit_at);
    }
    if (leg.recv_at >= 0) {
      if (m.wire_send_at >= 0) os << " wire=" << (leg.recv_at - m.wire_send_at);
      os << " gate=" << (leg.deliver_at - leg.recv_at);
    }
    if (leg.via_forward) os << "  (forwarded)";
    os << "\n";
  }
  if (slow.empty()) os << "  (no delivered legs)\n";
  os << "\n";

  os << "orphaned legs\n";
  os << "-------------\n";
  if (a.orphans == 0) {
    os << "  (none: every expected delivery completed)\n";
    return;
  }
  std::size_t listed = 0;
  const std::size_t cap = top_k < 0 ? 0 : static_cast<std::size_t>(top_k) * 4;
  for (const MsgSpan& m : a.messages) {
    for (const DeliveryLeg& leg : m.legs) {
      if (!leg.orphan) continue;
      if (listed < cap) {
        os << "  " << to_string(m.id) << " -> "
           << vsgc::to_string(leg.receiver) << ": " << to_string(*leg.orphan)
           << "  (submitted at " << m.submit_at << " in view "
           << vsgc::to_string(m.view.id) << ")\n";
      }
      ++listed;
    }
  }
  if (listed > cap) {
    os << "  ... and " << (listed - cap) << " more\n";
  }
}

void append_tracelat_results(const TraceAnalysis& a, BenchArtifact& artifact) {
  PhaseSamples s = collect_samples(a);

  JsonValue& summary = artifact.add_result();
  summary["row"] = "summary";
  summary["messages"] = static_cast<std::int64_t>(a.messages.size());
  summary["legs_expected"] = static_cast<std::int64_t>(a.legs_expected);
  summary["legs_delivered"] = static_cast<std::int64_t>(a.legs_delivered);
  summary["orphans"] = static_cast<std::int64_t>(a.orphans);
  summary["orphans_unexplained"] = static_cast<std::int64_t>(a.unexplained());
  summary["retransmit_packets"] =
      static_cast<std::int64_t>(a.retransmit_packets);
  summary["forward_copies"] = static_cast<std::int64_t>(a.forward_copies);
  summary["view_changes"] = static_cast<std::int64_t>(a.views.size());
  summary["end_at_us"] = static_cast<std::int64_t>(a.end_at);

  const auto phase = [&](const char* row, const char* name,
                         std::vector<sim::Time>& samples) {
    const PhaseStats st = phase_stats(samples);
    JsonValue& r = artifact.add_result();
    r["row"] = row;
    r["phase"] = name;
    r["count"] = static_cast<std::int64_t>(st.count);
    r["p50_us"] = static_cast<std::int64_t>(st.p50);
    r["p95_us"] = static_cast<std::int64_t>(st.p95);
    r["p99_us"] = static_cast<std::int64_t>(st.p99);
    r["max_us"] = static_cast<std::int64_t>(st.max);
  };
  phase("msg_phase", "sender_queue", s.sender_queue);
  phase("msg_phase", "wire", s.wire);
  phase("msg_phase", "gate", s.gate);
  phase("msg_phase", "end_to_end", s.e2e);
  phase("view_phase", "blocking", s.v_blocking);
  phase("view_phase", "sync_send", s.v_sync);
  phase("view_phase", "membership_wait", s.v_mbr);
  phase("view_phase", "install_wait", s.v_install);
  phase("view_phase", "end_to_end", s.v_e2e);
}

void record_trace_metrics(const TraceAnalysis& a, Registry& reg) {
  const PhaseSamples s = collect_samples(a);
  const auto fold = [&](const char* name, const std::vector<sim::Time>& xs) {
    Histogram& h = reg.histogram(name);
    for (sim::Time x : xs) h.observe(x);
  };
  fold("span.msg.sender_queue_us", s.sender_queue);
  fold("span.msg.wire_us", s.wire);
  fold("span.msg.gate_us", s.gate);
  fold("span.msg.e2e_us", s.e2e);
  fold("span.view.blocking_us", s.v_blocking);
  fold("span.view.sync_send_us", s.v_sync);
  fold("span.view.membership_wait_us", s.v_mbr);
  fold("span.view.install_wait_us", s.v_install);
  fold("span.view.e2e_us", s.v_e2e);
  reg.counter("span.retransmit_packets").inc(a.retransmit_packets);
  reg.counter("span.forward_copies").inc(a.forward_copies);
  for (const auto& [phase, n] :
       {std::pair{"round_start", a.mbr_rounds},
        std::pair{"view_formed", a.mbr_views_formed},
        std::pair{"suspicion", a.mbr_suspicions},
        std::pair{"notify_drop", a.notify_drops}}) {
    if (n != 0) reg.counter(std::string("span.mbr.") + phase).inc(n);
  }

  // Headline metrics: a row exists only once something was observed.
  for (const auto& [p, n] : a.counts) {
    const Labels labels = process_labels(p.value);
    const auto count = [&](const char* name, std::uint64_t v) {
      if (v != 0) reg.counter(name, labels).inc(v);
    };
    count("gcs.msgs_sent", n.msgs_sent);
    count("gcs.msgs_delivered", n.msgs_delivered);
    count("mbr.start_changes", n.start_changes);
    count("mbr.views", n.mbr_views);
    count("gcs.views_installed", n.views_installed);
    count("gcs.blocks", n.blocks);
    count("gcs.block_oks", n.block_oks);
    count("crashes", n.crashes);
    count("recoveries", n.recoveries);
    // A byte row exists with its message row, even at zero bytes.
    if (n.msgs_sent != 0) {
      reg.counter("gcs.payload_bytes_sent", labels).inc(n.payload_bytes_sent);
    }
    if (n.msgs_delivered != 0) {
      reg.counter("gcs.payload_bytes_delivered", labels)
          .inc(n.payload_bytes_delivered);
    }
  }
  for (sim::Time t : a.mbr_rounds_us) reg.histogram("mbr.round_us").observe(t);
  for (const ViewSpan& v : a.views) {
    if (v.start_change_at >= 0) {
      reg.histogram("gcs.view_change_latency_us")
          .observe(v.installed_at - v.start_change_at);
    }
    if (v.block_at >= 0) {
      reg.histogram("gcs.blocking_window_us")
          .observe(v.installed_at - v.block_at);
    }
    if (v.start_changes > 0) {
      reg.histogram("gcs.sync_rounds_per_view")
          .observe(static_cast<std::int64_t>(v.start_changes));
    }
    if (v.prev_view_deliveries >= 0) {
      reg.histogram("gcs.msgs_per_view").observe(v.prev_view_deliveries);
    }
    if (v.obsolete_views > 0) {
      reg.counter("gcs.obsolete_views", process_labels(v.p.value))
          .inc(v.obsolete_views);
    }
  }
}

}  // namespace vsgc::obs
