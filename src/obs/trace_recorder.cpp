#include "obs/trace_recorder.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>

#include "net/node.hpp"
#include "obs/json_fields.hpp"

namespace vsgc::obs {

void write_jsonl(const std::vector<spec::Event>& events, std::ostream& os) {
  for (const spec::Event& ev : events) {
    to_json(ev).write(os);
    os << '\n';
  }
}

bool read_jsonl(std::istream& is, std::vector<spec::Event>* out) {
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    spec::Event ev;
    if (!from_json(JsonValue::parse(line), &ev)) return false;
    out->push_back(std::move(ev));
  }
  return true;
}

namespace {

constexpr int kTidMembership = 0;
constexpr int kTidVs = 1;
constexpr int kTidApp = 2;
constexpr int kTidMsg = 3;     ///< per-message lifecycle span lane
constexpr int kTidXport = 4;   ///< transport retransmission lane
constexpr int kTidFaults = 0;  ///< lane on the dedicated pid-0 fault track

/// One Chrome-trace event plus its canonical sort key. Events accumulate in
/// emission order and are stable-sorted before writing: metadata records
/// first, then by (ts, pid, tid). Duration spans are only known at their
/// CLOSE time, so without the sort a span opening at t would serialize after
/// every instant in (t, close] and the file layout would depend on which
/// spans happened to be open — the sort makes the output a canonical function
/// of the event multiset, byte-identical across same-seed runs no matter how
/// spans interleave with instants and injected faults.
struct ChromeEvent {
  int rank;  ///< 0 = metadata, 1 = timed event
  sim::Time ts;
  std::uint32_t pid;
  int tid;
  JsonValue ev;
};

/// Phases used: "X" complete span (ts+dur), "i" instant, "M" metadata.
struct ChromeEmitter {
  std::vector<ChromeEvent> out;

  void span(std::uint32_t pid, int tid, const std::string& name, sim::Time ts,
            sim::Time dur) {
    JsonValue ev = JsonValue::object();
    ev["name"] = name;
    ev["ph"] = "X";
    ev["pid"] = pid;
    ev["tid"] = tid;
    ev["ts"] = ts;
    ev["dur"] = dur < 1 ? 1 : dur;  // zero-width spans vanish in the UI
    out.push_back({1, ts, pid, tid, std::move(ev)});
  }

  void instant(std::uint32_t pid, int tid, const std::string& name,
               sim::Time ts) {
    JsonValue ev = JsonValue::object();
    ev["name"] = name;
    ev["ph"] = "i";
    ev["s"] = "t";
    ev["pid"] = pid;
    ev["tid"] = tid;
    ev["ts"] = ts;
    out.push_back({1, ts, pid, tid, std::move(ev)});
  }

  void metadata(std::uint32_t pid, std::optional<int> tid,
                const std::string& what, const std::string& name) {
    JsonValue ev = JsonValue::object();
    ev["name"] = what;
    ev["ph"] = "M";
    ev["pid"] = pid;
    if (tid) ev["tid"] = *tid;
    JsonValue& args = ev["args"];
    args = JsonValue::object();
    args["name"] = name;
    out.push_back({0, 0, pid, tid.value_or(-1), std::move(ev)});
  }

  void write(std::ostream& os) {
    std::stable_sort(out.begin(), out.end(),
                     [](const ChromeEvent& a, const ChromeEvent& b) {
                       if (a.rank != b.rank) return a.rank < b.rank;
                       if (a.ts != b.ts) return a.ts < b.ts;
                       if (a.pid != b.pid) return a.pid < b.pid;
                       return a.tid < b.tid;
                     });
    JsonValue arr = JsonValue::array();
    for (ChromeEvent& e : out) arr.push_back(std::move(e.ev));
    JsonValue root = JsonValue::object();
    root["traceEvents"] = std::move(arr);
    root["displayTimeUnit"] = "ms";
    root.write_pretty(os);
    os << '\n';
  }
};

struct OpenSpans {
  std::optional<std::pair<sim::Time, std::string>> mbr_round;
  std::optional<sim::Time> view_change;
  std::optional<sim::Time> blocked;
};

/// Lifecycle milestones of one application message, for the msg span lane.
struct MsgLife {
  sim::Time submit = -1;
  sim::Time wire_send = -1;
  std::map<ProcessId, sim::Time> recv;  ///< receiver -> buffered-at time
};

}  // namespace

void write_chrome_trace(const std::vector<spec::Event>& events,
                        std::ostream& os) {
  ChromeEmitter em;

  std::map<ProcessId, OpenSpans> open;
  std::set<ProcessId> seen;
  std::set<std::uint32_t> seen_server_nodes;
  bool fault_track_named = false;
  std::map<std::pair<std::uint32_t, std::uint64_t>, MsgLife> msgs;

  auto track = [&](ProcessId p) -> OpenSpans& {
    if (seen.insert(p).second) {
      em.metadata(p.value, std::nullopt, "process_name", to_string(p));
      em.metadata(p.value, kTidMembership, "thread_name", "membership round");
      em.metadata(p.value, kTidVs, "thread_name", "view change (VS round)");
      em.metadata(p.value, kTidApp, "thread_name", "application");
      em.metadata(p.value, kTidMsg, "thread_name", "message lifecycle");
      em.metadata(p.value, kTidXport, "thread_name", "transport");
    }
    return open[p];
  };

  // Node-addressed events (retransmits, membership phases) may come from
  // membership servers, which have no process track; name one lazily.
  auto ensure_node_track = [&](std::uint32_t node) {
    const net::NodeId n{node};
    if (!net::is_server_node(n)) {
      track(net::process_of(n));
      return;
    }
    if (seen_server_nodes.insert(node).second) {
      em.metadata(node, std::nullopt, "process_name",
                  net::to_string(n) + " (membership server)");
      em.metadata(node, kTidMembership, "thread_name", "membership round");
      em.metadata(node, kTidXport, "thread_name", "transport");
    }
  };

  auto msg_label = [](ProcessId sender, std::uint64_t uid) {
    return to_string(sender) + "/" + std::to_string(uid);
  };

  for (const spec::Event& ev : events) {
    if (const auto* sc = std::get_if<spec::MbrStartChange>(&ev.body)) {
      OpenSpans& st = track(sc->p);
      if (st.mbr_round) {
        // A superseding start_change: close the old round span as obsolete.
        em.span(sc->p.value, kTidMembership,
                st.mbr_round->second + " (superseded)", st.mbr_round->first,
                ev.at - st.mbr_round->first);
      }
      st.mbr_round = {ev.at, "mbrshp round " + to_string(sc->cid)};
      if (!st.view_change) st.view_change = ev.at;
    } else if (const auto* mv = std::get_if<spec::MbrView>(&ev.body)) {
      OpenSpans& st = track(mv->p);
      if (st.mbr_round) {
        em.span(mv->p.value, kTidMembership,
                st.mbr_round->second + " -> " + to_string(mv->view.id),
                st.mbr_round->first, ev.at - st.mbr_round->first);
        st.mbr_round.reset();
      }
      em.instant(mv->p.value, kTidMembership,
                 "mbrshp view " + to_string(mv->view.id), ev.at);
    } else if (const auto* v = std::get_if<spec::GcsView>(&ev.body)) {
      OpenSpans& st = track(v->p);
      if (st.view_change) {
        em.span(v->p.value, kTidVs, "view change -> " + to_string(v->view.id),
                *st.view_change, ev.at - *st.view_change);
        st.view_change.reset();
      }
      if (st.blocked) {
        em.span(v->p.value, kTidApp, "blocked", *st.blocked,
                ev.at - *st.blocked);
        st.blocked.reset();
      }
      em.instant(v->p.value, kTidVs, "install " + to_string(v->view.id),
                 ev.at);
    } else if (const auto* b = std::get_if<spec::GcsBlock>(&ev.body)) {
      track(b->p).blocked = ev.at;
    } else if (const auto* s = std::get_if<spec::GcsSend>(&ev.body)) {
      track(s->p);
      msgs[{s->msg.sender.value, s->msg.uid}].submit = ev.at;
      em.instant(s->p.value, kTidApp,
                 "send uid=" + std::to_string(s->msg.uid), ev.at);
    } else if (const auto* d = std::get_if<spec::GcsDeliver>(&ev.body)) {
      track(d->p);
      em.instant(d->p.value, kTidApp,
                 "deliver " + to_string(d->q) + "/" +
                     std::to_string(d->msg.uid),
                 ev.at);
      // The message span lane: one outer bar per delivered copy covering
      // submit -> deliver, with the receive -> deliver gate nested inside
      // when lifecycle events recorded the buffer time.
      auto it = msgs.find({d->msg.sender.value, d->msg.uid});
      if (it != msgs.end() && it->second.submit >= 0) {
        const MsgLife& life = it->second;
        em.span(d->p.value, kTidMsg, "msg " + msg_label(d->q, d->msg.uid),
                life.submit, ev.at - life.submit);
        auto rx = life.recv.find(d->p);
        if (rx != life.recv.end()) {
          em.span(d->p.value, kTidMsg,
                  "gate " + msg_label(d->q, d->msg.uid), rx->second,
                  ev.at - rx->second);
        }
      }
    } else if (const auto* ws = std::get_if<spec::MsgWireSend>(&ev.body)) {
      track(ws->p);
      MsgLife& life = msgs[{ws->sender.value, ws->uid}];
      life.wire_send = ev.at;
      if (life.submit >= 0) {
        em.span(ws->p.value, kTidMsg,
                "queue " + msg_label(ws->sender, ws->uid), life.submit,
                ev.at - life.submit);
      }
    } else if (const auto* mr = std::get_if<spec::MsgRecv>(&ev.body)) {
      track(mr->p);
      msgs[{mr->sender.value, mr->uid}].recv.emplace(mr->p, ev.at);
    } else if (const auto* mf = std::get_if<spec::MsgForward>(&ev.body)) {
      track(mf->p);
      em.instant(mf->p.value, kTidVs,
                 "fwd " + msg_label(mf->sender, mf->uid) + " x" +
                     std::to_string(mf->copies),
                 ev.at);
    } else if (const auto* ss = std::get_if<spec::SyncSent>(&ev.body)) {
      track(ss->p);
      em.instant(ss->p.value, kTidVs, "sync sent " + to_string(ss->cid),
                 ev.at);
    } else if (const auto* sr = std::get_if<spec::SyncRecv>(&ev.body)) {
      track(sr->p);
      em.instant(sr->p.value, kTidVs,
                 "sync from " + to_string(sr->from) + " " +
                     to_string(sr->cid),
                 ev.at);
    } else if (const auto* xr = std::get_if<spec::XportRetransmit>(&ev.body)) {
      ensure_node_track(xr->from_node);
      em.instant(xr->from_node, kTidXport,
                 "rtx -> " + net::to_string(net::NodeId{xr->to_node}) + " x" +
                     std::to_string(xr->packets),
                 ev.at);
    } else if (const auto* mp = std::get_if<spec::MbrPhase>(&ev.body)) {
      ensure_node_track(mp->node);
      em.instant(mp->node, kTidMembership,
                 mp->round == 0 ? mp->phase
                                : mp->phase + " r" +
                                      std::to_string(mp->round),
                 ev.at);
    } else if (const auto* c = std::get_if<spec::Crash>(&ev.body)) {
      OpenSpans& st = track(c->p);
      st = OpenSpans{};
      em.instant(c->p.value, kTidApp, "CRASH", ev.at);
    } else if (const auto* r = std::get_if<spec::Recover>(&ev.body)) {
      track(r->p);
      em.instant(r->p.value, kTidApp, "recover", ev.at);
    } else if (const auto* f = std::get_if<spec::FaultInjected>(&ev.body)) {
      // Faults get their own track (pid 0 — real processes are 1-based) so a
      // timeline shows the injected schedule in a lane above the processes.
      if (!fault_track_named) {
        em.metadata(0, std::nullopt, "process_name", "fault injector");
        em.metadata(0, kTidFaults, "thread_name", "faults");
        fault_track_named = true;
      }
      em.instant(0, kTidFaults,
                 f->detail.empty() ? f->kind : f->kind + " " + f->detail,
                 ev.at);
    }
  }

  em.write(os);
}

}  // namespace vsgc::obs
