#include "spec/liveness_checker.hpp"

#include <map>
#include <set>

#include "util/assert.hpp"

namespace vsgc::spec {

namespace {

struct ProcessSummary {
  std::optional<View> final_mbr_view;
  bool mbr_event_after_view = false;  ///< start_change after the final view
  bool crashed = false;
};

std::map<ProcessId, ProcessSummary> summarize(const std::vector<Event>& trace) {
  std::map<ProcessId, ProcessSummary> out;
  for (const Event& ev : trace) {
    if (const auto* mv = std::get_if<MbrView>(&ev.body)) {
      auto& s = out[mv->p];
      s.final_mbr_view = mv->view;
      s.mbr_event_after_view = false;
    } else if (const auto* sc = std::get_if<MbrStartChange>(&ev.body)) {
      out[sc->p].mbr_event_after_view = true;
    } else if (const auto* c = std::get_if<Crash>(&ev.body)) {
      out[c->p].crashed = true;
    } else if (const auto* r = std::get_if<Recover>(&ev.body)) {
      out[r->p].crashed = false;
    }
  }
  return out;
}

}  // namespace

std::optional<View> LivenessChecker::stable_view(
    const std::vector<Event>& trace) {
  const auto summary = summarize(trace);
  for (const auto& [p, s] : summary) {
    if (!s.final_mbr_view || s.mbr_event_after_view || s.crashed) continue;
    const View& v = *s.final_mbr_view;
    bool stable = true;
    for (ProcessId q : v.members()) {
      auto it = summary.find(q);
      if (it == summary.end() || !it->second.final_mbr_view ||
          it->second.mbr_event_after_view || it->second.crashed ||
          !(*it->second.final_mbr_view == v)) {
        stable = false;
        break;
      }
    }
    if (stable) return v;
  }
  return std::nullopt;
}

bool LivenessChecker::check(const std::vector<Event>& trace) {
  const std::optional<View> maybe_v = stable_view(trace);
  if (!maybe_v) return false;  // premise does not hold; nothing to assert
  const View& v = *maybe_v;

  // Conclusion 1: every member's GCS delivered v.
  std::set<ProcessId> delivered_view;
  for (const Event& ev : trace) {
    if (const auto* gv = std::get_if<GcsView>(&ev.body)) {
      if (gv->view == v) delivered_view.insert(gv->p);
    }
  }
  for (ProcessId p : v.members()) {
    VSGC_REQUIRE(delivered_view.contains(p),
                 "Liveness: membership stabilized on "
                     << to_string(v.id) << " but " << to_string(p)
                     << " never delivered it");
  }

  // Conclusion 2: every message sent after GCS.view_p(v) is delivered by
  // every member of v.
  std::set<ProcessId> in_view;  // processes currently past GcsView(v)
  std::vector<std::pair<ProcessId, std::uint64_t>> sent_in_v;
  std::map<ProcessId, std::set<std::pair<ProcessId, std::uint64_t>>> delivered;
  for (const Event& ev : trace) {
    if (const auto* gv = std::get_if<GcsView>(&ev.body)) {
      if (gv->view == v) in_view.insert(gv->p);
      else in_view.erase(gv->p);
    } else if (const auto* s = std::get_if<GcsSend>(&ev.body)) {
      if (in_view.contains(s->p)) sent_in_v.emplace_back(s->p, s->msg.uid);
    } else if (const auto* d = std::get_if<GcsDeliver>(&ev.body)) {
      delivered[d->p].emplace(d->q, d->msg.uid);
    }
  }
  for (const auto& [sender, uid] : sent_in_v) {
    for (ProcessId q : v.members()) {
      VSGC_REQUIRE(delivered[q].contains({sender, uid}),
                   "Liveness: message uid "
                       << uid << " sent by " << to_string(sender)
                       << " in stable view " << to_string(v.id)
                       << " was never delivered by " << to_string(q));
    }
  }
  return true;
}

}  // namespace vsgc::spec
