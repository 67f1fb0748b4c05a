// Trace export: serializes the events of a simulated execution, as recorded
// by spec::TraceBus::set_recording (TraceBus::recorded()).
//
// Two export formats:
//  * JSONL — one JSON object per event, one per line, in emission order with
//    simulated timestamps. Byte-deterministic (same seed => same file), so
//    divergent seeds can be diffed post-mortem with plain `diff`, and
//    read_jsonl() parses a file back into spec::Events for replay analysis.
//  * Chrome trace (chrome://tracing / https://ui.perfetto.dev) — each process
//    is rendered as its own track with three lanes: the membership round
//    (MBRSHP.start_change -> MBRSHP.view), the view change a.k.a. VS round
//    (first start_change -> GCS.view), and the application blocking window
//    (GCS.block -> GCS.view), plus instant markers for sends/deliveries.
//    Opening a view-change timeline shows the paper's E1 claim directly: the
//    VS round OVERLAPS the membership round instead of following it.
//
// JSONL schema (field order fixed; `at` in simulated microseconds):
//   {"at":N,"type":"gcs_send","p":P,"msg":{"sender":Q,"uid":U,"payload":S}}
//   {"at":N,"type":"gcs_deliver","p":P,"q":Q,"msg":{...}}
//   {"at":N,"type":"gcs_view","p":P,"view":V,"transitional":[P...]}
//   {"at":N,"type":"gcs_block","p":P} / {"at":N,"type":"gcs_block_ok","p":P}
//   {"at":N,"type":"mbr_start_change","p":P,"cid":C,"set":[P...]}
//   {"at":N,"type":"mbr_view","p":P,"view":V}
//   {"at":N,"type":"crash","p":P} / {"at":N,"type":"recover","p":P}
//   {"at":N,"type":"fault","kind":K,"detail":D}   (sim::FailureInjector)
// Causal span events (emitted only when TraceBus::lifecycle() is on):
//   {"at":N,"type":"msg_wire_send","p":P,"sender":Q,"uid":U}
//   {"at":N,"type":"msg_recv","p":P,"from":F,"sender":Q,"uid":U,"fwd":B}
//   {"at":N,"type":"msg_forward","p":P,"sender":Q,"uid":U,"copies":K}
//   {"at":N,"type":"sync_sent","p":P,"cid":C}
//   {"at":N,"type":"sync_recv","p":P,"from":F,"cid":C}
//   {"at":N,"type":"xport_retransmit","from_node":A,"to_node":B,"packets":K}
//   {"at":N,"type":"mbr_phase","node":X,"phase":S,"round":R}
// where V = {"epoch":E,"origin":O,"members":[P...],"start_id":{"P":C,...}}.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "spec/events.hpp"

namespace vsgc::obs {

/// One trace event as a JSON object (the JSONL record, unserialized).
JsonValue event_to_json(const spec::Event& event);

/// Inverse of event_to_json. Returns false on schema mismatch.
bool event_from_json(const JsonValue& record, spec::Event* out);

/// Parse a JSONL stream produced by write_jsonl back into events.
/// Returns false (and stops) on the first malformed line.
bool read_jsonl(std::istream& is, std::vector<spec::Event>* out);

/// Write one JSONL record per event, in order (the schema above).
void write_jsonl(const std::vector<spec::Event>& events, std::ostream& os);
/// Write a Chrome-trace/Perfetto JSON document of the events.
void write_chrome_trace(const std::vector<spec::Event>& events,
                        std::ostream& os);

}  // namespace vsgc::obs
