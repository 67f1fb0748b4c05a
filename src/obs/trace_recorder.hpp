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
// JSONL schema: each record is obs::to_json(spec::Event), derived by
// obs/json_fields.hpp from the field lists in spec/events.hpp; those lists
// are the schema. A record is `at` (simulated microseconds), then `type`
// (the event's kType), then the event's fields in list order, e.g.
//   {"at":N,"type":"gcs_send","p":P,"msg":{"sender":Q,"uid":U,"payload":S}}
//   {"at":N,"type":"gcs_view","p":P,"view":V,"transitional":[P...]}
//   {"at":N,"type":"fault","kind":K,"detail":D}   (sim::FailureInjector)
//   {"at":N,"type":"msg_recv","p":P,"from":F,"sender":Q,"uid":U,"fwd":B}
// where V = {"epoch":E,"origin":O,"members":[P...],"start_id":{"P":C,...}}.
// The causal span events (msg_*, sync_*, xport_retransmit, mbr_phase) are
// emitted only when TraceBus::lifecycle() is on. read_jsonl applies the
// reader rule of obs/json_fields.hpp: every listed field present with the
// right kind and in range, unknown keys ignored.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "spec/events.hpp"

namespace vsgc::obs {

/// Parse a JSONL stream produced by write_jsonl back into events.
/// Returns false (and stops) on the first malformed line.
bool read_jsonl(std::istream& is, std::vector<spec::Event>* out);

/// Write one JSONL record per event, in order (the schema above).
void write_jsonl(const std::vector<spec::Event>& events, std::ostream& os);
/// Write a Chrome-trace/Perfetto JSON document of the events.
void write_chrome_trace(const std::vector<spec::Event>& events,
                        std::ostream& os);

}  // namespace vsgc::obs
