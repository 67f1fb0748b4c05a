// Layer snapshot: folds each layer's own counters into an obs::Registry under
// one naming scheme. World::snapshot and OracleWorld::snapshot apply these to
// every component they own; a hand-wired harness calls the ones it needs.
//
//   net.*           the datagram network (unlabelled)
//   xport.frame.*   one CO_RFIFO transport's wire-frame economics: frames vs
//                   entries (batch density), piggybacked vs standalone acks,
//                   retransmissions, bytes, frame cells ever made
//   xport.window.*  ... and its flow-control health: credit stalls,
//                   receive-window drops, peak queue depths
//                   (both labelled process=pN or server=sN)
//   gcs.sync_*, gcs.aggregates_relayed, gcs.forwards_sent
//                   one VS end-point's sync and forwarding internals, which
//                   never reach the trace (labelled process=pN)
//   mbr.server.*    one membership server's rounds and notifications
//                   (labelled server=sN)
//
// Counters add and gauges take the max, so one registry can absorb many
// worlds. No name here equals a name obs::record_trace_metrics writes: a
// layer counter that repeats a trace-derived metric (WvRfifoEndpoint::Stats
// counts what gcs.msgs_sent and gcs.views_installed already count) is left
// out. Simulator stats belong to the artifact's "sim" section
// (obs::BenchArtifact::tally).
#pragma once

#include "gcs/vs_rfifo_ts_endpoint.hpp"
#include "membership/membership_server.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "transport/co_rfifo.hpp"

namespace vsgc::app {

inline void snapshot_network(const net::Network& network, obs::Registry& reg) {
  const net::Network::Stats& s = network.stats();
  reg.counter("net.packets_sent").inc(s.packets_sent);
  reg.counter("net.packets_delivered").inc(s.packets_delivered);
  reg.counter("net.packets_dropped").inc(s.packets_dropped);
  reg.counter("net.bytes_sent").inc(s.bytes_sent);
  reg.gauge("net.max_packet_bytes")
      .max_of(static_cast<std::int64_t>(s.max_packet_bytes));
}

inline void snapshot_transport(const transport::CoRfifoTransport& t,
                               obs::Registry& reg) {
  const net::NodeId node = t.self();
  const obs::Labels labels =
      net::is_server_node(node)
          ? obs::Labels{{"server", to_string(net::server_of(node))}}
          : obs::process_labels(node.value);
  const transport::CoRfifoTransport::Stats& s = t.stats();
  reg.counter("xport.frame.frames_sent", labels).inc(s.frames_sent);
  reg.counter("xport.frame.entries_sent", labels).inc(s.entries_sent);
  reg.counter("xport.frame.acks_sent", labels).inc(s.acks_sent);
  reg.counter("xport.frame.acks_piggybacked", labels)
      .inc(s.acks_piggybacked);
  reg.counter("xport.frame.retransmissions", labels).inc(s.retransmissions);
  reg.counter("xport.frame.bytes_sent", labels).inc(s.bytes_sent);
  reg.counter("xport.frame.cells_allocated", labels)
      .inc(s.frame_cells_allocated);
  reg.counter("xport.window.stalls", labels).inc(s.window_stalls);
  reg.counter("xport.window.ooo_dropped", labels).inc(s.ooo_dropped);
  reg.gauge("xport.window.peak_unacked", labels)
      .max_of(static_cast<std::int64_t>(s.peak_unacked));
  reg.gauge("xport.window.peak_out_of_order", labels)
      .max_of(static_cast<std::int64_t>(s.peak_out_of_order));
  reg.gauge("xport.window.peak_pending", labels)
      .max_of(static_cast<std::int64_t>(s.peak_pending));
}

inline void snapshot_endpoint(const gcs::VsRfifoTsEndpoint& ep,
                              obs::Registry& reg) {
  const obs::Labels labels = obs::process_labels(ep.self().value);
  const gcs::VsRfifoTsEndpoint::VsStats& s = ep.vs_stats();
  reg.counter("gcs.sync_msgs_sent", labels).inc(s.sync_msgs_sent);
  reg.counter("gcs.sync_msgs_received", labels).inc(s.sync_msgs_received);
  reg.counter("gcs.sync_bytes_sent", labels).inc(s.sync_bytes_sent);
  reg.counter("gcs.aggregates_relayed", labels).inc(s.aggregates_relayed);
  reg.counter("gcs.forwards_sent", labels).inc(s.forwards_sent);
}

inline void snapshot_server(const membership::MembershipServer& server,
                            obs::Registry& reg) {
  const obs::Labels labels{{"server", to_string(server.self())}};
  const membership::MembershipServer::Stats& s = server.stats();
  reg.counter("mbr.server.rounds_started", labels).inc(s.rounds_started);
  reg.counter("mbr.server.views_formed", labels).inc(s.views_formed);
  reg.counter("mbr.server.proposals_sent", labels).inc(s.proposals_sent);
  reg.counter("mbr.server.start_changes_sent", labels)
      .inc(s.start_changes_sent);
  reg.counter("mbr.server.obsolete_views_suppressed", labels)
      .inc(s.obsolete_views_suppressed);
  reg.counter("mbr.server.full_views_sent", labels).inc(s.full_views_sent);
  reg.counter("mbr.server.delta_views_sent", labels).inc(s.delta_views_sent);
  reg.counter("mbr.server.view_bytes_saved", labels).inc(s.view_bytes_saved);
}

}  // namespace vsgc::app
