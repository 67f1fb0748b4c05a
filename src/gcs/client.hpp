// Application-facing interface of a GCS end-point.
//
// The service delivers messages, views (with transitional sets, Section
// 4.1.3), and block requests to its client through this interface; the client
// calls back into the end-point with send() and block_ok(). A well-behaved
// client must satisfy the CLIENT:SPEC automaton of Figure 12: it eventually
// answers every block() with block_ok() and refrains from sending until the
// next view. gcs::BlockingClient (src/app) provides that behaviour for free.
#pragma once

#include "gcs/app_msg.hpp"
#include "membership/process_set.hpp"
#include "membership/view.hpp"

namespace vsgc::gcs {

class Client {
 public:
  virtual ~Client() = default;

  /// deliver_p(q, m): message `m` from process `q`, in the current view.
  virtual void deliver(ProcessId from, const AppMsg& msg) = 0;

  /// view_p(v, T): new view `v` with transitional set `T`. T is the body
  /// the end-point built and its GcsView event holds.
  virtual void view(const View& v, const ProcessSet& transitional) = 0;

  /// block_p(): the service asks the client to stop sending; the client must
  /// eventually call GcsEndpoint::block_ok().
  virtual void block() = 0;
};

}  // namespace vsgc::gcs
