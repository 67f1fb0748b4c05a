// Application message as seen by the GCS service interface.
//
// `uid` is a per-sender monotone counter assigned at send_p(m) time. It gives
// every application message a global identity (sender, uid) so that the spec
// checkers can compare "the i'th message delivered from q in view v" against
// "the i'th message q sent in v" without relying on payload uniqueness.
//
// An AppMsg is an immutable value like View (DESIGN.md §11.5): `sender` and
// `uid` are plain fields, and the payload lives in one refcounted body that
// every copy shares. The send path, the FIFO buffers, the wire structs, the
// trace events and the clients all hold the message the sender built, so a
// copy bumps a refcount and never copies the payload.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "util/ids.hpp"

namespace vsgc::gcs {

struct AppMsg {
  ProcessId sender{};
  std::uint64_t uid = 0;

  /// No sender, uid 0, empty payload.
  AppMsg() = default;
  /// An empty payload needs no body.
  AppMsg(ProcessId from, std::uint64_t id, std::string payload)
      : sender(from),
        uid(id),
        body_(payload.empty()
                  ? nullptr
                  : std::make_shared<const std::string>(std::move(payload))) {}

  const std::string& payload() const { return body_ ? *body_ : empty(); }

  /// True when both messages hold one body (a message and its copies do).
  bool shares_payload_with(const AppMsg& o) const { return body_ == o.body_; }
  /// How many messages hold this one's body; 0 for an empty payload.
  long payload_use_count() const { return body_.use_count(); }

  /// Member-wise; messages that share a body skip the payload compare.
  friend bool operator==(const AppMsg& a, const AppMsg& b) {
    return a.sender == b.sender && a.uid == b.uid &&
           (a.body_ == b.body_ || a.payload() == b.payload());
  }

  template <class S, class V>
  static void fields(S& s, V& v) {
    with_parts(s, [&v](auto& sender, auto& uid, auto& payload) {
      v(sender, uid, payload);
    });
  }

  template <class S, class V>
  static void json_fields(S& s, V& v) {
    with_parts(s, [&v](auto& sender, auto& uid, auto& payload) {
      v("sender", sender)("uid", uid)("payload", payload);
    });
  }

 private:
  static const std::string& empty() {
    static const std::string kEmpty;
    return kEmpty;
  }

  /// Hands f the three parts. A writer (const S) sees the message's own; a
  /// reader fills a fresh payload, from which the body is then built.
  template <class S, class F>
  static void with_parts(S& s, F&& f) {
    if constexpr (std::is_const_v<S>) {
      f(s.sender, s.uid, s.payload());
    } else {
      std::string payload;
      f(s.sender, s.uid, payload);
      s = AppMsg(s.sender, s.uid, std::move(payload));
    }
  }

  std::shared_ptr<const std::string> body_{};
};

}  // namespace vsgc::gcs
