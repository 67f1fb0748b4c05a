// Application message as seen by the GCS service interface.
//
// `uid` is a per-sender monotone counter assigned at send_p(m) time. It gives
// every application message a global identity (sender, uid) so that the spec
// checkers can compare "the i'th message delivered from q in view v" against
// "the i'th message q sent in v" without relying on payload uniqueness.
#pragma once

#include <cstdint>
#include <string>

#include "util/ids.hpp"

namespace vsgc::gcs {

struct AppMsg {
  ProcessId sender{};
  std::uint64_t uid = 0;
  std::string payload{};

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.sender, s.uid, s.payload);
  }

  template <class S, class V>
  static void json_fields(S& s, V& v) {
    v("sender", s.sender)("uid", s.uid)("payload", s.payload);
  }

  friend bool operator==(const AppMsg&, const AppMsg&) = default;
};

}  // namespace vsgc::gcs
