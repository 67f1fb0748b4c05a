#include "membership/view.hpp"

#include <sstream>

namespace vsgc {

std::string to_string(const View& v) {
  std::ostringstream os;
  os << to_string(v.id) << "{";
  bool first = true;
  for (const auto& [p, cid] : v.start_id()) {
    if (!first) os << ",";
    first = false;
    os << to_string(p) << "@" << cid.value;
  }
  os << "}";
  return os.str();
}

}  // namespace vsgc
