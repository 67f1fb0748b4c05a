#include "membership/view.hpp"

#include <sstream>

namespace vsgc {

std::string to_string(const View& v) {
  std::ostringstream os;
  os << to_string(v.id) << "{";
  bool first = true;
  for (ProcessId p : v.members()) {
    if (!first) os << ",";
    first = false;
    os << to_string(p) << "@" << v.start_id_of(p).value;
  }
  os << "}";
  return os.str();
}

}  // namespace vsgc
