#include "mc/schedule_script.hpp"

namespace vsgc::mc {

std::vector<std::uint32_t> ScheduleScript::picks() const {
  std::vector<std::uint32_t> out;
  out.reserve(choices.size());
  for (const Choice& c : choices) out.push_back(c.pick);
  return out;
}

std::size_t ScheduleScript::deviations() const {
  std::size_t n = 0;
  for (const Choice& c : choices) n += c.pick != 0 ? 1 : 0;
  return n;
}

}  // namespace vsgc::mc
