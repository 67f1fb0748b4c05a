// Command-line helpers shared by the tools.
#pragma once

#include <climits>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

namespace vsgc {

/// Parses a positive decimal int (the --clients/--servers rule: a world
/// needs at least one of each); complains on stderr and returns false on
/// anything else.
inline bool parse_positive(const std::string& text, int* out) {
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || v < 1 || v > INT_MAX) {
    std::cerr << "expected a positive integer, got '" << text << "'\n";
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

/// Parses "LO:HI", or "N" for LO = HI = N, as decimal integers.
inline void parse_range(const std::string& text, std::uint64_t* lo,
                        std::uint64_t* hi) {
  const auto colon = text.find(':');
  *lo = std::strtoull(text.substr(0, colon).c_str(), nullptr, 10);
  *hi = colon == std::string::npos
            ? *lo
            : std::strtoull(text.substr(colon + 1).c_str(), nullptr, 10);
}

}  // namespace vsgc
