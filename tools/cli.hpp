// Command-line helpers shared by the tools. Each parser takes the whole
// argument or nothing: on bad input it complains on stderr and returns false,
// and the tool exits 2 (a usage error).
#pragma once

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

namespace vsgc {

/// Parses a decimal integer in [lo, hi] (digits only: no sign, no spaces)
/// into *out, whose type must hold every value of that range.
template <class T>
bool parse_int(const std::string& text, std::uint64_t lo, std::uint64_t hi,
               T* out) {
  errno = 0;
  const std::uint64_t v = std::strtoull(text.c_str(), nullptr, 10);
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos ||
      errno == ERANGE || v < lo || v > hi) {
    std::cerr << "expected an integer in [" << lo << ", " << hi << "], got '"
              << text << "'\n";
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

/// Parses a probability: a decimal number in [0, 1].
inline bool parse_probability(const std::string& text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || !std::isfinite(v) ||
      v < 0.0 || v > 1.0) {
    std::cerr << "expected a probability in [0, 1], got '" << text << "'\n";
    return false;
  }
  *out = v;
  return true;
}

/// Parses "LO:HI", or "N" for LO = HI = N, as decimal integers with LO <= HI.
inline bool parse_range(const std::string& text, std::uint64_t* lo,
                        std::uint64_t* hi) {
  const auto colon = text.find(':');
  if (!parse_int(text.substr(0, colon), 0, UINT64_MAX, lo) ||
      !parse_int(colon == std::string::npos ? text : text.substr(colon + 1),
                 *lo, UINT64_MAX, hi)) {
    std::cerr << "expected a range LO:HI with LO <= HI, got '" << text
              << "'\n";
    return false;
  }
  return true;
}

}  // namespace vsgc
