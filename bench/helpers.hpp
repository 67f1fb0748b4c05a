// Shared benchmark utilities: table printing and post-mortem run accounting.
//
// The benches measure SIMULATED time and message/byte counts — the metrics
// the paper's claims are about (message rounds, notifications, overhead) —
// so results are exactly reproducible across machines.
#pragma once

#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "obs/artifact.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace vsgc::bench {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  template <typename... Ts>
  void row(Ts&&... cells) {
    std::vector<std::string> r;
    (r.push_back(fmt(std::forward<Ts>(cells))), ...);
    rows_.push_back(std::move(r));
  }

  void print(const std::string& title) const {
    std::cout << "\n== " << title << " ==\n";
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
      for (const auto& r : rows_) {
        if (c < r.size()) width[c] = std::max(width[c], r[c].size());
      }
    }
    print_row(headers_, width);
    std::string sep;
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      sep += std::string(width[c] + 2, '-');
      if (c + 1 < headers_.size()) sep += "+";
    }
    std::cout << sep << "\n";
    for (const auto& r : rows_) print_row(r, width);
  }

 private:
  static std::string fmt(const std::string& s) { return s; }
  static std::string fmt(const char* s) { return s; }
  static std::string fmt(double v) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(2) << v;
    return os.str();
  }
  template <typename T>
  static std::string fmt(T v) {
    return std::to_string(v);
  }

  void print_row(const std::vector<std::string>& r,
                 const std::vector<std::size_t>& width) const {
    for (std::size_t c = 0; c < r.size(); ++c) {
      std::cout << " " << std::setw(static_cast<int>(width[c])) << r[c] << " ";
      if (c + 1 < r.size()) std::cout << "|";
    }
    std::cout << "\n";
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline double ms(sim::Time t) {
  return static_cast<double>(t) / sim::kMillisecond;
}

/// Post-mortem accounting on every exit path of one run: when it goes out of
/// scope, the simulator's stats go to the artifact's "sim" section and the
/// world's layer snapshot into `reg`.
template <typename World>
struct Tally {
  obs::BenchArtifact& art;
  obs::Registry& reg;
  World& w;
  ~Tally() {
    art.tally(w.sim());
    w.snapshot(reg);
  }
};

}  // namespace vsgc::bench
