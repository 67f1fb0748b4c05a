// Allocation-site probe: runs alloc_budget_test's churn or stress recipe
// (tests/alloc_recipes.hpp) and prints where its heap allocations come from.
//
//   alloc_sites [--recipe churn|stress] [--clients N] [--top K] [--check]
//
// Every operator new bumps the counter of tests/alloc_counter.hpp, as in
// alloc_budget_test; while the recipe's counted part runs, the counter's
// hook records each allocation's call stack.
// After the run the stacks are symbolized and grouped by site: the innermost
// vsgc:: frame and the first vsgc:: frame that calls it. The top K sites are
// printed with their share of the total. --clients N runs churn on N
// clients and N/4 servers (default 16, the size the exact count is for; N
// from 4 to 128). With --check the tool exits 1 unless the sites add up to
// the total and the total equals the recipe's exact count in
// alloc_recipes.hpp. Names come from the dynamic symbol table,
// so a function with internal linkage shows under the exported symbol
// before it, and an inlined callee under its caller.
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "alloc_recipes.hpp"

namespace {

constexpr int kDepth = 24;          ///< frames kept per stack
constexpr std::size_t kStacks = 1 << 15;  ///< distinct stacks kept

struct Stack {
  std::array<void*, kDepth> frames{};
  int depth = 0;
  std::uint64_t count = 0;
};

/// Open-addressed by a hash of the frames; a full table counts the rest
/// in g_unrecorded.
Stack g_stacks[kStacks];
std::uint64_t g_unrecorded = 0;

/// The counter's hook: records the stack of one allocation.
void record() {
  std::array<void*, kDepth + 2> raw{};
  // Frames 0 and 1 are record() and the counter's frame that calls it.
  const int n = backtrace(raw.data(), kDepth + 2) - 2;
  std::uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < n; ++i) {
    h = (h ^ reinterpret_cast<std::uintptr_t>(raw[i + 2])) * 1099511628211ull;
  }
  for (std::size_t probe = 0; probe < kStacks; ++probe) {
    Stack& s = g_stacks[(h + probe) & (kStacks - 1)];
    if (s.count == 0) {
      std::copy_n(raw.begin() + 2, n, s.frames.begin());
      s.depth = n;
    } else if (s.depth != n ||
               !std::equal(s.frames.begin(), s.frames.begin() + n,
                           raw.begin() + 2)) {
      continue;
    }
    ++s.count;
    return;
  }
  ++g_unrecorded;
}

/// The demangled name of the function holding `pc`, without its parameter
/// list, or "" when no symbol covers it.
std::string symbol(void* pc) {
  Dl_info info{};
  // A return address points past its call; step back into the call.
  void* at = static_cast<char*>(pc) - 1;
  if (dladdr(at, &info) == 0 || info.dli_sname == nullptr) return "";
  int status = 0;
  char* plain = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
  std::string name = status == 0 ? plain : info.dli_sname;
  std::free(plain);
  // Drop the parameter list: cut at the first '(' outside template
  // arguments that does not open "(anonymous namespace)".
  int depth = 0;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (name[i] == '<') {
      ++depth;
    } else if (name[i] == '>') {
      --depth;
    } else if (name[i] == '(' && depth == 0 &&
               name.compare(i, 21, "(anonymous namespace)") != 0) {
      name.resize(i);
      break;
    }
  }
  return name;
}

bool in_vsgc(const std::string& name) {
  return name.compare(0, 6, "vsgc::") == 0;
}

/// "innermost vsgc frame <- its first vsgc caller" for one stack.
std::string site(const Stack& s) {
  std::string inner;
  for (int i = 0; i < s.depth; ++i) {
    const std::string name = symbol(s.frames[static_cast<std::size_t>(i)]);
    if (!in_vsgc(name)) continue;
    if (inner.empty()) {
      inner = name;
    } else if (name != inner) {
      return inner + "  <-  " + name;
    }
  }
  return inner.empty() ? "(no vsgc frame)" : inner;
}

int usage() {
  std::fprintf(stderr,
               "usage: alloc_sites [--recipe churn|stress] [--clients N] "
               "[--top K] [--check]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string recipe = "churn";
  int clients = 16;
  int top = 20;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--recipe" && i + 1 < argc) {
      recipe = argv[++i];
    } else if (arg == "--clients" && i + 1 < argc) {
      clients = std::atoi(argv[++i]);
      if (clients < 4 || clients > 128) return usage();
    } else if (arg == "--top" && i + 1 < argc) {
      top = std::atoi(argv[++i]);
      if (top <= 0) return usage();
    } else if (arg == "--check") {
      check = true;
    } else {
      return usage();
    }
  }
  if (recipe != "churn" && recipe != "stress") return usage();
  // The exact counts are for the default size.
  if (check && clients != 16) return usage();

  // The unwinder loads itself on first use; do that outside the count.
  std::array<void*, 4> warm{};
  backtrace(warm.data(), static_cast<int>(warm.size()));

  using namespace vsgc;
  using alloc_counter::allocations;
  std::uint64_t before = 0;
  const auto start = [&before]() {
    before = allocations();
    alloc_counter::set_hook(record);
  };
  double per = 0;
  double exact = 0;
  const char* unit = "";
  std::uint64_t total = 0;
  if (recipe == "churn") {
    const int changes = alloc_recipes::churn(clients, 4, start);
    alloc_counter::set_hook(nullptr);
    total = allocations() - before;
    if (changes == 0) {
      std::fprintf(stderr, "alloc_sites: churn did not converge\n");
      return 1;
    }
    per = static_cast<double>(total) / changes;
    exact = clients == 16 ? alloc_recipes::kChurnPerViewChange : -1;
    unit = "view change";
    std::printf("recipe churn: %d clients, %d servers, %d view changes\n",
                clients, clients / 4, changes);
  } else {
    start();
    const bool ok = alloc_recipes::stress_seed(alloc_recipes::kStressSeed);
    alloc_counter::set_hook(nullptr);
    total = allocations() - before;
    if (!ok) {
      std::fprintf(stderr, "alloc_sites: stress seed did not converge\n");
      return 1;
    }
    per = static_cast<double>(total);
    exact = static_cast<double>(alloc_recipes::kStressSeedAllocations);
    unit = "seed";
    std::printf("recipe stress: seed %llu\n",
                static_cast<unsigned long long>(alloc_recipes::kStressSeed));
  }

  std::map<std::string, std::uint64_t> by_site;
  std::uint64_t recorded = g_unrecorded;
  for (const Stack& s : g_stacks) {
    if (s.count == 0) continue;
    by_site[site(s)] += s.count;
    recorded += s.count;
  }
  if (g_unrecorded > 0) by_site["(stack table full)"] += g_unrecorded;
  std::vector<std::pair<std::uint64_t, std::string>> ranked;
  for (const auto& [name, count] : by_site) ranked.emplace_back(count, name);
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::printf("total %llu allocations, %.3f per %s",
              static_cast<unsigned long long>(total), per, unit);
  if (exact >= 0) std::printf(" (exact count %.3f)", exact);
  std::printf("\n");
  std::printf("%7s %9s  %s\n", "share", "count", "site");
  const std::size_t shown =
      std::min(ranked.size(), static_cast<std::size_t>(top));
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("%6.1f%% %9llu  %s\n",
                100.0 * static_cast<double>(ranked[i].first) /
                    static_cast<double>(total),
                static_cast<unsigned long long>(ranked[i].first),
                ranked[i].second.c_str());
  }
  if (!check) return 0;
  if (recorded != total) {
    std::fprintf(stderr, "alloc_sites: sites add up to %llu, not %llu\n",
                 static_cast<unsigned long long>(recorded),
                 static_cast<unsigned long long>(total));
    return 1;
  }
  if (per != exact) {
    std::fprintf(stderr,
                 "alloc_sites: %.3f allocations per %s, exact count is %.3f "
                 "(tests/alloc_recipes.hpp)\n",
                 per, unit, exact);
    return 1;
  }
  return 0;
}
