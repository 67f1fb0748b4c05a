// The allocation counter of the test executables that count heap
// allocations (alloc_budget_test, alloc_sites, view_test). Linking
// alloc_counter.cpp into an executable replaces its global operator new and
// delete: every operator new bumps one counter and, while a hook is set,
// calls the hook first. A simulated execution is a pure function of its
// seed, so a count taken around one repeats exactly.
#pragma once

#include <cstdint>

namespace vsgc::alloc_counter {

/// Allocations this executable has made so far.
std::uint64_t allocations();

/// Called on every allocation while set, before the memory is taken. An
/// allocation the hook itself makes is counted but does not call it again.
using Hook = void (*)();
/// Sets the hook; nullptr removes it.
void set_hook(Hook hook);

}  // namespace vsgc::alloc_counter
