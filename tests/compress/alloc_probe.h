#pragma once
// Allocation probe for bounded-allocation tests. The test binary that
// links alloc_probe.cpp replaces the global operator new; while the probe
// is armed it records the largest single request.

#include <cstddef>

namespace medsen::test {

void arm_allocation_probe();
/// Disarm; returns the largest request seen since arming.
std::size_t disarm_allocation_probe();

}  // namespace medsen::test
