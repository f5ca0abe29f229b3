#include "alloc_probe.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_largest{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_armed.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (size > seen && !g_largest.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace medsen::test {

void arm_allocation_probe() {
  g_largest.store(0);
  g_armed.store(true);
}

std::size_t disarm_allocation_probe() {
  g_armed.store(false);
  return g_largest.load();
}

}  // namespace medsen::test
