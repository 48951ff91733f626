// The completion path allocates nothing in steady state (DESIGN.md §13):
// this binary replaces the global operator new/delete with counting
// versions, warms a simulation up, and then requires a loop of
// Network::rma, FluidLink::transfer, future::wait, when_all,
// Thread::launch_async and the then/finally continuations to make no
// global allocation at all. Shared states, coroutine frames and
// continuation nodes come from the frame pool, which the warm-up fills.
//
// Under AddressSanitizer the pool is bypassed on purpose (so ASan still
// sees use-after-free), and the test is skipped.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "async/future.hpp"
#include "gas/gas.hpp"
#include "sim/sim.hpp"

#if !defined(__SANITIZE_ADDRESS__)

namespace {
bool g_counting = false;
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  if (g_counting) ++g_allocations;
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace hupc;  // NOLINT: test-local convenience

constexpr int kWarmupRounds = 8;
constexpr int kSteadyRounds = 64;
constexpr int kFanout = 4;

sim::Task<void> remote_put(net::Network& nw, int ep, double bytes) {
  co_await nw.rma(
      {.src_node = 0, .src_ep = ep, .dst_node = 1, .bytes = bytes});
}

/// One round of the completion path. `batch` is caller storage for
/// when_all's input vector (when_all takes ownership of it), reserved
/// before counting starts. Every continuation's result is added to `sum`.
sim::Task<void> round(gas::Thread& t, sim::FluidLink& link,
                      std::vector<async::future<>>& batch, int& sum) {
  net::Network& nw = t.runtime().network();
  co_await nw.rma({.src_node = 0, .src_ep = 0, .dst_node = 1, .bytes = 64});
  co_await link.transfer(4096);
  for (int i = 0; i < kFanout; ++i) {
    // Four concurrent messages from four endpoints contend for the node's
    // API queue and the NICs; the link carries four overlapping flows.
    batch.push_back(t.launch_async(remote_put(nw, i, 256.0 * (i + 1))));
    batch.push_back(link.transfer(1024.0 * (i + 1)));
  }
  batch.push_back(async::make_ready_future());
  const async::future<> lone = link.transfer(512);
  // Continuations on engine-backed futures: then() returning a value,
  // then() returning a future (chained by forward_into) and finally().
  link.transfer(128).finally([&sum] { sum += 1; });
  const async::future<int> mapped = link.transfer(128).then([] { return 10; });
  const async::future<int> chained = link.transfer(128).then(
      [&link] { return link.transfer(64).then([] { return 100; }); });
  co_await lone.wait();
  co_await async::when_all(std::move(batch)).wait();
  sum += co_await mapped.wait();
  sum += co_await chained.wait();
}

sim::Task<void> drive(gas::Thread& t, sim::FluidLink& link,
                      std::vector<std::vector<async::future<>>>& batches,
                      std::uint64_t& steady_allocations, int& sum) {
  if (t.rank() != 0) co_return;
  std::size_t next = 0;
  for (int r = 0; r < kWarmupRounds; ++r) {
    co_await round(t, link, batches[next++], sum);
  }
  const std::uint64_t before = g_allocations;
  g_counting = true;
  for (int r = 0; r < kSteadyRounds; ++r) {
    co_await round(t, link, batches[next++], sum);
  }
  g_counting = false;
  steady_allocations = g_allocations - before;
}

TEST(AllocFree, SteadyStateCompletionPathMakesNoGlobalAllocations) {
  const std::int64_t live_before = async::debug_live_states();
  std::uint64_t steady_allocations = ~std::uint64_t{0};
  std::uint64_t messages = 0;
  int sum = 0;
  {
    sim::Engine engine;
    gas::Config cfg;
    cfg.machine = topo::lehman(2);
    cfg.threads = 8;
    cfg.backend = gas::Backend::processes;
    gas::Runtime rt(engine, cfg);
    sim::FluidLink link(engine, 1e9);
    std::vector<std::vector<async::future<>>> batches(kWarmupRounds +
                                                      kSteadyRounds);
    for (auto& b : batches) b.reserve(2 * kFanout + 1);
    rt.spmd([&](gas::Thread& t) {
      return drive(t, link, batches, steady_allocations, sum);
    });
    rt.run_to_completion();
    messages = rt.network().total_messages();
  }
  EXPECT_EQ(messages,
            static_cast<std::uint64_t>(kWarmupRounds + kSteadyRounds) *
                (1 + kFanout));
  EXPECT_EQ(sum, (kWarmupRounds + kSteadyRounds) * 111)
      << "every then, forward_into and finally continuation ran";
  EXPECT_EQ(steady_allocations, 0u)
      << "global allocations in " << kSteadyRounds << " steady-state rounds";
  EXPECT_EQ(async::debug_live_states(), live_before)
      << "every shared state must die with its last handle";
}

}  // namespace

#else  // __SANITIZE_ADDRESS__

TEST(AllocFree, SteadyStateCompletionPathMakesNoGlobalAllocations) {
  GTEST_SKIP() << "the frame pool is bypassed under AddressSanitizer";
}

#endif  // __SANITIZE_ADDRESS__
