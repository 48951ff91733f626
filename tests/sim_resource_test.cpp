#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/hooks.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"

namespace {

using namespace hupc::sim;  // NOLINT: test-local convenience

TEST(FifoServer, ServesInOrderWithBackToBackTiming) {
  Engine e;
  FifoServer srv(e);
  std::vector<Time> finish;
  for (int i = 0; i < 3; ++i) {
    spawn(e, [](Engine& eng, FifoServer& s, std::vector<Time>& f) -> Task<void> {
      co_await s.serve(10);
      f.push_back(eng.now());
    }(e, srv, finish));
  }
  e.run();
  EXPECT_EQ(finish, (std::vector<Time>{10, 20, 30}));
}

TEST(FluidLink, SingleTransferTakesBytesOverCapacity) {
  Engine e;
  FluidLink link(e, 1e9);  // 1 GB/s
  Time done_at = 0;
  spawn(e, [](Engine& eng, FluidLink& l, Time& d) -> Task<void> {
    co_await l.transfer(1e6);  // 1 MB -> 1 ms
    d = eng.now();
  }(e, link, done_at));
  e.run();
  EXPECT_NEAR(static_cast<double>(done_at), 1e6, 10.0);  // ~1 ms in ns
}

TEST(FluidLink, TwoEqualTransfersShareBandwidth) {
  Engine e;
  FluidLink link(e, 1e9);
  std::vector<Time> done;
  for (int i = 0; i < 2; ++i) {
    spawn(e, [](Engine& eng, FluidLink& l, std::vector<Time>& d) -> Task<void> {
      co_await l.transfer(1e6);
      d.push_back(eng.now());
    }(e, link, done));
  }
  e.run();
  ASSERT_EQ(done.size(), 2u);
  // Both get C/2, so both finish at ~2 ms.
  EXPECT_NEAR(static_cast<double>(done[0]), 2e6, 100.0);
  EXPECT_NEAR(static_cast<double>(done[1]), 2e6, 100.0);
}

TEST(FluidLink, LateArrivalSlowsEarlyTransfer) {
  Engine e;
  FluidLink link(e, 1e9);
  Time first_done = 0, second_done = 0;
  spawn(e, [](Engine& eng, FluidLink& l, Time& d) -> Task<void> {
    co_await l.transfer(1e6);  // starts alone
    d = eng.now();
  }(e, link, first_done));
  spawn(e, [](Engine& eng, FluidLink& l, Time& d) -> Task<void> {
    co_await delay(eng, 500'000);  // join at 0.5 ms, first is half done
    co_await l.transfer(1e6);
    d = eng.now();
  }(e, link, second_done));
  e.run();
  // First: 0.5 ms alone + 0.5 MB at C/2 = 0.5 + 1.0 = 1.5 ms.
  EXPECT_NEAR(static_cast<double>(first_done), 1.5e6, 200.0);
  // Second: shares C/2 until 1.5 ms (moves 0.5 MB), then full C: +0.5 ms.
  EXPECT_NEAR(static_cast<double>(second_done), 2.0e6, 200.0);
}

TEST(FluidLink, PerTransferCapLimitsRate) {
  Engine e;
  FluidLink link(e, 10e9);  // huge aggregate
  Time done_at = 0;
  spawn(e, [](Engine& eng, FluidLink& l, Time& d) -> Task<void> {
    co_await l.transfer(1e6, /*max_rate=*/1e9);  // capped at 1 GB/s
    d = eng.now();
  }(e, link, done_at));
  e.run();
  EXPECT_NEAR(static_cast<double>(done_at), 1e6, 10.0);
}

TEST(FluidLink, CapsAndFairShareWaterFilling) {
  Engine e;
  FluidLink link(e, 3e9);  // 3 GB/s total
  std::vector<std::pair<int, Time>> done;
  // Transfer 0 capped at 0.5 GB/s; transfers 1 and 2 uncapped split the
  // remaining 2.5 GB/s -> 1.25 GB/s each.
  spawn(e, [](Engine& eng, FluidLink& l, std::vector<std::pair<int, Time>>& d)
            -> Task<void> {
    co_await l.transfer(0.5e6, 0.5e9);  // 1 ms at its cap
    d.emplace_back(0, eng.now());
  }(e, link, done));
  for (int i = 1; i <= 2; ++i) {
    spawn(e, [](Engine& eng, FluidLink& l, std::vector<std::pair<int, Time>>& d,
                int id) -> Task<void> {
      co_await l.transfer(1.25e6);  // 1 ms at 1.25 GB/s
      d.emplace_back(id, eng.now());
    }(e, link, done, i));
  }
  e.run();
  ASSERT_EQ(done.size(), 3u);
  for (const auto& [id, t] : done) {
    EXPECT_NEAR(static_cast<double>(t), 1e6, 1000.0) << "transfer " << id;
  }
}

TEST(FluidLink, ZeroByteTransferIsImmediate) {
  Engine e;
  FluidLink link(e, 1e9);
  bool done = false;
  spawn(e, [](FluidLink& l, bool& d) -> Task<void> {
    co_await l.transfer(0.0);
    d = true;
  }(link, done));
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.now(), 0);
}

TEST(FluidLink, ConservationProperty) {
  // Property: sum of offered bytes equals link's total accounting, and all
  // transfers complete, across a randomized schedule.
  Engine e;
  FluidLink link(e, 2.5e9);
  int completed = 0;
  double offered = 0;
  hupc::util::Xoshiro256ss rng(12345);
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    const double bytes = 1000.0 + static_cast<double>(rng.below(1'000'000));
    const Time start = static_cast<Time>(rng.below(2'000'000));
    offered += bytes;
    spawn(e, [](Engine& eng, FluidLink& l, double b, Time s, int& c) -> Task<void> {
      co_await delay(eng, s);
      co_await l.transfer(b, 1.5e9);
      ++c;
    }(e, link, bytes, start, completed));
  }
  e.run();
  EXPECT_EQ(completed, n);
  EXPECT_NEAR(link.total_bytes(), offered, 1.0);
  EXPECT_EQ(link.active_transfers(), 0u);
}

/// Delays every future event by 10 ns and counts the events it sees.
class LateFutureEvents final : public hupc::fault::ScheduleHook {
 public:
  std::int64_t perturb_schedule(std::int64_t now,
                                std::int64_t at) noexcept override {
    ++calls;
    return at > now ? at + 10 : at;
  }
  std::uint64_t calls = 0;
};

struct StaggeredRun {
  std::vector<Time> done;  // each transfer's completion time
  std::uint64_t events;    // engine events dispatched
};

/// Three 1 MB transfers through one 1 GB/s link, joining at 0, 0.2 and
/// 0.4 ms.
StaggeredRun staggered_joins(hupc::fault::ScheduleHook* hook) {
  Engine e;
  e.set_fault(hook);
  FluidLink link(e, 1e9);
  std::vector<Time> done(3, -1);
  for (int i = 0; i < 3; ++i) {
    spawn(e, [](Engine& eng, FluidLink& l, Time start, Time& d) -> Task<void> {
      if (start > 0) co_await delay(eng, start);
      co_await l.transfer(1e6);
      d = eng.now();
    }(e, link, i * 200'000, done[static_cast<std::size_t>(i)]));
  }
  e.run();
  EXPECT_EQ(link.active_transfers(), 0u);
  return {done, e.events_executed()};
}

TEST(FluidLink, StaggeredJoinsSupersedeCompletionsThatStillDispatch) {
  const StaggeredRun run = staggered_joins(nullptr);
  // At 1 byte/ns: A runs alone to 0.2 ms (0.8 MB left), shares with B to
  // 0.4 ms (A 0.7 MB, B 0.9 MB left), then three ways. A finishes after
  // 3 x 0.7 MB = 2.1 ms more, B after 2 x 0.2 MB = 0.4 ms more, and C
  // carries its last 0.1 MB alone. Each completion rounds up by 1 ns.
  EXPECT_EQ(run.done, (std::vector<Time>{2'500'001, 2'900'001, 3'000'002}));
  // 3 process starts, 2 delays, 3 transfer wakeups and 5 completion
  // events: the ones scheduled at 0 and 0.2 ms are superseded by the
  // next join and find nothing to do, but they still dispatch.
  EXPECT_EQ(run.events, 13u);
}

TEST(FluidLink, StaggeredJoinsUnderScheduleHook) {
  LateFutureEvents hook;
  const StaggeredRun run = staggered_joins(&hook);
  // B joins at 200,010 ns and C at 400,010 ns, and every completion
  // fires 10 ns after its computed finish. The link recomputes the rates
  // from those late times, so the results are not the unhooked ones
  // shifted. The superseded completions still dispatch, so the event
  // count does not change.
  EXPECT_EQ(run.done, (std::vector<Time>{2'499'991, 2'900'015, 3'000'020}));
  EXPECT_EQ(run.events, 13u);
  EXPECT_EQ(hook.calls, run.events);  // one perturb per scheduled event
}

}  // namespace
