#include "stream/random_access.hpp"

#include <cassert>
#include <optional>
#include <stdexcept>
#include <vector>

namespace hupc::stream {

RandomAccess::RandomAccess(gas::Runtime& rt, int log2_table)
    : rt_(&rt), log2_table_(log2_table) {
  const std::uint64_t size = 1ULL << log2_table_;
  mask_ = size - 1;
  if (size % static_cast<std::uint64_t>(rt.threads()) != 0) {
    throw std::invalid_argument("RandomAccess: THREADS must divide 2^m");
  }
  const std::uint64_t block = size / static_cast<std::uint64_t>(rt.threads());
  table_ = rt.heap().all_alloc<std::uint64_t>(size, block);
  for (std::uint64_t i = 0; i < size; ++i) *table_.at(i).raw = i;
}

GatherResult RandomAccess::run_gather(const GatherParams& params) {
  auto& rt = *rt_;
  GatherResult result;
  result.reads = params.bursts * params.burst_len *
                 static_cast<std::uint64_t>(rt.threads());

  std::uint64_t remote_total = 0, checksum = 0;

  rt.spmd([&, params](gas::Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    // The epoch (if any) spans the whole gather; the guard's destructor
    // closes it on any unwind.
    std::optional<gas::CachedEpoch> epoch;
    if (params.cached) epoch.emplace(t, params.cache);
    std::uint64_t x =
        params.seed + 0x9E3779B97F4A7C15ULL *
                          static_cast<std::uint64_t>(t.rank() + 1);
    std::uint64_t sum = 0;
    for (std::uint64_t b = 0; b < params.bursts; ++b) {
      x = hpcc_next(x);
      const std::uint64_t start = x & mask_;
      for (std::uint64_t k = 0; k < params.burst_len; ++k) {
        const std::uint64_t idx = (start + k) & mask_;
        if (!t.castable(table_.owner_of(idx))) ++remote_total;
        sum ^= co_await t.get(table_.at(idx));
      }
    }
    checksum ^= sum;  // xor-fold: order-independent across ranks
    if (epoch) epoch->end();
    co_await t.barrier();
  });
  rt.run_to_completion();

  result.seconds = sim::to_seconds(rt.engine().now());
  result.mreads = static_cast<double>(result.reads) / result.seconds / 1e6;
  result.remote = remote_total;
  result.checksum = checksum;
  return result;
}

bool RandomAccess::verify() const {
  for (std::uint64_t i = 0; i <= mask_; ++i) {
    if (*table_.at(i).raw != i) return false;
  }
  return true;
}

GupsResult RandomAccess::run(GupsVariant variant,
                             std::uint64_t updates_per_thread, int passes,
                             const comm::Params& coalesce) {
  auto& rt = *rt_;
  const int T = rt.threads();
  GupsResult result;
  result.updates =
      updates_per_thread * static_cast<std::uint64_t>(T) * passes;

  // Grouped variant staging: per-rank inbox with one slice per sender.
  // Expected fill per slice is 2*updates/T (u64 pairs); give each slice
  // 4x headroom plus a constant so Poisson variance never overflows.
  const std::uint64_t slot_cap =
      8 * updates_per_thread / static_cast<std::uint64_t>(T) + 128;
  std::vector<gas::GlobalPtr<std::uint64_t>> inbox;
  if (variant == GupsVariant::grouped) {
    inbox.reserve(static_cast<std::size_t>(T));
    for (int r = 0; r < T; ++r) {
      inbox.push_back(rt.heap().alloc<std::uint64_t>(
          r, static_cast<std::size_t>(slot_cap) *
                 static_cast<std::size_t>(T)));
    }
  }

  std::uint64_t local_total = 0, remote_total = 0;

  rt.spmd([&, updates_per_thread, passes, variant, coalesce](gas::Thread& t)
              -> sim::Task<void> {
    co_await t.barrier();
    for (int pass = 0; pass < passes; ++pass) {
      std::uint64_t x =
          0x123456789ULL + 0x9E3779B97F4A7C15ULL *
                               static_cast<std::uint64_t>(t.rank() + 1);
      if (variant != GupsVariant::grouped) {
        // Every update is a fine-grained shared AMO. The coalesced variant
        // runs the IDENTICAL loop inside an epoch: the runtime batches the
        // per-update network charges per destination node and the epoch end
        // (plus the trailing barrier) fences everything out.
        if (variant == GupsVariant::coalesced) t.begin_coalesce(coalesce);
        for (std::uint64_t u = 0; u < updates_per_thread; ++u) {
          x = hpcc_next(x);
          const std::uint64_t idx = x & mask_;
          if (t.castable(table_.owner_of(idx))) {
            ++local_total;
          } else {
            ++remote_total;
          }
          (void)co_await t.fetch_xor(table_.at(idx), x);
        }
        if (variant == GupsVariant::coalesced) co_await t.end_coalesce();
      } else {
        // Thread-group optimization: privatized local updates + bucketed
        // remote shipments applied by the owner.
        std::vector<std::vector<std::uint64_t>> buckets(
            static_cast<std::size_t>(t.threads()));
        std::uint64_t applied_locally = 0;
        for (std::uint64_t u = 0; u < updates_per_thread; ++u) {
          x = hpcc_next(x);
          const std::uint64_t idx = x & mask_;
          const int owner = table_.owner_of(idx);
          if (t.castable(owner)) {
            *t.cast(table_.at(idx)) ^= x;  // direct store
            ++applied_locally;
          } else {
            auto& b = buckets[static_cast<std::size_t>(owner)];
            b.push_back(idx);
            b.push_back(x);
          }
        }
        local_total += applied_locally;
        // Charge the local burst: ~a handful of ns per cache-missing xor.
        co_await t.compute(static_cast<double>(applied_locally) * 4e-9);
        co_await t.stream_local(static_cast<double>(applied_locally) * 16.0);

        // Ship each bucket into the owner's inbox slice for this sender.
        std::vector<async::future<>> pending;
        for (int owner = 0; owner < t.threads(); ++owner) {
          const auto& b = buckets[static_cast<std::size_t>(owner)];
          if (b.empty()) continue;
          remote_total += b.size() / 2;
          if (b.size() > slot_cap) {
            throw std::runtime_error("RandomAccess: inbox slot overflow");
          }
          auto dst = inbox[static_cast<std::size_t>(owner)] +
                     static_cast<std::ptrdiff_t>(
                         static_cast<std::uint64_t>(t.rank()) * slot_cap);
          pending.push_back(t.launch_async(t.copy(dst, b.data(), b.size())));
        }
        for (auto& f : pending) co_await f.wait();
        co_await t.barrier();

        // Apply everything that landed in my inbox (senders wrote disjoint
        // slices; a zero value terminates each slice since x is never 0).
        std::uint64_t* mine = inbox[static_cast<std::size_t>(t.rank())].raw;
        std::uint64_t applied = 0;
        for (int sender = 0; sender < t.threads(); ++sender) {
          const std::uint64_t* slice =
              mine + static_cast<std::uint64_t>(sender) * slot_cap;
          for (std::uint64_t i = 0; i + 1 < slot_cap; i += 2) {
            if (slice[i + 1] == 0) break;
            *table_.at(slice[i]).raw ^= slice[i + 1];
            ++applied;
          }
        }
        co_await t.compute(static_cast<double>(applied) * 4e-9);
        co_await t.stream_local(static_cast<double>(applied) * 16.0);
        // Reset my inbox for the next pass.
        for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(t.threads()) *
                                          slot_cap;
             ++i) {
          mine[i] = 0;
        }
        co_await t.barrier();
      }
    }
    co_await t.barrier();
  });
  rt.run_to_completion();

  result.seconds = sim::to_seconds(rt.engine().now());
  result.gups = static_cast<double>(result.updates) / result.seconds / 1e9;
  result.local = local_total;
  result.remote = remote_total;
  return result;
}

}  // namespace hupc::stream
