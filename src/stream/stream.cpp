#include "stream/stream.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>

namespace hupc::stream {

namespace {
constexpr double kTriadBytesPerElement = 24.0;  // read b, read c, write a
}

TriadResult twisted_triad(gas::Runtime& rt, std::size_t elements_per_thread,
                          TriadVariant variant) {
  if (rt.nodes_used() != 1) {
    throw std::invalid_argument("twisted_triad: single-node study");
  }
  if (rt.threads() % 2 != 0) {
    throw std::invalid_argument("twisted_triad: even thread count required");
  }
  const double n = static_cast<double>(elements_per_thread);

  rt.spmd([&rt, n, variant](gas::Thread& t) -> sim::Task<void> {
    const int partner = t.rank() ^ 1;
    auto& mem = rt.memory();
    co_await t.barrier();
    switch (variant) {
      case TriadVariant::upc_baseline: {
        // One un-privatized shared access per element (the remote operand;
        // Berkeley's translator privatizes provably-local accesses): the
        // translation overhead serializes with the memory stream.
        co_await t.shared_loop(partner, static_cast<std::uint64_t>(n),
                               kTriadBytesPerElement, /*privatized=*/false);
        break;
      }
      case TriadVariant::upc_relocalize: {
        // Bulk-copy the partner's b and c slices into private buffers
        // (upc_memget), then run the triad locally at full speed.
        co_await t.copy_raw(partner, nullptr, nullptr,
                            static_cast<std::size_t>(16.0 * n));
        co_await t.stream_local(kTriadBytesPerElement * n);
        break;
      }
      case TriadVariant::upc_cast:
      case TriadVariant::openmp: {
        // Plain loads/stores: reads stream from the partner's socket,
        // writes to the local one, overlapped (hardware prefetch).
        auto reads = mem.stream(t.loc(), rt.loc_of(partner), 16.0 * n);
        auto writes = mem.stream(t.loc(), t.loc(), 8.0 * n);
        co_await reads.wait();
        co_await writes.wait();
        break;
      }
    }
    co_await t.barrier();
  });
  rt.run_to_completion();

  TriadResult res;
  res.seconds = sim::to_seconds(rt.engine().now());
  const double total_bytes =
      kTriadBytesPerElement * n * static_cast<double>(rt.threads());
  res.gbytes_per_s = total_bytes / res.seconds / 1e9;
  return res;
}

TriadResult hybrid_triad(gas::Runtime& rt, std::size_t elements_per_thread,
                         int subs, core::SubModel model) {
  const double n = static_cast<double>(elements_per_thread);

  rt.spmd([n, subs, model](gas::Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    if (subs <= 1) {
      co_await t.stream_local(kTriadBytesPerElement * n);
    } else {
      core::SubPool pool(t, subs, model);
      const double share = kTriadBytesPerElement * n / subs;
      co_await pool.parallel_for(
          static_cast<std::size_t>(subs), core::Schedule::static_chunks,
          [share](core::SubContext& c, std::size_t lo,
                  std::size_t hi) -> sim::Task<void> {
            co_await c.stream_master_data(share * static_cast<double>(hi - lo));
          });
    }
    co_await t.barrier();
  });
  rt.run_to_completion();

  TriadResult res;
  res.seconds = sim::to_seconds(rt.engine().now());
  const double total_bytes =
      kTriadBytesPerElement * n * static_cast<double>(rt.threads());
  res.gbytes_per_s = total_bytes / res.seconds / 1e9;
  return res;
}

}  // namespace hupc::stream
