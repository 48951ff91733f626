// Shared plumbing for the paper-reproduction bench binaries: result lookup
// for the paper-table formatters, and the main() that reads each binary's
// flags through util::Cli, prints its banner, runs its cells and formats
// them. Cells build their gas::Config with gas::preset_config.
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "gas/gas.hpp"
#include "perf/benchmark.hpp"
#include "perf/runner.hpp"
#include "sim/sim.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace hupc::bench {

/// Look up one harness result by benchmark id (null when the id was
/// filtered out of the run — formatters skip those rows).
[[nodiscard]] inline const perf::Result* find_result(
    const std::vector<perf::Result>& results, std::string_view id) {
  for (const auto& r : results) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

/// Value of config knob `key` recorded by a cell ("" when unset).
[[nodiscard]] inline std::string config(const perf::Result& r,
                                        std::string_view key) {
  for (const auto& [k, v] : r.config) {
    if (k == key) return v;
  }
  return "";
}

/// Harnessed benches pass perf::Runner::human_out() so the banner lands on
/// stderr when the JSON artifact streams to stdout.
inline void banner(std::ostream& os, const char* experiment,
                   const char* paper_result) {
  os << "=====================================================================\n"
     << "HUPC reproduction | " << experiment << '\n'
     << "Paper reference   | " << paper_result << '\n'
     << "=====================================================================\n";
}

/// A paper-table formatter over the cells' results; its return value is
/// the binary's exit code (gated ablations fail below their bar).
using Report =
    std::function<int(std::ostream&, const std::vector<perf::Result>&)>;

/// The main() of a paper or ablation binary: read the perf::Runner flags
/// from one util::Cli — the runner rejects any other flag — print the
/// banner, run the selected cells once per repetition, then hand the
/// results to `report`. A malformed flag value exits 2.
inline int run_main(const char* suite, int argc, const char* const* argv,
                    const char* experiment, const char* paper_result,
                    const Report& report) {
  return util::cli_main(suite, argc, argv, [&](const util::Cli& cli) {
    const perf::Runner runner(suite, cli);
    banner(runner.human_out(), experiment, paper_result);
    return runner.main([&](const std::vector<perf::Result>& results) {
      return report(runner.human_out(), results);
    });
  });
}

/// The UPC-style pairwise all-to-all: one non-blocking `bytes` copy to
/// every other rank, staggered by rank, then wait for all of them. When
/// `issued` is set it receives the virtual time the last copy was issued,
/// which splits the exchange into issue and wait phases (Fig 3.4b).
inline sim::Task<void> exchange_async(gas::Thread& t, std::size_t bytes,
                                      sim::Time* issued = nullptr) {
  std::vector<async::future<>> pending;
  for (int step = 1; step < t.threads(); ++step) {
    const int peer = (t.rank() + step) % t.threads();
    pending.push_back(
        t.launch_async(t.copy_raw(peer, nullptr, nullptr, bytes)));
  }
  if (issued != nullptr) *issued = t.runtime().engine().now();
  for (auto& f : pending) co_await f.wait();
}

}  // namespace hupc::bench
