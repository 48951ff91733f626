// Shared plumbing for the paper-reproduction bench binaries: machine/config
// construction, result lookup for the paper-table formatters, and the
// main() that prints each binary's banner, runs its cells and formats them.
#pragma once

#include <algorithm>
#include <functional>
#include <iostream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "gas/gas.hpp"
#include "net/conduit.hpp"
#include "perf/benchmark.hpp"
#include "perf/runner.hpp"
#include "sim/sim.hpp"
#include "topo/machine.hpp"
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

/// The main() of a paper or ablation binary: parse the perf::Runner flags,
/// print the banner, run the selected cells once per repetition, then hand
/// the results to `report`.
inline int run_main(const char* suite, int argc, const char* const* argv,
                    const char* experiment, const char* paper_result,
                    const Report& report) {
  const perf::Runner runner(suite, argc, argv);
  banner(runner.human_out(), experiment, paper_result);
  return runner.main([&](const std::vector<perf::Result>& results) {
    return report(runner.human_out(), results);
  });
}

/// A flag of the binary's own: its name ("--vis") and the setter that
/// takes its value and throws std::invalid_argument on a bad one.
struct Flag {
  const char* name;
  std::function<void(const std::string&)> set;
};

/// run_main for a binary with flags of its own: consume `--flag=value` or
/// `--flag value` for each of `flags` before perf::Runner, which rejects
/// anything it does not know, parses the rest. A bad value exits 2.
inline int run_main(const char* suite, int argc, char** argv,
                    const std::vector<Flag>& flags, const char* experiment,
                    const char* paper_result, const Report& report) {
  std::vector<const char*> rest;
  try {
    for (int i = 0; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      const auto flag = std::ranges::find(flags, name, &Flag::name);
      if (flag == flags.end()) {
        rest.push_back(argv[i]);
      } else if (eq != std::string::npos) {
        flag->set(arg.substr(eq + 1));
      } else if (i + 1 < argc) {
        flag->set(argv[++i]);
      } else {
        throw std::invalid_argument(name + ": missing value");
      }
    }
  } catch (const std::exception& e) {
    std::cerr << suite << ": " << e.what() << '\n';
    return 2;
  }
  return run_main(suite, static_cast<int>(rest.size()), rest.data(),
                  experiment, paper_result, report);
}

/// Build a gas::Config for a named machine preset. `machine` must be
/// "pyramid" or "lehman"; `conduit` must be "" (the machine's default
/// network), "gige", "ib-qdr" or "ib-ddr". Anything else throws
/// std::invalid_argument — a typo must not silently measure the wrong
/// cluster.
inline gas::Config make_config(const std::string& machine, int nodes,
                               int threads,
                               gas::Backend backend = gas::Backend::processes,
                               const std::string& conduit = "") {
  gas::Config cfg;
  if (machine == "pyramid") {
    cfg.machine = topo::pyramid(nodes);
    cfg.conduit = net::ib_ddr();
  } else if (machine == "lehman") {
    cfg.machine = topo::lehman(nodes);
    cfg.conduit = net::ib_qdr();
  } else {
    throw std::invalid_argument("unknown machine preset '" + machine +
                                "' (expected pyramid|lehman)");
  }
  if (conduit == "gige") {
    cfg.conduit = net::gige();
  } else if (conduit == "ib-qdr") {
    cfg.conduit = net::ib_qdr();
  } else if (conduit == "ib-ddr") {
    cfg.conduit = net::ib_ddr();
  } else if (!conduit.empty()) {
    throw std::invalid_argument("unknown conduit '" + conduit +
                                "' (expected gige|ib-qdr|ib-ddr)");
  }
  cfg.threads = threads;
  cfg.backend = backend;
  return cfg;
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
