// Reproduces Fig 3.4: "NAS FT (class B) all-to-all communication
// performance with UPC runtime optimizations and hand optimizations on 4
// cluster nodes".
//   (a) % improvement over the plain process baseline for PSHM /
//       PSHM+cast / pthreads / pthreads+cast, blocking upc_memput,
//       4..64 threads;
//   (b) time split of the non-blocking variant (upc_memput_async issue vs
//       upc_waitsync) across the six runtime configurations.
//
// Paper shape: ~20-120% improvements that grow with threads/node (more
// intra-node pairs to optimize); manual cast == runtime PSHM/pthreads
// (automatic optimization is as good as hand optimization); with PSHM or
// pthreads the async calls complete locally and time shifts from the wait
// into the issue phase.
//
// Harnessed under src/perf: one cell per (mode, threads, runtime config),
// `alltoall.fig3_4.<blocking|async>.t<T>.<config>`, reporting the modeled
// exchange seconds (async: issue and wait). Every tier runs the whole
// figure.
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fft/ft_model.hpp"

namespace {

using namespace hupc;  // NOLINT

constexpr int kThreads[] = {4, 8, 16, 32, 64};

struct Variant {
  const char* tag;
  const char* name;
  gas::Backend backend;
  bool pshm;
  bool cast;  // manual memcpy replacement: cheaper per-call overhead
};

// (a): the plain process baseline first, then the four optimizations.
constexpr Variant kVariantsA[] = {
    {"proc", "base", gas::Backend::processes, false, false},
    {"pshm", "PSHM", gas::Backend::processes, true, false},
    {"pshm_cast", "PSHM + cast", gas::Backend::processes, true, true},
    {"pthr_pshm", "pthreads", gas::Backend::pthreads, true, false},
    {"pthr_pshm_cast", "pthreads + cast", gas::Backend::pthreads, true, true},
};
constexpr Variant kVariantsB[] = {
    {"pshm", "PSHM", gas::Backend::processes, true, false},
    {"pshm_cast", "PSHM+cast", gas::Backend::processes, true, true},
    {"proc", "base", gas::Backend::processes, false, false},
    {"pthr_pshm", "pthr+PSHM", gas::Backend::pthreads, true, false},
    {"pthr_pshm_cast", "pthr+PSHM+cast", gas::Backend::pthreads, true, true},
    {"pthr", "pthreads", gas::Backend::pthreads, false, false},
};

struct ExchangeTimes {
  double total = 0;  // blocking exchange
  double issue = 0;  // non-blocking: time in the launch_async issue calls
  double wait = 0;   // non-blocking: time in waitsync
};

ExchangeTimes run_exchange(const Variant& v, int threads, bool async) {
  sim::Engine engine;
  auto cfg = gas::preset_config("lehman", 4, threads, v.backend);
  cfg.pshm = v.pshm;
  if (v.cast) {
    // Hand optimization: castable destinations use plain memcpy — the
    // per-call runtime overhead drops to a bare libc call.
    cfg.shm_copy_overhead_s = 0.05e-6;
  }
  gas::Runtime rt(engine, cfg);
  const double chunk = fft::FtParams::class_b().total_bytes() /
                       (static_cast<double>(threads) * threads);
  ExchangeTimes times;
  rt.spmd([&rt, &times, chunk, async](gas::Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    auto& eng = rt.engine();
    const sim::Time start = eng.now();
    if (!async) {
      for (int step = 1; step < t.threads(); ++step) {
        const int peer = (t.rank() + step) % t.threads();
        co_await t.copy_raw(peer, nullptr, nullptr,
                            static_cast<std::size_t>(chunk));
      }
      co_await t.barrier();
      if (t.rank() == 0) times.total = sim::to_seconds(eng.now() - start);
    } else {
      sim::Time issued = 0;
      co_await bench::exchange_async(t, static_cast<std::size_t>(chunk),
                                     &issued);
      co_await t.barrier();
      if (t.rank() == 0) {
        times.issue = sim::to_seconds(issued - start);
        times.wait = sim::to_seconds(eng.now() - issued);
      }
    }
  });
  rt.run_to_completion();
  return times;
}

std::string cell_id(bool async, int threads, const Variant& v) {
  return std::string("alltoall.fig3_4.") + (async ? "async.t" : "blocking.t") +
         std::to_string(threads) + "." + v.tag;
}

void register_cells() {
  for (const bool async : {false, true}) {
    for (const int threads : kThreads) {
      for (const Variant& v : async ? std::span<const Variant>(kVariantsB)
                                    : std::span<const Variant>(kVariantsA)) {
        perf::Registry::instance().add(
            {.id = cell_id(async, threads, v),
             .fn = [async, threads, &v](perf::Context& ctx) {
               const ExchangeTimes t = run_exchange(v, threads, async);
               ctx.set_config("threads", std::to_string(threads));
               ctx.set_config("config", v.name);
               constexpr auto kLower = perf::Direction::lower_is_better;
               if (async) {
                 ctx.report("issue_s", t.issue, "s", kLower);
                 ctx.report("wait_s", t.wait, "s", kLower);
               } else {
                 ctx.report("seconds", t.total, "s", kLower);
               }
             }});
      }
    }
  }
}

int report(std::ostream& os, const std::vector<perf::Result>& results) {
  os << "\n(a) Blocking memput: improvement over process baseline\n";
  util::Table a({"Threads", "PSHM", "PSHM + cast", "pthreads",
                 "pthreads + cast"});
  for (const int threads : kThreads) {
    std::vector<std::string> row{std::to_string(threads)};
    std::vector<double> seconds;
    for (const Variant& v : kVariantsA) {
      const auto* r = bench::find_result(results, cell_id(false, threads, v));
      if (r == nullptr) break;
      seconds.push_back(r->median("seconds"));
    }
    if (seconds.size() != std::size(kVariantsA)) continue;
    for (std::size_t i = 1; i < seconds.size(); ++i) {
      row.push_back(util::Table::pct(seconds[0] / seconds[i] - 1.0, 1));
    }
    a.add_row(std::move(row));
  }
  a.print(os);

  os << "\n(b) Non-blocking memput: seconds in issue (async calls) and wait "
        "(upc_waitsync)\n";
  util::Table b({"Config", "Threads", "Issue (s)", "Wait (s)", "Total (s)"});
  for (const int threads : kThreads) {
    for (const Variant& v : kVariantsB) {
      const auto* r = bench::find_result(results, cell_id(true, threads, v));
      if (r == nullptr) continue;
      const double issue = r->median("issue_s");
      const double wait = r->median("wait_s");
      b.add_row({v.name, std::to_string(threads), util::Table::num(issue, 3),
                 util::Table::num(wait, 3), util::Table::num(issue + wait, 3)});
    }
  }
  b.print(os);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  register_cells();
  return bench::run_main("bench_fig_3_4_ft_alltoall", argc, argv,
                         "Fig 3.4 — FT class B all-to-all on 4 Lehman nodes",
                         "(a) PSHM/pthreads beat non-shared baseline by "
                         "~20-120%, manual cast == runtime optimization; (b) "
                         "async time split",
                         report);
}
