// Reproduces the NAS FT results of chapter 4 from one set of cells:
//   Fig 4.4 — per-step speedup, class B, 1..128 threads on 8 Lehman nodes:
//     compute steps scale ~linearly to 64, the all-to-all flattens past 16
//     threads (2 per node, once the NIC saturates), SMT kink at 128;
//   Fig 4.5 — split-phase comm time of MPI / UPC processes / UPC pthreads /
//     UPC x Threads on Lehman and Pyramid: no scaling past 2 threads/node;
//     at full subscription MPI < hybrid < pthreads < processes;
//   Fig 4.6 — pthreads and hybrids vs process UPC across UPC x subs
//     configurations and 8..128 threads: hybrids ~+10% at 64 and ~+30% at
//     128 (SMT), OpenMP > pool > Cilk++, 8*n configurations degrade, the
//     chapter-5 headline is x1.4.
//
// Harnessed under src/perf: one cell per distinct FT run,
// `ft.<machine>.n<N>.<exec>.u<U>.s<S>.<split|overlap>` (U UPC threads x S
// sub-threads), reporting modeled seconds per step; the figures share
// cells, 89 runs in all. Full tier: class B; smoke: class A. To trace Fig
// 4.4's 128-thread run use `hupc_bench --workload ft --machine lehman
// --nodes 8 --threads 128 --class B --trace=FILE`.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fft/ft_model.hpp"

namespace {

using namespace hupc;  // NOLINT

enum class Exec {
  mpi,            // MPI-Fortran analogue: tuned alltoall collective
  upc_processes,  // process backend, PSHM on
  upc_pthreads,   // pthreads backend (shared node connection)
  hybrid_openmp,  // UPC x OpenMP sub-threads
  hybrid_cilk,    // UPC x Cilk++
  hybrid_pool,    // UPC x in-house thread pool
};
constexpr const char* kExecTags[] = {"mpi",    "processes", "pthreads",
                                     "openmp", "cilk",      "pool"};

constexpr auto kSplit = fft::CommVariant::split_phase;
constexpr auto kOverlap = fft::CommVariant::overlap;

/// One FT run: `upc` UPC ranks x `subs` sub-threads each (0 for the
/// non-hybrid models) on `machine` restricted to `nodes` nodes.
struct FtKey {
  const char* machine;
  int nodes;
  Exec exec;
  int upc;
  int subs;
  fft::CommVariant variant;
};

/// A run on the 8 Lehman nodes of Figs 4.4 and 4.6.
FtKey lehman(Exec exec, int upc, int subs, fft::CommVariant variant) {
  return {"lehman", 8, exec, upc, subs, variant};
}

std::string cell_id(const FtKey& k) {
  return std::string("ft.") + k.machine + ".n" + std::to_string(k.nodes) +
         "." + kExecTags[static_cast<int>(k.exec)] + ".u" +
         std::to_string(k.upc) + ".s" + std::to_string(k.subs) +
         (k.variant == kSplit ? ".split" : ".overlap");
}

void run_cell(perf::Context& ctx, const FtKey& k) {
  sim::Engine engine;
  auto config = gas::preset_config(k.machine, k.nodes, k.upc,
                                   k.exec == Exec::upc_pthreads
                                       ? gas::Backend::pthreads
                                       : gas::Backend::processes);
  // The MPI library manages the node's endpoints cooperatively (tuned
  // collectives), so it does not pay the per-endpoint NIC contention the
  // independent GASNet process endpoints do.
  if (k.exec == Exec::mpi) config.nic_efficiency = 1.0;
  gas::Runtime rt(engine, config);

  fft::FtConfig cfg;
  cfg.grid = ctx.smoke() ? fft::FtParams::class_a() : fft::FtParams::class_b();
  cfg.variant = k.variant;
  cfg.comm = k.exec == Exec::mpi ? fft::FtComm::mpi_alltoall
                                 : fft::FtComm::upc_p2p;
  cfg.subs = k.subs;
  switch (k.exec) {
    case Exec::hybrid_openmp: cfg.sub_model = core::SubModel::openmp; break;
    case Exec::hybrid_cilk: cfg.sub_model = core::SubModel::cilk; break;
    case Exec::hybrid_pool: cfg.sub_model = core::SubModel::thread_pool; break;
    default: break;
  }
  fft::FtModel ft(rt, cfg);
  rt.spmd([&ft](gas::Thread& t) -> sim::Task<void> { co_await ft.run(t); });
  rt.run_to_completion();

  const fft::FtTimings m = ft.mean();
  ctx.set_config("machine", k.machine);
  ctx.set_config("nodes", std::to_string(k.nodes));
  ctx.set_config("exec", kExecTags[static_cast<int>(k.exec)]);
  ctx.set_config("upc_threads", std::to_string(k.upc));
  ctx.set_config("subs", std::to_string(k.subs));
  ctx.set_config("variant", k.variant == kSplit ? "split" : "overlap");
  ctx.set_config("class", cfg.grid.name);
  for (const auto& [step, seconds] :
       {std::pair{"total", m.total}, std::pair{"comm", m.comm},
        std::pair{"evolve", m.evolve}, std::pair{"transpose", m.transpose},
        std::pair{"fft2d", m.fft2d}, std::pair{"fft1d", m.fft1d}}) {
    ctx.report(step, seconds, "s", perf::Direction::lower_is_better);
  }
  ctx.report_trace_counters(engine.counters(), {"net.msg", "net.bytes"});
}

// The figures' rows. Registration and the formatters share them, so every
// cell a table reads is registered.

constexpr int kFig44Threads[] = {1, 2, 4, 8, 16, 32, 64, 128};

/// Fig 4.4 row: process UPC, split-phase then overlap.
std::vector<FtKey> fig_4_4_row(int threads) {
  return {lehman(Exec::upc_processes, threads, 0, kSplit),
          lehman(Exec::upc_processes, threads, 0, kOverlap)};
}

struct Platform {
  const char* machine;
  int nodes;
  std::vector<int> cores;
};
const Platform kPlatforms[] = {{"lehman", 8, {8, 16, 32, 64, 128}},
                               {"pyramid", 16, {16, 32, 64, 128}}};

/// Fig 4.5 row: MPI, UPC processes, UPC pthreads, hybrid.
std::vector<FtKey> fig_4_5_row(const Platform& p, int cores) {
  // Hybrid: two UPC masters per node (one per socket — the best-practice
  // binding of §4.3.2; a single master per node would be capped at one
  // endpoint's wire rate), subs fill the rest of the node's cores.
  const int masters = std::min(cores, 2 * p.nodes);
  const int subs = std::max(1, cores / masters);
  return {{p.machine, p.nodes, Exec::mpi, cores, 0, kSplit},
          {p.machine, p.nodes, Exec::upc_processes, cores, 0, kSplit},
          {p.machine, p.nodes, Exec::upc_pthreads, cores, 0, kSplit},
          {p.machine, p.nodes, Exec::hybrid_openmp, masters, subs, kSplit}};
}

struct HybridConfig {
  int upc;   // total UPC threads (over 8 nodes)
  int subs;  // sub-threads per UPC thread
};

// The paper's configuration axis: 8*1, 8*2, 16*1, 16*2, 32*1, 32*2, 64*1,
// 64*2 (total threads = upc * subs, 8 nodes).
constexpr HybridConfig kConfigs[] = {{8, 1},  {8, 2},  {16, 1}, {16, 2},
                                     {32, 1}, {32, 2}, {64, 1}, {64, 2}};

/// Fig 4.6 (a,b) row: the process-UPC reference, then each model at the
/// same total thread count (Cilk++ only in the split-phase table).
std::vector<FtKey> relative_row(const HybridConfig& c, fft::CommVariant v) {
  const int total = c.upc * c.subs;
  std::vector<FtKey> row{lehman(Exec::upc_processes, total, 0, v),
                         lehman(Exec::upc_pthreads, total, 0, v),
                         lehman(Exec::hybrid_openmp, c.upc, c.subs, v)};
  if (v == kSplit) row.push_back(lehman(Exec::hybrid_cilk, c.upc, c.subs, v));
  row.push_back(lehman(Exec::hybrid_pool, c.upc, c.subs, v));
  return row;
}

constexpr int kScaleThreads[] = {8, 16, 32, 64, 128};

/// Fig 4.6 (c,d) row: processes, pthreads, OpenMP and pool hybrids.
std::vector<FtKey> scalability_row(int total, fft::CommVariant v) {
  // Best-practice hybrid shape (Fig 4.6a): keep >= 2 masters per node so
  // no node is capped at a single endpoint's wire rate; pair each master
  // with 2 sub-threads once the node has cores to spare.
  const int masters = std::max(8, total / 2);
  const int subs = std::max(1, total / masters);
  return {lehman(Exec::upc_processes, total, 0, v),
          lehman(Exec::upc_pthreads, total, 0, v),
          lehman(Exec::hybrid_openmp, masters, subs, v),
          lehman(Exec::hybrid_pool, masters, subs, v)};
}

/// Chapter 5 headline: best hybrid vs process UPC at full subscription.
const std::vector<FtKey> kHeadline{
    lehman(Exec::upc_processes, 128, 0, kOverlap),
    lehman(Exec::hybrid_openmp, 64, 2, kOverlap)};

void register_cells() {
  std::set<std::string> seen;
  const auto add = [&seen](const std::vector<FtKey>& row) {
    for (const FtKey& k : row) {
      if (!seen.insert(cell_id(k)).second) continue;
      perf::Registry::instance().add(
          {.id = cell_id(k),
           .fn = [k](perf::Context& ctx) { run_cell(ctx, k); }});
    }
  };
  for (const int threads : kFig44Threads) add(fig_4_4_row(threads));
  for (const Platform& p : kPlatforms) {
    for (const int cores : p.cores) add(fig_4_5_row(p, cores));
  }
  for (const auto v : {kSplit, kOverlap}) {
    for (const HybridConfig& c : kConfigs) add(relative_row(c, v));
    for (const int total : kScaleThreads) add(scalability_row(total, v));
  }
  add(kHeadline);
}

using Results = std::vector<perf::Result>;

/// The cells of `row`, or none when the filter dropped any of them.
std::vector<const perf::Result*> cells(const Results& results,
                                       const std::vector<FtKey>& row) {
  std::vector<const perf::Result*> out;
  for (const FtKey& k : row) {
    out.push_back(bench::find_result(results, cell_id(k)));
    if (out.back() == nullptr) return {};
  }
  return out;
}

void report_fig_4_4(std::ostream& os, const Results& results) {
  const auto one = cells(results, fig_4_4_row(1));
  if (one.empty()) return;
  const perf::Result& base = *one[0];
  double base_comm = base.median("comm");
  util::Table table({"Threads", "Evolve", "Transpose", "FFT 2D", "FFT 1D",
                     "All-to-all (split)", "Comm hidden by overlap"});
  for (const int threads : kFig44Threads) {
    const auto c = cells(results, fig_4_4_row(threads));
    if (c.empty()) continue;
    const auto speedup = [](double b, double t) {
      return t <= 0 ? 0.0 : b / t;
    };
    std::vector<std::string> row{std::to_string(threads)};
    for (const char* step : {"evolve", "transpose", "fft2d", "fft1d"}) {
      row.push_back(util::Table::num(
          speedup(base.median(step), c[0]->median(step)), 1));
    }
    const double comm = c[0]->median("comm");
    // A single rank exchanges nothing; the all-to-all speedup column is
    // normalized to the 2-thread run at "speedup 2".
    if (threads == 2) base_comm = comm * 2.0;
    row.push_back(util::Table::num(speedup(base_comm, comm), 1));
    // How much of the exchange the overlap variant hides under compute:
    // ~100% while compute dominates, ~0% once the cores are saturated and
    // communication is exposed (the paper's motivation for more levels of
    // parallelism).
    row.push_back(comm <= 0.0 ? "n/a"
                              : util::Table::pct(
                                    std::max(0.0, 1.0 - c[1]->median("comm") /
                                                            comm),
                                    0));
    table.add_row(std::move(row));
  }
  table.print(os);
  os << "\n(speedup relative to 1 thread; class "
     << bench::config(base, "class") << ")\n";
}

void report_fig_4_5(std::ostream& os, const Results& results) {
  bench::banner(os, "Fig 4.5 — FT class B: time in communication calls",
                "no scaling past 2 threads/node; at full subscription "
                "MPI < hybrid < pthreads < processes");
  for (const Platform& p : kPlatforms) {
    os << "\n--- " << p.machine << " (" << p.nodes << " nodes) ---\n";
    util::Table table({"Cores", "MPI (s)", "UPC processes (s)",
                       "UPC pthreads (s)", "UPC*Threads hybrid (s)"});
    for (const int cores : p.cores) {
      const auto c = cells(results, fig_4_5_row(p, cores));
      if (c.empty()) continue;
      std::vector<std::string> row{std::to_string(cores)};
      for (const auto* r : c) {
        row.push_back(util::Table::num(r->median("comm"), 3));
      }
      table.add_row(std::move(row));
    }
    table.print(os);
  }
}

void relative_table(std::ostream& os, const Results& results,
                    const char* title, fft::CommVariant v) {
  os << '\n' << title << " — improvement over pure process UPC\n";
  std::vector<std::string> headers{"Config (UPC*subs)", "UPC pthreads",
                                   "UPC*OpenMP"};
  if (v == kSplit) headers.push_back("UPC*Cilk++");
  headers.push_back("UPC*Thread-Pool");
  util::Table table(std::move(headers));
  for (const HybridConfig& c : kConfigs) {
    const auto cs = cells(results, relative_row(c, v));
    if (cs.empty()) continue;
    std::vector<std::string> row{std::to_string(c.upc) + "*" +
                                 std::to_string(c.subs)};
    for (std::size_t i = 1; i < cs.size(); ++i) {
      row.push_back(util::Table::pct(
          cs[0]->median("total") / cs[i]->median("total") - 1.0, 1));
    }
    table.add_row(std::move(row));
  }
  table.print(os);
}

void scalability_table(std::ostream& os, const Results& results,
                       const char* title, fft::CommVariant v) {
  os << '\n' << title << " — total time (s) vs thread count\n";
  util::Table table({"Threads", "UPC processes", "UPC pthreads", "UPC*OpenMP",
                     "UPC*Thread-Pool"});
  for (const int total : kScaleThreads) {
    const auto c = cells(results, scalability_row(total, v));
    if (c.empty()) continue;
    std::vector<std::string> row{std::to_string(total)};
    for (const auto* r : c) {
      row.push_back(util::Table::num(r->median("total"), 2));
    }
    table.add_row(std::move(row));
  }
  table.print(os);
}

void report_fig_4_6(std::ostream& os, const Results& results) {
  bench::banner(os, "Fig 4.6 — NAS FT class B overall results, 8 Lehman nodes",
                "hybrids ~+10% @64, ~+30% @128 threads; OpenMP > pool > "
                "Cilk++; x1.4 headline at full SMT subscription");
  relative_table(os, results, "(a) Split-phase", kSplit);
  relative_table(os, results, "(b) Overlap", kOverlap);
  scalability_table(os, results, "(c) Split-phase scalability", kSplit);
  scalability_table(os, results, "(d) Overlap scalability", kOverlap);
  const auto c = cells(results, kHeadline);
  if (c.empty()) return;
  os << "\nHeadline: hybrid speedup over process UPC at 128 threads = "
     << util::Table::num(c[0]->median("total") / c[1]->median("total"), 2)
     << "x (paper: ~1.4x)\n";
}

}  // namespace

int main(int argc, char** argv) {
  register_cells();
  return bench::run_main(
      "bench_ft_hybrid", argc, argv,
      "Fig 4.4 — NAS FT per-step speedup, class B, 8 Lehman nodes",
      "compute steps ~linear to 64; all-to-all flat past 16 threads; SMT kink "
      "at 128",
      [](std::ostream& os, const Results& results) {
        report_fig_4_4(os, results);
        report_fig_4_5(os, results);
        report_fig_4_6(os, results);
        return 0;
      });
}
