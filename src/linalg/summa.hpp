// Distributed dense matrix multiply (SUMMA) over 2-D blocked shared arrays
// and *overlapping* thread groups — the showcase for two thesis claims:
// multidimensional blocking composes with hierarchical parallelism
// (conclusion, future work), and thread groups "should be allowed to
// overlap with each other, therefore multiple hardware hierarchies could
// be exploited concurrently" (§3.2.1). Every thread belongs to one row
// team and one column team of the process grid simultaneously.
//
// C (m x n) += A (m x k) * B (k x n), all three distributed on a pr x pc
// process grid with one tile per thread (block sizes m/pr etc.). At step s
// the owners of A's s-th tile column broadcast along their row teams, the
// owners of B's s-th tile row broadcast along their column teams, and
// every thread multiplies its received pair into its local C tile.
#pragma once

#include <vector>

#include "core/team.hpp"
#include "gas/gas.hpp"
#include "sim/sim.hpp"

namespace hupc::linalg {

/// Process-grid description: THREADS = pr * pc, thread (i, j) = i * pc + j.
struct ProcessGrid {
  int pr = 1;
  int pc = 1;

  [[nodiscard]] int rank_of(int i, int j) const noexcept { return i * pc + j; }
  [[nodiscard]] int row_of(int rank) const noexcept { return rank / pc; }
  [[nodiscard]] int col_of(int rank) const noexcept { return rank % pc; }
};

class Summa {
 public:
  /// C = A * B with square tile distribution: A is (m x k), B (k x n),
  /// C (m x n); grid.pr must divide m and k, grid.pc must divide n and k.
  /// `vis` switches the panel exchange to VIS descriptor pulls: each rank
  /// fetches the step's A/B panels straight out of the owners' tiles with
  /// packed strided messages (column blocks of the tile) instead of the
  /// owner-load + team-broadcast pipeline. Panel contents — and therefore
  /// C — are bit-identical either way; only the modeled communication
  /// schedule changes.
  Summa(gas::Runtime& rt, ProcessGrid grid, std::size_t m, std::size_t n,
        std::size_t k, bool vis = false);

  /// Fill A and B deterministically (tests regenerate the same matrices).
  void fill(std::uint64_t seed);

  /// The SPMD kernel: run from every rank.
  [[nodiscard]] sim::Task<void> run(gas::Thread& self);

  /// Dense copies for verification (host-side).
  [[nodiscard]] std::vector<double> dense_a() const;
  [[nodiscard]] std::vector<double> dense_b() const;
  [[nodiscard]] std::vector<double> dense_c() const;

  [[nodiscard]] const ProcessGrid& grid() const noexcept { return grid_; }

 private:
  [[nodiscard]] double* tile_a(int i, int j) const;
  [[nodiscard]] double* tile_b(int i, int j) const;
  [[nodiscard]] double* tile_c(int i, int j) const;

  gas::Runtime* rt_;
  ProcessGrid grid_;
  bool vis_;
  std::size_t m_, n_, k_;
  std::size_t tm_, tn_, tk_;  // tile dims: m/pr, n/pc, k is tiled both ways
  gas::SharedArray2D<double> a_, b_, c_;
  // Filled by the constructor and never resized: running broadcasts hold
  // references into them.
  std::vector<core::Team> row_teams_, col_teams_;
  // Per-rank receive buffers for the broadcast panels.
  std::vector<gas::GlobalPtr<double>> panel_a_, panel_b_;
};

}  // namespace hupc::linalg
