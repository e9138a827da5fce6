// Simulated ranks of the paper's SS III-D column partition, for the
// scaling benches (Figs. 4-6, Table IV) and the ranked tests.
//
// The paper parallelizes ONLY across the n_eig eigenvector columns: each
// processor owns every row of its n_eig/p columns, making the Sternheimer
// stage embarrassingly parallel, at the cost of capping the block size at
// s <= n_eig / p. run_ranked reproduces that on one machine: it installs
// an RpaOptions::apply_hook that splits every nu^{1/2} chi0 nu^{1/2}
// application into p contiguous column slices, runs them as concurrent
// tasks and times each rank's slices. The rest of the sweep is the plain
// driver.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "rpa/erpa.hpp"

namespace rsrpa::par {

/// The contiguous balanced partition of n_cols columns over n_ranks
/// ranks, and the paper's block-size cap.
class ColumnPartition {
 public:
  ColumnPartition(std::size_t n_cols, std::size_t n_ranks)
      : n_cols_(n_cols), n_ranks_(n_ranks) {
    RSRPA_REQUIRE_MSG(n_ranks >= 1 && n_ranks <= n_cols,
                      "p must be in [1, n_eig] (paper SS III-D: every rank "
                      "owns at least one eigenvector column); got p = " +
                          std::to_string(n_ranks) +
                          ", n_eig = " + std::to_string(n_cols));
  }

  /// First column owned by `rank`.
  [[nodiscard]] std::size_t begin(std::size_t rank) const {
    RSRPA_REQUIRE(rank < n_ranks_);
    const std::size_t base = n_cols_ / n_ranks_;
    const std::size_t extra = n_cols_ % n_ranks_;
    return rank * base + std::min(rank, extra);
  }

  /// Number of columns owned by `rank` (balanced to within one).
  [[nodiscard]] std::size_t count(std::size_t rank) const {
    RSRPA_REQUIRE(rank < n_ranks_);
    const std::size_t base = n_cols_ / n_ranks_;
    const std::size_t extra = n_cols_ % n_ranks_;
    return base + (rank < extra ? 1 : 0);
  }

  /// The paper's block size cap for this partition: s <= n_eig / p.
  [[nodiscard]] std::size_t max_block_size() const {
    return n_cols_ / n_ranks_;
  }

 private:
  std::size_t n_cols_;
  std::size_t n_ranks_;
};

/// A run over p simulated ranks: the driver's result plus each rank's
/// measured apply seconds, and the n_d x n_eig panel shape the collective
/// model (support/kernel_breakdown.hpp) needs.
struct RankedRun {
  rpa::RpaResult result;
  /// Rank r's wall seconds in its column slices of every filter,
  /// Rayleigh-Ritz and SSA application made by this call (a resumed run
  /// counts only the points it ran).
  std::vector<double> apply_seconds;
  std::size_t panel_rows = 0;  ///< n_d
  std::size_t panel_cols = 0;  ///< n_eig
};

/// compute_rpa_energy on p simulated ranks, p in [1, n_eig]. Caps
/// opts.stern.max_block at n_eig / p and installs the column-sliced apply:
/// each rank's slice runs as a task under a quota of max(1, lanes / p)
/// lanes (capped by any outer quota), and the slices' Sternheimer stats
/// and events merge in slice order after the join. So the result is the
/// same bits at any lane count, and with one column per Sternheimer solve
/// (stern.fixed_block = 1) it equals the plain driver's bitwise.
RankedRun run_ranked(const dft::KsSystem& sys,
                     const poisson::KroneckerLaplacian& klap,
                     rpa::RpaOptions opts, std::size_t p);

}  // namespace rsrpa::par
