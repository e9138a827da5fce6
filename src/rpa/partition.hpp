// Column partition of the eigenvector block across ranks — SS III-D.
//
// The paper parallelizes ONLY across the n_eig eigenvector columns: each
// processor owns every row of its n_eig/p columns, making the Sternheimer
// stage embarrassingly parallel, at the cost of capping the block size at
// s <= n_eig / p. This helper produces the contiguous balanced partition
// and that cap.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace rsrpa::rpa {

class ColumnPartition {
 public:
  ColumnPartition(std::size_t n_cols, std::size_t n_ranks)
      : n_cols_(n_cols), n_ranks_(n_ranks) {
    RSRPA_REQUIRE_MSG(n_ranks >= 1 && n_ranks <= n_cols,
                      "paper constraint: p <= n_eig so no rank is empty");
  }

  [[nodiscard]] std::size_t n_cols() const { return n_cols_; }
  [[nodiscard]] std::size_t n_ranks() const { return n_ranks_; }

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

}  // namespace rsrpa::rpa
