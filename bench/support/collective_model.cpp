#include "support/collective_model.hpp"

#include <algorithm>
#include <cmath>

namespace rsrpa::par {

namespace {
double log2p(std::size_t p) {
  return p <= 1 ? 0.0 : std::log2(static_cast<double>(p));
}
}  // namespace

double CollectiveModel::allreduce(std::size_t bytes, std::size_t p) const {
  return log2p(p) * (alpha + static_cast<double>(bytes) * beta);
}

double CollectiveModel::redistribute(std::size_t n, std::size_t m,
                                     std::size_t p) const {
  if (p <= 1) return 0.0;
  const double local_bytes =
      8.0 * static_cast<double>(n) * static_cast<double>(m) /
      static_cast<double>(p);
  // All-to-all style exchange of (nearly) the whole local panel, with one
  // message per peer.
  return alpha * static_cast<double>(p - 1) +
         redistribution_fraction * local_bytes * beta;
}

double CollectiveModel::matmult_time(double t_seq, std::size_t n,
                                     std::size_t m, std::size_t p) const {
  if (p <= 1) return t_seq;
  const double compute = t_seq / static_cast<double>(p);
  // Two panels (V and AV) move to block-cyclic layout; the m x m Gram
  // results are combined with an allreduce.
  const double comm = 2.0 * redistribute(n, m, p) + allreduce(8 * m * m, p);
  return compute + comm;
}

double CollectiveModel::eigensolve_time(double t_seq, std::size_t m,
                                        std::size_t p) const {
  const std::size_t p_eff = std::min(p, eigensolve_saturation);
  const double compute = t_seq / static_cast<double>(p_eff);
  // Panel-factorization latency grows with both p and m.
  const double comm =
      log2p(p) * (static_cast<double>(m) * alpha + 8.0 * m * beta * 32.0);
  return compute + comm;
}

}  // namespace rsrpa::par
