#include "support/cg_poisson.hpp"

#include <cmath>
#include <vector>

#include "la/blas.hpp"

namespace rsrpa::poisson {

namespace {
void project_out_mean(std::span<double> x) {
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(x.size());
  for (double& v : x) v -= mean;
}
}  // namespace

PoissonCgReport solve_poisson_cg(const grid::StencilLaplacian& lap,
                                 std::span<const double> rho,
                                 std::span<double> phi, double tol,
                                 int max_iter) {
  const std::size_t n = rho.size();
  RSRPA_REQUIRE(phi.size() == n && n == lap.grid().size());

  std::vector<double> b(rho.begin(), rho.end());
  for (double& v : b) v *= 4.0 * M_PI;
  project_out_mean(b);

  std::fill(phi.begin(), phi.end(), 0.0);
  std::vector<double> r = b;  // residual for x = 0
  std::vector<double> p = r;
  std::vector<double> ap(n);

  const double bnorm = la::nrm2(std::span<const double>(b));
  PoissonCgReport rep;
  if (bnorm == 0.0) {
    rep.converged = true;
    return rep;
  }

  double rho_old = la::dot(r, r);
  for (int it = 0; it < max_iter; ++it) {
    // ap = -L p (negated stencil apply keeps the operator SPD on the
    // mean-free subspace).
    lap.apply<double>(p, ap);
    for (double& v : ap) v = -v;
    const double alpha = rho_old / la::dot(p, ap);
    la::axpy(alpha, p, phi);
    la::axpy(-alpha, ap, r);
    const double rnorm = la::nrm2(std::span<const double>(r));
    rep.iterations = it + 1;
    rep.relative_residual = rnorm / bnorm;
    if (rep.relative_residual <= tol) {
      rep.converged = true;
      break;
    }
    const double rho_new = la::dot(r, r);
    const double beta = rho_new / rho_old;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    rho_old = rho_new;
  }
  project_out_mean(phi);
  return rep;
}

}  // namespace rsrpa::poisson
