#include "direct/direct_rpa.hpp"

#include "common/timer.hpp"
#include "rpa/nu_chi0.hpp"

namespace rsrpa::direct {

rpa::RpaResult compute_direct_rpa(const ham::Hamiltonian& h, std::size_t n_occ,
                                  const poisson::KroneckerLaplacian& klap,
                                  int ell, std::size_t n_keep,
                                  const rpa::RunControl* control) {
  rpa::RpaResult out;
  out.method = rpa::methods::kDirect;
  WallTimer total;

  WallTimer diag_timer;
  la::EigResult eig = full_diagonalization(h);
  out.timers.add(rpa::kernels::kDiagonalize, diag_timer.seconds());

  const double dv = h.grid().dv();
  const auto quad = rpa::rpa_frequency_quadrature(ell);
  for (int k = 0; k < ell; ++k) {
    rpa::check_run_control(control);
    const rpa::QuadPoint& q = quad[static_cast<std::size_t>(k)];
    WallTimer omega_timer;
    rpa::OmegaRecord rec;
    rec.omega = q.omega;
    rec.weight = q.weight;
    rec.converged = true;
    rec.eigenvalues = nu_chi0_spectrum(eig, n_occ, q.omega, klap, dv);
    // Ascending spectrum: the first n_keep entries are the most negative.
    if (n_keep != 0 && n_keep < rec.eigenvalues.size())
      rec.eigenvalues.resize(n_keep);
    rec.seconds = omega_timer.seconds();
    rpa::close_point(out, std::move(rec), k);
  }

  out.e_rpa_per_atom = out.e_rpa / static_cast<double>(h.crystal().n_atoms());
  out.total_seconds = total.seconds();
  return out;
}

}  // namespace rsrpa::direct
