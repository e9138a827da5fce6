#include "direct/direct_rpa.hpp"

#include "common/timer.hpp"
#include "rpa/nu_chi0.hpp"
#include "rpa/sweep.hpp"

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
  rpa::Sweep sweep;
  sweep.ell = ell;
  sweep.n_atoms = h.crystal().n_atoms();
  sweep.control = control;
  rpa::run_sweep(sweep, total, out, [&](int, rpa::OmegaRecord& rec) {
    rec.converged = true;
    rec.eigenvalues = nu_chi0_spectrum(eig, n_occ, rec.omega, klap, dv);
    // Ascending spectrum: the first n_keep entries are the most negative.
    if (n_keep != 0 && n_keep < rec.eigenvalues.size())
      rec.eigenvalues.resize(n_keep);
  });
  return out;
}

}  // namespace rsrpa::direct
