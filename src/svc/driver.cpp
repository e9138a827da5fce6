#include "svc/driver.hpp"

#include "direct/direct_rpa.hpp"
#include "isdf/erpa_isdf.hpp"
#include "rpa/erpa.hpp"
#include "rpa/erpa_slq.hpp"

namespace rsrpa::svc {

DriverRun run_driver(const JobSpec& spec, const rpa::BuiltSystem& sys,
                     const rpa::RpaOptions& stern_opts,
                     rpa::RunControl* control) {
  DriverRun out;
  out.method = spec.method;
  isdf::Compression compression;

  switch (spec.method) {
    case Method::kSternheimer:
      out.rpa = rpa::compute_rpa_energy(sys.ks, *sys.klap, stern_opts);
      break;
    case Method::kDirect:
      out.rpa = direct::compute_direct_rpa(*sys.ks.h, sys.ks.n_occ(),
                                           *sys.klap, stern_opts.ell,
                                           spec.direct_n_keep, control);
      break;
    case Method::kIsdf: {
      isdf::IsdfRpaOptions opts = spec.isdf;
      opts.control = control;
      out.rpa = isdf::compute_rpa_energy_isdf(sys.ks, *sys.klap, opts,
                                              &compression);
      break;
    }
    case Method::kSlq: {
      rpa::SlqRpaOptions opts = spec.slq;
      opts.control = control;
      // The caller resolves the checkpoint policy onto stern_opts for
      // every method (rpacalc from the config, the service from the
      // job's spool directory); the SLQ driver checkpoints too, so
      // forward it.
      opts.checkpoint = stern_opts.checkpoint;
      out.rpa = rpa::compute_rpa_energy_slq(sys.ks, *sys.klap, opts);
      break;
    }
  }
  out.report = obs::to_json(
      out.rpa, spec.method == Method::kIsdf ? &compression : nullptr);
  out.e_rpa_per_atom = out.rpa.e_rpa_per_atom;
  out.converged = out.rpa.converged;
  out.degraded = out.rpa.degraded;
  out.has_rpa = spec.method == Method::kSternheimer;
  return out;
}

}  // namespace rsrpa::svc
