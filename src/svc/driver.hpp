// One entry point, four backends.
//
// run_driver maps a JobSpec's METHOD onto the matching E_RPA driver. All
// four return the same run record (rpa::RpaResult, tagged with its
// method), which DriverRun carries together with its run-report payload
// (obs::to_json of the record, plus ISDF's compression diagnostics).
// rpacalc and the job service both dispatch through here, so a config
// means the same thing standalone or submitted to a server.
//
// All four drivers run one quadrature sweep (rpa/sweep.hpp), which polls
// RunControl at every quadrature-point boundary, so cancel/preempt
// latency is one point for every method. Checkpoint/resume is a
// Sternheimer + SLQ capability (stern_opts's checkpoint policy is
// forwarded into the SLQ options here): direct and isdf hand the sweep
// no checkpoint policy and recompute from scratch, so service preemption
// of those jobs re-queues them at zero saved work (documented in
// DESIGN.md "Preemption boundaries").
#pragma once

#include "obs/run_report.hpp"
#include "rpa/presets.hpp"
#include "svc/job.hpp"

namespace rsrpa::svc {

struct DriverRun {
  Method method = Method::kSternheimer;
  /// The run record, whichever backend produced it.
  rpa::RpaResult rpa;
  /// The backend's run-report payload (obs::to_json of `rpa`). Written
  /// under the method-name key of the report file.
  obs::Json report;
  // Copies of rpa's fields, and a flag set only for the Sternheimer
  // method: kept because the perfbench/ harness (rpabench) reads them.
  double e_rpa_per_atom = 0.0;
  bool converged = true;
  bool degraded = false;
  bool has_rpa = false;
};

/// Run spec.method on the built system. `stern_opts` is the fully
/// resolved Sternheimer option set (checkpoint/control wired by the
/// caller); the non-Sternheimer backends take their options from `spec`
/// with `control` injected. Propagates RunCancelled/RunPreempted.
DriverRun run_driver(const JobSpec& spec, const rpa::BuiltSystem& sys,
                     const rpa::RpaOptions& stern_opts,
                     rpa::RunControl* control);

}  // namespace rsrpa::svc
