#include "obs/run_report.hpp"

#include "common/parse.hpp"
#include "rpa/erpa_slq.hpp"

namespace rsrpa::obs {

Json to_json(const KernelTimers& timers) {
  Json j = Json::object();
  for (const auto& [name, seconds] : timers.entries()) j[name] = seconds;
  return j;
}

Json to_json(const sched::PoolStats& stats) {
  Json j = Json::object();
  j["threads"] = stats.threads;
  j["tasks"] = stats.tasks;
  j["steals"] = stats.steals;
  j["inline_tasks"] = stats.inline_tasks;
  j["busy_seconds"] = stats.busy_seconds;
  j["queue_seconds"] = stats.queue_seconds;
  Json busy = Json::array();
  for (double s : stats.worker_busy_seconds) busy.push_back(s);
  j["worker_busy_seconds"] = std::move(busy);
  Json tasks = Json::array();
  for (long t : stats.worker_tasks) tasks.push_back(t);
  j["worker_tasks"] = std::move(tasks);
  return j;
}

Json to_json(const solver::SolveReport& rep) {
  Json j = Json::object();
  j["iterations"] = rep.iterations;
  j["relative_residual"] = rep.relative_residual;
  j["converged"] = rep.converged;
  j["matvec_columns"] = rep.matvec_columns;
  if (rep.matvec_bytes > 0.0 || rep.matvec_flops > 0.0) {
    j["matvec_bytes"] = rep.matvec_bytes;
    j["matvec_flops"] = rep.matvec_flops;
  }
  if (!rep.history.empty()) {
    Json h = Json::array();
    for (double r : rep.history) h.push_back(r);
    j["history"] = std::move(h);
  }
  return j;
}

Json to_json(const solver::ChunkRecord& rec) {
  Json j = Json::object();
  j["block_size"] = rec.block_size;
  j["n_rhs"] = rec.n_rhs;
  j["iterations"] = rec.iterations;
  j["matvec_columns"] = rec.matvec_columns;
  j["seconds"] = rec.seconds;
  j["converged"] = rec.converged;
  j["fallback"] = rec.fallback;
  j["restarts"] = rec.restarts;
  j["deflations"] = rec.deflations;
  j["solver_swaps"] = rec.solver_swaps;
  j["quarantined"] = rec.quarantined;
  return j;
}

Json to_json(const solver::DynamicBlockReport& rep) {
  Json j = Json::object();
  j["total_matvec_columns"] = rep.total_matvec_columns;
  if (rep.total_matvec_bytes > 0.0 || rep.total_matvec_flops > 0.0) {
    j["total_matvec_bytes"] = rep.total_matvec_bytes;
    j["total_matvec_flops"] = rep.total_matvec_flops;
  }
  j["total_seconds"] = rep.total_seconds;
  j["all_converged"] = rep.all_converged;

  // Table IV histogram, computed inline from the chunks (identical to
  // DynamicBlockReport::block_size_counts(), kept here so rsrpa_obs does
  // not link against rsrpa_solver).
  std::map<int, int> counts;
  int fallbacks = 0;
  for (const solver::ChunkRecord& c : rep.chunks) {
    ++counts[c.block_size];
    if (c.fallback) ++fallbacks;
  }
  Json hist = Json::object();
  for (const auto& [size, count] : counts)
    hist[std::to_string(size)] = count;
  j["block_size_counts"] = std::move(hist);
  j["fallback_chunks"] = fallbacks;
  j["total_restarts"] = rep.total_restarts;
  j["total_deflations"] = rep.total_deflations;
  j["total_solver_swaps"] = rep.total_solver_swaps;
  Json quarantined = Json::array();
  for (long c : rep.quarantined_columns) quarantined.push_back(c);
  j["quarantined_columns"] = std::move(quarantined);

  Json chunks = Json::array();
  for (const solver::ChunkRecord& c : rep.chunks) chunks.push_back(to_json(c));
  j["chunks"] = std::move(chunks);
  return j;
}

Json to_json(const rpa::SternheimerStats& stats) {
  Json j = Json::object();
  Json hist = Json::object();
  for (const auto& [size, count] : stats.block_size_chunks)
    hist[std::to_string(size)] = count;
  j["block_size_chunks"] = std::move(hist);
  j["total_chunks"] = stats.total_chunks;
  j["matvec_columns"] = stats.matvec_columns;
  if (stats.matvec_columns_f32 > 0)
    j["matvec_columns_f32"] = stats.matvec_columns_f32;
  if (stats.matvec_bytes > 0.0 || stats.matvec_flops > 0.0) {
    j["matvec_bytes"] = stats.matvec_bytes;
    j["matvec_flops"] = stats.matvec_flops;
    if (stats.matvec_bytes > 0.0)
      j["arithmetic_intensity"] = stats.matvec_flops / stats.matvec_bytes;
  }
  j["seconds"] = stats.seconds;
  j["all_converged"] = stats.all_converged;
  j["restarts"] = stats.restarts;
  j["deflations"] = stats.deflations;
  j["solver_swaps"] = stats.solver_swaps;
  j["quarantined_columns"] = stats.quarantined_columns;
  if (!stats.quarantined_column_indices.empty()) {
    Json idx = Json::array();
    for (long c : stats.quarantined_column_indices) idx.push_back(c);
    j["quarantined_column_indices"] = std::move(idx);
  }
  return j;
}

Json to_json(const rpa::OmegaRecord& rec) {
  Json j = Json::object();
  j["omega"] = rec.omega;
  j["weight"] = rec.weight;
  j["e_term"] = rec.e_term;
  j["filter_iterations"] = rec.filter_iterations;
  j["error"] = rec.error;
  j["converged"] = rec.converged;
  j["seconds"] = rec.seconds;
  if (rec.invalid_terms > 0) {
    j["invalid_terms"] = rec.invalid_terms;
    j["worst_mu"] = rec.worst_mu;
  }
  if (rec.quarantined_columns > 0)
    j["quarantined_columns"] = rec.quarantined_columns;
  if (!rec.quarantined_column_indices.empty()) {
    Json idx = Json::array();
    for (long c : rec.quarantined_column_indices) idx.push_back(c);
    j["quarantined_column_indices"] = std::move(idx);
  }
  if (rec.matvec_bytes > 0.0 || rec.matvec_flops > 0.0) {
    j["matvec_bytes"] = rec.matvec_bytes;
    j["matvec_flops"] = rec.matvec_flops;
    if (rec.matvec_bytes > 0.0)
      j["arithmetic_intensity"] = rec.matvec_flops / rec.matvec_bytes;
  }
  // Static-subspace elision outcome: either flag implies the point was in
  // the frozen phase and carries its projection residual.
  if (rec.elided || rec.fallback) {
    j["elided"] = rec.elided;
    j["fallback"] = rec.fallback;
    j["projection_residual"] = rec.projection_residual;
  }
  if (rec.probes) {
    const rpa::ProbeStats& p = *rec.probes;
    j["n_probes"] = p.n_probes;
    j["lanczos_steps"] = p.lanczos_steps;
    j["probe_stddev"] = p.probe_stddev;
    j["ci_halfwidth"] = p.ci_halfwidth;
    j["rel_ci"] = p.rel_ci;
    j["matvec_columns"] = p.matvec_columns;
  }
  Json eig = Json::array();
  for (double mu : rec.eigenvalues) eig.push_back(mu);
  j["eigenvalues"] = std::move(eig);
  return j;
}

Json to_json(const rpa::RpaResult& res, const isdf::Compression* isdf) {
  Json j = Json::object();
  j["e_rpa"] = res.e_rpa;
  j["e_rpa_per_atom"] = res.e_rpa_per_atom;
  j["converged"] = res.converged;
  j["degraded"] = res.degraded;
  j["total_seconds"] = res.total_seconds;
  // Backend extras, each present only where its data is: the dense
  // backends' diagonalization, direct's bare trace terms, ISDF's
  // compression diagnostics, SLQ's total operator applies.
  if (res.timers.contains(rpa::kernels::kDiagonalize))
    j["diagonalization_seconds"] = res.timers.get(rpa::kernels::kDiagonalize);
  if (res.method == rpa::methods::kDirect) {
    Json terms = Json::array();
    for (const rpa::OmegaRecord& rec : res.per_omega)
      terms.push_back(rec.e_term);
    j["e_terms"] = std::move(terms);
  }
  if (isdf != nullptr) {
    j["nip"] = isdf->nip;
    j["n_eig"] = isdf->n_eig;
    j["fit_ridge"] = isdf->fit_ridge;
    if (!isdf->r_diag.empty())
      j["r_decay"] = isdf->r_diag.back() / isdf->r_diag.front();
    Json points = Json::array();
    for (std::size_t p : isdf->points) points.push_back(static_cast<long>(p));
    j["points"] = std::move(points);
  }
  if (res.method == rpa::methods::kSlq)
    j["matvec_columns"] = rpa::slq_matvec_columns(res);
  Json per_omega = Json::array();
  for (const rpa::OmegaRecord& rec : res.per_omega)
    per_omega.push_back(to_json(rec));
  j["per_omega"] = std::move(per_omega);
  if (res.method == rpa::methods::kSternheimer)
    j["sternheimer"] = to_json(res.stern);
  j["timers"] = to_json(res.timers);
  j["events"] = to_json(res.events);
  return j;
}

KernelTimers kernel_timers_from_json(const Json& j) {
  KernelTimers timers;
  for (const auto& [name, seconds] : j.as_object())
    timers.add(name, seconds.as_double());
  return timers;
}

rpa::SternheimerStats sternheimer_stats_from_json(const Json& j) {
  rpa::SternheimerStats stats;
  for (const auto& [size, count] : j.at("block_size_chunks").as_object()) {
    int block = 0;
    RSRPA_REQUIRE_MSG(parse_full_token(size, block) && block >= 1,
                      "block_size_chunks: bad block size '" + size + "'");
    stats.block_size_chunks[block] = static_cast<int>(count.as_int());
  }
  stats.total_chunks = j.at("total_chunks").as_int();
  stats.matvec_columns = j.at("matvec_columns").as_int();
  if (const Json* c32 = j.find("matvec_columns_f32"))
    stats.matvec_columns_f32 = c32->as_int();
  if (const Json* b = j.find("matvec_bytes")) stats.matvec_bytes = b->as_double();
  if (const Json* f = j.find("matvec_flops")) stats.matvec_flops = f->as_double();
  stats.seconds = j.at("seconds").as_double();
  stats.all_converged = j.at("all_converged").as_bool();
  stats.restarts = j.at("restarts").as_int();
  stats.deflations = j.at("deflations").as_int();
  stats.solver_swaps = j.at("solver_swaps").as_int();
  stats.quarantined_columns = j.at("quarantined_columns").as_int();
  if (const Json* idx = j.find("quarantined_column_indices"))
    for (const Json& c : idx->as_array())
      stats.quarantined_column_indices.push_back(c.as_int());
  return stats;
}

rpa::OmegaRecord omega_record_from_json(const Json& j) {
  rpa::OmegaRecord rec;
  rec.omega = j.at("omega").as_double();
  rec.weight = j.at("weight").as_double();
  rec.e_term = j.at("e_term").as_double();
  rec.filter_iterations = static_cast<int>(j.at("filter_iterations").as_int());
  rec.error = j.at("error").as_double();
  rec.converged = j.at("converged").as_bool();
  rec.seconds = j.at("seconds").as_double();
  if (const Json* n = j.find("invalid_terms")) {
    rec.invalid_terms = static_cast<int>(n->as_int());
    rec.worst_mu = j.at("worst_mu").as_double();
  }
  if (const Json* q = j.find("quarantined_columns"))
    rec.quarantined_columns = q->as_int();
  if (const Json* idx = j.find("quarantined_column_indices"))
    for (const Json& c : idx->as_array())
      rec.quarantined_column_indices.push_back(c.as_int());
  if (const Json* b = j.find("matvec_bytes")) rec.matvec_bytes = b->as_double();
  if (const Json* f = j.find("matvec_flops")) rec.matvec_flops = f->as_double();
  if (const Json* e = j.find("elided")) {
    rec.elided = e->as_bool();
    rec.fallback = j.at("fallback").as_bool();
    rec.projection_residual = j.at("projection_residual").as_double();
  }
  if (const Json* n = j.find("n_probes")) {
    rpa::ProbeStats& p = rec.probes.emplace();
    p.n_probes = static_cast<int>(n->as_int());
    p.lanczos_steps = static_cast<int>(j.at("lanczos_steps").as_int());
    p.probe_stddev = j.at("probe_stddev").as_double();
    p.ci_halfwidth = j.at("ci_halfwidth").as_double();
    p.rel_ci = j.at("rel_ci").as_double();
    p.matvec_columns = j.at("matvec_columns").as_int();
  }
  for (const Json& mu : j.at("eigenvalues").as_array())
    rec.eigenvalues.push_back(mu.as_double());
  return rec;
}

RunReport::RunReport(std::string name) : name_(std::move(name)) {
  root_ = Json::object();
  root_["schema"] = kRunReportSchema;
  root_["name"] = name_;
}

}  // namespace rsrpa::obs
