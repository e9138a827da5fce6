#include "svc/service.hpp"

#include <algorithm>
#include <filesystem>

#include "obs/run_report.hpp"
#include "sched/thread_pool.hpp"
#include "svc/driver.hpp"

namespace fs = std::filesystem;

namespace rsrpa::svc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// pending_ order: strict priority first, FIFO (arrival seq) within one.
bool ahead(int pa, long sa, int pb, long sb) {
  if (pa != pb) return pa > pb;
  return sa < sb;
}

}  // namespace

JobService::JobService(ServiceOptions opts)
    : opts_(std::move(opts)), spool_(opts_.root) {
  RSRPA_REQUIRE_MSG(opts_.slots >= 1, "JobService needs at least one slot");
  RSRPA_REQUIRE_MSG(opts_.poll_ms >= 1, "poll_ms must be >= 1");

  // Crash recovery: a previous daemon's non-terminal jobs go back in the
  // queue, keeping their arrival order and counters. Runs that had
  // started resume from their per-point checkpoint; status.json is
  // atomic, so whatever state we read here is a state the old daemon
  // actually reached.
  std::vector<Job*> recovered;
  for (const std::string& id : spool_.list_jobs()) {
    if (!fs::exists(spool_.job_file(id))) continue;
    JobStatus st;
    if (spool_.has_status(id)) {
      st = spool_.read_status(id);
      if (st.state == JobState::kDone || st.state == JobState::kFailed ||
          st.state == JobState::kCancelled)
        continue;
    } else {
      // Crash between job-dir creation and the first status write: treat
      // as a fresh submission.
      st.id = id;
    }
    auto job = std::make_unique<Job>();
    job->status = st;
    try {
      job->spec = parse_job_file(spool_.job_file(id));
    } catch (const std::exception& e) {
      job->status.state = JobState::kFailed;
      job->status.error = e.what();
      spool_.write_status(job->status);
      jobs_.push_back(std::move(job));
      continue;
    }
    job->status.state = JobState::kQueued;
    job->status.priority = job->spec.priority;
    job->status.quota =
        job->spec.quota > 0 ? job->spec.quota : opts_.default_quota;
    job->enqueued_at = Clock::now();
    next_seq_ = std::max(next_seq_, job->status.seq + 1);
    spool_.write_status(job->status);
    recovered.push_back(job.get());
    jobs_.push_back(std::move(job));
  }
  std::sort(recovered.begin(), recovered.end(), [](Job* a, Job* b) {
    return ahead(a->status.priority, a->status.seq, b->status.priority,
                 b->status.seq);
  });
  pending_ = std::move(recovered);

  dispatcher_ = std::thread(&JobService::dispatcher_loop, this);
}

JobService::~JobService() { shutdown(true); }

std::string JobService::submit(const std::string& name,
                               const std::string& rpa_text) {
  std::unique_lock<std::mutex> lk(mu_);
  const std::string id = spool_.create_job(name, rpa_text);
  ingest_locked({id});
  cv_.notify_all();
  return id;
}

void JobService::cancel(const std::string& id) {
  std::unique_lock<std::mutex> lk(mu_);
  Job* job = find_locked(id);
  RSRPA_REQUIRE_MSG(job != nullptr, "cancel: unknown job " + id);
  if (job->status.state == JobState::kRunning) {
    job->control.request_cancel();
    return;
  }
  auto it = std::find(pending_.begin(), pending_.end(), job);
  if (it != pending_.end()) {
    pending_.erase(it);
    job->status.state = JobState::kCancelled;
    spool_.write_status(job->status);
    cv_.notify_all();
  }
}

void JobService::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return idle_locked(); });
}

void JobService::shutdown(bool preempt_running) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (shut_down_) return;
    shut_down_ = true;
    stop_ = true;
    if (preempt_running)
      for (const std::unique_ptr<Job>& job : jobs_)
        if (job->status.state == JobState::kRunning) {
          job->preempt_requested = true;
          job->control.request_preempt();
        }
    cv_.notify_all();
  }
  dispatcher_.join();
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return running_ == 0; });
  reap_locked();
  // Still-queued jobs stay `queued` in the spool: the next daemon on this
  // root picks them up.
  pending_.clear();
}

JobStatus JobService::status(const std::string& id) const {
  std::unique_lock<std::mutex> lk(mu_);
  const Job* job = find_locked(id);
  RSRPA_REQUIRE_MSG(job != nullptr, "status: unknown job " + id);
  return job->status;
}

std::vector<std::string> JobService::job_ids() const {
  std::unique_lock<std::mutex> lk(mu_);
  std::vector<std::string> ids;
  ids.reserve(jobs_.size());
  for (const std::unique_ptr<Job>& job : jobs_) ids.push_back(job->status.id);
  return ids;
}

int JobService::preemption_count() const {
  std::unique_lock<std::mutex> lk(mu_);
  return preemptions_total_;
}

void JobService::dispatcher_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    reap_locked();
    try {
      ingest_locked(spool_.poll_inbox());
    } catch (const std::exception&) {
      // A transient filesystem error while polling must not kill the
      // daemon; the next tick retries.
    }
    check_cancels_locked();
    schedule_locked();
    cv_.wait_for(lk, std::chrono::milliseconds(opts_.poll_ms));
  }
}

void JobService::reap_locked() {
  for (const std::unique_ptr<Job>& job : jobs_)
    if (job->thread_done && job->runner.joinable()) {
      job->runner.join();
      job->thread_done = false;
    }
}

void JobService::ingest_locked(const std::vector<std::string>& ids) {
  for (const std::string& id : ids) {
    auto job = std::make_unique<Job>();
    job->status.id = id;
    job->status.seq = next_seq_++;
    try {
      job->spec = parse_job_file(spool_.job_file(id));
    } catch (const std::exception& e) {
      job->status.state = JobState::kFailed;
      job->status.error = e.what();
      spool_.write_status(job->status);
      jobs_.push_back(std::move(job));
      continue;
    }
    job->status.state = JobState::kQueued;
    job->status.priority = job->spec.priority;
    job->status.quota =
        job->spec.quota > 0 ? job->spec.quota : opts_.default_quota;
    job->enqueued_at = Clock::now();
    spool_.write_status(job->status);
    Job* raw = job.get();
    jobs_.push_back(std::move(job));
    auto it = std::upper_bound(
        pending_.begin(), pending_.end(), raw, [](Job* a, Job* b) {
          return ahead(a->status.priority, a->status.seq,
                       b->status.priority, b->status.seq);
        });
    pending_.insert(it, raw);
  }
}

void JobService::check_cancels_locked() {
  for (const std::unique_ptr<Job>& up : jobs_) {
    Job* job = up.get();
    const JobState s = job->status.state;
    if (s == JobState::kDone || s == JobState::kFailed ||
        s == JobState::kCancelled)
      continue;
    if (!spool_.cancel_requested(job->status.id)) continue;
    if (s == JobState::kRunning) {
      job->control.request_cancel();
      continue;
    }
    auto it = std::find(pending_.begin(), pending_.end(), job);
    if (it != pending_.end()) {
      pending_.erase(it);
      job->status.state = JobState::kCancelled;
      spool_.write_status(job->status);
      cv_.notify_all();
    }
  }
}

void JobService::schedule_locked() {
  while (running_ < opts_.slots && !pending_.empty()) {
    Job* job = pending_.front();
    pending_.erase(pending_.begin());
    start_job_locked(*job);
  }
  if (pending_.empty()) return;

  // Every slot is busy and work is waiting: if the head of the queue
  // strictly outranks a running job, ask the lowest-ranked runner to
  // yield. The request lands at its next quadrature-point boundary — the
  // previous point's checkpoint is already durable there, so the victim
  // re-queues at zero lost work beyond the in-flight point.
  Job* head = pending_.front();
  Job* victim = nullptr;
  for (const std::unique_ptr<Job>& up : jobs_) {
    Job* job = up.get();
    if (job->status.state != JobState::kRunning || job->preempt_requested)
      continue;
    if (job->status.priority >= head->status.priority) continue;
    if (victim == nullptr || job->status.priority < victim->status.priority ||
        (job->status.priority == victim->status.priority &&
         job->status.seq > victim->status.seq))
      victim = job;
  }
  if (victim != nullptr) {
    victim->preempt_requested = true;
    victim->control.request_preempt();
  }
}

void JobService::start_job_locked(Job& job) {
  if (job.runner.joinable()) job.runner.join();  // a previous preempted run
  job.thread_done = false;
  job.preempt_requested = false;
  job.control.reset();
  job.status.state = JobState::kRunning;
  job.status.queue_seconds += seconds_since(job.enqueued_at);
  if (fs::exists(spool_.checkpoint_file(job.status.id))) ++job.status.resumes;
  spool_.write_status(job.status);
  ++running_;
  job.runner = std::thread(&JobService::run_job, this, std::ref(job));
}

void JobService::run_job(Job& job) {
  // Only spec and the immutable status fields (id, quota) are touched
  // without the lock; every mutable status field is written under mu_ in
  // the final block below.
  const Clock::time_point t0 = Clock::now();
  JobState final_state = JobState::kFailed;
  std::string error;
  DriverRun res;
  bool have_result = false;

  try {
    rpa::BuiltSystem sys = rpa::build_system(job.spec.preset);
    rpa::RpaOptions opts = job.spec.options;
    obs::EventLog ck_events;
    // Checkpoint/resume is a Sternheimer + SLQ capability; direct and
    // isdf ignore these fields and a preempted job of those methods
    // simply restarts from scratch when re-scheduled (see
    // svc/driver.hpp).
    opts.checkpoint.path = spool_.checkpoint_file(job.status.id);
    opts.checkpoint.resume = true;  // missing file starts fresh
    opts.checkpoint.events = &ck_events;
    opts.control = &job.control;
    // The job's share of the process-wide pool: a cap on in-flight tasks
    // inside every parallel region of this run. Captured by each
    // TaskGroup the run creates, so it follows the work, not the thread.
    sched::TaskQuotaScope quota(job.status.quota);
    res = run_driver(job.spec, sys, opts, &job.control);
    have_result = true;
    final_state = JobState::kDone;
  } catch (const rpa::RunPreempted&) {
    final_state = JobState::kPreempted;
  } catch (const rpa::RunCancelled&) {
    final_state = JobState::kCancelled;
  } catch (const std::exception& e) {
    error = e.what();
  }

  // The result endpoint: the same structured run report rpacalc-style
  // standalone runs produce, written before `done` becomes visible. The
  // Sternheimer payload keeps its historical "rpa" key; every method also
  // writes under its own name plus a "method" tag.
  if (have_result) {
    obs::RunReport report(job.status.id);
    report.set("method", method_name(res.method));
    if (res.method == Method::kSternheimer)
      report.set("rpa", res.report);
    else
      report.set(method_name(res.method), res.report);
    report.write(spool_.report_file(job.status.id));
  }

  const double run_secs = seconds_since(t0);
  std::unique_lock<std::mutex> lk(mu_);
  job.status.run_seconds += run_secs;
  job.status.state = final_state;
  if (final_state == JobState::kPreempted) {
    ++job.status.preemptions;
    ++preemptions_total_;
    job.enqueued_at = Clock::now();
    auto it = std::upper_bound(
        pending_.begin(), pending_.end(), &job, [](Job* a, Job* b) {
          return ahead(a->status.priority, a->status.seq,
                       b->status.priority, b->status.seq);
        });
    pending_.insert(it, &job);
  } else if (final_state == JobState::kDone) {
    job.status.e_rpa = res.rpa.e_rpa;
    job.status.converged = res.rpa.converged;
    job.status.degraded = res.rpa.degraded;
  } else if (final_state == JobState::kFailed) {
    job.status.error = error;
  }
  spool_.write_status(job.status);
  --running_;
  job.thread_done = true;
  cv_.notify_all();
}

bool JobService::idle_locked() const {
  return pending_.empty() && running_ == 0;
}

JobService::Job* JobService::find_locked(const std::string& id) const {
  for (const std::unique_ptr<Job>& job : jobs_)
    if (job->status.id == id) return job.get();
  return nullptr;
}

}  // namespace rsrpa::svc
