// rpaserved — the persistent multi-tenant RPA job daemon.
//
// Watches <root>/inbox for .rpa configs (the same key-value format
// rpacalc reads, plus PRIORITY / THREADS; see docs/REPRODUCING.md,
// "Running the job service") and runs them on
// the shared thread pool under per-job quotas. Higher-priority arrivals
// preempt running jobs at quadrature-point boundaries via the run
// checkpoint; every job's spool directory carries its status.json,
// checkpoint and report.json.
//
//   ./examples/rpaserved --root /tmp/rpa [--slots 2] [--quota 0]
//                        [--poll-ms 25] [--drain]
//
//   --slots    max concurrently running jobs              (default 2)
//   --quota    default per-job task quota; 0 = uncapped   (default 0)
//   --poll-ms  inbox/cancel poll period in milliseconds   (default 25)
//   --drain    exit once the queue is empty instead of serving forever
//
// SIGINT/SIGTERM shut the daemon down cleanly: running jobs are
// preempted at their next boundary and left `preempted` in the spool, so
// restarting rpaserved on the same root resumes them from their
// checkpoints. To cancel a job, `touch <root>/jobs/<id>/cancel`.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "svc/service.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

void usage() {
  std::fprintf(stderr,
               "usage: rpaserved --root <dir> [--slots N] [--quota N] "
               "[--poll-ms M] [--drain]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rsrpa;

  svc::ServiceOptions opts;
  bool drain = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc)
      opts.root = argv[++i];
    else if (std::strcmp(argv[i], "--slots") == 0 && i + 1 < argc)
      opts.slots = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--quota") == 0 && i + 1 < argc)
      opts.default_quota = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--poll-ms") == 0 && i + 1 < argc)
      opts.poll_ms = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--drain") == 0)
      drain = true;
    else {
      usage();
      return 2;
    }
  }
  if (opts.root.empty()) {
    usage();
    return 2;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  try {
    svc::JobService service(opts);
    std::printf("rpaserved: serving %s (slots %d, default quota %d)\n",
                opts.root.c_str(), opts.slots, opts.default_quota);
    if (drain) {
      // Process everything already spooled or arriving while we work,
      // then exit. Poll g_stop so a signal still wins over a long queue.
      while (g_stop == 0) {
        service.wait_idle();
        // One extra poll period: wait_idle can win the race against the
        // dispatcher ingesting a file that was already in the inbox.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(2 * opts.poll_ms));
        bool empty = true;
        for (const std::string& id : service.job_ids()) {
          const svc::JobState s = service.status(id).state;
          if (s == svc::JobState::kQueued || s == svc::JobState::kRunning ||
              s == svc::JobState::kPreempted)
            empty = false;
        }
        if (empty) break;
      }
      service.shutdown(/*preempt_running=*/false);
    } else {
      while (g_stop == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      std::printf("rpaserved: signal received, preempting running jobs\n");
      service.shutdown(/*preempt_running=*/true);
    }

    int done = 0, failed = 0;
    for (const std::string& id : service.job_ids()) {
      const svc::JobState s = service.status(id).state;
      if (s == svc::JobState::kDone) ++done;
      if (s == svc::JobState::kFailed) ++failed;
    }
    std::printf("rpaserved: exiting (%d done, %d failed, %d preemptions)\n",
                done, failed, service.preemption_count());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "rpaserved: %s\n", e.what());
    return 2;
  }
}
