#include "ruco/sim/certify.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "ruco/sim/parallel.h"
#include "ruco/sim/schedulers.h"
#include "ruco/util/rng.h"

namespace ruco::sim {

namespace {

/// Drives one crash schedule to completion: round-robin when `rng` is
/// null, uniformly random over active processes otherwise, every slot
/// mediated by the injector.  Fails fast the moment any survivor exceeds
/// `bound` own steps -- a blocked (spinning) survivor is caught after
/// bound+1 of its steps, not after the whole budget.  Returns "" on
/// success, else a diagnostic naming the offending process.
std::string drive(System& sys, FaultInjector& injector, std::uint64_t bound,
                  std::uint64_t budget, util::SplitMix64* rng) {
  std::uint64_t slots = 0;
  std::vector<ProcId> live = sys.active_set().members();
  std::size_t rr_next = 0;
  while (!live.empty() && slots < budget) {
    const std::size_t i =
        rng != nullptr ? static_cast<std::size_t>(rng->below(live.size()))
                       : rr_next % live.size();
    const ProcId p = live[i];
    const auto outcome = injector.step(p);
    ++slots;
    if (outcome == FaultInjector::Outcome::kStepped &&
        sys.steps_taken(p) > bound) {
      std::ostringstream diag;
      diag << 'p' << p << " exceeded the step bound (" << sys.steps_taken(p)
           << " > " << bound << " steps); not wait-free under crashes";
      return diag.str();
    }
    if (!sys.active(p)) {  // completed or crashed
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      if (rng == nullptr) rr_next = i;  // successor now sits at index i
    } else if (rng == nullptr) {
      rr_next = i + 1;
    }
  }
  if (!live.empty()) {
    std::ostringstream diag;
    diag << 'p' << live.front()
         << " still active after the schedule budget (blocked survivor)";
    return diag.str();
  }
  return {};
}

void record_survivors(const System& sys, std::uint64_t* worst) {
  for (ProcId p = 0; p < sys.num_processes(); ++p) {
    if (!sys.crashed(p)) *worst = std::max(*worst, sys.steps_taken(p));
  }
}

}  // namespace

WaitFreedomReport certify_wait_freedom(const Program& program,
                                       const WaitFreedomOptions& options) {
  WaitFreedomReport report;
  const std::size_t n = program.num_processes();

  // Fault-free calibration run: per-process baseline step counts, and the
  // auto step bound.
  std::vector<std::uint64_t> baseline(n, 0);
  {
    System sys{program};
    run_round_robin(sys, options.max_schedule_steps);
    if (!all_done(sys)) {
      report.certified = false;
      report.message = "program did not complete fault-free within the "
                       "schedule budget; nothing to certify";
      return report;
    }
    for (ProcId p = 0; p < n; ++p) baseline[p] = sys.steps_taken(p);
  }
  const std::uint64_t max_baseline =
      *std::max_element(baseline.begin(), baseline.end());
  report.step_bound = options.step_bound != 0
                          ? options.step_bound
                          : options.slack * std::max<std::uint64_t>(
                                                max_baseline, 1);

  // Build the full job list up front -- (1) the deterministic crash sweep
  // (every process, every own-step prefix), then (2) the seeded storms --
  // and run it through the ordered job pool.  Each job drives one fault
  // schedule on its own System, so jobs parallelize embarrassingly; the
  // pool's ascending-claim protocol keeps the report deterministic (the
  // recorded failure is the first job that would have failed sequentially,
  // and every job before it is guaranteed to have run).
  struct CrashJob {
    FaultPlan plan;
    bool storm = false;  // storms randomize the scheduler from plan.seed
    std::string label;
  };
  std::vector<CrashJob> jobs;
  for (ProcId p = 0; p < n; ++p) {
    const std::uint64_t limit =
        std::min(options.sweep_steps,
                 baseline[p] == 0 ? std::uint64_t{0} : baseline[p] - 1);
    for (std::uint64_t k = 0; k <= limit; ++k) {
      CrashJob job;
      job.plan.crash_at.push_back(
          CrashPoint{p, k, CrashPoint::Basis::kOwnSteps});
      std::ostringstream label;
      label << "sweep crash(p" << p << " after " << k << " steps)";
      job.label = label.str();
      jobs.push_back(std::move(job));
    }
  }
  const std::uint32_t quota = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      options.max_crashes, n > 0 ? n - 1 : 0));
  for (std::uint64_t seed = 1; seed <= options.storm_seeds; ++seed) {
    CrashJob job;
    job.plan.seed = seed;
    job.plan.max_random_crashes = quota;
    job.plan.crash_per_mille = options.crash_per_mille;
    job.storm = true;
    job.label = std::string{"storm seed "}.append(std::to_string(seed));
    jobs.push_back(std::move(job));
  }

  struct JobResult {
    bool ran = false;
    bool passed = false;
    std::string diag;
    std::uint64_t worst = 0;
  };
  std::vector<JobResult> results(jobs.size());
  // Heartbeat plumbing: one relaxed increment per schedule when requested,
  // serialized callback, nothing when on_progress is null.
  std::atomic<std::uint64_t> done{0};
  std::mutex progress_mu;
  const auto t0 = std::chrono::steady_clock::now();
  run_ordered_jobs(jobs.size(), options.jobs, [&](std::size_t i) {
    const CrashJob& job = jobs[i];
    System sys{program};
    FaultInjector injector{sys, job.plan};
    util::SplitMix64 sched_rng{job.plan.seed ^ 0x9e3779b97f4a7c15ULL};
    JobResult& r = results[i];
    r.diag = drive(sys, injector, report.step_bound,
                   options.max_schedule_steps,
                   job.storm ? &sched_rng : nullptr);
    record_survivors(sys, &r.worst);
    r.passed = r.diag.empty();
    r.ran = true;
    if (options.on_progress) {
      const std::uint64_t d = done.fetch_add(1, std::memory_order_relaxed) + 1;
      const std::uint64_t interval =
          std::max<std::uint64_t>(1, options.progress_interval);
      if (d % interval == 0 || d == jobs.size()) {
        CertifyProgress prog;
        prog.schedules_done = d;
        prog.schedules_total = jobs.size();
        prog.wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        prog.schedules_per_sec =
            prog.wall_ms > 0.0
                ? static_cast<double>(d) * 1e3 / prog.wall_ms
                : 0.0;
        std::lock_guard<std::mutex> lk{progress_mu};
        options.on_progress(prog);
      }
    }
    return r.passed;
  });

  // Sequential-equivalent merge: count schedules (and aggregate the worst
  // survivor) up to and including the first failure, exactly like the old
  // stop-at-first-failure loops.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!results[i].ran) break;
    ++report.schedules;
    report.worst_survivor_steps =
        std::max(report.worst_survivor_steps, results[i].worst);
    if (!results[i].passed) {
      report.certified = false;
      report.message = jobs[i].label + ": " + results[i].diag;
      break;
    }
  }
  return report;
}

}  // namespace ruco::sim
