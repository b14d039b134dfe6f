// Shared definitions of the benchmark: the workloads, and the results of
// one object phase and one verification pass.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Process slots every object is built with, and the fleet's size: the
/// workers use ProcIds 0..kWorkers-1, the way a thread registry hands
/// them out, one pinned to each CPU.
inline constexpr std::uint32_t kSlots = 64;
inline constexpr std::uint32_t kWorkers = 4;
/// One call in kSampleEvery is timed (per worker, by call index).
inline constexpr std::uint64_t kSampleEvery = 16;

/// One round of a workload: the three object phases (each on a fresh
/// object, per-worker op counts fixed), then `verify_passes` passes of the
/// verification suite.  A run repeats rounds until its seconds are spent.
struct Workload {
  std::string_view name;
  /// Share of object calls that are reads, in 1/1000.
  std::uint32_t read_per_mille = 0;
  std::uint64_t maxreg_ops = 0;    // per worker, per round
  std::uint64_t counter_ops = 0;
  std::uint64_t snapshot_ops = 0;
  std::uint32_t verify_passes = 0;
};

enum class Object : std::uint8_t { kMaxreg, kCounter, kSnapshot };
inline constexpr Object kObjects[] = {Object::kMaxreg, Object::kCounter,
                                      Object::kSnapshot};
[[nodiscard]] const char* object_name(Object o);

struct PhaseConfig {
  Object object = Object::kMaxreg;
  std::uint64_t ops_per_worker = 0;
  std::uint32_t read_per_mille = 0;
  std::uint64_t seed = 0;  // already mixed with round and object
  std::vector<int> cpus;   // worker w runs on cpus[w]
  bool traced = false;
  std::uint64_t parent_span = 0;
};

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty series.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// One object phase: object construction, fleet spawn and pinning,
/// warm-up, the timed closed loop, the output checks.  Counts are doubles
/// so the report can treat every field alike.
struct PhaseResult {
  std::uint64_t attempted = 0;  // calls made, warm-up and checks included
  std::uint64_t failed = 0;     // calls whose output check failed
  double updates = 0;           // update calls, warm-up included
  double ops_per_s = 0;         // window calls / window_s
  double window_s = 0;  // window start to the slowest worker's finish
  double setup_s = 0;   // phase start to window start
  double fleet_start_us = 0;
  double worker_skew = 0;
  double harness_overhead_us = 0;
  // Registry deltas over the whole phase.
  double cas_attempts = 0;
  double cas_failures = 0;
  double second_rounds = 0;
  double cas_skips = 0;
  double levels = 0;
  double root_fastpath = 0;
  // Traced rounds only: thread_steps() deltas around timed-loop calls.
  double update_steps = 0;
  double read_steps = 0;
  double stepped_updates = 0;
  double stepped_reads = 0;
  double heap_growth_bytes = 0;  // heap the object still holds at the end
  // Latency of the timed calls, in ns, and how many were timed.
  double update_p50_ns = 0;
  double update_p99_ns = 0;
  double read_p50_ns = 0;
  double read_p99_ns = 0;
  double update_samples = 0;
  double read_samples = 0;
  bool pinned = true;
};

[[nodiscard]] PhaseResult run_object_phase(const PhaseConfig& cfg);

/// One pass of the verification suite.
struct VerifyPass {
  std::uint64_t attempted = 0;  // verdicts requested
  std::uint64_t failed = 0;     // verdicts that did not come out as pinned
  std::string failure;          // first failure, for stderr
  double setup_s = 0;           // program and kernel construction
  double verdict_s = 0;         // first engine call to last verdict
  double model_check_s = 0;
  double executions = 0;
  double nodes = 0;
  double replayed_steps = 0;
  double replays = 0;
  double sleep_pruned = 0;
  double frontier_roots = 0;
  double execs_per_s = 0;
  double worker_imbalance = 0;
  double certify_s = 0;
  double certify_schedules = 0;
  double lincheck_calls = 0;   // traced rounds only
  double lincheck_busy_s = 0;  // traced rounds only
  double lincheck_share = 0;   // traced rounds only
  double wmm_check_s = 0;
  double wmm_executions = 0;
};

/// Model-checker worker threads in the verification suite.
inline constexpr std::uint32_t kVerifyJobs = 4;

[[nodiscard]] VerifyPass run_verify_pass(bool traced,
                                         std::uint64_t parent_span);

}  // namespace perfbench
