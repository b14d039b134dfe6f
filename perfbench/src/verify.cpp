// The verification suite, as a verification user runs it: an exhaustive SC
// model check of Algorithm A's simulator program with every execution
// checked for linearizability, wait-freedom certification of the same
// program, then the weak-memory protocol kernels and mutation driver.
#include <algorithm>
#include <atomic>
#include <numeric>
#include <string>

#include "bench.h"
#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/specs.h"
#include "ruco/sim/certify.h"
#include "ruco/sim/model_checker.h"
#include "ruco/simalgos/programs.h"
#include "ruco/wmm/kernels.h"
#include "trace.h"

namespace perfbench {
namespace {

/// Processes of the checked program: two writers and a reader.
constexpr std::uint32_t kProgramProcs = 3;
/// Executions the POR-reduced exhaustive check of that program explores.
/// Pinned: a change to this count is a change to the engine's coverage.
constexpr std::uint64_t kExpectedExecutions = 135631;
/// Load-bearing memory-order sites the mutation driver must refute.
constexpr std::size_t kMutationSites = 14;

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace

VerifyPass run_verify_pass(bool traced, std::uint64_t parent_span) {
  VerifyPass pass;
  ScopedSpan span("verify.pass", Layer::kBench, parent_span);
  const auto fail = [&pass](bool ok, const std::string& what) {
    ++pass.attempted;
    if (ok) return;
    ++pass.failed;
    if (pass.failure.empty()) pass.failure = what;
  };

  const std::int64_t setup_start = now_ns();
  ruco::simalgos::MaxRegProgram bundle;
  {
    ScopedSpan build("simalgos.make_tree_maxreg_program", Layer::kSimalgos,
                     span.id());
    bundle = ruco::simalgos::make_tree_maxreg_program(kProgramProcs);
  }
  std::vector<ruco::wmm::Kernel> kernels;
  {
    ScopedSpan build("wmm.protocol_kernels", Layer::kWmm, span.id());
    kernels = ruco::wmm::protocol_kernels();
  }
  pass.setup_s = seconds_since(setup_start);

  const std::int64_t first_call = now_ns();
  {
    ScopedSpan mc_span("sim.model_check", Layer::kSim, span.id());
    const std::uint64_t mc_id = mc_span.id();
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::int64_t> busy_ns{0};
    const ruco::sim::Verdict verdict =
        [&](const ruco::sim::System& sys) -> std::string {
      const std::int64_t t0 = traced ? now_ns() : 0;
      const auto res = ruco::lincheck::check_linearizable(
          ruco::lincheck::from_sim_history(sys.history()),
          ruco::lincheck::MaxRegisterSpec{});
      if (traced) {
        const std::int64_t t1 = now_ns();
        trace::record("lincheck.check", Layer::kLincheck, trace::next_id(),
                      mc_id, t0, t1);
        busy_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
        calls.fetch_add(1, std::memory_order_relaxed);
      }
      if (!res.decided) return "undecided";
      return res.linearizable ? "" : "non-linearizable execution";
    };
    ruco::sim::ModelCheckOptions opts;
    opts.por = true;
    opts.jobs = kVerifyJobs;
    const auto mc = ruco::sim::model_check(bundle.program, verdict, opts);
    fail(mc.ok, "model check: " + mc.message);
    fail(mc.exhaustive, "model check was not exhaustive");
    fail(mc.executions == kExpectedExecutions,
         "model check explored " + std::to_string(mc.executions) +
             " executions, pinned " + std::to_string(kExpectedExecutions));
    const auto& st = mc.stats;
    pass.model_check_s = st.wall_ms * 1e-3;
    pass.executions = static_cast<double>(mc.executions);
    pass.nodes = static_cast<double>(st.nodes);
    pass.replayed_steps = static_cast<double>(st.replayed_steps);
    pass.replays = static_cast<double>(st.replays);
    pass.sleep_pruned = static_cast<double>(st.sleep_pruned);
    pass.frontier_roots = static_cast<double>(st.frontier_roots);
    pass.execs_per_s =
        pass.model_check_s > 0 ? pass.executions / pass.model_check_s : 0;
    if (!st.worker_executions.empty()) {
      const auto total = std::accumulate(st.worker_executions.begin(),
                                         st.worker_executions.end(),
                                         std::uint64_t{0});
      const auto most = *std::max_element(st.worker_executions.begin(),
                                          st.worker_executions.end());
      pass.worker_imbalance =
          total > 0 ? static_cast<double>(most) *
                          static_cast<double>(st.worker_executions.size()) /
                          static_cast<double>(total)
                    : 0;
    }
    pass.lincheck_calls = static_cast<double>(calls.load());
    pass.lincheck_busy_s = static_cast<double>(busy_ns.load()) * 1e-9;
    pass.lincheck_share =
        pass.model_check_s > 0
            ? pass.lincheck_busy_s / (pass.model_check_s * kVerifyJobs)
            : 0;
  }
  {
    ScopedSpan cert_span("sim.certify_wait_freedom", Layer::kSim, span.id());
    const std::int64_t t0 = now_ns();
    const auto report = ruco::sim::certify_wait_freedom(bundle.program);
    pass.certify_s = seconds_since(t0);
    pass.certify_schedules = static_cast<double>(report.schedules);
    fail(report.certified, "certify_wait_freedom: " + report.message);
  }
  {
    const std::int64_t t0 = now_ns();
    for (const auto& kernel : kernels) {
      ScopedSpan k_span(trace::intern("wmm." + kernel.name), Layer::kWmm,
                        span.id());
      const auto res = ruco::wmm::check_kernel(kernel);
      pass.wmm_executions += static_cast<double>(res.executions);
      fail(res.ok() && res.complete, "wmm kernel " + kernel.name +
                                         " violated at the shipped orders");
    }
    ScopedSpan m_span("wmm.mutation_driver", Layer::kWmm, span.id());
    const auto outcomes = ruco::wmm::run_mutation_driver();
    const auto refuted = std::count_if(
        outcomes.begin(), outcomes.end(),
        [](const ruco::wmm::MutationOutcome& m) { return m.found(); });
    fail(outcomes.size() == kMutationSites &&
             static_cast<std::size_t>(refuted) == kMutationSites,
         "wmm mutation driver refuted " + std::to_string(refuted) + " of " +
             std::to_string(outcomes.size()) + " sites, pinned " +
             std::to_string(kMutationSites));
    pass.wmm_check_s = seconds_since(t0);
  }
  pass.verdict_s = seconds_since(first_call);
  return pass;
}

}  // namespace perfbench
