// Telemetry subsystem tests: the fixed metric table (every harness key
// present, per-thread slabs summed), Perfetto timeline structural
// validation for both a simulated Algorithm A execution and a real
// 4-thread hardware run, contention accounting from sim traces, and the
// determinism contract: model-checker executions and prune counts
// are byte-identical with and without the telemetry heartbeat installed.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "ruco/farray/farray.h"
#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/specs.h"
#include "ruco/maxreg/tree_max_register.h"
#include "ruco/runtime/thread_harness.h"
#include "ruco/sim/model_checker.h"
#include "ruco/sim/schedulers.h"
#include "ruco/sim/system.h"
#include "ruco/simalgos/programs.h"
#include "ruco/telemetry/registry.h"
#include "ruco/telemetry/sim_export.h"
#include "ruco/telemetry/timeline.h"

namespace ruco::telemetry {
namespace {

// ------------------------------------------------------------- registry

// Every (domain, name) a harness reads, spelled as the harnesses spell
// them: a missing key reads as 0 there, so it must never be missing.
// ctest runs each case in its own process, so this sees the table before
// any object has counted anything.
TEST(Registry, EveryHarnessMetricExistsFromProcessStart) {
  const auto snap = Registry::global().snapshot();
  const std::pair<const char*, const char*> read_by_harnesses[] = {
      // bench_hw_throughput
      {"maxreg", "cas_attempts"},
      {"maxreg", "cas_failures"},
      {"maxreg", "propagate_cas_attempts"},
      {"maxreg", "propagate_cas_failures"},
      // perfbench
      {"maxreg", "propagate_cas_skips"},
      {"maxreg", "propagate_second_rounds"},
      {"maxreg", "propagate_levels"},
      {"maxreg", "tree_root_fastpath"},
      {"runtime", "harness_wall_us"},
      {"runtime", "harness_body_us"},
  };
  for (const auto& [domain, name] : read_by_harnesses) {
    EXPECT_NE(snap.find(domain, name), nullptr) << domain << "/" << name;
  }
  EXPECT_EQ(snap.find("maxreg", "no_such_metric"), nullptr);
}

#ifndef RUCO_NO_TELEMETRY

TEST(Registry, CounterAccumulatesAcrossThreads) {
  // Delta-based: the global table is shared with everything else that
  // counts in this process.  The workers snapshot while they count, so
  // slab creation races snapshot() (the table's one shared structure).
  const auto value = [] {
    return Registry::global().snapshot().find("maxreg", "cas_attempts")->value;
  };
  const std::uint64_t before = value();
  runtime::run_threads(4, [&](std::size_t t) {
    for (int i = 0; i < 1000; ++i) {
      if (i == 0 || (t == 0 && i % 100 == 0)) (void)value();
      add(Metric::kCasAttempts, 1);
    }
  });
  EXPECT_EQ(value(), before + 4000);
}

TEST(ProdMetrics, GlobalHandlesAreWired) {
  // Each Metric must count into its own kMetricNames key of the global
  // table and into no other (delta-based, as above).
  for (std::size_t i = 0; i < kNumMetrics; ++i) {
    const auto before = Registry::global().snapshot();
    add(static_cast<Metric>(i), 5);
    const auto after = Registry::global().snapshot();
    for (std::size_t j = 0; j < kNumMetrics; ++j) {
      const MetricSnapshot* m = after.find(kMetricNames[j].domain,
                                           kMetricNames[j].name);
      ASSERT_NE(m, nullptr);
      EXPECT_EQ(m->value, before.metrics[j].value + (i == j ? 5 : 0))
          << "add(metric " << i << ") vs " << kMetricNames[j].domain << "/"
          << kMetricNames[j].name;
    }
  }
}

// ------------------------------------------- propagation CAS accounting
//
// propagate_cas_attempts must count CASes actually issued, not 2 per
// level unconditionally.

std::uint64_t maxreg_metric(const char* name) {
  const auto snap = Registry::global().snapshot();
  const MetricSnapshot* m = snap.find("maxreg", name);
  return m == nullptr ? 0 : m->value;
}

TEST(PropagateAccounting, SoloTreeWriteIssuesOneCasPerLevel) {
  maxreg::TreeMaxRegister r{16};
  const std::uint64_t attempts = maxreg_metric("propagate_cas_attempts");
  const std::uint64_t failures = maxreg_metric("propagate_cas_failures");
  const std::uint64_t seconds = maxreg_metric("propagate_second_rounds");
  const std::uint64_t skips = maxreg_metric("propagate_cas_skips");
  r.write_max(0, 1);  // B1 leaf at depth 4
  // Solo every first-round CAS wins: exactly one CAS per level, no second
  // rounds, no failures, no skips.
  EXPECT_EQ(maxreg_metric("propagate_cas_attempts"), attempts + 4);
  EXPECT_EQ(maxreg_metric("propagate_cas_failures"), failures);
  EXPECT_EQ(maxreg_metric("propagate_second_rounds"), seconds);
  EXPECT_EQ(maxreg_metric("propagate_cas_skips"), skips);
}

TEST(PropagateAccounting, NoChangeRefreshSkipsEveryCas) {
  farray::SumFArray a{8, 0};  // 3 levels
  a.update(0, 5);
  const std::uint64_t attempts = maxreg_metric("propagate_cas_attempts");
  const std::uint64_t skips = maxreg_metric("propagate_cas_skips");
  a.update(0, 5);  // aggregate unchanged at every path node
  EXPECT_EQ(maxreg_metric("propagate_cas_attempts"), attempts);
  EXPECT_EQ(maxreg_metric("propagate_cas_skips"), skips + 3);
}

TEST(PropagateAccounting, RootFastPathCounted) {
  maxreg::TreeMaxRegister r{16};
  r.write_max(0, 5);
  const std::uint64_t fast = maxreg_metric("tree_root_fastpath");
  r.write_max(1, 5);  // root already covers 5
  EXPECT_EQ(maxreg_metric("tree_root_fastpath"), fast + 1);
}

#endif  // RUCO_NO_TELEMETRY

// ------------------------------------------------------------- timeline

TEST(Timeline, SimAlgorithmATraceValidates) {
  auto bundle = simalgos::make_tree_maxreg_program(4);
  sim::System sys{bundle.program};
  sim::run_random(sys, /*seed=*/7, /*max_steps=*/10'000);
  TimelineWriter tl;
  sim_timeline(sys, tl);
  EXPECT_EQ(tl.validate(), "") << tl.validate();
  const std::string json = tl.json();
  // One named track per process, plus the named simulator process.
  EXPECT_NE(json.find("\"simulator\""), std::string::npos);
  for (std::uint32_t p = 0; p < sys.num_processes(); ++p) {
    EXPECT_NE(json.find("\"P" + std::to_string(p) + "\""), std::string::npos)
        << "missing track for process " << p;
  }
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(Timeline, CrashedSimRunStillValidates) {
  auto bundle = simalgos::make_tree_maxreg_program(3);
  sim::System sys{bundle.program};
  sys.step(0);
  sys.crash(0);
  sim::run_random(sys, /*seed=*/11, /*max_steps=*/10'000);
  TimelineWriter tl;
  sim_timeline(sys, tl);
  EXPECT_EQ(tl.validate(), "") << tl.validate();
  EXPECT_NE(tl.json().find("crash"), std::string::npos);
}

TEST(Timeline, ValidateRejectsUnbalancedSlices) {
  TimelineWriter tl;
  tl.set_process_name(1, "p");
  tl.set_thread_name(1, 1, "t");
  tl.begin(1, 1, "open", 10);
  EXPECT_NE(tl.validate(), "");  // unclosed B
}

TEST(Timeline, ValidateRejectsNonMonotoneTimestamps) {
  TimelineWriter tl;
  tl.set_process_name(1, "p");
  tl.set_thread_name(1, 1, "t");
  tl.complete(1, 1, "late", 100, 5);
  tl.complete(1, 1, "early", 50, 5);
  EXPECT_NE(tl.validate(), "");
}

TEST(Timeline, FourThreadHardwareRunValidates) {
  constexpr std::size_t kThreads = 4;
  OpRecorder rec{kThreads, /*capacity_per_thread=*/256};
  const std::uint32_t op = rec.intern("work");
  runtime::run_threads(kThreads, [&](std::size_t tid) {
    std::uint64_t ts = 0;
    for (int i = 0; i < 100; ++i) {
      rec.record(tid, op, ts, 2);
      ts += 3;  // strictly forward per thread
    }
  });
  EXPECT_EQ(rec.dropped(), 0u);
  TimelineWriter tl;
  rec.export_to(tl, /*pid=*/1, "hw-bench");
  EXPECT_EQ(tl.validate(), "") << tl.validate();
  const std::string json = tl.json();
  EXPECT_NE(json.find("\"hw-bench\""), std::string::npos);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_NE(json.find("thread " + std::to_string(t)), std::string::npos);
  }
}

TEST(Timeline, OpRecorderDropsOnFullLaneAndCounts) {
  OpRecorder rec{1, /*capacity_per_thread=*/2};
  const std::uint32_t op = rec.intern("x");
  rec.record(0, op, 0, 1);
  rec.record(0, op, 2, 1);
  rec.record(0, op, 4, 1);  // lane full
  EXPECT_EQ(rec.dropped(), 1u);
}

// ----------------------------------------------------------- contention

TEST(Contention, ReportMatchesTrace) {
  auto bundle = simalgos::make_cas_maxreg_program(3);
  sim::System sys{bundle.program};
  sim::run_random(sys, /*seed=*/5, /*max_steps=*/10'000);
  const auto report = contention_report(sys);
  EXPECT_EQ(report.total_steps, sys.trace().size());
  std::uint64_t per_obj = 0;
  for (const auto& o : report.objects) per_obj += o.total();
  EXPECT_EQ(per_obj, sys.trace().size());
  std::uint64_t per_proc = 0;
  for (const auto& p : report.procs) per_proc += p.steps;
  EXPECT_EQ(per_proc, sys.trace().size());
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"objects\""), std::string::npos);
  EXPECT_NE(json.find("\"processes\""), std::string::npos);
}

// -------------------------------------------- model-checker determinism

std::string maxreg_verdict(const sim::System& sys) {
  const auto res = lincheck::check_linearizable(
      lincheck::from_sim_history(sys.history()),
      lincheck::MaxRegisterSpec{});
  if (!res.decided) return "undecided";
  return res.linearizable ? "" : "non-linearizable execution";
}

TEST(ModelCheckTelemetry, HeartbeatDoesNotPerturbExploration) {
  // tree k=2 / cas k=3: small enough for exhaustive exploration (the full
  // tree k=3 space is out of unit-test reach; see por_test's sizes).
  auto bundle = simalgos::make_cas_maxreg_program(3);
  for (const std::uint32_t jobs : {1u, 2u}) {
    for (const bool por : {false, true}) {
      sim::ModelCheckOptions base;
      base.jobs = jobs;
      base.por = por;
      const auto plain =
          sim::model_check(bundle.program, maxreg_verdict, base);

      std::atomic<std::uint64_t> beats{0};
      sim::ModelCheckTelemetry tel;
      tel.interval_executions = 8;
      tel.on_progress = [&](const sim::ModelCheckProgress& p) {
        beats.fetch_add(1);
        EXPECT_GT(p.executions, 0u);
      };
      sim::ModelCheckOptions instrumented = base;
      instrumented.telemetry = &tel;
      const auto traced =
          sim::model_check(bundle.program, maxreg_verdict, instrumented);

      EXPECT_EQ(plain.ok, traced.ok);
      EXPECT_EQ(plain.executions, traced.executions)
          << "jobs=" << jobs << " por=" << por;
      EXPECT_EQ(plain.stats.sleep_pruned, traced.stats.sleep_pruned);
      EXPECT_EQ(plain.stats.persistent_pruned,
                traced.stats.persistent_pruned);
      EXPECT_EQ(plain.stats.depth_hist, traced.stats.depth_hist);
      EXPECT_GT(beats.load(), 0u);
    }
  }
}

TEST(ModelCheckTelemetry, DepthHistogramCountsEveryExecution) {
  auto bundle = simalgos::make_cas_maxreg_program(3);
  const auto res = sim::model_check(bundle.program, maxreg_verdict,
                                    sim::ModelCheckOptions{});
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.stats.depth_hist.size(),
            sim::ModelCheckStats::kDepthBuckets + 1);
  std::uint64_t total = 0;
  for (const std::uint64_t c : res.stats.depth_hist) total += c;
  EXPECT_EQ(total, res.executions);
  ASSERT_EQ(res.stats.worker_executions.size(), 1u);
  EXPECT_EQ(res.stats.worker_executions[0], res.executions);
}

TEST(ModelCheckTelemetry, DepthHistogramDeterministicAcrossRuns) {
  auto bundle = simalgos::make_tree_maxreg_program(2);
  const auto a = sim::model_check(bundle.program, maxreg_verdict,
                                  sim::ModelCheckOptions{});
  const auto b = sim::model_check(bundle.program, maxreg_verdict,
                                  sim::ModelCheckOptions{});
  EXPECT_EQ(a.stats.depth_hist, b.stats.depth_hist);
}

// -------------------------------------------------------- decision log

TEST(DecisionLog, RecordsOnlyWhenEnabled) {
  auto bundle = simalgos::make_tree_maxreg_program(3);
  sim::System sys{bundle.program};
  sys.step(0);
  EXPECT_TRUE(sys.decision_log().empty());  // off by default
  sys.enable_decision_log(true);
  sys.step(1);
  sys.crash(0);
  ASSERT_EQ(sys.decision_log().size(), 2u);
  EXPECT_EQ(sys.decision_log()[0].kind, sim::SchedDecision::Kind::kStep);
  EXPECT_EQ(sys.decision_log()[0].proc, 1u);
  EXPECT_EQ(sys.decision_log()[1].kind, sim::SchedDecision::Kind::kCrash);
  sys.reset();
  EXPECT_TRUE(sys.decision_log().empty());
}

}  // namespace
}  // namespace ruco::telemetry
