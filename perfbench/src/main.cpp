// perfbench: the repository benchmark.  One run drives one workload for a
// given number of seconds and prints its metrics; see perfbench/README.md
// for the workloads, every metric's definition and what should move it.
//
//   perfbench --workload <update_storm|read_mostly|verify> --seed <n>
//             --seconds <s> --trace <0|1> [--git-sha <sha>]
//             [--timeline <path>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1.  Exit code 0 on a completed run (check `correct`), 2 on
// bad arguments, 3 when the fleet cannot be pinned.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "trace.h"

namespace perfbench {
namespace {

// Per-worker op counts are sized so one round takes one to two seconds on
// a 4-core host.  Phases are sized by call count, not time, because
// FArraySnapshot keeps every view it ever built (about 2.8 KB of heap per
// update at 64 slots): a timed snapshot phase would grow without bound on
// a faster machine.
constexpr Workload kWorkloads[] = {
    // Every call is an update: every one climbs the 6-level propagate path
    // to the one root.
    {"update_storm", 0, 250'000, 200'000, 20'000, 1},
    // 95% reads: the O(1) reads share the root's cache line with a rare
    // writer.
    {"read_mostly", 950, 2'000'000, 2'000'000, 200'000, 1},
    // Time to a verification verdict; the object phases are a short update
    // storm so every metric is measured on every workload.
    {"verify", 0, 100'000, 80'000, 8'000, 4},
};

/// Rounds a run makes at least, whatever its seconds: medians need a few,
/// and a traced run alternates untraced and traced rounds.
constexpr int kMinRounds = 3;
constexpr int kMinTracedRounds = 4;
/// Spans per thread written to the timeline file.
constexpr std::size_t kTimelineSpansPerThread = 4000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string git_sha = "unknown";
  std::string timeline;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <update_storm|read_mostly|verify>"
               " --seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>]"
               " [--timeline <path>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val);
      else if (key == "--git-sha") a.git_sha = val;
      else if (key == "--timeline") a.timeline = val;
      else usage("unknown option " + key);
    } catch (const std::exception&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Mean cost of one back-to-back pair of latency-clock reads: the floor
/// under every latency sample.
double timer_floor_ns() {
  constexpr int kPairs = 200'000;
  std::int64_t total = 0;
  for (int i = 0; i < kPairs; ++i) {
    const std::int64_t t0 = now_ns();
    total += now_ns() - t0;
  }
  return static_cast<double>(total) / kPairs;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string host_block(const Args& a, const std::vector<int>& allowed) {
  const auto list = [](const std::vector<int>& v, std::size_t n) {
    std::string s = "[";
    for (std::size_t i = 0; i < std::min(n, v.size()); ++i) {
      s += (i ? "," : "") + std::to_string(v[i]);
    }
    return s + "]";
  };
#ifdef __clang__
  const std::string compiler = std::string{"clang "} + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string{"gcc "} + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef __OPTIMIZE__
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
  constexpr bool kNdebug = true;
#else
  constexpr bool kNdebug = false;
#endif
#ifdef RUCO_NO_TELEMETRY
  constexpr bool kNoTelemetry = true;
#else
  constexpr bool kNoTelemetry = false;
#endif
#ifdef RUCO_SEQCST_ATOMICS
  constexpr bool kSeqCst = true;
#else
  constexpr bool kSeqCst = false;
#endif
  std::ostringstream o;
  o << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
    << ",\"allowed_cpus\":" << list(allowed, allowed.size())
    << ",\"placement\":" << list(allowed, kWorkers)
    << ",\"cpu_model\":" << json_string(cpu_model())
    << ",\"compiler\":" << json_string(compiler)
    << ",\"optimized\":" << (kOptimized ? "true" : "false")
    << ",\"ndebug\":" << (kNdebug ? "true" : "false")
    << ",\"ruco_no_telemetry\":" << (kNoTelemetry ? "true" : "false")
    << ",\"ruco_seqcst_atomics\":" << (kSeqCst ? "true" : "false")
    << ",\"git_sha\":" << json_string(a.git_sha) << "}";
  return o.str();
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;
    }
  }
  return 0;
}

struct RoundResult {
  bool traced = false;
  double setup_s = 0;
  std::map<Object, PhaseResult> phases;
  std::vector<VerifyPass> passes;
  std::array<double, kNumLayers> self_s{};

  /// Object calls per second over the round's three windows.
  [[nodiscard]] double object_ops_per_s() const {
    double ops = 0;
    double secs = 0;
    for (const auto& [o, p] : phases) {
      ops += p.ops_per_s * p.window_s;
      secs += p.window_s;
    }
    return ratio(ops, secs);
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// What the rounds measured, folded into metrics.
class Summary {
 public:
  explicit Summary(const std::vector<RoundResult>& rounds) : rounds_{rounds} {}

  /// Median over rounds of one field of an object's phase.
  [[nodiscard]] double phase_median(Object o, double PhaseResult::*f) const {
    std::vector<double> v;
    for (const auto& rd : rounds_) v.push_back(rd.phases.at(o).*f);
    return median(v);
  }
  /// Sum over rounds of one field of an object's phase.
  [[nodiscard]] double phase_total(Object o, double PhaseResult::*f) const {
    double s = 0;
    for (const auto& rd : rounds_) s += rd.phases.at(o).*f;
    return s;
  }
  /// Median over every phase of every object.
  [[nodiscard]] double all_phases_median(double PhaseResult::*f) const {
    std::vector<double> v;
    for (const auto& rd : rounds_) {
      for (const auto& [o, p] : rd.phases) v.push_back(p.*f);
    }
    return median(v);
  }
  /// Median over verification passes (of traced rounds only, if asked).
  [[nodiscard]] double pass_median(double VerifyPass::*f,
                                   bool traced_only = false) const {
    std::vector<double> v;
    for (const auto& rd : rounds_) {
      if (traced_only && !rd.traced) continue;
      for (const auto& p : rd.passes) v.push_back(p.*f);
    }
    return median(v);
  }
  /// Median over rounds of a per-round value, of traced or untraced rounds.
  template <class F>
  [[nodiscard]] double round_median(F&& f, bool traced) const {
    std::vector<double> v;
    for (const auto& rd : rounds_) {
      if (rd.traced == traced) v.push_back(f(rd));
    }
    return median(v);
  }

 private:
  const std::vector<RoundResult>& rounds_;
};

std::vector<Metric> end_to_end(const Summary& sum) {
  std::vector<Metric> m;
  for (const Object o : kObjects) {
    const std::string n = object_name(o);
    m.push_back({n + "_ops_per_s", sum.phase_median(o, &PhaseResult::ops_per_s),
                 "1/s"});
    m.push_back({n + "_update_p50_ns",
                 sum.phase_median(o, &PhaseResult::update_p50_ns), "ns"});
    m.push_back({n + "_update_p99_ns",
                 sum.phase_median(o, &PhaseResult::update_p99_ns), "ns"});
  }
  m.push_back({"verdict_s", sum.pass_median(&VerifyPass::verdict_s), "s"});
  m.push_back({"setup_s",
               sum.round_median([](const RoundResult& rd) { return rd.setup_s; },
                                false),
               "s"});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  return m;
}

std::vector<Metric> per_layer(const Summary& sum, double floor_ns) {
  std::vector<Metric> m;
  for (const Object o : kObjects) {
    const std::string n = object_name(o);
    const double updates = sum.phase_total(o, &PhaseResult::updates);
    const auto per_update = [&](double PhaseResult::*f) {
      return ratio(sum.phase_total(o, f), updates);
    };
    m.push_back({n + ".steps_per_update",
                 ratio(sum.phase_total(o, &PhaseResult::update_steps),
                       sum.phase_total(o, &PhaseResult::stepped_updates)),
                 "count"});
    if (o != Object::kSnapshot) {
      m.push_back({n + ".steps_per_read",
                   ratio(sum.phase_total(o, &PhaseResult::read_steps),
                         sum.phase_total(o, &PhaseResult::stepped_reads)),
                   "count"});
    }
    const std::string read = o == Object::kSnapshot ? ".scan" : ".read";
    m.push_back({n + read + "_p50_ns",
                 sum.phase_median(o, &PhaseResult::read_p50_ns), "ns"});
    m.push_back({n + read + "_p99_ns",
                 sum.phase_median(o, &PhaseResult::read_p99_ns), "ns"});
    if (o == Object::kMaxreg) {
      m.push_back({"maxreg.root_fastpath_ratio",
                   per_update(&PhaseResult::root_fastpath), "ratio"});
    }
    if (o == Object::kSnapshot) {
      m.push_back({"snapshot.bytes_per_update",
                   per_update(&PhaseResult::heap_growth_bytes), "B"});
    }
    const std::string pp = "propagate." + n + ".";
    m.push_back({pp + "cas_attempts_per_update",
                 per_update(&PhaseResult::cas_attempts), "count"});
    m.push_back({pp + "cas_fail_ratio",
                 ratio(sum.phase_total(o, &PhaseResult::cas_failures),
                       sum.phase_total(o, &PhaseResult::cas_attempts)),
                 "ratio"});
    m.push_back({pp + "second_rounds_per_update",
                 per_update(&PhaseResult::second_rounds), "count"});
    m.push_back({pp + "cas_skips_per_update",
                 per_update(&PhaseResult::cas_skips), "count"});
    m.push_back({pp + "levels_per_update", per_update(&PhaseResult::levels),
                 "count"});
  }
  m.push_back({"runtime.fleet_start_us",
               sum.all_phases_median(&PhaseResult::fleet_start_us), "us"});
  m.push_back({"runtime.harness_overhead_us",
               sum.all_phases_median(&PhaseResult::harness_overhead_us), "us"});
  m.push_back({"runtime.worker_skew",
               sum.all_phases_median(&PhaseResult::worker_skew), "ratio"});
  m.push_back({"runtime.timer_floor_ns", floor_ns, "ns"});

  struct PassMetric {
    const char* name;
    double VerifyPass::*field;
    const char* unit;
  };
  const PassMetric engines[] = {
      {"sim.model_check_s", &VerifyPass::model_check_s, "s"},
      {"sim.executions", &VerifyPass::executions, "count"},
      {"sim.nodes", &VerifyPass::nodes, "count"},
      {"sim.replayed_steps", &VerifyPass::replayed_steps, "count"},
      {"sim.replays", &VerifyPass::replays, "count"},
      {"sim.sleep_pruned", &VerifyPass::sleep_pruned, "count"},
      {"sim.frontier_roots", &VerifyPass::frontier_roots, "count"},
      {"sim.execs_per_s", &VerifyPass::execs_per_s, "1/s"},
      {"sim.worker_imbalance", &VerifyPass::worker_imbalance, "ratio"},
      {"sim.certify_s", &VerifyPass::certify_s, "s"},
      {"sim.certify_schedules", &VerifyPass::certify_schedules, "count"},
      {"wmm.check_s", &VerifyPass::wmm_check_s, "s"},
      {"wmm.executions", &VerifyPass::wmm_executions, "count"},
  };
  for (const auto& e : engines) {
    m.push_back({e.name, sum.pass_median(e.field), e.unit});
  }
  m.push_back({"lincheck.calls",
               sum.pass_median(&VerifyPass::lincheck_calls, true), "count"});
  m.push_back({"lincheck.busy_s",
               sum.pass_median(&VerifyPass::lincheck_busy_s, true), "s"});
  m.push_back({"lincheck.share",
               sum.pass_median(&VerifyPass::lincheck_share, true), "ratio"});
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    m.push_back({std::string{layer_name(static_cast<Layer>(l))} + ".self_s",
                 sum.round_median(
                     [l](const RoundResult& rd) { return rd.self_s[l]; }, true),
                 "s"});
  }
  const auto ops = [](const RoundResult& rd) { return rd.object_ops_per_s(); };
  m.push_back({"trace.overhead_ratio",
               ratio(sum.round_median(ops, true), sum.round_median(ops, false)),
               "ratio"});
  return m;
}

}  // namespace

int run(int argc, char** argv) {
  const std::int64_t process_start = now_ns();
  const Args args = parse(argc, argv);
  const Workload* wl = nullptr;
  for (const auto& w : kWorkloads) {
    if (w.name == args.workload) wl = &w;
  }
  if (wl == nullptr) usage("unknown workload '" + args.workload + "'");

  const std::vector<int> allowed = allowed_cpus();
  if (allowed.size() < kWorkers) {
    std::cerr << "perfbench: the fleet needs " << kWorkers
              << " CPUs to pin one worker each; this process may run on "
              << allowed.size() << "\n";
    return 3;
  }
  const std::vector<int> placement(allowed.begin(),
                                   allowed.begin() + kWorkers);
  const double floor_ns = timer_floor_ns();
  std::cout << "host: " << host_block(args, allowed) << "\n";

  std::vector<RoundResult> rounds;
  std::vector<Span> timeline_spans;
  const std::int64_t run_start = now_ns();
  const int min_rounds = args.trace ? kMinTracedRounds : kMinRounds;
  for (int r = 0;; ++r) {
    const double elapsed = static_cast<double>(now_ns() - run_start) * 1e-9;
    if (r >= min_rounds && elapsed >= args.seconds) break;
    RoundResult round;
    round.traced = args.trace == 1 && r % 2 == 1;
    trace::set_enabled(round.traced);
    const std::int64_t round_start = now_ns();
    {
      ScopedSpan round_span("round", Layer::kBench, 0);
      for (const Object o : kObjects) {
        PhaseConfig cfg;
        cfg.object = o;
        cfg.ops_per_worker = o == Object::kMaxreg    ? wl->maxreg_ops
                             : o == Object::kCounter ? wl->counter_ops
                                                     : wl->snapshot_ops;
        cfg.read_per_mille = wl->read_per_mille;
        cfg.seed = args.seed * 1'000'003 + static_cast<std::uint64_t>(r) * 7 +
                   static_cast<std::uint64_t>(o);
        cfg.cpus = placement;
        cfg.traced = round.traced;
        cfg.parent_span = round_span.id();
        PhaseResult p = run_object_phase(cfg);
        if (!p.pinned) {
          std::cerr << "perfbench: pinning a worker failed\n";
          return 3;
        }
        round.setup_s += p.setup_s;
        round.phases[o] = p;
      }
      for (std::uint32_t i = 0; i < wl->verify_passes; ++i) {
        round.passes.push_back(run_verify_pass(round.traced, round_span.id()));
        round.setup_s += round.passes.back().setup_s;
      }
    }
    // The first round's set-up also covers process start-up: argument
    // parsing, the CPU set, the timer calibration.
    if (r == 0) {
      round.setup_s += static_cast<double>(round_start - process_start) * 1e-9;
    }
    trace::set_enabled(false);
    if (round.traced) {
      std::vector<Span> spans = trace::drain();
      round.self_s = trace::self_time_s(spans);
      if (timeline_spans.empty()) timeline_spans = std::move(spans);
    }
    rounds.push_back(std::move(round));
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t passes = 0;
  for (const auto& rd : rounds) {
    for (const auto& [o, p] : rd.phases) {
      attempted += p.attempted;
      failed += p.failed;
    }
    for (const auto& v : rd.passes) {
      attempted += v.attempted;
      failed += v.failed;
      if (v.failed != 0) std::cerr << "perfbench: " << v.failure << "\n";
    }
    passes += rd.passes.size();
  }
  const std::string self_test = check::self_test();
  if (!self_test.empty()) std::cerr << "perfbench: " << self_test << "\n";
  const bool correct = failed == 0 && self_test.empty();

  const Summary sum{rounds};
  const std::vector<Metric> metrics =
      args.trace == 0 ? end_to_end(sum) : per_layer(sum, floor_ns);

  std::cout << "workload: " << wl->name << ", seed " << args.seed << ", "
            << rounds.size() << " rounds, " << passes
            << " verification passes, trace " << args.trace << "\n";
  for (const Object o : kObjects) {
    std::cout << "timed calls: " << object_name(o) << " update "
              << number(sum.phase_total(o, &PhaseResult::update_samples))
              << ", read "
              << number(sum.phase_total(o, &PhaseResult::read_samples))
              << " (1 call in " << kSampleEvery
              << "; percentiles per round, median over rounds)\n";
  }
  std::cout << "failed_op_ratio: "
            << number(ratio(double(failed), double(attempted))) << " ("
            << failed << " of " << attempted << ")\n";
  for (const auto& m : metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }
  if (args.trace == 1 && !args.timeline.empty()) {
    const std::string err = trace::write_timeline(
        timeline_spans, process_start, kTimelineSpansPerThread, args.timeline);
    if (err.empty()) {
      std::cout << "timeline: " << args.timeline << "\n";
    } else {
      std::cerr << "perfbench: timeline: " << err << "\n";
    }
  }
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << json_string(metrics[i].name)
        << ": {\"value\": " << number(metrics[i].value)
        << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
