// Hardware throughput with cross-layer telemetry: ops/sec, shared-memory
// steps/op (the paper's complexity measure, from runtime::thread_steps),
// and CAS failure rate (from ruco::telemetry counter deltas) for the
// production max-register, counter and snapshot implementations under real
// threads.
//
// Three workload modes:
//   default   every thread writes its own ascending op counter, so threads
//             frequently write values the register already covers -- the
//             duplicate/fast-path regime.
//   --contend thread t writes ops * nthreads + t: values interleave across
//             threads and every write is a fresh maximum, so writes race on
//             the root path instead of short-circuiting -- the worst-case
//             CAS-contention regime the conditional refresh and backoff are
//             aimed at.
//   solo      one thread, one fresh object per row, reads and updates timed
//             separately with N (the AAC bound M) in the workload name: the
//             paper's tradeoff as per-N hardware rows.  Algorithm A and
//             f-array reads stay flat, AAC reads and propagating updates
//             grow with log N.  Run once per invocation whatever --threads,
//             --sweep or --contend say.
//
//   --threads=N   worker threads (default 4)
//   --ms=M        measured window per workload (default 200)
//   --smoke       tiny run for CI (2 threads, 50 ms)
//   --contend     add the contended-mode workloads
//   --sweep       run each workload at 1, 2, 4, ... up to --threads
//   --json <path>     machine-readable results
//   --perfetto <path> sampled op timeline (open at ui.perfetto.dev)
// Any other argument, or a malformed number, prints usage and exits 2; a
// --json path that cannot be written exits 1.
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "ruco/core/table.h"
#include "ruco/counter/farray_counter.h"
#include "ruco/counter/fetch_add_counter.h"
#include "ruco/counter/maxreg_counter.h"
#include "ruco/maxreg/aac_max_register.h"
#include "ruco/maxreg/cas_max_register.h"
#include "ruco/maxreg/lock_max_register.h"
#include "ruco/maxreg/tree_max_register.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/runtime/thread_harness.h"
#include "ruco/snapshot/afek_snapshot.h"
#include "ruco/snapshot/double_collect_snapshot.h"
#include "ruco/snapshot/farray_snapshot.h"
#include "ruco/telemetry/registry.h"
#include "ruco/telemetry/timeline.h"

namespace {

using Clock = std::chrono::steady_clock;
using ruco::Value;

constexpr std::uint64_t kNoOpCap = std::numeric_limits<std::uint64_t>::max();

// Every body's result is folded into a per-thread sink and published here
// once per thread, so no read whose value the harness ignores can be
// optimized away.
std::atomic<std::uint64_t> g_sink{0};

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct WorkloadResult {
  std::string name;
  std::string mode;  // "default", "contend" or "solo"
  std::uint64_t threads = 0;
  std::uint64_t ops = 0;
  std::uint64_t steps = 0;  // shared-memory events across all threads
  double wall_s = 0.0;
  std::uint64_t cas_attempts = 0;  // registry delta over the window
  std::uint64_t cas_failures = 0;

  [[nodiscard]] double ops_per_sec() const {
    return wall_s > 0 ? static_cast<double>(ops) / wall_s : 0.0;
  }
  [[nodiscard]] double steps_per_op() const {
    return ops > 0 ? static_cast<double>(steps) / static_cast<double>(ops)
                   : 0.0;
  }
  [[nodiscard]] double cas_fail_rate() const {
    return cas_attempts > 0 ? static_cast<double>(cas_failures) /
                                  static_cast<double>(cas_attempts)
                            : 0.0;
  }
};

std::uint64_t registry_value(const ruco::telemetry::Snapshot& snap,
                             const std::string& domain,
                             const std::string& name) {
  const auto* m = snap.find(domain, name);
  return m != nullptr ? m->value : 0;
}

/// Runs `body(thread, op_index)` on every thread until the deadline or
/// until the thread has run `max_ops` ops, recording every
/// `kSampleEvery`-th op into the Perfetto recorder.  `body` returns the
/// value it read (0 when it reads nothing) for the sink.
template <typename Body>
WorkloadResult run_workload(const std::string& name, const std::string& mode,
                            std::size_t threads, std::uint64_t window_ms,
                            ruco::telemetry::OpRecorder* recorder,
                            std::uint32_t op_name_id, Body&& body,
                            std::uint64_t max_ops = kNoOpCap) {
  constexpr std::uint64_t kSampleEvery = 1024;
  WorkloadResult r;
  r.name = name;
  r.mode = mode;
  r.threads = threads;
  std::vector<std::uint64_t> ops_per_thread(threads, 0);
  std::vector<std::uint64_t> steps_per_thread(threads, 0);

  const auto before = ruco::telemetry::Registry::global().snapshot();
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::milliseconds(window_ms);
  ruco::runtime::run_threads(threads, [&](std::size_t t) {
    const std::uint64_t steps_before = ruco::runtime::thread_steps();
    std::uint64_t ops = 0;
    std::uint64_t sink = 0;
    while (ops < max_ops && Clock::now() < deadline) {
      // Batch between clock reads; the clock costs more than the ops.
      const std::uint64_t batch_end = std::min(ops + 64, max_ops);
      for (; ops < batch_end; ++ops) {
        if (recorder != nullptr && ops % kSampleEvery == 0) {
          const std::uint64_t start = now_us();
          sink += static_cast<std::uint64_t>(body(t, ops));
          recorder->record(static_cast<std::uint32_t>(t), op_name_id, start,
                           std::max<std::uint64_t>(1, now_us() - start));
        } else {
          sink += static_cast<std::uint64_t>(body(t, ops));
        }
      }
    }
    g_sink.fetch_add(sink, std::memory_order_relaxed);
    ops_per_thread[t] = ops;
    steps_per_thread[t] = ruco::runtime::thread_steps() - steps_before;
  });
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  const auto after = ruco::telemetry::Registry::global().snapshot();
  for (std::size_t t = 0; t < threads; ++t) {
    r.ops += ops_per_thread[t];
    r.steps += steps_per_thread[t];
  }
  // CAS telemetry across the algorithm layers this binary exercises.
  for (const char* name_in_domain : {"cas_attempts", "propagate_cas_attempts"}) {
    r.cas_attempts += registry_value(after, "maxreg", name_in_domain) -
                      registry_value(before, "maxreg", name_in_domain);
  }
  for (const char* name_in_domain : {"cas_failures", "propagate_cas_failures"}) {
    r.cas_failures += registry_value(after, "maxreg", name_in_domain) -
                      registry_value(before, "maxreg", name_in_domain);
  }
  return r;
}

std::string row_name(const char* prefix, std::uint64_t n) {
  return std::string{prefix}.append(std::to_string(n));
}

/// The solo rows: one thread, a fresh object per row, reads and updates
/// timed apart.  A body gets the next ascending operand v = op index + 1
/// and returns what it read, if anything.  Op caps keep restricted-use
/// objects inside their bounds: MaxRegCounter throws past U = 2^16
/// increments, snapshot updates grow their arenas without reclamation,
/// and the AAC write row stops at M - 1 so every write stays a fresh
/// maximum whatever the window.
void run_solo_rows(std::uint64_t window_ms,
                   ruco::telemetry::OpRecorder* recorder,
                   std::vector<WorkloadResult>& results) {
  constexpr Value kAacWriteBound = 1 << 20;
  constexpr Value kMaxRegCounterBound = 1 << 16;
  constexpr std::uint64_t kMaxRegCounterOps = 30000;
  constexpr std::uint64_t kSnapshotUpdateOps = 20000;
  const auto solo = [&](const std::string& name, auto&& body,
                        std::uint64_t max_ops = kNoOpCap) {
    const std::uint32_t op = recorder != nullptr ? recorder->intern(name) : 0;
    const auto run = [&](std::size_t, std::uint64_t i) {
      const auto v = static_cast<Value>(i + 1);
      if constexpr (std::is_void_v<decltype(body(v))>) {
        body(v);
        return Value{0};
      } else {
        return body(v);
      }
    };
    results.push_back(run_workload(name, "solo", 1, window_ms, recorder, op,
                                   run, max_ops));
  };

  // Max registers: Algorithm A reads one root load at every N, AAC reads
  // walk log M switches; writes climb log N (log M) levels.
  for (const std::uint32_t n : {8u, 256u, 4096u}) {
    ruco::maxreg::TreeMaxRegister reg{n};
    reg.write_max(0, 3);
    solo(row_name("tree maxreg read N=", n),
         [&](Value) { return reg.read_max(0); });
  }
  for (const Value m : {8, 256, 4096, 1 << 20}) {
    ruco::maxreg::AacMaxRegister reg{m};
    reg.write_max(0, m / 2);
    solo(row_name("aac maxreg read M=", static_cast<std::uint64_t>(m)),
         [&](Value) { return reg.read_max(0); });
  }
  for (const std::uint32_t n : {8u, 256u, 4096u}) {
    ruco::maxreg::TreeMaxRegister reg{n};
    solo(row_name("tree maxreg write N=", n),
         [&](Value v) { reg.write_max(0, v); });
  }
  {
    ruco::maxreg::AacMaxRegister reg{kAacWriteBound};
    solo(row_name("aac maxreg write M=", kAacWriteBound),
         [&](Value v) { reg.write_max(0, v); }, kAacWriteBound - 1);
  }
  {
    ruco::maxreg::CasMaxRegister reg;
    solo("cas maxreg write", [&](Value v) { reg.write_max(0, v); });
  }
  {
    ruco::maxreg::LockMaxRegister reg;
    solo("lock maxreg write", [&](Value v) { reg.write_max(0, v); });
  }

  // Counters: f-array reads are one root load, increments climb log N
  // levels; the max-register counter pays log U per read instead.
  for (const std::uint32_t n : {8u, 256u, 4096u}) {
    ruco::counter::FArrayCounter c{n};
    solo(row_name("f-array counter increment N=", n),
         [&](Value) { c.increment(0); });
  }
  for (const std::uint32_t n : {8u, 4096u}) {
    ruco::counter::FArrayCounter c{n};
    c.increment(0);
    solo(row_name("f-array counter read N=", n),
         [&](Value) { return c.read(0); });
  }
  for (const std::uint32_t n : {8u, 256u}) {
    ruco::counter::MaxRegCounter c{n, kMaxRegCounterBound};
    solo(row_name("maxreg counter increment N=", n),
         [&](Value) { c.increment(0); }, kMaxRegCounterOps);
  }
  for (const std::uint32_t n : {8u, 256u}) {
    ruco::counter::MaxRegCounter c{n, kMaxRegCounterBound};
    c.increment(0);
    solo(row_name("maxreg counter read N=", n),
         [&](Value) { return c.read(0); });
  }
  {
    ruco::counter::FetchAddCounter c;
    solo("fetch_add counter increment", [&](Value) { c.increment(0); });
  }

  // Snapshots: the f-array snapshot scans one root pointer and updates by
  // merging O(N) views up log N levels; double collect scans O(N) twice.
  for (const std::uint32_t n : {8u, 128u}) {
    ruco::snapshot::FArraySnapshot snap{n};
    snap.update(0, 1);
    solo(row_name("f-array snapshot scan N=", n),
         [&](Value) { return snap.scan(0).front(); });
  }
  for (const std::uint32_t n : {8u, 128u}) {
    ruco::snapshot::FArraySnapshot snap{n};
    solo(row_name("f-array snapshot update N=", n),
         [&](Value v) { snap.update(0, v); }, kSnapshotUpdateOps);
  }
  for (const std::uint32_t n : {8u, 128u}) {
    ruco::snapshot::DoubleCollectSnapshot snap{n};
    snap.update(0, 1);
    solo(row_name("double-collect snapshot scan N=", n),
         [&](Value) { return snap.scan(0).front(); });
  }
  for (const std::uint32_t n : {8u, 64u}) {
    ruco::snapshot::AfekSnapshot snap{n};
    solo(row_name("afek snapshot update N=", n),
         [&](Value v) { snap.update(0, v); }, kSnapshotUpdateOps);
  }
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--threads=N] [--ms=M] [--smoke] [--contend] [--sweep]"
               " [--json <path>] [--perfetto <path>]\n";
  return 2;
}

/// Parses the decimal after `prefix` in `arg`; false on any malformed text.
bool parse_count(const std::string& arg, std::size_t prefix,
                 std::uint64_t& out) {
  const char* first = arg.data() + prefix;
  const char* last = arg.data() + arg.size();
  const auto [end, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && end == last;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t threads = 4;
  std::uint64_t window_ms = 200;
  bool smoke = false;
  bool contend = false;
  bool sweep = false;
  std::string json_path;
  std::string perfetto_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = true;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--contend") {
      contend = true;
    } else if (arg == "--sweep") {
      sweep = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      ok = parse_count(arg, 10, threads);
    } else if (arg.rfind("--ms=", 0) == 0) {
      ok = parse_count(arg, 5, window_ms);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--perfetto" && i + 1 < argc) {
      perfetto_path = argv[++i];
    } else {
      ok = false;
    }
    if (!ok) return usage(argv[0]);
  }
  if (smoke) {
    threads = std::min<std::uint64_t>(threads, 2);
    window_ms = std::min<std::uint64_t>(window_ms, 50);
  }
  if (threads == 0) threads = 1;

  std::cout << "# Hardware throughput with telemetry: " << threads
            << " threads, " << window_ms << " ms per workload"
            << (contend ? ", with contended mode" : "")
            << (sweep ? ", thread sweep" : "") << "\n\n";

  ruco::telemetry::OpRecorder recorder{static_cast<std::uint32_t>(threads),
                                       4096};
  ruco::telemetry::OpRecorder* rec =
      perfetto_path.empty() ? nullptr : &recorder;

  std::vector<WorkloadResult> results;

  // One pass over the three workloads at a given thread count.  In the
  // default mode thread t writes its own op counter (values collide across
  // threads: the duplicate/fast-path regime); in contend mode thread t
  // writes ops * tc + t so every write is a fresh maximum racing up the
  // root path.
  const auto run_suite = [&](std::size_t tc, bool contended) {
    const auto n = static_cast<std::uint32_t>(tc);
    const char* mode = contended ? "contend" : "default";
    {
      ruco::maxreg::CasMaxRegister reg;
      const auto op = recorder.intern("cas_maxreg.write+read");
      results.push_back(run_workload(
          "cas maxreg", mode, tc, window_ms, rec, op,
          [&](std::size_t t, std::uint64_t ops) {
            const auto v = static_cast<ruco::Value>(
                contended ? ops * tc + t : ops);
            reg.write_max(static_cast<ruco::ProcId>(t), v);
            return reg.read_max(static_cast<ruco::ProcId>(t));
          }));
    }
    {
      ruco::maxreg::TreeMaxRegister reg{n};
      const auto op = recorder.intern("tree_maxreg.write+read");
      results.push_back(run_workload(
          "tree maxreg (Alg A)", mode, tc, window_ms, rec, op,
          [&](std::size_t t, std::uint64_t ops) {
            const auto v = static_cast<ruco::Value>(
                contended ? ops * tc + t : ops);
            reg.write_max(static_cast<ruco::ProcId>(t), v);
            return reg.read_max(static_cast<ruco::ProcId>(t));
          }));
    }
    {
      ruco::counter::FArrayCounter counter{n};
      const auto op = recorder.intern("farray_counter.inc+read");
      // A counter increment has no value operand; contend mode only drops
      // the read so every op races on the propagation path.
      results.push_back(run_workload(
          "f-array counter", mode, tc, window_ms, rec, op,
          [&](std::size_t t, std::uint64_t) {
            counter.increment(static_cast<ruco::ProcId>(t));
            return contended ? 0 : counter.read(static_cast<ruco::ProcId>(t));
          }));
    }
  };

  std::vector<std::size_t> thread_counts;
  if (sweep) {
    for (std::size_t tc = 1; tc < threads; tc *= 2) thread_counts.push_back(tc);
  }
  thread_counts.push_back(threads);
  for (const std::size_t tc : thread_counts) {
    run_suite(tc, false);
    if (contend) run_suite(tc, true);
  }
  run_solo_rows(window_ms, rec, results);

  ruco::Table t{{"workload", "mode", "threads", "ops/sec", "steps/op",
                 "CAS fail rate"}};
  for (const auto& r : results) {
    t.add(r.name, r.mode, r.threads,
          static_cast<std::uint64_t>(r.ops_per_sec()), r.steps_per_op(),
          r.cas_fail_rate());
  }
  t.print();

  if (!json_path.empty()) {
    std::ofstream out{json_path};
    out << "{\n  \"bench\": \"hw_throughput\",\n  \"threads\": " << threads
        << ",\n  \"window_ms\": " << window_ms << ",\n  \"series\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      out << "    {\"workload\": \"" << r.name << "\", \"mode\": \"" << r.mode
          << "\", \"threads\": " << r.threads << ", \"ops\": " << r.ops
          << ", \"ops_per_sec\": " << r.ops_per_sec()
          << ", \"steps_per_op\": " << r.steps_per_op()
          << ", \"cas_attempts\": " << r.cas_attempts
          << ", \"cas_failures\": " << r.cas_failures
          << ", \"cas_fail_rate\": " << r.cas_fail_rate() << "}"
          << (i + 1 == results.size() ? "" : ",") << "\n";
    }
    out << "  ]\n}\n";
    out.close();
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    std::cout << "\nwrote " << json_path << "\n";
  }
  if (!perfetto_path.empty()) {
    ruco::telemetry::TimelineWriter tl;
    recorder.export_to(tl, 1, "bench_hw_throughput");
    const std::string err = tl.validate();
    if (!err.empty()) {
      std::cerr << "perfetto export invalid: " << err << "\n";
      return 1;
    }
    if (!tl.write_file(perfetto_path)) {
      std::cerr << "cannot write " << perfetto_path << "\n";
      return 1;
    }
    std::cout << "wrote " << perfetto_path << " (" << tl.num_events()
              << " events, " << recorder.dropped()
              << " dropped; open at ui.perfetto.dev)\n";
  }
  std::cout << "\nShape check: the cas register reads in O(1) but pays for "
               "contention in failed CAS retries; Algorithm A's tree "
               "register spreads writes over O(log N) switches with "
               "conditional refresh pruning the second CAS round (near-zero "
               "failures in the default regime, root fast path absorbing "
               "duplicate maxima); the f-array counter reads in one step "
               "with O(log N) updates.  Solo rows: tree maxreg and f-array "
               "reads stay flat across N while AAC reads grow with log M "
               "and propagating updates with log N.\n";
  return 0;
}
