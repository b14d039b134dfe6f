// The object phases: a pinned fleet of kWorkers closed-loop callers
// driving one fresh production object through a seeded read/update mix.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "ruco/counter/farray_counter.h"
#include "ruco/maxreg/tree_max_register.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/runtime/thread_harness.h"
#include "ruco/snapshot/farray_snapshot.h"
#include "ruco/telemetry/registry.h"
#include "ruco/util/rng.h"
#include "trace.h"

namespace perfbench {

const char* object_name(Object o) {
  switch (o) {
    case Object::kMaxreg: return "maxreg";
    case Object::kCounter: return "counter";
    case Object::kSnapshot: return "snapshot";
  }
  return "?";
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

/// Bytes the allocator has handed out and not had back, over all arenas.
double heap_bytes() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd);
}

using ruco::ProcId;
using ruco::Value;

/// Untimed calls per worker before the barrier that starts the window: a
/// tenth of the window, at least 1000.  Long enough that a phase's set-up
/// is dominated by this work rather than by how fast the host schedules
/// four fresh threads, which on a shared host varies by milliseconds.
std::uint64_t warmup_ops(std::uint64_t window_ops) {
  return std::max<std::uint64_t>(1000, window_ops / 10);
}

struct MaxregOps {
  static constexpr Layer kLayer = Layer::kMaxreg;
  static constexpr const char* kUpdateSpan = "maxreg.write_max";
  static constexpr const char* kReadSpan = "maxreg.read_max";
  using Checker = check::MaxRegChecker;

  ruco::maxreg::TreeMaxRegister obj{kSlots};

  static Checker make_checker(ProcId) { return {}; }
  // Steady-clock timestamps, what a high-water-mark caller writes: whether
  // a write is a fresh maximum does not hinge on how far ahead one worker
  // runs, as it would with per-worker counters.
  static Value next_arg(const Checker&) { return now_ns(); }
  void update(ProcId w, Value v) { obj.write_max(w, v); }
  static void updated(Checker& c, Value v) { c.wrote(v); }
  [[nodiscard]] Value read(ProcId w) const { return obj.read_max(w); }
  static bool read_ok(Checker& c, Value r) { return c.read(r); }
  [[nodiscard]] bool final_ok(std::span<const Checker> c) const {
    return check::maxreg_final_ok(obj.read_max(0), c);
  }
};

struct CounterOps {
  static constexpr Layer kLayer = Layer::kCounter;
  static constexpr const char* kUpdateSpan = "counter.increment";
  static constexpr const char* kReadSpan = "counter.read";
  using Checker = check::CounterChecker;

  ruco::counter::FArrayCounter obj{kSlots};

  static Checker make_checker(ProcId) { return {}; }
  static Value next_arg(const Checker&) { return 0; }
  void update(ProcId w, Value) { obj.increment(w); }
  static void updated(Checker& c, Value) { c.incremented(); }
  [[nodiscard]] Value read(ProcId w) const { return obj.read(w); }
  static bool read_ok(Checker& c, Value r) { return c.read(r); }
  [[nodiscard]] bool final_ok(std::span<const Checker> c) const {
    return check::counter_final_ok(obj.read(0), c);
  }
};

struct SnapshotOps {
  static constexpr Layer kLayer = Layer::kSnapshot;
  static constexpr const char* kUpdateSpan = "snapshot.update";
  static constexpr const char* kReadSpan = "snapshot.scan";
  using Checker = check::SnapshotChecker;

  ruco::snapshot::FArraySnapshot obj{kSlots};

  static Checker make_checker(ProcId w) { return Checker{w, kWorkers}; }
  static Value next_arg(const Checker& c) { return c.own + 1; }
  void update(ProcId w, Value v) { obj.update(w, v); }
  static void updated(Checker& c, Value v) { c.wrote(v); }
  [[nodiscard]] std::vector<Value> read(ProcId w) const { return obj.scan(w); }
  static bool read_ok(Checker& c, const std::vector<Value>& r) {
    return c.read(r);
  }
  [[nodiscard]] bool final_ok(std::span<const Checker> c) const {
    return check::snapshot_final_ok(obj.scan(0), c);
  }
};

template <class Ops>
struct alignas(64) Worker {
  std::optional<typename Ops::Checker> checker;  // set by the worker
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t updates = 0;
  std::uint64_t update_steps = 0;
  std::uint64_t read_steps = 0;
  std::uint64_t stepped_updates = 0;
  std::uint64_t stepped_reads = 0;
  std::int64_t pinned_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t finish_ns = 0;
  bool pinned = false;
  std::vector<double> update_ns;
  std::vector<double> read_ns;
};

/// One call by worker `w`.  `sample` times it; `traced` also counts its
/// steps and records a span under `window`.
template <class Ops>
void call(Ops& ops, Worker<Ops>& me, ProcId w, bool is_read, bool sample,
          bool traced, std::uint64_t window) {
  auto& chk = *me.checker;
  const std::uint64_t s0 = traced ? ruco::runtime::thread_steps() : 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  if (is_read) {
    if (sample) t0 = now_ns();
    const auto r = ops.read(w);
    if (sample) {
      t1 = now_ns();
      me.read_ns.push_back(static_cast<double>(t1 - t0));
    }
    if (traced) {
      me.read_steps += ruco::runtime::thread_steps() - s0;
      ++me.stepped_reads;
      if (sample) {
        trace::record(Ops::kReadSpan, Ops::kLayer, trace::next_id(), window,
                      t0, t1);
      }
    }
    if (!Ops::read_ok(chk, r)) ++me.failed;
  } else {
    const Value v = Ops::next_arg(chk);
    if (sample) t0 = now_ns();
    ops.update(w, v);
    if (sample) {
      t1 = now_ns();
      me.update_ns.push_back(static_cast<double>(t1 - t0));
    }
    if (traced) {
      me.update_steps += ruco::runtime::thread_steps() - s0;
      ++me.stepped_updates;
      if (sample) {
        trace::record(Ops::kUpdateSpan, Ops::kLayer, trace::next_id(), window,
                      t0, t1);
      }
    }
    Ops::updated(chk, v);
    ++me.updates;
  }
  ++me.attempted;
}

std::uint64_t metric(const ruco::telemetry::Snapshot& s, const char* domain,
                     const char* name) {
  const auto* m = s.find(domain, name);
  return m != nullptr ? m->value : 0;
}

template <class Ops>
PhaseResult run_phase(const PhaseConfig& cfg) {
  PhaseResult res;
  auto& registry = ruco::telemetry::Registry::global();
  const auto before = registry.snapshot();
  const double heap_before = heap_bytes();
  const std::int64_t phase_start = now_ns();
  {
    ScopedSpan phase(trace::intern(std::string{"phase."} +
                                   object_name(cfg.object)),
                     Layer::kRuntime, cfg.parent_span);
    auto ops = std::make_unique<Ops>();
    std::vector<Worker<Ops>> workers(kWorkers);
    // Every worker is on its own CPU before any starts calling: a worker
    // that is still migrating would otherwise wait for a busy CPU's tick.
    ruco::runtime::SpinBarrier pinned_barrier{kWorkers};
    ruco::runtime::SpinBarrier window_barrier{kWorkers};
    const std::int64_t launch = now_ns();
    ruco::runtime::run_threads(kWorkers, [&](std::size_t i) {
      const auto w = static_cast<ProcId>(i);
      Worker<Ops>& me = workers[i];
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cfg.cpus[i], &set);
      me.pinned = pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
      me.pinned_ns = now_ns();
      pinned_barrier.arrive_and_wait();
      me.checker.emplace(Ops::make_checker(w));
      me.update_ns.reserve(cfg.ops_per_worker / kSampleEvery + 2);
      if (cfg.read_per_mille > 0) {
        me.read_ns.reserve(cfg.ops_per_worker / kSampleEvery + 2);
      }
      ruco::util::SplitMix64 rng{cfg.seed * 0x9e3779b97f4a7c15ULL + i + 1};
      const auto is_read = [&] {
        return cfg.read_per_mille > 0 && rng.below(1000) < cfg.read_per_mille;
      };
      {
        ScopedSpan warm("worker.warmup", Ops::kLayer, phase.id());
        for (std::uint64_t k = 0, n = warmup_ops(cfg.ops_per_worker); k < n;
             ++k) {
          call(*ops, me, w, is_read(), false, false, 0);
        }
      }
      const std::uint64_t window = cfg.traced ? trace::next_id() : 0;
      window_barrier.arrive_and_wait();
      me.start_ns = now_ns();
      for (std::uint64_t k = 0; k < cfg.ops_per_worker; ++k) {
        call(*ops, me, w, is_read(), k % kSampleEvery == 0, cfg.traced,
             window);
      }
      me.finish_ns = now_ns();
      if (cfg.traced) {
        trace::record("worker.window", Ops::kLayer, window, phase.id(),
                      me.start_ns, me.finish_ns);
      }
      // One more read checks what the worker's own calls left behind; on
      // update-only mixes it is also the only read the layer metrics see.
      call(*ops, me, w, true, true, cfg.traced, window);
    });

    std::vector<typename Ops::Checker> checkers;
    std::vector<double> update_ns;
    std::vector<double> read_ns;
    std::int64_t start = INT64_MAX;
    std::int64_t finish = 0;
    std::int64_t last_pinned = 0;
    for (const auto& me : workers) {
      start = std::min(start, me.start_ns);
      finish = std::max(finish, me.finish_ns);
      last_pinned = std::max(last_pinned, me.pinned_ns);
    }
    double fastest = 1e300;
    double slowest = 0;
    for (const auto& me : workers) {
      checkers.push_back(*me.checker);
      const auto took = static_cast<double>(me.finish_ns - start);
      fastest = std::min(fastest, took);
      slowest = std::max(slowest, took);
      res.pinned = res.pinned && me.pinned;
      res.attempted += me.attempted;
      res.failed += me.failed;
      res.updates += static_cast<double>(me.updates);
      res.update_steps += static_cast<double>(me.update_steps);
      res.read_steps += static_cast<double>(me.read_steps);
      res.stepped_updates += static_cast<double>(me.stepped_updates);
      res.stepped_reads += static_cast<double>(me.stepped_reads);
      update_ns.insert(update_ns.end(), me.update_ns.begin(),
                       me.update_ns.end());
      read_ns.insert(read_ns.end(), me.read_ns.begin(), me.read_ns.end());
    }
    ++res.attempted;
    if (!ops->final_ok(checkers)) ++res.failed;
    res.update_p50_ns = quantile(update_ns, 0.50);
    res.update_p99_ns = quantile(update_ns, 0.99);
    res.read_p50_ns = quantile(read_ns, 0.50);
    res.read_p99_ns = quantile(read_ns, 0.99);
    res.update_samples = static_cast<double>(update_ns.size());
    res.read_samples = static_cast<double>(read_ns.size());
    res.window_s = static_cast<double>(finish - start) * 1e-9;
    res.ops_per_s = res.window_s > 0 ? static_cast<double>(cfg.ops_per_worker *
                                                           kWorkers) /
                                           res.window_s
                                     : 0;
    res.setup_s = static_cast<double>(start - phase_start) * 1e-9;
    res.fleet_start_us = static_cast<double>(last_pinned - launch) * 1e-3;
    res.worker_skew = fastest > 0 ? slowest / fastest : 0;
    res.heap_growth_bytes = heap_bytes() - heap_before;
  }

  const auto after = registry.snapshot();
  const auto delta = [&](const char* domain, const char* name) {
    return static_cast<double>(metric(after, domain, name) -
                               metric(before, domain, name));
  };
  res.cas_attempts = delta("maxreg", "propagate_cas_attempts");
  res.cas_failures = delta("maxreg", "propagate_cas_failures");
  res.second_rounds = delta("maxreg", "propagate_second_rounds");
  res.cas_skips = delta("maxreg", "propagate_cas_skips");
  res.levels = delta("maxreg", "propagate_levels");
  res.root_fastpath = delta("maxreg", "tree_root_fastpath");
  res.harness_overhead_us =
      delta("runtime", "harness_wall_us") - delta("runtime", "harness_body_us");
  return res;
}

}  // namespace

PhaseResult run_object_phase(const PhaseConfig& cfg) {
  switch (cfg.object) {
    case Object::kMaxreg: return run_phase<MaxregOps>(cfg);
    case Object::kCounter: return run_phase<CounterOps>(cfg);
    case Object::kSnapshot: return run_phase<SnapshotOps>(cfg);
  }
  return {};
}

}  // namespace perfbench
