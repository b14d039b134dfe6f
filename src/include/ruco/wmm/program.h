// Litmus-program builder and the wmm::Atomic<T> shim.
//
// A Program is a set of shared locations plus thread bodies written as
// ordinary C++ lambdas against Atomic<T>/Plain<T> handles.  Atomic<T> has
// the std::atomic load / store / compare_exchange_strong surface, so a
// body can call production templates unchanged: the propagation kernels
// run maxreg::propagate_twice (ruco/maxreg/propagate.h) itself over
// Atomic<Value> cells.
//
// The explorer needs to run a thread up to its Nth shared-memory
// operation with *chosen* results for the first N-1.  Bodies are plain
// functions, so this is done by re-execution: each step re-runs the body
// from the top against a per-thread script of previously decided
// operation results; the first operation past the script is captured and
// a PauseSignal unwinds the stack.  Bodies must therefore be
// deterministic functions of the values their shared-memory reads
// return (the shim verifies this by replaying the script's op
// descriptors and rejecting divergence).
//
// observe(v) records a value into the execution's outcome tuple -- the
// litmus analogue of "r1 = ...; exists (r1 = 0 /\ ...)".
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ruco/wmm/execution.h"

namespace ruco::wmm {

/// One shared-memory operation as the body requests it (before the
/// explorer decides its result).
struct OpDesc {
  EventKind kind = EventKind::kFence;
  LocId loc = 0;
  std::memory_order order = std::memory_order_seq_cst;
  std::memory_order fail_order = std::memory_order_seq_cst;  // CAS only
  Value store_value = 0;  // stores; CAS desired
  Value expected = 0;     // CAS
  bool operator==(const OpDesc&) const = default;
};

/// The explorer's decision for one operation.
struct OpResult {
  Value value = 0;  // load result / CAS observed value
  bool cas_ok = false;
};

struct OpRecord {
  OpDesc desc;
  OpResult result;
};

/// Thrown by the shim to unwind a body at its first undecided operation.
/// Never escapes Program::run_thread.
struct PauseSignal {};

namespace detail {

struct ThreadCtx {
  const std::vector<OpRecord>* script = nullptr;
  std::size_t cursor = 0;
  OpDesc pending;
  bool paused = false;
  std::vector<Value>* observations = nullptr;

  /// Replay-or-pause: returns the scripted result for this op, or
  /// records it as pending and throws PauseSignal.
  OpResult issue(const OpDesc& desc);
};

ThreadCtx*& current_ctx();

OpResult issue_op(const OpDesc& desc);
void record_observation(Value v);

}  // namespace detail

template <typename T>
class Atomic {
 public:
  Atomic() = default;

  T load(std::memory_order order) const {
    OpDesc d;
    d.kind = EventKind::kLoad;
    d.loc = loc_;
    d.order = order;
    return static_cast<T>(detail::issue_op(d).value);
  }

  void store(T v, std::memory_order order) const {
    OpDesc d;
    d.kind = EventKind::kStore;
    d.loc = loc_;
    d.order = order;
    d.store_value = static_cast<Value>(v);
    detail::issue_op(d);
  }

  bool compare_exchange_strong(T& expected, T desired, std::memory_order ok,
                               std::memory_order fail) const {
    OpDesc d;
    d.kind = EventKind::kRmw;
    d.loc = loc_;
    d.order = ok;
    d.fail_order = fail;
    d.expected = static_cast<Value>(expected);
    d.store_value = static_cast<Value>(desired);
    const OpResult r = detail::issue_op(d);
    if (!r.cas_ok) expected = static_cast<T>(r.value);
    return r.cas_ok;
  }

 private:
  friend class Program;
  explicit Atomic(LocId loc) : loc_{loc} {}
  LocId loc_ = 0;
};

/// Non-atomic shared location: accesses are race-checked, not ordered.
template <typename T>
class Plain {
 public:
  Plain() = default;

  T load() const {
    OpDesc d;
    d.kind = EventKind::kPlainLoad;
    d.loc = loc_;
    return static_cast<T>(detail::issue_op(d).value);
  }

  void store(T v) const {
    OpDesc d;
    d.kind = EventKind::kPlainStore;
    d.loc = loc_;
    d.store_value = static_cast<Value>(v);
    detail::issue_op(d);
  }

 private:
  friend class Program;
  explicit Plain(LocId loc) : loc_{loc} {}
  LocId loc_ = 0;
};

inline void fence(std::memory_order order) {
  OpDesc d;
  d.kind = EventKind::kFence;
  d.order = order;
  detail::issue_op(d);
}

/// Record a local result into the execution's outcome tuple.
inline void observe(Value v) { detail::record_observation(v); }

class Program {
 public:
  template <typename T>
  Atomic<T> atomic(std::string name, T init) {
    return Atomic<T>{add_location(std::move(name),
                                  static_cast<Value>(init), true)};
  }

  template <typename T>
  Plain<T> plain(std::string name, T init) {
    return Plain<T>{add_location(std::move(name),
                                 static_cast<Value>(init), false)};
  }

  ThreadId thread(std::function<void()> body) {
    bodies_.push_back(std::move(body));
    return static_cast<ThreadId>(bodies_.size() - 1);
  }

  const std::vector<LocInfo>& locations() const { return locs_; }
  std::size_t num_threads() const { return bodies_.size(); }

  struct ThreadStep {
    bool completed = false;
    OpDesc op;  // valid when !completed
  };

  /// Re-run thread `t` against `script`; return its next undecided
  /// operation, or completed.  Throws std::logic_error if the body
  /// diverges from the script (non-deterministic body).
  ThreadStep run_thread(ThreadId t,
                        const std::vector<OpRecord>& script) const;

  /// Run a *completed* thread to collect its observe() values.
  std::vector<Value> collect_observations(
      ThreadId t, const std::vector<OpRecord>& script) const;

 private:
  LocId add_location(std::string name, Value init, bool atomic);

  std::vector<LocInfo> locs_;
  std::vector<std::function<void()>> bodies_;
};

}  // namespace ruco::wmm
