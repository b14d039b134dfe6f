// Spans recorded by the benchmark's own code around its calls into each
// layer of the repository (nothing inside src/ is instrumented).
//
// A span is (name, layer, id, parent, start, end, thread).  Every thread
// appends to its own buffer, so recording takes no lock; the buffers are
// drained by the main thread between rounds, when no traced thread runs.
// Parents are passed explicitly because a span's parent often lives on
// another thread (a worker's window under the main thread's phase, a
// lincheck verdict under the model checker's call).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The repository modules a span can belong to, plus the benchmark itself.
enum class Layer : std::uint8_t {
  kBench,
  kRuntime,
  kMaxreg,
  kCounter,
  kSnapshot,
  kSim,
  kSimalgos,
  kLincheck,
  kWmm,
};
inline constexpr std::size_t kNumLayers = 9;
[[nodiscard]] const char* layer_name(Layer layer);

struct Span {
  const char* name = "";  // static or interned: outlives every span
  Layer layer = Layer::kBench;
  std::uint32_t thread = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

namespace trace {

/// Turns recording on or off for the following spans (set by the main
/// thread while no traced thread runs).
void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// A fresh span id (never 0).  Ids are drawn from a per-thread block, so
/// workers never contend on a shared counter.
[[nodiscard]] std::uint64_t next_id();

/// Stable copy of a dynamic span name.
[[nodiscard]] const char* intern(const std::string& name);

/// Appends a finished span to the calling thread's buffer.
void record(const char* name, Layer layer, std::uint64_t id,
            std::uint64_t parent, std::int64_t start_ns, std::int64_t end_ns);

/// Moves every thread's spans out.  Only while no traced thread runs.
[[nodiscard]] std::vector<Span> drain();

/// Per-layer self time in seconds, summed over threads: each span's
/// duration minus the part of it its children cover, added to its layer.
[[nodiscard]] std::array<double, kNumLayers> self_time_s(
    const std::vector<Span>& spans);

/// Writes the spans as a Perfetto / chrome://tracing JSON timeline, one
/// track per thread, timestamps relative to `origin_ns`.  At most
/// `per_thread_cap` spans per thread are written.  Returns "" on success.
[[nodiscard]] std::string write_timeline(const std::vector<Span>& spans,
                                         std::int64_t origin_ns,
                                         std::size_t per_thread_cap,
                                         const std::string& path);

}  // namespace trace

/// Records one span from construction to destruction when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Layer layer, std::uint64_t parent)
      : name_{name},
        layer_{layer},
        id_{trace::enabled() ? trace::next_id() : 0},
        parent_{parent},
        start_{id_ != 0 ? now_ns() : 0} {}
  ~ScopedSpan() {
    if (id_ != 0) trace::record(name_, layer_, id_, parent_, start_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  Layer layer_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::int64_t start_;
};

}  // namespace perfbench
