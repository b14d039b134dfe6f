#include "trace.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>

#include "ruco/telemetry/timeline.h"

namespace perfbench {

const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, kNumLayers> kNames{
      "bench", "runtime",  "maxreg",   "counter", "snapshot",
      "sim",   "simalgos", "lincheck", "wmm"};
  return kNames[static_cast<std::size_t>(layer)];
}

namespace trace {
namespace {

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_thread{1};

std::mutex g_mu;  // guards g_buffers and g_names
std::vector<std::unique_ptr<Buffer>> g_buffers;
std::set<std::string> g_names;

thread_local Buffer* t_buffer = nullptr;
thread_local std::uint64_t t_next_id = 0;

Buffer& local_buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    g_buffers.back()->thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
    t_buffer = g_buffers.back().get();
  }
  return *t_buffer;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t next_id() {
  if (t_next_id == 0) {
    t_next_id = g_next_thread.fetch_add(1, std::memory_order_relaxed) << 40;
  }
  return t_next_id++;
}

const char* intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_names.insert(name).first->c_str();
}

void record(const char* name, Layer layer, std::uint64_t id,
            std::uint64_t parent, std::int64_t start_ns,
            std::int64_t end_ns) {
  Buffer& b = local_buffer();
  b.spans.push_back(Span{name, layer, b.thread, id, parent, start_ns, end_ns});
}

std::vector<Span> drain() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> out;
  for (auto& b : g_buffers) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    std::vector<Span>().swap(b->spans);
  }
  return out;
}

std::array<double, kNumLayers> self_time_s(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::array<double, kNumLayers> out{};
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const Span& s : spans) {
    covered.clear();
    if (const auto c = children.find(s.id); c != children.end()) {
      for (const std::size_t ci : c->second) {
        const std::int64_t lo = std::max(spans[ci].start_ns, s.start_ns);
        const std::int64_t hi = std::min(spans[ci].end_ns, s.end_ns);
        if (lo < hi) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) union_ns += hi - from;
      reach = std::max(reach, hi);
    }
    out[static_cast<std::size_t>(s.layer)] +=
        static_cast<double>(s.end_ns - s.start_ns - union_ns) * 1e-9;
  }
  return out;
}

std::string write_timeline(const std::vector<Span>& spans,
                           std::int64_t origin_ns, std::size_t per_thread_cap,
                           const std::string& path) {
  std::map<std::uint32_t, std::vector<const Span*>> tracks;
  for (const Span& s : spans) tracks[s.thread].push_back(&s);
  const auto us = [origin_ns](std::int64_t ns) {
    return static_cast<std::uint64_t>(std::max<std::int64_t>(ns - origin_ns, 0) /
                                      1000);
  };
  ruco::telemetry::TimelineWriter w;
  constexpr std::uint32_t kPid = 1;
  w.set_process_name(kPid, "perfbench");
  for (auto& [thread, list] : tracks) {
    std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                        : a->end_ns > b->end_ns;
    });
    if (list.size() > per_thread_cap) list.resize(per_thread_cap);
    w.set_thread_name(kPid, thread, "thread " + std::to_string(thread));
    for (const Span* s : list) {
      w.complete(kPid, thread, s->name, us(s->start_ns),
                 us(s->end_ns) - us(s->start_ns),
                 std::string{"{\"layer\":\""} + layer_name(s->layer) +
                     "\",\"id\":" + std::to_string(s->id) +
                     ",\"parent\":" + std::to_string(s->parent) + "}");
    }
  }
  if (std::string err = w.validate(); !err.empty()) return err;
  return w.write_file(path) ? "" : "cannot write " + path;
}

}  // namespace trace
}  // namespace perfbench
