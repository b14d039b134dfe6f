#include "ruco/telemetry/registry.h"

#include <sstream>
#include <stdexcept>

namespace ruco::telemetry {

namespace {

std::atomic<std::uint64_t> g_next_registry_id{1};

void append_json_string(std::ostringstream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default: out << c; break;
    }
  }
  out << '"';
}

}  // namespace

const char* to_string(Kind k) noexcept {
  switch (k) {
    case Kind::kCounter: return "counter";
    case Kind::kHistogram: return "histogram";
  }
  return "unknown";
}

Registry::Registry(std::uint32_t cell_capacity)
    : capacity_(cell_capacity),
      id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

Registry::~Registry() = default;

runtime::PaddedAtomic<std::uint64_t>* Registry::local_cells_slow() {
  auto& cache = detail::tls_slab_cache;
  // This thread has not touched this registry since it last used a
  // different one.  Allocate a fresh slab; if the thread ping-pongs
  // between registries it may own several slabs in the same registry, which
  // only costs memory -- snapshot() sums them all, so totals stay exact.
  std::lock_guard<std::mutex> lock(mu_);
  slabs_.push_back(std::make_unique<Slab>(capacity_));
  Slab* slab = slabs_.back().get();
  cache.registry_id = id_;
  cache.cells = slab->cells.data();
  return cache.cells;
}

void Counter::add_slow(std::uint64_t n) const noexcept {
  if (reg_ == nullptr) return;  // inert (default-constructed) handle
  auto& cell = reg_->local_cells_slow()[cell_].value;
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

void Histogram::record_slow(std::uint32_t cell_index) const noexcept {
  if (reg_ == nullptr) return;
  auto& cell = reg_->local_cells_slow()[cell_index].value;
  cell.store(cell.load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
}

std::uint32_t Registry::register_metric(std::string_view domain,
                                        std::string_view name, Kind kind,
                                        std::uint32_t cells) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::uint32_t i = 0; i < defs_.size(); ++i) {
    const MetricDef& d = defs_[i];
    if (d.domain == domain && d.name == name) {
      if (d.kind != kind || d.cells != cells) {
        throw std::invalid_argument("telemetry: metric '" +
                                    std::string(domain) + "/" +
                                    std::string(name) +
                                    "' re-registered with a different shape");
      }
      return i;
    }
  }
  MetricDef def;
  def.domain = std::string(domain);
  def.name = std::string(name);
  def.kind = kind;
  if (next_cell_ + cells > capacity_) {
    throw std::length_error(
        "telemetry: registry cell capacity exhausted (raise "
        "Registry::cell_capacity)");
  }
  def.first_cell = next_cell_;
  def.cells = cells;
  next_cell_ += cells;
  defs_.push_back(std::move(def));
  return static_cast<std::uint32_t>(defs_.size() - 1);
}

Counter Registry::counter(std::string_view domain, std::string_view name) {
  const std::uint32_t idx = register_metric(domain, name, Kind::kCounter, 1);
  Counter c;
  c.reg_ = this;
  c.reg_id_ = id_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    c.cell_ = defs_[idx].first_cell;
  }
  return c;
}

Histogram Registry::histogram(std::string_view domain, std::string_view name,
                              std::uint32_t buckets) {
  if (buckets == 0) {
    throw std::invalid_argument("telemetry: histogram needs >= 1 bucket");
  }
  const std::uint32_t idx =
      register_metric(domain, name, Kind::kHistogram, buckets + 1);
  Histogram h;
  h.reg_ = this;
  h.reg_id_ = id_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    h.first_cell_ = defs_[idx].first_cell;
    h.buckets_ = buckets;
  }
  return h;
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Sum every sharded cell across slabs once, then slice per metric.
  std::vector<std::uint64_t> totals(next_cell_, 0);
  for (const auto& slab : slabs_) {
    for (std::uint32_t i = 0; i < next_cell_; ++i) {
      totals[i] += slab->cells[i].value.load(std::memory_order_relaxed);
    }
  }
  Snapshot snap;
  snap.metrics.reserve(defs_.size());
  for (const MetricDef& d : defs_) {
    MetricSnapshot m;
    m.domain = d.domain;
    m.name = d.name;
    m.kind = d.kind;
    switch (d.kind) {
      case Kind::kCounter:
        m.value = totals[d.first_cell];
        break;
      case Kind::kHistogram: {
        const std::uint32_t buckets = d.cells - 1;
        m.buckets.assign(totals.begin() + d.first_cell,
                         totals.begin() + d.first_cell + buckets);
        m.overflow = totals[d.first_cell + buckets];
        m.value = m.overflow;
        for (std::uint64_t b : m.buckets) m.value += b;
        break;
      }
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

void Registry::reset() noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& slab : slabs_) {
    for (auto& cell : slab->cells) {
      cell.value.store(0, std::memory_order_relaxed);
    }
  }
}

std::size_t Registry::num_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return defs_.size();
}

Registry& Registry::global() noexcept {
  // Leaked on purpose: metric handles embedded in production objects must
  // outlive every static destructor and exiting thread.
  static Registry* const g = new Registry();
  return *g;
}

void Snapshot::merge(const Snapshot& other) {
  for (const MetricSnapshot& om : other.metrics) {
    MetricSnapshot* mine = nullptr;
    for (MetricSnapshot& m : metrics) {
      if (m.domain == om.domain && m.name == om.name && m.kind == om.kind) {
        mine = &m;
        break;
      }
    }
    if (mine == nullptr) {
      metrics.push_back(om);
      continue;
    }
    mine->value += om.value;
    mine->overflow += om.overflow;
    if (mine->buckets.size() < om.buckets.size()) {
      mine->buckets.resize(om.buckets.size(), 0);
    }
    for (std::size_t i = 0; i < om.buckets.size(); ++i) {
      mine->buckets[i] += om.buckets[i];
    }
  }
}

const MetricSnapshot* Snapshot::find(std::string_view domain,
                                     std::string_view name) const {
  for (const MetricSnapshot& m : metrics) {
    if (m.domain == domain && m.name == name) return &m;
  }
  return nullptr;
}

std::string Snapshot::to_json() const {
  std::ostringstream out;
  out << "{\"metrics\":[";
  bool first = true;
  for (const MetricSnapshot& m : metrics) {
    if (!first) out << ',';
    first = false;
    out << "{\"domain\":";
    append_json_string(out, m.domain);
    out << ",\"name\":";
    append_json_string(out, m.name);
    out << ",\"kind\":\"" << to_string(m.kind) << '"';
    switch (m.kind) {
      case Kind::kCounter:
        out << ",\"value\":" << m.value;
        break;
      case Kind::kHistogram:
        out << ",\"count\":" << m.value << ",\"buckets\":[";
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          if (i != 0) out << ',';
          out << m.buckets[i];
        }
        out << "],\"overflow\":" << m.overflow;
        break;
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

}  // namespace ruco::telemetry
