#include "ruco/telemetry/registry.h"

namespace ruco::telemetry {

detail::Slab* detail::new_slab() {
  Registry& r = Registry::global();
  std::lock_guard<std::mutex> lock(r.mu_);
  r.slabs_.push_back(std::make_unique<Slab>());
  tls_slab = r.slabs_.back().get();
  return tls_slab;
}

Registry& Registry::global() noexcept {
  // Leaked on purpose: slabs must outlive every static destructor and
  // exiting thread that may still count.
  static Registry* const g = new Registry();
  return *g;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  for (std::size_t i = 0; i < kNumMetrics; ++i) {
    snap.metrics[i].domain = kMetricNames[i].domain;
    snap.metrics[i].name = kMetricNames[i].name;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& slab : slabs_) {
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
      snap.metrics[i].value +=
          slab->cells[i].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

const MetricSnapshot* Snapshot::find(std::string_view domain,
                                     std::string_view name) const {
  for (const MetricSnapshot& m : metrics) {
    if (m.domain == domain && m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace ruco::telemetry
