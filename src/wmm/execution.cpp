#include "ruco/wmm/execution.h"

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <stdexcept>

namespace ruco::wmm {

namespace {

constexpr std::uint64_t bit(EventId e) { return std::uint64_t{1} << e; }

// In-place transitive closure of a row-bitmask relation (Warshall over
// uint64 rows): after the call, r[i] is the set of events reachable from
// i in one or more steps.
void close(std::vector<std::uint64_t>& r) {
  const std::size_t n = r.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t row_k = r[k];
    for (std::size_t i = 0; i < n; ++i) {
      if ((r[i] >> k) & 1U) r[i] |= row_k;
    }
  }
}

// c = a ; b  (composition: c[i] = union of b[j] for j in a[i]).
std::vector<std::uint64_t> compose(const std::vector<std::uint64_t>& a,
                                   const std::vector<std::uint64_t>& b) {
  const std::size_t n = a.size();
  std::vector<std::uint64_t> c(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t m = a[i];
    while (m != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctzll(m));
      m &= m - 1;
      c[i] |= b[j];
    }
  }
  return c;
}

void merge(std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] |= b[i];
}

bool has_reflexive(const std::vector<std::uint64_t>& reach) {
  for (std::size_t i = 0; i < reach.size(); ++i) {
    if ((reach[i] >> i) & 1U) return true;
  }
  return false;
}

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kInit: return "init";
    case EventKind::kLoad: return "load";
    case EventKind::kStore: return "store";
    case EventKind::kRmw: return "rmw";
    case EventKind::kFence: return "fence";
    case EventKind::kPlainLoad: return "plain-load";
    case EventKind::kPlainStore: return "plain-store";
  }
  return "?";
}

std::string to_string(std::memory_order order) {
  switch (order) {
    case std::memory_order_relaxed: return "rlx";
    case std::memory_order_consume: return "cns";
    case std::memory_order_acquire: return "acq";
    case std::memory_order_release: return "rel";
    case std::memory_order_acq_rel: return "acq_rel";
    case std::memory_order_seq_cst: return "sc";
  }
  return "?";
}

Graph::Graph(const std::vector<LocInfo>* locs) : locs_(locs) {
  if (locs_->size() > kMaxEvents) {
    throw std::invalid_argument{"wmm: too many locations"};
  }
  stores_.resize(locs_->size());
  for (LocId l = 0; l < locs_->size(); ++l) {
    Event e;
    e.id = static_cast<EventId>(events_.size());
    e.thread = kInitThread;
    e.index = l;
    e.kind = EventKind::kInit;
    e.loc = l;
    e.value_written = (*locs_)[l].init;
    init_mask_ |= bit(e.id);
    hb_.push_back(0);  // init events have no predecessors
    stores_[l].push_back(e.id);
    events_.push_back(e);
  }
}

Value Graph::final_value(LocId loc) const {
  return events_[stores_[loc].back()].value_written;
}

std::vector<Value> Graph::mo_values(LocId loc) const {
  std::vector<Value> out;
  out.reserve(stores_[loc].size());
  for (EventId s : stores_[loc]) out.push_back(events_[s].value_written);
  return out;
}

EventId Graph::rmw_reader(LocId loc, EventId store) const {
  for (EventId s : stores_[loc]) {
    if (events_[s].kind == EventKind::kRmw && events_[s].rf == store) return s;
  }
  return kNoEvent;
}

bool Graph::store_pos_ok(LocId loc, std::size_t pos) const {
  const auto& mo = stores_[loc];
  if (pos == 0 || pos > mo.size()) return false;  // never before init
  if (pos < mo.size()) {
    // Inserting here would place the new store between mo[pos-1] and
    // mo[pos]; forbidden when mo[pos] is an RMW reading mo[pos-1]
    // (ATOMICITY requires RMWs adjacent to their source).
    const Event& succ = events_[mo[pos]];
    if (succ.kind == EventKind::kRmw && succ.rf == mo[pos - 1]) return false;
  }
  return true;
}

EventId Graph::new_event(ThreadId t, std::uint32_t index, EventKind kind,
                         LocId loc, std::memory_order order) {
  if (!can_add_event()) {
    throw std::runtime_error{
        "wmm: program exceeds the 64-event graph budget; shrink the litmus"};
  }
  Event e;
  e.id = static_cast<EventId>(events_.size());
  e.thread = t;
  e.index = index;
  e.kind = kind;
  e.loc = loc;
  e.order = order;
  seed_hb(e);
  events_.push_back(e);
  return e.id;
}

void Graph::seed_hb(Event& e) {
  // sb from the thread's previous event, plus "init before everything".
  std::uint64_t mask = init_mask_;
  if (e.thread >= thread_last_.size()) {
    thread_last_.resize(e.thread + 1, kNoEvent);
  }
  const EventId prev = thread_last_[e.thread];
  if (prev != kNoEvent) mask |= hb_[prev] | bit(prev);
  thread_last_[e.thread] = e.id;
  hb_.push_back(mask);
}

std::uint64_t Graph::release_heads(EventId store) const {
  // Walk the release-sequence chain backwards from `store` (through the
  // RMWs it extends) and collect every synchronizes-with source an
  // acquire of `store` picks up: release-or-stronger chain members, plus
  // release fences sequenced before a chain member in its own thread.
  std::uint64_t heads = 0;
  EventId cur = store;
  while (cur != kNoEvent) {
    const Event& w = events_[cur];
    if (w.kind == EventKind::kInit) break;
    if (is_release_order(w.order)) heads |= bit(cur);
    for (const Event& f : events_) {
      if (f.kind == EventKind::kFence && f.thread == w.thread &&
          f.index < w.index && is_release_order(f.order)) {
        heads |= bit(f.id);
      }
    }
    cur = (w.kind == EventKind::kRmw) ? w.rf : kNoEvent;
  }
  return heads;
}

void Graph::add_acquire_edges(Event& e) {
  if (e.rf == kNoEvent) return;
  const std::uint64_t heads = release_heads(e.rf);
  if (heads == 0) return;
  // Acquire read: sw directly.  Relaxed read: an acquire fence sequenced
  // *after* it in the same thread will pick the edge up -- handled when
  // that fence is created (add_fence).
  if (!is_acquire_order(e.order)) return;
  std::uint64_t m = heads;
  while (m != 0) {
    const unsigned h = static_cast<unsigned>(__builtin_ctzll(m));
    m &= m - 1;
    hb_[e.id] |= hb_[h] | bit(h);
  }
}

EventId Graph::add_load(ThreadId t, std::uint32_t index, LocId loc,
                        std::memory_order order, EventId rf, bool cas_fail) {
  const EventId id = new_event(t, index, EventKind::kLoad, loc, order);
  Event& e = events_[id];
  e.rf = rf;
  e.cas_fail = cas_fail;
  e.value_read = events_[rf].value_written;
  add_acquire_edges(e);
  return id;
}

EventId Graph::add_store(ThreadId t, std::uint32_t index, LocId loc,
                         std::memory_order order, Value v, std::size_t mo_pos) {
  const EventId id = new_event(t, index, EventKind::kStore, loc, order);
  events_[id].value_written = v;
  auto& mo = stores_[loc];
  mo.insert(mo.begin() + static_cast<std::ptrdiff_t>(mo_pos), id);
  return id;
}

EventId Graph::add_rmw(ThreadId t, std::uint32_t index, LocId loc,
                       std::memory_order order, EventId rf, Value desired) {
  const EventId id = new_event(t, index, EventKind::kRmw, loc, order);
  Event& e = events_[id];
  e.rf = rf;
  e.value_read = events_[rf].value_written;
  e.value_written = desired;
  add_acquire_edges(e);
  // ATOMICITY by construction: the RMW's write goes immediately after its
  // read source in mo, and store_pos_ok() keeps later inserts out.
  auto& mo = stores_[loc];
  for (std::size_t i = 0; i < mo.size(); ++i) {
    if (mo[i] == rf) {
      mo.insert(mo.begin() + static_cast<std::ptrdiff_t>(i) + 1, id);
      return id;
    }
  }
  throw std::logic_error{"wmm: rmw source not in modification order"};
}

EventId Graph::add_fence(ThreadId t, std::uint32_t index,
                         std::memory_order order) {
  const EventId id = new_event(t, index, EventKind::kFence, 0, order);
  if (is_acquire_order(order)) {
    // Acquire fence: synchronizes-with the release heads of every store
    // read by a sequenced-before atomic load of this thread.
    for (const Event& p : events_) {
      if (p.thread != t || p.index >= index || p.rf == kNoEvent) continue;
      if (p.kind != EventKind::kLoad && p.kind != EventKind::kRmw) continue;
      std::uint64_t m = release_heads(p.rf);
      while (m != 0) {
        const unsigned h = static_cast<unsigned>(__builtin_ctzll(m));
        m &= m - 1;
        hb_[id] |= hb_[h] | bit(h);
      }
    }
  }
  return id;
}

EventId Graph::add_plain_store(ThreadId t, std::uint32_t index, LocId loc,
                               Value v) {
  const EventId id = new_event(t, index, EventKind::kPlainStore, loc,
                               std::memory_order_relaxed);
  events_[id].value_written = v;
  stores_[loc].push_back(id);  // creation order only; plain locs have no mo
  return id;
}

EventId Graph::add_plain_load(ThreadId t, std::uint32_t index, LocId loc) {
  const EventId id = new_event(t, index, EventKind::kPlainLoad, loc,
                               std::memory_order_relaxed);
  Event& e = events_[id];
  // A plain load's hb past is fixed at creation (sw sources always
  // precede it), so the set of visible writes is already final: take the
  // hb-maximal one.  If two visible writes are hb-unordered that is a
  // write-write race and race() reports it; the value is then arbitrary.
  const std::uint64_t visible = hb_[id];
  EventId best = kNoEvent;
  for (EventId w : stores_[loc]) {
    if ((visible & bit(w)) == 0) continue;
    if (best == kNoEvent || (hb_[w] & bit(best)) != 0) best = w;
  }
  if (best == kNoEvent) {
    throw std::logic_error{"wmm: plain load with no visible write"};
  }
  e.rf = best;
  e.value_read = events_[best].value_written;
  return id;
}

bool Graph::consistent() const {
  const std::size_t n = events_.size();

  // eco = (rf | mo | fr)+ as reachability rows.
  std::vector<std::uint64_t> eco(n, 0);
  for (const Event& e : events_) {
    if (e.rf != kNoEvent && e.kind != EventKind::kPlainLoad) {
      eco[e.rf] |= bit(e.id);  // rf
    }
  }
  for (LocId l = 0; l < locs_->size(); ++l) {
    if (!(*locs_)[l].atomic) continue;
    const auto& mo = stores_[l];
    for (std::size_t i = 0; i < mo.size(); ++i) {
      for (std::size_t j = i + 1; j < mo.size(); ++j) {
        eco[mo[i]] |= bit(mo[j]);  // mo
      }
    }
  }
  std::vector<std::uint64_t> fr(n, 0);
  for (const Event& e : events_) {
    if (e.rf == kNoEvent || e.kind == EventKind::kPlainLoad) continue;
    const auto& mo = stores_[e.loc];
    bool after = false;
    for (EventId w : mo) {
      if (after && w != e.id) fr[e.id] |= bit(w);  // fr = rf^-1 ; mo \ id
      if (w == e.rf) after = true;
    }
  }
  merge(eco, fr);
  close(eco);

  // COHERENCE: irreflexive(hb ; eco?).  hb itself is irreflexive by
  // construction, so check only (hb ; eco): some y with an event both
  // hb-before y and eco-reachable from y.
  for (std::size_t y = 0; y < n; ++y) {
    if ((hb_[y] & eco[y]) != 0) return false;
  }

  // ATOMICITY: the explorer constructs RMWs adjacent to their sources
  // and guards later inserts, but re-assert to keep the checker honest.
  for (const Event& e : events_) {
    if (e.kind != EventKind::kRmw) continue;
    const auto& mo = stores_[e.loc];
    bool adjacent = false;
    for (std::size_t i = 0; i + 1 < mo.size(); ++i) {
      if (mo[i] == e.rf && mo[i + 1] == e.id) adjacent = true;
    }
    if (!adjacent) return false;
  }

  // SC: acyclic(psc_base | psc_F), RC11 definitions.
  auto is_sc_access = [&](const Event& e) {
    return e.order == std::memory_order_seq_cst &&
           e.kind != EventKind::kFence && e.kind != EventKind::kInit;
  };
  auto is_sc_fence = [&](const Event& e) {
    return e.kind == EventKind::kFence &&
           e.order == std::memory_order_seq_cst;
  };
  bool any_sc = false;
  for (const Event& e : events_) {
    if (is_sc_access(e) || is_sc_fence(e)) any_sc = true;
  }
  if (!any_sc) return true;

  std::vector<std::uint64_t> sb(n, 0);
  for (const Event& a : events_) {
    for (const Event& b : events_) {
      if (a.thread != kInitThread && a.thread == b.thread &&
          a.index < b.index) {
        sb[a.id] |= bit(b.id);
      }
    }
  }
  std::vector<std::uint64_t> hbm(n, 0);  // hb as forward reachability
  for (std::size_t y = 0; y < n; ++y) {
    std::uint64_t m = hb_[y];
    while (m != 0) {
      const unsigned x = static_cast<unsigned>(__builtin_ctzll(m));
      m &= m - 1;
      hbm[x] |= bit(static_cast<EventId>(y));
    }
  }
  auto same_loc = [&](const Event& a, const Event& b) {
    return a.has_loc() && b.has_loc() && a.loc == b.loc &&
           (*locs_)[a.loc].atomic;
  };
  std::vector<std::uint64_t> sbneq(n, 0), hbloc(n, 0);
  for (const Event& a : events_) {
    std::uint64_t m = sb[a.id];
    while (m != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctzll(m));
      m &= m - 1;
      if (!same_loc(a, events_[j])) sbneq[a.id] |= bit(j);
    }
    m = hbm[a.id];
    while (m != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctzll(m));
      m &= m - 1;
      if (same_loc(a, events_[j])) hbloc[a.id] |= bit(j);
    }
  }
  // scb = sb | sb|!=loc ; hb ; sb|!=loc | hb|loc | mo | fr.
  std::vector<std::uint64_t> scb = sb;
  merge(scb, compose(sbneq, compose(hbm, sbneq)));
  merge(scb, hbloc);
  for (LocId l = 0; l < locs_->size(); ++l) {
    if (!(*locs_)[l].atomic) continue;
    const auto& mo = stores_[l];
    for (std::size_t i = 0; i < mo.size(); ++i) {
      for (std::size_t j = i + 1; j < mo.size(); ++j) {
        scb[mo[i]] |= bit(mo[j]);
      }
    }
  }
  merge(scb, fr);

  // psc_base = ([SC] | [F_SC];hb?) ; scb ; ([SC] | hb?;[F_SC]).
  std::vector<std::uint64_t> hbq = hbm;  // hb?
  for (std::size_t i = 0; i < n; ++i) hbq[i] |= bit(static_cast<EventId>(i));
  std::vector<std::uint64_t> a_out(n, 0), a_in(n, 0);
  for (const Event& e : events_) {
    if (is_sc_access(e)) {
      a_out[e.id] |= bit(e.id);
      a_in[e.id] |= bit(e.id);
    }
    if (is_sc_fence(e)) {
      a_out[e.id] |= hbq[e.id];  // [F_SC] ; hb?
      // hb? ; [F_SC]: any x with hb?(x, fence) gets an in-edge to fence.
      for (std::size_t x = 0; x < n; ++x) {
        if ((hbq[x] & bit(e.id)) != 0) a_in[x] |= bit(e.id);
      }
    }
  }
  std::vector<std::uint64_t> psc = compose(a_out, compose(scb, a_in));

  // psc_F = [F_SC] ; (hb | hb;eco;hb) ; [F_SC].
  std::vector<std::uint64_t> hb_eco_hb = compose(hbm, compose(eco, hbm));
  merge(hb_eco_hb, hbm);
  for (const Event& a : events_) {
    if (!is_sc_fence(a)) continue;
    std::uint64_t m = hb_eco_hb[a.id];
    while (m != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctzll(m));
      m &= m - 1;
      if (is_sc_fence(events_[j])) psc[a.id] |= bit(j);
    }
  }
  close(psc);
  return !has_reflexive(psc);
}

std::optional<std::string> Graph::race() const {
  for (const Event& a : events_) {
    if (a.kind != EventKind::kPlainLoad && a.kind != EventKind::kPlainStore) {
      continue;
    }
    for (const Event& b : events_) {
      if (b.id <= a.id) continue;
      if (b.kind != EventKind::kPlainLoad && b.kind != EventKind::kPlainStore) {
        continue;
      }
      if (a.loc != b.loc || a.thread == b.thread) continue;
      if (a.kind == EventKind::kPlainLoad && b.kind == EventKind::kPlainLoad) {
        continue;
      }
      const bool ordered =
          (hb_[b.id] & bit(a.id)) != 0 || (hb_[a.id] & bit(b.id)) != 0;
      if (!ordered) {
        return "data race on plain location '" + (*locs_)[a.loc].name +
               "': " + label(a.id) + " and " + label(b.id) +
               " are unordered by happens-before";
      }
    }
  }
  return std::nullopt;
}

std::string Graph::signature() const {
  // Canonical order: init events first, then by (thread, index) -- the
  // same graph reached through different interleavings serialises
  // identically, which is what lets the DFS merge schedules.
  std::vector<EventId> order;
  order.reserve(events_.size());
  for (const Event& e : events_) order.push_back(e.id);
  std::sort(order.begin(), order.end(), [&](EventId x, EventId y) {
    const Event& a = events_[x];
    const Event& b = events_[y];
    const bool ai = a.thread == kInitThread;
    const bool bi = b.thread == kInitThread;
    if (ai != bi) return ai;
    if (a.thread != b.thread) return a.thread < b.thread;
    return a.index < b.index;
  });
  std::vector<EventId> canon(events_.size(), kNoEvent);
  for (std::size_t i = 0; i < order.size(); ++i) {
    canon[order[i]] = static_cast<EventId>(i);
  }
  std::ostringstream out;
  for (EventId id : order) {
    const Event& e = events_[id];
    out << static_cast<int>(e.kind) << ',' << e.thread << ',' << e.loc << ','
        << static_cast<int>(e.order) << ',' << e.value_read << ','
        << e.value_written << ','
        << (e.rf == kNoEvent ? -1 : static_cast<long>(canon[e.rf])) << ','
        << e.cas_fail << ';';
  }
  for (const auto& mo : stores_) {
    out << '|';
    for (EventId s : mo) out << canon[s] << ',';
  }
  return out.str();
}

std::string Graph::label(EventId id) const {
  const Event& e = events_[id];
  if (e.thread == kInitThread) return "init(" + (*locs_)[e.loc].name + ")";
  std::ostringstream out;
  out << 'T' << e.thread << '.' << e.index;
  return out.str();
}

std::string Graph::render() const {
  std::ostringstream out;
  std::uint32_t max_thread = 0;
  for (const Event& e : events_) {
    if (e.thread != kInitThread && e.thread + 1 > max_thread) {
      max_thread = e.thread + 1;
    }
  }
  for (ThreadId t = 0; t < max_thread; ++t) {
    out << "thread T" << t << ":\n";
    for (const Event& e : events_) {
      if (e.thread != t) continue;
      out << "  " << label(e.id) << ": " << to_string(e.kind);
      if (e.has_loc()) out << ' ' << (*locs_)[e.loc].name;
      if (e.is_write()) out << '=' << e.value_written;
      if (e.is_read() && e.kind != EventKind::kRmw) {
        out << "->" << e.value_read;
      }
      if (e.kind == EventKind::kRmw) {
        out << " (read " << e.value_read << ")";
      }
      if (e.cas_fail) out << " (failed cas)";
      if (e.kind != EventKind::kPlainLoad && e.kind != EventKind::kPlainStore) {
        out << " [" << to_string(e.order) << ']';
      }
      if (e.rf != kNoEvent) out << " rf=" << label(e.rf);
      out << '\n';
    }
  }
  for (LocId l = 0; l < locs_->size(); ++l) {
    out << ((*locs_)[l].atomic ? "mo(" : "writes(") << (*locs_)[l].name
        << "):";
    for (EventId s : stores_[l]) {
      out << ' ' << label(s) << ':' << events_[s].value_written;
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace ruco::wmm
