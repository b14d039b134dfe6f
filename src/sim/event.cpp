#include "ruco/sim/event.h"

#include <sstream>

namespace ruco::sim {

const char* to_string(Prim p) noexcept {
  switch (p) {
    case Prim::kRead:
      return "read";
    case Prim::kWrite:
      return "write";
    case Prim::kCas:
      return "cas";
    case Prim::kKcas:
      return "kcas";
  }
  return "?";
}

std::string Event::to_string() const {
  std::ostringstream s;
  s << 'p' << proc << ' ' << sim::to_string(prim);
  if (prim != Prim::kKcas) s << " o" << obj;
  switch (prim) {
    case Prim::kRead:
      s << " -> " << observed;
      break;
    case Prim::kWrite:
      s << " := " << arg;
      break;
    case Prim::kCas:
      s << '(' << expected << " -> " << arg << ") = "
        << (observed != 0 ? "ok" : "fail");
      break;
    case Prim::kKcas:
      for (const auto& entry : kcas) {
        s << " o" << entry.obj << '(' << entry.expected << "->"
          << entry.desired << ')';
      }
      s << " = " << (observed != 0 ? "ok" : "fail");
      break;
  }
  if (spurious) s << " [spurious]";
  if (!changed) s << " [trivial]";
  return s.str();
}

Trace erase_processes(const Trace& trace, const std::vector<bool>& erase) {
  Trace out;
  out.reserve(trace.size());
  for (const Event& e : trace) {
    if (e.proc < erase.size() && erase[e.proc]) continue;
    out.push_back(e);
  }
  return out;
}

}  // namespace ruco::sim
