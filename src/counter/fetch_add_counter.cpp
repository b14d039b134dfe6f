#include "ruco/counter/fetch_add_counter.h"

namespace ruco::counter {

Value FetchAddCounter::read(ProcId /*proc*/) const {
  return count_.load();
}

void FetchAddCounter::increment(ProcId /*proc*/) {
  count_.fetch_add(1);
}

}  // namespace ruco::counter
