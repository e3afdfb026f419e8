// Fixture: BDR104 — a reader lock and a writer lock inside a
// BDRMAP_HOT_BEGIN/END region; the same locks in the cold fill are fine.
#include "netbase/sync.h"

namespace bdrmap::route {

struct Memo {
  net::SharedMutex mu;
  int value = 0;
};

inline int cold_fill(Memo& m) {
  net::MutexLock lk(m.mu);  // outside any hot region: allowed
  return ++m.value;
}

// BDRMAP_HOT_BEGIN(fixture_lookup)
inline int hot_read(Memo& m) {
  net::SharedLock lk(m.mu);  // BDR104
  return m.value;
}

inline int hot_write(Memo& m) {
  net::MutexLock lk(m.mu);  // BDR104
  return m.value;
}
// BDRMAP_HOT_END(fixture_lookup)

}  // namespace bdrmap::route
