// Fixture: BDR104 — node-based containers and naked new inside a
// BDRMAP_HOT_BEGIN/END region, plus a region that is never closed.
#include <list>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace bdrmap::route {

inline int cold_path() {
  std::map<int, int> fine;  // outside any hot region: allowed
  return static_cast<int>(fine.size());
}

// BDRMAP_HOT_BEGIN(fixture_walk)
inline int hot_path() {
  std::map<int, int> tree;          // BDR104
  std::unordered_map<int, int> h;   // BDR104
  std::list<int> nodes;             // BDR104
  std::set<int> ordered;            // BDR104
  std::unordered_set<int> seen;     // BDR104
  int* leak = new int(7);           // BDR104
  int v = *leak + static_cast<int>(tree.size() + h.size() + nodes.size() +
                                   ordered.size() + seen.size());
  delete leak;
  return v;
}
// BDRMAP_HOT_END(fixture_walk)

// BDRMAP_HOT_BEGIN(never_closed)
inline int tail_path() { return 0; }

}  // namespace bdrmap::route
