// Fixture: BDR104 — a std::function inside a BDRMAP_HOT_BEGIN/END region;
// the same type outside any region, and a non-owning callable inside one,
// are fine.
#include <functional>

namespace bdrmap::core {

inline int cold_setup(const std::function<int(int)>& fn) {  // allowed
  return fn(1);
}

template <typename Fn>
int hot_sum(const Fn& fn, int n) {
  int total = 0;
  // BDRMAP_HOT_BEGIN(fixture_attempts)
  for (int i = 0; i < n; ++i) {
    std::function<int(int)> step = fn;  // BDR104
    total += step(i) + fn(i);
  }
  // BDRMAP_HOT_END(fixture_attempts)
  return total;
}

}  // namespace bdrmap::core
