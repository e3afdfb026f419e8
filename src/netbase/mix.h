// Counter-based draws: the splitmix64 finalizer over a keyed combination.
//
// mix() is a pure function, so a draw keyed on (seed, key, n) comes out
// the same whatever was drawn before it, and costs no generator state.
// The runtime seeds its probe stacks with it, and the probe engines key
// every random reply on it (DESIGN.md §8); net::Rng (netbase/rng.h)
// streams the substrate generator's draws instead.
#pragma once

#include <cstdint>

namespace bdrmap::net {

inline std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t z = a ^ (b * 0x9e3779b97f4a7c15ULL) ^
                    ((c + 1) * 0xbf58476d1ce4e5b9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// A mix() draw mapped onto [0, 1) (its top 53 bits).
inline double unit_draw(std::uint64_t draw) {
  return static_cast<double>(draw >> 11) * 0x1.0p-53;
}

}  // namespace bdrmap::net
