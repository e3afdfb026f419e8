// Stable LSD radix sort over an unsigned integer key of each element.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bdrmap::net {

// Sorts `items` by the low `key_bits` bits of key(item), 11 bits a pass.
// Stable: elements with equal keys keep their order. Linear in the size.
template <typename T, typename KeyFn>
void radix_sort(std::vector<T>& items, int key_bits, KeyFn key) {
  constexpr int kBits = 11;
  constexpr std::uint64_t kMask = (std::uint64_t{1} << kBits) - 1;
  std::vector<T> out(items.size());
  for (int shift = 0; shift < key_bits; shift += kBits) {
    std::array<std::size_t, kMask + 2> start{};
    for (const T& x : items) {
      ++start[((static_cast<std::uint64_t>(key(x)) >> shift) & kMask) + 1];
    }
    for (std::size_t b = 0; b <= kMask; ++b) start[b + 1] += start[b];
    for (const T& x : items) {
      out[start[(static_cast<std::uint64_t>(key(x)) >> shift) & kMask]++] = x;
    }
    items.swap(out);
  }
}

}  // namespace bdrmap::net
