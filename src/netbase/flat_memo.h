// An insert-only memo from a 32-bit key (an address or a dense id) to a
// small value, held in one flat array (DESIGN.md §14).
//
// Open addressing with linear probing at a load factor of at most one
// half: no node per entry, and the table grows by doubling, so n inserts
// allocate O(log n) times. Nothing iterates it, so the slot order never
// reaches a result. It is the per-probe-stack memo (probe::TracerouteEngine's
// reach and egress memos, core::AliasResolver's Mercator sources).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bdrmap::net {

template <typename V>
class FlatMemo {
 public:
  // The value stored under `key`, or nullptr.
  const V* find(std::uint32_t key) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == key) return &s.value;
    }
  }

  // Stores key -> value unless `key` is present; returns the stored value.
  const V& insert(std::uint32_t key, V value) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (!s.used) {
        s = {key, true, std::move(value)};
        ++size_;
        return s.value;
      }
      if (s.key == key) return s.value;
    }
  }

  std::size_t size() const { return size_; }

 private:
  struct Slot {
    std::uint32_t key = 0;
    bool used = false;
    V value{};
  };
  static constexpr int kInitialBits = 4;  // 16 slots

  std::size_t mask() const { return slots_.size() - 1; }
  // Fibonacci hashing onto the top bits: the low bits of addresses and
  // ids are the ones that vary.
  std::size_t home(std::uint32_t key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >>
        (64 - bits_));
  }
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    bits_ = old.empty() ? kInitialBits : bits_ + 1;
    slots_.assign(std::size_t{1} << bits_, Slot{});
    for (Slot& s : old) {
      if (!s.used) continue;
      std::size_t i = home(s.key);
      while (slots_[i].used) i = (i + 1) & mask();
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;  // a power of two long, or empty
  int bits_ = 0;             // log2(slots_.size())
  std::size_t size_ = 0;
};

}  // namespace bdrmap::net
