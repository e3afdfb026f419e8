// IPv4 prefix (CIDR block) value type and subnet arithmetic.
//
// Interdomain point-to-point links commonly use /30 or /31 subnets; the
// prefixscan alias-resolution heuristic (§5.3 of the paper) depends on
// computing the "subnet mate" of an address within such a subnet, which this
// header provides.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netbase/ipv4.h"

namespace bdrmap::net {

// An IPv4 CIDR prefix. The network address is stored canonically (host bits
// zeroed), so two Prefix objects compare equal iff they denote the same block.
class Prefix {
 public:
  constexpr Prefix() = default;

  // Canonicalizes: host bits of `addr` below `len` are cleared.
  constexpr Prefix(Ipv4Addr addr, std::uint8_t len)
      : addr_(Ipv4Addr(addr.value() & mask_for(len))), len_(len) {}

  // Parses "a.b.c.d/len". Returns nullopt on malformed input or len > 32.
  static std::optional<Prefix> parse(std::string_view text);

  constexpr Ipv4Addr network() const { return addr_; }
  constexpr std::uint8_t length() const { return len_; }

  // First/last address covered by the prefix.
  constexpr Ipv4Addr first() const { return addr_; }
  constexpr Ipv4Addr last() const {
    return Ipv4Addr(addr_.value() | ~mask_for(len_));
  }

  // Number of addresses covered (2^(32-len)); /0 reports 2^32 via uint64.
  constexpr std::uint64_t size() const {
    return std::uint64_t{1} << (32 - len_);
  }

  constexpr bool contains(Ipv4Addr a) const {
    return (a.value() & mask_for(len_)) == addr_.value();
  }
  // True iff `other` is equal to or nested inside this prefix.
  constexpr bool contains(const Prefix& other) const {
    return other.len_ >= len_ && contains(other.addr_);
  }

  // The two halves of this prefix (len+1). Precondition: len < 32.
  constexpr Prefix lower_half() const { return Prefix(addr_, len_ + 1); }
  constexpr Prefix upper_half() const {
    return Prefix(Ipv4Addr(addr_.value() | (1u << (31 - len_))),
                  static_cast<std::uint8_t>(len_ + 1));
  }

  std::string str() const;

  friend constexpr auto operator<=>(const Prefix&, const Prefix&) = default;

  static constexpr std::uint32_t mask_for(std::uint8_t len) {
    return len == 0 ? 0 : ~std::uint32_t{0} << (32 - len);
  }

 private:
  Ipv4Addr addr_;
  std::uint8_t len_ = 0;
};

// The other usable address of the /31 subnet containing `a`.
constexpr Ipv4Addr mate31(Ipv4Addr a) { return Ipv4Addr(a.value() ^ 1u); }

// The other usable address of the /30 subnet containing `a`, or nullopt if
// `a` is the network or broadcast address of its /30 (not a host address).
constexpr std::optional<Ipv4Addr> mate30(Ipv4Addr a) {
  switch (a.value() & 0x3u) {
    case 1:
      return Ipv4Addr(a.value() + 1);
    case 2:
      return Ipv4Addr(a.value() - 1);
    default:
      return std::nullopt;  // .0 network / .3 broadcast of the /30
  }
}

// Subtracts every prefix in `holes` from `whole`, returning the maximal
// CIDR blocks that cover whole minus the holes. Used when building the list
// of address blocks to probe (§5.3): if X originates 128.66.0.0/16 and Y
// originates the more-specific 128.66.2.0/24, X's probe blocks exclude Y's.
std::vector<Prefix> subtract(const Prefix& whole,
                             const std::vector<Prefix>& holes);
// subtract() appending its blocks to `out`, in no particular order.
void subtract_into(const Prefix& whole, const std::vector<Prefix>& holes,
                   std::vector<Prefix>& out);

}  // namespace bdrmap::net

template <>
struct std::hash<bdrmap::net::Prefix> {
  std::size_t operator()(const bdrmap::net::Prefix& p) const noexcept {
    std::uint64_t x =
        (std::uint64_t{p.network().value()} << 8) | p.length();
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
};
