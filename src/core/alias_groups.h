// Alias groups in one flat list: the partition core::AliasResolver::groups
// produces and core::RouterGraph seeds its routers from. Group g is
// members()[offsets g .. g + 1), so a partition of any size is two
// allocations, not one vector per group.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "netbase/ipv4.h"

namespace bdrmap::core {

using net::Ipv4Addr;

class AliasGroups {
 public:
  AliasGroups() = default;
  // Nested lists, for hand-built groups (tests, invariant fixtures).
  /*implicit*/ AliasGroups(
      std::initializer_list<std::vector<Ipv4Addr>> groups) {
    for (const std::vector<Ipv4Addr>& g : groups) add(g);
  }
  /*implicit*/ AliasGroups(
      const std::vector<std::vector<Ipv4Addr>>& groups) {
    for (const std::vector<Ipv4Addr>& g : groups) add(g);
  }
  // Takes the partition from a flat fill: `offsets` has one entry per
  // group plus the end, ascending from 0.
  AliasGroups(std::vector<std::uint32_t> offsets,
              std::vector<Ipv4Addr> members)
      : offsets_(std::move(offsets)), members_(std::move(members)) {}

  std::size_t size() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::span<const Ipv4Addr> operator[](std::size_t g) const {
    return {members_.data() + offsets_[g], offsets_[g + 1] - offsets_[g]};
  }
  // Every member of every group, group by group.
  std::span<const Ipv4Addr> members() const { return members_; }

  // Appends one group, its members in the given order.
  void add(std::span<const Ipv4Addr> group) {
    if (offsets_.empty()) offsets_.push_back(0);
    members_.insert(members_.end(), group.begin(), group.end());
    offsets_.push_back(static_cast<std::uint32_t>(members_.size()));
  }

  friend bool operator==(const AliasGroups& a, const AliasGroups& b) {
    return a.size() == b.size() && a.members_ == b.members_ &&
           (a.size() == 0 || a.offsets_ == b.offsets_);
  }

 private:
  std::vector<std::uint32_t> offsets_;  // empty, or size() + 1 entries
  std::vector<Ipv4Addr> members_;
};

}  // namespace bdrmap::core
