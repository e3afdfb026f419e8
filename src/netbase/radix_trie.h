// Binary radix (Patricia-style) trie keyed by IPv4 prefix, supporting
// longest-prefix-match lookup. This is the central data structure behind
// IP-to-AS mapping: every traceroute hop address is resolved to the origin
// AS of the longest matching BGP prefix (§4 of the paper).
//
// The trie stores one optional value per node; match(addr) walks from /0
// toward /32 remembering the deepest node with a value. Insertion is
// idempotent per prefix (last writer wins unless insert_if_absent is used).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "netbase/prefix.h"

namespace bdrmap::net {

template <typename T>
class RadixTrie {
 public:
  RadixTrie() : root_(std::make_unique<Node>()) {}

  // Inserts (or overwrites) the value for `p`.
  void insert(const Prefix& p, T value) {
    Node* n = descend(p);
    n->value = std::move(value);
    if (!n->has_value) {
      n->has_value = true;
      ++size_;
    }
  }

  // Inserts only if `p` has no value yet; returns a reference to the stored
  // value either way (useful for accumulating sets, e.g. MOAS origin sets).
  T& insert_if_absent(const Prefix& p, T value) {
    Node* n = descend(p);
    if (!n->has_value) {
      n->value = std::move(value);
      n->has_value = true;
      ++size_;
    }
    return n->value;
  }

  // Longest-prefix match for a single address. Returns nullptr if nothing
  // covers `a`. If `matched` is non-null, receives the matching prefix.
  const T* match(Ipv4Addr a, Prefix* matched = nullptr) const {
    const Node* n = root_.get();
    const T* best = nullptr;
    std::uint8_t depth = 0;
    std::uint8_t best_depth = 0;
    std::uint32_t v = a.value();
    for (;;) {
      if (n->has_value) {
        best = &n->value;
        best_depth = depth;
      }
      if (depth == 32) break;
      const auto& child = (v >> (31 - depth)) & 1u ? n->one : n->zero;
      if (!child) break;
      n = child.get();
      ++depth;
    }
    if (best && matched) {
      *matched = Prefix(a, best_depth);
    }
    return best;
  }

  // Visits every (prefix, value) pair in lexicographic prefix order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    walk(root_.get(), Prefix(Ipv4Addr(0), 0), fn);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  struct Node {
    std::unique_ptr<Node> zero;
    std::unique_ptr<Node> one;
    T value{};
    bool has_value = false;
  };

  // The node of `p`, created with its path if missing.
  Node* descend(const Prefix& p) {
    Node* n = root_.get();
    std::uint32_t v = p.network().value();
    for (std::uint8_t depth = 0; depth < p.length(); ++depth) {
      auto& child = (v >> (31 - depth)) & 1u ? n->one : n->zero;
      if (!child) child = std::make_unique<Node>();
      n = child.get();
    }
    return n;
  }

  template <typename Fn>
  static void walk(const Node* n, Prefix at, Fn&& fn) {
    if (n->has_value) fn(at, n->value);
    if (at.length() == 32) return;
    if (n->zero) walk(n->zero.get(), at.lower_half(), fn);
    if (n->one) walk(n->one.get(), at.upper_half(), fn);
  }

  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
};

}  // namespace bdrmap::net
