// What bdrmap observed: the collected traces and per-address annotations.
//
// Everything the inference heuristics consume lives here or in the §5.2
// input datasets — never in topo::Internet. TraceHop's ground-truth router
// annotation is dropped at this boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <vector>

#include "netbase/ids.h"
#include "netbase/ipv4.h"
#include "probe/types.h"

namespace bdrmap::core {

using net::AsId;
using net::Ipv4Addr;

struct ObservedHop {
  Ipv4Addr addr;  // zero for non-replies
  probe::ReplyKind kind = probe::ReplyKind::kNone;
};

struct ObservedTrace {
  Ipv4Addr dst;
  AsId target_as;  // origin AS of the probed block
  std::vector<ObservedHop> hops;
  bool reached_dst = false;
  bool stopped_by_stopset = false;
};

// An immutable, indexable run of traces held as shared parts (DESIGN.md
// §14). A collected slice's traces are one part; appending another run
// shares its parts and never copies a trace, so a VP's inference tail, the
// RouterGraph it builds and the BdrmapResult that owns the graph read the
// very objects runtime::SliceStore keeps. A part is freed with the last run
// that holds it. Copying a SharedTraces copies part handles and the
// per-trace index only. Implicitly constructible from a vector of traces
// (taken as one part), so tests and offline tools pass vectors as before.
class SharedTraces {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = ObservedTrace;
    using difference_type = std::ptrdiff_t;
    using pointer = const ObservedTrace*;
    using reference = const ObservedTrace&;

    const_iterator() = default;
    reference operator*() const { return **at_; }
    pointer operator->() const { return *at_; }
    const_iterator& operator++() {
      ++at_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++at_;
      return old;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class SharedTraces;
    explicit const_iterator(const ObservedTrace* const* at) : at_(at) {}
    const ObservedTrace* const* at_ = nullptr;
  };

  SharedTraces() = default;
  /*implicit*/ SharedTraces(std::vector<ObservedTrace> traces) {
    if (traces.empty()) return;
    // A part lives as long as a store or a result holds it: drop the
    // vector's growth slack first.
    traces.shrink_to_fit();
    auto part =
        std::make_shared<const std::vector<ObservedTrace>>(std::move(traces));
    index_.reserve(part->size());
    for (const ObservedTrace& t : *part) index_.push_back(&t);
    parts_.push_back(std::move(part));
  }
  /*implicit*/ SharedTraces(std::initializer_list<ObservedTrace> traces)
      : SharedTraces(std::vector<ObservedTrace>(traces)) {}

  std::size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }
  const ObservedTrace& operator[](std::size_t t) const { return *index_[t]; }
  const_iterator begin() const { return const_iterator(index_.data()); }
  const_iterator end() const {
    return const_iterator(index_.data() + index_.size());
  }

  // Appends `other`'s traces after these by sharing its parts.
  void append(const SharedTraces& other) {
    parts_.insert(parts_.end(), other.parts_.begin(), other.parts_.end());
    index_.insert(index_.end(), other.index_.begin(), other.index_.end());
  }

 private:
  std::vector<std::shared_ptr<const std::vector<ObservedTrace>>> parts_;
  std::vector<const ObservedTrace*> index_;  // trace t lives at *index_[t]
};

// A probe the measurement channel abandoned (§5.8 degraded deployment):
// the pipeline records the target instead of silently omitting it, so the
// final report can flag which blocks went unmeasured.
struct ProbeFailure {
  Ipv4Addr dst;
  AsId target_as;
};

// Strips the ground-truth annotations from an engine-level trace.
inline ObservedTrace observe(const probe::TraceResult& t, AsId target_as) {
  ObservedTrace out;
  out.dst = t.dst;
  out.target_as = target_as;
  out.reached_dst = t.reached_dst;
  out.stopped_by_stopset = t.stopped_by_stopset;
  out.hops.reserve(t.hops.size());
  for (const auto& h : t.hops) out.hops.push_back({h.addr, h.kind});
  return out;
}

}  // namespace bdrmap::core
