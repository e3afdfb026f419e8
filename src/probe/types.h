// Probe-level observation types shared by the probe engine, the inference
// core, and the remote (split prober/controller) deployment.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "netbase/ids.h"
#include "netbase/ipv4.h"

namespace bdrmap::probe {

using net::Ipv4Addr;

enum class ReplyKind : std::uint8_t {
  kNone,             // * — no response
  kTimeExceeded,     // ICMP time exceeded (the hop addresses bdrmap trusts)
  kEchoReply,        // ICMP echo reply (source == probed address, §4)
  kDestUnreachable,  // ICMP destination unreachable
};

struct TraceHop {
  Ipv4Addr addr;  // zero when kind == kNone
  ReplyKind kind = ReplyKind::kNone;
  // Ground-truth annotation for evaluation ONLY — the inference core never
  // reads it (eval:: uses it to score where each reply really came from).
  net::RouterId truth_router;
};

struct TraceResult {
  Ipv4Addr dst;
  std::vector<TraceHop> hops;
  bool reached_dst = false;     // destination itself replied
  bool stopped_by_stopset = false;  // doubletree stop set halted the trace
  // The probe could not be executed at all (§5.8 degraded channel: the
  // controller abandoned it after its retry budget). No observation was
  // made — distinct from a trace whose hops were all silent.
  bool failed = false;
};

// Predicate the driver passes in: "stop probing past this address" —
// doubletree's stop set (§5.3). Evaluated on responsive hop addresses.
using StopFn = std::function<bool(Ipv4Addr)>;

// The probing capabilities a measurement device exposes. The pipeline
// (core::collect_blocks, core::run_tail) is written against this interface
// so the same inference code runs on a monolithic prober
// (probe::LocalProbeServices) or the split low-resource deployment of §5.8
// (remote::RemoteProbeServices). Every reply is a pure function of the
// stack's seed, what is probed and the forwarding state, never of what the
// stack probed before: runtime::MultiVpExecutor seeds every stack of a VP
// with the VP's seed, so it may build one per (VP, target-AS) slice and
// one per inference tail, or, as the §5.8 split does, hand one stack to
// all of them.
class ProbeServices {
 public:
  virtual ~ProbeServices() = default;

  // Paris traceroute with ICMP echo probes toward `dst`.
  virtual TraceResult trace(Ipv4Addr dst, const StopFn& stop) = 0;

  // UDP probe to a high port (Mercator): the source address of the ICMP
  // port-unreachable reply, if the router answers. A pure function of
  // (stack seed, addr) and the forwarding state.
  virtual std::optional<Ipv4Addr> udp_probe(Ipv4Addr addr) = 0;

  // ICMP echo probe reading the IP-ID of the reply at virtual time `t`
  // seconds (Ally sampling).
  virtual std::optional<std::uint16_t> ipid_sample(Ipv4Addr addr,
                                                   double t) = 0;

  // Starts one alias measurement (one pair test) keyed by `key`: the
  // IP-ID counters restart with no replies sent, and the ipid_sample calls
  // that follow draw from (stack seed, key). A measurement's replies then depend only on the
  // seed, the key, its own (addr, t) sequence and the forwarding state,
  // not on what the stack measured before (DESIGN.md §8).
  virtual void begin_alias_test(std::uint64_t key) = 0;

  // Routing footprints (DESIGN.md §13): the route::Fib keys of every
  // forwarding decision and resolution a probe read. While `sink` is set,
  // each trace() appends the keys of its walk and of the replies sourced
  // toward the VP; nullptr stops recording. A memoized read records when it
  // fills the memo, so set the sink before the stack's first probe.
  // runtime::MultiVpExecutor records one per slice it keeps.
  virtual void record_footprint(std::vector<std::uint64_t>* sink) = 0;

  // Appends the keys every udp_probe / ipid_sample of `addr` reads: the
  // walk that decides whether probes reach it and its router's egress
  // toward the VP. core::AliasEvidence keeps one per probed address.
  virtual void addr_footprint(Ipv4Addr addr,
                              std::vector<std::uint64_t>& out) = 0;

  // Number of probe packets sent so far (run-time accounting, §5.3).
  virtual std::uint64_t probes_sent() const = 0;
};

}  // namespace bdrmap::probe
