#include "remote/split.h"

#include <algorithm>

#include "netbase/contract.h"

namespace bdrmap::remote {

// --- ProberDevice ---

std::vector<std::uint8_t> ProberDevice::handle_frame(
    const std::vector<std::uint8_t>& wire) {
  Frame f;
  try {
    f = open_frame(wire);
  } catch (const ProtocolError&) {
    // The session/seq of a damaged frame cannot be trusted; NACK with seq 0
    // and let the controller retransmit.
    return seal_frame(session_, 0, encode_error(ErrCode::kMalformedRequest));
  }
  MsgType type;
  try {
    type = f.type();
  } catch (const ProtocolError&) {
    return seal_frame(session_, f.seq,
                      encode_error(ErrCode::kMalformedRequest));
  }
  if (type == MsgType::kHelloReq) {
    session_ = next_session_++;
    cache_valid_ = false;
    cached_response_.clear();
    return seal_frame(session_, f.seq, encode_hello_resp(session_));
  }
  if (session_ == 0 || f.session != session_) {
    return seal_frame(session_, f.seq, encode_error(ErrCode::kBadSession));
  }
  if (cache_valid_ && f.seq == cached_seq_) {
    // Retransmit of the request we just answered: replay the cached frame
    // without re-probing (idempotency).
    return cached_response_;
  }
  if (cache_valid_ && f.seq < cached_seq_) {
    return seal_frame(session_, f.seq, encode_error(ErrCode::kStaleSeq));
  }
  cached_response_ = seal_frame(session_, f.seq, handle(f.payload));
  cached_seq_ = f.seq;
  cache_valid_ = true;
  return cached_response_;
}

std::vector<std::uint8_t> ProberDevice::handle(
    const std::vector<std::uint8_t>& request) {
  try {
    Reader r(request);
    switch (static_cast<MsgType>(r.u8())) {
      case MsgType::kTraceReq: {
        net::Ipv4Addr dst = r.addr();
        r.expect_done();
        // The device runs the plain trace; stop-set state lives with the
        // controller, which truncates the result.
        probe::TraceResult t = services_.trace(dst, nullptr);
        return encode_trace_resp(t);
      }
      case MsgType::kUdpReq: {
        net::Ipv4Addr a = r.addr();
        r.expect_done();
        return encode_udp_resp(services_.udp_probe(a));
      }
      case MsgType::kIpidReq: {
        net::Ipv4Addr a = r.addr();
        double t = r.f64();
        r.expect_done();
        return encode_ipid_resp(services_.ipid_sample(a, t));
      }
      case MsgType::kAliasTestReq: {
        services_.begin_alias_test(decode_alias_test_req(request));
        return encode_alias_test_resp();
      }
      case MsgType::kTsReq: {
        net::Ipv4Addr path_dst = r.addr();
        net::Ipv4Addr candidate = r.addr();
        r.expect_done();
        return encode_ts_resp(services_.timestamp_probe(path_dst, candidate));
      }
      default:
        return encode_error(ErrCode::kUnknownRequest);
    }
  } catch (const ProtocolError&) {
    return encode_error(ErrCode::kMalformedRequest);
  }
}

void ProberDevice::crash() {
  session_ = 0;
  cache_valid_ = false;
  cached_response_.clear();
  ++restarts_;
}

// --- RemoteProbeServices ---

RemoteProbeServices::RemoteProbeServices(ProberDevice& device)
    : owned_(std::make_unique<DirectChannel>(device)),
      channel_(owned_.get()),
      rng_(cfg_.seed) {}

RemoteProbeServices::RemoteProbeServices(Channel& channel,
                                         ResilienceConfig config)
    : channel_(&channel), cfg_(config), rng_(config.seed) {
  if (cfg_.metrics) {
    retransmits_ = cfg_.metrics->counter("remote.retransmits");
    timeouts_ = cfg_.metrics->counter("remote.timeouts");
    corrupt_frames_ = cfg_.metrics->counter("remote.corrupt_frames");
    stale_frames_ = cfg_.metrics->counter("remote.stale_frames");
    breaker_fast_fails_ = cfg_.metrics->counter("remote.breaker_fast_fails");
    probe_failures_ = cfg_.metrics->counter("remote.probe_failures");
    device_restarts_ = cfg_.metrics->counter("remote.device_restarts");
  }
}

void RemoteProbeServices::backoff(int attempt) {
  double base =
      cfg_.backoff_base_s *
      static_cast<double>(1ull << std::min(attempt - 1, 16));
  base = std::min(base, cfg_.backoff_max_s);
  double jitter = base * cfg_.backoff_jitter;
  channel_->clock().advance(base + rng_.uniform_real(-jitter, jitter));
}

bool RemoteProbeServices::handshake() {
  ChannelStats& st = channel_->stats();
  std::uint32_t seq = next_seq_++;
  auto hello = encode_hello_req();
  for (int attempt = 0; attempt < cfg_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++st.retransmits;
      retransmits_.inc();
      backoff(attempt);
    }
    auto raw = channel_->roundtrip(seal_frame(0, seq, hello),
                                   cfg_.request_timeout_s);
    if (!raw) {
      ++st.timeouts;
      timeouts_.inc();
      continue;
    }
    try {
      Frame f = open_frame(*raw);
      if (f.seq != seq || f.type() != MsgType::kHelloResp) {
        ++st.stale_frames_discarded;
        stale_frames_.inc();
        continue;
      }
      session_ = decode_hello_resp(f.payload);
    } catch (const ProtocolError&) {
      ++st.corrupt_frames_detected;
      corrupt_frames_.inc();
      continue;
    }
    if (had_session_) {
      ++st.device_restarts;
      device_restarts_.inc();
    }
    had_session_ = true;
    return true;
  }
  return false;
}

std::optional<std::vector<std::uint8_t>> RemoteProbeServices::request(
    const std::vector<std::uint8_t>& payload) {
  ChannelStats& st = channel_->stats();
  VirtualClock& clock = channel_->clock();
  if (breaker_open_ && clock.now < breaker_open_until_) {
    ++st.breaker_fast_fails;
    breaker_fast_fails_.inc();
    ++st.probe_failures;
    probe_failures_.inc();
    return std::nullopt;
  }
  // Either closed or half-open (cooldown elapsed): attempt the request.
  std::uint32_t seq = next_seq_++;
  for (int attempt = 0; attempt < cfg_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++st.retransmits;
      retransmits_.inc();
      backoff(attempt);
    }
    if (session_ == 0 && !handshake()) continue;
    auto raw = channel_->roundtrip(seal_frame(session_, seq, payload),
                                   cfg_.request_timeout_s);
    if (!raw) {
      ++st.timeouts;
      timeouts_.inc();
      continue;
    }
    Frame f;
    MsgType type;
    try {
      f = open_frame(*raw);
      type = f.type();
    } catch (const ProtocolError&) {
      ++st.corrupt_frames_detected;
      corrupt_frames_.inc();
      continue;
    }
    if (type == MsgType::kError) {
      ErrCode code;
      try {
        code = decode_error(f.payload);
      } catch (const ProtocolError&) {
        ++st.corrupt_frames_detected;
        corrupt_frames_.inc();
        continue;
      }
      if (code == ErrCode::kBadSession) {
        // Device restarted and lost the session; re-handshake on the next
        // attempt and replay the request under the new session.
        session_ = 0;
      } else if (code == ErrCode::kMalformedRequest) {
        // Our request was damaged in flight; the device detected it.
        ++st.corrupt_frames_detected;
        corrupt_frames_.inc();
      }
      continue;
    }
    if (f.session != session_ || f.seq != seq) {
      // Reordered/stale frame from an earlier exchange.
      ++st.stale_frames_discarded;
      stale_frames_.inc();
      continue;
    }
    consecutive_failures_ = 0;
    breaker_open_ = false;
    return std::move(f.payload);
  }
  ++st.probe_failures;
  probe_failures_.inc();
  if (++consecutive_failures_ >= cfg_.breaker_threshold) {
    breaker_open_ = true;
    breaker_open_until_ = clock.now + cfg_.breaker_cooldown_s;
  }
  return std::nullopt;
}

probe::TraceResult RemoteProbeServices::trace(net::Ipv4Addr dst,
                                              const probe::StopFn& stop) {
  probe::TraceResult t;
  auto payload = request(encode_trace_req(dst));
  bool decoded = false;
  if (payload) {
    try {
      t = decode_trace_resp(*payload);
      decoded = true;
    } catch (const ProtocolError&) {
      ++channel_->stats().corrupt_frames_detected;
      corrupt_frames_.inc();
    corrupt_frames_.inc();
    }
  }
  if (!decoded) {
    t.dst = dst;
    t.failed = true;
    return t;
  }
  if (!stop) return t;
  // Controller-side doubletree: truncate at the first hop the stop set
  // covers, as the monolithic prober would have stopped there.
  for (std::size_t i = 0; i < t.hops.size(); ++i) {
    if (t.hops[i].kind != probe::ReplyKind::kNone && stop(t.hops[i].addr)) {
      t.hops.resize(i + 1);
      t.reached_dst = false;
      t.stopped_by_stopset = true;
      break;
    }
  }
  return t;
}

std::optional<net::Ipv4Addr> RemoteProbeServices::udp_probe(
    net::Ipv4Addr addr) {
  auto payload = request(encode_udp_req(addr));
  if (!payload) return std::nullopt;
  try {
    return decode_udp_resp(*payload);
  } catch (const ProtocolError&) {
    ++channel_->stats().corrupt_frames_detected;
    corrupt_frames_.inc();
    return std::nullopt;
  }
}

std::optional<std::uint16_t> RemoteProbeServices::ipid_sample(
    net::Ipv4Addr addr, double t) {
  auto payload = request(encode_ipid_req(addr, t));
  if (!payload) return std::nullopt;
  try {
    return decode_ipid_resp(*payload);
  } catch (const ProtocolError&) {
    ++channel_->stats().corrupt_frames_detected;
    corrupt_frames_.inc();
    return std::nullopt;
  }
}

void RemoteProbeServices::begin_alias_test(std::uint64_t key) {
  auto payload = request(encode_alias_test_req(key));
  if (!payload) return;
  try {
    decode_alias_test_resp(*payload);
  } catch (const ProtocolError&) {
    ++channel_->stats().corrupt_frames_detected;
    corrupt_frames_.inc();
  }
}

std::optional<bool> RemoteProbeServices::timestamp_probe(
    net::Ipv4Addr path_dst, net::Ipv4Addr candidate) {
  auto payload = request(encode_ts_req(path_dst, candidate));
  if (!payload) return std::nullopt;
  try {
    return decode_ts_resp(*payload);
  } catch (const ProtocolError&) {
    ++channel_->stats().corrupt_frames_detected;
    corrupt_frames_.inc();
    return std::nullopt;
  }
}

void RemoteProbeServices::reseed(std::uint64_t seed) {
  (void)seed;
  BDRMAP_EXPECTS(false,
                 "RemoteProbeServices cannot reseed: the prober state lives "
                 "on the device");
}

}  // namespace bdrmap::remote
