#include "remote/protocol.h"

#include <array>

namespace bdrmap::remote {

const char* proto_err_name(ProtoErr e) {
  switch (e) {
    case ProtoErr::kTruncated:
      return "truncated message";
    case ProtoErr::kBadMagic:
      return "bad frame magic";
    case ProtoErr::kBadCrc:
      return "frame checksum mismatch";
    case ProtoErr::kBadType:
      return "unexpected message type";
    case ProtoErr::kUnknownType:
      return "unknown message type";
    case ProtoErr::kTrailingBytes:
      return "trailing bytes after message";
  }
  return "protocol error";
}

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

MsgType Frame::type() const {
  if (payload.empty()) throw ProtocolError(ProtoErr::kTruncated);
  std::uint8_t t = payload.front();
  if (t < static_cast<std::uint8_t>(MsgType::kTraceReq) ||
      t > static_cast<std::uint8_t>(MsgType::kAliasTestResp)) {
    throw ProtocolError(ProtoErr::kUnknownType);
  }
  return static_cast<MsgType>(t);
}

std::vector<std::uint8_t> seal_frame(std::uint32_t session, std::uint32_t seq,
                                     const std::vector<std::uint8_t>& payload) {
  Writer w;
  w.u8(kFrameMagic);
  w.u32(session);
  w.u32(seq);
  std::vector<std::uint8_t> out = w.take();
  out.insert(out.end(), payload.begin(), payload.end());
  std::uint32_t crc = crc32(out.data(), out.size());
  Writer tail;
  tail.u32(crc);
  auto tail_bytes = tail.take();
  out.insert(out.end(), tail_bytes.begin(), tail_bytes.end());
  return out;
}

Frame open_frame(const std::vector<std::uint8_t>& wire) {
  if (wire.size() < kFrameOverhead) throw ProtocolError(ProtoErr::kTruncated);
  if (wire.front() != kFrameMagic) throw ProtocolError(ProtoErr::kBadMagic);
  std::size_t body = wire.size() - 4;
  std::uint32_t want = (static_cast<std::uint32_t>(wire[body]) << 24) |
                       (static_cast<std::uint32_t>(wire[body + 1]) << 16) |
                       (static_cast<std::uint32_t>(wire[body + 2]) << 8) |
                       static_cast<std::uint32_t>(wire[body + 3]);
  if (crc32(wire.data(), body) != want) {
    throw ProtocolError(ProtoErr::kBadCrc);
  }
  Frame f;
  f.session = (static_cast<std::uint32_t>(wire[1]) << 24) |
              (static_cast<std::uint32_t>(wire[2]) << 16) |
              (static_cast<std::uint32_t>(wire[3]) << 8) |
              static_cast<std::uint32_t>(wire[4]);
  f.seq = (static_cast<std::uint32_t>(wire[5]) << 24) |
          (static_cast<std::uint32_t>(wire[6]) << 16) |
          (static_cast<std::uint32_t>(wire[7]) << 8) |
          static_cast<std::uint32_t>(wire[8]);
  f.payload.assign(wire.begin() + 9, wire.begin() + body);
  return f;
}

namespace {

void expect_type(Reader& r, MsgType want) {
  if (r.u8() != static_cast<std::uint8_t>(want)) {
    throw ProtocolError(ProtoErr::kBadType);
  }
}

}  // namespace

std::vector<std::uint8_t> encode_trace_req(net::Ipv4Addr dst) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kTraceReq));
  w.addr(dst);
  return w.take();
}

net::Ipv4Addr decode_trace_req(const std::vector<std::uint8_t>& buf) {
  Reader r(buf);
  expect_type(r, MsgType::kTraceReq);
  net::Ipv4Addr dst = r.addr();
  r.expect_done();
  return dst;
}

std::vector<std::uint8_t> encode_trace_resp(const probe::TraceResult& t) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kTraceResp));
  w.addr(t.dst);
  w.u8(t.reached_dst ? 1 : 0);
  w.u16(static_cast<std::uint16_t>(t.hops.size()));
  for (const auto& hop : t.hops) {
    w.addr(hop.addr);
    w.u8(static_cast<std::uint8_t>(hop.kind));
  }
  return w.take();
}

probe::TraceResult decode_trace_resp(const std::vector<std::uint8_t>& buf) {
  Reader r(buf);
  expect_type(r, MsgType::kTraceResp);
  probe::TraceResult t;
  t.dst = r.addr();
  t.reached_dst = r.u8() != 0;
  std::uint16_t count = r.u16();
  t.hops.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    probe::TraceHop hop;
    hop.addr = r.addr();
    hop.kind = static_cast<probe::ReplyKind>(r.u8());
    t.hops.push_back(hop);
  }
  r.expect_done();
  return t;
}

std::vector<std::uint8_t> encode_udp_req(net::Ipv4Addr a) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kUdpReq));
  w.addr(a);
  return w.take();
}

std::vector<std::uint8_t> encode_udp_resp(std::optional<net::Ipv4Addr> src) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kUdpResp));
  w.u8(src ? 1 : 0);
  w.addr(src.value_or(net::Ipv4Addr{}));
  return w.take();
}

std::optional<net::Ipv4Addr> decode_udp_resp(
    const std::vector<std::uint8_t>& buf) {
  Reader r(buf);
  expect_type(r, MsgType::kUdpResp);
  bool has = r.u8() != 0;
  net::Ipv4Addr a = r.addr();
  r.expect_done();
  if (!has) return std::nullopt;
  return a;
}

std::vector<std::uint8_t> encode_ipid_req(net::Ipv4Addr a, double t) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kIpidReq));
  w.addr(a);
  w.f64(t);
  return w.take();
}

std::vector<std::uint8_t> encode_ipid_resp(std::optional<std::uint16_t> id) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kIpidResp));
  w.u8(id ? 1 : 0);
  w.u16(id.value_or(0));
  return w.take();
}

std::optional<std::uint16_t> decode_ipid_resp(
    const std::vector<std::uint8_t>& buf) {
  Reader r(buf);
  expect_type(r, MsgType::kIpidResp);
  bool has = r.u8() != 0;
  std::uint16_t id = r.u16();
  r.expect_done();
  if (!has) return std::nullopt;
  return id;
}

std::vector<std::uint8_t> encode_ts_req(net::Ipv4Addr path_dst,
                                        net::Ipv4Addr candidate) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kTsReq));
  w.addr(path_dst);
  w.addr(candidate);
  return w.take();
}

std::vector<std::uint8_t> encode_ts_resp(std::optional<bool> stamped) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kTsResp));
  w.u8(stamped ? 1 : 0);
  w.u8(stamped.value_or(false) ? 1 : 0);
  return w.take();
}

std::optional<bool> decode_ts_resp(const std::vector<std::uint8_t>& buf) {
  Reader r(buf);
  expect_type(r, MsgType::kTsResp);
  bool has = r.u8() != 0;
  bool stamped = r.u8() != 0;
  r.expect_done();
  if (!has) return std::nullopt;
  return stamped;
}

std::vector<std::uint8_t> encode_alias_test_req(std::uint64_t key) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kAliasTestReq));
  w.u32(static_cast<std::uint32_t>(key >> 32));
  w.u32(static_cast<std::uint32_t>(key));
  return w.take();
}

std::uint64_t decode_alias_test_req(const std::vector<std::uint8_t>& buf) {
  Reader r(buf);
  expect_type(r, MsgType::kAliasTestReq);
  const std::uint64_t hi = r.u32();
  const std::uint64_t key = (hi << 32) | r.u32();
  r.expect_done();
  return key;
}

std::vector<std::uint8_t> encode_alias_test_resp() {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kAliasTestResp));
  return w.take();
}

void decode_alias_test_resp(const std::vector<std::uint8_t>& buf) {
  Reader r(buf);
  expect_type(r, MsgType::kAliasTestResp);
  r.expect_done();
}

std::vector<std::uint8_t> encode_hello_req() {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kHelloReq));
  return w.take();
}

std::vector<std::uint8_t> encode_hello_resp(std::uint32_t session) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kHelloResp));
  w.u32(session);
  return w.take();
}

std::uint32_t decode_hello_resp(const std::vector<std::uint8_t>& buf) {
  Reader r(buf);
  expect_type(r, MsgType::kHelloResp);
  std::uint32_t session = r.u32();
  r.expect_done();
  return session;
}

std::vector<std::uint8_t> encode_error(ErrCode code) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kError));
  w.u8(static_cast<std::uint8_t>(code));
  return w.take();
}

ErrCode decode_error(const std::vector<std::uint8_t>& buf) {
  Reader r(buf);
  expect_type(r, MsgType::kError);
  std::uint8_t code = r.u8();
  r.expect_done();
  if (code < static_cast<std::uint8_t>(ErrCode::kMalformedRequest) ||
      code > static_cast<std::uint8_t>(ErrCode::kStaleSeq)) {
    throw ProtocolError(ProtoErr::kUnknownType);
  }
  return static_cast<ErrCode>(code);
}

}  // namespace bdrmap::remote
