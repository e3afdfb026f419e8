// Wire protocol between the low-resource prober and the central controller
// (§5.8 "Supporting resource-limited devices").
//
// The paper's deployment runs scamper on 400MHz/32MB devices and keeps all
// bdrmap state (origin tables, stop sets, alias candidates) on a central
// system; the device only executes individual measurement commands. The
// protocol here is a compact length-prefixed binary encoding so the bench
// can report bytes-on-the-wire and peak device state.
//
// Two layers:
//  - message payloads (encode_*/decode_*): one measurement command or
//    response each, starting with a MsgType byte;
//  - frames (seal_frame/open_frame): payload wrapped with a magic byte,
//    session id, sequence number and a trailing CRC32, so a real (lossy,
//    corrupting) channel can carry it. Corruption is *detected* — a frame
//    that fails to open raises a typed ProtocolError instead of being
//    trusted.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "netbase/ipv4.h"
#include "probe/types.h"

namespace bdrmap::remote {

enum class MsgType : std::uint8_t {
  kTraceReq = 1,
  kTraceResp = 2,
  kUdpReq = 3,
  kUdpResp = 4,
  kIpidReq = 5,
  kIpidResp = 6,
  kTsReq = 7,
  kTsResp = 8,
  kHelloReq = 9,    // (re-)establish a device session
  kHelloResp = 10,  // carries the granted session id
  kError = 11,      // negative acknowledgement, carries an ErrCode
  kAliasTestReq = 12,   // begin_alias_test: carries the 64-bit test key
  kAliasTestResp = 13,  // empty acknowledgement
};

// Why a frame or payload could not be accepted.
enum class ProtoErr : std::uint8_t {
  kTruncated,      // ran out of bytes mid-field
  kBadMagic,       // frame does not start with kFrameMagic
  kBadCrc,         // frame checksum mismatch (corruption detected)
  kBadType,        // payload type is not the one the decoder expected
  kUnknownType,    // payload type is outside the MsgType range
  kTrailingBytes,  // payload longer than its message
};

const char* proto_err_name(ProtoErr e);

// Typed protocol failure. Derives from std::runtime_error so pre-existing
// catch sites keep working; new code should catch ProtocolError and branch
// on code().
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(ProtoErr code)
      : std::runtime_error(proto_err_name(code)), code_(code) {}
  ProtoErr code() const { return code_; }

 private:
  ProtoErr code_;
};

// Application-level negative acknowledgement carried by a kError message.
enum class ErrCode : std::uint8_t {
  kMalformedRequest = 1,  // device could not parse the request payload
  kUnknownRequest = 2,    // request type the device does not implement
  kBadSession = 3,        // stale/unknown session id (device restarted)
  kStaleSeq = 4,          // duplicate of a request older than the cache
};

// Append-only byte writer.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    u32(static_cast<std::uint32_t>(bits >> 32));
    u32(static_cast<std::uint32_t>(bits));
  }
  void addr(net::Ipv4Addr a) { u32(a.value()); }

  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Sequential byte reader; throws ProtocolError(kTruncated) on a short
// buffer (malformed or corrupted peer).
class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  std::uint8_t u8() {
    if (pos_ >= buf_.size()) throw ProtocolError(ProtoErr::kTruncated);
    return buf_[pos_++];
  }
  std::uint16_t u16() {
    std::uint16_t hi = u8();
    return static_cast<std::uint16_t>((hi << 8) | u8());
  }
  std::uint32_t u32() {
    std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }
  double f64() {
    std::uint64_t bits = (static_cast<std::uint64_t>(u32()) << 32) | u32();
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
  net::Ipv4Addr addr() { return net::Ipv4Addr(u32()); }
  bool done() const { return pos_ == buf_.size(); }
  // Decoders call this last: leftover bytes mean the message was damaged
  // in a way the field reads did not catch.
  void expect_done() const {
    if (!done()) throw ProtocolError(ProtoErr::kTrailingBytes);
  }

 private:
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

// --- framing ---

inline constexpr std::uint8_t kFrameMagic = 0xB5;
// magic(1) + session(4) + seq(4) + crc(4)
inline constexpr std::size_t kFrameOverhead = 13;

// IEEE CRC32 (the scamper warts polynomial).
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

struct Frame {
  std::uint32_t session = 0;
  std::uint32_t seq = 0;
  std::vector<std::uint8_t> payload;

  // First payload byte; throws kTruncated on an empty payload and
  // kUnknownType when outside the MsgType range.
  MsgType type() const;
};

std::vector<std::uint8_t> seal_frame(std::uint32_t session, std::uint32_t seq,
                                     const std::vector<std::uint8_t>& payload);
// Throws ProtocolError (kTruncated / kBadMagic / kBadCrc) when the frame
// cannot be trusted.
Frame open_frame(const std::vector<std::uint8_t>& wire);

// --- message encodings ---

std::vector<std::uint8_t> encode_trace_req(net::Ipv4Addr dst);
net::Ipv4Addr decode_trace_req(const std::vector<std::uint8_t>& buf);
std::vector<std::uint8_t> encode_trace_resp(const probe::TraceResult& t);
probe::TraceResult decode_trace_resp(const std::vector<std::uint8_t>& buf);

std::vector<std::uint8_t> encode_udp_req(net::Ipv4Addr a);
std::vector<std::uint8_t> encode_udp_resp(std::optional<net::Ipv4Addr> src);
std::optional<net::Ipv4Addr> decode_udp_resp(
    const std::vector<std::uint8_t>& buf);

std::vector<std::uint8_t> encode_ipid_req(net::Ipv4Addr a, double t);
std::vector<std::uint8_t> encode_ipid_resp(std::optional<std::uint16_t> id);
std::optional<std::uint16_t> decode_ipid_resp(
    const std::vector<std::uint8_t>& buf);

std::vector<std::uint8_t> encode_ts_req(net::Ipv4Addr path_dst,
                                        net::Ipv4Addr candidate);
std::vector<std::uint8_t> encode_ts_resp(std::optional<bool> stamped);
std::optional<bool> decode_ts_resp(const std::vector<std::uint8_t>& buf);

std::vector<std::uint8_t> encode_alias_test_req(std::uint64_t key);
std::uint64_t decode_alias_test_req(const std::vector<std::uint8_t>& buf);
std::vector<std::uint8_t> encode_alias_test_resp();
void decode_alias_test_resp(const std::vector<std::uint8_t>& buf);

std::vector<std::uint8_t> encode_hello_req();
std::vector<std::uint8_t> encode_hello_resp(std::uint32_t session);
std::uint32_t decode_hello_resp(const std::vector<std::uint8_t>& buf);

std::vector<std::uint8_t> encode_error(ErrCode code);
ErrCode decode_error(const std::vector<std::uint8_t>& buf);

}  // namespace bdrmap::remote
