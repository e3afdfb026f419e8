#include "remote/protocol.h"

#include <gtest/gtest.h>

#include "netbase/rng.h"
#include "test_support.h"

namespace bdrmap::remote {
namespace {

using test::ip;

TEST(Protocol, TraceRoundTrip) {
  probe::TraceResult t;
  t.dst = ip("20.0.0.9");
  t.reached_dst = true;
  t.hops.push_back({ip("10.0.0.1"), probe::ReplyKind::kTimeExceeded, {}});
  t.hops.push_back({net::Ipv4Addr{}, probe::ReplyKind::kNone, {}});
  t.hops.push_back({ip("20.0.0.9"), probe::ReplyKind::kEchoReply, {}});
  auto decoded = decode_trace_resp(encode_trace_resp(t));
  EXPECT_EQ(decoded.dst, t.dst);
  EXPECT_TRUE(decoded.reached_dst);
  ASSERT_EQ(decoded.hops.size(), 3u);
  EXPECT_EQ(decoded.hops[0].addr, ip("10.0.0.1"));
  EXPECT_EQ(decoded.hops[1].kind, probe::ReplyKind::kNone);
  EXPECT_EQ(decoded.hops[2].kind, probe::ReplyKind::kEchoReply);
}

TEST(Protocol, UdpRoundTrip) {
  auto some = decode_udp_resp(encode_udp_resp(ip("10.0.0.1")));
  ASSERT_TRUE(some.has_value());
  EXPECT_EQ(*some, ip("10.0.0.1"));
  EXPECT_FALSE(decode_udp_resp(encode_udp_resp(std::nullopt)).has_value());
}

TEST(Protocol, IpidRoundTrip) {
  auto some = decode_ipid_resp(encode_ipid_resp(std::uint16_t{0xBEEF}));
  ASSERT_TRUE(some.has_value());
  EXPECT_EQ(*some, 0xBEEF);
  EXPECT_FALSE(decode_ipid_resp(encode_ipid_resp(std::nullopt)).has_value());
}

TEST(Protocol, AliasTestRoundTrip) {
  const std::uint64_t key = 0x0A000001'0A000102ULL;
  EXPECT_EQ(decode_alias_test_req(encode_alias_test_req(key)), key);
  EXPECT_NO_THROW(decode_alias_test_resp(encode_alias_test_resp()));
  EXPECT_THROW(decode_alias_test_resp(encode_alias_test_req(key)),
               ProtocolError);
}

TEST(Protocol, HelloAndErrorRoundTrip) {
  EXPECT_EQ(decode_hello_resp(encode_hello_resp(7u)), 7u);
  EXPECT_EQ(decode_error(encode_error(ErrCode::kBadSession)),
            ErrCode::kBadSession);
  EXPECT_EQ(decode_error(encode_error(ErrCode::kMalformedRequest)),
            ErrCode::kMalformedRequest);
}

TEST(Protocol, RejectsWrongMessageType) {
  auto buf = encode_udp_resp(ip("10.0.0.1"));
  EXPECT_THROW(decode_trace_resp(buf), std::runtime_error);
  EXPECT_THROW(decode_ipid_resp(buf), std::runtime_error);
  // The typed error carries the classification.
  try {
    decode_trace_resp(buf);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ProtoErr::kBadType);
  }
}

TEST(Protocol, RejectsTruncatedMessage) {
  probe::TraceResult t;
  t.dst = ip("20.0.0.9");
  t.hops.push_back({ip("10.0.0.1"), probe::ReplyKind::kTimeExceeded, {}});
  auto buf = encode_trace_resp(t);
  buf.resize(buf.size() - 2);
  try {
    decode_trace_resp(buf);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ProtoErr::kTruncated);
  }
}

TEST(Protocol, RejectsTrailingBytes) {
  auto buf = encode_udp_resp(ip("10.0.0.1"));
  buf.push_back(0x00);
  try {
    decode_udp_resp(buf);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ProtoErr::kTrailingBytes);
  }
}

TEST(Protocol, ReaderPrimitives) {
  Writer w;
  w.u8(0x12);
  w.u16(0x3456);
  w.u32(0x789abcde);
  w.f64(3.25);
  auto buf = w.take();
  Reader r(buf);
  EXPECT_EQ(r.u8(), 0x12);
  EXPECT_EQ(r.u16(), 0x3456);
  EXPECT_EQ(r.u32(), 0x789abcdeu);
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.done());
}

TEST(Frame, SealOpenRoundTrip) {
  auto payload = encode_udp_req(ip("10.0.0.1"));
  auto wire = seal_frame(0x1234u, 77u, payload);
  EXPECT_EQ(wire.size(), payload.size() + kFrameOverhead);
  Frame f = open_frame(wire);
  EXPECT_EQ(f.session, 0x1234u);
  EXPECT_EQ(f.seq, 77u);
  EXPECT_EQ(f.payload, payload);
  EXPECT_EQ(f.type(), MsgType::kUdpReq);
}

TEST(Frame, DetectsBadMagic) {
  auto wire = seal_frame(1, 1, encode_hello_req());
  wire[0] ^= 0xFF;
  try {
    open_frame(wire);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ProtoErr::kBadMagic);
  }
}

TEST(Frame, DetectsCorruptionViaCrc) {
  auto wire = seal_frame(1, 1, encode_udp_req(ip("10.0.0.1")));
  wire[6] ^= 0x40;  // flip a bit mid-frame
  try {
    open_frame(wire);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ProtoErr::kBadCrc);
  }
}

TEST(Frame, DetectsTruncation) {
  auto wire = seal_frame(1, 1, encode_udp_req(ip("10.0.0.1")));
  for (std::size_t len = 0; len < wire.size(); ++len) {
    std::vector<std::uint8_t> cut(wire.begin(), wire.begin() + len);
    EXPECT_THROW(open_frame(cut), ProtocolError) << "length " << len;
  }
}

// --- mini-fuzz: every truncation length and a seeded byte-flip sweep over
// a corpus of valid messages. Decoders must never crash and must classify
// every rejection as a ProtocolError; flips that land in value fields may
// legally decode to different values. ---

struct CorpusEntry {
  const char* name;
  std::vector<std::uint8_t> bytes;
  // Runs the decoder matching the message type; returns normally or throws.
  void (*decode)(const std::vector<std::uint8_t>&);
};

template <typename Fn>
void decode_guarded(const char* name, const std::vector<std::uint8_t>& buf,
                    Fn&& fn) {
  try {
    fn(buf);
  } catch (const ProtocolError&) {
    // Correctly classified rejection.
  } catch (...) {
    FAIL() << name << ": non-ProtocolError escaped the decoder";
  }
}

std::vector<CorpusEntry> build_corpus() {
  probe::TraceResult t;
  t.dst = ip("20.0.0.9");
  t.reached_dst = false;
  for (int i = 0; i < 6; ++i) {
    t.hops.push_back({net::Ipv4Addr(0x0A000001u + i),
                      i % 3 == 2 ? probe::ReplyKind::kNone
                                 : probe::ReplyKind::kTimeExceeded,
                      {}});
  }
  return {
      {"trace_req", encode_trace_req(ip("20.0.0.9")),
       [](const std::vector<std::uint8_t>& b) { decode_trace_req(b); }},
      {"trace_resp", encode_trace_resp(t),
       [](const std::vector<std::uint8_t>& b) { decode_trace_resp(b); }},
      {"udp_resp", encode_udp_resp(ip("10.0.0.1")),
       [](const std::vector<std::uint8_t>& b) { decode_udp_resp(b); }},
      {"ipid_resp", encode_ipid_resp(std::uint16_t{0x1234}),
       [](const std::vector<std::uint8_t>& b) { decode_ipid_resp(b); }},
      {"alias_test_req", encode_alias_test_req(0x0A000001'0A000102ULL),
       [](const std::vector<std::uint8_t>& b) { decode_alias_test_req(b); }},
      {"hello_resp", encode_hello_resp(3),
       [](const std::vector<std::uint8_t>& b) { decode_hello_resp(b); }},
      {"error", encode_error(ErrCode::kStaleSeq),
       [](const std::vector<std::uint8_t>& b) { decode_error(b); }},
  };
}

TEST(ProtocolFuzz, EveryTruncationLengthIsRejectedCleanly) {
  for (const CorpusEntry& entry : build_corpus()) {
    for (std::size_t len = 0; len < entry.bytes.size(); ++len) {
      std::vector<std::uint8_t> cut(entry.bytes.begin(),
                                    entry.bytes.begin() + len);
      // A strict prefix can never decode: field reads or the final
      // expect_done() must throw a classified error.
      try {
        entry.decode(cut);
        FAIL() << entry.name << " accepted a truncation at " << len;
      } catch (const ProtocolError&) {
      } catch (...) {
        FAIL() << entry.name << ": non-ProtocolError at truncation " << len;
      }
    }
  }
}

TEST(ProtocolFuzz, ByteFlipSweepNeverCrashesPayloadDecoders) {
  net::Rng rng(0xF1FA);
  for (const CorpusEntry& entry : build_corpus()) {
    for (std::size_t pos = 0; pos < entry.bytes.size(); ++pos) {
      for (int round = 0; round < 4; ++round) {
        std::vector<std::uint8_t> mutated = entry.bytes;
        mutated[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
        decode_guarded(entry.name, mutated, entry.decode);
      }
    }
  }
}

TEST(ProtocolFuzz, ByteFlipSweepIsAlwaysDetectedAtFrameLayer) {
  net::Rng rng(0xF1FB);
  std::uint32_t seq = 1;
  for (const CorpusEntry& entry : build_corpus()) {
    auto wire = seal_frame(42, seq++, entry.bytes);
    for (std::size_t pos = 0; pos < wire.size(); ++pos) {
      std::vector<std::uint8_t> mutated = wire;
      mutated[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
      // CRC32 catches every single-byte error (magic flips are caught
      // before the checksum).
      EXPECT_THROW(open_frame(mutated), ProtocolError)
          << entry.name << " flip at " << pos;
    }
  }
}

}  // namespace
}  // namespace bdrmap::remote
