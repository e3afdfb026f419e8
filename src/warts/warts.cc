#include "warts/warts.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace bdrmap::warts {

namespace {

void put_u8(std::ostream& out, std::uint8_t v) {
  out.put(static_cast<char>(v));
}
void put_u16(std::ostream& out, std::uint16_t v) {
  put_u8(out, static_cast<std::uint8_t>(v >> 8));
  put_u8(out, static_cast<std::uint8_t>(v));
}
void put_u32(std::ostream& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v));
}

std::uint8_t get_u8(std::istream& in) {
  int c = in.get();
  if (c == EOF) throw std::runtime_error("warts: truncated file");
  return static_cast<std::uint8_t>(c);
}
std::uint16_t get_u16(std::istream& in) {
  std::uint16_t hi = get_u8(in);
  return static_cast<std::uint16_t>((hi << 8) | get_u8(in));
}
std::uint32_t get_u32(std::istream& in) {
  std::uint32_t hi = get_u16(in);
  return (hi << 16) | get_u16(in);
}

}  // namespace

void write_traces(std::ostream& out,
                  const core::SharedTraces& traces) {
  out.write(kMagic, sizeof(kMagic));
  put_u16(out, kVersion);
  put_u32(out, static_cast<std::uint32_t>(traces.size()));
  for (const auto& trace : traces) {
    put_u32(out, trace.dst.value());
    put_u32(out, trace.target_as.value);
    std::uint8_t flags = 0;
    if (trace.reached_dst) flags |= 0x1;
    if (trace.stopped_by_stopset) flags |= 0x2;
    put_u8(out, flags);
    put_u16(out, static_cast<std::uint16_t>(trace.hops.size()));
    for (const auto& hop : trace.hops) {
      put_u32(out, hop.addr.value());
      put_u8(out, static_cast<std::uint8_t>(hop.kind));
    }
  }
  if (!out) throw std::runtime_error("warts: write failed");
}

std::vector<core::ObservedTrace> read_traces(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("warts: bad magic");
  }
  std::uint16_t version = get_u16(in);
  if (version != kVersion) {
    throw std::runtime_error("warts: unsupported version " +
                             std::to_string(version));
  }
  std::uint32_t count = get_u32(in);
  std::vector<core::ObservedTrace> traces;
  traces.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    core::ObservedTrace trace;
    trace.dst = net::Ipv4Addr(get_u32(in));
    trace.target_as = net::AsId(get_u32(in));
    std::uint8_t flags = get_u8(in);
    trace.reached_dst = flags & 0x1;
    trace.stopped_by_stopset = flags & 0x2;
    std::uint16_t hops = get_u16(in);
    trace.hops.reserve(hops);
    for (std::uint16_t h = 0; h < hops; ++h) {
      core::ObservedHop hop;
      hop.addr = net::Ipv4Addr(get_u32(in));
      std::uint8_t kind = get_u8(in);
      if (kind > static_cast<std::uint8_t>(
                     probe::ReplyKind::kDestUnreachable)) {
        throw std::runtime_error("warts: bad hop kind");
      }
      hop.kind = static_cast<probe::ReplyKind>(kind);
      trace.hops.push_back(hop);
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

void save_traces(const std::string& path,
                 const core::SharedTraces& traces) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("warts: cannot open " + path);
  write_traces(out, traces);
}

std::vector<core::ObservedTrace> load_traces(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("warts: cannot open " + path);
  return read_traces(in);
}

std::string dump_text(const core::SharedTraces& traces) {
  std::string out;
  for (const auto& trace : traces) {
    out += trace.dst.str();
    out += " ";
    out += trace.target_as.str();
    if (trace.reached_dst) out += " R";
    if (trace.stopped_by_stopset) out += " S";
    out += ":";
    for (const auto& hop : trace.hops) {
      out += " ";
      if (hop.kind == probe::ReplyKind::kNone) {
        out += "*";
        continue;
      }
      out += hop.addr.str();
      if (hop.kind == probe::ReplyKind::kEchoReply) out += "!";
      if (hop.kind == probe::ReplyKind::kDestUnreachable) out += "#";
    }
    out += "\n";
  }
  return out;
}

}  // namespace bdrmap::warts
