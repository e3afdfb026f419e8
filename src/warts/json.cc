#include "warts/json.h"

#include <cstdio>

namespace bdrmap::warts {

void JsonWriter::separator() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

void JsonWriter::escape(std::string_view text) {
  out_ += '"';
  for (char c : text) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::begin_object() {
  separator();
  out_ += '{';
  stack_ += '{';
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  if (!stack_.empty()) stack_.pop_back();
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separator();
  out_ += '[';
  stack_ += '[';
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  if (!stack_.empty()) stack_.pop_back();
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separator();
  escape(name);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  separator();
  escape(text);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  separator();
  out_ += std::to_string(number);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  separator();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", number);
  out_ += buf;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool boolean) {
  separator();
  out_ += boolean ? "true" : "false";
  need_comma_ = true;
  return *this;
}

std::string result_to_json(const core::BdrmapResult& result) {
  JsonWriter w;
  const core::RouterGraph& graph = result.graph;
  w.begin_object();

  w.key("stats").begin_object();
  w.key("probes_sent").value(result.stats.probes_sent);
  w.key("blocks").value(static_cast<std::uint64_t>(result.stats.blocks));
  w.key("traces").value(static_cast<std::uint64_t>(result.stats.traces));
  w.key("routers").value(static_cast<std::uint64_t>(result.stats.routers));
  w.key("vp_routers")
      .value(static_cast<std::uint64_t>(result.stats.vp_routers));
  w.key("neighbor_routers")
      .value(static_cast<std::uint64_t>(result.stats.neighbor_routers));
  w.end_object();

  w.key("neighbors").begin_array();
  for (const auto& [as, link_indices] : result.links_by_as) {
    w.begin_object();
    w.key("asn").value(static_cast<std::uint64_t>(as.value));
    w.key("links").begin_array();
    for (std::size_t index : link_indices) {
      const auto& link = result.links[index];
      w.begin_object();
      w.key("heuristic").value(core::heuristic_name(link.how));
      w.key("near_addrs").begin_array();
      if (link.vp_router != core::InferredLink::kNoRouter) {
        for (auto a : graph.addrs(link.vp_router)) w.value(a.str());
      }
      w.end_array();
      w.key("far_addrs").begin_array();
      if (link.neighbor_router != core::InferredLink::kNoRouter) {
        for (auto a : graph.addrs(link.neighbor_router)) w.value(a.str());
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.str();
}

}  // namespace bdrmap::warts
