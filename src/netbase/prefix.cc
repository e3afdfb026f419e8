#include "netbase/prefix.h"

#include <algorithm>
#include <charconv>

namespace bdrmap::net {

std::optional<Prefix> Prefix::parse(std::string_view text) {
  auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  auto addr = Ipv4Addr::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  std::string_view len_text = text.substr(slash + 1);
  unsigned len = 0;
  auto [next, ec] =
      std::from_chars(len_text.data(), len_text.data() + len_text.size(), len);
  if (ec != std::errc() || next != len_text.data() + len_text.size() ||
      len > 32) {
    return std::nullopt;
  }
  return Prefix(*addr, static_cast<std::uint8_t>(len));
}

std::string Prefix::str() const {
  return addr_.str() + "/" + std::to_string(len_);
}

void subtract_into(const Prefix& whole, const std::vector<Prefix>& holes,
                   std::vector<Prefix>& out) {
  // If no hole intersects `whole`, keep it intact; if a hole covers it fully,
  // drop it; otherwise split and recurse. Holes are guaranteed more specific
  // than (or equal to) whole when they intersect, because CIDR blocks nest.
  bool intersecting = false;
  for (const Prefix& h : holes) {
    if (h.contains(whole)) return;  // fully removed
    if (whole.contains(h)) intersecting = true;
  }
  if (!intersecting) {
    out.push_back(whole);
    return;
  }
  subtract_into(whole.lower_half(), holes, out);
  subtract_into(whole.upper_half(), holes, out);
}

std::vector<Prefix> subtract(const Prefix& whole,
                             const std::vector<Prefix>& holes) {
  std::vector<Prefix> out;
  subtract_into(whole, holes, out);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace bdrmap::net
