// Strict numeric command-line values, shared by every tool's parser.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstring>
#include <system_error>
#include <type_traits>

namespace bdrmap::tools {

// Parses `text`, the value of option `flag`, as a whole number of the
// field's type: empty, signed (for unsigned fields), trailing-garbage and
// out-of-range text is an error, not 0 or a prefix. A missing value
// (`text` null) is an error too. Errors are reported on stderr.
template <typename T>
bool parse_number(const char* flag, const char* text, T* out) {
  if (text) {
    const char* end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, *out);
    if (ec == std::errc() && ptr == end) return true;
  }
  std::fprintf(stderr, "%s needs %s, got '%s'\n", flag,
               std::is_floating_point_v<T> ? "a number"
                                           : "an unsigned integer",
               text ? text : "");
  return false;
}

}  // namespace bdrmap::tools
