// Strict command-line numbers, shared by the tools and the bench harnesses.
//
// Every numeric option goes through parse_number, so a malformed value is
// a usage error (exit 2) everywhere rather than a silent 0 or prefix.
// threads_flag is the bench harnesses' "--threads N"; the tools do their
// own argument parsing and call make_pool themselves.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <thread>
#include <type_traits>

#include "runtime/thread_pool.h"

namespace bdrmap::runtime {

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

// The worker count requested on the command line: "--threads N", default
// hardware_concurrency (min 1) when absent. A missing, malformed or zero
// value exits 2.
inline unsigned threads_flag(int argc, char** argv) {
  unsigned threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") != 0) continue;
    const char* value = i + 1 < argc ? argv[++i] : nullptr;
    if (!parse_number("--threads", value, &threads)) std::exit(2);
    if (threads == 0) {
      std::fprintf(stderr, "--threads needs at least 1\n");
      std::exit(2);
    }
  }
  return threads;
}

}  // namespace bdrmap::runtime
