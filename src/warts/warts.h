// Measurement persistence — a "warts-lite" container.
//
// The released bdrmap drives scamper, which archives raw measurements in
// warts files so analysis can be re-run offline. This module provides the
// equivalent for our pipeline: a versioned binary container for observed
// traces, plus a human-readable dump. The format is deliberately simple
// (magic, version, length-prefixed records, big-endian integers) and is
// round-trip tested; readers reject foreign or truncated files instead of
// misparsing them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/observations.h"

namespace bdrmap::warts {

inline constexpr char kMagic[4] = {'B', 'D', 'R', 'W'};
inline constexpr std::uint16_t kVersion = 1;

// Serializes traces to the stream. Throws std::runtime_error on I/O error.
void write_traces(std::ostream& out,
                  const core::SharedTraces& traces);

// Parses a container written by write_traces. Throws std::runtime_error on
// bad magic, unsupported version, or truncation.
std::vector<core::ObservedTrace> read_traces(std::istream& in);

// Convenience file wrappers.
void save_traces(const std::string& path,
                 const core::SharedTraces& traces);
std::vector<core::ObservedTrace> load_traces(const std::string& path);

// One line per trace: "dst target_as flags: hop hop ...". '*' marks lost
// hops, '!' suffixes echo replies.
std::string dump_text(const core::SharedTraces& traces);

}  // namespace bdrmap::warts
