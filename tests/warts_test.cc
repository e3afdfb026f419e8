// The warts-lite container and JSON export: round trips, rejection of
// malformed input, and output invariants.
#include <gtest/gtest.h>

#include <sstream>

#include "eval/scenario.h"
#include "test_support.h"
#include "warts/json.h"
#include "warts/warts.h"

namespace bdrmap::warts {
namespace {

using net::AsId;
using probe::ReplyKind;
using test::ip;
using test::make_trace;

std::vector<core::ObservedTrace> sample_traces() {
  auto t1 = make_trace(AsId(5), "20.0.0.1",
                       {{"10.0.0.1"},
                        {nullptr},
                        {"20.0.0.1", ReplyKind::kEchoReply}},
                       true);
  auto t2 = make_trace(AsId(9), "30.0.0.1", {{"10.0.0.1"}, {"10.0.0.2"}});
  t2.stopped_by_stopset = true;
  return {t1, t2};
}

TEST(Warts, RoundTripsTraces) {
  std::stringstream buffer;
  auto traces = sample_traces();
  write_traces(buffer, traces);
  auto loaded = read_traces(buffer);
  ASSERT_EQ(loaded.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(loaded[i].dst, traces[i].dst);
    EXPECT_EQ(loaded[i].target_as, traces[i].target_as);
    EXPECT_EQ(loaded[i].reached_dst, traces[i].reached_dst);
    EXPECT_EQ(loaded[i].stopped_by_stopset, traces[i].stopped_by_stopset);
    ASSERT_EQ(loaded[i].hops.size(), traces[i].hops.size());
    for (std::size_t h = 0; h < traces[i].hops.size(); ++h) {
      EXPECT_EQ(loaded[i].hops[h].addr, traces[i].hops[h].addr);
      EXPECT_EQ(loaded[i].hops[h].kind, traces[i].hops[h].kind);
    }
  }
}

TEST(Warts, RoundTripsEmpty) {
  std::stringstream buffer;
  write_traces(buffer, {});
  EXPECT_TRUE(read_traces(buffer).empty());
}

TEST(Warts, RejectsBadMagic) {
  std::stringstream buffer("NOPE....");
  EXPECT_THROW(read_traces(buffer), std::runtime_error);
}

TEST(Warts, RejectsTruncation) {
  std::stringstream buffer;
  write_traces(buffer, sample_traces());
  std::string bytes = buffer.str();
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{5}}) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW(read_traces(truncated), std::runtime_error) << cut;
  }
}

TEST(Warts, RejectsWrongVersion) {
  std::stringstream buffer;
  write_traces(buffer, {});
  std::string bytes = buffer.str();
  bytes[5] = 9;  // version low byte
  std::stringstream patched(bytes);
  EXPECT_THROW(read_traces(patched), std::runtime_error);
}

TEST(Warts, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/bdrmap_warts_test.bin";
  save_traces(path, sample_traces());
  EXPECT_EQ(load_traces(path).size(), 2u);
  EXPECT_THROW(load_traces(path + ".missing"), std::runtime_error);
}

TEST(Warts, TextDumpShape) {
  auto text = dump_text(sample_traces());
  EXPECT_NE(text.find("20.0.0.1!"), std::string::npos);  // echo marker
  EXPECT_NE(text.find(" *"), std::string::npos);         // lost hop
  EXPECT_NE(text.find(" S:"), std::string::npos);        // stop-set flag
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(Json, WriterEscapesAndNests) {
  JsonWriter w;
  w.begin_object();
  w.key("s").value(std::string_view("a\"b\\c\nd"));
  w.key("n").value(std::uint64_t{42});
  w.key("f").value(2.5);
  w.key("b").value(true);
  w.key("arr").begin_array().value(std::uint64_t{1}).value(std::uint64_t{2})
      .end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"n\":42,\"f\":2.5,\"b\":true,"
            "\"arr\":[1,2]}");
}

TEST(Json, ResultExportContainsNeighbors) {
  eval::Scenario s(eval::small_access_config(3));
  net::AsId vp_as = s.first_of(topo::AsKind::kAccess);
  auto result = s.run_bdrmap(s.vps_in(vp_as).front());
  auto json = result_to_json(result);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"neighbors\":["), std::string::npos);
  EXPECT_NE(json.find("\"probes_sent\":"), std::string::npos);
  // Every neighbor AS appears.
  for (const auto& [as, links] : result.links_by_as) {
    EXPECT_NE(json.find("\"asn\":" + std::to_string(as.value)),
              std::string::npos);
  }
  // Balanced braces (cheap structural sanity).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Warts, PipelineTracesRoundTripThroughDisk) {
  eval::Scenario s(eval::small_access_config(3));
  net::AsId vp_as = s.first_of(topo::AsKind::kAccess);
  auto result = s.run_bdrmap(s.vps_in(vp_as).front());
  std::string path = ::testing::TempDir() + "/bdrmap_pipeline.warts";
  save_traces(path, result.graph.traces());
  auto loaded = load_traces(path);
  ASSERT_EQ(loaded.size(), result.graph.traces().size());
  // Rebuilding the router graph from reloaded traces gives the same nodes.
  core::RouterGraph rebuilt(std::move(loaded), {});
  core::RouterGraph original(result.graph.traces(), {});
  EXPECT_EQ(rebuilt.live_router_count(), original.live_router_count());
}

}  // namespace
}  // namespace bdrmap::warts
