// Tracer/Span semantics (src/obs/trace.h) and the contents of the
// export_json document.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/obs.h"

namespace bdrmap::obs {
namespace {

TEST(ObsTrace, NullTracerSpanIsNoOp) {
  Span s(nullptr, "never.recorded");
  s.note("key", "value");
  s.note("n", std::int64_t{42});
  s.close();  // must not crash; nothing to close
}

TEST(ObsTrace, SpansNestPerThread) {
  Tracer tracer;
  {
    Span root(&tracer, "outer");
    {
      Span mid(&tracer, "middle");
      Span leaf(&tracer, "inner");
    }
    Span sibling(&tracer, "sibling");
  }
  std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, SpanRecord::kNoParent);
  EXPECT_EQ(spans[1].name, "middle");
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[2].name, "inner");
  EXPECT_EQ(spans[2].parent, 1u);
  // Opened after middle/inner closed: parents under outer, not inner.
  EXPECT_EQ(spans[3].name, "sibling");
  EXPECT_EQ(spans[3].parent, 0u);
  for (const SpanRecord& s : spans) EXPECT_TRUE(s.closed);
  EXPECT_EQ(tracer.open_span_count(), 0u);
}

TEST(ObsTrace, ThreadsKeepIndependentStacks) {
  Tracer tracer;
  Span main_span(&tracer, "main.root");
  std::thread worker([&tracer] {
    // A worker with no open span roots its own tree: it must NOT parent
    // under another thread's open span.
    Span w(&tracer, "worker.root");
    Span child(&tracer, "worker.child");
  });
  worker.join();
  main_span.close();

  std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  std::size_t worker_root = SpanRecord::kNoParent;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "worker.root") worker_root = i;
  }
  ASSERT_NE(worker_root, SpanRecord::kNoParent);
  EXPECT_EQ(spans[worker_root].parent, SpanRecord::kNoParent);
  for (const SpanRecord& s : spans) {
    if (s.name == "worker.child") {
      EXPECT_EQ(s.parent, worker_root);
    }
  }
}

TEST(ObsTrace, ExceptionUnwindingClosesSpans) {
  Tracer tracer;
  try {
    Span outer(&tracer, "failing.outer");
    Span inner(&tracer, "failing.inner");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(tracer.span_count(), 2u);
  EXPECT_EQ(tracer.open_span_count(), 0u);
  for (const SpanRecord& s : tracer.snapshot()) {
    EXPECT_TRUE(s.closed) << s.name;
  }
}

TEST(ObsTrace, NotesRecordInInsertionOrder) {
  Tracer tracer;
  {
    Span s(&tracer, "noted");
    s.note("first", "alpha");
    s.note("second", std::int64_t{-7});
    s.note("first", "beta");  // duplicates keep every entry
  }
  std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].notes.size(), 3u);
  EXPECT_EQ(spans[0].notes[0], (std::pair<std::string, std::string>{
                                   "first", "alpha"}));
  EXPECT_EQ(spans[0].notes[1], (std::pair<std::string, std::string>{
                                   "second", "-7"}));
  EXPECT_EQ(spans[0].notes[2], (std::pair<std::string, std::string>{
                                   "first", "beta"}));
}

TEST(ObsTrace, CloseIsIdempotentAndEarly) {
  Tracer tracer;
  Span s(&tracer, "early");
  s.close();
  s.close();                      // second close: no-op
  s.note("after", "ignored-ok");  // must not crash
  EXPECT_EQ(tracer.open_span_count(), 0u);
  EXPECT_EQ(tracer.span_count(), 1u);
}

TEST(ObsTrace, MovedFromSpanDoesNotDoubleClose) {
  Tracer tracer;
  {
    Span a(&tracer, "moved");
    Span b = std::move(a);
  }  // only b's destructor may close
  EXPECT_EQ(tracer.span_count(), 1u);
  EXPECT_EQ(tracer.open_span_count(), 0u);
}

// --- export contents -------------------------------------------------------
//
// Schema validation of real exports runs in ctest through
// tools/check_obs.py (tests/CMakeLists.txt); these tests pin what the
// exporter writes for known spans and metrics.

ExportInfo test_info() {
  ExportInfo info;
  info.tool = "obs_trace_test";
  info.scenario = "unit";
  info.seed = 7;
  info.vps = 1;
  info.threads = 1;
  return info;
}

bool contains(const std::string& doc, const std::string& needle) {
  return doc.find(needle) != std::string::npos;
}

TEST(ObsTraceExport, EnabledExportRoundTripsEscapedNotes) {
  ObsOptions options;
  options.enabled = true;
  options.run_label = "golden";
  Observability obs(options);
  obs.registry()->counter("core.heuristic.firewall.fires").inc(3);
  obs.registry()->gauge("runtime.queue_depth").set(-1);
  obs.registry()->histogram("test.hist", {1, 2}).observe(5);
  {
    Span root(obs.tracer(), "bdrmap.run");
    Span stage(obs.tracer(), "stage.trace");
    stage.note("traces", std::int64_t{12});
    stage.note("label", "quoted \"text\"\n");  // exercises escaping
  }

  const std::string doc = export_json(obs, test_info());
  EXPECT_TRUE(contains(doc, "\"enabled\": true")) << doc;
  EXPECT_TRUE(contains(doc, "{\"name\": \"core.heuristic.firewall.fires\", "
                            "\"value\": 3}"))
      << doc;
  EXPECT_TRUE(contains(doc, "{\"name\": \"runtime.queue_depth\", "
                            "\"value\": -1}"))
      << doc;
  EXPECT_TRUE(contains(doc, "\"bounds\": [1,2], \"buckets\": [0,0,1], "
                            "\"count\": 1, \"sum\": 5"))
      << doc;
  EXPECT_TRUE(contains(doc, "{\"id\": 0, \"name\": \"bdrmap.run\", "
                            "\"parent\": -1"))
      << doc;
  EXPECT_TRUE(contains(doc, "{\"id\": 1, \"name\": \"stage.trace\", "
                            "\"parent\": 0"))
      << doc;
  EXPECT_TRUE(contains(doc, "\"notes\": {\"traces\": \"12\", "
                            "\"label\": \"quoted \\\"text\\\"\\n\"}"))
      << doc;
}

TEST(ObsTraceExport, DisabledExportHasEmptySections) {
  Observability obs;  // default: disabled, null registry/tracer
  ASSERT_EQ(obs.registry(), nullptr);
  ASSERT_EQ(obs.tracer(), nullptr);
  const std::string doc = export_json(obs, test_info());
  EXPECT_TRUE(contains(doc, "\"enabled\": false")) << doc;
  EXPECT_TRUE(contains(doc, "\"counters\": [],")) << doc;
  EXPECT_TRUE(contains(doc, "\"gauges\": [],")) << doc;
  EXPECT_TRUE(contains(doc, "\"histograms\": []")) << doc;
  EXPECT_TRUE(contains(doc, "\"spans\": []")) << doc;
}

}  // namespace
}  // namespace bdrmap::obs
