#include "src/telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/parallel.h"
#include "src/telemetry/json.h"

namespace bds {
namespace telemetry {
namespace {

// Every test runs against the process-global registry, so each starts from a
// clean slate and leaves telemetry disabled for its neighbours.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    SetEnabled(true);
  }
  void TearDown() override {
    TraceRecorder::Global().Stop();
    TraceRecorder::Global().Clear();
    SetEnabled(false);
    MetricsRegistry::Global().Reset();
  }
};

TEST_F(TelemetryTest, CounterAddAndSnapshot) {
  auto& reg = MetricsRegistry::Global();
  CounterHandle h = reg.RegisterCounter("test.counter_basic");
  ASSERT_TRUE(h.valid());
  reg.CounterAdd(h, 3);
  reg.CounterAdd(h, 4);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("test.counter_basic"), 7);
  EXPECT_EQ(snap.CounterValue("test.never_registered"), 0);
  EXPECT_EQ(snap.FindCounter("test.never_registered"), nullptr);
}

TEST_F(TelemetryTest, RegistrationIsIdempotentByName) {
  auto& reg = MetricsRegistry::Global();
  CounterHandle a = reg.RegisterCounter("test.dedup");
  CounterHandle b = reg.RegisterCounter("test.dedup");
  EXPECT_EQ(a.id, b.id);
  HistogramHandle ha = reg.RegisterHistogram("test.dedup_hist");
  HistogramHandle hb = reg.RegisterHistogram("test.dedup_hist");
  EXPECT_EQ(ha.id, hb.id);
  reg.HistogramRecord(ha, 9.5);
  reg.HistogramRecord(hb, 0.5);
  MetricsSnapshot snap = reg.Snapshot();
  const auto* entry = snap.FindHistogram("test.dedup_hist");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->hist.total(), 2);
  EXPECT_DOUBLE_EQ(entry->sum, 10.0);
}

TEST_F(TelemetryTest, InvalidHandleIsNoOp) {
  auto& reg = MetricsRegistry::Global();
  reg.CounterAdd(CounterHandle{}, 5);
  reg.GaugeSet(GaugeHandle{}, 1.0);
  reg.HistogramRecord(HistogramHandle{}, 1.0);
  // Nothing registered in this test, nothing recorded: no crash is the test.
}

TEST_F(TelemetryTest, GaugeLastWriterWins) {
  auto& reg = MetricsRegistry::Global();
  GaugeHandle g = reg.RegisterGauge("test.gauge");
  reg.GaugeSet(g, 2.5);
  reg.GaugeSet(g, -7.0);
  MetricsSnapshot snap = reg.Snapshot();
  const auto* entry = snap.FindGauge("test.gauge");
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(entry->value, -7.0);
}

TEST_F(TelemetryTest, HistogramRecordsSumAndMax) {
  auto& reg = MetricsRegistry::Global();
  HistogramHandle h = reg.RegisterHistogram("test.hist");
  reg.HistogramRecord(h, 1.5);
  reg.HistogramRecord(h, 25.0);
  reg.HistogramRecord(h, 3.5);
  MetricsSnapshot snap = reg.Snapshot();
  const auto* entry = snap.FindHistogram("test.hist");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->hist.total(), 3);
  EXPECT_DOUBLE_EQ(entry->sum, 30.0);
  EXPECT_DOUBLE_EQ(entry->max, 25.0);
  // A bulk publish folds in a locally accumulated count, sum and max.
  reg.HistogramRecordBulk(h, 2, 70.0, 40.0);
  snap = reg.Snapshot();
  entry = snap.FindHistogram("test.hist");
  EXPECT_EQ(entry->hist.total(), 5);
  EXPECT_DOUBLE_EQ(entry->sum, 100.0);
  EXPECT_DOUBLE_EQ(entry->max, 40.0);
}

TEST_F(TelemetryTest, DiffSinceSubtractsByName) {
  auto& reg = MetricsRegistry::Global();
  CounterHandle c = reg.RegisterCounter("test.diff_counter");
  HistogramHandle h = reg.RegisterHistogram("test.diff_hist");
  reg.CounterAdd(c, 10);
  reg.HistogramRecord(h, 1.0);
  MetricsSnapshot before = reg.Snapshot();
  reg.CounterAdd(c, 5);
  reg.HistogramRecord(h, 1.0);
  reg.HistogramRecord(h, 9.0);
  CounterHandle late = reg.RegisterCounter("test.diff_late");
  reg.CounterAdd(late, 2);
  MetricsSnapshot diff = reg.Snapshot().DiffSince(before);
  EXPECT_EQ(diff.CounterValue("test.diff_counter"), 5);
  // Registered after `before`: passes through unchanged.
  EXPECT_EQ(diff.CounterValue("test.diff_late"), 2);
  const auto* entry = diff.FindHistogram("test.diff_hist");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->hist.total(), 2);
  EXPECT_DOUBLE_EQ(entry->sum, 10.0);
  EXPECT_DOUBLE_EQ(entry->max, 9.0);  // A max is not diffable: it stays.
}

TEST_F(TelemetryTest, ResetZeroesValuesButKeepsHandles) {
  auto& reg = MetricsRegistry::Global();
  CounterHandle c = reg.RegisterCounter("test.reset");
  reg.CounterAdd(c, 42);
  reg.Reset();
  EXPECT_EQ(reg.Snapshot().CounterValue("test.reset"), 0);
  reg.CounterAdd(c, 1);  // Old handle still routes to the same metric.
  EXPECT_EQ(reg.Snapshot().CounterValue("test.reset"), 1);
}

TEST_F(TelemetryTest, MacrosAreNoOpsWhenDisabled) {
  SetEnabled(false);
  for (int i = 0; i < 10; ++i) {
    BDS_TELEMETRY_COUNT("test.macro_disabled", 1);
  }
  SetEnabled(true);
  BDS_TELEMETRY_COUNT("test.macro_disabled", 1);
  // The macro registers lazily on first enabled execution, so exactly the
  // enabled increments are visible.
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().CounterValue("test.macro_disabled"), 1);
}

TEST_F(TelemetryTest, ScopedTimerFeedsHistogram) {
  {
    BDS_TIMED_SCOPE("test.scope");
    // Do a sliver of work; even ~0 ms is one sample.
    int sink = 0;
    for (int i = 0; i < 1000; ++i) sink += i;
    volatile int keep = sink;
    (void)keep;
  }
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const auto* entry = snap.FindHistogram("test.scope");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->hist.total(), 1);
  EXPECT_GE(entry->sum, 0.0);
}

// Exact totals across thread counts: every worker writes the one shared
// block, and nothing may be lost or double-counted, whichever threads the
// work lands on.
TEST_F(TelemetryTest, ParallelRunnerExactTotals) {
  auto& reg = MetricsRegistry::Global();
  CounterHandle c = reg.RegisterCounter("test.parallel_total");
  HistogramHandle h = reg.RegisterHistogram("test.parallel_hist");
  constexpr int kItems = 10000;
  int64_t expected = 0;
  for (int threads : {1, 2, 8}) {
    reg.Reset();
    ParallelRunner runner(threads);
    runner.For(kItems, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        reg.CounterAdd(c, static_cast<int64_t>(i % 3));
        reg.HistogramRecord(h, static_cast<double>(i % 100));
      }
    });
    if (expected == 0) {
      for (int i = 0; i < kItems; ++i) expected += i % 3;
    }
    MetricsSnapshot snap = reg.Snapshot();
    EXPECT_EQ(snap.CounterValue("test.parallel_total"), expected) << threads << " threads";
    const auto* entry = snap.FindHistogram("test.parallel_hist");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->hist.total(), kItems) << threads << " threads";
    // Integer-valued samples: the sum is exact in any order.
    EXPECT_EQ(entry->sum, (kItems / 100) * 4950.0) << threads << " threads";
    EXPECT_EQ(entry->max, 99.0) << threads << " threads";
  }
}

TEST_F(TelemetryTest, RetiredThreadTotalsSurviveThreadExit) {
  auto& reg = MetricsRegistry::Global();
  CounterHandle c = reg.RegisterCounter("test.retired");
  {
    std::thread t([&] { reg.CounterAdd(c, 11); });
    t.join();
  }
  EXPECT_EQ(reg.Snapshot().CounterValue("test.retired"), 11);
}

TEST_F(TelemetryTest, TraceRingDropsAndCounts) {
  auto& rec = TraceRecorder::Global();
  rec.Start(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    rec.Instant("test.instant", "test");
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  rec.Stop();
  rec.Start(/*capacity=*/4);  // Fresh ring.
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST_F(TelemetryTest, TraceInstantGatesOnActive) {
  auto& rec = TraceRecorder::Global();
  TraceInstant("test.before_start", "test");
  EXPECT_EQ(rec.size(), 0u);
  rec.Start(16);
  TraceInstant("test.after_start", "test", {{"k", 1.0}});
  EXPECT_EQ(rec.size(), 1u);
  rec.Stop();
  TraceInstant("test.after_stop", "test");
  EXPECT_EQ(rec.size(), 1u);
}

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

TEST_F(TelemetryTest, ChromeTraceExportContainsEvents) {
  auto& rec = TraceRecorder::Global();
  rec.Start(64);
  rec.Instant("test.export_instant", "test", {{"cycle", 3.0}});
  int64_t t0 = rec.NowNs();
  rec.Complete("test.export_span", "test", t0, 1000000, {{"items", 2.0}});
  rec.Stop();
  std::string path = ::testing::TempDir() + "/bds_telemetry_test_trace.json";
  ASSERT_TRUE(rec.WriteChromeTrace(path).ok());
  std::string text = ReadWholeFile(path);
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"test.export_instant\""), std::string::npos);
  EXPECT_NE(text.find("\"test.export_span\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"dropped_events\":0"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, RunSummaryExportListsMetrics) {
  auto& reg = MetricsRegistry::Global();
  CounterHandle c = reg.RegisterCounter("test.summary_counter");
  reg.CounterAdd(c, 9);
  std::string path = ::testing::TempDir() + "/bds_telemetry_test_summary.jsonl";
  ASSERT_TRUE(TraceRecorder::Global().WriteRunSummary(path, reg.Snapshot()).ok());
  std::string text = ReadWholeFile(path);
  EXPECT_NE(text.find("\"kind\":\"meta\""), std::string::npos);
  EXPECT_NE(text.find("test.summary_counter"), std::string::npos);
  EXPECT_NE(text.find("9"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, SnapshotToJsonAndToStringAreWellFormedEnough) {
  auto& reg = MetricsRegistry::Global();
  reg.CounterAdd(reg.RegisterCounter("test.json_counter"), 2);
  reg.GaugeSet(reg.RegisterGauge("test.json_gauge"), 0.5);
  MetricsSnapshot snap = reg.Snapshot();
  // The snapshot's JSON export is TraceRecorder::WriteRunSummary (tested
  // above); ToString is the human-readable table.
  std::string text = snap.ToString();
  EXPECT_NE(text.find("test.json_counter = 2"), std::string::npos);
  EXPECT_NE(text.find("test.json_gauge = 0.5"), std::string::npos);
}

TEST(JsonEncoderTest, NullsNonFiniteEscapesStringsAndRoundTripsDoubles) {
  std::ostringstream nonfinite;
  AppendJsonDouble(nonfinite, std::numeric_limits<double>::infinity());
  nonfinite << ',';
  AppendJsonDouble(nonfinite, -std::numeric_limits<double>::infinity());
  nonfinite << ',';
  AppendJsonDouble(nonfinite, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(nonfinite.str(), "null,null,null");

  std::ostringstream str;
  AppendJsonString(str, "a\"b\\c\nd");
  EXPECT_EQ(str.str(), "\"a\\\"b\\\\c\\nd\"");

  // %.17g: every double reads back as the same bits.
  std::ostringstream tenth;
  AppendJsonDouble(tenth, 0.1);
  EXPECT_EQ(tenth.str(), "0.10000000000000001");
  EXPECT_EQ(std::strtod(tenth.str().c_str(), nullptr), 0.1);
}

}  // namespace
}  // namespace telemetry
}  // namespace bds
