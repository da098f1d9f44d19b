//===- tests/MetricsTest.cpp - rstat metrics, tracing, heap dumps ---------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// Covers the rstat observability layer: MetricsSnapshot agreement with
// stats(), the size-class and lifetime histograms, JSON export, the
// event-trace ring buffer (arming, lazy attach, wrap-around drops,
// Chrome-trace export), and the heap introspection dump.
//
//===----------------------------------------------------------------------===//

#include "region/Metrics.h"
#include "region/Regions.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

using namespace regions;
using rt::Frame;
using rt::RegionHandle;

namespace {

/// Scanned node whose deletion may skip the cleanup scan.
struct Linked {
  RegionPtr<Linked> Next;
  using RegionCountOnly = Linked;
};

/// Scanned object with a finalizer: its region always scans.
struct Finalized {
  ~Finalized() {}
};

struct MetricsTest : ::testing::Test {
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{64} << 20};
  void TearDown() override { rstat::disarmTracing(); }
};

//===----------------------------------------------------------------------===//
// Snapshot fidelity
//===----------------------------------------------------------------------===//

TEST_F(MetricsTest, SnapshotMatchesStatsExactly) {
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  for (int I = 0; I != 100; ++I)
    rnewArray<char>(A, 100);
  rnewArray<char>(B, 5000);
  EXPECT_TRUE(deleteRegion(B));

  const RegionStats &S = Mgr.stats();
  MetricsSnapshot M = Mgr.metrics();
  EXPECT_EQ(M.Stats.TotalAllocs, S.TotalAllocs);
  EXPECT_EQ(M.Stats.TotalRequestedBytes, S.TotalRequestedBytes);
  EXPECT_EQ(M.Stats.LiveRequestedBytes, S.LiveRequestedBytes);
  EXPECT_EQ(M.Stats.MaxLiveRequestedBytes, S.MaxLiveRequestedBytes);
  EXPECT_EQ(M.Stats.TotalRegions, S.TotalRegions);
  EXPECT_EQ(M.Stats.LiveRegions, S.LiveRegions);
  EXPECT_EQ(M.Stats.MaxLiveRegions, S.MaxLiveRegions);
  EXPECT_EQ(M.Stats.MaxRegionBytes, S.MaxRegionBytes);
  EXPECT_EQ(M.Stats.DeleteAttempts, S.DeleteAttempts);
  EXPECT_EQ(M.Stats.DeleteFailures, S.DeleteFailures);
  EXPECT_EQ(M.Stats.BarrierStores, S.BarrierStores);
  EXPECT_EQ(M.Stats.BarrierSameRegion, S.BarrierSameRegion);
  EXPECT_EQ(M.Stats.BarrierAdjustments, S.BarrierAdjustments);

  EXPECT_EQ(M.OsBytes, Mgr.osBytes());
  EXPECT_GE(M.FrontierPages * kPageSize, M.InUseBytes);
  EXPECT_TRUE(deleteRegion(A));
}

TEST_F(MetricsTest, HistogramsCoverEveryRegionOnce) {
  Frame F;
  RegionHandle Live = Mgr.newRegion();
  rnewArray<char>(Live, 3000); // live region, bucket 12 ([2048, 4096))
  for (int I = 0; I != 5; ++I) {
    RegionHandle R = Mgr.newRegion();
    rnewArray<char>(R, 100); // bucket 7 ([64, 128))
    EXPECT_TRUE(deleteRegion(R));
  }
  RegionHandle Empty = Mgr.newRegion();
  EXPECT_TRUE(deleteRegion(Empty)); // bucket 0 (no bytes requested)

  MetricsSnapshot M = Mgr.metrics();
  std::uint64_t TotalInHist = 0, LiveInHist = 0, LifetimesInHist = 0;
  for (unsigned I = 0; I != MetricsSnapshot::kLogBuckets; ++I) {
    TotalInHist += M.RegionSizeClasses[I];
    LiveInHist += M.LiveRegionSizeClasses[I];
    LifetimesInHist += M.RegionLifetimes[I];
  }
  EXPECT_EQ(TotalInHist, M.Stats.TotalRegions)
      << "every region ever created lands in exactly one size class";
  EXPECT_EQ(LiveInHist, M.Stats.LiveRegions);
  EXPECT_EQ(LifetimesInHist, M.Stats.TotalRegions - M.Stats.LiveRegions)
      << "every deleted region has exactly one lifetime";

  EXPECT_EQ(M.RegionSizeClasses[0], 1u) << "the empty region";
  EXPECT_EQ(M.RegionSizeClasses[7], 5u) << "the five 100-byte regions";
  EXPECT_EQ(M.LiveRegionSizeClasses[12], 1u) << "the live 3000-byte region";
  EXPECT_TRUE(deleteRegion(Live));
}

TEST_F(MetricsTest, LifetimeUsesLogicalClock) {
  Frame F;
  // A region deleted before any sibling is created: lifetime 1.
  RegionHandle Short = Mgr.newRegion();
  EXPECT_TRUE(deleteRegion(Short));
  MetricsSnapshot M = Mgr.metrics();
  EXPECT_EQ(M.RegionLifetimes[1], 1u) << "lifetime 1 lands in bucket 1";

  // A region that outlives 7 siblings: lifetime 8, bucket 4.
  RegionHandle Old = Mgr.newRegion();
  for (int I = 0; I != 7; ++I) {
    RegionHandle Sib = Mgr.newRegion();
    EXPECT_TRUE(deleteRegion(Sib));
  }
  EXPECT_TRUE(deleteRegion(Old));
  M = Mgr.metrics();
  EXPECT_EQ(M.RegionLifetimes[4], 1u) << "lifetime 8 lands in bucket 4";
}

TEST_F(MetricsTest, MetricsJsonRoundTripsThroughAFile) {
  Frame F;
  RegionHandle R = Mgr.newRegion();
  rnewArray<char>(R, 1000);
  MetricsSnapshot M = Mgr.metrics();

  std::string Path = ::testing::TempDir() + "rstat_metrics_test.json";
  ASSERT_TRUE(writeMetricsJson(M, Path.c_str()));
  std::FILE *In = std::fopen(Path.c_str(), "r");
  ASSERT_NE(In, nullptr);
  char Buf[8192];
  std::size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, In);
  std::fclose(In);
  std::remove(Path.c_str());
  Buf[N] = '\0';
  EXPECT_NE(std::strstr(Buf, "\"manager\""), nullptr);
  EXPECT_NE(std::strstr(Buf, "\"pageSource\""), nullptr);
  EXPECT_NE(std::strstr(Buf, "\"regionSizeClasses\""), nullptr);
  EXPECT_NE(std::strstr(Buf, "\"totalAllocs\": 1"), nullptr);
  EXPECT_FALSE(writeMetricsJson(M, "/nonexistent-dir/x.json"));
  EXPECT_TRUE(deleteRegion(R));
}

TEST_F(MetricsTest, CleanupScansSkippedReachesEverySurface) {
  Frame F;
  RegionHandle Skips = Mgr.newRegion();
  Linked *L = rnew<Linked>(Skips);
  L->Next = L;
  RegionHandle Scans = Mgr.newRegion();
  rnew<Finalized>(Scans);
  EXPECT_TRUE(deleteRegion(Skips));
  EXPECT_TRUE(deleteRegion(Scans));
  Region *Reset = Mgr.newRegion(); // unregistered: a local would refuse
  ASSERT_TRUE(Mgr.resetRegion(Reset));

  MetricsSnapshot M = Mgr.metrics();
  EXPECT_EQ(M.Stats.CleanupScansSkipped, 2u) << "one delete, one reset";
  EXPECT_EQ(M.Stats.CleanupScansSkipped, Mgr.stats().CleanupScansSkipped);
  EXPECT_EQ(M.Stats.CleanupThunksRun, 1u);

  std::string Path = ::testing::TempDir() + "rstat_skipped_test.json";
  ASSERT_TRUE(writeMetricsJson(M, Path.c_str()));
  std::FILE *In = std::fopen(Path.c_str(), "r");
  ASSERT_NE(In, nullptr);
  char Buf[8192];
  std::size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, In);
  std::fclose(In);
  Buf[N] = '\0';
  EXPECT_NE(std::strstr(Buf, "\"cleanupScansSkipped\": 2"), nullptr);

  std::FILE *Out = std::fopen(Path.c_str(), "w");
  ASSERT_NE(Out, nullptr);
  printMetrics(M, Out);
  std::fclose(Out);
  In = std::fopen(Path.c_str(), "r");
  ASSERT_NE(In, nullptr);
  N = std::fread(Buf, 1, sizeof(Buf) - 1, In);
  std::fclose(In);
  std::remove(Path.c_str());
  Buf[N] = '\0';
  EXPECT_NE(std::strstr(Buf, "cleanup scans skipped"), nullptr);
  EXPECT_TRUE(Mgr.deleteRegionRaw(Reset));
}

//===----------------------------------------------------------------------===//
// Event tracing
//===----------------------------------------------------------------------===//

TEST_F(MetricsTest, DisarmedTracingRecordsNothing) {
  ASSERT_FALSE(rstat::tracingArmed());
  Frame F;
  RegionHandle R = Mgr.newRegion();
  EXPECT_TRUE(deleteRegion(R));
  EXPECT_EQ(rstat::tracedEventCount(), 0u);
}

TEST_F(MetricsTest, ArmedTracingRecordsLifecycleEvents) {
  rstat::armTracing();
  EXPECT_TRUE(rstat::tracingArmed());
  Frame F;
  RegionHandle R = Mgr.newRegion();
  rnewArray<char>(R, 3 * kPageSize); // large object: its own run grab
  EXPECT_TRUE(deleteRegion(R));
  // newregion (+run-grab), large run-grab, two run-frees, deleteregion:
  // at least five events on this thread's ring.
  EXPECT_GE(rstat::tracedEventCount(), 5u);
  EXPECT_EQ(rstat::droppedEventCount(), 0u);

  std::string Path = ::testing::TempDir() + "rstat_trace_test.json";
  long Written = rstat::writeChromeTrace(Path.c_str());
  // Every buffered instant is written, plus one derived counter event
  // ("C" phase) per lifecycle instant that moves a heap-shape track.
  EXPECT_GE(static_cast<std::size_t>(Written), rstat::tracedEventCount());
  std::FILE *In = std::fopen(Path.c_str(), "r");
  ASSERT_NE(In, nullptr);
  char Buf[1 << 16];
  std::size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, In);
  std::fclose(In);
  std::remove(Path.c_str());
  Buf[N] = '\0';
  EXPECT_NE(std::strstr(Buf, "\"traceEvents\""), nullptr);
  EXPECT_NE(std::strstr(Buf, "\"newregion\""), nullptr);
  EXPECT_NE(std::strstr(Buf, "\"deleteregion\""), nullptr);
  EXPECT_NE(std::strstr(Buf, "\"run-free\""), nullptr);
  EXPECT_NE(std::strstr(Buf, "\"ph\":\"C\""), nullptr);
  EXPECT_NE(std::strstr(Buf, "\"live-regions\""), nullptr);
  EXPECT_NE(std::strstr(Buf, "\"live-bytes\""), nullptr);
  EXPECT_EQ(rstat::writeChromeTrace("/nonexistent-dir/x.json"), -1);
}

TEST_F(MetricsTest, RefusedDeletionTracesAsRefused) {
  rstat::armTracing();
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  struct Node {
    RegionPtr<Node> Next;
  };
  rnew<Node>(A)->Next = rnew<Node>(B);
  EXPECT_FALSE(deleteRegion(B));
  std::string Path = ::testing::TempDir() + "rstat_refused_test.json";
  rstat::writeChromeTrace(Path.c_str());
  std::FILE *In = std::fopen(Path.c_str(), "r");
  ASSERT_NE(In, nullptr);
  char Buf[1 << 16];
  std::size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, In);
  std::fclose(In);
  std::remove(Path.c_str());
  Buf[N] = '\0';
  EXPECT_NE(std::strstr(Buf, "deleteregion-refused"), nullptr);
}

TEST_F(MetricsTest, RingWrapCountsDrops) {
  rstat::armTracing(/*EventsPerThread=*/8);
  Frame F;
  // Each create/delete pair records >= 4 events; 8 pairs overflow an
  // 8-entry ring for sure.
  for (int I = 0; I != 8; ++I) {
    RegionHandle R = Mgr.newRegion();
    EXPECT_TRUE(deleteRegion(R));
  }
  EXPECT_EQ(rstat::tracedEventCount(), 8u) << "ring holds its capacity";
  EXPECT_GT(rstat::droppedEventCount(), 0u) << "overwrites are reported";
}

TEST_F(MetricsTest, WorkerThreadsAttachLazily) {
  rstat::armTracing();
  std::size_t Before = rstat::tracedEventCount();
  std::thread([] {
    // The worker's first manager attaches it to the open epoch.
    RegionManager Worker;
    Region *R = Worker.newRegion();
    Worker.deleteRegionRaw(R);
  }).join();
  EXPECT_GT(rstat::tracedEventCount(), Before)
      << "events recorded on an exited worker thread survive in its ring";
}

TEST_F(MetricsTest, DisarmStopsRecordingButKeepsEvents) {
  rstat::armTracing();
  Frame F;
  {
    RegionHandle R = Mgr.newRegion();
    EXPECT_TRUE(deleteRegion(R));
  }
  std::size_t Recorded = rstat::tracedEventCount();
  EXPECT_GT(Recorded, 0u);
  rstat::disarmTracing();
  {
    RegionHandle R = Mgr.newRegion();
    EXPECT_TRUE(deleteRegion(R));
  }
  EXPECT_EQ(rstat::tracedEventCount(), Recorded)
      << "disarmed threads stop recording; prior events stay exportable";
}

//===----------------------------------------------------------------------===//
// Heap introspection
//===----------------------------------------------------------------------===//

TEST_F(MetricsTest, DumpHeapListsLiveRegionsAndRuns) {
  Frame F;
  RegionHandle A = Mgr.newRegion();
  rnewArray<char>(A, 10000);                 // str pages + growth run
  rnewArray<char>(A, 3 * kPageSize);         // large block run
  std::string Path = ::testing::TempDir() + "rstat_dump_test.txt";
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  ASSERT_NE(Out, nullptr);
  Mgr.dumpHeap(Out);
  std::fclose(Out);
  std::FILE *In = std::fopen(Path.c_str(), "r");
  ASSERT_NE(In, nullptr);
  char Buf[1 << 16];
  std::size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, In);
  std::fclose(In);
  std::remove(Path.c_str());
  Buf[N] = '\0';
  EXPECT_NE(std::strstr(Buf, "1 live region(s)"), nullptr);
  EXPECT_NE(std::strstr(Buf, "rc=0"), nullptr);
  EXPECT_NE(std::strstr(Buf, "run 0"), nullptr);
  EXPECT_NE(std::strstr(Buf, "large block"), nullptr);
  EXPECT_TRUE(deleteRegion(A));
}

TEST_F(MetricsTest, DumpHeapShowsWhatDecidesTheCleanupScan) {
  Frame F;
  RegionHandle Target = Mgr.newRegion();
  RegionHandle Holder = Mgr.newRegion();
  rnew<Linked>(Holder)->Next = rnew<Linked>(Target);
  rnew<Finalized>(Holder);
  std::string Path = ::testing::TempDir() + "rstat_dump_outrefs_test.txt";
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  ASSERT_NE(Out, nullptr);
  Mgr.dumpHeap(Out);
  std::fclose(Out);
  std::FILE *In = std::fopen(Path.c_str(), "r");
  ASSERT_NE(In, nullptr);
  char Buf[1 << 16];
  std::size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, In);
  std::fclose(In);
  std::remove(Path.c_str());
  Buf[N] = '\0';
  EXPECT_NE(std::strstr(Buf, "rc=0 outrefs=1 finalize=1"), nullptr)
      << "the holder";
  EXPECT_NE(std::strstr(Buf, "rc=1 outrefs=0 finalize=0"), nullptr)
      << "the target";
  EXPECT_TRUE(deleteRegion(Holder));
  EXPECT_TRUE(deleteRegion(Target));
}

} // namespace
