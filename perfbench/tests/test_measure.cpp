// The benchmark's own arithmetic: tail-percentile selection, span self
// time, pool idle share, and the peak-RSS reset between workloads.
#include "measure.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(TailPercentile, PicksHighestRungWithTenSamplesBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
  Tail tail = tail_percentile(one_to(1000));
  EXPECT_EQ(tail.percentile, 99.0);
  EXPECT_EQ(tail.rank, 990u);
  EXPECT_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail.samples, 1000u);

  // 999 samples: p99's rank is 990 -> 9 beyond, so p95 (rank 950, 49 beyond).
  tail = tail_percentile(one_to(999));
  EXPECT_EQ(tail.percentile, 95.0);
  EXPECT_EQ(tail.rank, 950u);
  EXPECT_EQ(tail.beyond, 49u);

  // 256 trials (census_engine's size class): p95, 12 beyond.
  tail = tail_percentile(one_to(256));
  EXPECT_EQ(tail.percentile, 95.0);
  EXPECT_EQ(tail.beyond, 12u);
}

TEST(TailPercentile, FewSamplesFallBackToTheMedianAndSaySo) {
  const Tail tail = tail_percentile(one_to(12));
  EXPECT_EQ(tail.percentile, 50.0);
  EXPECT_EQ(tail.rank, 6u);
  EXPECT_EQ(tail.beyond, 6u);  // fewer than 10: the caller can see it
  EXPECT_EQ(tail_percentile({}).samples, 0u);
}

TEST(NearestRank, MatchesTheDefinition) {
  const std::vector<double> v = one_to(10);
  EXPECT_EQ(nearest_rank(v, 50.0), 5.0);
  EXPECT_EQ(nearest_rank(v, 51.0), 6.0);
  EXPECT_EQ(nearest_rank(v, 100.0), 10.0);
  EXPECT_EQ(nearest_rank(v, 0.1), 1.0);
}

TEST(RankInMode, DetectsAGapBetweenModes) {
  std::vector<double> bimodal;
  for (int i = 0; i < 50; ++i) bimodal.push_back(1.0 + i * 0.001);
  for (int i = 0; i < 50; ++i) bimodal.push_back(100.0 + i * 0.1);
  EXPECT_TRUE(rank_in_mode(bimodal, 25));
  EXPECT_TRUE(rank_in_mode(bimodal, 75));
  EXPECT_FALSE(rank_in_mode(bimodal, 50));  // the boundary between modes
  EXPECT_FALSE(rank_in_mode(bimodal, 0));
}

Span span(std::uint32_t id, std::uint32_t parent, std::int64_t start, std::int64_t end) {
  Span s;
  s.name = "x";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  const std::vector<Span> spans = {
      span(1, 0, 0, 100),   // root
      span(2, 1, 10, 30),   // child
      span(3, 1, 20, 50),   // overlaps child 2: union [10, 50)
      span(4, 1, 90, 120),  // runs past the parent: clipped to [90, 100)
      span(5, 2, 12, 18),   // grandchild: counts against 2, not 1
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(SelfTime, SpanLogRecordsNestingAcrossThreads) {
  SpanLog log;
  const auto work = [&log](std::int64_t trial) {
    SpanLog::Scope outer(&log, "trial", trial);
    { SpanLog::Scope inner(&log, "core.run"); }
  };
  std::thread a(work, 1);
  std::thread b(work, 2);
  a.join();
  b.join();
  const std::vector<Span> spans = log.take();
  ASSERT_EQ(spans.size(), 4u);
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "core.run") != 0) continue;
    // The child inherits its parent's trial id and points at it.
    bool found = false;
    for (const Span& p : spans) {
      if (p.id == s.parent) {
        found = true;
        EXPECT_STREQ(p.name, "trial");
        EXPECT_EQ(p.trial, s.trial);
        EXPECT_EQ(p.thread, s.thread);
      }
    }
    EXPECT_TRUE(found);
  }
  EXPECT_EQ(total_of(spans, "trial").count, 2u);
  EXPECT_TRUE(log.take().empty());  // handed over, not kept twice
  SpanLog::Scope noop(nullptr, "ignored");  // a null log records nothing
}

TEST(PoolIdleShare, IsOneMinusBusyOverThreadTime) {
  EXPECT_DOUBLE_EQ(pool_idle_share(15.0, 2, 10.0), 0.25);
  EXPECT_DOUBLE_EQ(pool_idle_share(20.0, 2, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(pool_idle_share(1.0, 0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(pool_idle_share(1.0, 2, 0.0), 0.0);
}

TEST(PeakRss, ResetForgetsAnEarlierWorkloadsPeak) {
  ASSERT_TRUE(reset_peak_rss());
  const double before = peak_rss_mb();
  ASSERT_GT(before, 0.0);
  {
    // 256 MiB, touched page by page, then returned to the kernel.
    constexpr std::size_t kBytes = 256u << 20;
    std::unique_ptr<char[]> block(new char[kBytes]);
    for (std::size_t i = 0; i < kBytes; i += 4096) block[i] = static_cast<char>(i);
    asm volatile("" : : "r"(block.get()) : "memory");  // keep the writes
    EXPECT_GE(peak_rss_mb(), before + 200.0);
  }
  EXPECT_GE(peak_rss_mb(), before + 200.0);  // the peak outlives the memory
  ASSERT_TRUE(reset_peak_rss());
  EXPECT_LT(peak_rss_mb(), before + 100.0);  // the next workload starts clean
}

}  // namespace
}  // namespace perfbench
