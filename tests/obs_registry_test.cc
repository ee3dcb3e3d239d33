// MetricsRegistry semantics: counter/gauge/histogram behavior, the
// log2 bucket edges Record depends on, merge algebra, and the
// deterministic serialization the jobs=N == jobs=1 contract rests on.

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/metrics_registry.h"

namespace lswc::obs {
namespace {

TEST(CounterTest, IncrementAndAdd) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment();
  c.Add(40);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetKeepsHighWaterMark) {
  Gauge g;
  g.Set(7);
  g.Set(100);
  g.Set(3);
  EXPECT_EQ(g.value(), 3u);
  EXPECT_EQ(g.max_seen(), 100u);
}

TEST(HistogramTest, BucketIndexEdges) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  // Every power of two opens a new bucket; its predecessor closes the
  // previous one.
  for (int k = 1; k < 64; ++k) {
    const uint64_t pow = uint64_t{1} << k;
    EXPECT_EQ(Histogram::BucketIndex(pow), k + 1) << "2^" << k;
    EXPECT_EQ(Histogram::BucketIndex(pow - 1), k) << "2^" << k << "-1";
  }
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, BucketLowerBoundInvertsIndex) {
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(2), 2u);
  EXPECT_EQ(Histogram::BucketLowerBound(3), 4u);
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLowerBound(i)), i);
  }
}

TEST(HistogramTest, RecordTracksCountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);  // Empty histogram reports 0, not UINT64_MAX.
  h.Record(0);
  h.Record(5);
  h.Record(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1005u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(0)), 1u);
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(5)), 1u);
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(1000)), 1u);
}

TEST(HistogramTest, MergeIsBucketwiseSum) {
  Histogram a, b;
  a.Record(1);
  a.Record(16);
  b.Record(16);
  b.Record(300);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 333u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 300u);
  EXPECT_EQ(a.bucket(Histogram::BucketIndex(16)), 2u);
}

TEST(MetricsRegistryTest, SameNameReturnsSameHandle) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());
  Counter* c1 = registry.counter("crawl.pushes");
  Counter* c2 = registry.counter("crawl.pushes");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(registry.counter("other"), c1);
  EXPECT_FALSE(registry.empty());
  // Handle addresses survive many further registrations.
  for (int i = 0; i < 200; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    registry.counter(name);
  }
  EXPECT_EQ(registry.counter("crawl.pushes"), c1);
}

TEST(MetricsRegistryTest, MergeSumsCountersMaxesGauges) {
  MetricsRegistry a, b;
  a.counter("n")->Add(3);
  b.counter("n")->Add(4);
  b.counter("only_b")->Increment();
  a.gauge("depth")->Set(10);
  b.gauge("depth")->Set(7);
  a.histogram("h")->Record(2);
  b.histogram("h")->Record(2);
  a.Merge(b);
  EXPECT_EQ(a.counter("n")->value(), 7u);
  EXPECT_EQ(a.counter("only_b")->value(), 1u);
  EXPECT_EQ(a.gauge("depth")->max_seen(), 10u);
  EXPECT_EQ(a.histogram("h")->count(), 2u);
}

TEST(MetricsRegistryTest, SelfMergeIsANoOp) {
  MetricsRegistry a;
  a.counter("n")->Add(5);
  a.Merge(a);
  EXPECT_EQ(a.counter("n")->value(), 5u);
}

TEST(MetricsRegistryTest, SerializationIsOrderIndependent) {
  // Registering and populating the same metrics in different orders
  // must serialize identically: keys are sorted by name, and merge is
  // commutative. This is the determinism the merged obs block in
  // BENCH_*.json relies on.
  MetricsRegistry a;
  a.counter("z")->Add(1);
  a.counter("a")->Add(2);
  a.gauge("g")->Set(9);
  a.histogram("h")->Record(4);
  a.histogram("h")->Record(70);

  MetricsRegistry b;
  b.histogram("h")->Record(70);
  b.gauge("g")->Set(9);
  b.counter("a")->Add(2);
  b.counter("z")->Add(1);
  b.histogram("h")->Record(4);

  EXPECT_EQ(a.ToJson(), b.ToJson());
}

TEST(MetricsRegistryTest, MergeOrderDoesNotChangeSerialization) {
  auto populate = [](MetricsRegistry* r, uint64_t n) {
    r->counter("pushes")->Add(n);
    r->gauge("depth")->Set(n * 10);
    r->histogram("wait")->Record(n);
  };
  MetricsRegistry r1, r2, r3;
  populate(&r1, 1);
  populate(&r2, 2);
  populate(&r3, 3);

  MetricsRegistry forward;
  forward.Merge(r1);
  forward.Merge(r2);
  forward.Merge(r3);
  MetricsRegistry backward;
  backward.Merge(r3);
  backward.Merge(r2);
  backward.Merge(r1);
  EXPECT_EQ(forward.ToJson(), backward.ToJson());
}

TEST(MetricsRegistryTest, ToJsonListsOnlyNonEmptyBuckets) {
  MetricsRegistry registry;
  registry.histogram("h")->Record(0);
  registry.histogram("h")->Record(9);
  const std::string json = registry.ToJson();
  // Bucket pairs are [lower_bound, count]: zeros in [0, ...], 9 in
  // [8, ...]; untouched buckets must not appear.
  EXPECT_NE(json.find("[0, 1]"), std::string::npos) << json;
  EXPECT_NE(json.find("[8, 1]"), std::string::npos) << json;
  EXPECT_EQ(json.find("[16,"), std::string::npos) << json;
}

}  // namespace
}  // namespace lswc::obs
