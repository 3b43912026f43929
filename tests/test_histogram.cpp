// Device-wide histogram primitives (Section 2's two families): global
// atomics vs. block-local shared-memory accumulation.
#include <gtest/gtest.h>

#include <ostream>
#include <random>

#include "multisplit/bucket.hpp"
#include "primitives/histogram.hpp"

namespace ms::prim {
namespace {

using sim::Device;
using sim::DeviceBuffer;

struct HistParam {
  u64 n;
  u32 m;
  // Prints the fields, so gtest names the cases by value instead of
  // dumping the struct's bytes (padding included).
  friend std::ostream& operator<<(std::ostream& os, const HistParam& p) {
    return os << "n" << p.n << "_m" << p.m;
  }
};

class HistogramTest : public ::testing::TestWithParam<HistParam> {};

TEST_P(HistogramTest, BothVariantsMatchReference) {
  const auto [n, m] = GetParam();
  Device dev;
  std::mt19937 rng(static_cast<u32>(n * 31 + m));
  DeviceBuffer<u32> keys(dev, n);
  std::vector<u32> want(m, 0);
  const split::RangeBucket bucket{m};
  for (u64 i = 0; i < n; ++i) {
    keys[i] = rng();
    want[bucket(keys[i])]++;
  }
  DeviceBuffer<u32> h1(dev, m), h2(dev, m);
  histogram_global_atomic(dev, keys, h1, m, bucket);
  histogram_block_local(dev, keys, h2, m, bucket);
  for (u32 d = 0; d < m; ++d) {
    ASSERT_EQ(h1[d], want[d]) << "atomic, bucket " << d;
    ASSERT_EQ(h2[d], want[d]) << "block-local, bucket " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HistogramTest,
    ::testing::Values(HistParam{1, 4}, HistParam{1000, 2}, HistParam{1000, 32},
                      HistParam{4096, 100}, HistParam{100001, 8},
                      HistParam{65536, 256}));

TEST(HistogramContention, FewBucketsCauseMoreAtomicConflicts) {
  // The paper's Section 2 point: atomics are fine for many buckets and
  // contention-bound for few.  Check the conflict counter reflects that.
  Device dev;
  const u64 n = 1u << 14;
  std::mt19937 rng(3);
  DeviceBuffer<u32> keys(dev, n), hist(dev, 256);
  for (u64 i = 0; i < n; ++i) keys[i] = rng();

  dev.clear_records();
  histogram_global_atomic(dev, keys, hist, 2, split::RangeBucket{2});
  const u64 conflicts_few = dev.summary_all().events.atomic_conflicts;

  dev.reset_stats();
  histogram_global_atomic(dev, keys, hist, 256, split::RangeBucket{256});
  const u64 conflicts_many = dev.summary_all().events.atomic_conflicts;

  EXPECT_GT(conflicts_few, 2 * conflicts_many);
}

TEST(HistogramContention, BlockLocalBeatsGlobalAtomicsForFewBuckets) {
  Device dev;
  const u64 n = 1u << 16;
  std::mt19937 rng(4);
  DeviceBuffer<u32> keys(dev, n), hist(dev, 4);
  for (u64 i = 0; i < n; ++i) keys[i] = rng();

  dev.clear_records();
  histogram_global_atomic(dev, keys, hist, 4, split::RangeBucket{4});
  const f64 t_atomic = dev.total_ms();
  dev.reset_stats();
  histogram_block_local(dev, keys, hist, 4, split::RangeBucket{4});
  const f64 t_block = dev.total_ms();
  EXPECT_LT(t_block, t_atomic);
}

TEST(HistogramEdge, SkewedInputAllInOneBucket) {
  Device dev;
  const u64 n = 10000;
  DeviceBuffer<u32> keys(dev, n), hist(dev, 8);
  keys.fill(0);  // everything lands in bucket 0
  histogram_block_local(dev, keys, hist, 8, split::RangeBucket{8});
  EXPECT_EQ(hist[0], n);
  for (u32 d = 1; d < 8; ++d) EXPECT_EQ(hist[d], 0u);
}

}  // namespace
}  // namespace ms::prim
