// SectorCache (L2 model) unit tests: hit/miss behaviour, LRU eviction,
// dirty writeback accounting, and flush semantics, plus a differential
// test against a full-sweep reference model of the same cache.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sim/cache.hpp"

namespace ms::sim {
namespace {

TEST(SectorCache, ColdReadMissesThenHits) {
  SectorCache c(1024, 4, 32);
  auto r1 = c.read(7);
  EXPECT_FALSE(r1.hit);
  EXPECT_EQ(r1.dram_read_tx, 1u);
  auto r2 = c.read(7);
  EXPECT_TRUE(r2.hit);
  EXPECT_EQ(r2.dram_read_tx, 0u);
}

TEST(SectorCache, WriteAllocatesWithoutFill) {
  SectorCache c(1024, 4, 32);
  auto w = c.write(3);
  EXPECT_FALSE(w.hit);
  EXPECT_EQ(w.dram_read_tx, 0u);   // no fill on write miss
  EXPECT_EQ(w.dram_write_tx, 0u);  // cost deferred to writeback
  EXPECT_EQ(c.flush_dirty(), 1u);
  EXPECT_EQ(c.flush_dirty(), 0u);  // idempotent
}

TEST(SectorCache, ReadAfterWriteHitsWithoutFill) {
  SectorCache c(1024, 4, 32);
  c.write(5);
  auto r = c.read(5);
  EXPECT_TRUE(r.hit);
}

TEST(SectorCache, LruEvictionWithinSet) {
  // 4 ways; sectors that map to the same set are k*num_sets apart.
  SectorCache c(1024, 4, 32);  // 32 lines, 8 sets
  const u64 sets = c.num_sets();
  // Fill set 0 with 4 distinct tags.
  for (u64 k = 0; k < 4; ++k) c.read(k * sets);
  // Touch the first three again so tag 3*sets is LRU.
  c.read(0);
  c.read(sets);
  c.read(2 * sets);
  // A fifth tag evicts the LRU (3*sets).
  c.read(4 * sets);
  EXPECT_TRUE(c.read(0).hit);
  EXPECT_FALSE(c.read(3 * sets).hit);
}

TEST(SectorCache, ColdSetFillsWayZeroLast) {
  // A cold set fills ways 1..W-1 first, then way 0 (the first LRU way
  // once no way after 0 is invalid, since an invalid line's stamp is 0).
  // The fourth tag therefore takes way 0 without evicting anything, and
  // the fifth evicts the least recently used tag, the first one.
  SectorCache c(1024, 4, 32);  // 32 lines, 8 sets
  const u64 sets = c.num_sets();
  for (u64 k = 0; k < 4; ++k) {
    const auto w = c.write(k * sets);
    EXPECT_FALSE(w.hit);
    EXPECT_EQ(w.dram_write_tx, 0u) << "tag " << k << " evicted a line";
  }
  const auto fifth = c.write(4 * sets);
  EXPECT_FALSE(fifth.hit);
  EXPECT_EQ(fifth.dram_write_tx, 1u);  // the evicted line was dirty
  for (u64 k = 1; k < 5; ++k) EXPECT_TRUE(c.read(k * sets).hit) << k;
  EXPECT_FALSE(c.read(0).hit);
}

TEST(SectorCache, DirtyEvictionCostsWriteback) {
  SectorCache c(128, 1, 32);  // 4 sets, direct-mapped
  const u64 sets = c.num_sets();
  c.write(0);
  c.write(1);
  auto r = c.read(sets);  // maps to set 0, evicts dirty line
  EXPECT_EQ(r.dram_write_tx, 1u);
  EXPECT_EQ(r.dram_read_tx, 1u);
  EXPECT_EQ(c.flush_dirty(), 1u);  // the evicted line is not written again
  EXPECT_EQ(c.flush_dirty(), 0u);
}

TEST(SectorCache, ResetDropsEverything) {
  SectorCache c(1024, 4, 32);
  c.write(1);
  c.read(2);
  c.reset();
  EXPECT_EQ(c.flush_dirty(), 0u);
  EXPECT_FALSE(c.read(2).hit);
}

TEST(SectorCache, RejectsBadGeometry) {
  EXPECT_THROW(SectorCache(16, 4, 32), std::logic_error);
}

TEST(SectorCache, LargeWorkingSetThrashes) {
  SectorCache c(1024, 4, 32);  // 32 lines total
  u32 misses = 0;
  for (int rep = 0; rep < 3; ++rep) {
    for (u64 s = 0; s < 64; ++s) {  // 2x capacity
      if (!c.read(s).hit) ++misses;
    }
  }
  EXPECT_EQ(misses, 3u * 64u);  // pure capacity thrash: no reuse survives
}

// ------------------------------------------------ differential reference

// The cache as it was before the dirty bitmap: a `dirty` flag per line and
// a flush that sweeps every line.  Kept deliberately naive so it is easy
// to check by eye; SectorCache must agree with it on every access result
// and every flush count.
class SweepCache {
 public:
  SweepCache(u32 capacity_bytes, u32 ways, u32 sector_bytes)
      : ways_(ways),
        num_sets_(capacity_bytes / sector_bytes / ways),
        lines_(static_cast<std::size_t>(num_sets_) * ways) {}

  SectorCache::AccessResult read(u64 sector) { return access(sector, false); }
  SectorCache::AccessResult write(u64 sector) { return access(sector, true); }

  u64 flush_dirty() {
    u64 writebacks = 0;
    for (Line& line : lines_) {
      if (line.tag != kInvalid && line.dirty) {
        line.dirty = false;
        ++writebacks;
      }
    }
    return writebacks;
  }

  void reset() {
    for (Line& line : lines_) line = Line{};
    tick_ = 0;
  }

 private:
  static constexpr u64 kInvalid = ~u64{0};
  struct Line {
    u64 tag = kInvalid;
    u64 lru = 0;
    bool dirty = false;
  };

  SectorCache::AccessResult access(u64 sector, bool is_write) {
    Line* base = &lines_[(sector % num_sets_) * ways_];
    SectorCache::AccessResult r;
    for (u32 w = 0; w < ways_; ++w) {
      if (base[w].tag == sector) {
        r.hit = true;
        base[w].dirty = base[w].dirty || is_write;
        base[w].lru = ++tick_;
        return r;
      }
    }
    Line* line = base;
    for (u32 w = 1; w < ways_; ++w) {
      if (base[w].tag == kInvalid) {
        line = &base[w];
        break;
      }
      if (base[w].lru < line->lru) line = &base[w];
    }
    if (line->tag != kInvalid && line->dirty) r.dram_write_tx += 1;
    line->tag = sector;
    line->dirty = is_write;
    line->lru = ++tick_;
    if (!is_write) r.dram_read_tx += 1;
    return r;
  }

  u32 ways_;
  u32 num_sets_;
  u64 tick_ = 0;
  std::vector<Line> lines_;
};

struct Geometry {
  u32 capacity_bytes;
  u32 ways;
  u32 sector_bytes;
};

// ~200k seeded random reads/writes per geometry, half of them to a hot
// range that fits in the cache (write combining, read hits) and half to a
// range twice its size (evictions).  One call in 64 is instead a run of
// 1..2*num_sets consecutive sectors through SectorCache::access_run, fed
// one by one to the reference and compared on the summed transactions;
// every other run starts within a few sets of the last set, so it wraps
// to set 0.  Flushes come after a random number of calls up to twice the
// line count, so they see anywhere from one dirty line to a full cache; a
// reset drops in now and then.
void run_differential(const Geometry& g, u64 seed) {
  SectorCache fast(g.capacity_bytes, g.ways, g.sector_bytes);
  SweepCache ref(g.capacity_bytes, g.ways, g.sector_bytes);
  const u64 lines = g.capacity_bytes / g.sector_bytes;
  std::mt19937_64 rng(seed);
  const auto next_flush_gap = [&] { return 1 + rng() % (2 * lines); };
  u64 until_flush = next_flush_gap();
  u64 flushes = 0;
  u64 runs = 0;
  for (u64 call = 0; call < 200'000; ++call) {
    const u64 r = rng();
    const u64 span = (r & 1) != 0 ? lines / 2 + 1 : 2 * lines;
    const u64 sector = (r >> 8) % span;
    const bool is_write = ((r >> 1) & 3) != 0;  // 3 writes : 1 read
    if ((r >> 58) == 0) {
      const u64 sets = fast.num_sets();
      const u32 count = static_cast<u32>(1 + rng() % (2 * sets));
      const u64 first = (rng() & 1) != 0
                            ? sector - sector % sets + sets - 1 - rng() % 4
                            : sector;
      const auto a = fast.access_run(first, count, is_write);
      SectorCache::RunResult b;
      for (u64 s = first; s < first + count; ++s) {
        const auto one = is_write ? ref.write(s) : ref.read(s);
        b.dram_read_tx += one.dram_read_tx;
        b.dram_write_tx += one.dram_write_tx;
      }
      ASSERT_EQ(a.dram_read_tx, b.dram_read_tx) << "run at call " << call;
      ASSERT_EQ(a.dram_write_tx, b.dram_write_tx) << "run at call " << call;
      ++runs;
    } else {
      const auto a = is_write ? fast.write(sector) : fast.read(sector);
      const auto b = is_write ? ref.write(sector) : ref.read(sector);
      ASSERT_EQ(a.hit, b.hit) << "call " << call;
      ASSERT_EQ(a.dram_read_tx, b.dram_read_tx) << "call " << call;
      ASSERT_EQ(a.dram_write_tx, b.dram_write_tx) << "call " << call;
    }
    if (--until_flush == 0) {
      ASSERT_EQ(fast.flush_dirty(), ref.flush_dirty()) << "call " << call;
      until_flush = next_flush_gap();
      ++flushes;
    }
    if ((r >> 32) % 20'000 == 0) {
      fast.reset();
      ref.reset();
    }
  }
  ASSERT_EQ(fast.flush_dirty(), ref.flush_dirty());
  EXPECT_GT(flushes, 0u);
  EXPECT_GT(runs, 0u);
}

TEST(SectorCacheDifferential, SubWordLineCount) {
  run_differential({1024, 4, 32}, 1);  // 32 lines: under one bitmap word
}

TEST(SectorCacheDifferential, LineCountNotAMultipleOf64) {
  run_differential({3072, 4, 32}, 2);  // 96 lines
}

TEST(SectorCacheDifferential, DirectMapped) {
  run_differential({128, 1, 32}, 3);  // 4 lines, 1 way
}

TEST(SectorCacheDifferential, TeslaK40cGeometry) {
  run_differential({1536 * 1024, 16, 32}, 4);  // 49,152 lines
}

}  // namespace
}  // namespace ms::sim
