// Set-associative L2 cache model.
//
// The GPU's L2 is what makes fine-grained scatters survivable: when many
// warps append to the same per-bucket output cursors, their partial 32-byte
// sectors coalesce in L2 and reach DRAM once.  The multisplit paper's
// central trade-off -- local reordering vs. scattered writes -- only
// reproduces faithfully if that effect exists, so we model it: an LRU
// set-associative cache of 32-byte sectors.  Reads miss once per sector of
// streamed data; writes to a sector still resident in L2 are free at the
// DRAM level (write combining), and a dirty sector costs one DRAM
// transaction when evicted or flushed.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/types.hpp"

namespace ms::sim {

class ChaosEngine;

class SectorCache {
 public:
  struct AccessResult {
    bool hit = false;
    /// DRAM transactions caused by this access (miss fill and/or dirty
    /// eviction writeback).
    u32 dram_read_tx = 0;
    u32 dram_write_tx = 0;
  };

  /// `capacity_bytes` / `sector_bytes` sectors arranged in `ways`-way sets.
  SectorCache(u32 capacity_bytes, u32 ways, u32 sector_bytes);

  /// Read one sector (identified by a device-wide sector index).  Defined
  /// inline: every warp memory instruction funnels its sectors through here,
  /// making this the single hottest call in the simulator.
  AccessResult read(u64 sector) {
    const u64 set = sector % num_sets_;
    AccessResult r;
    if (Line* line = find(set, sector)) {
      r.hit = true;
      line->lru = ++tick_;
      return r;
    }
    Line* line = victim(set);
    const std::size_t idx = index_of(line);
    if (test_dirty(idx)) {
      r.dram_write_tx += 1;
      note_writeback(line->tag);
      clear_dirty(idx);
    }
    line->tag = sector;
    line->lru = ++tick_;
    r.dram_read_tx += 1;  // miss fill
    return r;
  }

  /// Write one sector.  Write misses allocate without a fill (the common
  /// GPU policy for full-sector streaming stores); the DRAM cost is paid at
  /// eviction/flush time as a writeback.
  AccessResult write(u64 sector) {
    const u64 set = sector % num_sets_;
    AccessResult r;
    if (Line* line = find(set, sector)) {
      r.hit = true;
      set_dirty(index_of(line));
      line->lru = ++tick_;
      return r;
    }
    Line* line = victim(set);
    const std::size_t idx = index_of(line);
    if (test_dirty(idx)) {
      r.dram_write_tx += 1;
      note_writeback(line->tag);
    }
    line->tag = sector;
    set_dirty(idx);  // allocate-without-fill: cost paid at writeback
    line->lru = ++tick_;
    return r;
  }

  /// Write back all dirty lines; returns the number of DRAM write
  /// transactions.  Called at the end of each kernel: a kernel's stores
  /// must be globally visible before the next kernel launches.  Visits
  /// only the set bits of the dirty bitmap, in ascending line index, so
  /// its cost is O(lines / 64 + dirty lines) rather than O(lines).
  u64 flush_dirty();

  /// Drop everything (also clears statistics' working set).
  void reset();

  u32 sector_bytes() const { return sector_bytes_; }
  u32 num_sets() const { return num_sets_; }
  u32 ways() const { return ways_; }

  /// Attach/detach the fault-injection engine (Device::enable_chaos).
  /// When set, every dirty-sector writeback (eviction or flush) gives the
  /// engine a chance to corrupt the written-back range.  The writeback
  /// stream is identical serial vs replayed-parallel (PR 4), so injections
  /// here stay deterministic at any thread count.
  void set_chaos(ChaosEngine* chaos) { chaos_ = chaos; }

 private:
  /// Out of line: needs the ChaosEngine definition, and only runs on dirty
  /// evictions/flushes (off the resident-hit fast path).
  void note_writeback(u64 sector);
  /// A line's dirty state lives only in `dirty_`, never here.
  struct Line {
    u64 tag = kInvalid;
    u64 lru = 0;
  };
  static constexpr u64 kInvalid = ~u64{0};

  std::size_t index_of(const Line* line) const {
    return static_cast<std::size_t>(line - lines_.data());
  }
  bool test_dirty(std::size_t i) const {
    return ((dirty_[i / 64] >> (i % 64)) & 1u) != 0;
  }
  void set_dirty(std::size_t i) { dirty_[i / 64] |= u64{1} << (i % 64); }
  void clear_dirty(std::size_t i) { dirty_[i / 64] &= ~(u64{1} << (i % 64)); }

  Line* find(u64 set, u64 tag) {
    Line* base = &lines_[set * ways_];
    for (u32 w = 0; w < ways_; ++w) {
      if (base[w].tag == tag) return &base[w];
    }
    return nullptr;
  }

  Line* victim(u64 set) {
    Line* base = &lines_[set * ways_];
    Line* best = base;
    for (u32 w = 1; w < ways_; ++w) {
      if (base[w].tag == kInvalid) return &base[w];
      if (base[w].lru < best->lru) best = &base[w];
    }
    return best;
  }

  u32 ways_;
  u32 sector_bytes_;
  u32 num_sets_;
  u64 tick_ = 0;
  std::vector<Line> lines_;  // num_sets_ * ways_, set-major
  /// One bit per line of `lines_` (bit i % 64 of word i / 64): the only
  /// record of which lines are dirty.  A set bit implies a valid line.
  std::vector<u64> dirty_;
  ChaosEngine* chaos_ = nullptr;
};

}  // namespace ms::sim
