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

  /// DRAM transactions of a run of accesses (access_run).
  struct RunResult {
    u64 dram_read_tx = 0;
    u64 dram_write_tx = 0;
  };

  /// `capacity_bytes` / `sector_bytes` sectors arranged in `ways`-way sets.
  SectorCache(u32 capacity_bytes, u32 ways, u32 sector_bytes);

  /// Read one sector (identified by a device-wide sector index).
  AccessResult read(u64 sector) {
    return access(sector % num_sets_, sector, /*is_write=*/false);
  }

  /// Write one sector.  Write misses allocate without a fill (the common
  /// GPU policy for full-sector streaming stores); the DRAM cost is paid at
  /// eviction/flush time as a writeback.
  AccessResult write(u64 sector) {
    return access(sector % num_sets_, sector, /*is_write=*/true);
  }

  /// Read or write the `count` consecutive sectors starting at `first`, in
  /// ascending order; returns the summed DRAM transactions.  Defined
  /// inline: every warp memory instruction's sectors funnel through here
  /// (directly on the serial path, via the shard merge's replay
  /// otherwise), making it the simulator's hottest call.  Consecutive
  /// sectors map to consecutive sets, so the set index is computed once
  /// and stepped.
  RunResult access_run(u64 first, u32 count, bool is_write) {
    RunResult sum;
    u64 set = first % num_sets_;
    for (u32 s = 0; s < count; ++s) {
      const AccessResult r = access(set, first + s, is_write);
      sum.dram_read_tx += r.dram_read_tx;
      sum.dram_write_tx += r.dram_write_tx;
      if (++set == num_sets_) set = 0;
    }
    return sum;
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

  bool test_dirty(std::size_t i) const {
    return ((dirty_[i / 64] >> (i % 64)) & 1u) != 0;
  }
  void set_dirty(std::size_t i) { dirty_[i / 64] |= u64{1} << (i % 64); }
  void clear_dirty(std::size_t i) { dirty_[i / 64] &= ~(u64{1} << (i % 64)); }

  /// One access to `sector`, which maps to `set`: a single walk of the
  /// set both looks for the tag and picks the victim a miss replaces --
  /// the first invalid way after way 0, otherwise the first
  /// least-recently-used way.  A cold set thus fills ways 1..W-1 before
  /// way 0.  Line placement decides the flush's ascending-index writeback
  /// order (and so the chaos draws), so this rule is part of the modeled
  /// behaviour.
  ///
  /// The walk visits ways 1..W-1 and then way 0 and keeps the first
  /// strictly smallest LRU stamp.  An invalid line's stamp is 0 and a
  /// valid line's is at least 1, so that is the first invalid way after
  /// way 0 when there is one (way 0 is only invalid when all ways are),
  /// and otherwise the unique oldest way.  The walk has no early exit:
  /// its selects compile to conditional moves, which beats branching on
  /// data-dependent comparisons.
  AccessResult access(u64 set, u64 sector, bool is_write) {
    const std::size_t first = static_cast<std::size_t>(set) * ways_;
    Line* const base = &lines_[first];
    AccessResult r;
    u32 hit = ways_;  // none
    u32 victim = 0;
    u64 victim_lru = ~u64{0};
    for (u32 w = 1; w < ways_; ++w) {
      hit = base[w].tag == sector ? w : hit;
      const bool older = base[w].lru < victim_lru;
      victim_lru = older ? base[w].lru : victim_lru;
      victim = older ? w : victim;
    }
    hit = base[0].tag == sector ? 0 : hit;
    victim = base[0].lru < victim_lru ? 0 : victim;
    if (hit != ways_) {
      r.hit = true;
      if (is_write) set_dirty(first + hit);
      base[hit].lru = ++tick_;
      return r;
    }
    Line& line = base[victim];
    const std::size_t idx = first + victim;
    if (test_dirty(idx)) {
      r.dram_write_tx += 1;
      note_writeback(line.tag);
      if (!is_write) clear_dirty(idx);
    }
    if (is_write) {
      set_dirty(idx);  // allocate-without-fill: cost paid at writeback
    } else {
      r.dram_read_tx += 1;  // miss fill
    }
    line.tag = sector;
    line.lru = ++tick_;
    return r;
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
