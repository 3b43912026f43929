#include "sim/cache.hpp"

#include <algorithm>
#include <bit>

#include "sim/chaos.hpp"

namespace ms::sim {

void SectorCache::note_writeback(u64 sector) {
  if (chaos_ != nullptr) {
    chaos_->on_writeback(sector * sector_bytes_, sector_bytes_);
  }
}

SectorCache::SectorCache(u32 capacity_bytes, u32 ways, u32 sector_bytes)
    : ways_(ways), sector_bytes_(sector_bytes) {
  check(ways > 0 && sector_bytes > 0, "cache: bad geometry");
  const u32 total_lines = capacity_bytes / sector_bytes;
  check(total_lines >= ways, "cache: capacity smaller than one set");
  num_sets_ = total_lines / ways;
  lines_.assign(static_cast<std::size_t>(num_sets_) * ways_, Line{});
  dirty_.assign((lines_.size() + 63) / 64, 0);
}

u64 SectorCache::flush_dirty() {
  // Lowest set bit first within each word, words in order: ascending line
  // index, the order a full sweep of lines_ would visit the dirty lines.
  // The chaos engine's on_writeback draws depend on that order.
  u64 writebacks = 0;
  for (std::size_t w = 0; w < dirty_.size(); ++w) {
    u64 bits = dirty_[w];
    if (bits == 0) continue;
    dirty_[w] = 0;
    for (; bits != 0; bits &= bits - 1) {
      const std::size_t i = w * 64 + static_cast<u32>(std::countr_zero(bits));
      ++writebacks;
      note_writeback(lines_[i].tag);
    }
  }
  return writebacks;
}

void SectorCache::reset() {
  for (Line& line : lines_) line = Line{};
  std::fill(dirty_.begin(), dirty_.end(), 0);
  tick_ = 0;
}

}  // namespace ms::sim
