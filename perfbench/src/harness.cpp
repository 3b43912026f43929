#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

#include "sim/metrics.hpp"

namespace perfbench {

namespace {

i64 ns_since_start(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t - process_start())
      .count();
}

/// RangeBucket{m}, written out here so the reference shares no code with
/// the library under test.
struct RefBucket {
  u32 m;
  u32 operator()(u32 key) const {
    return static_cast<u32>((static_cast<u64>(key) * m) >> 32);
  }
};

/// Stable m-way split of idx[lo, hi) whose buckets lie in [blo, bhi), by
/// recursive binary std::stable_partition (stable at every level, so the
/// result is the stable multisplit order).
void stable_split(std::vector<u32>& idx, std::span<const u32> keys,
                  RefBucket bucket, u64 lo, u64 hi, u32 blo, u32 bhi) {
  if (bhi - blo <= 1 || hi - lo <= 1) return;
  const u32 mid = blo + (bhi - blo) / 2;
  const auto first = idx.begin() + static_cast<std::ptrdiff_t>(lo);
  const auto last = idx.begin() + static_cast<std::ptrdiff_t>(hi);
  const auto cut = std::stable_partition(
      first, last, [&](u32 i) { return bucket(keys[i]) < mid; });
  const u64 split = lo + static_cast<u64>(cut - first);
  stable_split(idx, keys, bucket, lo, split, blo, mid);
  stable_split(idx, keys, bucket, split, hi, mid, bhi);
}

}  // namespace

Clock::time_point process_start() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

u64 mix_seed(u64 seed, u64 salt) {
  // splitmix64 finalizer over (seed, salt).
  u64 z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

f64 Samples::percentile(f64 p) const {
  if (v_.empty()) return 0.0;
  std::vector<f64> s = v_;
  std::sort(s.begin(), s.end());
  const u64 n = s.size();
  u64 rank = static_cast<u64>(std::ceil(p / 100.0 * static_cast<f64>(n)));
  rank = std::clamp<u64>(rank, 1, n);
  return s[rank - 1];
}

std::pair<u64, u64> Samples::beyond(f64 v) const {
  std::vector<u64> groups;
  for (u64 i = 0; i < v_.size(); ++i)
    if (v_[i] > v) groups.push_back(group_[i]);
  const u64 samples = groups.size();
  std::sort(groups.begin(), groups.end());
  return {samples, static_cast<u64>(std::unique(groups.begin(), groups.end()) -
                                    groups.begin())};
}

Samples Samples::slice(u64 first, u64 last) const {
  Samples out;
  for (u64 i = first; i < last; ++i) out.add(v_[i], group_[i]);
  return out;
}

std::vector<Samples> Samples::windows(u32 k) const {
  std::vector<Samples> out;
  u64 first = 0;
  for (u32 w = 1; w <= k && first < v_.size(); ++w) {
    u64 last = w == k ? v_.size() : v_.size() * w / k;
    while (last > first && last < v_.size() && group_[last] == group_[last - 1])
      ++last;
    if (last > first) out.push_back(slice(first, last));
    first = last;
  }
  return out;
}

namespace {

Tail tail_at(const Samples& s, f64 p) {
  const f64 v = s.percentile(p);
  const auto [samples, groups] = s.beyond(v);
  return {p, v, samples, groups};
}

}  // namespace

WindowedTail windowed_tail_of(const Samples& s, u32 k) {
  static constexpr f64 kLadder[] = {50.0, 75.0, 90.0, 95.0, 99.0};
  WindowedTail out;
  const std::vector<Samples> windows = s.windows(k);
  if (windows.empty()) return out;
  f64 pct = kLadder[0];
  for (const f64 p : kLadder) {
    bool enough = true;
    for (const Samples& w : windows)
      enough = enough && tail_at(w, p).groups_beyond >= 10;
    if (!enough) break;
    pct = p;
  }
  for (const Samples& w : windows) out.each.push_back(tail_at(w, pct));
  std::vector<Tail> sorted = out.each;
  std::sort(sorted.begin(), sorted.end(),
            [](const Tail& a, const Tail& b) { return a.value < b.value; });
  out.median = sorted[(sorted.size() - 1) / 2];
  return out;
}

Rates windowed_rates(const RunResult& r) {
  const u64 n = r.chunks.size();
  Samples keys_per_s, requests_per_s;
  for (u32 w = 0; w < r.windows; ++w) {
    u64 keys = 0, requests = 0;
    f64 seconds = 0.0;
    for (u64 i = n * w / r.windows; i < n * (w + 1) / r.windows; ++i) {
      keys += r.chunks[i].keys;
      requests += r.chunks[i].requests;
      seconds += r.chunks[i].seconds;
    }
    if (seconds <= 0.0) continue;
    keys_per_s.add(static_cast<f64>(keys) / seconds);
    requests_per_s.add(static_cast<f64>(requests) / seconds);
  }
  return {keys_per_s.median(), requests_per_s.median()};
}

u32 Tracer::open(const char* name, u64 request, u32 parent) {
  if (!on) return 0;
  spans_.push_back({name, request, parent, ns_since_start(Clock::now()), -1});
  return static_cast<u32>(spans_.size());
}

void Tracer::close(u32 id, const char* rename) {
  if (id == 0) return;
  Span& s = spans_[id - 1];
  s.end_ns = ns_since_start(Clock::now());
  if (rename != nullptr) s.name = rename;
}

std::map<std::string, f64> Tracer::self_ms() const {
  std::vector<i64> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
  }
  std::map<std::string, f64> out;
  for (u64 i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<f64>(s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  for (u64 i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\":" << i + 1 << ",\"parent\":" << s.parent << ",\"name\":\""
      << s.name << "\",\"request\":" << s.request
      << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << "}\n";
  }
  return static_cast<bool>(f);
}

bool check_split(std::span<const u32> keys_in, std::span<const u32> vals_in,
                 u32 m, std::span<const u32> keys_out,
                 std::span<const u32> vals_out,
                 std::span<const u32> offsets) {
  const u64 n = keys_in.size();
  if (keys_out.size() != n || offsets.size() != u64{m} + 1) return false;
  if (!vals_in.empty() && (vals_in.size() != n || vals_out.size() != n))
    return false;
  const RefBucket bucket{m};
  std::vector<u32> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  stable_split(idx, keys_in, bucket, 0, n, 0, m);

  std::vector<u32> want_offsets(u64{m} + 1, 0);
  for (const u32 k : keys_in) ++want_offsets[bucket(k) + 1];
  std::partial_sum(want_offsets.begin(), want_offsets.end(),
                   want_offsets.begin());
  if (!std::equal(offsets.begin(), offsets.end(), want_offsets.begin()))
    return false;
  for (u64 j = 0; j < n; ++j) {
    if (keys_out[j] != keys_in[idx[j]]) return false;
    if (!vals_in.empty() && vals_out[j] != vals_in[idx[j]]) return false;
  }
  return true;
}

void LayerCounts::add(const std::vector<ms::sim::KernelRecord>& recs,
                      u64 from) {
  for (u64 i = from; i < recs.size(); ++i) {
    events += recs[i].events;
    modeled_ms += recs[i].time_ms;
    ++launches;
  }
}

bool LayerCounts::operator==(const LayerCounts& o) const {
  return events == o.events && launches == o.launches &&
         std::bit_cast<u64>(modeled_ms) == std::bit_cast<u64>(o.modeled_ms);
}

void Metrics::set(const std::string& name, f64 value, const std::string& unit) {
  for (Metric& x : m_) {
    if (x.name == name) {
      x.value = value;
      x.unit = unit;
      return;
    }
  }
  m_.push_back({name, value, unit});
}

const Metric* Metrics::find(const std::string& name) const {
  for (const Metric& x : m_)
    if (x.name == name) return &x;
  return nullptr;
}

f64 Fidelity::mape_pct() const {
  if (cells.empty()) return 0.0;
  f64 acc = 0.0;
  for (const FidelityCell& c : cells) acc += std::fabs(c.signed_err_pct());
  return acc / static_cast<f64>(cells.size());
}

f64 peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<f64>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void set_sim_layers(Metrics& out, const LayerCounts& c, u64 requests,
                    f64 timed_host_ms, const ms::sim::DeviceProfile& prof) {
  const ms::sim::DerivedMetrics d = ms::sim::derive_metrics(c.events, prof);
  const auto per = [](f64 a, f64 b) { return b > 0.0 ? a / b : 0.0; };
  const f64 launches = static_cast<f64>(c.launches);
  const f64 simt = static_cast<f64>(c.events.simt_insts);
  out.set("sim.launches_per_request", per(launches, static_cast<f64>(requests)),
          "count");
  out.set("sim.host_us_per_launch", per(timed_host_ms * 1e3, launches), "us");
  out.set("sim.simt_insts", simt, "count");
  out.set("sim.host_ns_per_simt_inst", per(timed_host_ms * 1e6, simt), "ns");
  out.set("sim.smem_accesses", static_cast<f64>(c.events.smem_accesses),
          "count");
  out.set("sim.bank_conflict_mult",
          c.events.smem_accesses > 0 ? d.bank_conflict_mult : 0.0, "ratio");
  out.set("sim.l2_sector_accesses",
          static_cast<f64>(c.events.l2_read_segments +
                           c.events.l2_write_segments),
          "count");
  out.set("sim.l2_read_hit_pct",
          c.events.l2_read_segments > 0 ? d.l2_read_hit_pct : 0.0, "%");
  out.set("sim.dram_tx",
          static_cast<f64>(c.events.dram_read_tx + c.events.dram_write_tx),
          "count");
  out.set("modeled.total_ms", c.modeled_ms, "ms");
  out.set("modeled.launch_overhead_pct",
          per(launches * prof.kernel_launch_us * 1e-3, c.modeled_ms) * 100.0,
          "%");
}

void set_alloc_layers(Metrics& out, const ms::sim::AllocatorStats& s) {
  out.set("sim.alloc_reuse_pct",
          s.alloc_count > 0 ? 100.0 * static_cast<f64>(s.reuse_hits) /
                                  static_cast<f64>(s.alloc_count)
                            : 0.0,
          "%");
  out.set("sim.bytes_reserved_mb",
          static_cast<f64>(s.bytes_reserved) / (1024.0 * 1024.0), "MB");
}

}  // namespace perfbench
