// Shared machinery of the repo benchmark: arguments, host timing, latency
// samples, the benchmark's own span tracer, the stable-partition reference
// check and the per-layer counters read back from a device's kernel log.
//
// Two clocks appear in every workload and are never mixed:
//   host     -- steady_clock wall time of the simulator itself;
//   modeled  -- the simulated Tesla K40c's time, from kernel records.
#pragma once

#include <chrono>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/device.hpp"
#include "sim/types.hpp"

namespace perfbench {

using ms::f64;
using ms::i64;
using ms::u32;
using ms::u64;

struct Args {
  std::string workload;
  u64 seed = 1;
  u32 seconds = 10;
  bool trace = false;
  /// Tiny sizes for the self-test: every code path, a fraction of a second.
  bool tiny = false;
  u32 host_threads = 2;
  std::string out_dir;  ///< where the traced run writes its span dump
};

using Clock = std::chrono::steady_clock;

inline f64 ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<f64, std::milli>(b - a).count();
}

/// Host time of main() entry; the first set-up repetition starts here.
Clock::time_point process_start();

/// Derive an independent 64-bit stream seed from the run seed.
u64 mix_seed(u64 seed, u64 salt);

/// A bag of host timings (or any sample) with nearest-rank percentiles.
/// Each sample may name the group it shares its fate with (a serving
/// flush); by default every sample is its own group.
class Samples {
 public:
  void add(f64 v) { add(v, v_.size()); }
  void add(f64 v, u64 group) {
    v_.push_back(v);
    group_.push_back(group);
  }
  u64 size() const { return v_.size(); }
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  f64 percentile(f64 p) const;
  f64 median() const { return percentile(50.0); }
  /// Samples above `v`, and the distinct groups they come from.
  std::pair<u64, u64> beyond(f64 v) const;
  /// The samples [first, last) in the order they were added.
  Samples slice(u64 first, u64 last) const;
  /// Cut the samples, in the order added, into `k` consecutive windows
  /// of about equal size; a cut never splits a group.
  std::vector<Samples> windows(u32 k) const;

 private:
  std::vector<f64> v_;
  std::vector<u64> group_;
};

/// One window's tail: a percentile of the ladder {50, 75, 90, 95, 99},
/// its value, and the samples beyond it.  Samples of one group count once:
/// serve_stream's requests wait for the flush that serves them, so one
/// slow flush delays 256 of them together.
struct Tail {
  f64 pct = 0.0;
  f64 value = 0.0;
  u64 beyond = 0;         ///< samples above the value
  u64 groups_beyond = 0;  ///< distinct groups among them
};

/// The reported tail: the timed phase's samples cut into `k` consecutive
/// windows; the highest percentile of the ladder with at least ten
/// independent samples beyond it in every window; and the window whose
/// value at that percentile is the median (the lower middle one for even
/// `k`).  A burst of load from another process on the host moves the tail
/// of the windows it falls in, not the median of them.
struct WindowedTail {
  Tail median;             ///< the median window's tail
  std::vector<Tail> each;  ///< every window's tail, in time order
};
WindowedTail windowed_tail_of(const Samples& s, u32 k);

/// Benchmark-side spans around the library calls (README "Traced run").
/// Spans live in memory and are written out at the end; the device's own
/// span recorder stays off.  Recording is a no-op while `on` is false, so
/// one tracer serves the traced and untraced blocks of a run.
class Tracer {
 public:
  bool on = false;

  /// Open a span; returns its id (0 = not recorded).  `parent` is the id
  /// of the enclosing span or 0 for a root.
  u32 open(const char* name, u64 request, u32 parent = 0);
  /// Close span `id`; `rename` replaces its name when the layer is only
  /// known afterwards (a submit that turned out to flush).
  void close(u32 id, const char* rename = nullptr);

  /// Self time per span name: duration minus the time its children cover.
  std::map<std::string, f64> self_ms() const;
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    u64 request;
    u32 parent;
    i64 start_ns;
    i64 end_ns;
  };
  std::vector<Span> spans_;
};

/// RAII span; closes on scope exit.
class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name, u64 request, u32 parent = 0)
      : t_(t), id_(t.open(name, request, parent)) {}
  ~SpanScope() { t_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  u32 id() const { return id_; }

 private:
  Tracer& t_;
  u32 id_;
};

/// Compare one split with the host reference: keys (and values when
/// `vals_in` is non-empty) in std::stable_partition order under
/// RangeBucket{m}, and the m+1 bucket offsets.  True when all match.
bool check_split(std::span<const u32> keys_in, std::span<const u32> vals_in,
                 u32 m, std::span<const u32> keys_out,
                 std::span<const u32> vals_out,
                 std::span<const u32> offsets);

/// Modeled-side counters summed over a range of kernel records.
struct LayerCounts {
  ms::sim::KernelEvents events;
  u64 launches = 0;
  f64 modeled_ms = 0.0;

  void add(const std::vector<ms::sim::KernelRecord>& recs, u64 from = 0);
  /// Bit pattern of everything above, for the repeat check.
  bool operator==(const LayerCounts& o) const;
};

/// Named metrics in insertion order.
struct Metric {
  std::string name;
  f64 value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, f64 value, const std::string& unit);
  const std::vector<Metric>& all() const { return m_; }
  const Metric* find(const std::string& name) const;

 private:
  std::vector<Metric> m_;
};

/// Modeled Table 5 rate of one cell against the paper's (fidelity).
struct FidelityCell {
  std::string method;
  u32 m = 0;
  bool key_value = false;
  f64 model_gkeys = 0.0;
  f64 paper_gkeys = 0.0;
  f64 signed_err_pct() const {
    return (model_gkeys - paper_gkeys) / paper_gkeys * 100.0;
  }
};

struct Fidelity {
  std::vector<FidelityCell> cells;
  f64 mape_pct() const;
};

/// What one workload run hands back to main().
struct RunResult {
  u64 attempted = 0;
  u64 failed = 0;
  /// Modeled fingerprints that should repeat bit-exactly did (set-up
  /// repetitions, repeated grid cells).
  bool repeat_ok = true;
  std::string repeat_note;

  Samples request_ms;  ///< host latency per request, in time order
  f64 timed_s = 0.0;   ///< host seconds of the timed phase, checks excluded
  u64 keys = 0;        ///< input keys split in the timed phase
  u64 requests = 0;
  /// One timed chunk: a request, or a serving block of requests.
  struct Chunk {
    u64 keys;
    u64 requests;
    f64 seconds;
  };
  std::vector<Chunk> chunks;  ///< in time order
  /// Consecutive windows the timed phase is cut into for the medians of
  /// keys_per_s, requests_per_s and request_ms_tail.
  u32 windows = 1;
  Samples setup_s;     ///< one sample per set-up repetition
  f64 peak_rss_mb = 0.0;
  Fidelity fidelity;

  /// Traced run only: keys/s of the traced and untraced blocks.
  f64 traced_keys = 0.0, traced_s = 0.0;
  f64 untraced_keys = 0.0, untraced_s = 0.0;

  Metrics layers;  ///< per-layer metrics the workload measured

  /// Count one timed chunk.
  void add_timed(u64 k, u64 req, f64 s) {
    keys += k;
    requests += req;
    timed_s += s;
    chunks.push_back({k, req, s});
  }
};

/// keys_per_s and requests_per_s: the timed chunks cut into `r.windows`
/// consecutive windows of about equal chunk count, each window's rate, and
/// the median of them, so that a burst of load from another process moves
/// only the windows it falls in.
struct Rates {
  f64 keys_per_s = 0.0;
  f64 requests_per_s = 0.0;
};
Rates windowed_rates(const RunResult& r);

/// Peak resident set of this process so far (getrusage), in MiB.
f64 peak_rss_mb();

/// Per-layer metrics every workload derives the same way from its timed
/// phase's kernel-log counters and host time.
void set_sim_layers(Metrics& out, const LayerCounts& c, u64 requests,
                    f64 timed_host_ms, const ms::sim::DeviceProfile& prof);

/// Allocator pool metrics (reuse share and reserved address space).
void set_alloc_layers(Metrics& out, const ms::sim::AllocatorStats& s);

// The three workloads (one .cpp each) and the Table 5 fidelity pass that
// bulk_paper times and the other two run after their timed phase.
RunResult run_bulk_paper(const Args& a, Tracer& tr);
RunResult run_plan_loop(const Args& a, Tracer& tr);
RunResult run_serve_stream(const Args& a, Tracer& tr);
Fidelity table5_fidelity_pass(const Args& a, RunResult& r);

}  // namespace perfbench
