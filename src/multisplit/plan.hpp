// Plan/executor architecture for multisplit (the CUB-style reusable API
// the paper's follow-up artifact evolved into).
//
// A MultisplitPlan is built once from (Device, n, m, config): it validates
// the configuration, resolves Method::kAuto against the device profile's
// crossover table, and precomputes the grid shape and temp-storage
// requirement -- all host-side arithmetic, no device work.  plan.run(...)
// then executes any number of times; per-call scratch buffers come back
// from the device's caching sub-allocator (sim/allocator.hpp), so repeated
// runs reuse the same address ranges and re-hit L2 instead of growing the
// address space.
//
// Every concrete method is one row of a MethodImpl dispatch table -- the
// single method->implementation mapping both the plan and the legacy free
// functions (multisplit.hpp, now thin wrappers) route through.  Single-shot
// modeled costs are bit-identical to the pre-plan code: plan construction
// does no device work, the dispatch table calls exactly the functions the
// old switches called, and a fresh device's allocator hands out bump-
// identical addresses (see DESIGN.md §10).
#pragma once

#include <algorithm>
#include <array>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "multisplit/block_ms.hpp"
#include "multisplit/bucket.hpp"
#include "multisplit/common.hpp"
#include "multisplit/fused_sort.hpp"
#include "multisplit/randomized_insertion.hpp"
#include "multisplit/reduced_bit_sort.hpp"
#include "multisplit/scan_split.hpp"
#include "multisplit/sort_baselines.hpp"
#include "multisplit/warp_ms.hpp"
#include "sim/tape.hpp"
#include "sim/telemetry.hpp"

namespace ms::split {

namespace detail {

/// Typed null value-buffer for the key-only paths (lets V deduce to u32).
inline constexpr const sim::DeviceBuffer<u32>* kNoValues = nullptr;
inline constexpr sim::DeviceBuffer<u32>* kNoValuesOut = nullptr;

/// One row of the method dispatch table: the unified entry point of a
/// concrete method for a given (BucketFn, V) instantiation.  Key-only
/// callers pass null value buffers.
template <typename BucketFn, typename V>
struct MethodImpl {
  using RunFn = MultisplitResult (*)(
      sim::Device&, const sim::DeviceBuffer<u32>&, sim::DeviceBuffer<u32>&,
      const sim::DeviceBuffer<V>*, sim::DeviceBuffer<V>*, u32, BucketFn,
      const MultisplitConfig&);
  RunFn run;
};

/// The dispatch table, indexed by static_cast<u32>(Method).  Built once
/// per (BucketFn, V) instantiation; replaces the duplicated 8-way switches
/// the key-only and key-value entry points used to carry.
template <typename BucketFn, typename V>
const std::array<MethodImpl<BucketFn, V>, kConcreteMethodCount>&
method_table() {
  using D = sim::Device;
  using Keys = sim::DeviceBuffer<u32>;
  using Vals = sim::DeviceBuffer<V>;
  using Cfg = MultisplitConfig;
  static const std::array<MethodImpl<BucketFn, V>, kConcreteMethodCount>
      table = {{
          // kDirect
          {[](D& dev, const Keys& in, Keys& out, const Vals* vi, Vals* vo,
              u32 m, BucketFn fn, const Cfg& cfg) {
            return warp_granularity_ms<false>(dev, in, out, vi, vo, m, fn,
                                              cfg);
          }},
          // kWarpLevel
          {[](D& dev, const Keys& in, Keys& out, const Vals* vi, Vals* vo,
              u32 m, BucketFn fn, const Cfg& cfg) {
            return warp_granularity_ms<true>(dev, in, out, vi, vo, m, fn,
                                             cfg);
          }},
          // kBlockLevel
          {[](D& dev, const Keys& in, Keys& out, const Vals* vi, Vals* vo,
              u32 m, BucketFn fn, const Cfg& cfg) {
            return block_ms(dev, in, out, vi, vo, m, fn, cfg);
          }},
          // kScanSplit (m <= 2, enforced at plan build)
          {[](D& dev, const Keys& in, Keys& out, const Vals* vi, Vals* vo,
              u32 m, BucketFn fn, const Cfg& cfg) {
            return scan_split_ms(dev, in, out, vi, vo, m, fn, cfg);
          }},
          // kRecursiveScanSplit
          {[](D& dev, const Keys& in, Keys& out, const Vals* vi, Vals* vo,
              u32 m, BucketFn fn, const Cfg& cfg) {
            return scan_split_ms(dev, in, out, vi, vo, m, fn, cfg);
          }},
          // kReducedBitSort
          {[](D& dev, const Keys& in, Keys& out, const Vals* vi, Vals* vo,
              u32 m, BucketFn fn, const Cfg& cfg) {
            return reduced_bit_sort_ms(dev, in, out, vi, vo, m, fn, cfg);
          }},
          // kRandomizedInsertion (key-only; enforced at plan build and here)
          {[](D& dev, const Keys& in, Keys& out, const Vals* vi, Vals*,
              u32 m, BucketFn fn, const Cfg& cfg) {
            check(vi == nullptr,
                  "randomized insertion is key-only (Section 3.5)");
            return randomized_insertion_ms(dev, in, out, m, fn, cfg);
          }},
          // kFusedBucketSort
          {[](D& dev, const Keys& in, Keys& out, const Vals* vi, Vals* vo,
              u32 m, BucketFn fn, const Cfg& cfg) {
            return fused_bucket_sort_ms(dev, in, out, vi, vo, m, fn, cfg);
          }},
      }};
  return table;
}

/// Dispatch a concrete (already-resolved) method and stamp the result with
/// the method that ran.
template <typename BucketFn, typename V>
MultisplitResult run_method(Method method, sim::Device& dev,
                            const sim::DeviceBuffer<u32>& in,
                            sim::DeviceBuffer<u32>& out,
                            const sim::DeviceBuffer<V>* vals_in,
                            sim::DeviceBuffer<V>* vals_out, u32 m,
                            BucketFn bucket_of, const MultisplitConfig& cfg) {
  const u32 idx = static_cast<u32>(method);
  check(idx < kConcreteMethodCount, "multisplit: method not resolved");
  // Span bracket: a plain run is its own request span; under the
  // resilient executor (which already opened one) each run_method call
  // is one attempt span.  Both are no-ops without a recorder.
  sim::SpanRecorder* rec = dev.spans();
  std::optional<sim::SpanScope> request_span;
  if (rec != nullptr && !rec->in_request()) {
    request_span.emplace(dev, sim::SpanKind::kRequest, method_token(method));
  }
  sim::SpanScope attempt_span(dev, sim::SpanKind::kAttempt,
                              method_token(method));
  // The trace id this request's latency samples carry as their exemplar
  // (0 without tracing: histograms then record no exemplar).
  const u64 trace_id = rec != nullptr ? rec->current_trace() : 0;
  // Request bracket for serving telemetry: no-op unless the device has a
  // registry attached; records host + modeled latency per request.
  sim::TelemetryRequestScope telem(dev);
  const f64 t0 = dev.lifetime_ms();
  // Park scratch frees until this run completes: within-call alloc/free
  // churn (the recursive scan split's per-round buffers) must see fresh
  // bump addresses for bit-identical single-shot costs; the NEXT run then
  // reuses everything this run freed.
  MultisplitResult r;
  try {
    const sim::CachingAllocator::DeferredScope scope(dev.allocator());
    r = method_table<BucketFn, V>()[idx].run(dev, in, out, vals_in, vals_out,
                                             m, bucket_of, cfg);
  } catch (...) {
    // A faulted run must leave the device servable: the DeferredScope just
    // flushed the frees that unwinding scratch buffers parked (so the next
    // request reuses this run's address ranges instead of leaking them),
    // and the telemetry bracket closes with the modeled time actually
    // spent, so faulted requests are visible in the request histograms
    // rather than silently dropped mid-flight.  The span scopes close
    // during unwinding, so the attempt (and root request) span still
    // records its end and counter deltas for aborted runs.
    telem.finish(dev.lifetime_ms() - t0, trace_id);
    throw;
  }
  r.method_selected = method;
  // finish() after the scope closed: a snapshot taken at this tick sees
  // the allocator with this run's scratch already back on the free lists.
  telem.finish(r.total_ms(), trace_id);
  return r;
}

/// Build the structured kRetryExhausted error a resilient run throws when
/// its attempt or time budget runs out (defined in plan.cpp).
[[noreturn]] void throw_retry_exhausted(Method requested, u32 attempts,
                                        f64 spent_ms,
                                        const sim::FaultContext& last);

/// End-to-end output check shared by the resilient executor and the
/// serving executor: the reported bucket offsets against boundaries
/// recomputed from the input, then (stable methods) the exact stable
/// permutation, keys and values, or (non-stable) each segment's key
/// multiset.  Works on host spans, so a packed problem's output window is
/// checked in place; pure host-side verification -- charges nothing and
/// touches no device state.  Returns the first mismatch as a fault:
/// kValidationFailure for a wrong output (retryable corruption), or
/// kInvalidConfig for a bucket function that maps an input key outside
/// [0, m) (a caller error no retry can cure).  nullopt = output correct.
template <typename BucketFn, typename V>
std::optional<sim::FaultContext> validate_split_output(
    std::span<const u32> ki, std::span<const u32> ko, std::span<const V> vi,
    std::span<const V> vo, u32 m, BucketFn& bucket_of, bool stable,
    std::span<const u32> offsets) {
  auto reject = [](sim::FaultKind kind, const char* object, std::string why) {
    sim::FaultContext ctx;
    ctx.kind = kind;
    ctx.kernel = "<resilience>";
    ctx.object = object;
    ctx.detail = std::move(why);
    return std::optional<sim::FaultContext>(std::move(ctx));
  };
  auto wrong = [&](std::string why) {
    return reject(sim::FaultKind::kValidationFailure, "multisplit output",
                  std::move(why));
  };
  const u64 n = ki.size();
  // Reference segment boundaries recomputed from the input.
  std::vector<u64> counts(m, 0);
  for (u64 i = 0; i < n; ++i) {
    const u32 b = bucket_of(ki[i]);
    if (b >= m) {
      return reject(sim::FaultKind::kInvalidConfig, "bucket function",
                    "input key maps outside [0, m)");
    }
    counts[b] += 1;
  }
  std::vector<u64> start(m + 1, 0);
  for (u32 j = 0; j < m; ++j) start[j + 1] = start[j] + counts[j];
  // The REPORTED offsets must equal the recomputed ones exactly (which
  // implies the ends and monotonicity): a corrupted histogram/label can
  // produce well-formed offsets over a perfectly ordered output, which
  // only this comparison catches.
  if (offsets.size() != start.size()) {
    return wrong("bucket_offsets has " + std::to_string(offsets.size()) +
                 " entries, expected m + 1");
  }
  for (u32 j = 0; j <= m; ++j) {
    if (offsets[j] != start[j]) {
      return wrong("bucket_offsets[" + std::to_string(j) +
                   "] disagrees with the input's bucket counts");
    }
  }
  if (stable) {
    // Stable methods must produce exactly the stable partition: walk the
    // input once, expecting each key (and its value) at its bucket cursor.
    // The cursors visit every output position once, so this also fixes
    // bucket order.
    const bool pairs = !vi.empty() && !vo.empty();
    std::vector<u64> cursor(start.begin(), start.end() - 1);
    for (u64 i = 0; i < n; ++i) {
      const u64 pos = cursor[bucket_of(ki[i])]++;
      if (ko[pos] != ki[i]) {
        return wrong("stable permutation violated at output index " +
                     std::to_string(pos));
      }
      if (pairs && vo[pos] != vi[i]) {
        return wrong("value does not travel with its key at output index " +
                     std::to_string(pos));
      }
    }
    return std::nullopt;
  }
  // Non-stable methods (randomized insertion, key-only): each segment
  // must hold the same multiset of keys as the input contributes, which
  // also puts every output key in its bucket.
  std::vector<std::vector<u32>> expect(m);
  for (u32 j = 0; j < m; ++j) expect[j].reserve(counts[j]);
  for (u64 i = 0; i < n; ++i) expect[bucket_of(ki[i])].push_back(ki[i]);
  for (u32 j = 0; j < m; ++j) {
    std::vector<u32> got(ko.begin() + static_cast<std::ptrdiff_t>(start[j]),
                         ko.begin() + static_cast<std::ptrdiff_t>(start[j + 1]));
    std::sort(got.begin(), got.end());
    std::sort(expect[j].begin(), expect[j].end());
    if (got != expect[j]) {
      return wrong("bucket " + std::to_string(j) +
                   " holds the wrong key multiset");
    }
  }
  return std::nullopt;
}

/// The resilient request executor: wraps run_method in a retry loop with
/// deterministic virtual-time exponential backoff, a per-request time
/// budget, graceful degradation down the fallback_method ladder, and
/// optional end-to-end output validation (validate_split_output) that
/// turns silent corruption into a retryable fault.  Faults are classified
/// by fault_is_retryable; non-retryable ones rethrow immediately.  The
/// serving executor applies the same validator, classification and
/// attempt budget to its fused launches (serving.cpp).  All
/// accounting lands in the device's ResilienceStats and (when attached)
/// the telemetry registry.  With no faults the executor adds zero device
/// work, so a clean run is bit-identical to the plain entry points.
template <typename BucketFn, typename V>
MultisplitResult run_resilient(Method initial, sim::Device& dev,
                               const sim::DeviceBuffer<u32>& in,
                               sim::DeviceBuffer<u32>& out,
                               const sim::DeviceBuffer<V>* vals_in,
                               sim::DeviceBuffer<V>* vals_out, u32 m,
                               BucketFn bucket_of, MultisplitConfig cfg,
                               const RetryPolicy& rp) {
  sim::ResilienceStats& rs = dev.resilience_stats();
  rs.requests += 1;
  // The cudaGetLastError idiom: entering a request consumes any stale
  // sticky error left by earlier work, so the classification below only
  // ever sees faults raised by THIS request's attempts.
  (void)dev.take_last_error();

  // The request span for the whole resilient execution: attempt spans
  // (opened by run_method) nest under it, and retry / fallback /
  // validation events attach to it with the fault that caused them.
  sim::SpanRecorder* rec = dev.spans();
  sim::SpanScope request_span(dev, sim::SpanKind::kRequest,
                              method_token(initial));

  ResilienceInfo info;
  Method cur = initial;
  u32 tries_on_method = 0;
  f64 spent_ms = 0.0;
  f64 next_backoff = rp.backoff_base_ms;
  const u32 max_attempts = rp.max_attempts == 0 ? 1 : rp.max_attempts;
  sim::Telemetry* telem = dev.telemetry();

  for (u32 attempt = 1;; ++attempt) {
    info.attempts = attempt;
    tries_on_method += 1;
    cfg.method = cur;
    std::optional<sim::FaultContext> fault;
    const f64 t0 = dev.lifetime_ms();
    MultisplitResult r;
    try {
      r = run_method<BucketFn, V>(cur, dev, in, out, vals_in, vals_out, m,
                                  bucket_of, cfg);
    } catch (const sim::SimError& e) {
      fault = e.context();
      // A thrown fault also parks itself as the sticky error; consume the
      // duplicate now or the NEXT (clean) attempt would be misread as
      // faulted.
      (void)dev.take_last_error();
    }
    if (!fault.has_value()) {
      // Sanitizer reporting mode (and the mt fault merge) park faults as
      // the sticky error instead of throwing; surface those here too.
      fault = dev.take_last_error();
    }
    if (!fault.has_value() && rp.validate_output) {
      std::span<const V> vi, vo;
      if (vals_in != nullptr && vals_out != nullptr) {
        vi = std::as_const(*vals_in).host();
        vo = std::as_const(*vals_out).host();
      }
      fault = validate_split_output<BucketFn, V>(
          std::as_const(in).host(), std::as_const(out).host(), vi, vo, m,
          bucket_of, method_traits(cur).stable, r.bucket_offsets);
      if (fault.has_value() &&
          fault->kind == sim::FaultKind::kValidationFailure) {
        info.validation_failures += 1;
        rs.validation_failures += 1;
        if (telem != nullptr) {
          telem->counter("resilience.validation_failures").add(1);
        }
        if (rec != nullptr) {
          rec->event(sim::SpanEvent{dev.lifetime_ms(), "validation_failure",
                                    fault->detail, *fault});
        }
      }
    }
    spent_ms += dev.lifetime_ms() - t0;
    if (!fault.has_value()) {
      info.degraded = cur != initial;
      r.resilience = info;
      if (attempt > 1) {
        rs.recovered += 1;
        if (telem != nullptr) {
          telem->counter("resilience.recovered").add(1);
          telem->histogram("request.retry_ms")
              .record_ms(spent_ms,
                         rec != nullptr ? rec->current_trace() : 0);
        }
      }
      return r;
    }
    rs.faults_observed += 1;
    if (telem != nullptr) telem->counter("resilience.faults").add(1);
    if (!fault_is_retryable(fault->kind, rp)) {
      rs.lost += 1;
      if (telem != nullptr) telem->counter("resilience.lost").add(1);
      throw sim::SimError(std::move(*fault));
    }
    if (attempt >= max_attempts || spent_ms >= rp.timeout_budget_ms) {
      rs.lost += 1;
      if (telem != nullptr) telem->counter("resilience.lost").add(1);
      throw_retry_exhausted(initial, attempt, spent_ms, *fault);
    }
    // Deterministic exponential backoff in VIRTUAL time: charged against
    // the timeout budget and reported on the result, never slept -- wall
    // clock would break bit-reproducibility of campaign reports.
    info.backoff_ms += next_backoff;
    spent_ms += next_backoff;
    if (request_span.active()) {
      rec->add_backoff(request_span.id(), next_backoff);
      rec->event(sim::SpanEvent{dev.lifetime_ms(), "retry",
                                method_token(cur), *fault});
    }
    next_backoff *= rp.backoff_multiplier;
    info.retries += 1;
    rs.retries += 1;
    if (telem != nullptr) telem->counter("resilience.retries").add(1);
    if (rp.allow_fallback && tries_on_method >= rp.attempts_per_method) {
      if (std::optional<Method> next =
              fallback_method(cur, m, vals_in != nullptr)) {
        cur = *next;
        tries_on_method = 0;
        info.fallbacks += 1;
        rs.fallbacks += 1;
        if (telem != nullptr) telem->counter("resilience.fallbacks").add(1);
        if (request_span.active()) {
          rec->event(sim::SpanEvent{dev.lifetime_ms(), "fallback",
                                    method_token(cur), *fault});
        }
      }
      // Ladder exhausted: keep retrying the current method until the
      // attempt budget runs out.
    }
  }
}

/// Adapter giving std::function-based callers an honest evaluation charge.
struct ErasedBucket {
  const BucketFunction* fn;
  u32 operator()(u32 key) const { return (*fn)(key); }
  static constexpr u32 charge_cost = 2;
};

}  // namespace detail

/// First-stage launch geometry a plan resolves (reported by the CLI and
/// benches; the kernels recompute the same values when they run).
struct GridShape {
  u64 subproblems = 0;    ///< L: warp- or block-level tiles of the input
  u32 blocks = 0;         ///< blocks of the first (pre-scan/labeling) kernel
  u32 warps_per_block = 0;
};

/// A reusable multisplit execution plan.  Construction is pure host-side
/// resolution (validate config, resolve kAuto, size the grid and scratch);
/// run()/run_pairs() may be called any number of times with different
/// buffer contents of the planned shape.
class MultisplitPlan {
 public:
  /// Build a plan for splitting n keys into m buckets on `dev`.
  /// `value_bytes` sizes the per-key payload for key-value use (0 =
  /// key-only); it only affects the temp-storage estimate.  Throws
  /// SimError (FaultKind::kInvalidConfig) for malformed configs and
  /// logic_error for method/shape mismatches (m out of a method's range,
  /// key-value with a key-only method).
  MultisplitPlan(sim::Device& dev, u64 n, u32 m, MultisplitConfig cfg = {},
                 u32 value_bytes = 0);

  sim::Device& device() const { return *dev_; }
  u64 n() const { return n_; }
  u32 m() const { return m_; }
  /// The concrete method this plan executes (never kAuto).
  Method method() const { return method_; }
  /// What the caller asked for (kAuto preserved for reporting).
  Method requested_method() const { return requested_; }
  /// The configuration the plan runs with (method resolved).
  const MultisplitConfig& config() const { return cfg_; }
  const GridShape& grid() const { return shape_; }
  /// Device scratch the methods will request per run (bytes, rounded to
  /// sectors): histogram/label/staging buffers plus the scan partial tree.
  /// With pooling on, runs after the first are served from the free lists.
  u64 temp_storage_bytes() const { return temp_bytes_; }

  /// Trace-replay introspection (tests, benches, the CLI): which phase the
  /// plan's fast path is in -- "idle" (nothing recorded yet), "recorded"
  /// (awaiting the verify run), "ready" (replaying), "disabled".
  const char* replay_phase() const {
    switch (replay_.phase) {
      case ReplayState::Phase::kIdle: return "idle";
      case ReplayState::Phase::kRecorded: return "recorded";
      case ReplayState::Phase::kReady: return "ready";
      case ReplayState::Phase::kDisabled: return "disabled";
    }
    return "disabled";
  }
  /// True once runs on the recorded buffers replay taped accounting.
  bool replay_active() const {
    return replay_.phase == ReplayState::Phase::kReady;
  }

  /// Key-only execution.  `in` must hold exactly n() keys.
  ///
  /// Reused plans engage the trace-replay fast path automatically: the
  /// first run records the cost-uniform stages' accounting streams, the
  /// second proves them input-independent (byte-identical re-recording),
  /// and later runs on the same buffers replay the recorded accounting
  /// through the live L2 while executing only the data movement --
  /// bit-identical modeled costs at a fraction of the host work.  Any
  /// mismatch (different buffers, scratch placement, launch sequence, a
  /// fault) falls back to live accounting, and the path never engages
  /// with the sanitizer or chaos armed, under run(..., RetryPolicy), or
  /// with MS_REPLAY=off.
  template <typename BucketFn>
  MultisplitResult run(const sim::DeviceBuffer<u32>& in,
                       sim::DeviceBuffer<u32>& out, BucketFn bucket_of) const {
    check_keys(in, out);
    return run_traced<BucketFn, u32>(in, out, detail::kNoValues,
                                     detail::kNoValuesOut, bucket_of);
  }

  /// Key-value execution; values travel with their keys.
  template <typename BucketFn, typename V>
  MultisplitResult run_pairs(const sim::DeviceBuffer<u32>& keys_in,
                             const sim::DeviceBuffer<V>& vals_in,
                             sim::DeviceBuffer<u32>& keys_out,
                             sim::DeviceBuffer<V>& vals_out,
                             BucketFn bucket_of) const {
    static_assert(std::is_same_v<V, u32> || std::is_same_v<V, u64>,
                  "multisplit values are u32 or u64 (use a pointer otherwise)");
    check_pairs(keys_in, vals_in.size(), keys_out, vals_out.size());
    check(&vals_in != &vals_out, "multisplit: in and out must be distinct");
    return run_traced<BucketFn, V>(keys_in, keys_out, &vals_in, &vals_out,
                                   bucket_of);
  }

  /// Resilient key-only execution: retry/fallback/validation per `rp`
  /// (see detail::run_resilient).  Throws only for non-retryable faults or
  /// an exhausted budget (FaultKind::kRetryExhausted).
  template <typename BucketFn>
  MultisplitResult run(const sim::DeviceBuffer<u32>& in,
                       sim::DeviceBuffer<u32>& out, BucketFn bucket_of,
                       const RetryPolicy& rp) const {
    check_keys(in, out);
    return detail::run_resilient<BucketFn, u32>(
        method_, *dev_, in, out, detail::kNoValues, detail::kNoValuesOut, m_,
        bucket_of, cfg_, rp);
  }

  /// Resilient key-value execution.
  template <typename BucketFn, typename V>
  MultisplitResult run_pairs(const sim::DeviceBuffer<u32>& keys_in,
                             const sim::DeviceBuffer<V>& vals_in,
                             sim::DeviceBuffer<u32>& keys_out,
                             sim::DeviceBuffer<V>& vals_out, BucketFn bucket_of,
                             const RetryPolicy& rp) const {
    static_assert(std::is_same_v<V, u32> || std::is_same_v<V, u64>,
                  "multisplit values are u32 or u64 (use a pointer otherwise)");
    check_pairs(keys_in, vals_in.size(), keys_out, vals_out.size());
    check(&vals_in != &vals_out, "multisplit: in and out must be distinct");
    return detail::run_resilient<BucketFn, V>(method_, *dev_, keys_in,
                                              keys_out, &vals_in, &vals_out,
                                              m_, bucket_of, cfg_, rp);
  }

  /// Type-erased overloads (see BucketFunction in common.hpp).
  MultisplitResult run(const sim::DeviceBuffer<u32>& in,
                       sim::DeviceBuffer<u32>& out,
                       const BucketFunction& bucket_of) const;
  MultisplitResult run_pairs(const sim::DeviceBuffer<u32>& keys_in,
                             const sim::DeviceBuffer<u32>& vals_in,
                             sim::DeviceBuffer<u32>& keys_out,
                             sim::DeviceBuffer<u32>& vals_out,
                             const BucketFunction& bucket_of) const;
  MultisplitResult run(const sim::DeviceBuffer<u32>& in,
                       sim::DeviceBuffer<u32>& out,
                       const BucketFunction& bucket_of,
                       const RetryPolicy& rp) const;
  MultisplitResult run_pairs(const sim::DeviceBuffer<u32>& keys_in,
                             const sim::DeviceBuffer<u32>& vals_in,
                             sim::DeviceBuffer<u32>& keys_out,
                             sim::DeviceBuffer<u32>& vals_out,
                             const BucketFunction& bucket_of,
                             const RetryPolicy& rp) const;

 private:
  void check_keys(const sim::DeviceBuffer<u32>& in,
                  const sim::DeviceBuffer<u32>& out) const;
  void check_pairs(const sim::DeviceBuffer<u32>& keys_in, u64 vals_in_size,
                   const sim::DeviceBuffer<u32>& keys_out,
                   u64 vals_out_size) const;

  /// Trace-replay state for the plain entry points.  kIdle records the
  /// first run, kRecorded re-records and compares (the verify handshake),
  /// kReady replays; anything suspicious lands in kDisabled, which is
  /// permanent for the plan -- replay is an optimization, never a
  /// correctness risk worth re-probing.
  struct ReplayState {
    enum class Phase : u8 { kIdle, kRecorded, kReady, kDisabled };
    Phase phase = Phase::kIdle;
    sim::CostTape tape;    ///< the candidate (kRecorded) / proven (kReady) recording
    sim::CostTape verify;  ///< scratch for the confirmation run
    /// Base addresses of in/out/vals_in/vals_out at record time: the
    /// recorded sector streams are absolute, so replay requires the same
    /// buffer placement.  Runs on other buffers execute live.
    std::array<u64, 4> bases{};
  };
  mutable ReplayState replay_;

  /// MS_REPLAY=off (or 0) disables the fast path process-wide.
  static bool replay_env_enabled() {
    static const bool on = [] {
      const char* env = std::getenv("MS_REPLAY");
      if (env == nullptr || *env == '\0') return true;
      const std::string_view v(env);
      return v != "off" && v != "0";
    }();
    return on;
  }

  /// Taping requires deterministic, report-free accounting: the sanitizer
  /// may report (and suppress) differently run-to-run, and chaos injects
  /// by design.  Both force the plain live path.
  bool replay_eligible() const {
    return replay_env_enabled() && !dev_->sanitizer().any() &&
           dev_->chaos() == nullptr;
  }

  template <typename BucketFn, typename V>
  MultisplitResult run_traced(const sim::DeviceBuffer<u32>& in,
                              sim::DeviceBuffer<u32>& out,
                              const sim::DeviceBuffer<V>* vals_in,
                              sim::DeviceBuffer<V>* vals_out,
                              BucketFn bucket_of) const {
    using Phase = ReplayState::Phase;
    sim::Device& dev = *dev_;
    ReplayState& rs = replay_;
    if (rs.phase == Phase::kDisabled || !replay_eligible()) {
      return detail::run_method<BucketFn, V>(method_, dev, in, out, vals_in,
                                             vals_out, m_, bucket_of, cfg_);
    }
    const std::array<u64, 4> bases = {
        in.base_address(), out.base_address(),
        vals_in != nullptr ? vals_in->base_address() : 0,
        vals_out != nullptr ? vals_out->base_address() : 0};
    // Different buffers than the recording: run live, keep the state (a
    // caller may alternate buffer sets; the recorded set still replays).
    if (rs.phase != Phase::kIdle && bases != rs.bases) {
      return detail::run_method<BucketFn, V>(method_, dev, in, out, vals_in,
                                             vals_out, m_, bucket_of, cfg_);
    }
    const sim::TapeMode mode = rs.phase == Phase::kReady
                                   ? sim::TapeMode::kReplay
                                   : sim::TapeMode::kRecord;
    dev.tape_start(mode, rs.phase == Phase::kRecorded ? &rs.verify : &rs.tape);
    MultisplitResult r;
    try {
      r = detail::run_method<BucketFn, V>(method_, dev, in, out, vals_in,
                                          vals_out, m_, bucket_of, cfg_);
    } catch (...) {
      dev.tape_finish();
      rs.phase = Phase::kDisabled;
      throw;
    }
    const bool ok = dev.tape_finish();
    switch (rs.phase) {
      case Phase::kIdle:
        // Keep the candidate recording (when any stage taped cleanly).
        rs.phase = ok && !rs.tape.launches.empty() ? Phase::kRecorded
                                                   : Phase::kDisabled;
        rs.bases = bases;
        break;
      case Phase::kRecorded:
        // The verify handshake: only a recording that reproduced
        // byte-for-byte on a second run is ever replayed.
        rs.phase = ok && sim::tapes_equal(rs.tape, rs.verify) ? Phase::kReady
                                                              : Phase::kDisabled;
        rs.verify = sim::CostTape{};
        break;
      case Phase::kReady:
        if (!ok) rs.phase = Phase::kDisabled;
        break;
      case Phase::kDisabled:
        break;
    }
    return r;
  }

  sim::Device* dev_;
  u64 n_;
  u32 m_;
  u32 value_bytes_;
  Method requested_;
  Method method_;
  MultisplitConfig cfg_;
  GridShape shape_;
  u64 temp_bytes_ = 0;
};

}  // namespace ms::split
