// serve_stream: one ServingExecutor with the default ServingPolicy fed
// batch_serving's tiny mix (n cycles {5, 8, 32, 96, 256, 1024}, m
// {2, 3, 4, 8, 16, 32}); about one request in 32 is unpackable (n = 2^13
// or m = 64) and takes the plan fallback.  One client thread submits back
// to back and redeems each ticket as soon as ready() says so.  It is a
// throughput loop, not an open loop: flush points depend only on queue
// depth and the virtual clock, so host timing cannot change batching.
// Packing, unpacking, per-problem validation and queue bookkeeping
// dominate; every request's result stays retained by the executor.
#include <deque>
#include <memory>
#include <optional>

#include "harness.hpp"
#include "multisplit/bucket.hpp"
#include "multisplit/serving.hpp"
#include "sim/metrics.hpp"
#include "workload/distributions.hpp"

namespace perfbench {

namespace split = ms::split;
namespace sim = ms::sim;

namespace {

constexpr u64 kNs[] = {5, 8, 32, 96, 256, 1024};
constexpr u32 kMs[] = {2, 3, 4, 8, 16, 32};
/// lcm(6 * 6, 32): every (n, m) pair and both unpackable kinds.
constexpr u32 kPeriod = 288;
/// Requests per --seconds: about one second of timed work each on a
/// 4-vCPU x86 host with two simulator threads.
constexpr u64 kRequestsPerSecond = 10000;
/// Trace blocks: one default max_batch worth of submits.
constexpr u64 kBlock = 256;

struct Request {
  u32 m;
  std::vector<u32> keys;
};

std::vector<Request> make_requests(u64 seed) {
  std::vector<Request> reqs;
  for (u32 i = 0; i < kPeriod; ++i) {
    u64 n = kNs[i % 6];
    u32 m = kMs[(i / 6) % 6];
    if (i % 32 == 31) {
      if ((i / 32) % 2 == 0) {
        n = 8192;
      } else {
        m = 64;
      }
    }
    ms::workload::WorkloadConfig wc;
    wc.m = m;
    wc.seed = mix_seed(seed, 2000 + i);
    reqs.push_back({m, ms::workload::generate_keys(n, wc)});
  }
  return reqs;
}

/// A submitted request waiting for its ticket to turn ready.
struct Outstanding {
  split::ServeTicket ticket;
  u32 req;  ///< index into the request period
  u64 id;
  Clock::time_point submitted;
};

/// Host timings the client loop collects.
struct ClientStats {
  Samples submit_us;  ///< submits that did not flush
  Samples get_us;
  Samples flush_ms;   ///< submits that flushed, and the final drain
  f64 flush_ms_sum = 0.0;
  u64 flushed_requests = 0;
  f64 check_ms = 0.0;
};

struct Server {
  std::unique_ptr<sim::Device> dev;
  std::unique_ptr<split::ServingExecutor> exec;
};

/// Redeem every ready ticket at the front of the queue, as observed at
/// `now`: latency, get(), and the reference check (outside timing).
void redeem(Server& s, const std::vector<Request>& reqs,
            std::deque<Outstanding>& q, Clock::time_point now, Tracer& tr,
            RunResult& r, ClientStats& cs, bool timed) {
  while (!q.empty() && s.exec->ready(q.front().ticket)) {
    const Outstanding o = q.front();
    q.pop_front();
    ++r.attempted;
    const Request& req = reqs[o.req];
    const auto g0 = Clock::now();
    const u32 gs = tr.open("serving.get", o.id);
    const split::ServeResult& res = s.exec->get(o.ticket);
    tr.close(gs);
    const auto g1 = Clock::now();
    if (timed) {
      cs.get_us.add(ms_between(g0, g1) * 1e3);
      r.request_ms.add(ms_between(o.submitted, now), res.batch_id);
    }
    SpanScope span(tr, "check.reference", o.id);
    const bool ok = !res.failed &&
                    check_split(req.keys, {}, req.m, res.keys_out, {},
                                res.bucket_offsets);
    if (!ok) ++r.failed;
    cs.check_ms += ms_between(g1, Clock::now());
  }
}

/// Submit requests [first, first + count) of the cyclic stream, redeeming
/// as tickets turn ready; drain at the end when `drain` is set, and count
/// any ticket still outstanding after the drain as failed.
void client_loop(Server& s, const std::vector<Request>& reqs,
                 std::deque<Outstanding>& q, u64 first, u64 count, bool drain,
                 Tracer& tr, RunResult& r, ClientStats& cs, bool timed) {
  u64 batches = s.dev->batch_stats().batches;
  for (u64 i = first; i < first + count; ++i) {
    const u32 ri = static_cast<u32>(i % kPeriod);
    const Request& req = reqs[ri];
    const u64 id = i + 1;
    const auto t0 = Clock::now();
    const u32 span = tr.open("serving.submit", id);
    const split::ServeTicket t =
        s.exec->submit(req.keys, req.m, split::RangeBucket{req.m});
    const auto t1 = Clock::now();
    const bool flushed = s.dev->batch_stats().batches != batches;
    tr.close(span, flushed ? "serving.flush" : nullptr);
    q.push_back({t, ri, id, t0});
    if (flushed) {
      batches = s.dev->batch_stats().batches;
      cs.flush_ms.add(ms_between(t0, t1));
      cs.flush_ms_sum += ms_between(t0, t1);
      cs.flushed_requests += q.size();
    } else {
      cs.submit_us.add(ms_between(t0, t1) * 1e3);
    }
    redeem(s, reqs, q, t1, tr, r, cs, timed);
  }
  if (drain && !q.empty()) {
    const auto t0 = Clock::now();
    const u32 span = tr.open("serving.flush", first + count);
    s.exec->drain();
    tr.close(span);
    const auto t1 = Clock::now();
    cs.flush_ms.add(ms_between(t0, t1));
    cs.flush_ms_sum += ms_between(t0, t1);
    cs.flushed_requests += q.size();
    redeem(s, reqs, q, t1, tr, r, cs, timed);
  }
  if (drain && !q.empty()) {
    r.attempted += q.size();
    r.failed += q.size();
    q.clear();
  }
}

}  // namespace

RunResult run_serve_stream(const Args& a, Tracer& tr) {
  RunResult r;
  // About 780 flushes per 20 s: each of 5 windows has 15 beyond its p90.
  r.windows = 5;

  // Set-up: inputs, device, executor, and one warm-up period served and
  // drained.  Repeated on fresh devices; the warm-up's modeled counts and
  // batching must repeat exactly.
  Server s;
  std::vector<Request> reqs;
  std::optional<LayerCounts> warm;
  std::optional<sim::BatchStats> warm_batches;
  Samples gen_ms;
  const u32 reps = a.tiny ? 2 : 9;
  for (u32 rep = 0; rep < reps; ++rep) {
    const auto t0 = rep == 0 ? process_start() : Clock::now();
    tr.on = a.trace && rep + 1 == reps;
    const u32 setup_span = tr.open("setup", 0);
    s.exec.reset();
    s.dev.reset();
    {
      SpanScope span(tr, "workload.generate", 0, setup_span);
      const auto g0 = Clock::now();
      reqs = make_requests(a.seed);
      gen_ms.add(ms_between(g0, Clock::now()));
    }
    s.dev = std::make_unique<sim::Device>(sim::DeviceProfile::tesla_k40c());
    s.exec = std::make_unique<split::ServingExecutor>(*s.dev);
    ClientStats warm_stats;
    std::deque<Outstanding> q;
    client_loop(s, reqs, q, 0, kPeriod, /*drain=*/true, tr, r, warm_stats,
                /*timed=*/false);
    tr.close(setup_span);
    LayerCounts w;
    w.add(s.dev->records());
    const sim::BatchStats& b = s.dev->batch_stats();
    if (warm && (!(*warm == w) || warm_batches->batches != b.batches ||
                 warm_batches->fused_launches != b.fused_launches ||
                 warm_batches->slots_filled != b.slots_filled)) {
      r.repeat_ok = false;
      r.repeat_note = "warm-up modeled counts differ across set-up repetitions";
    }
    warm = w;
    warm_batches = b;
    r.setup_s.add(ms_between(t0, Clock::now()) * 1e-3);
  }
  sim::Device& dev = *s.dev;

  // Timed phase: a fixed number of requests, so work done and retained
  // results do not depend on host speed.  A traced run alternates
  // untraced and traced blocks of one batch each.
  const u64 total = a.tiny ? 4 * kBlock : u64{a.seconds} * kRequestsPerSecond;
  const u64 mark = dev.records().size();
  const sim::BatchStats b0 = dev.batch_stats();
  ClientStats cs;
  std::deque<Outstanding> q;
  u64 next = kPeriod;  // continue the stream after the warm-up period
  for (u64 done = 0; done < total;) {
    const u64 count = std::min(kBlock, total - done);
    tr.on = a.trace && (done / kBlock) % 2 == 1;
    const f64 check_before = cs.check_ms;
    u64 keys = 0;
    for (u64 i = next; i < next + count; ++i) keys += reqs[i % kPeriod].keys.size();
    const auto t0 = Clock::now();
    client_loop(s, reqs, q, next, count, /*drain=*/done + count == total, tr, r,
                cs, /*timed=*/true);
    const f64 block_s =
        (ms_between(t0, Clock::now()) - (cs.check_ms - check_before)) * 1e-3;
    r.add_timed(keys, count, block_s);
    (tr.on ? r.traced_s : r.untraced_s) += block_s;
    (tr.on ? r.traced_keys : r.untraced_keys) += static_cast<f64>(keys);
    next += count;
    done += count;
  }
  tr.on = a.trace;
  LayerCounts counts;
  counts.add(dev.records(), mark);
  f64 analyze_ms = 0.0;
  {
    SpanScope span(tr, "sim.analyze", 0);
    const auto a0 = Clock::now();
    const sim::MetricsReport rep = sim::analyze_device(dev);
    analyze_ms = ms_between(a0, Clock::now());
    if (rep.launches != dev.records().size()) {
      r.repeat_ok = false;
      r.repeat_note = "analyze_device disagrees with the kernel log";
    }
  }
  tr.on = false;
  r.peak_rss_mb = peak_rss_mb();

  const sim::BatchStats& b1 = dev.batch_stats();
  const u64 packed = b1.packed_problems - b0.packed_problems;
  const u64 unpacked = b1.unpacked_problems - b0.unpacked_problems;
  const u64 slots = b1.slots_total - b0.slots_total;
  Metrics& L = r.layers;
  L.set("workload.gen_ms", gen_ms.median(), "ms");
  L.set("serving.submit_us_p50", cs.submit_us.median(), "us");
  L.set("serving.get_us_p50", cs.get_us.median(), "us");
  L.set("serving.flush_ms", cs.flush_ms.median(), "ms");
  L.set("serving.flush_us_per_request",
        cs.flushed_requests > 0
            ? cs.flush_ms_sum * 1e3 / static_cast<f64>(cs.flushed_requests)
            : 0.0,
        "us");
  L.set("serving.fill_ratio",
        slots > 0 ? static_cast<f64>(b1.slots_filled - b0.slots_filled) /
                        static_cast<f64>(slots)
                  : 0.0,
        "ratio");
  L.set("serving.packed_pct",
        packed + unpacked > 0 ? 100.0 * static_cast<f64>(packed) /
                                    static_cast<f64>(packed + unpacked)
                              : 0.0,
        "%");
  L.set("serving.fused_launches",
        static_cast<f64>(b1.fused_launches - b0.fused_launches), "count");
  L.set("serving.problems_retried",
        static_cast<f64>(b1.problems_retried - b0.problems_retried), "count");
  set_sim_layers(L, counts, r.requests, r.timed_s * 1e3, dev.profile());
  set_alloc_layers(L, dev.allocator().stats());
  L.set("sim.records_retained", static_cast<f64>(dev.records().size()), "count");
  L.set("sim.regions_retained", static_cast<f64>(dev.regions().size()), "count");
  L.set("sim.analyze_ms", analyze_ms, "ms");
  return r;
}

}  // namespace perfbench
