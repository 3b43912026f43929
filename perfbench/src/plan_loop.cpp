// plan_loop: a caller keeps one MultisplitPlan and one persistent buffer
// set per shape and refills the inputs for each request -- the reuse
// pattern plan.hpp documents.  n cycles {2^8..2^14}, m {2, 8, 32}, with
// Method::kAuto; every fourth request is key-value and uniform and
// kSkewedOne keys alternate.  At these sizes the fixed per-launch host cost
// dominates; replay engages from a plan's third run, the allocator pool is
// reused and L2 serves re-hits.
#include <memory>
#include <optional>

#include "harness.hpp"
#include "multisplit/plan.hpp"
#include "sim/metrics.hpp"
#include "workload/distributions.hpp"

namespace perfbench {

namespace split = ms::split;
namespace sim = ms::sim;

namespace {

constexpr u32 kLog2Ns[] = {8, 10, 12, 14};
constexpr u32 kTinyLog2Ns[] = {5, 6, 7, 8};
constexpr u32 kMs[] = {2, 8, 32};
/// One period of the request stream: every (n, m, distribution) 4 times,
/// once of them key-value.
constexpr u32 kPeriod = 4 * 3 * 2 * 4;
/// Requests per --seconds: about one second of timed work each on a
/// 4-vCPU x86 host with two simulator threads.
constexpr u64 kRequestsPerSecond = 850;

/// One request of the period: its shape and its pre-generated input.
struct Request {
  u32 slot;  ///< which persistent plan + buffer set serves it
  u32 m;
  bool key_value;
  std::vector<u32> keys;
};

std::vector<Request> make_requests(const Args& a) {
  std::vector<Request> reqs;
  for (u32 i = 0; i < kPeriod; ++i) {
    u32 x = i;
    const u32 ni = x % 4;
    x /= 4;
    const u32 mi = x % 3;
    x /= 3;
    const bool skewed = x % 2 == 1;
    x /= 2;
    const bool kv = x % 4 == 3;
    ms::workload::WorkloadConfig wc;
    wc.dist = skewed ? ms::workload::Distribution::kSkewedOne
                     : ms::workload::Distribution::kUniform;
    wc.m = kMs[mi];
    wc.seed = mix_seed(a.seed, 1000 + i);
    const u64 n = u64{1} << (a.tiny ? kTinyLog2Ns[ni] : kLog2Ns[ni]);
    reqs.push_back({(ni * 3 + mi) * 2 + (kv ? 1u : 0u), kMs[mi], kv,
                    ms::workload::generate_keys(n, wc)});
  }
  return reqs;
}

/// A persistent plan and its buffers, refilled per request.
struct Slot {
  std::optional<split::MultisplitPlan> plan;
  std::optional<sim::DeviceBuffer<u32>> in, out, vin, vout;
};

/// Everything one set-up builds: device, plans, buffers, inputs.
struct LoopState {
  std::unique_ptr<sim::Device> dev;
  std::vector<Slot> slots;
  std::vector<Request> reqs;
  std::vector<u32> values;  ///< identity values, longest n
};

struct RequestRun {
  bool ok = false;
  f64 request_ms = 0.0;  ///< refill + run
  f64 run_ms = 0.0;
  bool replay_active = false;
  split::MultisplitResult res;
};

RequestRun run_request(LoopState& st, const Request& q, Tracer& tr,
                       u64 request, u32 parent_span = 0) {
  Slot& s = st.slots[q.slot];
  const u64 n = q.keys.size();
  const std::span<const u32> vals(st.values.data(), q.key_value ? n : 0);
  RequestRun out;
  const u32 req_span = tr.open("request", request, parent_span);
  const auto t0 = Clock::now();
  std::copy(q.keys.begin(), q.keys.end(), s.in->host().begin());
  if (q.key_value) std::copy(vals.begin(), vals.end(), s.vin->host().begin());
  out.replay_active = s.plan->replay_active();
  try {
    SpanScope span(tr, "plan.run", request, req_span);
    const auto r0 = Clock::now();
    out.res = q.key_value ? s.plan->run_pairs(*s.in, *s.vin, *s.out, *s.vout,
                                              split::RangeBucket{q.m})
                          : s.plan->run(*s.in, *s.out, split::RangeBucket{q.m});
    out.run_ms = ms_between(r0, Clock::now());
    out.ok = true;
  } catch (const std::exception&) {
    out.ok = false;
  }
  out.request_ms = ms_between(t0, Clock::now());
  tr.close(req_span);
  if (!out.ok) return out;

  SpanScope span(tr, "check.reference", request);
  out.ok = check_split(q.keys, vals, q.m, std::as_const(*s.out).host(),
                       q.key_value ? std::as_const(*s.vout).host()
                                   : std::span<const u32>(),
                       out.res.bucket_offsets);
  return out;
}

}  // namespace

RunResult run_plan_loop(const Args& a, Tracer& tr) {
  RunResult r;
  // 17 000 requests per 20 s: each of 5 windows has 34 beyond its p99.
  r.windows = 5;
  u64 request = 0;

  // Set-up: inputs, device, one plan + buffer set per shape, and a warm-up
  // period (every plan runs at least twice, so replay is armed).  Repeated
  // on fresh devices; the warm-up's modeled counts must repeat exactly.
  LoopState st;
  std::optional<LayerCounts> warm;
  Samples gen_ms, build_us;
  const u32 reps = a.tiny ? 2 : 9;
  for (u32 rep = 0; rep < reps; ++rep) {
    const auto t0 = rep == 0 ? process_start() : Clock::now();
    tr.on = a.trace && rep + 1 == reps;
    const u32 setup_span = tr.open("setup", 0);
    st.slots.clear();  // buffers and plans go before their device
    st = LoopState{};
    {
      SpanScope s(tr, "workload.generate", 0, setup_span);
      const auto g0 = Clock::now();
      st.reqs = make_requests(a);
      u64 max_n = 0;
      for (const Request& q : st.reqs) max_n = std::max<u64>(max_n, q.keys.size());
      st.values = ms::workload::identity_values(max_n);
      gen_ms.add(ms_between(g0, Clock::now()));
    }
    st.dev = std::make_unique<sim::Device>(sim::DeviceProfile::tesla_k40c());
    sim::Device& dev = *st.dev;
    st.slots.resize(std::size(kLog2Ns) * std::size(kMs) * 2);
    for (const Request& q : st.reqs) {
      Slot& s = st.slots[q.slot];
      if (s.plan) continue;
      const u64 n = q.keys.size();
      split::MultisplitConfig cfg;
      cfg.method = split::Method::kAuto;
      {
        SpanScope span(tr, "plan.build", 0, setup_span);
        const auto b0 = Clock::now();
        s.plan.emplace(dev, n, q.m, cfg, q.key_value ? 4u : 0u);
        build_us.add(ms_between(b0, Clock::now()) * 1e3);
      }
      s.in.emplace(dev, n);
      s.out.emplace(dev, n);
      if (q.key_value) {
        s.vin.emplace(dev, n);
        s.vout.emplace(dev, n);
      }
    }
    const u64 mark = dev.records().size();
    for (const Request& q : st.reqs) {
      const RequestRun run = run_request(st, q, tr, 0, setup_span);
      ++r.attempted;
      if (!run.ok) ++r.failed;
    }
    tr.close(setup_span);
    LayerCounts w;
    w.add(dev.records(), mark);
    if (warm && !(*warm == w)) {
      r.repeat_ok = false;
      r.repeat_note = "warm-up modeled counts differ across set-up repetitions";
    }
    warm = w;
    r.setup_s.add(ms_between(t0, Clock::now()) * 1e-3);
  }

  // Timed phase: a fixed number of requests, so work done and retained
  // state do not depend on host speed.  A traced run alternates untraced
  // and traced periods.
  sim::Device& dev = *st.dev;
  const u64 total = a.tiny ? 2 * kPeriod : u64{a.seconds} * kRequestsPerSecond;
  const u64 mark = dev.records().size();
  Samples run_ms;
  std::map<std::string, Samples> run_ms_by_method;
  split::StageTimings stages;
  u64 replay_runs = 0;
  f64 run_ms_sum = 0.0;
  f64 block_ms = 0.0, block_keys = 0.0;
  for (u64 i = 0; i < total; ++i) {
    if (i % kPeriod == 0) tr.on = a.trace && (i / kPeriod) % 2 == 1;
    const Request& q = st.reqs[i % kPeriod];
    const RequestRun run = run_request(st, q, tr, ++request);
    ++r.attempted;
    if (!run.ok) {
      ++r.failed;
    } else {
      r.request_ms.add(run.request_ms);
      run_ms.add(run.run_ms);
      run_ms_by_method[split::method_token(run.res.method_selected)].add(
          run.run_ms);
      run_ms_sum += run.run_ms;
      replay_runs += run.replay_active ? 1 : 0;
      stages.prescan_ms += run.res.stages.prescan_ms;
      stages.scan_ms += run.res.stages.scan_ms;
      stages.postscan_ms += run.res.stages.postscan_ms;
      r.add_timed(q.keys.size(), 1, run.request_ms * 1e-3);
      block_ms += run.request_ms;
      block_keys += static_cast<f64>(q.keys.size());
    }
    if ((i + 1) % kPeriod == 0 || i + 1 == total) {
      (tr.on ? r.traced_s : r.untraced_s) += block_ms * 1e-3;
      (tr.on ? r.traced_keys : r.untraced_keys) += block_keys;
      block_ms = block_keys = 0.0;
    }
  }
  tr.on = a.trace;
  LayerCounts counts;
  counts.add(dev.records(), mark);
  f64 analyze_ms = 0.0;
  {
    SpanScope s(tr, "sim.analyze", 0);
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

  Metrics& L = r.layers;
  L.set("workload.gen_ms", gen_ms.median(), "ms");
  L.set("plan.build_us_p50", build_us.median(), "us");
  L.set("plan.run_ms", run_ms.median(), "ms");
  for (const auto& [token, s] : run_ms_by_method)
    L.set("plan.run_ms." + token, s.median(), "ms");
  L.set("plan.host_ns_per_key",
        r.keys > 0 ? run_ms_sum * 1e6 / static_cast<f64>(r.keys) : 0.0, "ns");
  L.set("plan.replay_active_pct",
        r.requests > 0 ? 100.0 * static_cast<f64>(replay_runs) /
                             static_cast<f64>(r.requests)
                       : 0.0,
        "%");
  L.set("modeled.prescan_ms", stages.prescan_ms, "ms");
  L.set("modeled.scan_ms", stages.scan_ms, "ms");
  L.set("modeled.postscan_ms", stages.postscan_ms, "ms");
  set_sim_layers(L, counts, r.requests, r.timed_s * 1e3, dev.profile());
  set_alloc_layers(L, dev.allocator().stats());
  L.set("sim.records_retained", static_cast<f64>(dev.records().size()), "count");
  L.set("sim.regions_retained", static_cast<f64>(dev.regions().size()), "count");
  L.set("sim.analyze_ms", analyze_ms, "ms");
  return r;
}

}  // namespace perfbench
