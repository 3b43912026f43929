// bulk_paper: one-shot splits at n = 2^20 over Table 5's grid
// {direct, warp, block, reduced_bit} x m in {2..32} x {key-only, key-value}
// on uniform keys.  Every call gets a fresh Device and its own plan -- the
// path of the paper benches and `ms_cli run` -- so per-key simulation (lane
// engine, shared-memory model, streaming L2 misses, shard merge) dominates
// and the per-launch fixed cost is under 1%.
#include <cmath>
#include <optional>

#include "harness.hpp"
#include "multisplit/plan.hpp"
#include "sim/metrics.hpp"
#include "table5_k40c.hpp"
#include "workload/distributions.hpp"

namespace perfbench {

namespace split = ms::split;
namespace sim = ms::sim;

namespace {

struct Cell {
  u32 row;  ///< index into kTable5K40c
  u32 mi;   ///< index into kTable5Buckets
  bool key_value;
};

std::vector<Cell> table5_grid() {
  std::vector<Cell> g;
  for (const bool kv : {false, true})
    for (u32 row = 0; row < std::size(kTable5K40c); ++row)
      for (u32 mi = 0; mi < std::size(kTable5Buckets); ++mi)
        g.push_back({row, mi, kv});
  return g;
}

/// Uniform keys per bucket count, plus identity values, from the seed.
struct BulkInputs {
  std::vector<std::vector<u32>> keys;  ///< by bucket-count index
  std::vector<u32> values;
};

BulkInputs make_inputs(u64 n, u64 seed) {
  BulkInputs in;
  for (u32 mi = 0; mi < std::size(kTable5Buckets); ++mi) {
    ms::workload::WorkloadConfig wc;
    wc.dist = ms::workload::Distribution::kUniform;
    wc.m = kTable5Buckets[mi];
    wc.seed = mix_seed(seed, 100 + mi);
    in.keys.push_back(ms::workload::generate_keys(n, wc));
  }
  in.values = ms::workload::identity_values(n);
  return in;
}

struct CellRun {
  bool ok = false;
  f64 request_ms = 0.0;  ///< fresh Device through run() return
  f64 build_us = 0.0;
  f64 run_ms = 0.0;
  f64 analyze_ms = 0.0;
  bool replay_active = false;
  split::StageTimings stages;
  u64 kernels = 0;
  LayerCounts counts;
  sim::AllocatorStats alloc;
  u64 records = 0;
  u64 regions = 0;
};

/// One Table 5 call on a fresh device, checked against the reference
/// outside the request interval.  `analyze` also times analyze_device.
CellRun run_cell(const BulkInputs& in, const Cell& c, Tracer& tr, u64 request,
                 bool analyze, u32 parent_span = 0) {
  const Table5Row& row = kTable5K40c[c.row];
  const u32 m = kTable5Buckets[c.mi];
  const std::vector<u32>& keys = in.keys[c.mi];
  const u64 n = keys.size();
  CellRun out;

  const u32 req_span = tr.open("request", request, parent_span);
  const auto t0 = Clock::now();
  sim::Device dev(sim::DeviceProfile::tesla_k40c());
  sim::DeviceBuffer<u32> kin(dev, std::span<const u32>(keys)), kout(dev, n);
  std::optional<sim::DeviceBuffer<u32>> vin, vout;
  if (c.key_value) {
    vin.emplace(dev, std::span<const u32>(in.values));
    vout.emplace(dev, n);
  }
  split::MultisplitConfig cfg;
  cfg.method = row.method;
  cfg.warps_per_block = 8;
  std::optional<split::MultisplitPlan> plan;
  split::MultisplitResult res;
  try {
    {
      SpanScope s(tr, "plan.build", request, req_span);
      const auto b0 = Clock::now();
      plan.emplace(dev, n, m, cfg, c.key_value ? 4u : 0u);
      out.build_us = ms_between(b0, Clock::now()) * 1e3;
    }
    out.replay_active = plan->replay_active();
    SpanScope s(tr, "plan.run", request, req_span);
    const auto r0 = Clock::now();
    res = c.key_value ? plan->run_pairs(kin, *vin, kout, *vout,
                                        split::RangeBucket{m})
                      : plan->run(kin, kout, split::RangeBucket{m});
    out.run_ms = ms_between(r0, Clock::now());
    out.ok = true;
  } catch (const std::exception&) {
    out.ok = false;
  }
  out.request_ms = ms_between(t0, Clock::now());
  tr.close(req_span);
  if (!out.ok) return out;

  {
    SpanScope s(tr, "check.reference", request);
    const std::span<const u32> no_vals;
    out.ok = check_split(keys, c.key_value ? std::span<const u32>(in.values)
                                           : no_vals,
                         m, std::as_const(kout).host(),
                         c.key_value ? std::as_const(*vout).host() : no_vals,
                         res.bucket_offsets);
  }
  out.stages = res.stages;
  out.kernels = res.summary.kernels;
  out.counts.add(dev.records());
  out.alloc = dev.allocator().stats();
  out.records = dev.records().size();
  out.regions = dev.regions().size();
  if (analyze) {
    SpanScope s(tr, "sim.analyze", request);
    const auto a0 = Clock::now();
    const sim::MetricsReport rep = sim::analyze_device(dev);
    out.analyze_ms = ms_between(a0, Clock::now());
    if (rep.launches != out.counts.launches) out.ok = false;
  }
  return out;
}

/// Table 5 rate of one cell, rescaled from n to the paper's 2^25 the way
/// bench/table5_rates does: launch overhead is a fixed cost per kernel,
/// everything else scales linearly with n.
f64 modeled_gkeys(const CellRun& r, u64 n) {
  const f64 paper_n = std::ldexp(1.0, kTable5PaperLog2N);
  const f64 scale = paper_n / static_cast<f64>(n);
  const f64 launch_ms =
      static_cast<f64>(r.kernels) *
      sim::DeviceProfile::tesla_k40c().kernel_launch_us * 1e-3;
  const f64 raw = r.stages.total();
  const f64 scaled = std::max(raw, (raw - launch_ms) * scale + launch_ms);
  return paper_n / (scaled * 1e-3) / 1e9;
}

FidelityCell fidelity_cell(const Cell& c, const CellRun& r, u64 n) {
  const Table5Row& row = kTable5K40c[c.row];
  FidelityCell f;
  f.method = row.token;
  f.m = kTable5Buckets[c.mi];
  f.key_value = c.key_value;
  f.model_gkeys = modeled_gkeys(r, n);
  f.paper_gkeys = c.key_value ? row.key_value[c.mi] : row.key_only[c.mi];
  return f;
}

u64 bulk_n(const Args& a) { return u64{1} << (a.tiny ? 12 : 20); }

}  // namespace

Fidelity table5_fidelity_pass(const Args& a, RunResult& r) {
  const u64 n = bulk_n(a);
  const BulkInputs in = make_inputs(n, a.seed);
  Tracer off;
  Fidelity fid;
  for (const Cell& c : table5_grid()) {
    const CellRun run = run_cell(in, c, off, 0, /*analyze=*/false);
    ++r.attempted;
    if (!run.ok) {
      ++r.failed;
      continue;
    }
    fid.cells.push_back(fidelity_cell(c, run, n));
  }
  return fid;
}

RunResult run_bulk_paper(const Args& a, Tracer& tr) {
  RunResult r;
  const u64 n = bulk_n(a);
  const std::vector<Cell> grid = table5_grid();
  u64 request = 0;

  // Set-up: generate the inputs and warm up with one call (worker pool,
  // first-touch pages).  Repeated; the warm-up's modeled counts must
  // repeat bit-exactly every time.
  std::optional<BulkInputs> in;
  std::optional<LayerCounts> warm;
  Samples gen_ms;
  const u32 reps = a.tiny ? 2 : 9;
  for (u32 rep = 0; rep < reps; ++rep) {
    const auto t0 = rep == 0 ? process_start() : Clock::now();
    tr.on = a.trace && rep + 1 == reps;
    const u32 setup_span = tr.open("setup", 0);
    {
      SpanScope s(tr, "workload.generate", 0, setup_span);
      const auto g0 = Clock::now();
      in.reset();
      in = make_inputs(n, a.seed);
      gen_ms.add(ms_between(g0, Clock::now()));
    }
    const CellRun w =
        run_cell(*in, grid[0], tr, 0, /*analyze=*/false, setup_span);
    tr.close(setup_span);
    if (!w.ok) {
      r.repeat_ok = false;
      r.repeat_note = "warm-up call failed";
    } else if (warm && !(*warm == w.counts)) {
      r.repeat_ok = false;
      r.repeat_note = "warm-up modeled counts differ across set-up repetitions";
    }
    warm = w.counts;
    r.setup_s.add(ms_between(t0, Clock::now()) * 1e-3);
  }

  // Timed phase: whole grid passes, one per 10 --seconds (a pass takes
  // about 10 host seconds on a 4-vCPU x86 host with two simulator
  // threads).  A traced run alternates untraced and traced passes, so it
  // makes at least two and both keys/s figures see the same cells.
  const u32 passes = std::max<u32>(a.trace ? 2 : 1, a.seconds / 10);
  Samples build_us, run_ms, analyze_ms;
  std::map<std::string, Samples> run_ms_by_method;
  split::StageTimings stages;  // first pass
  LayerCounts pass0;
  sim::AllocatorStats alloc;
  u64 records = 0, regions = 0, replay_runs = 0;
  f64 run_ms_sum = 0.0;
  std::vector<LayerCounts> first_pass(grid.size());
  for (u32 p = 0; p < passes; ++p) {
    tr.on = a.trace && p % 2 == 1;
    f64 pass_ms = 0.0;
    u64 pass_keys = 0;
    for (u64 ci = 0; ci < grid.size(); ++ci) {
      const Cell& c = grid[ci];
      const CellRun run = run_cell(*in, c, tr, ++request, /*analyze=*/true);
      ++r.attempted;
      if (!run.ok) {
        ++r.failed;
        continue;
      }
      pass_ms += run.request_ms;
      pass_keys += n;
      r.add_timed(n, 1, run.request_ms * 1e-3);
      r.request_ms.add(run.request_ms);
      build_us.add(run.build_us);
      run_ms.add(run.run_ms);
      run_ms_by_method[kTable5K40c[c.row].token].add(run.run_ms);
      run_ms_sum += run.run_ms;
      analyze_ms.add(run.analyze_ms);
      replay_runs += run.replay_active ? 1 : 0;
      alloc.alloc_count += run.alloc.alloc_count;
      alloc.reuse_hits += run.alloc.reuse_hits;
      alloc.bytes_reserved = std::max(alloc.bytes_reserved, run.alloc.bytes_reserved);
      records = std::max(records, run.records);
      regions = std::max(regions, run.regions);
      if (p == 0) {
        first_pass[ci] = run.counts;
        stages.prescan_ms += run.stages.prescan_ms;
        stages.scan_ms += run.stages.scan_ms;
        stages.postscan_ms += run.stages.postscan_ms;
        pass0.events += run.counts.events;
        pass0.launches += run.counts.launches;
        pass0.modeled_ms += run.counts.modeled_ms;
        r.fidelity.cells.push_back(fidelity_cell(c, run, n));
      } else if (!(first_pass[ci] == run.counts)) {
        r.repeat_ok = false;
        r.repeat_note = "a grid cell's modeled counts differ across passes";
      }
    }
    (tr.on ? r.traced_s : r.untraced_s) += pass_ms * 1e-3;
    (tr.on ? r.traced_keys : r.untraced_keys) += static_cast<f64>(pass_keys);
  }
  tr.on = false;
  r.peak_rss_mb = peak_rss_mb();

  Metrics& L = r.layers;
  L.set("workload.gen_ms", gen_ms.median(), "ms");
  L.set("plan.build_us_p50", build_us.median(), "us");
  L.set("plan.run_ms", run_ms.median(), "ms");
  for (const Table5Row& row : kTable5K40c)
    L.set(std::string("plan.run_ms.") + row.token,
          run_ms_by_method[row.token].median(), "ms");
  L.set("plan.host_ns_per_key",
        r.keys > 0 ? run_ms_sum * 1e6 / static_cast<f64>(r.keys) : 0.0, "ns");
  L.set("plan.replay_active_pct",
        r.requests > 0 ? 100.0 * static_cast<f64>(replay_runs) /
                             static_cast<f64>(r.requests)
                       : 0.0,
        "%");
  // Modeled per-layer counts cover the first pass only, so they are the
  // same whatever the pass count; host time is per pass to match.
  L.set("modeled.prescan_ms", stages.prescan_ms, "ms");
  L.set("modeled.scan_ms", stages.scan_ms, "ms");
  L.set("modeled.postscan_ms", stages.postscan_ms, "ms");
  set_sim_layers(L, pass0, grid.size(), r.timed_s * 1e3 / passes,
                 sim::DeviceProfile::tesla_k40c());
  set_alloc_layers(L, alloc);
  L.set("sim.records_retained", static_cast<f64>(records), "count");
  L.set("sim.regions_retained", static_cast<f64>(regions), "count");
  L.set("sim.analyze_ms", analyze_ms.median(), "ms");
  return r;
}

}  // namespace perfbench
