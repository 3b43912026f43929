// Repo benchmark entry point: one workload per process.
//
//   perfbench --workload bulk_paper|plan_loop|serve_stream --seed <n>
//             --seconds <s> --trace 0|1 [--host-threads <k>] [--tiny]
//             [--out-dir <dir>]
//
// Prints a human-readable report (every metric by name, with its unit and
// its clock), then as the last line of stdout one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exit status 0 when every output matched the reference and
// every modeled count repeated; 1 when not; 2 on a usage error.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"

namespace pb = perfbench;
using pb::f64;
using pb::u32;
using pb::u64;

namespace {

struct Spec {
  const char* name;
  const char* unit;
  /// host (wall clock), modeled (simulated K40c), count (exact simulator
  /// count) or memory.
  const char* clock;
};

/// BENCHMARK.json's end_to_end list, in order.
constexpr Spec kEndToEnd[] = {
    {"keys_per_s", "1/s", "host"},
    {"requests_per_s", "1/s", "host"},
    {"request_ms_p50", "ms", "host"},
    {"request_ms_tail", "ms", "host"},
    {"setup_s", "s", "host"},
    {"peak_rss_mb", "MB", "memory"},
    {"fidelity_mape_pct", "%", "modeled"},
};

/// BENCHMARK.json's per_layer list, in order.  A layer a workload does not
/// exercise did no work there and reports 0.
constexpr Spec kPerLayer[] = {
    {"workload.gen_ms", "ms", "host"},
    {"plan.build_us_p50", "us", "host"},
    {"plan.run_ms", "ms", "host"},
    {"plan.run_ms.direct", "ms", "host"},
    {"plan.run_ms.warp", "ms", "host"},
    {"plan.run_ms.block", "ms", "host"},
    {"plan.run_ms.reduced_bit", "ms", "host"},
    {"plan.host_ns_per_key", "ns", "host"},
    {"plan.replay_active_pct", "%", "count"},
    {"modeled.prescan_ms", "ms", "modeled"},
    {"modeled.scan_ms", "ms", "modeled"},
    {"modeled.postscan_ms", "ms", "modeled"},
    {"modeled.total_ms", "ms", "modeled"},
    {"modeled.launch_overhead_pct", "%", "modeled"},
    {"serving.submit_us_p50", "us", "host"},
    {"serving.get_us_p50", "us", "host"},
    {"serving.flush_ms", "ms", "host"},
    {"serving.flush_us_per_request", "us", "host"},
    {"serving.fill_ratio", "ratio", "count"},
    {"serving.packed_pct", "%", "count"},
    {"serving.fused_launches", "count", "count"},
    {"serving.problems_retried", "count", "count"},
    {"sim.launches_per_request", "count", "count"},
    {"sim.host_us_per_launch", "us", "host"},
    {"sim.simt_insts", "count", "count"},
    {"sim.host_ns_per_simt_inst", "ns", "host"},
    {"sim.smem_accesses", "count", "count"},
    {"sim.bank_conflict_mult", "ratio", "count"},
    {"sim.l2_sector_accesses", "count", "count"},
    {"sim.l2_read_hit_pct", "%", "count"},
    {"sim.dram_tx", "count", "count"},
    {"sim.alloc_reuse_pct", "%", "count"},
    {"sim.bytes_reserved_mb", "MB", "memory"},
    {"sim.records_retained", "count", "count"},
    {"sim.regions_retained", "count", "count"},
    {"sim.analyze_ms", "ms", "host"},
    {"self_ms.request", "ms", "host"},
    {"self_ms.setup", "ms", "host"},
    {"self_ms.workload.generate", "ms", "host"},
    {"self_ms.plan.build", "ms", "host"},
    {"self_ms.plan.run", "ms", "host"},
    {"self_ms.serving.submit", "ms", "host"},
    {"self_ms.serving.flush", "ms", "host"},
    {"self_ms.serving.get", "ms", "host"},
    {"self_ms.check.reference", "ms", "host"},
    {"self_ms.sim.analyze", "ms", "host"},
    {"trace_overhead_pct", "%", "host"},
};

[[noreturn]] void usage(const char* argv0, const char* why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload bulk_paper|plan_loop|serve_stream "
               "--seed <n> --seconds <s> --trace 0|1 [--host-threads <k>] "
               "[--tiny] [--out-dir <dir>]\n",
               argv0, why, argv0);
  std::exit(2);
}

u64 parse_u64(const char* argv0, const char* flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || v[0] == '-') {
    std::fprintf(stderr, "%s: %s needs a non-negative integer, got '%s'\n",
                 argv0, flag, v);
    std::exit(2);
  }
  return x;
}

pb::Args parse(int argc, char** argv) {
  pb::Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) usage(argv[0], (std::string("missing value for ") + flag).c_str());
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--workload")) {
      a.workload = value("--workload");
    } else if (!std::strcmp(argv[i], "--seed")) {
      a.seed = parse_u64(argv[0], "--seed", value("--seed"));
      have_seed = true;
    } else if (!std::strcmp(argv[i], "--seconds")) {
      const u64 s = parse_u64(argv[0], "--seconds", value("--seconds"));
      if (s < 1 || s > 600) usage(argv[0], "--seconds must be 1..600");
      a.seconds = static_cast<u32>(s);
      have_seconds = true;
    } else if (!std::strcmp(argv[i], "--trace")) {
      const u64 t = parse_u64(argv[0], "--trace", value("--trace"));
      if (t > 1) usage(argv[0], "--trace must be 0 or 1");
      a.trace = t == 1;
      have_trace = true;
    } else if (!std::strcmp(argv[i], "--host-threads")) {
      const u64 k = parse_u64(argv[0], "--host-threads", value("--host-threads"));
      if (k < 1 || k > 256) usage(argv[0], "--host-threads must be 1..256");
      a.host_threads = static_cast<u32>(k);
    } else if (!std::strcmp(argv[i], "--tiny")) {
      a.tiny = true;
    } else if (!std::strcmp(argv[i], "--out-dir")) {
      a.out_dir = value("--out-dir");
    } else {
      usage(argv[0], (std::string("unknown flag '") + argv[i] + "'").c_str());
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage(argv[0], "--workload, --seed, --seconds and --trace are required");
  if (a.workload != "bulk_paper" && a.workload != "plan_loop" &&
      a.workload != "serve_stream")
    usage(argv[0], ("unknown workload '" + a.workload + "'").c_str());
  return a;
}

/// Full-precision JSON number (finite by construction; 0 otherwise).
std::string num(f64 v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  (void)pb::process_start();
  const pb::Args a = parse(argc, argv);
  ms::sim::set_default_host_threads(a.host_threads);

  pb::Tracer tr;
  pb::RunResult r = a.workload == "bulk_paper"  ? pb::run_bulk_paper(a, tr)
                    : a.workload == "plan_loop" ? pb::run_plan_loop(a, tr)
                                                : pb::run_serve_stream(a, tr);
  // bulk_paper's timed grid pass is the fidelity pass; the other workloads
  // run the same pass after their timed phase and peak-RSS reading.
  if (a.workload != "bulk_paper") r.fidelity = pb::table5_fidelity_pass(a, r);

  // End-to-end metrics (host clock unless noted).
  pb::Metrics e2e;
  const pb::WindowedTail wtail = pb::windowed_tail_of(r.request_ms, r.windows);
  const pb::Tail& tail = wtail.median;
  const pb::Rates rates = pb::windowed_rates(r);
  e2e.set("keys_per_s", rates.keys_per_s, "1/s");
  e2e.set("requests_per_s", rates.requests_per_s, "1/s");
  e2e.set("request_ms_p50", r.request_ms.median(), "ms");
  e2e.set("request_ms_tail", tail.value, "ms");
  e2e.set("setup_s", r.setup_s.median(), "s");
  e2e.set("peak_rss_mb", r.peak_rss_mb, "MB");
  e2e.set("fidelity_mape_pct", r.fidelity.mape_pct(), "%");
  const f64 failed_pct =
      r.attempted > 0
          ? 100.0 * static_cast<f64>(r.failed) / static_cast<f64>(r.attempted)
          : 100.0;

  // Per-layer metrics: the workload's, then the traced run's self times.
  pb::Metrics& L = r.layers;
  if (a.trace) {
    for (const auto& [name, ms] : tr.self_ms()) L.set("self_ms." + name, ms, "ms");
    const f64 traced = r.traced_s > 0 ? r.traced_keys / r.traced_s : 0.0;
    const f64 untraced = r.untraced_s > 0 ? r.untraced_keys / r.untraced_s : 0.0;
    L.set("trace_overhead_pct",
          untraced > 0 ? (untraced - traced) / untraced * 100.0 : 0.0, "%");
  }
  bool names_ok = true;
  for (const pb::Metric& m : L.all()) {
    bool known = false;
    for (const Spec& s : kPerLayer) known = known || (m.name == s.name && m.unit == s.unit);
    if (!known) {
      std::fprintf(stderr, "perfbench: metric '%s' [%s] is not in the per-layer list\n",
                   m.name.c_str(), m.unit.c_str());
      names_ok = false;
    }
  }

  std::printf("== perfbench %s | seed %llu | host threads %u | trace %d%s ==\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.host_threads, a.trace ? 1 : 0, a.tiny ? " | tiny" : "");
  std::printf("clocks: host = simulator wall clock; modeled = simulated Tesla "
              "K40c; count = exact simulator count\n\n");
  std::printf("end-to-end:\n");
  for (const Spec& s : kEndToEnd) {
    const pb::Metric* m = e2e.find(s.name);
    std::printf("  %-28s %16.6g %-6s (%s)\n", s.name, m->value, s.unit,
                s.clock);
  }
  std::printf("  %-28s %16.6g %-6s (%llu of %llu requests)\n", "failed_pct",
              failed_pct, "%", static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("  request_ms_tail is the median of %zu window p%g values (",
              wtail.each.size(), tail.pct);
  for (u64 i = 0; i < wtail.each.size(); ++i)
    std::printf("%s%.4g", i > 0 ? ", " : "", wtail.each[i].value);
  std::printf(" ms); in the median window %llu samples are beyond it, from "
              "%llu independent groups\n",
              static_cast<unsigned long long>(tail.beyond),
              static_cast<unsigned long long>(tail.groups_beyond));
  std::printf("  timed phase: %llu requests, %llu keys, %.3f host s; set-up "
              "repeated %llu times\n\n",
              static_cast<unsigned long long>(r.requests),
              static_cast<unsigned long long>(r.keys), r.timed_s,
              static_cast<unsigned long long>(r.setup_s.size()));

  std::printf("fidelity: modeled Table 5 rates (Gkeys/s, rescaled to n = 2^25) "
              "vs the paper's K40c.\nTable 5 is held out from the calibration "
              "(Tables 3/4), so only these cells validate the model.\n");
  for (const pb::FidelityCell& c : r.fidelity.cells) {
    std::printf("  %-12s m=%-2u %-9s model %6.3f  paper %6.2f  err %+7.2f%%\n",
                c.method.c_str(), c.m, c.key_value ? "key-value" : "key-only",
                c.model_gkeys, c.paper_gkeys, c.signed_err_pct());
  }
  std::printf("  fidelity_mape_pct = %.4f %% over %zu cells\n\n",
              r.fidelity.mape_pct(), r.fidelity.cells.size());

  std::printf("per-layer%s:\n", a.trace ? "" : " (self times need --trace 1)");
  for (const Spec& s : kPerLayer) {
    const pb::Metric* m = L.find(s.name);
    std::printf("  %-32s %16.6g %-6s (%s)%s\n", s.name, m ? m->value : 0.0,
                s.unit, s.clock, m ? "" : " not exercised");
  }
  if (a.trace) {
    const std::string dir = a.out_dir.empty() ? "." : a.out_dir;
    const std::string path = dir + "/trace-" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".jsonl";
    if (!tr.write_jsonl(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      names_ok = false;
    } else {
      std::printf("  spans written to %s\n", path.c_str());
    }
  }
  if (!r.repeat_ok)
    std::printf("\nREPEAT CHECK FAILED: %s\n", r.repeat_note.c_str());

  const bool correct = r.failed == 0 && r.repeat_ok && names_ok && r.requests > 0;
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const Spec& s, f64 v) {
    json += std::string(first ? "" : ", ") + "\"" + s.name + "\": {\"value\": " +
            num(v) + ", \"unit\": \"" + s.unit + "\"}";
    first = false;
  };
  if (a.trace) {
    for (const Spec& s : kPerLayer) {
      const pb::Metric* m = L.find(s.name);
      emit(s, m ? m->value : 0.0);
    }
  } else {
    for (const Spec& s : kEndToEnd) emit(s, e2e.find(s.name)->value);
  }
  json += "}}";
  std::printf("\n%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
