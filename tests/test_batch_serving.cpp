// Contract of the async batched serving executor (multisplit/serving.hpp)
// and its fused sub-warp/warp packing kernels (multisplit/batch_ms.hpp):
//
//   * batched outputs (keys + bucket offsets) are bit-identical to the
//     sequential plan path's, request by request;
//   * per-problem Method::kAuto resolves to the SAME method_selected a
//     sequential plan.run() records;
//   * the reported per-problem modeled cost is f64-bitwise invariant
//     across batch sizes and compositions;
//   * the whole serving pass is bit-identical at 1 and 4 host threads
//     (gated again by batch_suite_mt4 / the MS_SANITIZE=all variant);
//   * per-request attribution spans nest directly under the fused launch
//     span;
//   * a faulted fused attempt retries only its own problems, with the
//     plan layer's validator, fault classification and attempt budget;
//     permanent (caller) errors fail without poisoning the rest of the
//     batch; unpacked problems recover like sequential resilient runs;
//   * get() references stay valid for the executor's lifetime;
//   * BatchStats flows into the schema-v8 "batching" metrics block.
#include <gtest/gtest.h>

#include <sstream>

#include "multisplit/multisplit.hpp"
#include "multisplit/plan.hpp"
#include "multisplit/serving.hpp"
#include "sim/chaos.hpp"
#include "sim/metrics.hpp"
#include "sim/span.hpp"
#include "workload/distributions.hpp"

namespace ms::test {
namespace {

using split::Method;
using split::PackClass;

struct Stream {
  std::vector<std::vector<u32>> keys;
  std::vector<u32> ms;
};

/// The serving-shape mix from bench/batch_serving.cpp: sub-warp class
/// (n <= 8, m <= 8), warp class, and shapes resolving to both kAuto
/// outcomes.
Stream make_stream(u64 count, u64 seed = 0xABCDE) {
  static constexpr u64 kNs[] = {5, 8, 32, 96, 256, 1024};
  static constexpr u32 kMs[] = {2, 3, 4, 8, 16, 32};
  Stream s;
  workload::WorkloadConfig wc;
  for (u64 i = 0; i < count; ++i) {
    const u32 m = kMs[(i / 6) % 6];
    wc.m = m;
    wc.seed = seed + i * 7919;
    s.ms.push_back(m);
    s.keys.push_back(workload::generate_keys(kNs[i % 6], wc));
  }
  return s;
}

struct SeqRef {
  std::vector<u32> keys_out;
  std::vector<u32> offsets;
  Method selected = Method::kAuto;
};

/// Sequential reference: a fresh device, one kAuto plan per request, the
/// type-erased run -- exactly the serving executor's unpacked fallback.
SeqRef run_sequential(const std::vector<u32>& keys, u32 m) {
  sim::Device dev;
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(keys), "in");
  sim::DeviceBuffer<u32> out(dev, keys.size(), "out");
  split::MultisplitConfig cfg;
  cfg.method = Method::kAuto;
  const split::MultisplitPlan plan(dev, keys.size(), m, cfg);
  const split::BucketFunction fn = split::RangeBucket{m};
  const split::MultisplitResult r = plan.run(in, out, fn);
  SeqRef ref;
  const std::span<const u32> ho = std::as_const(out).host();
  ref.keys_out.assign(ho.begin(), ho.end());
  ref.offsets = r.bucket_offsets;
  ref.selected = r.method_selected;
  return ref;
}

/// One serving pass over `s` with max_batch = batch; returns the results
/// in submit order.
std::vector<split::ServeResult> serve_all(sim::Device& dev, const Stream& s,
                                          u32 batch) {
  split::ServingPolicy policy;
  policy.max_batch = batch;
  policy.max_linger_ms = 1e9;  // flush on size only
  split::ServingExecutor exec(dev, policy);
  std::vector<split::ServeTicket> tickets;
  for (u64 i = 0; i < s.keys.size(); ++i) {
    tickets.push_back(
        exec.submit(s.keys[i], s.ms[i], split::RangeBucket{s.ms[i]}));
  }
  exec.drain();
  std::vector<split::ServeResult> out;
  for (const auto t : tickets) out.push_back(exec.get(t));
  return out;
}

TEST(BatchServing, PackClassification) {
  // Sub-warp slot: tiny n and m, any stable method.
  EXPECT_EQ(split::classify_packing(5, 4, Method::kWarpLevel),
            PackClass::kSub);
  EXPECT_EQ(split::classify_packing(8, 8, Method::kBlockLevel),
            PackClass::kSub);
  // One-warp problems up to the serving shape bounds.
  EXPECT_EQ(split::classify_packing(9, 4, Method::kWarpLevel),
            PackClass::kWarp);
  EXPECT_EQ(split::classify_packing(4096, 32, Method::kBlockLevel),
            PackClass::kWarp);
  // Outside the serving shape, or a method whose output order the fused
  // stable partition cannot reproduce: ordinary plan path.
  EXPECT_EQ(split::classify_packing(4097, 8, Method::kWarpLevel),
            PackClass::kNone);
  EXPECT_EQ(split::classify_packing(64, 33, Method::kWarpLevel),
            PackClass::kNone);
  EXPECT_EQ(split::classify_packing(0, 8, Method::kWarpLevel),
            PackClass::kNone);
  EXPECT_EQ(split::classify_packing(64, 8, Method::kRandomizedInsertion),
            PackClass::kNone);
}

// Satellite (b): per-problem kAuto inside a packed batch records the same
// method_selected as a sequential plan.run of the same problem.
TEST(BatchServing, AutoSelectionMatchesSequential) {
  const Stream s = make_stream(48);
  sim::Device dev;
  const auto results = serve_all(dev, s, 48);
  u64 packed = 0;
  for (u64 i = 0; i < s.keys.size(); ++i) {
    ASSERT_FALSE(results[i].failed) << results[i].error;
    const SeqRef ref = run_sequential(s.keys[i], s.ms[i]);
    EXPECT_EQ(results[i].method_selected, ref.selected) << "request " << i;
    packed += results[i].packed ? 1 : 0;
  }
  // The mix must actually exercise the fused path, not fall back.
  EXPECT_GT(packed, 0u);
  EXPECT_EQ(dev.batch_stats().packed_problems, packed);
}

// Tolerance-0 output parity: batched == sequential, key for key.
TEST(BatchServing, BatchedMatchesSequentialBitwise) {
  const Stream s = make_stream(36);
  sim::Device dev;
  const auto results = serve_all(dev, s, 36);
  for (u64 i = 0; i < s.keys.size(); ++i) {
    ASSERT_FALSE(results[i].failed) << results[i].error;
    const SeqRef ref = run_sequential(s.keys[i], s.ms[i]);
    EXPECT_EQ(results[i].keys_out, ref.keys_out) << "request " << i;
    EXPECT_EQ(results[i].bucket_offsets, ref.offsets) << "request " << i;
  }
}

// The reported per-problem cost is a closed form of (profile, n, m,
// class): f64-bitwise identical whether the problem shares its fused
// launch with 0 or 100 neighbours.
TEST(BatchServing, ModeledCostInvariantAcrossBatchSizes) {
  const Stream s = make_stream(30);
  sim::Device d1, d2, d3;
  const auto r1 = serve_all(d1, s, 1);
  const auto r8 = serve_all(d2, s, 8);
  const auto r30 = serve_all(d3, s, 30);
  for (u64 i = 0; i < s.keys.size(); ++i) {
    ASSERT_FALSE(r1[i].failed || r8[i].failed || r30[i].failed);
    EXPECT_EQ(r1[i].modeled_cost_ms, r8[i].modeled_cost_ms) << i;
    EXPECT_EQ(r1[i].modeled_cost_ms, r30[i].modeled_cost_ms) << i;
    EXPECT_EQ(r1[i].pack_class, r30[i].pack_class) << i;
  }
  // ...while the device-clock win from fusing is real: one launch
  // sequence for many problems beats one per problem.
  EXPECT_LT(d3.lifetime_ms(), d1.lifetime_ms());
}

// Tickets complete asynchronously: nothing runs before a flush point,
// get() forces one.
TEST(BatchServing, AsyncCompletionObservable) {
  const Stream s = make_stream(3);
  sim::Device dev;
  split::ServingPolicy policy;
  policy.max_batch = 64;
  policy.max_linger_ms = 1e9;
  split::ServingExecutor exec(dev, policy);
  std::vector<split::ServeTicket> tickets;
  for (u64 i = 0; i < s.keys.size(); ++i) {
    tickets.push_back(
        exec.submit(s.keys[i], s.ms[i], split::RangeBucket{s.ms[i]}));
  }
  EXPECT_EQ(exec.pending(), 3u);
  for (const auto t : tickets) EXPECT_FALSE(exec.ready(t));
  EXPECT_EQ(dev.lifetime_launches(), 0u);  // truly deferred: nothing ran
  const split::ServeResult& r0 = exec.get(tickets[0]);  // forces the flush
  EXPECT_FALSE(r0.failed);
  EXPECT_EQ(exec.pending(), 0u);
  for (const auto t : tickets) EXPECT_TRUE(exec.ready(t));
  EXPECT_EQ(exec.get(tickets[2]).batch_size, 3u);
}

// The linger trigger is measured on the VIRTUAL clock: a queued request
// aged by foreground launches flushes at the next submit.
TEST(BatchServing, LingerFlushOnVirtualClock) {
  const Stream s = make_stream(2);
  sim::Device dev;
  split::ServingPolicy policy;
  policy.max_batch = 1000;
  policy.max_linger_ms = 0.001;
  split::ServingExecutor exec(dev, policy);
  const auto t0 =
      exec.submit(s.keys[0], s.ms[0], split::RangeBucket{s.ms[0]});
  EXPECT_FALSE(exec.ready(t0));  // nothing aged it yet
  // Foreground work advances the virtual clock past the linger budget.
  const auto keys = workload::generate_keys(1 << 12, {});
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(keys), "fg.in");
  sim::DeviceBuffer<u32> out(dev, keys.size(), "fg.out");
  split::multisplit_keys(dev, in, out, 8, split::RangeBucket{8});
  const auto t1 =
      exec.submit(s.keys[1], s.ms[1], split::RangeBucket{s.ms[1]});
  EXPECT_TRUE(exec.ready(t0));  // the aged request flushed at submit
  EXPECT_TRUE(exec.ready(t1));  // ... taking the fresh one with it
  EXPECT_EQ(exec.get(t0).batch_size, 2u);
}

/// Serving-pass fingerprint: every result field that must be
/// thread-count-invariant, plus the device's modeled clock and stats.
std::string fingerprint(sim::Device& dev,
                        const std::vector<split::ServeResult>& results) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& r : results) {
    os << static_cast<u32>(r.pack_class) << ' ' << r.packed << ' '
       << r.failed << ' ' << split::method_token(r.method_selected) << ' '
       << r.modeled_cost_ms << ' ' << r.batch_id << ' ' << r.batch_size
       << ' ' << r.retry_rounds << '\n';
    for (const u32 k : r.keys_out) os << k << ' ';
    for (const u32 o : r.bucket_offsets) os << o << ' ';
    os << '\n';
  }
  const sim::BatchStats& bs = dev.batch_stats();
  os << bs.batches << ' ' << bs.packed_problems << ' '
     << bs.unpacked_problems << ' ' << bs.fused_launches << ' '
     << bs.slots_filled << ' ' << bs.slots_total << ' '
     << bs.problems_retried << '\n';
  os << dev.lifetime_ms() << '\n';
  return os.str();
}

// Satellite (c): the whole pass -- outputs, costs, stats, the virtual
// clock -- is bit-identical at 1 and 4 simulator worker threads.  The
// batch_suite_mt4 / sanitize gates rerun this file under
// MS_HOST_THREADS=4 and MS_SANITIZE=all on top.
TEST(BatchServingDeterminism, SerialVsFourThreads) {
  const Stream s = make_stream(40);
  auto pass = [&](u32 threads) {
    sim::Device dev;
    dev.set_host_threads(threads);
    const auto results = serve_all(dev, s, 16);
    return fingerprint(dev, results);
  };
  EXPECT_EQ(pass(1), pass(4));
}

// Per-request attribution spans nest DIRECTLY under the fused launch
// span, one per packed problem, tiling the launch interval.
TEST(BatchServing, SpansNestUnderFusedLaunch) {
  Stream s;  // 6 sub-warp problems -> exactly one fused sub launch
  workload::WorkloadConfig wc;
  for (u64 i = 0; i < 6; ++i) {
    wc.m = 4;
    wc.seed = 77 + i;
    s.ms.push_back(4);
    s.keys.push_back(workload::generate_keys(5 + (i % 4), wc));
  }
  sim::Device dev;
  sim::SpanRecorder& rec = dev.enable_spans();
  const auto results = serve_all(dev, s, 6);
  for (const auto& r : results) ASSERT_FALSE(r.failed) << r.error;

  u64 launch_id = 0;
  f64 launch_begin = 0.0, launch_end = 0.0;
  for (const auto& sp : rec.spans()) {
    if (sp.kind == sim::SpanKind::kLaunch &&
        sp.name.find("batch_ms_sub") != std::string::npos) {
      EXPECT_EQ(launch_id, 0u) << "one fused launch expected";
      launch_id = sp.span_id;
      launch_begin = sp.begin_ms;
      launch_end = sp.end_ms;
    }
  }
  ASSERT_NE(launch_id, 0u) << "fused sub launch span not recorded";

  std::vector<const sim::SpanRecord*> children;
  for (const auto& sp : rec.spans()) {
    if (sp.parent_id == launch_id && sp.kind == sim::SpanKind::kRequest) {
      children.push_back(&sp);
    }
  }
  ASSERT_EQ(children.size(), s.keys.size());
  f64 cursor = launch_begin;
  for (const auto* sp : children) {
    EXPECT_TRUE(sp->closed);
    EXPECT_DOUBLE_EQ(sp->begin_ms, cursor);  // contiguous tiling
    EXPECT_LE(sp->end_ms, launch_end + 1e-12);
    cursor = sp->end_ms;
    // Each attribution span is named after the problem's resolved method.
    EXPECT_FALSE(split::parse_method(sp->name) == std::nullopt ||
                 *split::parse_method(sp->name) == Method::kAuto);
  }
  EXPECT_DOUBLE_EQ(cursor, launch_end);
}

// A faulted fused attempt retries ONLY its own problems: the sub-class
// attempt faults once -- an aborted launch, or a failed allocation of its
// buffers -- its problems succeed on round 1, and the warp-class problems
// of the same batch never retry.  Nothing escapes drain().
TEST(BatchServing, FaultedFusedLaunchRetriesOnlyAffected) {
  const Stream s = make_stream(24);  // mixes sub and warp classes
  const std::pair<const char*, void (*)(sim::ChaosEngine&)> faults[] = {
      {"launch abort", [](sim::ChaosEngine& c) { c.arm_launch_abort(); }},
      {"alloc failure", [](sim::ChaosEngine& c) { c.arm_alloc_failure(); }},
  };
  for (const auto& [name, arm] : faults) {
    SCOPED_TRACE(name);
    sim::Device dev;
    dev.enable_chaos(sim::ChaosPolicy{});  // armed, all probabilities zero
    split::ServingPolicy policy;
    policy.max_batch = 1000;
    policy.max_linger_ms = 1e9;
    split::ServingExecutor exec(dev, policy);
    std::vector<split::ServeTicket> tickets;
    for (u64 i = 0; i < s.keys.size(); ++i) {
      tickets.push_back(
          exec.submit(s.keys[i], s.ms[i], split::RangeBucket{s.ms[i]}));
    }
    // The first attempt of the flush is the fused sub-warp one.
    arm(*dev.chaos());
    ASSERT_NO_THROW(exec.drain());

    u64 sub = 0, warp = 0;
    for (u64 i = 0; i < tickets.size(); ++i) {
      ASSERT_TRUE(exec.ready(tickets[i])) << "request " << i;
      const split::ServeResult& r = exec.get(tickets[i]);
      ASSERT_FALSE(r.failed) << "request " << i << ": " << r.error;
      const SeqRef ref = run_sequential(s.keys[i], s.ms[i]);
      EXPECT_EQ(r.keys_out, ref.keys_out) << "request " << i;
      if (r.pack_class == PackClass::kSub) {
        EXPECT_EQ(r.retry_rounds, 1u) << "request " << i;
        sub += 1;
      } else {
        EXPECT_EQ(r.retry_rounds, 0u) << "request " << i;
        warp += r.pack_class == PackClass::kWarp ? 1 : 0;
      }
    }
    EXPECT_GT(sub, 0u);
    EXPECT_GT(warp, 0u);
    EXPECT_EQ(dev.batch_stats().problems_retried, sub);
  }
}

// A fused-launch fault that fault_is_retryable rejects under the default
// RetryPolicy (here a data fault raised by a bucket function) fails every
// problem of THAT launch at once -- no retry rounds, nothing counted as
// retried -- while the other class's launch completes normally.
TEST(BatchServing, NonRetryableFusedLaunchFaultFailsOnlyThatLaunch) {
  const Stream s = make_stream(24);
  sim::Device dev;
  split::ServingPolicy policy;
  policy.max_batch = 1000;
  policy.max_linger_ms = 1e9;
  split::ServingExecutor exec(dev, policy);
  std::vector<split::ServeTicket> tickets;
  for (u64 i = 0; i < s.keys.size(); ++i) {
    tickets.push_back(
        exec.submit(s.keys[i], s.ms[i], split::RangeBucket{s.ms[i]}));
  }
  const auto oob = exec.submit({1, 2, 3, 4, 5}, 4, [](u32) -> u32 {
    sim::FaultContext ctx;
    ctx.kind = sim::FaultKind::kGlobalOOB;
    ctx.detail = "bucket table read out of bounds";
    throw sim::SimError(std::move(ctx));
  });
  ASSERT_NO_THROW(exec.drain());

  const split::ServeResult& rb = exec.get(oob);
  ASSERT_EQ(rb.pack_class, PackClass::kSub);
  EXPECT_TRUE(rb.failed);
  EXPECT_EQ(rb.retry_rounds, 0u);
  EXPECT_NE(rb.error.find("bucket table read out of bounds"),
            std::string::npos)
      << rb.error;
  u64 sub = 0, warp = 0;
  for (u64 i = 0; i < tickets.size(); ++i) {
    const split::ServeResult& r = exec.get(tickets[i]);
    EXPECT_EQ(r.retry_rounds, 0u) << "request " << i;
    if (r.pack_class == PackClass::kSub) {
      EXPECT_TRUE(r.failed) << "request " << i;  // same fused launch
      sub += 1;
    } else {
      EXPECT_FALSE(r.failed) << "request " << i << ": " << r.error;
      warp += r.pack_class == PackClass::kWarp ? 1 : 0;
    }
  }
  EXPECT_GT(sub, 0u);
  EXPECT_GT(warp, 0u);
  EXPECT_EQ(dev.batch_stats().problems_retried, 0u);
}

// Unpacked problems run the resilient plan path: an aborted launch is
// retried like any sequential resilient caller's, not reported failed.
TEST(BatchServing, UnpackedProblemRecoversFromLaunchAbort) {
  const u32 m = 8;
  workload::WorkloadConfig wc;
  wc.m = m;
  const std::vector<u32> keys = workload::generate_keys(u64{1} << 13, wc);
  sim::Device dev;
  dev.enable_chaos(sim::ChaosPolicy{});
  split::ServingExecutor exec(dev);
  const auto t = exec.submit(keys, m, split::RangeBucket{m});
  dev.chaos()->arm_launch_abort();
  exec.drain();
  const split::ServeResult& r = exec.get(t);
  ASSERT_FALSE(r.failed) << r.error;
  EXPECT_FALSE(r.packed);
  EXPECT_EQ(r.pack_class, PackClass::kNone);
  EXPECT_EQ(r.keys_out, run_sequential(keys, m).keys_out);
  EXPECT_EQ(dev.resilience_stats().injected_launch_aborts, 1u);
  EXPECT_EQ(dev.resilience_stats().recovered, 1u);
}

// get() hands out references that stay valid for the executor's
// lifetime: thousands of later submits (and the flushes they trigger)
// never move a stored result.
TEST(BatchServing, ResultReferenceSurvivesLaterSubmits) {
  sim::Device dev;
  split::ServingExecutor exec(dev);
  const auto t = exec.submit({3, 1, 2, 0, 5}, 2, split::RangeBucket{2});
  const split::ServeResult* first = &exec.get(t);
  for (u32 i = 0; i < 5000; ++i) {
    exec.submit({i, i + 1, i + 2}, 2, split::RangeBucket{2});
  }
  exec.drain();
  EXPECT_EQ(&exec.get(t), first);
  EXPECT_FALSE(first->failed) << first->error;
}

// A caller error (bucket function out of range) fails permanently --
// no retry rounds burned -- without touching its batch neighbours.
TEST(BatchServing, CallerErrorFailsWithoutPoisoningBatch) {
  Stream s = make_stream(8);
  sim::Device dev;
  split::ServingPolicy policy;
  policy.max_batch = 1000;
  policy.max_linger_ms = 1e9;
  split::ServingExecutor exec(dev, policy);
  std::vector<split::ServeTicket> tickets;
  for (u64 i = 0; i < s.keys.size(); ++i) {
    tickets.push_back(
        exec.submit(s.keys[i], s.ms[i], split::RangeBucket{s.ms[i]}));
  }
  // Bucket function maps everything to m (one past the last bucket).
  const u32 bad_m = 4;
  const auto bad = exec.submit({1, 2, 3, 4, 5}, bad_m,
                               [](u32) { return bad_m; });
  exec.drain();
  const split::ServeResult& rb = exec.get(bad);
  EXPECT_TRUE(rb.failed);
  EXPECT_EQ(rb.retry_rounds, 0u);  // deterministic error: no retry can cure
  EXPECT_NE(rb.error.find("outside [0, m)"), std::string::npos) << rb.error;
  for (u64 i = 0; i < tickets.size(); ++i) {
    const split::ServeResult& r = exec.get(tickets[i]);
    EXPECT_FALSE(r.failed) << "victim request " << i << ": " << r.error;
    const SeqRef ref = run_sequential(s.keys[i], s.ms[i]);
    EXPECT_EQ(r.keys_out, ref.keys_out) << "request " << i;
  }
  EXPECT_EQ(dev.batch_stats().problems_retried, 0u);
}

// Satellite (f): BatchStats flows into the schema-v8 metrics report and
// its "batching" JSON block.
TEST(BatchServing, MetricsReportCarriesBatchingBlock) {
  EXPECT_EQ(sim::kReportSchemaVersion, 8u);
  const Stream s = make_stream(20);
  sim::Device dev;
  const auto results = serve_all(dev, s, 20);
  for (const auto& r : results) ASSERT_FALSE(r.failed);

  const sim::MetricsReport rep = sim::analyze_device(dev);
  const sim::BatchStats& bs = dev.batch_stats();
  EXPECT_EQ(rep.batching.batches, bs.batches);
  EXPECT_EQ(rep.batching.packed_problems, bs.packed_problems);
  EXPECT_EQ(rep.batching.fused_launches, bs.fused_launches);
  EXPECT_EQ(rep.batching.slots_filled, bs.slots_filled);
  EXPECT_GE(bs.fill_ratio(), 0.0);
  EXPECT_LE(bs.fill_ratio(), 1.0);

  std::ostringstream os;
  sim::JsonWriter w(os);
  w.begin_object();
  sim::write_metrics_json(w, rep);
  w.end_object();
  const std::string json = os.str();
  EXPECT_NE(json.find("\"batching\""), std::string::npos);
  EXPECT_NE(json.find("\"fused_launches\""), std::string::npos);
  EXPECT_NE(json.find("\"fill_ratio\""), std::string::npos);
}

}  // namespace
}  // namespace ms::test
