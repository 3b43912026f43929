// The trace-replay fast path (sim/tape.hpp + MultisplitPlan::run_traced):
// reused plans record the cost-uniform stages' accounting on run 1, prove
// the recording input-independent on run 2 (the verify handshake), and
// replay it from run 3 on.  These tests pin the two contracts that make
// that safe:
//
//   1. bit-identity -- a replayed run's results and modeled costs equal
//      the same run executed live (twin-device comparison);
//   2. conservative fallback -- anything that could perturb accounting
//      (sanitizer, chaos, the resilient executor, different buffers,
//      MS_REPLAY=off) keeps or drops to the live path, never a stale tape.
//
// The discovered cases run with replay on (the default); the ctest gate
// plan_replay_off_suite reruns this file with MS_REPLAY=off, and the
// env-sensitive assertions adapt.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "multisplit_test_util.hpp"

namespace ms::test {
namespace {

using split::Method;
using split::MultisplitConfig;
using split::MultisplitPlan;
using split::RangeBucket;

std::vector<u32> make_keys(u64 n, u32 m, u64 seed) {
  workload::WorkloadConfig wc;
  wc.m = m;
  wc.seed = seed;
  return workload::generate_keys(n, wc);
}

bool replay_env_on() {
  const char* env = std::getenv("MS_REPLAY");
  if (env == nullptr || *env == '\0') return true;
  return std::strcmp(env, "off") != 0 && std::strcmp(env, "0") != 0;
}

/// Whether a plan on `dev` is expected to tape at all.  Mirrors the
/// plan's eligibility rule (MS_REPLAY on, sanitizer and chaos unarmed):
/// the plan_reuse_sanitized ctest gate reruns this whole suite with
/// MS_SANITIZE=all, where every engagement assertion flips to
/// "stays live" -- which is itself the conservative-bail contract.
bool replay_expected(const sim::Device& dev) {
  return replay_env_on() && !dev.sanitizer().any() && dev.chaos() == nullptr;
}

/// A device whose plans can never tape: the sanitizer is armed in
/// observe-only mode (memcheck, no fail-fast), which makes replay
/// ineligible while leaving results and modeled costs untouched -- the
/// sanitizer is a checker, not a cost source.
sim::SanitizerConfig observe_only_sanitizer() {
  sim::SanitizerConfig cfg;
  cfg.memcheck = true;
  cfg.fail_fast = false;
  return cfg;
}

// ------------------------------------------------------------ bit-identity

// One plan run N times with replay against a twin device running the same
// sequence live: every run -- recording, verify, and the replayed tail --
// must match the live sequence in results AND modeled costs, bit for bit.
TEST(PlanReplay, ReplayedRunsMatchLiveTwinBitExactly) {
  const u64 n = 1u << 12;
  const u32 m = 16;
  for (const Method method : {Method::kWarpLevel, Method::kBlockLevel}) {
    MultisplitConfig cfg;
    cfg.method = method;

    sim::Device dev_r;  // replay engages here (runs 3+)
    const MultisplitPlan plan_r(dev_r, n, m, cfg);
    sim::DeviceBuffer<u32> in_r(dev_r, n), out_r(dev_r, n);

    sim::Device dev_l;  // live twin: sanitizer armed => never tapes
    dev_l.sanitizer().configure(observe_only_sanitizer());
    const MultisplitPlan plan_l(dev_l, n, m, cfg);
    sim::DeviceBuffer<u32> in_l(dev_l, n), out_l(dev_l, n);

    EXPECT_STREQ(plan_r.replay_phase(), "idle");
    EXPECT_STREQ(plan_l.replay_phase(), "idle");
    for (u32 round = 0; round < 5; ++round) {
      const auto host = make_keys(n, m, 7000 + round);
      std::copy(host.begin(), host.end(), in_r.host().begin());
      std::copy(host.begin(), host.end(), in_l.host().begin());
      const auto rr = plan_r.run(in_r, out_r, RangeBucket{m});
      const auto rl = plan_l.run(in_l, out_l, RangeBucket{m});

      EXPECT_EQ(rr.bucket_offsets, rl.bucket_offsets)
          << to_string(method) << " round " << round;
      EXPECT_EQ(buffer_to_vector(out_r), buffer_to_vector(out_l))
          << to_string(method) << " round " << round;
      EXPECT_EQ(rr.stages.prescan_ms, rl.stages.prescan_ms)
          << to_string(method) << " round " << round;
      EXPECT_EQ(rr.stages.scan_ms, rl.stages.scan_ms)
          << to_string(method) << " round " << round;
      EXPECT_EQ(rr.stages.postscan_ms, rl.stages.postscan_ms)
          << to_string(method) << " round " << round;
      EXPECT_EQ(rr.total_ms(), rl.total_ms())
          << to_string(method) << " round " << round;
      expect_valid_multisplit(host, buffer_to_vector(out_r), rr.bucket_offsets,
                              m, RangeBucket{m}, true);
    }
    if (replay_expected(dev_r)) {
      EXPECT_TRUE(plan_r.replay_active()) << to_string(method);
    } else {
      EXPECT_STREQ(plan_r.replay_phase(), "idle") << to_string(method);
    }
    EXPECT_STREQ(plan_l.replay_phase(), "idle") << to_string(method);
  }
}

TEST(PlanReplay, PhaseProgressesIdleRecordedReady) {
  const u64 n = 1u << 12;
  sim::Device dev;
  if (!replay_expected(dev)) {
    GTEST_SKIP() << "environment pins the live path (MS_REPLAY=off or an "
                    "ambient sanitizer/chaos config)";
  }
  const MultisplitPlan plan(dev, n, 8);
  sim::DeviceBuffer<u32> in(dev, n), out(dev, n);
  const auto host = make_keys(n, 8, 1);
  std::copy(host.begin(), host.end(), in.host().begin());

  EXPECT_STREQ(plan.replay_phase(), "idle");
  plan.run(in, out, RangeBucket{8});
  EXPECT_STREQ(plan.replay_phase(), "recorded");
  plan.run(in, out, RangeBucket{8});
  EXPECT_STREQ(plan.replay_phase(), "ready");
  plan.run(in, out, RangeBucket{8});
  EXPECT_STREQ(plan.replay_phase(), "ready");
  EXPECT_TRUE(plan.replay_active());
}

// Key-value runs tape the same way as key-only runs.
TEST(PlanReplay, PairsReplayMatchesLiveTwin) {
  const u64 n = 1u << 11;
  const u32 m = 8;
  MultisplitConfig cfg;
  cfg.method = Method::kBlockLevel;
  const auto vals = workload::identity_values(n);

  sim::Device dev_r;
  const MultisplitPlan plan_r(dev_r, n, m, cfg, sizeof(u32));
  sim::DeviceBuffer<u32> ki_r(dev_r, n), vi_r(dev_r, n);
  sim::DeviceBuffer<u32> ko_r(dev_r, n), vo_r(dev_r, n);

  sim::Device dev_l;
  dev_l.sanitizer().configure(observe_only_sanitizer());
  const MultisplitPlan plan_l(dev_l, n, m, cfg, sizeof(u32));
  sim::DeviceBuffer<u32> ki_l(dev_l, n), vi_l(dev_l, n);
  sim::DeviceBuffer<u32> ko_l(dev_l, n), vo_l(dev_l, n);

  for (u32 round = 0; round < 4; ++round) {
    const auto host = make_keys(n, m, 4400 + round);
    std::copy(host.begin(), host.end(), ki_r.host().begin());
    std::copy(host.begin(), host.end(), ki_l.host().begin());
    std::copy(vals.begin(), vals.end(), vi_r.host().begin());
    std::copy(vals.begin(), vals.end(), vi_l.host().begin());
    const auto rr = plan_r.run_pairs(ki_r, vi_r, ko_r, vo_r, RangeBucket{m});
    const auto rl = plan_l.run_pairs(ki_l, vi_l, ko_l, vo_l, RangeBucket{m});
    EXPECT_EQ(rr.bucket_offsets, rl.bucket_offsets) << round;
    EXPECT_EQ(buffer_to_vector(ko_r), buffer_to_vector(ko_l)) << round;
    EXPECT_EQ(buffer_to_vector(vo_r), buffer_to_vector(vo_l)) << round;
    EXPECT_EQ(rr.total_ms(), rl.total_ms()) << round;
  }
  if (replay_expected(dev_r)) EXPECT_TRUE(plan_r.replay_active());
}

// The parallel scheduler must stay invisible: the whole record/verify/
// replay sequence on 4 worker threads reproduces the serial sequence's
// modeled costs bit for bit (replayed launches run serial by design; the
// recording itself must survive parallel shard capture).
TEST(PlanReplay, FourThreadSequenceMatchesSerial) {
  const u64 n = 1u << 12;
  const u32 m = 16;
  auto sequence = [&](u32 threads) {
    sim::Device dev;
    dev.set_host_threads(threads);
    const MultisplitPlan plan(dev, n, m);
    sim::DeviceBuffer<u32> in(dev, n), out(dev, n);
    std::vector<f64> times;
    for (u32 round = 0; round < 5; ++round) {
      const auto host = make_keys(n, m, 90 + round);
      std::copy(host.begin(), host.end(), in.host().begin());
      times.push_back(plan.run(in, out, RangeBucket{m}).total_ms());
    }
    return times;
  };
  EXPECT_EQ(sequence(1), sequence(4));
}

// ------------------------------------------------------ conservative bail

// Armed sanitizer: never tapes (reports could perturb accounting).
TEST(PlanReplay, SanitizerKeepsLivePath) {
  const u64 n = 1u << 10;
  sim::Device dev;
  dev.sanitizer().configure(observe_only_sanitizer());
  const MultisplitPlan plan(dev, n, 8);
  sim::DeviceBuffer<u32> in(dev, n), out(dev, n);
  const auto host = make_keys(n, 8, 3);
  for (u32 round = 0; round < 3; ++round) {
    std::copy(host.begin(), host.end(), in.host().begin());
    plan.run(in, out, RangeBucket{8});
    EXPECT_STREQ(plan.replay_phase(), "idle");
  }
}

// Chaos armed (even with all probabilities zero): never tapes.
TEST(PlanReplay, ChaosKeepsLivePath) {
  const u64 n = 1u << 10;
  sim::Device dev;
  dev.enable_chaos(sim::ChaosPolicy{});
  const MultisplitPlan plan(dev, n, 8);
  sim::DeviceBuffer<u32> in(dev, n), out(dev, n);
  const auto host = make_keys(n, 8, 5);
  for (u32 round = 0; round < 3; ++round) {
    std::copy(host.begin(), host.end(), in.host().begin());
    plan.run(in, out, RangeBucket{8});
    EXPECT_STREQ(plan.replay_phase(), "idle");
  }
}

// The resilient entry points route around the tape entirely (retry loops
// re-launch kernels; taping them would record the retries too).
TEST(PlanReplay, ResilientRunsNeverTape) {
  const u64 n = 1u << 10;
  sim::Device dev;
  const MultisplitPlan plan(dev, n, 8);
  sim::DeviceBuffer<u32> in(dev, n), out(dev, n);
  const auto host = make_keys(n, 8, 11);
  const split::RetryPolicy rp;
  for (u32 round = 0; round < 3; ++round) {
    std::copy(host.begin(), host.end(), in.host().begin());
    plan.run(in, out, RangeBucket{8}, rp);
    EXPECT_STREQ(plan.replay_phase(), "idle");
  }
}

// Runs on buffers other than the recorded set execute live (the recorded
// sector streams are absolute addresses), but the recording survives:
// returning to the original buffers replays again, bit-identically.
TEST(PlanReplay, DifferentBuffersFallThroughLiveAndKeepTheTape) {
  const u64 n = 1u << 12;
  const u32 m = 16;

  sim::Device dev_r;
  if (!replay_expected(dev_r)) {
    GTEST_SKIP() << "environment pins the live path (MS_REPLAY=off or an "
                    "ambient sanitizer/chaos config)";
  }
  const MultisplitPlan plan_r(dev_r, n, m);
  sim::DeviceBuffer<u32> a_in(dev_r, n), a_out(dev_r, n);
  sim::DeviceBuffer<u32> b_in(dev_r, n), b_out(dev_r, n);

  sim::Device dev_l;
  dev_l.sanitizer().configure(observe_only_sanitizer());
  const MultisplitPlan plan_l(dev_l, n, m);
  sim::DeviceBuffer<u32> la_in(dev_l, n), la_out(dev_l, n);
  sim::DeviceBuffer<u32> lb_in(dev_l, n), lb_out(dev_l, n);

  // The twin mirrors the exact buffer sequence so device state (L2,
  // allocator) evolves identically on both sides.
  auto run_both = [&](u32 round, bool set_b) {
    const auto host = make_keys(n, m, 60000 + round);
    auto& ri = set_b ? b_in : a_in;
    auto& ro = set_b ? b_out : a_out;
    auto& li = set_b ? lb_in : la_in;
    auto& lo = set_b ? lb_out : la_out;
    std::copy(host.begin(), host.end(), ri.host().begin());
    std::copy(host.begin(), host.end(), li.host().begin());
    const auto rr = plan_r.run(ri, ro, RangeBucket{m});
    const auto rl = plan_l.run(li, lo, RangeBucket{m});
    EXPECT_EQ(rr.total_ms(), rl.total_ms()) << "round " << round;
    EXPECT_EQ(buffer_to_vector(ro), buffer_to_vector(lo)) << "round " << round;
    expect_valid_multisplit(host, buffer_to_vector(ro), rr.bucket_offsets, m,
                            RangeBucket{m}, true);
  };

  run_both(0, false);  // record on buffer set A
  run_both(1, false);  // verify on A
  ASSERT_TRUE(plan_r.replay_active());
  run_both(2, true);   // different buffers: live, tape kept
  EXPECT_TRUE(plan_r.replay_active());
  run_both(3, false);  // back on A: replays again
  run_both(4, true);   // and B stays live
  EXPECT_TRUE(plan_r.replay_active());
}

// A plan whose run faults during recording disables the fast path
// permanently instead of keeping a half-recorded tape.  The fault is a
// SimError -- the structured kind the launch helpers know how to unwind
// (an arbitrary foreign exception mid-kernel is not a supported recovery
// path for the device, tape or no tape).
TEST(PlanReplay, FaultDuringRecordingDisablesReplay) {
  const u64 n = 1u << 10;
  sim::Device dev;
  if (!replay_expected(dev)) {
    GTEST_SKIP() << "environment pins the live path (MS_REPLAY=off or an "
                    "ambient sanitizer/chaos config)";
  }
  const MultisplitPlan plan(dev, n, 8);
  sim::DeviceBuffer<u32> in(dev, n), out(dev, n);
  // Run 1 records... with a bucket function that faults mid-kernel.
  std::copy_n(make_keys(n, 8, 17).begin(), n, in.host().begin());
  u64 calls = 0;
  EXPECT_THROW(plan.run(in, out,
                        [&](u32 key) -> u32 {
                          if (++calls > n / 2) {
                            sim::FaultContext ctx;
                            ctx.kind = sim::FaultKind::kLaunchFailure;
                            ctx.detail = "injected mid-record fault";
                            throw sim::SimError(std::move(ctx));
                          }
                          return key % 8;
                        }),
               sim::SimError);
  EXPECT_STREQ(plan.replay_phase(), "disabled");
  // The plan still runs fine afterwards -- live.
  const auto host = make_keys(n, 8, 18);
  std::copy(host.begin(), host.end(), in.host().begin());
  const auto r = plan.run(in, out, RangeBucket{8});
  expect_valid_multisplit(host, buffer_to_vector(out), r.bucket_offsets, 8,
                          RangeBucket{8}, true);
  EXPECT_STREQ(plan.replay_phase(), "disabled");
}

// MS_REPLAY=off (the plan_replay_off_suite gate environment) must pin the
// live path for every plan in the process.
TEST(PlanReplay, EnvOffPinsLivePath) {
  if (replay_env_on()) GTEST_SKIP() << "only meaningful under MS_REPLAY=off";
  const u64 n = 1u << 10;
  sim::Device dev;
  const MultisplitPlan plan(dev, n, 8);
  sim::DeviceBuffer<u32> in(dev, n), out(dev, n);
  const auto host = make_keys(n, 8, 23);
  for (u32 round = 0; round < 3; ++round) {
    std::copy(host.begin(), host.end(), in.host().begin());
    plan.run(in, out, RangeBucket{8});
    EXPECT_STREQ(plan.replay_phase(), "idle");
  }
}

}  // namespace
}  // namespace ms::test
