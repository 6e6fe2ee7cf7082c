/// \file test_resilience.cpp
/// End-to-end resilience tests: solves that survive injected faults
/// (mid-solve core failures, transient PCIe corruption), the determinism of
/// the fault trace (same seed => byte-identical), and the failure paths when
/// recovery is disabled or exhausted.

#include <gtest/gtest.h>

#include <utility>

#include "ttsim/core/resilience.hpp"
#include "ttsim/sim/fault.hpp"

namespace ttsim::core {
namespace {

JacobiProblem small_problem(std::uint32_t w, std::uint32_t h, int iters) {
  JacobiProblem p;
  p.width = w;
  p.height = h;
  p.iterations = iters;
  return p;
}

/// The acceptance scenario: a Table-VIII-shaped solve (contiguous X strips,
/// striped banks, multi-core) hit by a whole-core failure mid-solve plus
/// transient PCIe corruption. The solve must complete, verify bit-exactly
/// against the CPU reference, report its retries/restarts, and produce a
/// byte-identical fault trace when re-run with the same seed.
TEST(Resilience, SolveSurvivesCoreFailureAndPcieCorruption) {
  const auto p = small_problem(1024, 96, 12);
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kRowChunk;
  cfg.cores_y = 4;
  cfg.cores_x = 1;
  cfg.buffer_layout = ttmetal::BufferLayout::kStriped;
  cfg.verify = true;
  ResilienceOptions opts;
  opts.checkpoint_every = 4;
  // A 4-worker card: losing a core then forces a genuine shrink of the
  // decomposition (on the full 108-worker e150 the remap would simply pick a
  // spare worker instead).
  sim::GrayskullSpec spec;
  spec.worker_cores = 4;

  // Calibrate the kill time off a fault-free run so it lands mid-solve.
  const auto clean = run_jacobi_resilient(p, cfg, opts, nullptr, spec);
  ASSERT_TRUE(clean.verified_ok);
  EXPECT_EQ(clean.restarts, 0);
  EXPECT_EQ(clean.transfer_retries, 0);
  EXPECT_EQ(clean.cores_used, 4);
  EXPECT_TRUE(clean.fault_summary.empty());

  sim::FaultConfig fc;
  fc.seed = 7;
  fc.pcie_corrupt_prob = 0.25;
  fc.core_kills = {{.core = 2, .at = clean.total_time / 2}};

  const auto run = [&] {
    return run_jacobi_resilient(p, cfg, opts,
                                std::make_shared<sim::FaultPlan>(fc), spec);
  };
  const auto a = run();
  EXPECT_TRUE(a.verified_ok);             // recovered solve is still bit-exact
  EXPECT_GE(a.restarts, 1);               // the core kill cost a generation
  EXPECT_GE(a.transfer_retries, 1);       // corruption was caught and retried
  EXPECT_EQ(a.cores_used, 3);             // remapped around the dead core
  EXPECT_GT(a.iterations_replayed, 0);
  EXPECT_GT(a.total_time, clean.total_time);
  EXPECT_FALSE(a.fault_summary.empty());
  EXPECT_NE(a.fault_summary.find("core-failure"), std::string::npos);
  EXPECT_NE(a.fault_summary.find("pcie-corrupt"), std::string::npos);

  // Same seed, same workload: the whole faulted run reproduces exactly.
  const auto b = run();
  EXPECT_EQ(a.fault_summary, b.fault_summary);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.transfer_retries, b.transfer_retries);
  EXPECT_EQ(a.solution, b.solution);
}

/// Timing-only faults (mover stalls, NoC delays) perturb the schedule but
/// not the arithmetic: the solve still verifies, and two runs with the same
/// seed log byte-identical traces.
TEST(Resilience, SameSeedGivesByteIdenticalFaultTrace) {
  const auto p = small_problem(256, 48, 6);
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kRowChunk;
  cfg.cores_y = 2;
  cfg.verify = true;

  sim::FaultConfig fc;
  fc.seed = 11;
  fc.mover_stall_prob = 0.05;
  fc.noc_delay_prob = 0.05;

  std::string traces[2];
  for (auto& trace : traces) {
    ttmetal::DeviceConfig dc;
    dc.fault_plan = std::make_shared<sim::FaultPlan>(fc);
    auto dev = ttmetal::Device::open({}, dc);
    const auto r = run_jacobi_on_device(*dev, p, cfg);
    EXPECT_TRUE(r.verified_ok);
    trace = dev->fault_plan()->trace_string();
  }
  EXPECT_FALSE(traces[0].empty());
  EXPECT_EQ(traces[0], traces[1]);
}

/// A core failure during the SRAM-resident solve (paper Section VIII
/// proposal): the halo-exchange ring is rebuilt over the surviving cores by
/// the logical->physical remap, and the recovered solve stays bit-exact.
TEST(Resilience, SramResidentSolveSurvivesCoreFailure) {
  const auto p = small_problem(64, 64, 8);
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kSramResident;
  cfg.cores_y = 4;
  cfg.verify = true;
  ResilienceOptions opts;
  opts.checkpoint_every = 4;
  sim::GrayskullSpec spec;
  spec.worker_cores = 4;  // no spare workers: the ring must shrink

  const auto clean = run_jacobi_resilient(p, cfg, opts, nullptr, spec);
  ASSERT_TRUE(clean.verified_ok);

  sim::FaultConfig fc;
  fc.seed = 3;
  // Kill a *middle* core mid-solve: both neighbours lose their halo partner,
  // and the rebuilt ring {0, 1, 3} is non-contiguous in physical ids.
  fc.core_kills = {{.core = 2, .at = clean.total_time / 2}};
  const auto r = run_jacobi_resilient(p, cfg, opts,
                                      std::make_shared<sim::FaultPlan>(fc), spec);
  EXPECT_TRUE(r.verified_ok);
  EXPECT_GE(r.restarts, 1);
  EXPECT_EQ(r.cores_used, 3);
  EXPECT_NE(r.fault_summary.find("core-failure"), std::string::npos);
  EXPECT_NE(r.fault_summary.find(" core=2"), std::string::npos);
}

/// A temporal chunk reads the d2 slot of its grid pair first whenever its
/// sweep count and its DRAM-pass count differ in parity (4 sweeps at depth
/// 4 is one pass). Each chunk must still start from the freshest grid, so
/// the chunked solve matches the reference for every checkpoint/depth mix,
/// and a core failure replays bit-exactly from the checkpoint.
TEST(Resilience, TemporalSolveResumesEveryChunkFromTheFreshGrid) {
  const auto p = small_problem(64, 64, 12);
  DeviceRunConfig cfg;
  cfg.strategy = DeviceStrategy::kTemporal;
  cfg.cores_y = 4;
  cfg.verify = true;
  sim::GrayskullSpec spec;
  spec.worker_cores = 4;
  const std::pair<int, int> mixes[] = {{4, 4}, {4, 3}, {3, 2}, {5, 4}, {1, 4}};
  for (const auto& [every, depth] : mixes) {
    SCOPED_TRACE(testing::Message() << "checkpoint_every=" << every
                                    << " temporal_depth=" << depth);
    cfg.temporal_depth = depth;
    ResilienceOptions opts;
    opts.checkpoint_every = every;
    const auto r = run_jacobi_resilient(p, cfg, opts, nullptr, spec);
    EXPECT_TRUE(r.verified_ok);
    EXPECT_EQ(r.restarts, 0);
  }

  cfg.temporal_depth = 4;
  ResilienceOptions opts;
  opts.checkpoint_every = 4;
  const auto clean = run_jacobi_resilient(p, cfg, opts, nullptr, spec);
  ASSERT_TRUE(clean.verified_ok);
  sim::FaultConfig fc;
  fc.seed = 5;
  fc.core_kills = {{.core = 1, .at = clean.total_time / 2}};
  const auto r = run_jacobi_resilient(p, cfg, opts,
                                      std::make_shared<sim::FaultPlan>(fc), spec);
  EXPECT_TRUE(r.verified_ok);
  EXPECT_GE(r.restarts, 1);
  EXPECT_EQ(r.cores_used, 3);
  EXPECT_EQ(r.solution, clean.solution);
}

/// Unrecoverable corruption (every transfer corrupted) exhausts the bounded
/// retries; the TransferError carries the original injected fault so the
/// post-mortem sees the root cause, and the retry budget is honoured.
TEST(Resilience, RetryExhaustionSurfacesOriginalFault) {
  sim::FaultConfig fc;
  fc.seed = 5;
  fc.pcie_corrupt_prob = 1.0;
  ttmetal::DeviceConfig dc;
  dc.checksum_transfers = true;
  dc.transfer_max_retries = 2;
  dc.fault_plan = std::make_shared<sim::FaultPlan>(fc);
  auto dev = ttmetal::Device::open({}, dc);
  auto buf = dev->create_buffer({.size = 1024});
  std::vector<std::byte> data(1024, std::byte{0xAB});
  try {
    dev->write_buffer(*buf, data);
    FAIL() << "expected retry exhaustion";
  } catch (const ttmetal::TransferError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("after 2 retries"), std::string::npos);
    EXPECT_NE(what.find("pcie-corrupt"), std::string::npos);
  }
  EXPECT_EQ(dev->transfer_retries(), 2u);

  // The same exhaustion propagates out of the resilient driver: persistent
  // bus corruption is not survivable by checkpointing.
  const auto p = small_problem(64, 32, 2);
  EXPECT_THROW(run_jacobi_resilient(p, {}, {},
                                    std::make_shared<sim::FaultPlan>(fc)),
               ttmetal::TransferError);
}

/// With recovery disabled (max_restarts = 0) the watchdog timeout from the
/// first lost generation surfaces unchanged.
TEST(Resilience, RestartBudgetExhaustionRethrowsTimeout) {
  const auto p = small_problem(64, 32, 4);
  DeviceRunConfig cfg;
  cfg.cores_y = 2;
  ResilienceOptions opts;
  opts.max_restarts = 0;

  sim::FaultConfig fc;
  fc.core_kills = {{.core = 0, .at = 1}};  // dead from the first charge
  EXPECT_THROW(run_jacobi_resilient(p, cfg, opts,
                                    std::make_shared<sim::FaultPlan>(fc)),
               ttmetal::DeviceTimeoutError);
}

TEST(Resilience, HealCoreRestoresFlappedCoreButKeepsFutureKills) {
  // A flapping card scripted deterministically: core 3 dies at 1ms, field
  // service heals it at 5ms, and a second kill is scheduled for 9ms. The
  // heal must clear only the elapsed kill.
  sim::FaultConfig fc;
  fc.core_kills.push_back({3, 1 * kMillisecond});
  fc.core_kills.push_back({3, 9 * kMillisecond});
  sim::FaultPlan plan(fc);

  EXPECT_FALSE(plan.core_dead(3, 0));
  EXPECT_TRUE(plan.core_dead(3, 2 * kMillisecond));
  plan.commit_elapsed_kills(2 * kMillisecond);  // observed, as a reopen would

  EXPECT_EQ(plan.heal_dead_cores(5 * kMillisecond), 1);
  EXPECT_FALSE(plan.core_dead(3, 5 * kMillisecond));
  // The 9ms kill survives the heal: the card flaps again.
  EXPECT_TRUE(plan.core_dead(3, 9 * kMillisecond));
  // Healing a live core is a no-op (no event logged, nothing changes).
  const std::size_t events = plan.trace().size();
  plan.heal_core(5 * kMillisecond, 3);
  EXPECT_EQ(plan.trace().size(), events);
  // The heal itself is part of the deterministic fault trace.
  EXPECT_NE(plan.trace_string().find("core-heal"), std::string::npos);
}

}  // namespace
}  // namespace ttsim::core
