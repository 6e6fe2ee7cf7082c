/// \file jacobi_workloads.cpp
/// table8_fullcard and table8_4card: the paper's Table VIII Jacobi grid
/// (9216 x 1024 BF16, 8 sweeps) on one full e150 (12 x 9 cores, row-chunk,
/// striped buffers, read-ahead 2) and sharded over four cards with a halo
/// exchange every 4 sweeps.

#include <cmath>
#include <cstdio>
#include <memory>

#include "workloads.hpp"
#include "ttsim/common/rng.hpp"
#include "ttsim/core/ir_frontend.hpp"
#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/sharded.hpp"
#include "ttsim/cpu/jacobi_cpu.hpp"
#include "ttsim/energy/energy.hpp"
#include "ttsim/ir/check.hpp"

namespace perfbench {
namespace {

using namespace ttsim;

constexpr double kPaperOneCardGpts = 22.06;   // Table VIII, e150, 108 cores
constexpr double kPaperFourCardGpts = 86.75;  // Table VIII, e150 x 4
constexpr int kCards = 4;
constexpr int kExchangeEvery = 4;

/// Check the kept solution after the timed window and settle every
/// operation; returns the rate of the CPU reference (the plain
/// single-thread baseline). `run_ok` carries the run-level checks (a traced
/// run reproduced the untraced one exactly, the IR certificate held).
double settle_jacobi(const core::JacobiProblem& p, const Ledger& ledger, Report& rep,
                     bool run_ok) {
  std::vector<bfloat16_t> ref;
  const double ref_s = timed([&] { ref = cpu::jacobi_reference_bf16(p); });
  ledger.settle(rep, {run_ok && same_bits(ledger.first(0), ref) &&
                                jacobi_in_bounds(p, ledger.first(0))});
  rep.digest(ledger.hash());
  return static_cast<double>(p.total_updates()) / 1e9 / ref_s;
}

/// The model's error against the paper's Table VIII kernel rate. There is
/// no paper figure for the other workloads, so it goes to the log only.
void log_paper_error(double kernel_gpts, double paper_gpts) {
  std::fprintf(stderr, "  model.paper_ln_err %.6g (%.4g GPt/s against the paper's %.4g)\n",
               std::abs(std::log(kernel_gpts / paper_gpts)), kernel_gpts, paper_gpts);
}

}  // namespace

core::JacobiProblem table8_problem(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x7AB1E8);
  core::JacobiProblem p;
  p.width = 9216;
  p.height = 1024;
  p.iterations = 8;
  p.bc_left = static_cast<float>(rng.next_double(0.5, 1.0));
  p.bc_right = static_cast<float>(rng.next_double(0.0, 0.5));
  p.bc_top = static_cast<float>(rng.next_double(0.0, 1.0));
  p.bc_bottom = static_cast<float>(rng.next_double(0.0, 1.0));
  p.initial = static_cast<float>(rng.next_double(0.0, 1.0));
  return p;
}

core::DeviceRunConfig table8_config() {
  core::DeviceRunConfig c;
  c.strategy = core::DeviceStrategy::kRowChunk;
  c.cores_y = 12;
  c.cores_x = 9;
  c.buffer_layout = ttmetal::BufferLayout::kStriped;
  c.read_ahead = 2;
  return c;
}

void table8_fullcard(const Options& opt, Report& rep) {
  const core::JacobiProblem p = table8_problem(opt.seed);
  const core::DeviceRunConfig cfg = table8_config();
  const sim::GrayskullSpec spec;
  const energy::CardEnergyModel card(spec);
  const int cores = cfg.cores_x * cfg.cores_y;
  ttmetal::DeviceConfig traced_cfg;
  traced_cfg.enable_trace = true;

  HostSamples h;
  Ledger ledger;
  SimOp op;
  Layers layers;
  bool neutral = true, certified = true;

  run_rounds(opt.seconds, [&](int) {
    std::unique_ptr<ttmetal::Device> dev;
    h.setup_s.push_back(timed([&] { dev = ttmetal::Device::open(spec); }));
    const auto ev0 = dev->hw().engine().events_processed();
    core::DeviceRunResult r;
    h.solve_s.push_back(timed([&] { r = core::run_jacobi_on_device(*dev, p, cfg); }));
    h.events.push_back(
        static_cast<double>(dev->hw().engine().events_processed() - ev0));
    ledger.record(0, r.solution);
    op = {static_cast<double>(p.total_updates()), r.kernel_time, r.total_time,
          card.joules(r.total_time, cores)};
    layers.pcie_ms = ms(dev->pcie_time());
    if (!opt.trace) return;

    h.certify_ms.push_back(1e3 * timed([&] {
      certified = certified && ir::check(core::jacobi_ir_graph(p, cfg)).empty();
    }));
    auto tdev = ttmetal::Device::open(spec, traced_cfg);
    core::DeviceRunResult tr;
    h.traced_s.push_back(timed([&] { tr = core::run_jacobi_on_device(*tdev, p, cfg); }));
    ledger.record(0, tr.solution);
    // Tracing must be observationally neutral.
    neutral = neutral && tr.kernel_time == r.kernel_time && tr.total_time == r.total_time;
    layers.device = DeviceLayers::from(tdev->metrics());
    layers.launches = count_launches(*tdev);
  });
  rep.digest(static_cast<std::uint64_t>(op.kernel));
  rep.digest(static_cast<std::uint64_t>(op.total));

  log_samples("solve host s", h.solve_s);
  if (!opt.trace) {
    const double setup = setup_median(h.setup_s, 51, [&] { return ttmetal::Device::open(spec); });
    add_solver_end_to_end(rep, {op}, median(h.solve_s), setup);
  }
  log_paper_error(op.updates / 1e9 / to_seconds(op.kernel), kPaperOneCardGpts);
  layers.cpu_ref_gpts = settle_jacobi(p, ledger, rep, neutral && certified);
  if (opt.trace) {
    add_host_samples(layers, h);
    layers.kernel_ms = ms(op.kernel);
    rep.add_layers(layers);
  }
}

void table8_4card(const Options& opt, Report& rep) {
  const core::JacobiProblem p = table8_problem(opt.seed);
  core::ShardedRunConfig scfg;
  scfg.run = table8_config();
  scfg.exchange_every = kExchangeEvery;
  const sim::GrayskullSpec spec;
  const energy::CardEnergyModel card(spec);
  const int cores = scfg.run.cores_x * scfg.run.cores_y;
  ttmetal::DeviceConfig traced_cfg;
  traced_cfg.enable_trace = true;
  // The IR certificate of the largest per-card program: an inner card's
  // slab carries k-1 extension rows on both cut sides.
  core::JacobiProblem slab = p;
  slab.height = p.height / kCards + 2 * (kExchangeEvery - 1);

  HostSamples h;
  Ledger ledger;
  SimOp op;
  core::ShardedRunResult shard;
  Layers layers;
  bool neutral = true, certified = true;

  auto engine_events = [](const core::ShardedCluster& c) {
    std::uint64_t n = 0;
    for (auto* d : c.devices()) n += d->hw().engine().events_processed();
    return n;
  };

  run_rounds(opt.seconds, [&](int) {
    core::ShardedCluster cl;
    h.setup_s.push_back(timed([&] { cl = core::ShardedCluster::open(kCards, spec); }));
    const auto devs = cl.devices();
    const auto ev0 = engine_events(cl);
    core::ShardedRunResult r;
    h.solve_s.push_back(timed([&] { r = core::run_jacobi_sharded(devs, *cl.fabric, p, scfg); }));
    h.events.push_back(static_cast<double>(engine_events(cl) - ev0));
    ledger.record(0, r.solution);
    r.solution = {};  // the ledger holds what the checks need
    op = {static_cast<double>(p.total_updates()), r.kernel_time + r.exchange_time,
          r.total_time, card.joules_multicard(r.total_time, cores, kCards)};
    layers.pcie_ms = 0;
    for (auto* d : devs) layers.pcie_ms += ms(d->pcie_time());
    shard = r;
    if (!opt.trace) return;

    h.certify_ms.push_back(1e3 * timed([&] {
      certified = certified && ir::check(core::jacobi_ir_graph(slab, scfg.run)).empty();
    }));
    auto tcl = core::ShardedCluster::open(kCards, spec, traced_cfg);
    const auto tdevs = tcl.devices();
    core::ShardedRunResult tr;
    h.traced_s.push_back(
        timed([&] { tr = core::run_jacobi_sharded(tdevs, *tcl.fabric, p, scfg); }));
    ledger.record(0, tr.solution);
    neutral = neutral && tr.kernel_time == r.kernel_time &&
              tr.exchange_time == r.exchange_time && tr.total_time == r.total_time;
    layers.device = {};
    layers.launches = 0;
    for (auto* d : tdevs) {
      layers.device.merge(DeviceLayers::from(d->metrics()));
      layers.launches += count_launches(*d);
    }
  });
  rep.digest(static_cast<std::uint64_t>(op.kernel));
  rep.digest(static_cast<std::uint64_t>(op.total));

  log_samples("solve host s", h.solve_s);
  if (!opt.trace) {
    const double setup = setup_median(h.setup_s, 51,
                                      [&] { return core::ShardedCluster::open(kCards, spec); });
    add_solver_end_to_end(rep, {op}, median(h.solve_s), setup);
  }
  log_paper_error(op.updates / 1e9 / to_seconds(op.kernel), kPaperFourCardGpts);
  layers.cpu_ref_gpts = settle_jacobi(p, ledger, rep, neutral && certified);
  if (opt.trace) {
    add_host_samples(layers, h);
    layers.kernel_ms = ms(shard.kernel_time);
    layers.link_bytes = static_cast<double>(shard.link_bytes);
    layers.link_messages = static_cast<double>(shard.link_messages);
    layers.exchange_ms = ms(shard.exchange_time);
    layers.epochs = shard.epochs;
    rep.add_layers(layers);
  }
}

}  // namespace perfbench
