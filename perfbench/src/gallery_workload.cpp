/// \file gallery_workload.cpp
/// gallery_mix: hotspot, fdtd2d, convection and life through the general
/// frontend on 1024-wide grids, 8 to 16 cores each. All four run row-chunk;
/// the single-pass programs (hotspot, convection, life) also run temporal
/// with k = 4. FPU taps, CB hops and SRAM chaining do the work here; DRAM
/// does little.

#include <memory>

#include "workloads.hpp"
#include "ttsim/common/rng.hpp"
#include "ttsim/core/gallery.hpp"
#include "ttsim/core/ir_frontend.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"
#include "ttsim/energy/energy.hpp"
#include "ttsim/ir/check.hpp"

namespace perfbench {
namespace {

using namespace ttsim;

constexpr std::uint32_t kWidth = 1024;
constexpr std::uint32_t kHeight = 256;
constexpr int kSweeps = 8;
constexpr int kTemporalDepth = 4;

core::DeviceRunConfig config(core::DeviceStrategy s, int cores_y) {
  core::DeviceRunConfig c;
  c.strategy = s;
  c.cores_x = 1;
  c.cores_y = cores_y;
  c.temporal_depth = s == core::DeviceStrategy::kTemporal ? kTemporalDepth : 1;
  return c;
}

/// Every field of a run, concatenated: the whole numerical state.
std::vector<float> all_fields(const core::GeneralRunResult& r) {
  std::vector<float> out;
  for (const auto& f : r.fields) out.insert(out.end(), f.begin(), f.end());
  return out;
}

bool fields_match(const std::vector<float>& got,
                  const std::vector<std::vector<bfloat16_t>>& ref) {
  std::vector<bfloat16_t> want;
  for (const auto& f : ref) want.insert(want.end(), f.begin(), f.end());
  return same_bits(got, want);
}

}  // namespace

void seed_fields(core::GeneralStencilProblem& p, Rng& rng) {
  for (auto& f : p.fields) {
    f.bc_left = static_cast<float>(rng.next_double());
    f.bc_right = static_cast<float>(rng.next_double());
    f.bc_top = static_cast<float>(rng.next_double());
    f.bc_bottom = static_cast<float>(rng.next_double());
    f.initial_field.resize(static_cast<std::size_t>(p.width) * p.height);
    for (float& v : f.initial_field) v = static_cast<float>(rng.next_double());
  }
}

std::vector<GalleryOp> gallery_ops(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x6A11E7);
  auto hotspot = core::gallery::hotspot(kWidth, kHeight, kSweeps);
  auto fdtd = core::gallery::fdtd2d(kWidth, kHeight, kSweeps);
  auto convection = core::gallery::convection(kWidth, kHeight, kSweeps);
  seed_fields(hotspot, rng);
  seed_fields(fdtd, rng);
  seed_fields(convection, rng);
  // Life keeps its 0/1 soup, which its factory seeds.
  auto life = core::gallery::life(kWidth, kHeight, kSweeps, rng.next_u64());
  using S = core::DeviceStrategy;
  return {
      {"hotspot/rowchunk", hotspot, config(S::kRowChunk, 16)},
      {"fdtd2d/rowchunk", fdtd, config(S::kRowChunk, 8)},
      {"convection/rowchunk", convection, config(S::kRowChunk, 12)},
      {"life/rowchunk", life, config(S::kRowChunk, 8)},
      {"hotspot/temporal4", hotspot, config(S::kTemporal, 16)},
      {"convection/temporal4", convection, config(S::kTemporal, 12)},
      {"life/temporal4", life, config(S::kTemporal, 8)},
  };
}


void gallery_mix(const Options& opt, Report& rep) {
  const std::vector<GalleryOp> ops = gallery_ops(opt.seed);
  const sim::GrayskullSpec spec;
  const energy::CardEnergyModel card(spec);
  ttmetal::DeviceConfig traced_cfg;
  traced_cfg.enable_trace = true;

  HostSamples h;
  std::vector<SimOp> round_ops(ops.size());
  Ledger ledger;
  Layers layers;
  bool neutral = true, certified = true;

  run_rounds(opt.seconds, [&](int) {
    double solve = 0, traced = 0, certify = 0, round_events = 0;
    layers = {};
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const GalleryOp& g = ops[i];
      std::unique_ptr<ttmetal::Device> dev;
      h.setup_s.push_back(timed([&] { dev = ttmetal::Device::open(spec); }));
      const auto ev0 = dev->hw().engine().events_processed();
      core::GeneralRunResult r;
      solve += timed([&] { r = core::run_general_stencil_on_device(*dev, g.problem, g.config); });
      round_events += static_cast<double>(dev->hw().engine().events_processed() - ev0);
      ledger.record(i, all_fields(r));
      round_ops[i] = {static_cast<double>(g.problem.total_updates()), r.kernel_time,
                      r.total_time, card.joules(r.total_time, r.cores_used)};
      layers.kernel_ms += ms(r.kernel_time);
      layers.pcie_ms += ms(dev->pcie_time());
      if (!opt.trace) continue;

      certify += 1e3 * timed([&] {
        certified = certified && ir::check(core::general_ir_graph(g.problem, g.config)).empty();
      });
      auto tdev = ttmetal::Device::open(spec, traced_cfg);
      core::GeneralRunResult tr;
      traced += timed([&] { tr = core::run_general_stencil_on_device(*tdev, g.problem, g.config); });
      ledger.record(i, all_fields(tr));
      neutral = neutral && tr.kernel_time == r.kernel_time && tr.total_time == r.total_time;
      layers.device.merge(DeviceLayers::from(tdev->metrics()));
      layers.launches += count_launches(*tdev);
    }
    h.solve_s.push_back(solve);
    h.events.push_back(round_events);
    if (opt.trace) {
      h.traced_s.push_back(traced);
      h.certify_ms.push_back(certify);
    }
  });
  for (const SimOp& op : round_ops) {
    rep.digest(static_cast<std::uint64_t>(op.kernel));
    rep.digest(static_cast<std::uint64_t>(op.total));
  }

  log_samples("round host s", h.solve_s);
  if (!opt.trace) {
    const double setup = setup_median(h.setup_s, 51, [&] { return ttmetal::Device::open(spec); });
    add_solver_end_to_end(rep, round_ops, median(h.solve_s), setup);
  }

  // Checks, after the timed window: every field of every program bit-exact
  // against the CPU BF16 reference.
  std::vector<bool> ok(ops.size());
  double ref_s = 0, ref_updates = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    std::vector<std::vector<bfloat16_t>> ref;
    ref_s += timed([&] { ref = cpu::general_reference_bf16(ops[i].problem); });
    ref_updates += static_cast<double>(ops[i].problem.total_updates());
    ok[i] = neutral && certified && fields_match(ledger.first(i), ref);
  }
  ledger.settle(rep, ok);
  rep.digest(ledger.hash());
  if (opt.trace) {
    add_host_samples(layers, h);
    layers.cpu_ref_gpts = ref_updates / 1e9 / ref_s;
    rep.add_layers(layers);
  }
}

}  // namespace perfbench
