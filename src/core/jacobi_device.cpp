/// \file jacobi_device.cpp
/// The Jacobi drivers. The Section IV tiled designs launch their own
/// kernels (jacobi_tiled.cpp); every other strategy solves
/// jacobi_program(p) through the general stencil driver and checks the
/// answer against the Jacobi reference itself.

#include "ttsim/core/jacobi_device.hpp"

#include <cstring>
#include <limits>

#include "jacobi_internal.hpp"
#include "ttsim/cpu/jacobi_cpu.hpp"
#include "ttsim/ttmetal/counters.hpp"

namespace ttsim::core {

bool detail::matches_reference(const JacobiProblem& p,
                               const std::vector<float>& solution) {
  const auto ref = cpu::jacobi_reference_bf16(p);
  if (ref.size() != solution.size()) return false;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (static_cast<float>(ref[i]) != solution[i]) return false;
  }
  return true;
}

namespace {

void validate_tiled(const ttmetal::Device& device, const JacobiProblem& p,
                    const DeviceRunConfig& cfg) {
  detail::check_core_count(cfg, device.num_workers());
  if (p.iterations < 1) TTSIM_THROW_API("need at least one iteration");
  if (p.width % detail::kTile != 0 || p.height % detail::kTile != 0) {
    TTSIM_THROW_API("tiled strategies need 32x32-divisible domains");
  }
  if (p.height / static_cast<std::uint32_t>(cfg.cores_y) % detail::kTile != 0 ||
      p.height % static_cast<std::uint32_t>(cfg.cores_y) != 0) {
    TTSIM_THROW_API("tiled strategies need 32-divisible rows per core");
  }
}

/// Section IV run: the tiled kernels on their own buffer pair.
DeviceRunResult run_tiled(ttmetal::Device& device, const JacobiProblem& p,
                          const DeviceRunConfig& cfg) {
  validate_tiled(device, p, cfg);
  const detail::CoreSelection sel = detail::select_cores(device, p.width, cfg);
  const ttmetal::RetryScope retries(device);
  const PaddedLayout layout(p.width, p.height);

  const ttmetal::BufferConfig bc = detail::grid_buffer_config(cfg, layout);
  auto d1 = device.create_buffer(bc);
  auto d2 = device.create_buffer(bc);

  const SimTime t_start = device.now();
  const auto image = layout.initial_image(p);
  device.write_buffer(*d1, std::as_bytes(std::span{image}));
  device.write_buffer(*d2, std::as_bytes(std::span{image}));

  auto shared = std::make_shared<detail::KernelShared>(layout);
  shared->d1 = d1->address();
  shared->d2 = d2->address();
  shared->iterations = p.iterations;
  shared->strategy = cfg.strategy;
  shared->toggles = cfg.toggles;
  shared->ranges = detail::decompose(p, sel.cores_x, sel.cores_y, detail::kTile);
  shared->core_ids = sel.core_ids;

  ttmetal::Program prog;
  detail::build_tiled_program(prog, shared);
  device.run_program(prog);

  // After `iterations` sweeps the freshest grid is d2 for odd counts.
  auto& final_buf = (p.iterations % 2 == 1) ? *d2 : *d1;
  std::vector<bfloat16_t> out(layout.elems());
  device.read_buffer(final_buf, std::as_writable_bytes(std::span{out}));

  DeviceRunResult result;
  result.kernel_time = device.last_kernel_duration();
  result.total_time = device.now() - t_start;
  result.cores_used = sel.ncores();
  result.transfer_retries = static_cast<int>(retries.count());
  result.solution = layout.extract_interior(out);
  if (cfg.verify && cfg.toggles.all_enabled()) {
    result.verified_ok = detail::matches_reference(p, result.solution);
  }
  return result;
}

}  // namespace

DeviceRunResult run_jacobi_on_device(ttmetal::Device& device, const JacobiProblem& p,
                                     const DeviceRunConfig& cfg) {
  if (detail::is_tiled(cfg.strategy)) return run_tiled(device, p, cfg);
  const ttmetal::RetryScope retries(device);
  DeviceRunConfig gcfg = cfg;
  gcfg.verify = false;  // checked against the Jacobi reference below
  auto r = run_general_stencil_on_device(device, jacobi_program(p), gcfg);
  DeviceRunResult result;
  result.solution = std::move(r.solution);
  result.kernel_time = r.kernel_time;
  result.total_time = r.total_time;
  result.cores_used = r.cores_used;
  result.transfer_retries = static_cast<int>(retries.count());
  if (cfg.verify) result.verified_ok = detail::matches_reference(p, result.solution);
  return result;
}

DeviceRunResult run_jacobi_on_device(const JacobiProblem& p, const DeviceRunConfig& cfg,
                                     sim::GrayskullSpec spec) {
  auto device = ttmetal::Device::open(spec);
  return run_jacobi_on_device(*device, p, cfg);
}

AdaptiveRunResult run_jacobi_adaptive(ttmetal::Device& device, const JacobiProblem& p,
                                      const AdaptiveOptions& options,
                                      const DeviceRunConfig& cfg) {
  if (cfg.strategy != DeviceStrategy::kRowChunk) {
    TTSIM_THROW_API("adaptive solving is built on the row-chunk strategy");
  }
  if (options.check_every < 1 || options.tolerance <= 0.0) {
    TTSIM_THROW_API("adaptive solving needs check_every >= 1 and tolerance > 0");
  }
  const std::uint32_t strip = p.width / static_cast<std::uint32_t>(cfg.cores_x);
  if (p.width % static_cast<std::uint32_t>(cfg.cores_x) != 0 || strip % 1024 != 0) {
    TTSIM_THROW_API("device-side residuals need full 1024-element chunks "
                    "(strip width " << strip << ")");
  }
  GeneralStencilProblem g = jacobi_program(p);
  detail::validate_run_config(g, cfg);
  detail::check_core_count(cfg, device.num_workers());
  const detail::CoreSelection sel = detail::select_cores(device, p.width, cfg);

  const PaddedLayout layout(p.width, p.height);
  const ttmetal::BufferConfig bc = detail::grid_buffer_config(cfg, layout);
  auto d1 = device.create_buffer(bc);
  auto d2 = device.create_buffer(bc);
  const int ncores = sel.ncores();
  ttmetal::BufferConfig res_cfg;
  res_cfg.size = static_cast<std::uint64_t>(ncores) * 32;
  auto residuals = device.create_buffer(res_cfg);

  const SimTime t_start = device.now();
  const auto image = layout.initial_image(p);
  device.write_buffer(*d1, std::as_bytes(std::span{image}));
  device.write_buffer(*d2, std::as_bytes(std::span{image}));

  AdaptiveRunResult result;
  result.final_residual = std::numeric_limits<double>::infinity();
  bool swapped = false;
  int remaining = p.iterations;
  while (remaining > 0) {
    g.iterations = std::min(options.check_every, remaining);
    result.kernel_time += detail::launch_single_field(
        device, g, cfg, sel, swapped ? d2->address() : d1->address(),
        swapped ? d1->address() : d2->address(), residuals->address());
    result.iterations_run += g.iterations;
    remaining -= g.iterations;
    if (detail::grid_passes(cfg, g.iterations) % 2 == 1) swapped = !swapped;

    std::vector<std::byte> raw(static_cast<std::size_t>(ncores) * 32);
    device.read_buffer(*residuals, raw);
    double worst = 0.0;
    for (int c = 0; c < ncores; ++c) {
      bfloat16_t r{};
      std::memcpy(&r, raw.data() + static_cast<std::size_t>(c) * 32, 2);
      worst = std::max(worst, static_cast<double>(static_cast<float>(r)));
    }
    result.final_residual = worst;
    if (worst <= options.tolerance) {
      result.converged = true;
      break;
    }
  }

  // After `iterations_run` sweeps the freshest grid is the current "d2".
  auto& final_buf = swapped ? *d2 : *d1;
  std::vector<bfloat16_t> out(layout.elems());
  device.read_buffer(final_buf, std::as_writable_bytes(std::span{out}));
  result.solution = layout.extract_interior(out);
  result.total_time = device.now() - t_start;
  return result;
}

AdaptiveRunResult run_jacobi_adaptive(const JacobiProblem& p,
                                      const AdaptiveOptions& options,
                                      const DeviceRunConfig& cfg,
                                      sim::GrayskullSpec spec) {
  auto device = ttmetal::Device::open(spec);
  return run_jacobi_adaptive(*device, p, options, cfg);
}

MultiCardResult run_jacobi_multicard(const JacobiProblem& p, int cards,
                                     const DeviceRunConfig& cfg,
                                     sim::GrayskullSpec spec) {
  TTSIM_CHECK(cards >= 1);
  if (static_cast<std::uint32_t>(cards) > p.height) {
    TTSIM_THROW_API("more cards than rows");
  }
  MultiCardResult result;
  result.cards = cards;
  const std::uint32_t base = p.height / static_cast<std::uint32_t>(cards);
  const std::uint32_t extra = p.height % static_cast<std::uint32_t>(cards);
  for (int card = 0; card < cards; ++card) {
    JacobiProblem slab = p;
    slab.height = base + (static_cast<std::uint32_t>(card) < extra ? 1 : 0);
    // Cards cannot exchange halos (paper Section VII): interior cut edges
    // see the frozen initial guess as their boundary condition.
    if (card > 0) slab.bc_top = p.initial;
    if (card < cards - 1) slab.bc_bottom = p.initial;
    auto device = ttmetal::Device::open(spec);
    const auto r = run_jacobi_on_device(*device, slab, cfg);
    result.kernel_time = std::max(result.kernel_time, r.kernel_time);
    result.total_time = std::max(result.total_time, r.total_time);
  }
  return result;
}

}  // namespace ttsim::core
