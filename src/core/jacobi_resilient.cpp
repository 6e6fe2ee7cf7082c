/// \file jacobi_resilient.cpp
/// Checkpoint/restart Jacobi driver (see resilience.hpp). Recovery layers:
///   1. Checksummed PCIe transfers retry transient corruption inside the
///      Device (bounded, exponential backoff) — invisible here except in the
///      retry counter.
///   2. The per-launch watchdog turns hangs (core failures parking kernels)
///      into DeviceTimeoutError; this driver answers by dropping the wedged
///      device generation, shrinking the decomposition onto the surviving
///      workers and replaying from the last checkpoint.
/// Checkpoints are exact BF16 device images, so replay — even on a smaller
/// core grid, which changes nothing about per-element arithmetic — is
/// bit-identical to an undisturbed run and still verifies against the CPU
/// reference.

#include "ttsim/core/resilience.hpp"

#include <algorithm>

#include "jacobi_internal.hpp"

namespace ttsim::core {

namespace {

SimTime auto_watchdog(const JacobiProblem& p, int chunk_iters) {
  // ~100 ns per point-update is three orders of magnitude above the e150's
  // streaming rate, so a legitimate chunk cannot trip it; a genuine hang
  // drains the event queue and is detected immediately regardless of the
  // bound, which therefore only has to catch livelock.
  const double updates = static_cast<double>(p.width) *
                         static_cast<double>(p.height) *
                         static_cast<double>(chunk_iters);
  return 10 * kMillisecond +
         static_cast<SimTime>(updates * 100.0 * static_cast<double>(kNanosecond));
}

}  // namespace

ResilientRunResult run_jacobi_resilient(const JacobiProblem& p,
                                        const DeviceRunConfig& cfg,
                                        const ResilienceOptions& options,
                                        std::shared_ptr<sim::FaultPlan> fault_plan,
                                        sim::GrayskullSpec spec) {
  if (options.checkpoint_every < 1) {
    TTSIM_THROW_API("checkpoint_every must be >= 1");
  }
  if (options.max_restarts < 0) TTSIM_THROW_API("max_restarts must be >= 0");
  if (p.iterations < 1) TTSIM_THROW_API("need at least one iteration");
  detail::check_core_count(cfg, spec.worker_cores);
  if (!cfg.toggles.all_enabled()) {
    TTSIM_THROW_API("resilient solving runs the full pipeline (the Table II "
                    "toggles are a measurement instrument)");
  }
  const bool tiled = detail::is_tiled(cfg.strategy);
  const PaddedLayout layout(p.width, p.height);
  GeneralStencilProblem g = jacobi_program(p);
  if (!tiled) detail::validate_run_config(g, cfg);

  ResilientRunResult res;
  // The running checkpoint: the exact BF16 device image after the sweeps
  // completed so far. Restarting from it replays bit-exactly.
  std::vector<bfloat16_t> checkpoint = layout.initial_image(p);
  int remaining = p.iterations;

  for (;;) {
    ttmetal::DeviceConfig dc;
    dc.sim_time_limit =
        options.watchdog_limit > 0
            ? options.watchdog_limit
            : auto_watchdog(p, std::min(options.checkpoint_every, remaining));
    dc.checksum_transfers = options.checksum_transfers;
    dc.fault_plan = fault_plan;
    auto device = ttmetal::Device::open(spec, dc);

    // Shrink onto the workers that survived earlier generations.
    const detail::CoreSelection sel = detail::select_cores(*device, p.width, cfg);
    res.cores_used = sel.ncores();

    int in_flight = 0;
    try {
      const ttmetal::BufferConfig bc = detail::grid_buffer_config(cfg, layout);
      auto d1 = device->create_buffer(bc);
      auto d2 = device->create_buffer(bc);
      device->write_buffer(*d1, std::as_bytes(std::span{checkpoint}));
      device->write_buffer(*d2, std::as_bytes(std::span{checkpoint}));
      bool swapped = false;
      while (remaining > 0) {
        const int chunk = std::min(options.checkpoint_every, remaining);
        in_flight = chunk;
        const std::uint64_t fresh = swapped ? d2->address() : d1->address();
        const std::uint64_t other = swapped ? d1->address() : d2->address();
        if (tiled) {
          auto shared = std::make_shared<detail::KernelShared>(layout);
          shared->d1 = fresh;
          shared->d2 = other;
          shared->iterations = chunk;
          shared->strategy = cfg.strategy;
          shared->toggles = cfg.toggles;
          shared->ranges = detail::decompose(p, sel.cores_x, sel.cores_y, detail::kTile);
          shared->core_ids = sel.core_ids;
          ttmetal::Program prog;
          detail::build_tiled_program(prog, shared);
          device->run_program(prog);
          res.kernel_time += device->last_kernel_duration();
        } else {
          g.iterations = chunk;
          res.kernel_time +=
              detail::launch_single_field(*device, g, cfg, sel, fresh, other);
        }
        remaining -= chunk;
        in_flight = 0;
        if (detail::grid_passes(cfg, chunk) % 2 == 1) swapped = !swapped;
        // Snapshot the freshest grid as the new checkpoint.
        auto& latest = swapped ? *d2 : *d1;
        device->read_buffer(latest, std::as_writable_bytes(std::span{checkpoint}));
      }
      res.total_time += device->now();
      res.transfer_retries += static_cast<int>(device->transfer_retries());
      break;
    } catch (const ttmetal::DeviceTimeoutError&) {
      res.total_time += device->now();
      res.transfer_retries += static_cast<int>(device->transfer_retries());
      res.iterations_replayed += in_flight;
      ++res.restarts;
      if (res.restarts > options.max_restarts) throw;
      // The wedged generation (and its buffers) is dropped; the next one
      // shrinks onto the survivors and restores the checkpoint.
    }
  }

  res.solution = layout.extract_interior(checkpoint);
  if (fault_plan != nullptr) res.fault_summary = fault_plan->trace_string();
  if (cfg.verify) res.verified_ok = detail::matches_reference(p, res.solution);
  return res;
}

}  // namespace ttsim::core
