#pragma once
/// \file sharded.hpp
/// Cross-card sharded stencil solver: one grid decomposed into horizontal
/// slabs, one slab per simulated card, halos exchanged over a chip-to-chip
/// ChipLinkFabric (sim/chiplink.hpp). This is the multi-chip story the
/// Wormhole follow-on papers tell, grafted onto the repo's single-card
/// strategies — and the protocol is *bit-exact*: the sharded result equals
/// the whole-domain single-card run and the CPU reference, element for
/// element, for any card count.
///
/// Deep-halo protocol (DESIGN.md "Multi-chip" derives it): with epoch
/// length k (ShardedRunConfig::exchange_every, which for kTemporal is the
/// chained depth), each interior cut side carries e = k-1 redundant
/// "extension" rows plus one frozen boundary row. Freezing a row introduces
/// staleness that propagates one row per sweep, so after k sweeps every row
/// at distance >= k from the frozen row — exactly the owned rows — still
/// holds whole-domain values. One exchange per epoch then refreshes the k
/// halo rows of each side with the neighbour's k outermost owned rows
/// (boundary row into both parity buffers, extension rows into the next
/// source), amortising the link latency over k iterations.
///
/// Cluster time: cards run an epoch in lockstep (each card's engine is
/// fast-forwarded to the cluster clock before its launch), the epoch ends at
/// the slowest card, link transfers serialise on the fabric's per-link
/// timelines from that point, and the delivery time starts the next epoch.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/stencil_spec.hpp"
#include "ttsim/sim/chiplink.hpp"
#include "ttsim/ttmetal/device.hpp"

namespace ttsim::core {

struct ShardedRunConfig {
  /// Per-card strategy: kRowChunk or kTemporal (cores_x/cores_y, chunk and
  /// read-ahead apply per card, exactly as on a single card).
  DeviceRunConfig run;
  /// Iterations per halo exchange (epoch length k). 0 = the strategy's
  /// natural epoch: temporal_depth for kTemporal, 1 for kRowChunk. Each
  /// interior cut then stores k-1 extension rows, so every card must own at
  /// least k rows.
  int exchange_every = 0;
  /// Compare the assembled solution against the CPU bf16 reference (skipped
  /// when resuming from a checkpoint state).
  bool verify = false;
};

struct ShardedRunResult {
  /// Assembled interior of the written (Jacobi: the only) field.
  std::vector<float> solution;
  /// General runs: every field's assembled interior, in field order
  /// (empty for run_jacobi_sharded).
  std::vector<std::vector<float>> fields;
  SimTime kernel_time = 0;    ///< sum over epochs of the slowest card's kernels
  SimTime exchange_time = 0;  ///< critical-path link time between epochs
  SimTime total_time = 0;     ///< staging + epochs + exchanges + readback
  std::uint64_t link_bytes = 0;     ///< payload bytes crossing the fabric
  std::uint64_t link_messages = 0;  ///< messages injected into the fabric
  int cards = 0;
  int epochs = 0;
  bool verified_ok = true;
  double gpts(const JacobiProblem& p, bool kernel_only = false) const {
    const SimTime t = kernel_only ? kernel_time + exchange_time : total_time;
    return t > 0 ? static_cast<double>(p.total_updates()) / 1e9 / to_seconds(t)
                 : 0.0;
  }
};

/// A group of open cards cabled into a fabric — the convenience owner for
/// benchmarks, examples and tests. The serving layer builds fabrics over its
/// own pooled devices instead.
struct ShardedCluster {
  std::vector<std::unique_ptr<ttmetal::Device>> cards;
  std::unique_ptr<sim::ChipLinkFabric> fabric;

  /// Open `n` identical cards and cable them in a line. `link` defaults to
  /// the spec's own Ethernet parameters (ChipLinkConfig::from_spec).
  static ShardedCluster open(int n, sim::DeviceSpec spec = {},
                             ttmetal::DeviceConfig dev = {},
                             std::optional<sim::ChipLinkConfig> link = {});
  std::vector<ttmetal::Device*> devices() const;
};

/// Solve the Jacobi problem sharded across `cards` (position i in the span
/// is fabric position i): run_general_sharded on jacobi_program(p), with
/// cfg.verify checking against cpu::jacobi_reference_bf16. `state`, when
/// non-null, is the global padded bf16 image to resume from (empty = start
/// from p's initial guess) and receives the final padded image. Throws
/// ApiError on infeasible decompositions (unsupported strategy, a card
/// owning fewer than k rows, too few workers).
ShardedRunResult run_jacobi_sharded(std::span<ttmetal::Device* const> cards,
                                    sim::ChipLinkFabric& fabric,
                                    const JacobiProblem& p,
                                    const ShardedRunConfig& cfg,
                                    std::vector<bfloat16_t>* state = nullptr);

/// Sharded run of a general single-pass gallery program (multi-pass
/// programs would need per-pass exchanges and are rejected). Read-only
/// fields are staged once and never exchanged; only the written field's
/// halo crosses the fabric. `state` holds one padded image per field.
ShardedRunResult run_general_sharded(
    std::span<ttmetal::Device* const> cards, sim::ChipLinkFabric& fabric,
    const GeneralStencilProblem& p, const ShardedRunConfig& cfg,
    std::vector<std::vector<bfloat16_t>>* state = nullptr);

/// Convenience overloads: open a fresh homogeneous line-cabled cluster of
/// `cards` cards, run, and tear it down.
ShardedRunResult run_jacobi_sharded(const JacobiProblem& p, int cards,
                                    const ShardedRunConfig& cfg,
                                    sim::DeviceSpec spec = {});
ShardedRunResult run_general_sharded(const GeneralStencilProblem& p, int cards,
                                     const ShardedRunConfig& cfg,
                                     sim::DeviceSpec spec = {});

}  // namespace ttsim::core
