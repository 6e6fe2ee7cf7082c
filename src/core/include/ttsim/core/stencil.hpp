#pragma once
/// \file stencil.hpp
/// Radius-1 stencils on the simulated Grayskull — the paper's future-work
/// direction ("we are now looking at more complex stencil algorithms, such
/// as atmospheric advection, on the Grayskull") grown into a general
/// frontend.
///
/// A GeneralStencilProblem (stencil_spec.hpp) names up to four fields and
/// a list of passes, each a weighted sum over the 3x3 neighbourhood with
/// an optional scale and threshold post-op. The lowering compiles each
/// pass onto the Section VI row-chunk machinery (aliased CB read pointers,
/// configurable read-ahead) — or onto the SRAM-resident or temporal
/// strategies for single-pass programs — with all products and sums
/// performed in BF16 in the listed term order, so device results are
/// bit-exact replays of cpu::general_reference_bf16. Every launch is
/// certified first: the dataflow-IR model of the program is proved
/// race/deadlock-free (src/ir) before the builder emits it. The paper's
/// Jacobi (jacobi_program) and the 5-point WeightedStencil form are
/// special cases that lower through the same path.

#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/stencil_spec.hpp"

namespace ttsim::core {

/// Run a weighted stencil with the Section VI row-chunk machinery (aliased
/// CB read pointers, two-batch read-ahead). Lowers through the general
/// frontend (to_general); config field `toggles` is ignored and `strategy`
/// selects kSramResident or kTemporal when asked, row-chunk otherwise.
DeviceRunResult run_stencil_on_device(ttmetal::Device& device, const StencilProblem& p,
                                      const DeviceRunConfig& config);
DeviceRunResult run_stencil_on_device(const StencilProblem& p,
                                      const DeviceRunConfig& config,
                                      sim::GrayskullSpec spec = {});

/// Result of a general-frontend run: one interior per field, plus the
/// primary field's interior again as `solution` (the target of the last
/// pass — what a service request returns).
struct GeneralRunResult {
  std::vector<std::vector<float>> fields;  ///< per field, row-major interior
  std::vector<float> solution;             ///< fields[primary_field()]
  SimTime kernel_time = 0;
  SimTime total_time = 0;
  int cores_used = 0;       ///< after any graceful degradation
  bool verified_ok = true;  ///< only meaningful when config.verify
};

/// Run a general radius-1 stencil program. `config.strategy` must be
/// kRowChunk (any problem), kSramResident (single-field single-pass,
/// cores_x == 1) or kTemporal (single-pass, cores_x == 1); the Table II
/// component toggles must stay enabled; throws ApiError otherwise. When
/// the fault plan has killed workers the decomposition shrinks onto the
/// survivors (Y first, then X) and `cores_used` reports the result. With
/// config.verify the result is checked bit-exact against
/// cpu::general_reference_bf16.
GeneralRunResult run_general_stencil_on_device(ttmetal::Device& device,
                                               const GeneralStencilProblem& p,
                                               const DeviceRunConfig& config);
GeneralRunResult run_general_stencil_on_device(const GeneralStencilProblem& p,
                                               const DeviceRunConfig& config,
                                               sim::GrayskullSpec spec = {});

/// One slot of a batched general-stencil launch: per-field grid buffer
/// addresses (d2 entries of read-only fields may be 0) and the disjoint
/// physical workers running the slot.
struct GeneralBatchSlot {
  std::vector<std::uint64_t> d1, d2;
  std::vector<int> core_ids;
};

/// Build one program running `p` independently on every slot (row-chunk or
/// temporal lowering). A batch of B requests pays the program-dispatch
/// cost once instead of B times and runs the B solves in parallel across
/// the grid — the throughput lever the serving layer builds on. Each group
/// gets its own iteration-barrier id, so groups never synchronise with each
/// other; slot i writes its result into its own buffers with the usual
/// parity (odd iteration counts finish in d2). The batched program is
/// hand-wired: the IR models one group per program. Throws ApiError on
/// invalid decompositions or overlapping slot core sets.
void build_batched_stencil_program(ttmetal::Program& prog,
                                   const GeneralStencilProblem& p,
                                   const DeviceRunConfig& cfg,
                                   const std::vector<GeneralBatchSlot>& slots);

/// Admission-time validation of a general-stencil batch slot: structural
/// problem validity, a row-chunk or temporal strategy and its eligibility
/// rules, read_ahead in [2, 64], and a decomposition of the width across
/// cores_x into 16-aligned strips with cores_y <= height. Throws ApiError
/// naming the violation; the serving layer calls this at admission so bad
/// shapes fail fast instead of poisoning a batch.
void validate_stencil_request(const GeneralStencilProblem& p,
                              const DeviceRunConfig& cfg);

/// BufferConfig for one slot's grid buffers — the same layout policy the
/// single-run drivers apply, so a batched slot sees identical DRAM
/// placement behaviour to a standalone solve.
ttmetal::BufferConfig batch_grid_buffer_config(const DeviceRunConfig& cfg,
                                               const JacobiProblem& p);

/// The per-field device images a run uploads: layout-padded BF16 grids
/// with boundary cells on all four sides (halo corners zero — part of the
/// tap-order contract). Exposed for the serving layer's H2D staging.
std::vector<bfloat16_t> general_field_image(const PaddedLayout& layout,
                                            const GeneralStencilProblem& p,
                                            int field);

}  // namespace ttsim::core
