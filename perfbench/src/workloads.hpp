#pragma once
/// \file workloads.hpp
/// The four workloads, their inputs (shared with the sensitivity
/// self-check), and the self-check itself.

#include <iosfwd>
#include <vector>

#include "harness.hpp"
#include "ttsim/common/rng.hpp"
#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/stencil_spec.hpp"

namespace perfbench {

/// The Table VIII grid (9216 x 1024 BF16, 8 sweeps) with seeded Dirichlet
/// data, and its full-card configuration (12 x 9 cores, row-chunk, striped
/// buffers, the paper's read-ahead of 2).
ttsim::core::JacobiProblem table8_problem(std::uint64_t seed);
ttsim::core::DeviceRunConfig table8_config();

/// Replace every field's boundary values and initial interior with seeded
/// values in [0, 1).
void seed_fields(ttsim::core::GeneralStencilProblem& p, ttsim::Rng& rng);

struct GalleryOp {
  const char* name;
  ttsim::core::GeneralStencilProblem problem;
  ttsim::core::DeviceRunConfig config;
};
/// One gallery_mix round, in order.
std::vector<GalleryOp> gallery_ops(std::uint64_t seed);

/// The workloads. Each fills `rep` (end-to-end metrics untraced, per-layer
/// metrics traced) and counts every operation it checked.
void table8_fullcard(const Options& opt, Report& rep);
void table8_4card(const Options& opt, Report& rep);
void gallery_mix(const Options& opt, Report& rep);
void serve_mix(const Options& opt, Report& rep);

/// Sensitivity self-check (README, "Self-check"): true when every probe
/// moves the metric it names and tracing stays neutral.
bool selfcheck(std::ostream& log);

}  // namespace perfbench
