#pragma once
/// \file stencil_spec.hpp
/// Device-independent description of radius-1 stencils and their problem
/// geometry (split from stencil.hpp so CPU references build without the
/// device SDK). Two levels:
///
///   * WeightedStencil — the original 5-point weighted form (kept as the
///     convenient special case).
///   * GeneralStencilProblem — the general frontend: up to four named
///     fields, each pass a per-cell transition over the 3x3 neighbourhood
///     of any field (a weighted tap sum, optionally followed by a
///     threshold post-op), evaluated in BF16 with a FIXED tap order so the
///     device and the CPU reference agree bit for bit.
///
/// The tap-order contract (see DESIGN.md, "Generic stencil frontend"):
/// terms are evaluated in their listed order — each term is one rounded
/// BF16 product weight*value, the first product seeds the accumulator and
/// every later one is added left to right, each operation rounded to BF16;
/// a pass's `scale`, when not 1, multiplies the finished sum once (rounded).
/// Factories list taps in the canonical order C, W, E, N, S, NW, NE, SW,
/// SE. Halo corner cells (outside both an edge row and an edge column)
/// hold 0 on the device image and in the reference — diagonal taps of
/// corner cells see that zero on both sides.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ttsim/core/problem.hpp"

namespace ttsim::core {

/// out(r,c) = wc*u(r,c) + ww*u(r,c-1) + we*u(r,c+1) + wn*u(r-1,c) + ws*u(r+1,c),
/// evaluated in BF16 with a fixed tap order (C, W, E, N, S) so device and
/// CPU reference agree bit for bit. Zero-weight taps cost nothing.
struct WeightedStencil {
  float wc = 0.0f;  ///< centre
  float ww = 0.0f;  ///< west  (x-1)
  float we = 0.0f;  ///< east  (x+1)
  float wn = 0.0f;  ///< north (y-1)
  float ws = 0.0f;  ///< south (y+1)

  int active_taps() const {
    return (wc != 0.0f) + (ww != 0.0f) + (we != 0.0f) + (wn != 0.0f) + (ws != 0.0f);
  }

  /// The Jacobi averaging stencil expressed as four 0.25 products. It
  /// rounds differently from Listing 1's sum-then-scale only where a
  /// product leaves BF16's normal range (subnormals, overflow);
  /// jacobi_program() is the exact form the device drivers run.
  static WeightedStencil jacobi() { return {0.0f, 0.25f, 0.25f, 0.25f, 0.25f}; }

  /// Explicit (FTCS) heat diffusion: u += r*laplacian, r = alpha*dt/dx^2.
  /// Stable for r <= 0.25.
  static WeightedStencil diffusion(float r) { return {1.0f - 4.0f * r, r, r, r, r}; }

  /// First-order upwind advection with Courant numbers cx = u*dt/dx >= 0,
  /// cy = v*dt/dy >= 0 (flow towards +x/+y). Stable for cx + cy <= 1.
  static WeightedStencil advection_upwind(float cx, float cy) {
    return {1.0f - cx - cy, cx, 0.0f, cy, 0.0f};
  }
};

struct StencilProblem {
  std::uint32_t width = 256;
  std::uint32_t height = 256;
  int iterations = 100;
  WeightedStencil stencil;
  float bc_left = 0.0f, bc_right = 0.0f, bc_top = 0.0f, bc_bottom = 0.0f;
  float initial = 0.0f;
  /// Optional non-uniform initial field (row-major width*height); overrides
  /// `initial` when non-empty (e.g. an advected plume).
  std::vector<float> initial_field;

  std::uint64_t points() const {
    return static_cast<std::uint64_t>(width) * height;
  }
  std::uint64_t total_updates() const {
    return points() * static_cast<std::uint64_t>(iterations);
  }
  /// The equivalent Jacobi-problem view (layout/decomposition reuse).
  JacobiProblem geometry() const {
    JacobiProblem p;
    p.width = width;
    p.height = height;
    p.iterations = iterations;
    p.bc_left = bc_left;
    p.bc_right = bc_right;
    p.bc_top = bc_top;
    p.bc_bottom = bc_bottom;
    p.initial = initial;
    return p;
  }
};

// ---------------------------------------------------------------------------
// The general radius-1 frontend.
// ---------------------------------------------------------------------------

/// The nine taps of the 3x3 neighbourhood in their canonical (contract)
/// order. The first five match WeightedStencil's fixed order.
enum class Tap : std::uint8_t { kC = 0, kW, kE, kN, kS, kNW, kNE, kSW, kSE };

inline constexpr int kNumTaps = 9;

/// Row offset of a tap (-1 = north of the cell).
constexpr int tap_dr(Tap t) {
  constexpr std::array<int, kNumTaps> dr = {0, 0, 0, -1, 1, -1, -1, 1, 1};
  return dr[static_cast<std::size_t>(t)];
}
/// Column offset of a tap (-1 = west of the cell).
constexpr int tap_dc(Tap t) {
  constexpr std::array<int, kNumTaps> dc = {0, -1, 1, 0, 0, -1, 1, -1, 1};
  return dc[static_cast<std::size_t>(t)];
}

const char* to_string(Tap t);

/// One weighted tap term of a transition: weight * field[tap offset].
struct TapTerm {
  int field = 0;
  Tap tap = Tap::kC;
  float weight = 0.0f;
};

/// Optional non-linear step applied after the weighted tap sum S.
enum class PostOp : std::uint8_t {
  kNone,
  /// Game-of-Life threshold: out = (S == 3) + (S == 2) * self, where self
  /// is the centre value of `StencilPass::post_self_field`. With 0/1 cell
  /// states and integer neighbour counts every operation is BF16-exact.
  kLife,
};

/// One per-cell update: target = post(scale * sum of terms). Terms are
/// evaluated in listed order (the tap-order contract); factories list them
/// in canonical tap order with zero-weight taps omitted.
struct StencilPass {
  int target = 0;                ///< field index written by this pass
  std::vector<TapTerm> terms;    ///< evaluated in order, all BF16
  PostOp post = PostOp::kNone;
  int post_self_field = 0;       ///< kLife: field supplying the survive state
  /// Multiplies the finished tap sum once, rounded to BF16; 1 skips the
  /// step. Lets a pass state Listing 1 exactly: sum the taps, scale once.
  float scale = 1.0f;
};

/// Per-field geometry data: boundary values and the initial interior.
struct FieldSpec {
  std::string name;              ///< for diagnostics / gallery tables
  float bc_left = 0.0f, bc_right = 0.0f, bc_top = 0.0f, bc_bottom = 0.0f;
  float initial = 0.0f;
  /// Optional non-uniform initial interior (row-major width*height);
  /// overrides `initial` when non-empty.
  std::vector<float> initial_field;
};

/// A multi-field radius-1 stencil program: every iteration runs the passes
/// in order; a pass reading a field another pass already wrote THIS
/// iteration sees the updated values (FDTD's leapfrog), otherwise the
/// previous iteration's. At most one pass may target a given field.
struct GeneralStencilProblem {
  std::uint32_t width = 256;
  std::uint32_t height = 256;
  int iterations = 100;
  std::vector<FieldSpec> fields;   ///< at most 4 (CB id budget)
  std::vector<StencilPass> passes;

  std::uint64_t points() const {
    return static_cast<std::uint64_t>(width) * height;
  }
  std::uint64_t total_updates() const {
    return points() * static_cast<std::uint64_t>(iterations) * passes.size();
  }
  /// Index of the pass writing field `f`, or -1 (read-only field).
  int written_pass(int f) const {
    for (std::size_t p = 0; p < passes.size(); ++p) {
      if (passes[p].target == f) return static_cast<int>(p);
    }
    return -1;
  }
  /// The field whose final state a run returns as `solution`: the target
  /// of the LAST pass (FDTD's Ez, and trivially the single updated field
  /// of one-pass problems).
  int primary_field() const {
    return passes.empty() ? 0 : passes.back().target;
  }
  /// Structural throw-on-invalid check (field/tap indices in range, at
  /// most one writer per field, every field used, initial_field sizes).
  void validate() const;
  /// Canonical FNV-1a hash over the transition structure and weights
  /// (NOT boundary/initial data): two problems with equal hashes compile
  /// to the same kernels, the serving layer's session-key ingredient.
  std::uint64_t transition_hash() const;
  /// The equivalent Jacobi-problem view (layout/decomposition reuse);
  /// carries the geometry only, not any field's boundary data.
  JacobiProblem geometry() const {
    JacobiProblem p;
    p.width = width;
    p.height = height;
    p.iterations = iterations;
    return p;
  }
};

/// Lift the 5-point special case into the general frontend (one field, one
/// pass, terms in the canonical order with zero-weight taps omitted) —
/// arithmetically identical by the tap-order contract.
GeneralStencilProblem to_general(const StencilProblem& p);

/// The paper's Jacobi sweep (Listing 1) as a general program: one field
/// carrying p's boundary values and initial guess, one pass summing W, E,
/// N, S at weight 1 with scale 0.25 — ((W+E)+N)+S, then x0.25, the exact
/// BF16 order of cpu::jacobi_reference_bf16. Every device Jacobi driver
/// except the Section IV tiled kernels lowers through this program.
GeneralStencilProblem jacobi_program(const JacobiProblem& p);

}  // namespace ttsim::core
