#pragma once
/// \file jacobi_internal.hpp
/// Internals of the Jacobi drivers: the helpers the wrappers over the
/// general frontend share, and the Section IV tiled Jacobi programs
/// (kInitial / kWriteOptimised / kDoubleBuffered), the one family of device
/// Jacobi kernels that does not lower through the general frontend: they
/// are the paper's Table I/II artefact, memcpy pipeline and component
/// toggles included.

#include <memory>
#include <vector>

#include "stencil_internal.hpp"

namespace ttsim::core::detail {

/// Circular-buffer ids of the tiled programs (tt-metal convention: inputs
/// 0..7, intermediates 8..15, outputs 16..23).
inline constexpr int kCbIn0 = 0;   // x-1 tile
inline constexpr int kCbIn1 = 1;   // x+1 tile
inline constexpr int kCbIn2 = 2;   // y-1 tile
inline constexpr int kCbIn3 = 3;   // y+1 tile
inline constexpr int kCbScalar = 4;
inline constexpr int kCbInter = 5;
inline constexpr int kCbOut = 16;

inline constexpr std::uint32_t kTile = 32;  // 32x32 BF16 batches

/// The Section IV strategies, which run the tiled kernels below; every
/// other strategy solves jacobi_program(p) through the general driver.
inline bool is_tiled(DeviceStrategy s) {
  return s == DeviceStrategy::kInitial || s == DeviceStrategy::kWriteOptimised ||
         s == DeviceStrategy::kDoubleBuffered;
}

/// Whether `solution` equals cpu::jacobi_reference_bf16(p) bit for bit.
bool matches_reference(const JacobiProblem& p, const std::vector<float>& solution);

/// Everything the tiled kernels need, shared by reference across the
/// lambdas.
struct KernelShared {
  std::uint64_t d1 = 0;  ///< device address of grid buffer 1
  std::uint64_t d2 = 0;  ///< device address of grid buffer 2
  PaddedLayout layout;
  int iterations = 0;
  DeviceStrategy strategy = DeviceStrategy::kInitial;
  ComponentToggles toggles;
  std::vector<CoreRange> ranges;
  /// Physical worker ids: logical position i (= index into `ranges`) runs on
  /// worker core_ids[i]. Empty means the identity mapping.
  std::vector<int> core_ids;

  explicit KernelShared(const PaddedLayout& l) : layout(l) {}

  /// Resolved physical worker list (identity fallback).
  std::vector<int> workers() const {
    if (!core_ids.empty()) return core_ids;
    std::vector<int> ids(ranges.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
    return ids;
  }
};

/// Section IV program (kInitial / kWriteOptimised / kDoubleBuffered).
void build_tiled_program(ttmetal::Program& prog, std::shared_ptr<KernelShared> sh);

}  // namespace ttsim::core::detail
