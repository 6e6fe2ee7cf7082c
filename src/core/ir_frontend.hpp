#pragma once
/// \file ir_frontend.hpp (internal)
/// Builders that model an already-resolved kernel-shared state as a
/// dataflow-IR Graph. Each returned graph carries an emit closure invoking
/// the very hand-wired builder it models, so ir::lower(graph, prog) first
/// proves the protocol sound and then produces a Program bit-identical to
/// calling the builder directly.
///
/// Paths that stay hand-wired (no IR graph): the Section-IV tiled
/// programs, and the batched builder — several independent solves share
/// one Program there, which the single-group graphs don't model.

#include <cstdint>
#include <memory>

#include "stencil_internal.hpp"
#include "ttsim/ir/ir.hpp"

namespace ttsim::core::detail {

/// Protocol graph of the general radius-1 program `strategy`'s builder
/// (build_general_rowchunk_group, build_general_sram_program or
/// build_general_temporal_group) would emit for `sh` (GeneralShared does
/// not carry a strategy). Throws ApiError when the launch would not fit
/// core SRAM.
ir::Graph make_general_graph(std::shared_ptr<GeneralShared> sh,
                             DeviceStrategy strategy,
                             std::int64_t sram_bytes);

}  // namespace ttsim::core::detail
