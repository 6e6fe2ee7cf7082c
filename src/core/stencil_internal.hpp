#pragma once
/// \file stencil_internal.hpp
/// Shared internals of the general radius-1 stencil lowering — the one
/// lowering every row-chunk, SRAM-resident and temporal launch (Jacobi
/// included, via jacobi_program) goes through: the per-core decomposition,
/// the resolved program state, the CB id map, and the tap-chain emitter
/// every strategy uses. Keeping ONE emitter is what makes rowchunk-vs-SRAM
/// agreement hold by construction — both strategies issue the identical
/// FPU op sequence and differ only in where the aliased tap addresses point.
///
/// CB id map of a general stencil program (tt-metal convention: inputs
/// 0..7, intermediates 8..15, outputs 16..23):
///   0..3  — one stream/alias CB per field (row-chunk: flow-controlled
///           depth-page streams; SRAM: alias vehicles, never pushed)
///   4     — weight alias CB, repointed into the L1 weight table per term
///           (and onto the first tap of a sum-only chain)
///   5/6/7 — accumulator chain (inter, tmp, tmp2)
///   16    — output
///   17    — device-side residual (adaptive row-chunk launches only)
/// The weight table holds one 2 KiB tile of 1024 copies per distinct
/// weight (and scale), written host-side by the compute kernel before the
/// first sweep (the cb_scalar trick, without a CB).

#include <memory>
#include <vector>

#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/ttmetal/program.hpp"

namespace ttsim::core::detail {

inline constexpr int kCbFieldBase = 0;  // field f streams through CB f
inline constexpr int kCbWgt = 4;
inline constexpr int kCbGInter = 5;
inline constexpr int kCbGTmp = 6;
inline constexpr int kCbGTmp2 = 7;
inline constexpr int kCbGOut = 16;
inline constexpr int kCbGRes = 17;
inline constexpr int kIterationBarrier = 0;

inline constexpr std::uint32_t kTileBytes = 2048;  // 1024 BF16 elems

/// L1 slab budget per core for the SRAM-slab lowerings (temporal blocks):
/// the e150's 1 MiB minus a reserve for the CBs, the weight table and
/// program scratch. The builder and its IR model both size from this.
inline constexpr std::uint32_t kSlabBudget = (1u << 20) - 96 * 1024;

/// One core's share of the interior: rows [row_lo, row_hi), cols
/// [col_lo, col_hi).
struct CoreRange {
  std::uint32_t row_lo, row_hi, col_lo, col_hi;
};

/// Balanced 2-D decomposition. Columns split evenly (width must divide by
/// cores_x into multiples of `col_align`); rows split as evenly as possible.
std::vector<CoreRange> decompose(const JacobiProblem& p, int cores_x, int cores_y,
                                 std::uint32_t col_align);

/// Resolved launch grid after graceful degradation: when the fault plan has
/// killed workers, the requested decomposition shrinks onto the survivors
/// (Y first — row splits carry no alignment constraints — then X, keeping
/// the width divisible) and logical positions map onto surviving worker ids.
struct CoreSelection {
  int cores_x = 1;
  int cores_y = 1;
  std::vector<int> core_ids;
  int ncores() const { return cores_x * cores_y; }
};

CoreSelection select_cores(ttmetal::Device& device, std::uint32_t width,
                           const DeviceRunConfig& cfg);

/// Grid BufferConfig for the run's buffer-layout choice (shared by every
/// driver and by batched slots).
ttmetal::BufferConfig grid_buffer_config(const DeviceRunConfig& cfg,
                                         const PaddedLayout& layout);

/// One referenced field of a pass with its vertical halo extent.
struct PassField {
  int field = 0;
  int lo = 0;  ///< -1 when any term taps N/NW/NE of this field
  int hi = 0;  ///< +1 when any term taps S/SW/SE
};

/// One pass, resolved for the kernels: terms carry weight-table indices.
struct LoweredTerm {
  int field = 0;
  int dr = 0, dc = 0;
  int widx = 0;  ///< index into the weight table
};
struct LoweredPass {
  int target = 0;
  std::vector<LoweredTerm> terms;
  PostOp post = PostOp::kNone;
  int self_field = 0;
  std::vector<PassField> reads;  ///< referenced fields, first-use order
  /// Every weight is 1, there are >= 2 terms and no post-op: the chain
  /// adds the taps instead of multiplying each by 1 (Jacobi's shape).
  bool sum_only = false;
  int scale_widx = -1;  ///< weight-table index of the pass scale; -1 = none
};

/// The accumulator CBs a pass's chain touches (see emit_tap_chain).
struct ChainCbs {
  bool inter = false, tmp = false, tmp2 = false;

  explicit ChainCbs(const LoweredPass& p) {
    const std::size_t n = p.terms.size();
    const bool scaled = p.scale_widx >= 0;
    if (p.sum_only) {
      inter = n > 2 || scaled;
      return;
    }
    inter = n > 1 || scaled;
    tmp = n > 1 || p.post != PostOp::kNone;
    tmp2 = p.post != PostOp::kNone;
  }
  ChainCbs() = default;
  ChainCbs& operator|=(const ChainCbs& o) {
    inter = inter || o.inter;
    tmp = tmp || o.tmp;
    tmp2 = tmp2 || o.tmp2;
    return *this;
  }
};

/// Create the accumulator CBs `need` names, in id order (2 pages each).
inline void create_chain_cbs(ttmetal::Program& prog, const std::vector<int>& cores,
                             const ChainCbs& need) {
  if (need.inter) prog.create_cb(kCbGInter, cores, kTileBytes, 2);
  if (need.tmp) prog.create_cb(kCbGTmp, cores, kTileBytes, 2);
  if (need.tmp2) prog.create_cb(kCbGTmp2, cores, kTileBytes, 2);
}

/// Everything the general kernels need, shared across the lambdas.
struct GeneralShared {
  PaddedLayout layout;
  int iterations = 0;
  std::uint32_t chunk_elems = 1024;
  int read_ahead = 2;
  /// kTemporal: iterations chained through SRAM per DRAM pass (1..8).
  int temporal_depth = 1;
  std::vector<std::uint64_t> d1, d2;  ///< per field; d2[f]=0 for read-only
  std::vector<int> written_pass;      ///< per field: pass index or -1
  std::vector<LoweredPass> passes;
  std::vector<float> weights;  ///< distinct weight values, table order
  std::vector<CoreRange> ranges;
  /// Physical worker ids: logical position i (= index into `ranges`) runs
  /// on worker core_ids[i]. Empty means the identity mapping. Graceful
  /// degradation routes around failed cores by listing survivors here.
  std::vector<int> core_ids;
  /// Device-wide barrier id of this group; batched launches give each
  /// group its own so groups never synchronise with each other.
  int barrier_id = kIterationBarrier;
  /// Row-chunk only: when non-zero, on the final iteration the compute
  /// kernel tracks the per-core max |new - old| on the FPU and the writer
  /// stores it (one BF16 value per core, 32-byte slots) at this DRAM
  /// address. Single-field single-pass programs in full 1024-element
  /// chunks only, so no out-of-interior lanes pollute the reduction.
  std::uint64_t residual_addr = 0;

  explicit GeneralShared(const PaddedLayout& l) : layout(l) {}

  int nfields() const { return static_cast<int>(d1.size()); }

  /// Source buffer of field `f` while running pass `p` of iteration `it`:
  /// each write flips the parity, and a pass sees the writes of every
  /// earlier pass of the same iteration (leapfrog visibility).
  std::uint64_t src_of(int f, int it, int p) const {
    const int wp = written_pass[static_cast<std::size_t>(f)];
    const int writes = wp < 0 ? 0 : it + (wp < p ? 1 : 0);
    return writes % 2 == 0 ? d1[static_cast<std::size_t>(f)]
                           : d2[static_cast<std::size_t>(f)];
  }
  /// Destination buffer of the pass targeting `f` in iteration `it`.
  std::uint64_t dst_of(int f, int it) const {
    return it % 2 == 0 ? d2[static_cast<std::size_t>(f)]
                       : d1[static_cast<std::size_t>(f)];
  }
  /// Buffer holding field `f`'s final state after the full run.
  std::uint64_t final_of(int f) const {
    if (written_pass[static_cast<std::size_t>(f)] < 0) {
      return d1[static_cast<std::size_t>(f)];
    }
    return iterations % 2 == 1 ? d2[static_cast<std::size_t>(f)]
                               : d1[static_cast<std::size_t>(f)];
  }

  std::vector<int> workers() const {
    if (!core_ids.empty()) return core_ids;
    std::vector<int> ids(ranges.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
    return ids;
  }
};

/// Resolve a validated GeneralStencilProblem into the lowered form:
/// dedup'd weight table, per-pass referenced-field sets (including the
/// Life self field) with vertical extents.
void lower_program(const GeneralStencilProblem& p, GeneralShared& sh);

/// Write the weight table (one tile of 1024 copies per weight) at `addr`.
/// Host-side stores through l1_ptr — free on the simulated clock, exactly
/// like fill_scalar_page.
inline void fill_weight_table(ttmetal::KernelCtxBase& ctx, std::uint32_t addr,
                              const std::vector<float>& weights) {
  for (std::size_t i = 0; i < weights.size(); ++i) {
    auto* tile = reinterpret_cast<bfloat16_t*>(
        ctx.l1_ptr(addr + static_cast<std::uint32_t>(i) * kTileBytes));
    const bfloat16_t w{weights[i]};
    for (std::uint32_t e = 0; e < 1024; ++e) tile[e] = w;
  }
}

/// One term of the chain, resolved to an L1 alias address.
struct TapAddr {
  int cb = 0;               ///< field stream/alias CB id
  std::uint32_t addr = 0;   ///< L1 address of the tap's first element
  std::uint32_t valid = 0;  ///< meaningful bytes behind it (race detector)
  int widx = 0;             ///< weight-table index
};

/// Emit the per-point FPU op sequence shared by every strategy. A product
/// chain does one weight-aliased multiply per term; the first product
/// seeds the accumulator, later ones are added left to right through the
/// inter/tmp CB pair. A sum-only chain adds the first two taps through the
/// weight and field aliases and each later tap into kCbGInter. Either sum
/// is then multiplied once by the pass scale (when it has one), and the
/// Life post-op masks it and recombines with the centre value.
/// `pack_final(dst_reg)` lands the finished tile (managed kCbGOut page on
/// row-chunk; write-pointer aliased slab row on SRAM).
template <typename PackFinal>
void emit_tap_chain(ttmetal::ComputeCtx& ctx, std::uint32_t wtab,
                    const LoweredPass& pass, const std::vector<TapAddr>& terms,
                    const TapAddr& self, PackFinal&& pack_final) {
  constexpr int dst0 = 0;
  constexpr int dst1 = 1;
  const std::size_t n = terms.size();
  const bool has_post = pass.post != PostOp::kNone;
  auto park = [&](int cb) {
    ctx.cb_reserve_back(cb, 1);
    ctx.pack_tile(dst0, cb);
    ctx.cb_push_back(cb, 1);
  };
  // The sum sits in dst0: scale it, then pack it out — or, with a post-op,
  // park it in kCbGTmp.
  auto finish = [&] {
    if (pass.scale_widx >= 0) {
      park(kCbGInter);
      ctx.cb_set_rd_ptr(kCbWgt,
                        wtab + static_cast<std::uint32_t>(pass.scale_widx) * kTileBytes);
      ctx.cb_wait_front(kCbGInter, 1);
      ctx.mul_tiles(kCbWgt, kCbGInter, 0, 0, dst0);
      ctx.cb_pop_front(kCbGInter, 1);
    }
    if (has_post) {
      park(kCbGTmp);
    } else {
      pack_final(dst0);
    }
  };
  if (pass.sum_only) {
    ctx.cb_set_rd_ptr(kCbWgt, terms[0].addr, terms[0].valid);
    ctx.cb_set_rd_ptr(terms[1].cb, terms[1].addr, terms[1].valid);
    ctx.add_tiles(kCbWgt, terms[1].cb, 0, 0, dst0);
    for (std::size_t k = 2; k < n; ++k) {
      park(kCbGInter);
      ctx.cb_set_rd_ptr(terms[k].cb, terms[k].addr, terms[k].valid);
      ctx.cb_wait_front(kCbGInter, 1);
      ctx.add_tiles(terms[k].cb, kCbGInter, 0, 0, dst0);
      ctx.cb_pop_front(kCbGInter, 1);
    }
    finish();
  } else {
    for (std::size_t k = 0; k < n; ++k) {
      const auto& t = terms[k];
      ctx.cb_set_rd_ptr(kCbWgt, wtab + static_cast<std::uint32_t>(t.widx) * kTileBytes);
      ctx.cb_set_rd_ptr(t.cb, t.addr, t.valid);
      ctx.mul_tiles(kCbWgt, t.cb, 0, 0, dst0);
      if (k > 0) {
        park(kCbGTmp);
        ctx.cb_wait_front(kCbGInter, 1);
        ctx.cb_wait_front(kCbGTmp, 1);
        ctx.add_tiles(kCbGInter, kCbGTmp, 0, 0, dst0);
        ctx.cb_pop_front(kCbGTmp, 1);
        ctx.cb_pop_front(kCbGInter, 1);
      }
      if (k + 1 == n) {
        finish();
      } else {
        park(kCbGInter);  // mid-chain partial sums accumulate here
      }
    }
  }
  if (has_post) {
    // Life: out = (S == 3) + (S == 2) * self, every step BF16-exact on
    // 0/1 states and integer neighbour counts.
    ctx.cb_wait_front(kCbGTmp, 1);
    ctx.copy_tile(kCbGTmp, 0, dst0);
    ctx.eq_scalar_tile(dst0, bfloat16_t{3.0f});  // birth mask
    ctx.copy_tile(kCbGTmp, 0, dst1);
    ctx.eq_scalar_tile(dst1, bfloat16_t{2.0f});  // survive mask
    ctx.cb_pop_front(kCbGTmp, 1);

    ctx.cb_reserve_back(kCbGTmp2, 1);
    ctx.pack_tile(dst1, kCbGTmp2);
    ctx.cb_push_back(kCbGTmp2, 1);
    ctx.cb_set_rd_ptr(self.cb, self.addr, self.valid);
    ctx.cb_wait_front(kCbGTmp2, 1);
    ctx.mul_tiles(kCbGTmp2, self.cb, 0, 0, dst1);  // survive * self
    ctx.cb_pop_front(kCbGTmp2, 1);

    park(kCbGTmp);
    ctx.cb_reserve_back(kCbGTmp2, 1);
    ctx.pack_tile(dst1, kCbGTmp2);
    ctx.cb_push_back(kCbGTmp2, 1);
    ctx.cb_wait_front(kCbGTmp, 1);
    ctx.cb_wait_front(kCbGTmp2, 1);
    ctx.add_tiles(kCbGTmp, kCbGTmp2, 0, 0, dst0);  // birth + survive*self
    ctx.cb_pop_front(kCbGTmp, 1);
    ctx.cb_pop_front(kCbGTmp2, 1);
    pack_final(dst0);
  }
}

/// Row-chunk kernels for one core group (reader / compute / writer plus
/// this group's CBs, slot buffers and barrier), on the physical workers
/// sh->workers() names; called once per slot by the batched builder and
/// with the identity group by the single-run driver.
void build_general_rowchunk_group(ttmetal::Program& prog,
                                  std::shared_ptr<GeneralShared> sh);

/// SRAM-resident program (single-field single-pass problems, cores_x==1):
/// resident slabs, neighbour halo exchange and R restores driving the
/// shared tap chain.
void build_general_sram_program(ttmetal::Program& prog,
                                std::shared_ptr<GeneralShared> sh);

/// Temporal-tiling kernels for one core group (single-pass problems,
/// cores_x==1): sh->temporal_depth sub-iterations per DRAM pass through
/// ping-ponged L1 slabs, trapezoid skirt recompute instead of halo
/// exchange, read-only fields held in single slabs per block. Called with
/// the identity group by the driver and once per slot by the batched
/// builder (each group's barrier_id must be distinct).
void build_general_temporal_group(ttmetal::Program& prog,
                                  std::shared_ptr<GeneralShared> sh);

/// Driver checks shared by every general launch: program validity, strategy
/// eligibility, read-ahead / temporal depth ranges and the tiled-only
/// component toggles.
void validate_run_config(const GeneralStencilProblem& p, const DeviceRunConfig& cfg);

/// Single-run drivers' check that cfg's decomposition fits the card's
/// `num_workers` worker cores.
void check_core_count(const DeviceRunConfig& cfg, int num_workers);

/// Parity passes a launch of `iterations` sweeps makes over the written
/// field's grid pair: one per sweep, but one per chained block of
/// temporal_depth sweeps under kTemporal. The builders anchor the last pass
/// in final_of (the d2 slot for odd `iterations`), so a launch reads its d2
/// slot first exactly when `iterations` and this count differ in parity,
/// and its result lands in the grid it did not read first exactly when this
/// count is odd.
int grid_passes(const DeviceRunConfig& cfg, int iterations);

/// The resolved state of one launch of `p` on `sel`'s cores, with grid
/// buffer addresses still to fill in.
std::shared_ptr<GeneralShared> make_general_shared(const GeneralStencilProblem& p,
                                                   const DeviceRunConfig& cfg,
                                                   const CoreSelection& sel);

/// Prove the launch's protocol race/deadlock-free with the static checker
/// (src/ir), then lower it into `prog` with the strategy's builder.
void emit_certified(ttmetal::Program& prog, std::shared_ptr<GeneralShared> sh,
                    DeviceStrategy strategy, std::int64_t sram_bytes);

/// Launch single-field `p` (p.iterations sweeps) starting from the grid in
/// `fresh`, with `other` as its parity partner, and return the kernel time.
/// The result lands in `other` when grid_passes(cfg, p.iterations) is odd,
/// else back in `fresh`. `residual_addr` as in GeneralShared. The chunked
/// (adaptive, resilient) drivers' launch step.
SimTime launch_single_field(ttmetal::Device& device, const GeneralStencilProblem& p,
                            const DeviceRunConfig& cfg, const CoreSelection& sel,
                            std::uint64_t fresh, std::uint64_t other,
                            std::uint64_t residual_addr = 0);

}  // namespace ttsim::core::detail
