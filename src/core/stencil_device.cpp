/// \file stencil_device.cpp
/// The general radius-1 stencil lowering onto the Section VI row-chunk
/// design (paper Fig. 6): every pass of every iteration streams each
/// referenced field through its own slot rotation (contiguous chunk+halo
/// reads, read-ahead deep, no memcpy — the compute kernel aliases CB read
/// pointers into the mover's slots), and the shared tap-chain emitter
/// replays the problem's terms in listed order. Each term costs one FPU
/// multiply against the weight table plus (after the first) one addition —
/// so a 3-tap upwind advection still runs cheaper per point than 5-tap
/// diffusion, and a field whose taps need no vertical halo streams one row
/// per batch instead of three. Sum-only passes (Jacobi) skip the products
/// and scale once, exactly the paper's Listing 2 op count.
///
/// Also the drivers every row-chunk, SRAM-resident and temporal launch goes
/// through: core selection with graceful degradation, buffer staging, the
/// certified (prove-then-lower) program, readback and verification.

#include <algorithm>
#include <set>

#include "ir_frontend.hpp"
#include "stencil_internal.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"
#include "ttsim/ir/lower.hpp"

namespace ttsim::core {

namespace detail {
namespace {

std::uint32_t slot_bytes_for(std::uint32_t chunk) {
  // chunk + 2 halo elements, plus up to 32 alignment-prefix bytes.
  return static_cast<std::uint32_t>(align_up((chunk + 2) * 2 + 32, 64));
}

/// Per-core chunk geometry (Fig. 6): batches are one-dimensional chunks of
/// up to `chunk_elems` along X, each read as one contiguous chunk+2
/// element span. The row-slot rotation runs continuously across column
/// strips (each strip touches nrows+2 rows: the strip plus one halo row per
/// side), so a new column's first rows take the slots after the previous
/// column's tail instead of slots its in-flight batches still reference.
struct ChunkGrid {
  CoreRange rg;
  std::uint32_t chunk, ncols, nrows, nslots;

  ChunkGrid(const CoreRange& r, std::uint32_t chunk_elems, std::uint32_t slots)
      : rg(r), nslots(slots) {
    const std::uint32_t strip = rg.col_hi - rg.col_lo;
    // Largest chunk that tiles the strip exactly and keeps writes aligned
    // (multiple of 16 elements). X-decompositions whose strips don't divide
    // by 1024 thus run with narrower chunks — wasting FPU lanes, which is
    // the cost the paper's Table VIII shows for cores-in-X scaling.
    chunk = std::min(chunk_elems, strip);
    while (chunk > 16 && (strip % chunk != 0 || chunk % 16 != 0)) --chunk;
    TTSIM_CHECK_MSG(strip % chunk == 0 && chunk % 16 == 0,
                    "no valid chunk width for strip " << strip);
    ncols = strip / chunk;
    nrows = rg.row_hi - rg.row_lo;
  }
  std::uint32_t slot_of(std::uint32_t col, std::int64_t y) const {
    const std::int64_t t =
        static_cast<std::int64_t>(col) * (nrows + 2) +
        (y - (static_cast<std::int64_t>(rg.row_lo) - 1));
    return static_cast<std::uint32_t>(t % nslots);
  }
};

}  // namespace

std::vector<CoreRange> decompose(const JacobiProblem& p, int cores_x, int cores_y,
                                 std::uint32_t col_align) {
  if (cores_x < 1 || cores_y < 1) TTSIM_THROW_API("need at least a 1x1 core grid");
  if (p.width % static_cast<std::uint32_t>(cores_x) != 0) {
    TTSIM_THROW_API("domain width " << p.width << " does not divide across "
                                    << cores_x << " cores in X");
  }
  const std::uint32_t strip = p.width / static_cast<std::uint32_t>(cores_x);
  if (strip % col_align != 0) {
    TTSIM_THROW_API("per-core strip width " << strip << " must be a multiple of "
                                            << col_align);
  }
  if (static_cast<std::uint32_t>(cores_y) > p.height) {
    TTSIM_THROW_API("more Y cores than rows");
  }
  std::vector<CoreRange> ranges;
  const std::uint32_t base = p.height / static_cast<std::uint32_t>(cores_y);
  const std::uint32_t extra = p.height % static_cast<std::uint32_t>(cores_y);
  std::uint32_t row = 0;
  for (int cy = 0; cy < cores_y; ++cy) {
    const std::uint32_t rows =
        base + (static_cast<std::uint32_t>(cy) < extra ? 1 : 0);
    for (int cx = 0; cx < cores_x; ++cx) {
      ranges.push_back(CoreRange{row, row + rows,
                                 static_cast<std::uint32_t>(cx) * strip,
                                 (static_cast<std::uint32_t>(cx) + 1) * strip});
    }
    row += rows;
  }
  return ranges;
}

CoreSelection select_cores(ttmetal::Device& device, std::uint32_t width,
                           const DeviceRunConfig& cfg) {
  CoreSelection sel;
  sel.cores_x = cfg.cores_x;
  sel.cores_y = cfg.cores_y;
  const auto usable = device.usable_workers();
  while (sel.ncores() > static_cast<int>(usable.size())) {
    if (sel.cores_y > 1) {
      --sel.cores_y;
    } else if (sel.cores_x > 1) {
      do {
        --sel.cores_x;
      } while (sel.cores_x > 1 && width % static_cast<std::uint32_t>(sel.cores_x) != 0);
    } else {
      TTSIM_THROW_API("no usable workers remain ("
                      << device.num_workers() - static_cast<int>(usable.size())
                      << " failed cores)");
    }
  }
  sel.core_ids.assign(usable.begin(), usable.begin() + sel.ncores());
  return sel;
}

ttmetal::BufferConfig grid_buffer_config(const DeviceRunConfig& cfg,
                                         const PaddedLayout& layout) {
  ttmetal::BufferConfig bc;
  bc.size = layout.bytes();
  bc.layout = cfg.buffer_layout;
  if (cfg.buffer_layout == ttmetal::BufferLayout::kInterleaved) {
    bc.page_size = cfg.interleave_page;
  } else if (cfg.buffer_layout == ttmetal::BufferLayout::kStriped) {
    // Sixteen row slabs per grid: every Y sub-range of cores still spreads
    // its traffic over all eight banks.
    bc.page_size = align_up(layout.bytes() / 16 + 1, 32);
    bc.balanced_stripes = cfg.balanced_stripes;
  }
  return bc;
}

void lower_program(const GeneralStencilProblem& p, GeneralShared& sh) {
  p.validate();
  const int nfields = static_cast<int>(p.fields.size());
  sh.iterations = p.iterations;
  sh.written_pass.assign(static_cast<std::size_t>(nfields), -1);
  for (int f = 0; f < nfields; ++f) sh.written_pass[static_cast<std::size_t>(f)] = p.written_pass(f);

  // Distinct weights in first-appearance order: the table index each term's
  // multiply aliases kCbWgt onto.
  sh.weights.clear();
  auto weight_index = [&](float w) {
    for (std::size_t i = 0; i < sh.weights.size(); ++i) {
      if (sh.weights[i] == w) return static_cast<int>(i);
    }
    sh.weights.push_back(w);
    return static_cast<int>(sh.weights.size() - 1);
  };

  sh.passes.clear();
  for (const auto& pass : p.passes) {
    LoweredPass lp;
    lp.target = pass.target;
    lp.post = pass.post;
    lp.self_field = pass.post_self_field;
    auto touch = [&](int field, int dr) {
      for (auto& pf : lp.reads) {
        if (pf.field == field) {
          pf.lo = std::min(pf.lo, dr);
          pf.hi = std::max(pf.hi, dr);
          return;
        }
      }
      lp.reads.push_back(PassField{field, std::min(dr, 0), std::max(dr, 0)});
    };
    for (const auto& term : pass.terms) {
      const int dr = tap_dr(term.tap);
      lp.terms.push_back(LoweredTerm{term.field, dr, tap_dc(term.tap),
                                     weight_index(term.weight)});
      touch(term.field, dr);
    }
    // The Life recombination reads the self field's centre row — stream it
    // even when no tap term references it.
    if (lp.post == PostOp::kLife) touch(lp.self_field, 0);
    lp.sum_only = pass.post == PostOp::kNone && pass.terms.size() >= 2 &&
                  std::all_of(pass.terms.begin(), pass.terms.end(),
                              [](const TapTerm& t) { return t.weight == 1.0f; });
    if (pass.scale != 1.0f) lp.scale_widx = weight_index(pass.scale);
    sh.passes.push_back(std::move(lp));
  }
}

void build_general_rowchunk_group(ttmetal::Program& prog,
                                  std::shared_ptr<GeneralShared> sh) {
  const int ncores = static_cast<int>(sh->ranges.size());
  const std::vector<int> cores = sh->workers();
  TTSIM_CHECK(static_cast<int>(cores.size()) == ncores);
  const int nfields = sh->nfields();

  const auto depth = static_cast<std::uint32_t>(std::max(2, sh->read_ahead));
  // Continuous rotation bound. With every read issue gated behind a CB
  // reserve (the prologue is folded into batch 0's reserve below), at most
  // N batches are reserved-but-unpopped, so the newest issued row is at
  // most 2N rows past the oldest row a pending batch still reads — plus 2
  // halo rows for every column boundary inside that window. A window of N
  // batches crosses at most ceil(N/nrows_min) boundaries, which matters
  // when the decomposition leaves fewer rows per core than the read-ahead
  // depth (the conformance sweep's small strips). At the paper's N = 2 on
  // strips of at least two rows that is 9 slots.
  std::uint32_t nrows_min = UINT32_MAX;
  for (const auto& rg : sh->ranges) {
    nrows_min = std::min(nrows_min, rg.row_hi - rg.row_lo);
  }
  nrows_min = std::max(nrows_min, 1u);
  const std::uint32_t nslots =
      2 * depth + 3 + 2 * ((depth + nrows_min - 1) / nrows_min);

  // One stream CB per field any pass references; the accumulator CBs only
  // when a chain is long enough to need them.
  std::vector<char> streamed(static_cast<std::size_t>(nfields), 0);
  ChainCbs chain;
  for (const auto& pass : sh->passes) {
    for (const auto& pf : pass.reads) streamed[static_cast<std::size_t>(pf.field)] = 1;
    chain |= ChainCbs(pass);
  }
  for (int f = 0; f < nfields; ++f) {
    if (streamed[static_cast<std::size_t>(f)]) {
      prog.create_cb(kCbFieldBase + f, cores, kTileBytes, depth);
    }
  }
  prog.create_cb(kCbWgt, cores, kTileBytes, 1);
  create_chain_cbs(prog, cores, chain);
  prog.create_cb(kCbGOut, cores, kTileBytes, 4);
  if (sh->residual_addr != 0) {
    TTSIM_CHECK_MSG(nfields == 1 && sh->passes.size() == 1,
                    "device-side residuals need a single-field single-pass program");
    prog.create_cb(kCbGRes, cores, 32, 1);
  }

  std::uint32_t max_chunk = 16;
  for (const auto& rg : sh->ranges) {
    max_chunk = std::max(max_chunk, std::min(sh->chunk_elems, rg.col_hi - rg.col_lo));
  }
  const std::uint32_t sbytes = slot_bytes_for(max_chunk);
  // Field f's rotation lives at slots_addr + f*nslots*sbytes.
  const std::uint32_t slots_addr = prog.l1_buffer_address(prog.create_l1_buffer(
      cores, static_cast<std::uint64_t>(nfields) * nslots * sbytes));
  const std::uint32_t wtab = prog.l1_buffer_address(prog.create_l1_buffer(
      cores, static_cast<std::uint64_t>(sh->weights.size()) * kTileBytes));
  // Reader and writer rendezvous after EVERY pass: a pass may read fields
  // the previous pass just wrote (FDTD's leapfrog), so no core's reader may
  // start pass p+1 until every writer has finished pass p.
  prog.create_global_barrier(sh->barrier_id, 2 * ncores);

  // ---------------- reading data mover ----------------
  prog.create_kernel(
      ttmetal::KernelKind::kDataMover0, cores,
      [sh, slots_addr, sbytes, depth, nslots](ttmetal::DataMoverCtx& ctx) {
        const ChunkGrid grid(sh->ranges[static_cast<std::size_t>(ctx.position())],
                             sh->chunk_elems, nslots);
        const PaddedLayout& L = sh->layout;
        std::vector<std::uint64_t> src;
        std::vector<std::int64_t> issued_hi, max_row;
        for (int it = 0; it < sh->iterations; ++it) {
          for (std::size_t p = 0; p < sh->passes.size(); ++p) {
            const LoweredPass& pass = sh->passes[p];
            const std::size_t nf = pass.reads.size();
            src.resize(nf);
            issued_hi.resize(nf);
            max_row.resize(nf);
            for (std::size_t e = 0; e < nf; ++e) {
              src[e] = sh->src_of(pass.reads[e].field, it, static_cast<int>(p));
            }
            for (std::uint32_t col = 0; col < grid.ncols; ++col) {
              const std::int64_t c0 = grid.rg.col_lo +
                                      static_cast<std::int64_t>(col) * grid.chunk;
              const std::uint32_t off =
                  static_cast<std::uint32_t>(L.byte_offset(0, c0 - 1) % 32);
              const std::uint32_t read_bytes = (grid.chunk + 2) * 2 + off;
              // Reads are tagged per (field, slot) so a batch waits only on
              // the one row it still needs while `depth` batches of reads
              // stay in flight. A tag is reusable by the time its slot is:
              // row y's read is waited at batch y-hi, long before row
              // y + nslots is issued; tags of different fields never clash.
              auto issue_row = [&](std::size_t e, std::int64_t y) {
                const int f = pass.reads[e].field;
                const std::uint32_t slot = grid.slot_of(col, y);
                ctx.noc_async_read(
                    ctx.get_noc_addr(src[e] + L.byte_offset(y, c0 - 1) - off),
                    slots_addr + (static_cast<std::uint32_t>(f) * nslots + slot) * sbytes,
                    read_bytes,
                    static_cast<int>(static_cast<std::uint32_t>(f) * nslots + slot));
              };

              const std::int64_t r0 = grid.rg.row_lo;
              const std::int64_t r1 = grid.rg.row_hi;
              for (std::size_t e = 0; e < nf; ++e) {
                max_row[e] = r1 - 1 + pass.reads[e].hi;
                issued_hi[e] = r0 + pass.reads[e].lo - 1;
              }
              for (std::int64_t j = r0; j < r1; ++j) {
                // Flow control: a free page means the compute kernel popped
                // batch j-N, so the slots the next issues rotate into are no
                // longer referenced. EVERY issue of this column sits behind
                // one of these reserves — including the first batch's
                // prologue below — which is what bounds the reader's
                // cross-column run-ahead (see the nslots derivation).
                for (std::size_t e = 0; e < nf; ++e) {
                  ctx.cb_reserve_back(kCbFieldBase + pass.reads[e].field, 1);
                }
                // Batch j's furthest input row of field e is j+hi (earlier
                // rows were waited by earlier batches); the first batch
                // issues its whole window [r0+lo, r0+hi] — clamped to the
                // last row any batch of this column needs; fields without
                // vertical taps read one row per batch, so the
                // fewer-taps-run-faster cost structure extends to the
                // reader — and waits it untagged.
                if (j == r0) {
                  for (std::size_t e = 0; e < nf; ++e) {
                    const std::int64_t hi =
                        std::min<std::int64_t>(r0 + pass.reads[e].hi, max_row[e]);
                    while (issued_hi[e] < hi) issue_row(e, ++issued_hi[e]);
                  }
                  ctx.noc_async_read_barrier();
                } else {
                  for (std::size_t e = 0; e < nf; ++e) {
                    const int f = pass.reads[e].field;
                    const std::uint32_t slot = grid.slot_of(
                        col, std::min<std::int64_t>(j + pass.reads[e].hi, max_row[e]));
                    ctx.noc_async_read_barrier(
                        static_cast<int>(static_cast<std::uint32_t>(f) * nslots + slot));
                  }
                }
                // ...and issue non-blocking reads up to N batches ahead.
                for (std::size_t e = 0; e < nf; ++e) {
                  while (issued_hi[e] <
                         std::min<std::int64_t>(j + depth - 1 + pass.reads[e].hi,
                                                max_row[e])) {
                    issue_row(e, ++issued_hi[e]);
                  }
                }
                for (std::size_t e = 0; e < nf; ++e) {
                  ctx.cb_push_back(kCbFieldBase + pass.reads[e].field, 1);
                }
                ctx.loop_tick();
              }
            }
            ctx.global_barrier(sh->barrier_id);
          }
        }
      },
      "stencil_reader");

  // ---------------- compute cores ----------------
  prog.create_kernel(
      cores,
      [sh, slots_addr, sbytes, wtab, nslots](ttmetal::ComputeCtx& ctx) {
        const ChunkGrid grid(sh->ranges[static_cast<std::size_t>(ctx.position())],
                             sh->chunk_elems, nslots);
        const PaddedLayout& L = sh->layout;
        ctx.binary_op_init_common(kCbWgt, kCbFieldBase);
        fill_weight_table(ctx, wtab, sh->weights);
        std::vector<TapAddr> taps;
        bfloat16_t residual{0.0f};
        for (int it = 0; it < sh->iterations; ++it) {
          const bool track = sh->residual_addr != 0 && it == sh->iterations - 1;
          for (const LoweredPass& pass : sh->passes) {
            for (std::uint32_t col = 0; col < grid.ncols; ++col) {
              const std::int64_t c0 = grid.rg.col_lo +
                                      static_cast<std::int64_t>(col) * grid.chunk;
              const std::uint32_t off =
                  static_cast<std::uint32_t>(L.byte_offset(0, c0 - 1) % 32);
              // A redirected tile covers only the chunk's elements, not a
              // full 2 KiB page — declared so the race detector's read spans
              // stay within this batch's slots.
              const std::uint32_t valid = grid.chunk * 2;
              for (std::int64_t j = grid.rg.row_lo; j < grid.rg.row_hi; ++j) {
                for (const auto& pf : pass.reads) {
                  ctx.cb_wait_front(kCbFieldBase + pf.field, 1);
                }
                // Tap alias: field f's row j+dr slot, shifted by dc elements
                // (the slot holds elements from column c0-1).
                auto tap_at = [&](int f, int dr, int dc) {
                  return slots_addr +
                         (static_cast<std::uint32_t>(f) * nslots +
                          grid.slot_of(col, j + dr)) * sbytes +
                         off + static_cast<std::uint32_t>(2 + 2 * dc);
                };
                taps.clear();
                for (const auto& t : pass.terms) {
                  taps.push_back(TapAddr{kCbFieldBase + t.field,
                                         tap_at(t.field, t.dr, t.dc), valid, t.widx});
                }
                const TapAddr self{kCbFieldBase + pass.self_field,
                                   tap_at(pass.self_field, 0, 0), valid, 0};
                emit_tap_chain(ctx, wtab, pass, taps, self, [&](int reg) {
                  ctx.cb_reserve_back(kCbGOut, 1);
                  ctx.pack_tile(reg, kCbGOut);
                  if (track) {
                    // Device-side residual: |new - old| over this chunk,
                    // reduced on the FPU. Alias the freshly packed page and
                    // the source slot's centre row as the two operands.
                    constexpr int dst1 = 1;
                    ctx.cb_set_rd_ptr(kCbGOut, ctx.get_write_ptr(kCbGOut), valid);
                    ctx.cb_set_rd_ptr(kCbWgt, tap_at(pass.target, 0, 0), valid);
                    ctx.sub_tiles(kCbGOut, kCbWgt, 0, 0, dst1);
                    ctx.cb_clear_rd_ptr(kCbGOut);
                    ctx.abs_tile(dst1);
                    const bfloat16_t m = ctx.reduce_max(dst1);
                    if (static_cast<float>(m) > static_cast<float>(residual)) {
                      residual = m;
                    }
                  }
                  ctx.cb_push_back(kCbGOut, 1);
                });
                for (const auto& pf : pass.reads) {
                  ctx.cb_pop_front(kCbFieldBase + pf.field, 1);
                }
                ctx.loop_tick();
              }
            }
          }
        }
        if (sh->residual_addr != 0) {
          ctx.cb_reserve_back(kCbGRes, 1);
          auto* page = reinterpret_cast<bfloat16_t*>(
              ctx.l1_ptr(ctx.get_write_ptr(kCbGRes)));
          page[0] = residual;
          ctx.cb_push_back(kCbGRes, 1);
        }
      },
      "stencil_compute");

  // ---------------- writing data mover ----------------
  prog.create_kernel(
      ttmetal::KernelKind::kDataMover1, cores,
      [sh, nslots](ttmetal::DataMoverCtx& ctx) {
        const ChunkGrid grid(sh->ranges[static_cast<std::size_t>(ctx.position())],
                             sh->chunk_elems, nslots);
        const PaddedLayout& L = sh->layout;
        for (int it = 0; it < sh->iterations; ++it) {
          for (const LoweredPass& pass : sh->passes) {
            const std::uint64_t dst = sh->dst_of(pass.target, it);
            for (std::uint32_t col = 0; col < grid.ncols; ++col) {
              const std::int64_t c0 = grid.rg.col_lo +
                                      static_cast<std::int64_t>(col) * grid.chunk;
              for (std::int64_t j = grid.rg.row_lo; j < grid.rg.row_hi; ++j) {
                ctx.cb_wait_front(kCbGOut, 1);
                ctx.noc_async_write(ctx.get_read_ptr(kCbGOut),
                                    ctx.get_noc_addr(dst + L.byte_offset(j, c0)),
                                    grid.chunk * 2);
                ctx.noc_async_write_barrier();
                ctx.cb_pop_front(kCbGOut, 1);
                ctx.loop_tick();
              }
            }
            ctx.global_barrier(sh->barrier_id);
          }
        }
        if (sh->residual_addr != 0) {
          // One BF16 residual per core, each in its own aligned 32-byte slot.
          ctx.cb_wait_front(kCbGRes, 1);
          ctx.noc_async_write(
              ctx.get_read_ptr(kCbGRes),
              ctx.get_noc_addr(sh->residual_addr +
                               static_cast<std::uint64_t>(ctx.position()) * 32),
              2);
          ctx.noc_async_write_barrier();
          ctx.cb_pop_front(kCbGRes, 1);
        }
      },
      "stencil_writer");
}

}  // namespace detail

std::vector<bfloat16_t> general_field_image(const PaddedLayout& layout,
                                            const GeneralStencilProblem& p,
                                            int field) {
  const FieldSpec& f = p.fields[static_cast<std::size_t>(field)];
  JacobiProblem g = p.geometry();
  g.bc_left = f.bc_left;
  g.bc_right = f.bc_right;
  g.bc_top = f.bc_top;
  g.bc_bottom = f.bc_bottom;
  g.initial = f.initial;
  auto image = layout.initial_image(g);
  if (!f.initial_field.empty()) {
    TTSIM_CHECK_MSG(f.initial_field.size() == p.points(),
                    "initial_field of field " << field
                                              << " must be width*height values");
    for (std::int64_t r = 0; r < p.height; ++r) {
      for (std::int64_t c = 0; c < p.width; ++c) {
        image[layout.index(r, c)] =
            bfloat16_t{f.initial_field[static_cast<std::size_t>(r) * p.width +
                                       static_cast<std::size_t>(c)]};
      }
    }
  }
  return image;
}

namespace detail {

void validate_run_config(const GeneralStencilProblem& p, const DeviceRunConfig& cfg) {
  p.validate();
  if (cfg.read_ahead < 2 || cfg.read_ahead > 64) {
    TTSIM_THROW_API("read_ahead must be in [2, 64] (got " << cfg.read_ahead
                    << "); 2 is the paper's two-batch scheme");
  }
  if (cfg.strategy != DeviceStrategy::kRowChunk &&
      cfg.strategy != DeviceStrategy::kSramResident &&
      cfg.strategy != DeviceStrategy::kTemporal) {
    TTSIM_THROW_API("general stencils lower onto the row-chunk, SRAM-resident "
                    "or temporal strategies (got " << to_string(cfg.strategy)
                    << ")");
  }
  if (!cfg.toggles.all_enabled()) {
    TTSIM_THROW_API("component toggles are a Table II instrument of the tiled "
                    "(Section IV) designs");
  }
  if (cfg.strategy == DeviceStrategy::kSramResident &&
      (p.fields.size() != 1 || p.passes.size() != 1)) {
    TTSIM_THROW_API("the SRAM-resident strategy holds ONE field's slabs in "
                    "L1: single-field single-pass programs only");
  }
  if (cfg.strategy == DeviceStrategy::kTemporal) {
    if (p.passes.size() != 1) {
      TTSIM_THROW_API("temporal tiling chains generations of ONE pass through "
                      "L1: single-pass programs only (multi-pass leapfrogs "
                      "would need every written field's skirt per sub-step)");
    }
    if (cfg.temporal_depth < 1 || cfg.temporal_depth > 8) {
      TTSIM_THROW_API("temporal_depth must be in [1, 8] (got "
                      << cfg.temporal_depth << ")");
    }
  }
  if (cfg.strategy == DeviceStrategy::kSramResident ||
      cfg.strategy == DeviceStrategy::kTemporal) {
    if (cfg.cores_x != 1) {
      TTSIM_THROW_API(to_string(cfg.strategy)
                      << " decomposes in Y only (cores_x == 1)");
    }
    if (p.width > 1024 && p.width % 1024 != 0) {
      TTSIM_THROW_API("SRAM-slab domains must be <= 1024 wide or a multiple of "
                      "1024 (FPU tile packs write straight into the slab)");
    }
  }
}

void check_core_count(const DeviceRunConfig& cfg, int num_workers) {
  if (cfg.cores_x * cfg.cores_y > num_workers) {
    TTSIM_THROW_API("decomposition needs " << cfg.cores_x * cfg.cores_y
                                           << " cores but the card has "
                                           << num_workers << " workers");
  }
}

int grid_passes(const DeviceRunConfig& cfg, int iterations) {
  if (cfg.strategy != DeviceStrategy::kTemporal) return iterations;
  return (iterations + cfg.temporal_depth - 1) / cfg.temporal_depth;
}

std::shared_ptr<GeneralShared> make_general_shared(const GeneralStencilProblem& p,
                                                   const DeviceRunConfig& cfg,
                                                   const CoreSelection& sel) {
  auto sh = std::make_shared<GeneralShared>(PaddedLayout(p.width, p.height));
  lower_program(p, *sh);
  sh->chunk_elems = cfg.chunk_elems;
  sh->read_ahead = cfg.read_ahead;
  sh->temporal_depth = cfg.temporal_depth;
  sh->ranges = decompose(p.geometry(), sel.cores_x, sel.cores_y, 16);
  sh->core_ids = sel.core_ids;
  return sh;
}

void emit_certified(ttmetal::Program& prog, std::shared_ptr<GeneralShared> sh,
                    DeviceStrategy strategy, std::int64_t sram_bytes) {
  ir::lower(make_general_graph(std::move(sh), strategy, sram_bytes), prog);
}

SimTime launch_single_field(ttmetal::Device& device, const GeneralStencilProblem& p,
                            const DeviceRunConfig& cfg, const CoreSelection& sel,
                            std::uint64_t fresh, std::uint64_t other,
                            std::uint64_t residual_addr) {
  TTSIM_CHECK(p.fields.size() == 1);
  auto sh = make_general_shared(p, cfg, sel);
  const bool reads_d2 = p.iterations % 2 != grid_passes(cfg, p.iterations) % 2;
  sh->d1 = {reads_d2 ? other : fresh};
  sh->d2 = {reads_d2 ? fresh : other};
  sh->residual_addr = residual_addr;
  ttmetal::Program prog;
  emit_certified(prog, std::move(sh), cfg.strategy,
                 static_cast<std::int64_t>(device.spec().sram_bytes));
  device.run_program(prog);
  return device.last_kernel_duration();
}

}  // namespace detail

GeneralRunResult run_general_stencil_on_device(ttmetal::Device& device,
                                               const GeneralStencilProblem& p,
                                               const DeviceRunConfig& cfg) {
  detail::validate_run_config(p, cfg);
  detail::check_core_count(cfg, device.num_workers());
  const detail::CoreSelection sel = detail::select_cores(device, p.width, cfg);

  const PaddedLayout layout(p.width, p.height);
  const ttmetal::BufferConfig bc = detail::grid_buffer_config(cfg, layout);
  const int nfields = static_cast<int>(p.fields.size());
  auto shared = detail::make_general_shared(p, cfg, sel);

  // One buffer pair per field — read-only fields live in a single buffer
  // (their "pair" slot stays 0 and src_of always resolves to d1).
  std::vector<decltype(device.create_buffer(bc))> d1(static_cast<std::size_t>(nfields));
  std::vector<decltype(device.create_buffer(bc))> d2(static_cast<std::size_t>(nfields));
  shared->d1.assign(static_cast<std::size_t>(nfields), 0);
  shared->d2.assign(static_cast<std::size_t>(nfields), 0);
  for (int f = 0; f < nfields; ++f) {
    d1[static_cast<std::size_t>(f)] = device.create_buffer(bc);
    shared->d1[static_cast<std::size_t>(f)] = d1[static_cast<std::size_t>(f)]->address();
    if (p.written_pass(f) >= 0) {
      d2[static_cast<std::size_t>(f)] = device.create_buffer(bc);
      shared->d2[static_cast<std::size_t>(f)] = d2[static_cast<std::size_t>(f)]->address();
    }
  }

  const SimTime t_start = device.now();
  for (int f = 0; f < nfields; ++f) {
    const auto image = general_field_image(layout, p, f);
    device.write_buffer(*d1[static_cast<std::size_t>(f)], std::as_bytes(std::span{image}));
    // The parity partner needs the same boundary cells (and, before its
    // first write lands, the same interior the early rows' halo reads see).
    if (d2[static_cast<std::size_t>(f)]) {
      device.write_buffer(*d2[static_cast<std::size_t>(f)], std::as_bytes(std::span{image}));
    }
  }

  ttmetal::Program prog;
  detail::emit_certified(prog, shared, cfg.strategy,
                         static_cast<std::int64_t>(device.spec().sram_bytes));
  device.run_program(prog);

  GeneralRunResult result;
  result.fields.resize(static_cast<std::size_t>(nfields));
  for (int f = 0; f < nfields; ++f) {
    auto& final_buf = shared->final_of(f) == shared->d1[static_cast<std::size_t>(f)]
                          ? *d1[static_cast<std::size_t>(f)]
                          : *d2[static_cast<std::size_t>(f)];
    std::vector<bfloat16_t> out(layout.elems());
    device.read_buffer(final_buf, std::as_writable_bytes(std::span{out}));
    result.fields[static_cast<std::size_t>(f)] = layout.extract_interior(out);
  }
  result.kernel_time = device.last_kernel_duration();
  result.total_time = device.now() - t_start;
  result.cores_used = sel.ncores();
  result.solution = result.fields[static_cast<std::size_t>(p.primary_field())];

  if (cfg.verify) {
    const auto ref = cpu::general_reference_bf16(p);
    result.verified_ok = ref.size() == result.fields.size();
    for (int f = 0; result.verified_ok && f < nfields; ++f) {
      const auto& rf = ref[static_cast<std::size_t>(f)];
      const auto& df = result.fields[static_cast<std::size_t>(f)];
      result.verified_ok = rf.size() == df.size();
      for (std::size_t i = 0; result.verified_ok && i < rf.size(); ++i) {
        if (static_cast<float>(rf[i]) != df[i]) result.verified_ok = false;
      }
    }
  }
  return result;
}

GeneralRunResult run_general_stencil_on_device(const GeneralStencilProblem& p,
                                               const DeviceRunConfig& cfg,
                                               sim::GrayskullSpec spec) {
  auto device = ttmetal::Device::open(spec);
  return run_general_stencil_on_device(*device, p, cfg);
}

void build_batched_stencil_program(ttmetal::Program& prog,
                                   const GeneralStencilProblem& p,
                                   const DeviceRunConfig& cfg,
                                   const std::vector<GeneralBatchSlot>& slots) {
  if (slots.empty()) TTSIM_THROW_API("batched launch needs at least one slot");
  validate_stencil_request(p, cfg);

  const auto ranges = detail::decompose(p.geometry(), cfg.cores_x, cfg.cores_y, 16);
  const std::size_t nfields = p.fields.size();

  std::set<int> used;
  for (std::size_t g = 0; g < slots.size(); ++g) {
    const GeneralBatchSlot& slot = slots[g];
    if (slot.core_ids.size() != ranges.size()) {
      TTSIM_THROW_API("batch slot " << g << " supplies " << slot.core_ids.size()
                      << " cores but the decomposition needs " << ranges.size());
    }
    if (slot.d1.size() != nfields || slot.d2.size() != nfields) {
      TTSIM_THROW_API("batch slot " << g << " must supply one buffer pair per "
                      "field (" << nfields << ")");
    }
    for (int id : slot.core_ids) {
      if (!used.insert(id).second) {
        TTSIM_THROW_API("batch slots must use disjoint cores (worker " << id
                        << " appears twice)");
      }
    }
  }

  for (std::size_t g = 0; g < slots.size(); ++g) {
    const GeneralBatchSlot& slot = slots[g];
    auto shared = detail::make_general_shared(
        p, cfg, detail::CoreSelection{cfg.cores_x, cfg.cores_y, slot.core_ids});
    shared->d1 = slot.d1;
    shared->d2 = slot.d2;
    shared->barrier_id = static_cast<int>(g);
    if (cfg.strategy == DeviceStrategy::kTemporal) {
      detail::build_general_temporal_group(prog, shared);
    } else {
      detail::build_general_rowchunk_group(prog, shared);
    }
  }
}

void validate_stencil_request(const GeneralStencilProblem& p,
                              const DeviceRunConfig& cfg) {
  detail::validate_run_config(p, cfg);
  if (cfg.strategy == DeviceStrategy::kSramResident) {
    TTSIM_THROW_API("batched launches are built on the row-chunk or temporal "
                    "strategies");
  }
  (void)detail::decompose(p.geometry(), cfg.cores_x, cfg.cores_y, 16);
}

ttmetal::BufferConfig batch_grid_buffer_config(const DeviceRunConfig& cfg,
                                               const JacobiProblem& p) {
  return detail::grid_buffer_config(cfg, PaddedLayout(p.width, p.height));
}

DeviceRunResult run_stencil_on_device(ttmetal::Device& device, const StencilProblem& p,
                                      const DeviceRunConfig& cfg) {
  if (p.stencil.active_taps() == 0) TTSIM_THROW_API("stencil has no non-zero taps");
  DeviceRunConfig c = cfg;
  c.toggles = ComponentToggles{};
  if (c.strategy != DeviceStrategy::kSramResident &&
      c.strategy != DeviceStrategy::kTemporal) {
    c.strategy = DeviceStrategy::kRowChunk;
  }
  auto r = run_general_stencil_on_device(device, to_general(p), c);
  DeviceRunResult out;
  out.solution = std::move(r.solution);
  out.kernel_time = r.kernel_time;
  out.total_time = r.total_time;
  out.cores_used = r.cores_used;
  out.verified_ok = r.verified_ok;
  return out;
}

DeviceRunResult run_stencil_on_device(const StencilProblem& p,
                                      const DeviceRunConfig& cfg,
                                      sim::GrayskullSpec spec) {
  auto device = ttmetal::Device::open(spec);
  return run_stencil_on_device(*device, p, cfg);
}

}  // namespace ttsim::core
