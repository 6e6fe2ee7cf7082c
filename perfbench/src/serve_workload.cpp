/// \file serve_workload.cpp
/// serve_mix: 64 tenants send an open-loop Poisson stream of small requests
/// (128 x 128 grids, 4 sweeps) to a StencilService on two e150 cards. The
/// mix is Jacobi row-chunk, Jacobi temporal k = 4, hotspot and fdtd2d. PCIe,
/// dispatch, batching and scheduling dominate; kernels are short.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

#include "serve_workload.hpp"
#include "workloads.hpp"
#include "ttsim/common/rng.hpp"
#include "ttsim/core/gallery.hpp"
#include "ttsim/core/ir_frontend.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/cpu/jacobi_cpu.hpp"
#include "ttsim/cpu/stencil_cpu.hpp"
#include "ttsim/energy/energy.hpp"
#include "ttsim/ir/check.hpp"

namespace perfbench {
namespace {

using namespace ttsim;

constexpr std::uint32_t kGrid = 128;
constexpr int kSweeps = 4;
constexpr int kTemporalDepth = 4;

core::DeviceRunConfig slot_config() {
  core::DeviceRunConfig c;
  c.strategy = core::DeviceStrategy::kRowChunk;
  c.cores_x = 1;
  c.cores_y = 4;
  return c;
}

/// Per-tenant problems: distinct boundary values for every tenant, the
/// interior of the general programs seeded too.
struct TenantProblems {
  core::JacobiProblem jacobi;
  core::GeneralStencilProblem hotspot, fdtd;
};

TenantProblems tenant_problems(int tenant, Rng& rng) {
  TenantProblems t;
  t.jacobi.width = kGrid;
  t.jacobi.height = kGrid;
  t.jacobi.iterations = kSweeps;
  t.jacobi.bc_left = 0.5f + 0.0078125f * static_cast<float>(tenant);
  t.jacobi.bc_right = static_cast<float>(rng.next_double(0.0, 0.5));
  t.jacobi.bc_top = static_cast<float>(rng.next_double());
  t.jacobi.bc_bottom = static_cast<float>(rng.next_double());
  t.jacobi.initial = static_cast<float>(rng.next_double());
  t.hotspot = core::gallery::hotspot(kGrid, kGrid, kSweeps);
  t.fdtd = core::gallery::fdtd2d(kGrid, kGrid, kSweeps);
  seed_fields(t.hotspot, rng);
  seed_fields(t.fdtd, rng);
  return t;
}

const core::GeneralStencilProblem* general_of(const TenantProblems& t, RequestKind k) {
  switch (k) {
    case RequestKind::kHotspot: return &t.hotspot;
    case RequestKind::kFdtd2d: return &t.fdtd;
    default: return nullptr;
  }
}

/// Seeded gaps and kinds, stratified in blocks of kBlock requests. Within
/// a block the gaps sit at the kBlock strata of the exponential (gap i at
/// quantile (i + u) / kBlock) and the kinds follow the fixed proportions
/// 3 : 1 : 2 : 2 (Jacobi row-chunk, Jacobi temporal, hotspot, fdtd2d); both
/// are shuffled within the block. Every gap is still exponentially
/// distributed and bursts still form inside a block, but every seed offers
/// the same load and the same mix at the scale of one batch, so the
/// percentiles of a few hundred requests compare across seeds.
constexpr int kBlock = 8;
constexpr RequestKind kBlockKinds[kBlock] = {
    RequestKind::kJacobiRowChunk, RequestKind::kJacobiRowChunk,
    RequestKind::kJacobiRowChunk, RequestKind::kJacobiTemporal,
    RequestKind::kHotspot,        RequestKind::kHotspot,
    RequestKind::kFdtd2d,         RequestKind::kFdtd2d};

template <class T>
void shuffle(T* first, std::size_t n, Rng& rng) {
  for (std::size_t i = n; i > 1; --i) std::swap(first[i - 1], first[rng.next_below(i)]);
}

/// Union length of possibly overlapping [begin, end) intervals.
SimTime union_length(std::vector<std::pair<SimTime, SimTime>> iv) {
  std::sort(iv.begin(), iv.end());
  SimTime total = 0, end = 0;
  for (auto [b, e] : iv) {
    b = std::max(b, end);
    if (e > b) {
      total += e - b;
      end = e;
    }
  }
  return total;
}

/// The layers below the service, as far as the public API shows them. The
/// service keeps its cards' Devices private, so engine events, core solve
/// host time, PCIe bytes and the DRAM, NoC, FPU, mover, CB and sync figures
/// come from solving the stream's first request of each kind once on a
/// bare card with the service's per-slot configuration: untraced for the
/// host time and events, traced for the device metrics. The IR certificate
/// of the same four programs is timed alongside.
struct BareCardProfile {
  double events = 0, solve_s = 0, certify_ms = 0;
  DeviceLayers device;
  bool certified = true;
};

BareCardProfile bare_card_profile(const ServeInputs& in) {
  BareCardProfile out;
  ttmetal::DeviceConfig traced;
  traced.enable_trace = true;
  for (RequestKind kind : {RequestKind::kJacobiRowChunk, RequestKind::kJacobiTemporal,
                           RequestKind::kHotspot, RequestKind::kFdtd2d}) {
    const auto i = static_cast<std::size_t>(
        std::find(in.kinds.begin(), in.kinds.end(), kind) - in.kinds.begin());
    const serve::Request& r = in.requests.at(i);
    core::DeviceRunConfig cfg = slot_config();
    if (r.strategy) {
      cfg.strategy = *r.strategy;
      cfg.temporal_depth = r.temporal_depth;
    }
    auto solve = [&](ttmetal::Device& dev) {
      if (r.general) {
        core::run_general_stencil_on_device(dev, *r.general, cfg);
      } else {
        core::run_jacobi_on_device(dev, r.problem, cfg);
      }
    };
    out.certify_ms += 1e3 * timed([&] {
      const ir::Graph g = r.general ? core::general_ir_graph(*r.general, cfg)
                                    : core::jacobi_ir_graph(r.problem, cfg);
      out.certified = out.certified && ir::check(g).empty();
    });
    auto dev = ttmetal::Device::open(sim::GrayskullSpec{});
    const auto ev0 = dev->hw().engine().events_processed();
    out.solve_s += timed([&] { solve(*dev); });
    out.events += static_cast<double>(dev->hw().engine().events_processed() - ev0);
    auto tdev = ttmetal::Device::open(sim::GrayskullSpec{}, traced);
    solve(*tdev);
    out.device.merge(DeviceLayers::from(tdev->metrics()));
  }
  return out;
}

}  // namespace

ServeInputs serve_inputs(std::uint64_t seed, double offered_rps, int requests) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5E4E);
  ServeInputs in;
  std::vector<TenantProblems> tenants;
  for (int t = 0; t < kServeTenants; ++t) tenants.push_back(tenant_problems(t, rng));
  const double mean_gap_s = 1.0 / offered_rps;
  double gaps[kBlock];
  RequestKind kinds[kBlock];
  SimTime at = 0;
  for (int i = 0; i < requests; ++i) {
    const int slot = i % kBlock;
    if (slot == 0) {
      for (int k = 0; k < kBlock; ++k) {
        const double q = (k + rng.next_double()) / kBlock;
        gaps[k] = -mean_gap_s * std::log1p(-std::min(q, 1.0 - 1e-12));
        kinds[k] = kBlockKinds[k];
      }
      shuffle(gaps, kBlock, rng);
      shuffle(kinds, kBlock, rng);
    }
    at += static_cast<SimTime>(gaps[slot] * static_cast<double>(kSecond));
    const int tenant = static_cast<int>(rng.next_below(kServeTenants));
    const RequestKind kind = kinds[slot];
    serve::Request r;
    r.tenant = tenant;
    r.arrival = at;
    const TenantProblems& tp = tenants[static_cast<std::size_t>(tenant)];
    if (const auto* g = general_of(tp, kind)) {
      r.general = *g;
    } else {
      r.problem = tp.jacobi;
      if (kind == RequestKind::kJacobiTemporal) {
        r.strategy = core::DeviceStrategy::kTemporal;
        r.temporal_depth = kTemporalDepth;
      }
    }
    in.requests.push_back(std::move(r));
    in.kinds.push_back(kind);
  }
  return in;
}

serve::ServiceConfig serve_config(bool device_trace) {
  serve::ServiceConfig cfg;
  cfg.cards = kServeCards;
  cfg.run = slot_config();
  cfg.max_batch = kServeMaxBatch;
  cfg.queue_capacity = 4096;  // open loop: nothing is refused
  cfg.device.enable_trace = device_trace;
  return cfg;
}

ServeRun run_serve(const ServeInputs& in, serve::StencilService& svc) {
  ServeRun out;
  out.ids.reserve(in.requests.size());
  out.submit_s = timed([&] {
    for (const auto& r : in.requests) out.ids.push_back(svc.submit(r).id);
  });
  out.drain_s = timed([&] { svc.drain(); });

  // Everything below reads public results, spans and metrics.
  SimTime first_arrival = in.requests.front().arrival, last_done = 0;
  std::map<int, std::vector<std::pair<SimTime, SimTime>>> kernel_by_card;
  for (std::size_t i = 0; i < out.ids.size(); ++i) {
    const auto& r = svc.result(out.ids[i]);
    out.status.push_back(r.status);
    out.solutions.push_back(r.solution);
    if (r.status != serve::RequestStatus::kCompleted) continue;
    out.latency_ms.push_back(ms(r.completed - in.requests[i].arrival));
    last_done = std::max(last_done, r.completed);
    const auto& req = in.requests[i];
    out.updates += req.general ? static_cast<double>(req.general->total_updates())
                               : static_cast<double>(req.problem.total_updates());
  }
  out.makespan = last_done - first_arrival;
  std::vector<double> qwait, h2d, kernel, d2h;
  for (const auto& e : svc.spans().events()) {
    switch (e.kind) {
      case sim::TraceEventKind::kServeQueueWait: qwait.push_back(ms(e.dur)); break;
      case sim::TraceEventKind::kServeH2D: h2d.push_back(ms(e.dur)); break;
      case sim::TraceEventKind::kServeD2H: d2h.push_back(ms(e.dur)); break;
      case sim::TraceEventKind::kServeKernel:
        kernel.push_back(ms(e.dur));
        kernel_by_card[e.track].emplace_back(e.ts, e.ts + e.dur);
        break;
      default: break;
    }
  }
  SimTime busy = 0;
  for (auto& [track, iv] : kernel_by_card) busy += union_length(std::move(iv));
  out.kernel_busy_per_card = busy / kServeCards;
  out.pcie_ms = sum(h2d) + sum(d2h);
  out.queue_wait_p50_ms = median(qwait);
  out.h2d_p50_ms = median(h2d);
  out.kernel_p50_ms = median(kernel);
  out.d2h_p50_ms = median(d2h);

  const auto& m = svc.metrics();
  out.batches = m.batches;
  out.batched_requests = m.batched_requests;
  out.session_misses = m.session_cache_misses;
  out.sharded_sessions = m.sharded_sessions;
  out.link_bytes = m.sharded_link_bytes;
  std::uint64_t submitted = 0, settled = 0;
  for (const auto& [tenant, ts] : m.tenants) {
    submitted += ts.submitted;
    settled += ts.completed + ts.failed + ts.rejected;
  }
  out.books_balance = submitted == in.requests.size() && settled == submitted;
  return out;
}

bool check_serve(const ServeInputs& in, const ServeRun& run, std::vector<bool>& ok,
                 double& ref_gpts) {
  // Every ticket settles exactly once: distinct ids, none left queued, and
  // the per-tenant books agree with the ticket outcomes.
  auto ids = run.ids;
  std::sort(ids.begin(), ids.end());
  bool books = run.books_balance &&
               std::adjacent_find(ids.begin(), ids.end()) == ids.end();
  ok.assign(in.requests.size(), false);
  // References are per tenant and kind: cache them.
  std::map<std::pair<int, int>, std::vector<bfloat16_t>> refs;
  double ref_s = 0, ref_updates = 0;
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    books = books && run.status[i] != serve::RequestStatus::kQueued;
    if (run.status[i] != serve::RequestStatus::kCompleted) continue;
    const auto& req = in.requests[i];
    // Both Jacobi kinds compute the same bits (temporal is bit-exact with
    // row-chunk sweeps), so they share one reference.
    const int kind = req.general ? static_cast<int>(in.kinds[i]) : 0;
    auto it = refs.find({req.tenant, kind});
    if (it == refs.end()) {
      std::vector<bfloat16_t> ref;
      ref_s += timed([&] {
        if (req.general) {
          ref = cpu::general_reference_bf16(*req.general)[static_cast<std::size_t>(
              req.general->primary_field())];
        } else {
          ref = cpu::jacobi_reference_bf16(req.problem);
        }
      });
      ref_updates += req.general ? static_cast<double>(req.general->total_updates())
                                 : static_cast<double>(req.problem.total_updates());
      it = refs.emplace(std::pair{req.tenant, kind}, std::move(ref)).first;
    }
    ok[i] = same_bits(run.solutions[i], it->second) &&
            (req.general || jacobi_in_bounds(req.problem, run.solutions[i]));
  }
  ref_gpts = ref_updates / 1e9 / ref_s;
  return books;
}

void serve_mix(const Options& opt, Report& rep) {
  const ServeInputs in = serve_inputs(opt.seed, kServeOfferedRps, kServeRequests);
  std::vector<double> setup_s, host_s, traced_s, submit_ms, drain_s;
  std::vector<double> bare_solve_s, bare_certify_ms;
  BareCardProfile bare;
  ServeRun first;
  std::vector<bool> same;  // later rounds delivered the first round's bits

  const int rounds = run_rounds(opt.seconds, [&](int round) {
    std::unique_ptr<serve::StencilService> svc;
    setup_s.push_back(timed(
        [&] { svc = std::make_unique<serve::StencilService>(serve_config(false)); }));
    ServeRun run = run_serve(in, *svc);
    host_s.push_back(run.submit_s + run.drain_s);
    submit_ms.push_back(run.submit_s * 1e3);
    drain_s.push_back(run.drain_s);
    if (round == 0) {
      first = std::move(run);
    } else {
      same.push_back(run.solutions == first.solutions && run.latency_ms == first.latency_ms);
    }
    if (opt.trace) {
      serve::StencilService traced_svc(serve_config(true));
      const ServeRun traced = run_serve(in, traced_svc);
      traced_s.push_back(traced.submit_s + traced.drain_s);
      same.push_back(traced.solutions == first.solutions &&
                     traced.latency_ms == first.latency_ms);
      bare = bare_card_profile(in);
      bare_solve_s.push_back(bare.solve_s);
      bare_certify_ms.push_back(bare.certify_ms);
    }
  });
  rep.digest(fnv1a(first.latency_ms, 0));
  for (const auto& s : first.solutions) rep.digest(fnv1a(s, 0));

  log_samples("round host s", host_s);
  log_samples("serve submit host ms", submit_ms);
  log_samples("serve drain host s", drain_s);
  const double makespan_s = to_seconds(first.makespan);
  if (!opt.trace) {
    const double setup = setup_median(setup_s, 51, [] {
      return std::make_unique<serve::StencilService>(serve_config(false));
    });
    const energy::CardEnergyModel card{sim::GrayskullSpec{}};
    const double joules = card.joules_multicard(
        first.makespan, kServeMaxBatch * slot_config().cores_y, kServeCards);
    const auto within = static_cast<double>(std::count_if(
        first.latency_ms.begin(), first.latency_ms.end(),
        [](double l) { return l <= kServeLatencyLimitMs; }));
    rep.add("sim_gpts", first.updates / 1e9 / makespan_s, "GPt/s");
    rep.add("sim_kernel_gpts", first.updates / 1e9 / to_seconds(first.kernel_busy_per_card),
            "GPt/s");
    rep.add("sim_j_per_gpt", joules / (first.updates / 1e9), "J/GPt");
    rep.add("op_p50_ms", percentile(first.latency_ms, 0.50), "sim_ms");
    rep.add("op_p95_ms", percentile(first.latency_ms, 0.95), "sim_ms");
    rep.add("goodput_ops_per_s", within / makespan_s, "1/s");
    rep.add("host_wall_s", median(host_s), "s");
    rep.add("setup_s", setup, "s");
  }

  std::vector<bool> ok;
  double ref_gpts = 0;
  const bool books = check_serve(in, first, ok, ref_gpts);
  bool repeat_ok = books && bare.certified;
  for (bool s : same) repeat_ok = repeat_ok && s;
  // Every round and every traced rerun submits the same stream; each of
  // their requests passes when the first round's copy passed and the rerun
  // reproduced it.
  const int runs = rounds * (opt.trace ? 2 : 1);
  for (int r = 0; r < runs; ++r) {
    for (std::size_t i = 0; i < ok.size(); ++i) {
      if (first.status[i] == serve::RequestStatus::kCompleted) {
        rep.op(ok[i] && repeat_ok);
      } else {
        rep.op_error();
      }
    }
  }
  if (!opt.trace) return;

  // Requests of 128 x 128 fit one card, so the service forms no card
  // groups and the chip-link and sharding figures stay zero.
  if (first.sharded_sessions != 0) throw std::logic_error("serve_mix formed card groups");
  Layers layers;
  layers.engine_events = bare.events;
  layers.solve_host_s = median(bare_solve_s);
  layers.certify_host_ms = median(bare_certify_ms);
  layers.trace_overhead = median(traced_s) / median(host_s);
  layers.cpu_ref_gpts = ref_gpts;
  layers.pcie_ms = first.pcie_ms;
  layers.launches = static_cast<double>(first.batches);
  layers.kernel_ms = ms(first.kernel_busy_per_card) * kServeCards;
  layers.device = bare.device;
  layers.link_bytes = static_cast<double>(first.link_bytes);
  layers.mean_batch =
      static_cast<double>(first.batched_requests) / static_cast<double>(first.batches);
  layers.session_misses = static_cast<double>(first.session_misses);
  layers.queue_wait_p50_ms = first.queue_wait_p50_ms;
  layers.h2d_p50_ms = first.h2d_p50_ms;
  layers.kernel_p50_ms = first.kernel_p50_ms;
  layers.d2h_p50_ms = first.d2h_p50_ms;
  rep.add_layers(layers);
}

}  // namespace perfbench
