/// \file selfcheck.cpp
/// Sensitivity self-check: with public configuration only, show that the
/// benchmark's metrics move when the layer they name is changed.
///
///  1. table8_fullcard geometry: deep read-ahead + pipelined banks +
///     balanced stripes raise the kernel rate and drain the hot bank's queue.
///  2. A gallery program: temporal k = 4 cuts DRAM bytes at least 3x
///     against k = 1.
///  3. enable_trace raises host time and leaves every simulated time and
///     every solution bit identical.
///  4. serve_mix: a higher offered rate raises the p95 latency.

#include <memory>
#include <ostream>

#include "serve_workload.hpp"
#include "workloads.hpp"
#include "ttsim/core/stencil.hpp"

namespace perfbench {
namespace {

using namespace ttsim;

struct Traced {
  double kernel_gpts = 0;
  DeviceLayers layers;
};

Traced traced_jacobi(const core::JacobiProblem& p, const core::DeviceRunConfig& cfg,
                     const sim::GrayskullSpec& spec) {
  ttmetal::DeviceConfig dc;
  dc.enable_trace = true;
  auto dev = ttmetal::Device::open(spec, dc);
  const auto r = core::run_jacobi_on_device(*dev, p, cfg);
  return {r.gpts(p, /*kernel_only=*/true), DeviceLayers::from(dev->metrics())};
}

struct GeneralRun {
  double host_s = 0;
  core::GeneralRunResult result;
  DeviceLayers layers;
};

GeneralRun run_general(const GalleryOp& g, bool trace) {
  ttmetal::DeviceConfig dc;
  dc.enable_trace = trace;
  auto dev = ttmetal::Device::open({}, dc);
  GeneralRun out;
  out.host_s = timed([&] { out.result = core::run_general_stencil_on_device(*dev, g.problem, g.config); });
  if (trace) out.layers = DeviceLayers::from(dev->metrics());
  return out;
}

bool verdict(std::ostream& log, const char* what, bool pass) {
  log << (pass ? "  PASS  " : "  FAIL  ") << what << "\n";
  return pass;
}

}  // namespace

bool selfcheck(std::ostream& log) {
  bool all = true;
  log << "sensitivity self-check\n";

  {  // 1. memory-system depth on the Table VIII geometry
    const auto p = table8_problem(1);
    const auto base = traced_jacobi(p, table8_config(), {});
    auto deep_cfg = table8_config();
    deep_cfg.read_ahead = 8;
    deep_cfg.balanced_stripes = true;
    sim::GrayskullSpec deep_spec;
    deep_spec.dram_bank_pipeline = true;
    const auto deep = traced_jacobi(p, deep_cfg, deep_spec);
    log << "  table8_fullcard sim_kernel_gpts " << base.kernel_gpts << " -> "
        << deep.kernel_gpts << " GPt/s; dram.hot_bank_queue_depth "
        << base.layers.hot_bank_queue_depth << " -> " << deep.layers.hot_bank_queue_depth
        << "\n";
    all &= verdict(log, "deep read-ahead raises sim_kernel_gpts",
                   deep.kernel_gpts > base.kernel_gpts * 1.1);
    all &= verdict(log, "deep read-ahead lowers dram.hot_bank_queue_depth",
                   deep.layers.hot_bank_queue_depth < base.layers.hot_bank_queue_depth);
  }

  const auto ops = gallery_ops(1);
  const GalleryOp& rowchunk = ops.front();  // hotspot, row-chunk
  {  // 2. temporal chaining on a gallery program
    GalleryOp k1 = ops[4];  // hotspot, temporal k = 4
    GalleryOp k4 = ops[4];
    k1.config.temporal_depth = 1;
    const auto a = run_general(k1, true);
    const auto b = run_general(k4, true);
    log << "  " << k4.name << " dram.bytes k=1 " << a.layers.dram_bytes << ", k=4 "
        << b.layers.dram_bytes << "\n";
    all &= verdict(log, "temporal k=4 cuts dram.bytes at least 3x",
                   a.layers.dram_bytes >= 3.0 * b.layers.dram_bytes);
  }

  {  // 3. tracing costs host time and changes nothing simulated
    // Back-to-back pairs, so a drift in host speed hits both sides alike.
    std::vector<double> plain_s, traced_s, ratio;
    bool identical = true;
    GeneralRun first;
    for (int i = 0; i < 9; ++i) {
      auto plain = run_general(rowchunk, false);
      auto traced = run_general(rowchunk, true);
      plain_s.push_back(plain.host_s);
      traced_s.push_back(traced.host_s);
      ratio.push_back(traced.host_s / plain.host_s);
      if (i == 0) first = plain;
      for (const auto* r : {&plain.result, &traced.result}) {
        identical = identical && r->fields == first.result.fields &&
                    r->kernel_time == first.result.kernel_time &&
                    r->total_time == first.result.total_time;
      }
    }
    log << "  " << rowchunk.name << " host_wall_s " << median(plain_s) << " -> "
        << median(traced_s) << " traced (median pair ratio " << median(ratio) << ")\n";
    all &= verdict(log, "enable_trace raises host_wall_s", median(ratio) > 1.0);
    all &= verdict(log, "enable_trace leaves simulated times and solutions identical",
                   identical);
  }

  {  // 4. offered load on the service
    const int n = 120;
    serve::StencilService base_svc(serve_config(false)), hot_svc(serve_config(false));
    const auto base = run_serve(serve_inputs(1, kServeOfferedRps, n), base_svc);
    const auto hot = run_serve(serve_inputs(1, 2.0 * kServeOfferedRps, n), hot_svc);
    const double p95 = percentile(base.latency_ms, 0.95);
    const double hot_p95 = percentile(hot.latency_ms, 0.95);
    log << "  serve_mix op_p95_ms " << p95 << " at " << kServeOfferedRps << " req/s, "
        << hot_p95 << " at " << 2.0 * kServeOfferedRps << " req/s\n";
    all &= verdict(log, "a higher offered rate raises op_p95_ms", hot_p95 > p95);
  }
  log << (all ? "self-check passed\n" : "self-check FAILED\n");
  return all;
}

}  // namespace perfbench
