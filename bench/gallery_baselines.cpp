/// \file gallery_baselines.cpp
/// Throughput of the generic-frontend gallery workloads against the Jacobi
/// row-chunk baseline at the same geometry and core grid. All of them run
/// through the same general lowering (Jacobi as jacobi_program: four taps
/// summed, one scale). The lowering streams one CB per field and runs one
/// FPU pipeline per pass, so per-cell cost grows with fields x passes x
/// taps — this table quantifies that cost (see EXPERIMENTS.md).
///
///   $ ./bench/gallery_baselines [--full | --quick]

#include <vector>

#include "bench_util.hpp"
#include "ttsim/core/gallery.hpp"
#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/stencil.hpp"

int main(int argc, char** argv) {
  using namespace ttsim;
  const auto opts = bench::BenchOptions::parse(argc, argv);
  bench::print_header(
      "Gallery workloads vs the Jacobi row-chunk baseline, 256x256, 1x4 cores",
      opts);

  const std::uint32_t w = 256, h = 256;
  const int iters = opts.jacobi_iters > 0 ? opts.jacobi_iters : 100;
  core::DeviceRunConfig cfg;
  cfg.strategy = core::DeviceStrategy::kRowChunk;
  cfg.cores_y = 4;

  // The baseline every gallery row is normalized against.
  core::JacobiProblem jp;
  jp.width = w;
  jp.height = h;
  jp.iterations = iters;
  const auto jr = core::run_jacobi_on_device(jp, cfg);
  const double jacobi_gpts = jr.gpts(jp, /*kernel_only=*/true);

  Table t{"Workload", "Fields", "Passes", "Taps", "GPt/s", "vs Jacobi"};
  t.add_row("jacobi (baseline)", "1", "1", "4", Table::fmt(jacobi_gpts, 3),
            "1.00x");
  for (const auto& named : core::gallery::suite(w, h, iters)) {
    std::size_t taps = 0;
    for (const auto& pass : named.problem.passes) taps += pass.terms.size();
    const auto r = core::run_general_stencil_on_device(named.problem, cfg);
    const double updates =
        static_cast<double>(w) * h * static_cast<double>(iters);
    const double gpts = r.kernel_time > 0
        ? updates / 1e9 / to_seconds(r.kernel_time)
        : 0.0;
    t.add_row(named.name, std::to_string(named.problem.fields.size()),
              std::to_string(named.problem.passes.size()), std::to_string(taps),
              Table::fmt(gpts, 3),
              Table::fmt(jacobi_gpts > 0 ? gpts / jacobi_gpts : 0.0, 2) + "x");
  }
  t.print(std::cout);
  std::cout << "\n(GPt/s counts primary-grid cell updates per second; "
               "multi-pass workloads do proportionally more FPU work per "
               "update.)\n";
  return 0;
}
