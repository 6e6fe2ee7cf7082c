/// \file main.cpp
/// Workload runner: one workload per process.
///
///   perfbench_workload --workload <name> --seed <n> --seconds <s> --trace <0|1>
///   perfbench_workload --selfcheck
///
/// A human-readable table goes to stderr; the last line of stdout is the
/// JSON result {"correct", "attempted", "failed", "metrics"}. With
/// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
/// per-layer ones.

#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench_workload --workload "
               "<table8_fullcard|gallery_mix|table8_4card|serve_mix> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "       perfbench_workload --selfcheck\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selfcheck") return selfcheck(std::cerr) ? 0 : 1;
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else {
      return usage();
    }
  }
  void (*workload)(const Options&, Report&) = nullptr;
  if (opt.workload == "table8_fullcard") workload = table8_fullcard;
  if (opt.workload == "gallery_mix") workload = gallery_mix;
  if (opt.workload == "table8_4card") workload = table8_4card;
  if (opt.workload == "serve_mix") workload = serve_mix;
  if (!workload || opt.seconds <= 0) return usage();

  Report rep;
  try {
    workload(opt, rep);
  } catch (const std::exception& e) {
    std::cerr << opt.workload << ": " << e.what() << "\n";
    return 1;
  }
  if (!opt.trace) rep.add("host_peak_rss_mb", peak_rss_mb(), "MB");
  std::cerr << opt.workload << " seed " << opt.seed << (opt.trace ? " traced" : "")
            << ":\n";
  rep.print_table(std::cerr);
  rep.print_json(std::cout);
  return 0;
}
