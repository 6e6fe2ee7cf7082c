#pragma once
/// \file harness.hpp
/// Shared plumbing of the workload runner: host timing, order statistics,
/// the bit-exact solution checks, and the one-line JSON result.
///
/// Every workload follows the same shape: generate its inputs from the
/// seed, bring its simulated hardware up (timed as set-up), run whole
/// rounds of the same operations until the time budget is spent (each
/// public call timed on the host), and only then check every result
/// against the CPU BF16 references. Nothing the checks or the input
/// generation cost lands inside a timed window.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ttsim/bfloat/bfloat16.hpp"
#include "ttsim/common/units.hpp"
#include "ttsim/core/problem.hpp"
#include "ttsim/sim/metrics.hpp"
#include "ttsim/ttmetal/device.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host seconds spent in `f()`.
template <class F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Median (mean of the middle pair for even sizes); 0 for no samples.
double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 1]: the smallest sample with at
/// least p of the samples at or below it.
double percentile(std::vector<double> v, double p);
double sum(const std::vector<double>& v);

/// Print per-round host samples to stderr: the sample count and spread
/// behind each reported median.
void log_samples(const char* name, const std::vector<double>& per_round);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

inline double ms(ttsim::SimTime t) { return ttsim::to_seconds(t) * 1e3; }

/// Bit-for-bit comparison of a device interior (exact widening of BF16)
/// against a BF16 reference.
bool same_bits(std::span<const float> got, std::span<const ttsim::bfloat16_t> want);

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
template <class T>
std::uint64_t fnv1a(const std::vector<T>& v, std::uint64_t h) {
  return fnv1a(v.data(), v.size() * sizeof(T), h);
}

class Report;

/// The discrete maximum principle of the Jacobi averaging stencil: every
/// interior value lies between the smallest and the largest boundary or
/// initial value (BF16-rounded, as the device stores them).
bool jacobi_in_bounds(const ttsim::core::JacobiProblem& p, std::span<const float> got);

/// Per-operation result ledger. Rounds repeat the same operations, so
/// operation `slot` must return the same bits in every round: the first
/// round's solution is kept for the reference check after the timed
/// window, later rounds are compared against it on the spot.
class Ledger {
 public:
  void record(std::size_t slot, const std::vector<float>& solution);
  const std::vector<float>& first(std::size_t slot) const { return first_.at(slot); }
  /// Count every recorded operation in `rep`: it passes when its slot's
  /// first solution passed the reference check (`slot_ok`) and it matched
  /// that solution bit for bit.
  void settle(Report& rep, const std::vector<bool>& slot_ok) const;
  /// Hash of every slot's first solution.
  std::uint64_t hash() const;

 private:
  std::vector<std::vector<float>> first_;
  std::vector<std::pair<std::size_t, bool>> ops_;  // (slot, same as first)
};

/// Number of program launches in a traced device's capture: kernel
/// starts divided by the kernels one launch of the last program spawns.
double count_launches(ttsim::ttmetal::Device& dev);

/// Device-side per-layer figures distilled from one traced run's
/// MetricsReport, summed over kernels (and over cards when merged).
struct DeviceLayers {
  double dram_bytes = 0, dram_row_misses = 0;
  double hot_bank_util = 0, hot_bank_queue_depth = 0, aggregate_util = 0;
  double noc_bytes = 0, noc_busy_ms = 0;
  double fpu_busy_ms = 0, mover_issue_ms = 0, mover_memcpy_ms = 0;
  double cb_full_wait_ms = 0, cb_empty_wait_ms = 0, sync_wait_ms = 0;
  double pcie_bytes = 0;

  static DeviceLayers from(const ttsim::sim::MetricsReport& r);
  /// Accumulate another run or card: extensive figures add, utilisations
  /// and queue depths keep the worst (hottest) value.
  void merge(const DeviceLayers& o);
};

/// Every per-layer metric of a traced run. A workload fills what its
/// layers do; a layer it never enters keeps its zeros (no work done, no
/// time spent there), so every traced run reports the same metric set.
/// Simulated durations carry the unit "sim_ms", host durations "s"/"ms".
struct Layers {
  double engine_events = 0;    ///< simulator events in the timed solves
  double solve_host_s = 0;     ///< host seconds in those solves
  double certify_host_ms = 0;  ///< IR graph construction plus ir::check
  double trace_overhead = 0;   ///< traced / untraced host seconds
  double cpu_ref_gpts = 0;     ///< single-thread CPU BF16 reference rate
  double pcie_ms = 0, launches = 0, kernel_ms = 0;
  DeviceLayers device;
  double link_bytes = 0, link_messages = 0, exchange_ms = 0, epochs = 0;
  double mean_batch = 0, session_misses = 0;
  double queue_wait_p50_ms = 0, h2d_p50_ms = 0, kernel_p50_ms = 0, d2h_p50_ms = 0;
};

/// One simulated operation (a solve) as the end-to-end metrics see it.
struct SimOp {
  double updates = 0;        ///< point updates delivered
  ttsim::SimTime kernel = 0; ///< simulated kernel time
  ttsim::SimTime total = 0;  ///< simulated time including PCIe and dispatch
  double joules = 0;         ///< card energy over `total`
};

/// The result of one workload process: the operation tallies, the metrics
/// in insertion order, and a digest of everything simulated (solutions and
/// simulated times) for the repeatability check.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Every per-layer metric, in the order of BENCHMARK.json.
  void add_layers(const Layers& l);
  /// Count one operation; `ok` is false when any of its checks failed (a
  /// wrong answer: the operation fails and the run is not correct).
  void op(bool ok) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      correct_ = false;
    }
  }
  /// Count one operation that the program refused with a typed error: it
  /// failed, but delivered no wrong answer.
  void op_error() {
    ++attempted_;
    ++failed_;
  }
  void digest(std::uint64_t h) { digest_ = fnv1a(&h, sizeof h, digest_); }

  /// The contract line: {"correct", "attempted", "failed", "metrics"}.
  void print_json(std::ostream& os) const;
  /// Human-readable table on stderr-style streams.
  void print_table(std::ostream& os) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
};

/// End-to-end metrics of a solver workload: the simulated ones from one
/// round of operations (every round repeats the same operations, so every
/// round simulates the same times), and the host ones. Solver operations
/// run back to back with no latency limit, so goodput is operations per
/// simulated second.
void add_solver_end_to_end(Report& rep, const std::vector<SimOp>& round,
                           double host_wall_s, double setup_s);

/// Round loop: run `round(n)` until `seconds` of host time have passed,
/// at least once. Returns the number of rounds run.
template <class F>
int run_rounds(double seconds, F&& round) {
  const auto t0 = Clock::now();
  int n = 0;
  do {
    round(n);
    ++n;
  } while (seconds_since(t0) < seconds);
  return n;
}

/// Host samples of a solver workload, one per round (or per operation when
/// a round is one operation).
struct HostSamples {
  std::vector<double> setup_s, solve_s, traced_s, certify_ms, events;
};

/// The host-side layer figures of a solver workload: medians of engine
/// events, solve and IR-certificate host time, and the tracing overhead
/// (traced / untraced median).
void add_host_samples(Layers& l, const HostSamples& h);

/// Set-up samples: pad `samples` with extra bring-ups until it holds at
/// least `n`, then return the median. `bring_up()` returns what it brought
/// up, so tearing it down stays outside the timed window.
template <class F>
double setup_median(std::vector<double>& samples, std::size_t n, F&& bring_up) {
  while (samples.size() < n) {
    decltype(bring_up()) up;
    samples.push_back(timed([&] { up = bring_up(); }));
  }
  return median(samples);
}

}  // namespace perfbench
