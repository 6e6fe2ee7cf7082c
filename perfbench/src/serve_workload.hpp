#pragma once
/// \file serve_workload.hpp
/// The serve_mix stream and one service run over it, shared by the
/// workload and the sensitivity self-check (which offers a higher rate).

#include <cstdint>
#include <vector>

#include "ttsim/serve/serve.hpp"

namespace perfbench {

inline constexpr int kServeTenants = 64;
inline constexpr int kServeCards = 2;
inline constexpr int kServeMaxBatch = 8;
inline constexpr int kServeRequests = 240;
/// Offered load: three quarters of the two cards' saturation rate at the
/// benchmark's first commit (README, "serve_mix load").
inline constexpr double kServeSaturationRps = 16000.0;
inline constexpr double kServeOfferedRps = 0.75 * kServeSaturationRps;
/// Goodput counts requests completed within this simulated latency.
inline constexpr double kServeLatencyLimitMs = 5.0;

enum class RequestKind : std::uint8_t {
  kJacobiRowChunk,
  kJacobiTemporal,
  kHotspot,
  kFdtd2d,
};

struct ServeInputs {
  std::vector<ttsim::serve::Request> requests;  ///< non-decreasing arrivals
  std::vector<RequestKind> kinds;
};

/// The seeded stream: `requests` requests offered at `offered_rps`.
ServeInputs serve_inputs(std::uint64_t seed, double offered_rps, int requests);

ttsim::serve::ServiceConfig serve_config(bool device_trace);

/// What one service run over a stream delivered, read from public results,
/// spans and ServiceMetrics.
struct ServeRun {
  double submit_s = 0, drain_s = 0;  ///< host seconds in submit() / drain()
  std::vector<std::uint64_t> ids;
  std::vector<ttsim::serve::RequestStatus> status;
  std::vector<std::vector<float>> solutions;
  std::vector<double> latency_ms;  ///< completed requests, due arrival to readback
  double updates = 0;              ///< point updates delivered
  ttsim::SimTime makespan = 0;     ///< first arrival to last readback
  ttsim::SimTime kernel_busy_per_card = 0;  ///< kernel-span union, mean over cards
  double pcie_ms = 0;              ///< H2D + D2H span time
  double queue_wait_p50_ms = 0, h2d_p50_ms = 0, kernel_p50_ms = 0, d2h_p50_ms = 0;
  std::uint64_t batches = 0, batched_requests = 0, session_misses = 0;
  std::uint64_t sharded_sessions = 0, link_bytes = 0;
  bool books_balance = false;  ///< submitted = completed + failed + rejected
};

/// Submit the whole stream to `svc`, drain it, and read back what it did.
ServeRun run_serve(const ServeInputs& in, ttsim::serve::StencilService& svc);

/// Per-request bit-exact checks into `ok`; returns whether every ticket
/// settled exactly once and the books balance. `ref_gpts` receives the rate
/// of the CPU references the checks computed.
bool check_serve(const ServeInputs& in, const ServeRun& run, std::vector<bool>& ok,
                 double& ref_gpts);

}  // namespace perfbench
