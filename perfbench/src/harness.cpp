#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

void log_samples(const char* name, const std::vector<double>& per_round) {
  std::fprintf(stderr, "  %s, %zu rounds:", name, per_round.size());
  for (double x : per_round) std::fprintf(stderr, " %.4g", x);
  std::fprintf(stderr, "\n");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool same_bits(std::span<const float> got, std::span<const ttsim::bfloat16_t> want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(got[i]) !=
        std::bit_cast<std::uint32_t>(static_cast<float>(want[i]))) {
      return false;
    }
  }
  return true;
}

bool jacobi_in_bounds(const ttsim::core::JacobiProblem& p, std::span<const float> got) {
  float lo = std::numeric_limits<float>::infinity();
  float hi = -lo;
  for (float v : {p.bc_left, p.bc_right, p.bc_top, p.bc_bottom, p.initial}) {
    const float b = ttsim::bfloat16_t(v);
    lo = std::min(lo, b);
    hi = std::max(hi, b);
  }
  return std::all_of(got.begin(), got.end(), [&](float v) { return v >= lo && v <= hi; });
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void Ledger::record(std::size_t slot, const std::vector<float>& solution) {
  if (slot >= first_.size()) {
    first_.resize(slot + 1);
    first_[slot] = solution;
    ops_.emplace_back(slot, true);
    return;
  }
  const auto& want = first_[slot];
  const bool same = want.size() == solution.size() &&
                    std::memcmp(want.data(), solution.data(),
                                want.size() * sizeof(float)) == 0;
  ops_.emplace_back(slot, same);
}

void Ledger::settle(Report& rep, const std::vector<bool>& slot_ok) const {
  for (const auto& [slot, same] : ops_) rep.op(same && slot_ok.at(slot));
}

std::uint64_t Ledger::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& s : first_) h = fnv1a(s, h);
  return h;
}

double count_launches(ttsim::ttmetal::Device& dev) {
  std::uint64_t starts = 0;
  for (const auto& e : dev.trace()->events()) {
    starts += e.kind == ttsim::sim::TraceEventKind::kKernelStart;
  }
  const auto per_launch = dev.last_profile().size();
  return per_launch ? static_cast<double>(starts) / static_cast<double>(per_launch) : 0.0;
}

DeviceLayers DeviceLayers::from(const ttsim::sim::MetricsReport& r) {
  DeviceLayers d;
  std::size_t hot = 0;
  for (std::size_t b = 0; b < r.banks.size(); ++b) {
    d.dram_bytes += static_cast<double>(r.banks[b].bytes);
    d.dram_row_misses += static_cast<double>(r.banks[b].row_misses);
    if (r.banks[b].busy > r.banks[hot].busy) hot = b;
  }
  d.hot_bank_util = r.bank_utilization(hot);
  d.hot_bank_queue_depth = r.bank_mean_queue_depth(hot);
  d.aggregate_util = r.aggregate_utilization();
  for (auto b : r.noc_bytes) d.noc_bytes += static_cast<double>(b);
  for (auto t : r.noc_busy) d.noc_busy_ms += ms(t);
  for (const auto& k : r.kernels) {
    d.fpu_busy_ms += ms(k.fpu);
    d.mover_issue_ms += ms(k.issue);
    d.mover_memcpy_ms += ms(k.memcpy_time);
    d.cb_full_wait_ms += ms(k.cb_full_wait);
    d.cb_empty_wait_ms += ms(k.cb_empty_wait);
    d.sync_wait_ms += ms(k.sem_wait + k.read_barrier_wait + k.write_barrier_wait +
                         k.global_barrier_wait);
  }
  d.pcie_bytes = static_cast<double>(r.pcie_bytes);
  return d;
}

void DeviceLayers::merge(const DeviceLayers& o) {
  dram_bytes += o.dram_bytes;
  dram_row_misses += o.dram_row_misses;
  hot_bank_util = std::max(hot_bank_util, o.hot_bank_util);
  hot_bank_queue_depth = std::max(hot_bank_queue_depth, o.hot_bank_queue_depth);
  aggregate_util = std::max(aggregate_util, o.aggregate_util);
  noc_bytes += o.noc_bytes;
  noc_busy_ms += o.noc_busy_ms;
  fpu_busy_ms += o.fpu_busy_ms;
  mover_issue_ms += o.mover_issue_ms;
  mover_memcpy_ms += o.mover_memcpy_ms;
  cb_full_wait_ms += o.cb_full_wait_ms;
  cb_empty_wait_ms += o.cb_empty_wait_ms;
  sync_wait_ms += o.sync_wait_ms;
  pcie_bytes += o.pcie_bytes;
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  for (const auto& m : metrics_) {
    if (m.name == name) throw std::logic_error("metric reported twice: " + name);
  }
  metrics_.push_back({name, value, unit});
}

void Report::add_layers(const Layers& l) {
  const DeviceLayers& d = l.device;
  add("engine.events", l.engine_events, "count");
  add("engine.host_ns_per_event", l.solve_host_s / l.engine_events * 1e9, "ns");
  add("core.solve_host_s", l.solve_host_s, "s");
  add("ir.certify_host_ms", l.certify_host_ms, "ms");
  add("trace.host_overhead", l.trace_overhead, "ratio");
  add("cpu.ref_bf16_gpts", l.cpu_ref_gpts, "GPt/s");
  add("ttmetal.pcie_ms", l.pcie_ms, "sim_ms");
  add("ttmetal.pcie_bytes", d.pcie_bytes, "B");
  add("ttmetal.launches", l.launches, "count");
  add("core.kernel_ms", l.kernel_ms, "sim_ms");
  add("dram.bytes", d.dram_bytes, "B");
  add("dram.row_misses", d.dram_row_misses, "count");
  add("dram.hot_bank_util", d.hot_bank_util, "ratio");
  add("dram.hot_bank_queue_depth", d.hot_bank_queue_depth, "requests");
  add("dram.aggregate_util", d.aggregate_util, "ratio");
  add("noc.bytes", d.noc_bytes, "B");
  add("noc.busy_ms", d.noc_busy_ms, "sim_ms");
  add("fpu.busy_ms", d.fpu_busy_ms, "sim_ms");
  add("mover.issue_ms", d.mover_issue_ms, "sim_ms");
  add("mover.memcpy_ms", d.mover_memcpy_ms, "sim_ms");
  add("cb.full_wait_ms", d.cb_full_wait_ms, "sim_ms");
  add("cb.empty_wait_ms", d.cb_empty_wait_ms, "sim_ms");
  add("sync.wait_ms", d.sync_wait_ms, "sim_ms");
  add("chiplink.bytes", l.link_bytes, "B");
  add("chiplink.messages", l.link_messages, "count");
  add("sharded.exchange_ms", l.exchange_ms, "sim_ms");
  add("sharded.epochs", l.epochs, "count");
  add("serve.mean_batch", l.mean_batch, "requests");
  add("serve.session_misses", l.session_misses, "count");
  add("serve.queue_wait_p50_ms", l.queue_wait_p50_ms, "sim_ms");
  add("serve.h2d_p50_ms", l.h2d_p50_ms, "sim_ms");
  add("serve.kernel_p50_ms", l.kernel_p50_ms, "sim_ms");
  add("serve.d2h_p50_ms", l.d2h_p50_ms, "sim_ms");
}

void add_solver_end_to_end(Report& rep, const std::vector<SimOp>& round,
                           double host_wall_s, double setup_s) {
  double updates = 0, joules = 0, kernel_s = 0, total_s = 0;
  std::vector<double> latency_ms;
  for (const SimOp& op : round) {
    updates += op.updates;
    joules += op.joules;
    kernel_s += ttsim::to_seconds(op.kernel);
    total_s += ttsim::to_seconds(op.total);
    latency_ms.push_back(ms(op.total));
  }
  rep.add("sim_gpts", updates / 1e9 / total_s, "GPt/s");
  rep.add("sim_kernel_gpts", updates / 1e9 / kernel_s, "GPt/s");
  rep.add("sim_j_per_gpt", joules / (updates / 1e9), "J/GPt");
  rep.add("op_p50_ms", percentile(latency_ms, 0.50), "sim_ms");
  rep.add("op_p95_ms", percentile(latency_ms, 0.95), "sim_ms");
  rep.add("goodput_ops_per_s", static_cast<double>(round.size()) / total_s, "1/s");
  rep.add("host_wall_s", host_wall_s, "s");
  rep.add("setup_s", setup_s, "s");
}

void add_host_samples(Layers& l, const HostSamples& h) {
  l.engine_events = median(h.events);
  l.solve_host_s = median(h.solve_s);
  l.certify_host_ms = median(h.certify_ms);
  l.trace_overhead = median(h.traced_s) / l.solve_host_s;
}

namespace {
std::string number(double v) {
  if (!std::isfinite(v)) throw std::logic_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
}  // namespace

void Report::print_json(std::ostream& os) const {
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}\n";
}

void Report::print_table(std::ostream& os) const {
  char line[160];
  for (const auto& m : metrics_) {
    std::snprintf(line, sizeof line, "  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    os << line;
  }
  std::snprintf(line, sizeof line, "  attempted %" PRIu64 ", failed %" PRIu64
                ", digest %016" PRIx64 "\n",
                attempted_, failed_, digest_);
  os << line;
}

}  // namespace perfbench
