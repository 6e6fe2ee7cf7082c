/// \file stencil_service.cpp
/// The multi-tenant stencil-serving frontend: admission (with SLO checks and
/// load shedding), shape-keyed session cache, batching scheduler, the
/// three-queue async pipeline per card, and the resilience layer —
/// checkpoint/migration, the per-card health state machine, and typed-error
/// fault recovery by card reopen. See serve.hpp for the design overview.

#include "ttsim/serve/serve.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <tuple>
#include <utility>

#include "ttsim/common/check.hpp"
#include "ttsim/core/sharded.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/ttmetal/device.hpp"

namespace ttsim::serve {

namespace {
/// Batches in flight per card: 2 gives write/compute overlap with the
/// double-banked slot buffers; deeper would let a third batch's H2D land in
/// a bank whose reads have not drained.
constexpr std::size_t kPipelineDepth = 2;
}  // namespace

const char* to_string(CardHealth health) {
  switch (health) {
    case CardHealth::kHealthy: return "healthy";
    case CardHealth::kDegraded: return "degraded";
    case CardHealth::kQuarantined: return "quarantined";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// ServiceMetrics

SimTime ServiceMetrics::latency_percentile(double p) const {
  std::vector<SimTime> all;
  for (const auto& [tenant, stats] : tenants)
    all.insert(all.end(), stats.latencies.begin(), stats.latencies.end());
  if (all.empty()) return 0;
  std::sort(all.begin(), all.end());
  double rank = p * static_cast<double>(all.size());
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank + 0.5) - 1;
  if (idx >= all.size()) idx = all.size() - 1;
  return all[idx];
}

std::uint64_t ServiceMetrics::total_completed() const {
  std::uint64_t n = 0;
  for (const auto& [tenant, stats] : tenants) n += stats.completed;
  return n;
}

// ---------------------------------------------------------------------------
// Internal structures

struct StencilService::Pending {
  /// The admitted request; `req.general` is always set (a Jacobi request's
  /// `problem` is converted to core::jacobi_program at submit).
  Request req;
  ShapeKey key;  ///< shape of the NEXT segment (tracks remaining sweeps)
  int iterations_done = 0;  ///< sweeps completed across prior segments
  /// State after iterations_done sweeps: one checkpoint per field
  /// (read-only fields stay empty — they restage from the program spec).
  /// Sharded sessions seal the GLOBAL padded image(s) here — the
  /// whole-domain numerical state, so the next segment's group may be ANY
  /// set of cards.
  std::vector<SessionCheckpoint> ckpt;
  int ckpt_card = -1;  ///< card that produced the checkpoint
  /// Sharded multi-card sessions: cards this request's slabs must spread
  /// over (0 = a normal single-card request), and the group that ran the
  /// previous segment (a different group counts as a migration).
  int shard_cards = 0;
  std::vector<int> group;
};

struct StencilService::Session {
  explicit Session(const ShapeKey& k) : key(k), layout(k.width, k.height) {}

  ShapeKey key;
  core::PaddedLayout layout;
  /// groups[g] = the physical workers serving batch slot g.
  std::vector<std::vector<int>> groups;
  /// The program structure the key's hash pins (the first request's
  /// problem; same hash = same lowering).
  core::GeneralStencilProblem program;
  /// Per-field double-banked buffers: banks[bank][g][f] is slot g's field f
  /// d1, banks[bank][g][nfields+f] its d2 (null for read-only fields). Two
  /// banks so batch j+1's H2D staging can overlap batch j's kernels without
  /// a hazard.
  std::array<std::vector<std::vector<std::shared_ptr<ttmetal::Buffer>>>, 2> banks;
  /// Compiled batch programs, keyed by (bank, batch width B). Programs are
  /// reusable across launches, so each (bank, B) compiles once.
  std::map<std::pair<int, int>, std::unique_ptr<ttmetal::Program>> programs;
  int next_bank = 0;
};

struct StencilService::InFlight {
  std::vector<std::uint64_t> members;  ///< ticket ids, slot order
  ShapeKey key;
  int bank = 0;
  SimTime dispatched = 0;
  ttmetal::Event write_done, kernel_done, read_done;
  /// Read destinations, per member: one image for a finishing member (the
  /// delivered field) or, for a continuing member, one per written field in
  /// field order (the next segment's checkpoints).
  std::vector<std::vector<std::vector<bfloat16_t>>> outputs;
  std::vector<std::uint8_t> continues;  ///< per member: more segments left
};

struct StencilService::Card {
  int index = 0;
  /// This card's device-family spec (cfg_.spec or its card_specs override);
  /// reopens use it so a Wormhole comes back a Wormhole.
  sim::DeviceSpec spec;
  /// This card's device config (cfg_.device or its card_devices override);
  /// reopens after faults and probes reuse it so the card keeps its own
  /// fault plan across generations.
  ttmetal::DeviceConfig dev_cfg;
  // The device must outlive the sessions (Buffer destructors release their
  // allocation on the device), so it is declared first / destroyed last.
  std::unique_ptr<ttmetal::Device> device;
  std::map<ShapeKey, std::unique_ptr<Session>> sessions;
  std::deque<InFlight> inflight;

  // -- health state machine (see health.hpp) --
  CardHealth health = CardHealth::kHealthy;
  int consecutive_failures = 0;
  int clean_streak = 0;   ///< clean harvests since degraded (readmission)
  SimTime probe_at = 0;   ///< quarantined: earliest readmission probe time
  bool retired = false;   ///< probe found dead silicon; never serves again
};

// ---------------------------------------------------------------------------
// Construction

StencilService::StencilService(ServiceConfig config)
    : cfg_(std::move(config)), spans_(span_engine_) {
  if (cfg_.cards < 1) TTSIM_THROW_API("service needs at least one card");
  if (cfg_.run.strategy != core::DeviceStrategy::kRowChunk &&
      cfg_.run.strategy != core::DeviceStrategy::kTemporal) {
    TTSIM_THROW_API("serving is built on the row-chunk or temporal strategies");
  }
  if (cfg_.run.cores_x < 1 || cfg_.run.cores_y < 1) {
    TTSIM_THROW_API("need at least a 1x1 core grid per batch slot");
  }
  if (cfg_.max_batch < 1) TTSIM_THROW_API("max_batch must be >= 1");
  if (cfg_.queue_capacity < 1) TTSIM_THROW_API("queue_capacity must be >= 1");
  if (cfg_.max_retries < 0) TTSIM_THROW_API("max_retries must be >= 0");
  if (cfg_.checkpoint_every < 0) TTSIM_THROW_API("checkpoint_every must be >= 0");
  if (cfg_.health.quarantine_after < 1) {
    TTSIM_THROW_API("quarantine_after must be >= 1");
  }
  if (cfg_.health.readmit_successes < 1) {
    TTSIM_THROW_API("readmit_successes must be >= 1");
  }
  if (!cfg_.card_devices.empty() &&
      cfg_.card_devices.size() != static_cast<std::size_t>(cfg_.cards)) {
    TTSIM_THROW_API("card_devices must be empty or have one entry per card");
  }
  if (!cfg_.card_specs.empty() &&
      cfg_.card_specs.size() != static_cast<std::size_t>(cfg_.cards)) {
    TTSIM_THROW_API("card_specs must be empty or have one entry per card");
  }
  for (int i = 0; i < cfg_.cards; ++i) {
    auto card = std::make_unique<Card>();
    card->index = i;
    card->spec = cfg_.card_specs.empty()
                     ? cfg_.spec
                     : cfg_.card_specs[static_cast<std::size_t>(i)];
    card->dev_cfg = cfg_.card_devices.empty()
                        ? cfg_.device
                        : cfg_.card_devices[static_cast<std::size_t>(i)];
    card->device = ttmetal::Device::open(card->spec, card->dev_cfg);
    const int slot = cfg_.run.cores_x * cfg_.run.cores_y;
    if (slot > card->device->num_workers()) {
      TTSIM_THROW_API("a batch slot needs " << slot << " cores but the card has "
                                            << card->device->num_workers());
    }
    cards_.push_back(std::move(card));
  }
}

StencilService::~StencilService() = default;

// ---------------------------------------------------------------------------
// Spans

int StencilService::tenant_track(int tenant) {
  auto it = tenant_tracks_.find(tenant);
  if (it != tenant_tracks_.end()) return it->second;
  std::ostringstream name;
  name << "tenant" << tenant;
  const int id = spans_.track(name.str());
  tenant_tracks_.emplace(tenant, id);
  return id;
}

int StencilService::card_track(int card) {
  auto it = card_tracks_.find(card);
  if (it != card_tracks_.end()) return it->second;
  std::ostringstream name;
  name << "card" << card;
  const int id = spans_.track(name.str());
  card_tracks_.emplace(card, id);
  return id;
}

void StencilService::record_span(sim::TraceEventKind kind, SimTime ts, SimTime dur,
                                 int track, std::uint64_t req, std::int32_t b) {
  if (!cfg_.record_spans) return;
  sim::TraceSink::Rec rec;
  rec.b = b;
  rec.addr = req;  // the ticket id ties spans of one request together
  spans_.record(kind, ts, dur, rec, track);
}

// ---------------------------------------------------------------------------
// Admission

ShapeKey StencilService::effective_key(const Pending& p) const {
  ShapeKey key;
  const core::GeneralStencilProblem& g = *p.req.general;
  key.width = g.width;
  key.height = g.height;
  key.iterations = g.iterations - p.iterations_done;
  if (cfg_.checkpoint_every > 0) {
    key.iterations = std::min(key.iterations, cfg_.checkpoint_every);
  }
  key.program = g.transition_hash();
  key.chunk_elems = cfg_.run.chunk_elems;
  key.read_ahead = cfg_.run.read_ahead;
  const auto strat = p.req.strategy.value_or(cfg_.run.strategy);
  key.strategy = static_cast<int>(strat);
  key.temporal_depth =
      strat == core::DeviceStrategy::kTemporal
          ? (p.req.temporal_depth > 0 ? p.req.temporal_depth
                                      : cfg_.run.temporal_depth)
          : 1;
  return key;
}

core::DeviceRunConfig StencilService::run_for(const ShapeKey& key) const {
  core::DeviceRunConfig run = cfg_.run;
  run.strategy = static_cast<core::DeviceStrategy>(key.strategy);
  run.temporal_depth = key.temporal_depth;
  return run;
}

int StencilService::active_slots() const {
  int slots = 0;
  const int slot = cfg_.run.cores_x * cfg_.run.cores_y;
  for (const auto& c : cards_) {
    if (c->retired || c->health == CardHealth::kQuarantined) continue;
    const int usable = static_cast<int>(c->device->usable_workers().size());
    slots += std::min(usable / slot, cfg_.max_batch);
  }
  return slots;
}

SimTime StencilService::estimate_completion(const Request& request) const {
  // Cost history is per (program, spec): a gallery batch can run at a
  // fraction of a Jacobi batch's cost, and a Wormhole retires the same
  // program at a different cost than a Grayskull — either collapse would
  // over-reject cheap (workload, card) pairings and under-reject expensive
  // ones the moment tenants or family members mix. The estimate takes the
  // MINIMUM cost across specs with history: the scheduler is free to place
  // the batch on the fastest family member, so rejecting against a slower
  // card's cost would turn admission pessimistic on exactly the requests a
  // mixed pool exists to serve.
  const std::uint64_t prog = request.general->transition_hash();
  auto cheapest = [&](std::uint64_t program) -> SimTime {
    SimTime best = 0;
    for (const auto& [key, e] : ewma_batch_) {
      if (key.first != program || e == 0) continue;
      if (best == 0 || e < best) best = e;
    }
    return best;
  };
  const SimTime own = cheapest(prog);
  // No history for THIS program on ANY spec: admit optimistically.
  if (own == 0) return 0;
  const int slots = active_slots();
  if (slots < 1) return 0;  // pool is down; admission is not the gate
  // Work queued ahead of this request, each entry at its own program's
  // cost (unknown programs assumed to cost like the newcomer's), spread
  // over the pool's slots; then the newcomer's own segments.
  SimTime queued = 0;
  for (std::uint64_t id : pending_) {
    const SimTime e = cheapest(requests_.at(id).key.program);
    queued += e != 0 ? e : own;
  }
  SimTime segments = 1;
  if (cfg_.checkpoint_every > 0) {
    const int total = request.general->iterations;
    segments = (total + cfg_.checkpoint_every - 1) / cfg_.checkpoint_every;
  }
  return std::max(service_now_, request.arrival) +
         queued / static_cast<SimTime>(slots) + own * segments;
}

SimTime StencilService::backpressure_hint() const {
  if (!cfg_.adaptive_retry || ewma_batch_.empty()) return cfg_.retry_after;
  const int slots = active_slots();
  if (slots < 1) return cfg_.retry_after;
  // Drain time of the queue at per-program costs; programs with no history
  // yet cost the pool mean.
  SimTime mean = 0;
  SimTime n = 0;
  for (const auto& [key, e] : ewma_batch_) {
    if (e == 0) continue;
    mean += e;
    ++n;
  }
  if (n == 0) return cfg_.retry_after;
  mean /= n;
  SimTime queued = 0;
  for (std::uint64_t id : pending_) {
    // Cheapest spec with history for this program; pool mean otherwise.
    const std::uint64_t prog = requests_.at(id).key.program;
    SimTime best = 0;
    for (const auto& [key, e] : ewma_batch_) {
      if (key.first != prog || e == 0) continue;
      if (best == 0 || e < best) best = e;
    }
    queued += best != 0 ? best : mean;
  }
  return std::max<SimTime>(queued / static_cast<SimTime>(slots), kMicrosecond);
}

Ticket StencilService::submit(const Request& submitted) {
  // One stencil stack: a Jacobi request is its general program from here on.
  Request request = submitted;
  if (!request.general) request.general = core::jacobi_program(request.problem);
  service_now_ = std::max(service_now_, request.arrival);
  Ticket ticket;
  ticket.id = next_ticket_++;
  TenantStats& ts = metrics_.tenants[request.tenant];
  ++ts.submitted;

  RequestResult r;
  r.tenant = request.tenant;
  r.admit = request.arrival;

  // Invalid shapes fail immediately — they would fail on every card.
  // (CheckError covers general-program structural faults such as an
  // initial_field of the wrong size.)
  std::string invalid;
  try {
    core::DeviceRunConfig vrun = cfg_.run;
    if (request.strategy) vrun.strategy = *request.strategy;
    if (request.temporal_depth > 0) vrun.temporal_depth = request.temporal_depth;
    core::validate_stencil_request(*request.general, vrun);
  } catch (const ApiError& e) {
    invalid = e.what();
  } catch (const CheckError& e) {
    invalid = e.what();
  }
  if (!invalid.empty()) {
    r.status = RequestStatus::kFailed;
    r.error = invalid;
    ++ts.failed;
    results_.emplace(ticket.id, std::move(r));
    ticket.status = RequestStatus::kFailed;
    return ticket;
  }

  // Capacity triage: a shape whose session buffers exceed every card's DRAM
  // is not a failure — it is a sharded multi-card session. Find the smallest
  // group (each card holding its slab plus deep-halo overlap) that fits the
  // pool's TIGHTEST card, since the group may be drawn from any idle cards;
  // only when no group fits does the request fail.
  int shard_n = 0;
  {
    const core::GeneralStencilProblem& g = *request.general;
    const std::uint32_t w = g.width;
    const std::uint32_t h = g.height;
    // Grid images a session must hold per slot: per field one image plus a
    // second for written fields.
    std::uint64_t grids = 0;
    for (int f = 0; f < static_cast<int>(g.fields.size()); ++f)
      grids += g.written_pass(f) >= 0 ? 2 : 1;
    std::uint64_t max_budget = 0;
    std::uint64_t min_budget = 0;
    int pool = 0;
    for (const auto& c : cards_) {
      if (c->retired) continue;
      // 7/8 of DRAM: headroom for alignment and the allocator's metadata.
      const std::uint64_t budget = c->spec.dram_total_bytes() / 8 * 7;
      max_budget = std::max(max_budget, budget);
      min_budget = pool == 0 ? budget : std::min(min_budget, budget);
      ++pool;
    }
    const std::uint64_t needed =
        grids * core::PaddedLayout(w, h).bytes();
    if (max_budget != 0 && needed > max_budget) {
      const auto strat = request.strategy.value_or(cfg_.run.strategy);
      const int depth = request.temporal_depth > 0 ? request.temporal_depth
                                                   : cfg_.run.temporal_depth;
      const int k = strat == core::DeviceStrategy::kTemporal ? depth : 1;
      const bool shardable =
          (strat == core::DeviceStrategy::kRowChunk ||
           strat == core::DeviceStrategy::kTemporal) &&
          g.passes.size() == 1;
      std::string why;
      if (!shardable) {
        why = "shape exceeds one card's DRAM and the program cannot shard "
              "(multi-pass or non-row-chunk/temporal strategy)";
      } else {
        for (int n = 2; n <= pool; ++n) {
          const std::uint32_t owned = (h + static_cast<std::uint32_t>(n) - 1) /
                                      static_cast<std::uint32_t>(n);
          if (h / static_cast<std::uint32_t>(n) <
              static_cast<std::uint32_t>(std::max(k, cfg_.run.cores_y)))
            break;  // slabs too thin for the halo protocol / core grid
          const std::uint64_t slab =
              grids * core::PaddedLayout(
                          w, owned + 2 * static_cast<std::uint32_t>(k - 1))
                          .bytes();
          if (slab <= min_budget) {
            shard_n = n;
            break;
          }
        }
        if (shard_n == 0) why = "shape exceeds the pool's combined capacity";
      }
      if (shard_n == 0) {
        r.status = RequestStatus::kFailed;
        r.error = why;
        ++ts.failed;
        results_.emplace(ticket.id, std::move(r));
        ticket.status = RequestStatus::kFailed;
        return ticket;
      }
      ++metrics_.sharded_sessions;
    }
  }

  // SLO admission: when history says the deadline cannot be met even if
  // everything goes right, rejecting now is kinder than a guaranteed miss.
  // retry_after = 0: resubmitting the same deadline is pointless.
  if (cfg_.slo_admission && request.deadline != 0) {
    const SimTime eta = estimate_completion(request);
    if (eta != 0 && eta > request.deadline) {
      r.status = RequestStatus::kRejected;
      ++ts.rejected;
      ++metrics_.infeasible_rejects;
      record_span(sim::TraceEventKind::kServeReject, request.arrival, 0,
                  tenant_track(request.tenant), ticket.id);
      results_.emplace(ticket.id, std::move(r));
      ticket.status = RequestStatus::kRejected;
      ticket.retry_after = 0;
      return ticket;
    }
  }

  // Backpressure: a full pending queue rejects with a retry-after hint
  // instead of queueing unboundedly — unless shedding is on and a
  // lower-priority queued request can make room for this one.
  if (pending_.size() >= cfg_.queue_capacity) {
    std::uint64_t victim = 0;
    if (cfg_.shed_low_priority) {
      // Lowest priority strictly below the newcomer; newest such entry
      // (its investment-so-far is smallest). Never shed a request that has
      // already run a segment — its checkpoint represents paid-for work.
      int victim_prio = request.priority;
      for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
        const Pending& p = requests_.at(*it);
        if (p.iterations_done > 0) continue;
        if (p.req.priority < victim_prio) {
          victim_prio = p.req.priority;
          victim = *it;
        }
      }
    }
    if (victim != 0) {
      pending_.erase(std::find(pending_.begin(), pending_.end(), victim));
      auto& vr = results_.at(victim);
      vr.status = RequestStatus::kRejected;
      vr.retry_after = service_now_ + backpressure_hint();
      ++metrics_.tenants[vr.tenant].rejected;
      ++metrics_.shed;
      record_span(sim::TraceEventKind::kServeReject, service_now_, 0,
                  tenant_track(vr.tenant), victim);
      requests_.erase(victim);
    } else {
      r.status = RequestStatus::kRejected;
      ++ts.rejected;
      record_span(sim::TraceEventKind::kServeReject, request.arrival, 0,
                  tenant_track(request.tenant), ticket.id);
      ticket.status = RequestStatus::kRejected;
      ticket.retry_after = service_now_ + backpressure_hint();
      r.retry_after = ticket.retry_after;
      results_.emplace(ticket.id, std::move(r));
      return ticket;
    }
  }

  record_span(sim::TraceEventKind::kServeAdmit, request.arrival, 0,
              tenant_track(request.tenant), ticket.id);
  results_.emplace(ticket.id, std::move(r));
  Pending p;
  p.req = std::move(request);
  p.key = effective_key(p);
  p.shard_cards = shard_n;
  requests_.emplace(ticket.id, std::move(p));
  pending_.push_back(ticket.id);
  metrics_.max_queue_depth = std::max(metrics_.max_queue_depth, pending_.size());
  return ticket;
}

// ---------------------------------------------------------------------------
// Sessions

int StencilService::card_capacity(int card, const ShapeKey& key) {
  (void)key;  // slot width is a service-level constant today
  TTSIM_CHECK(card >= 0 && card < static_cast<int>(cards_.size()));
  const int slot = cfg_.run.cores_x * cfg_.run.cores_y;
  const int usable = static_cast<int>(cards_[static_cast<std::size_t>(card)]
                                          ->device->usable_workers().size());
  return std::min(usable / slot, cfg_.max_batch);
}

CardHealth StencilService::card_health(int card) const {
  TTSIM_CHECK(card >= 0 && card < static_cast<int>(cards_.size()));
  return cards_[static_cast<std::size_t>(card)]->health;
}

const sim::DeviceSpec& StencilService::card_spec(int card) const {
  TTSIM_CHECK(card >= 0 && card < static_cast<int>(cards_.size()));
  return cards_[static_cast<std::size_t>(card)]->spec;
}

SimTime StencilService::ewma_cost(std::uint64_t program,
                                  const std::string& spec_name) const {
  const auto it = ewma_batch_.find({program, spec_name});
  return it == ewma_batch_.end() ? 0 : it->second;
}

std::vector<verify::Finding> StencilService::verify_findings() const {
  std::vector<verify::Finding> all;
  for (const auto& card : cards_) {
    const verify::Verifier* v = card->device->verifier();
    if (v == nullptr) continue;
    all.insert(all.end(), v->findings().begin(), v->findings().end());
  }
  return all;
}

StencilService::Session& StencilService::session(
    Card& card, const ShapeKey& key, const core::GeneralStencilProblem& program) {
  auto it = card.sessions.find(key);
  if (it != card.sessions.end()) {
    ++metrics_.session_cache_hits;
    return *it->second;
  }
  ++metrics_.session_cache_misses;

  auto s = std::make_unique<Session>(key);
  const int slot = cfg_.run.cores_x * cfg_.run.cores_y;
  const auto usable = card.device->usable_workers();
  const int groups = std::min(static_cast<int>(usable.size()) / slot, cfg_.max_batch);
  TTSIM_CHECK_MSG(groups >= 1, "session built on a card with no capacity");
  for (int g = 0; g < groups; ++g) {
    s->groups.emplace_back(usable.begin() + static_cast<std::ptrdiff_t>(g) * slot,
                           usable.begin() + static_cast<std::ptrdiff_t>(g + 1) * slot);
  }

  core::JacobiProblem shape;
  shape.width = key.width;
  shape.height = key.height;
  shape.iterations = key.iterations;
  const ttmetal::BufferConfig base = core::batch_grid_buffer_config(cfg_.run, shape);
  TTSIM_CHECK_MSG(key.program == program.transition_hash(),
                  "session key does not match the program");
  s->program = program;
  const int nf = static_cast<int>(program.fields.size());
  for (int bank = 0; bank < 2; ++bank) {
    auto& vec = s->banks[static_cast<std::size_t>(bank)];
    for (int g = 0; g < groups; ++g) {
      std::vector<std::shared_ptr<ttmetal::Buffer>> bufs(
          static_cast<std::size_t>(2 * nf));
      for (int f = 0; f < nf; ++f) {
        for (int half = 0; half < 2; ++half) {
          // Read-only fields never flip parity: one grid is enough.
          if (half == 1 && program.written_pass(f) < 0) continue;
          ttmetal::BufferConfig bc = base;
          std::ostringstream name;
          name << "serve-c" << card.index << '-' << key.width << 'x'
               << key.height << "-i" << key.iterations << "-p" << std::hex
               << key.program << std::dec << "-bank" << bank << "-slot" << g
               << "-f" << f << "-d" << (half + 1);
          bc.name = name.str();
          bufs[static_cast<std::size_t>(half * nf + f)] =
              card.device->create_buffer(bc);
        }
      }
      vec.push_back(std::move(bufs));
    }
  }
  auto& ref = *s;
  card.sessions.emplace(key, std::move(s));
  return ref;
}

// ---------------------------------------------------------------------------
// Scheduling

void StencilService::fail_request(std::uint64_t id, const std::string& why) {
  auto& r = results_.at(id);
  r.status = RequestStatus::kFailed;
  r.error = why;
  ++metrics_.tenants[r.tenant].failed;
  requests_.erase(id);
}

bool StencilService::dispatch_on(Card& card) {
  if (pending_.empty() || card.inflight.size() >= kPipelineDepth) return false;
  SimTime t = card.device->now();

  auto eligible_ids = [&](SimTime at) {
    std::vector<std::uint64_t> ids;
    for (std::uint64_t id : pending_) {
      const Pending& p = requests_.at(id);
      // Sharded sessions dispatch through dispatch_sharded (a card GROUP),
      // never through a single card's batch pipeline.
      if (p.shard_cards != 0) continue;
      if (p.req.arrival <= at) ids.push_back(id);
    }
    return ids;
  };
  std::vector<std::uint64_t> eligible = eligible_ids(t);
  if (eligible.empty()) {
    // Nothing has arrived on this card's clock. A busy card will catch up
    // when its batches are harvested; an idle one fast-forwards to the next
    // arrival (the engine just advances its clock — there is nothing to run).
    if (!card.inflight.empty()) return false;
    SimTime earliest = 0;
    bool first = true;
    for (std::uint64_t id : pending_) {
      const SimTime a = requests_.at(id).req.arrival;
      if (first || a < earliest) earliest = a;
      first = false;
    }
    if (earliest > t) card.device->hw().engine().run_until(earliest);
    t = card.device->now();
    eligible = eligible_ids(t);
    if (eligible.empty()) return false;
  }

  // Head choice: highest priority first; within it, round-robin over the
  // tenants that have eligible work (fair share), FIFO within a tenant.
  int top = requests_.at(eligible.front()).req.priority;
  for (std::uint64_t id : eligible) top = std::max(top, requests_.at(id).req.priority);
  std::vector<int> tenants;
  for (std::uint64_t id : eligible) {
    const Pending& p = requests_.at(id);
    if (p.req.priority != top) continue;
    if (std::find(tenants.begin(), tenants.end(), p.req.tenant) == tenants.end())
      tenants.push_back(p.req.tenant);
  }
  std::sort(tenants.begin(), tenants.end());
  TTSIM_CHECK(!tenants.empty());  // a top-priority request always exists
  int head_tenant = tenants.front();
  for (int tenant : tenants) {
    if (tenant >= rr_cursor_) {
      head_tenant = tenant;
      break;
    }
  }
  rr_cursor_ = head_tenant + 1;

  std::uint64_t head = 0;
  for (std::uint64_t id : eligible) {
    const Pending& p = requests_.at(id);
    if (p.req.priority == top && p.req.tenant == head_tenant) {
      head = id;
      break;
    }
  }
  const ShapeKey key = requests_.at(head).key;

  // Capacity: a card that cannot field even one slot of this shape leaves
  // it for a capable card; when no card can — now or after a readmission
  // probe — the request fails.
  if (card_capacity(card.index, key) < 1) {
    bool anyone = false;
    for (const auto& other : cards_) {
      if (other->retired) continue;
      if (card_capacity(other->index, key) >= 1 ||
          (other->health == CardHealth::kQuarantined && cfg_.health.heal_on_probe)) {
        anyone = true;
      }
    }
    if (!anyone) {
      pending_.erase(std::find(pending_.begin(), pending_.end(), head));
      fail_request(head, "no card has enough usable workers for this shape");
      return true;
    }
    return false;
  }

  const Pending& head_req = requests_.at(head);
  Session& s = session(card, key, *head_req.req.general);
  const int max_slots =
      std::min(static_cast<int>(s.groups.size()), cfg_.max_batch);

  // Coalesce: fill the batch with same-shape eligible requests in priority /
  // FIFO order, starting from the head. Dispatch-time deadline misses fail
  // here rather than wasting a slot.
  std::vector<std::uint64_t> members{head};
  for (std::uint64_t id : eligible) {
    if (static_cast<int>(members.size()) >= max_slots) break;
    if (id == head) continue;
    const Pending& p = requests_.at(id);
    if (p.key != key) continue;
    members.push_back(id);
  }
  std::vector<std::uint64_t> batch;
  for (std::uint64_t id : members) {
    pending_.erase(std::find(pending_.begin(), pending_.end(), id));
    const Pending& p = requests_.at(id);
    if (p.req.deadline != 0 && p.req.deadline < t) {
      auto& r = results_.at(id);
      r.deadline_missed = true;
      ++metrics_.tenants[p.req.tenant].deadline_missed;
      fail_request(id, "deadline passed before dispatch");
      continue;
    }
    batch.push_back(id);
  }
  if (batch.empty()) return true;  // everything expired; still progress

  const int b = static_cast<int>(batch.size());
  const int bank = s.next_bank;
  s.next_bank ^= 1;

  // Compile (or reuse) the batch program for (bank, B).
  const auto pkey = std::make_pair(bank, b);
  auto pit = s.programs.find(pkey);
  if (pit == s.programs.end()) {
    auto prog = std::make_unique<ttmetal::Program>();
    const int nf = static_cast<int>(s.program.fields.size());
    std::vector<core::GeneralBatchSlot> slots(static_cast<std::size_t>(b));
    for (int g = 0; g < b; ++g) {
      auto& slot = slots[static_cast<std::size_t>(g)];
      const auto& bufs =
          s.banks[static_cast<std::size_t>(bank)][static_cast<std::size_t>(g)];
      for (int f = 0; f < nf; ++f) {
        slot.d1.push_back(bufs[static_cast<std::size_t>(f)]->address());
        const auto& d2 = bufs[static_cast<std::size_t>(nf + f)];
        slot.d2.push_back(d2 ? d2->address() : 0);
      }
      slot.core_ids = s.groups[static_cast<std::size_t>(g)];
    }
    // The session pins the program STRUCTURE; this launch runs the key's
    // segment length (checkpointed solves dispatch shorter tails).
    core::GeneralStencilProblem gshape = s.program;
    gshape.iterations = key.iterations;
    core::build_batched_stencil_program(*prog, gshape, run_for(key), slots);
    pit = s.programs.emplace(pkey, std::move(prog)).first;
  }

  // The three-queue pipeline: writes on 0, the program on 1, reads on 2,
  // ordered by events. Nothing blocks here; the timeline materialises when
  // the card is driven at harvest.
  auto& dev = *card.device;
  auto& cq_write = dev.command_queue(0);
  auto& cq_kernel = dev.command_queue(1);
  auto& cq_read = dev.command_queue(2);

  InFlight fl;
  fl.members = batch;
  fl.key = key;
  fl.bank = bank;
  fl.dispatched = t;
  for (int g = 0; g < b; ++g) {
    Pending& p = requests_.at(batch[static_cast<std::size_t>(g)]);
    auto& rr = results_.at(batch[static_cast<std::size_t>(g)]);
    // Per-field staging: every field's padded image from THIS request's
    // physics (boundary constants / initial fields are per-request data;
    // the session only pins the program structure). Written fields stage
    // both parities so the first pass reads a defined halo everywhere.
    const auto& bufs =
        s.banks[static_cast<std::size_t>(bank)][static_cast<std::size_t>(g)];
    const int nf = static_cast<int>(p.req.general->fields.size());
    for (int f = 0; f < nf; ++f) {
      const auto& d2 = bufs[static_cast<std::size_t>(nf + f)];
      if (p.iterations_done > 0 && d2) {
        // Resume a written field from its CRC-verified checkpoint — the
        // exact padded image after iterations_done sweeps — staged to both
        // parities exactly like a fresh start stages the initial image, so
        // the remaining sweeps continue the solve bit-exactly, on whichever
        // card this is.
        const auto& image = p.ckpt[static_cast<std::size_t>(f)].image();
        TTSIM_CHECK_MSG(image.size() == s.layout.elems(),
                        "checkpoint image does not match the session layout");
        const auto bytes = std::as_bytes(std::span{image});
        cq_write.enqueue_write_buffer(*bufs[static_cast<std::size_t>(f)], bytes,
                                      /*blocking=*/false);
        cq_write.enqueue_write_buffer(*d2, bytes, /*blocking=*/false);
        continue;
      }
      // Fresh start, or a read-only field (never flips parity: its image
      // restages from the program spec on every segment).
      const auto image = core::general_field_image(s.layout, *p.req.general, f);
      const auto bytes = std::as_bytes(std::span{image});
      cq_write.enqueue_write_buffer(*bufs[static_cast<std::size_t>(f)], bytes,
                                    /*blocking=*/false);
      if (d2) cq_write.enqueue_write_buffer(*d2, bytes, /*blocking=*/false);
    }
    if (p.iterations_done > 0 && p.ckpt_card != card.index) {
      ++metrics_.migrations;
      ++rr.migrations;
    }
  }
  fl.write_done = cq_write.record_event();
  cq_kernel.wait_for_event(fl.write_done);
  cq_kernel.enqueue_program(*pit->second, /*blocking=*/false);
  fl.kernel_done = cq_kernel.record_event();
  cq_read.wait_for_event(fl.kernel_done);
  fl.outputs.resize(static_cast<std::size_t>(b));
  fl.continues.assign(static_cast<std::size_t>(b), 0);
  const bool odd = key.iterations % 2 == 1;
  for (int g = 0; g < b; ++g) {
    const Pending& p = requests_.at(batch[static_cast<std::size_t>(g)]);
    const bool cont = p.iterations_done + key.iterations < p.req.general->iterations;
    fl.continues[static_cast<std::size_t>(g)] = cont ? 1 : 0;
    auto& outs = fl.outputs[static_cast<std::size_t>(g)];
    const int nf = static_cast<int>(s.program.fields.size());
    const auto& bufs =
        s.banks[static_cast<std::size_t>(bank)][static_cast<std::size_t>(g)];
    if (cont) {
      // Mid-solve segment: read back EVERY written field at the segment's
      // final parity — together they are the whole numerical state, the
      // next segment's per-field checkpoints. (Pre-size so the async reads'
      // destinations never reallocate.)
      int nw = 0;
      for (int f = 0; f < nf; ++f)
        if (s.program.written_pass(f) >= 0) ++nw;
      outs.assign(static_cast<std::size_t>(nw),
                  std::vector<bfloat16_t>(s.layout.elems()));
      std::size_t j = 0;
      for (int f = 0; f < nf; ++f) {
        if (s.program.written_pass(f) < 0) continue;
        cq_read.enqueue_read_buffer(
            *bufs[static_cast<std::size_t>(odd ? nf + f : f)],
            std::as_writable_bytes(std::span{outs[j]}), /*blocking=*/false);
        ++j;
      }
      continue;
    }
    // Deliver the primary field (the last pass's target, always written:
    // its final parity follows the iteration count).
    const int pf = s.program.primary_field();
    outs.assign(1, std::vector<bfloat16_t>(s.layout.elems()));
    cq_read.enqueue_read_buffer(*bufs[static_cast<std::size_t>(odd ? nf + pf : pf)],
                                std::as_writable_bytes(std::span{outs.front()}),
                                /*blocking=*/false);
  }
  fl.read_done = cq_read.record_event();

  ++metrics_.batches;
  metrics_.batched_requests += static_cast<std::uint64_t>(b);
  for (std::uint64_t id : batch) {
    auto& r = results_.at(id);
    r.card = card.index;
    r.batch_size = b;
    if (requests_.at(id).iterations_done == 0) {
      r.dispatched = t;
      record_span(sim::TraceEventKind::kServeQueueWait, r.admit, t - r.admit,
                  tenant_track(r.tenant), id);
    }
  }
  card.inflight.push_back(std::move(fl));
  return true;
}

// ---------------------------------------------------------------------------
// Sharded multi-card sessions

bool StencilService::dispatch_sharded(std::uint64_t id) {
  Pending& p = requests_.at(id);
  const int n = p.shard_cards;
  TTSIM_CHECK(n >= 2);
  const int slot = cfg_.run.cores_x * cfg_.run.cores_y;

  // When the pool can never field the group again, fail now rather than
  // stalling drain() forever. A quarantined card still counts if a probe
  // could heal it back.
  int possible = 0;
  for (const auto& c : cards_) {
    if (c->retired) continue;
    if (static_cast<int>(c->device->usable_workers().size()) >= slot ||
        (c->health == CardHealth::kQuarantined && cfg_.health.heal_on_probe)) {
      ++possible;
    }
  }
  if (possible < n) {
    pending_.erase(std::find(pending_.begin(), pending_.end(), id));
    fail_request(id, "not enough usable cards left for the sharded group");
    return true;
  }

  // Group formation: idle cards only — the group runs the whole segment
  // synchronously in lockstep, so a card with batches in flight would stall
  // its neighbours. Healthy cards are drafted before degraded ones, in index
  // order within a class (deterministic).
  std::vector<Card*> group;
  for (auto& c : cards_) {
    if (c->retired || c->health == CardHealth::kQuarantined) continue;
    if (!c->inflight.empty()) continue;
    if (static_cast<int>(c->device->usable_workers().size()) < slot) continue;
    group.push_back(c.get());
  }
  std::stable_sort(group.begin(), group.end(),
                   [](const Card* a, const Card* b) {
                     return (a->health == CardHealth::kHealthy ? 0 : 1) <
                            (b->health == CardHealth::kHealthy ? 0 : 1);
                   });
  if (static_cast<int>(group.size()) < n) return false;  // wait for harvests
  group.resize(static_cast<std::size_t>(n));

  // Align the group's clocks at the segment start (a future arrival
  // fast-forwards the idle group, exactly like dispatch_on's idle path).
  SimTime t0 = std::max(service_now_, p.req.arrival);
  for (Card* c : group) t0 = std::max(t0, c->device->now());
  for (Card* c : group) c->device->hw().engine().run_until(t0);

  pending_.erase(std::find(pending_.begin(), pending_.end(), id));
  auto& rr = results_.at(id);
  if (p.req.deadline != 0 && p.req.deadline < t0) {
    rr.deadline_missed = true;
    ++metrics_.tenants[p.req.tenant].deadline_missed;
    fail_request(id, "deadline passed before dispatch");
    return true;
  }

  std::vector<int> gids;
  std::vector<ttmetal::Device*> devs;
  for (Card* c : group) {
    // The slab buffers need the card's DRAM to themselves; cached
    // single-card sessions (idle by construction) give their buffers back.
    c->sessions.clear();
    gids.push_back(c->index);
    devs.push_back(c->device.get());
  }

  const ShapeKey key = p.key;
  core::ShardedRunConfig scfg;
  scfg.run = run_for(key);
  scfg.exchange_every = 0;  // the strategy's natural epoch
  scfg.verify = false;

  // A per-group fabric: positions are group slots, global card ids name the
  // trace tracks and fault hooks. Link parameters come from the service
  // config or, by default, from the drafted cards' own family spec.
  sim::ChipLinkFabric fabric(
      n,
      cfg_.link ? *cfg_.link
                : sim::ChipLinkConfig::from_spec(group.front()->spec),
      gids);

  if (p.iterations_done == 0) {
    rr.dispatched = t0;
    record_span(sim::TraceEventKind::kServeQueueWait, rr.admit, t0 - rr.admit,
                tenant_track(rr.tenant), id);
  } else if (p.group != gids) {
    // The resumed segment landed on a different card group: the sealed
    // GLOBAL checkpoint is what makes that legal.
    ++metrics_.migrations;
    ++rr.migrations;
  }

  const int total = p.req.general->iterations;
  try {
    core::GeneralStencilProblem gp = *p.req.general;
    gp.iterations = key.iterations;
    std::vector<std::vector<bfloat16_t>> gstate;
    if (p.iterations_done > 0) {
      const core::PaddedLayout global(gp.width, gp.height);
      for (int f = 0; f < static_cast<int>(gp.fields.size()); ++f) {
        // Written fields resume from their sealed checkpoints; read-only
        // fields never change, so their images restage from the spec.
        gstate.push_back(gp.written_pass(f) >= 0
                             ? p.ckpt[static_cast<std::size_t>(f)].image()
                             : core::general_field_image(global, gp, f));
      }
    }
    core::ShardedRunResult res =
        core::run_general_sharded(devs, fabric, gp, scfg, &gstate);

    SimTime end = t0;
    for (ttmetal::Device* d : devs) end = std::max(end, d->now());
    ++metrics_.sharded_segments;
    metrics_.sharded_link_bytes += res.link_bytes;
    record_span(sim::TraceEventKind::kServeKernel, t0, end - t0,
                card_track(gids.front()), id, n);

    p.iterations_done += key.iterations;
    p.group = gids;
    rr.card = gids.front();
    rr.group = gids;
    rr.batch_size = 1;
    if (p.iterations_done < total) {
      // Seal the whole-domain state — one global padded image per written
      // field — so the next segment may run on ANY group of idle cards.
      const int nf = static_cast<int>(gp.fields.size());
      p.ckpt.assign(static_cast<std::size_t>(nf), SessionCheckpoint{});
      for (int f = 0; f < nf; ++f) {
        if (gp.written_pass(f) < 0) continue;
        p.ckpt[static_cast<std::size_t>(f)] = SessionCheckpoint::capture(
            std::move(gstate[static_cast<std::size_t>(f)]), p.iterations_done, end);
      }
      p.ckpt_card = gids.front();
      p.key = effective_key(p);
      p.req.arrival = std::max(p.req.arrival, end);
      ++metrics_.checkpoints_taken;
      for (const auto& c : p.ckpt) metrics_.checkpoint_bytes += c.bytes();
      pending_.push_front(id);
      return true;
    }
    rr.status = RequestStatus::kCompleted;
    rr.completed = end;
    rr.latency = end - rr.admit;
    if (p.req.deadline != 0 && end > p.req.deadline) {
      rr.deadline_missed = true;
      ++metrics_.tenants[rr.tenant].deadline_missed;
    }
    rr.solution = std::move(res.solution);
    TenantStats& ts = metrics_.tenants[rr.tenant];
    ++ts.completed;
    ts.latencies.push_back(rr.latency);
    requests_.erase(id);
    return true;
  } catch (const SimError& e) {
    // Group-wide recovery: reopen EVERY card (the segment may have wedged
    // any of their queues), but penalise only the cards that come back
    // short of a slot — a link fault is nobody's silicon.
    SimTime fail_now = t0;
    for (ttmetal::Device* d : devs) fail_now = std::max(fail_now, d->now());
    for (Card* c : group) {
      ++metrics_.card_reopens;
      metrics_.commands_cancelled += c->device->cancel_queues();
      reopen_card(*c, fail_now);
      if (static_cast<int>(c->device->usable_workers().size()) >= slot)
        continue;
      c->clean_streak = 0;
      ++c->consecutive_failures;
      if (c->consecutive_failures >= cfg_.health.quarantine_after) {
        if (c->health != CardHealth::kQuarantined) ++metrics_.quarantines;
        c->health = CardHealth::kQuarantined;
        c->probe_at = fail_now + cfg_.health.probe_after;
      } else if (c->health == CardHealth::kHealthy) {
        c->health = CardHealth::kDegraded;
      }
    }
    const bool expired = p.req.deadline != 0 && p.req.deadline <= fail_now;
    if (!e.retryable() || rr.retries >= cfg_.max_retries || expired) {
      if (expired) {
        rr.deadline_missed = true;
        ++metrics_.tenants[p.req.tenant].deadline_missed;
      }
      fail_request(id, e.what());
      return true;
    }
    ++rr.retries;
    metrics_.iterations_saved += static_cast<std::uint64_t>(p.iterations_done);
    p.req.arrival = std::max(p.req.arrival, fail_now);
    rr.card = -1;
    rr.batch_size = 0;
    pending_.push_front(id);
    return true;
  } catch (const ApiError& e) {
    // Structural rejection from the sharded runner (infeasible
    // decomposition): the request fails, the cards are untouched.
    fail_request(id, e.what());
    return true;
  }
}

void StencilService::note_clean_harvest(Card& card) {
  card.consecutive_failures = 0;
  if (card.health == CardHealth::kDegraded) {
    if (++card.clean_streak >= cfg_.health.readmit_successes) {
      card.health = CardHealth::kHealthy;
      card.clean_streak = 0;
    }
  }
}

void StencilService::harvest_one(Card& card) {
  TTSIM_CHECK(!card.inflight.empty());
  try {
    card.device->synchronize(card.inflight.front().read_done);
  } catch (const SimError& e) {
    // One catch for the whole fault taxonomy: watchdog timeouts, transfer
    // retry exhaustion and engine deadlocks are retryable (the victims
    // requeue onto a fresh generation); a violated invariant is not.
    handle_card_failure(card, e.what(), e.retryable());
    return;
  }
  note_clean_harvest(card);

  InFlight fl = std::move(card.inflight.front());
  card.inflight.pop_front();
  Session& s = *card.sessions.at(fl.key);
  const int b = static_cast<int>(fl.members.size());
  const SimTime h2d_end = fl.write_done.completed_at();
  const SimTime kernel_end = fl.kernel_done.completed_at();
  const SimTime d2h_end = fl.read_done.completed_at();
  const int track = card_track(card.index);
  record_span(sim::TraceEventKind::kServeH2D, fl.dispatched, h2d_end - fl.dispatched,
              track, fl.members.front(), b);
  record_span(sim::TraceEventKind::kServeKernel, h2d_end, kernel_end - h2d_end,
              track, fl.members.front(), b);
  record_span(sim::TraceEventKind::kServeD2H, kernel_end, d2h_end - kernel_end,
              track, fl.members.front(), b);

  // Batch service time feeds the SLO admission estimate (integer EWMA,
  // newest sample weighted 1/4 — smooth but responsive, and deterministic),
  // keyed by (program, spec) so unlike-cost workloads keep separate
  // histories and a Wormhole's samples never pollute a Grayskull's.
  const SimTime sample = d2h_end - fl.dispatched;
  SimTime& ewma = ewma_batch_[{fl.key.program, card.spec.name}];
  ewma = ewma == 0 ? sample : (3 * ewma + sample) / 4;

  std::vector<std::uint64_t> continuations;
  for (int g = 0; g < b; ++g) {
    const std::uint64_t id = fl.members[static_cast<std::size_t>(g)];
    Pending& p = requests_.at(id);
    auto& r = results_.at(id);
    p.iterations_done += fl.key.iterations;
    if (fl.continues[static_cast<std::size_t>(g)] != 0) {
      // Mid-solve segment: seal the readback — the full padded device image
      // of every written field — as this request's checkpoints and requeue
      // the remainder. The next segment may land on any card (migration).
      auto& imgs = fl.outputs[static_cast<std::size_t>(g)];
      const int nf = static_cast<int>(p.req.general->fields.size());
      p.ckpt.assign(static_cast<std::size_t>(nf), SessionCheckpoint{});
      std::size_t j = 0;
      for (int f = 0; f < nf; ++f) {
        if (p.req.general->written_pass(f) < 0) continue;
        p.ckpt[static_cast<std::size_t>(f)] = SessionCheckpoint::capture(
            std::move(imgs[j]), p.iterations_done, d2h_end);
        ++j;
      }
      p.ckpt_card = card.index;
      p.key = effective_key(p);
      // Causality across skewed card clocks: the next segment must not
      // dispatch (on any card) before this one's readback finished.
      p.req.arrival = std::max(p.req.arrival, d2h_end);
      ++metrics_.checkpoints_taken;
      for (const auto& c : p.ckpt) metrics_.checkpoint_bytes += c.bytes();
      continuations.push_back(id);
      continue;
    }
    r.status = RequestStatus::kCompleted;
    r.completed = d2h_end;
    r.latency = d2h_end - r.admit;
    if (p.req.deadline != 0 && d2h_end > p.req.deadline) {
      r.deadline_missed = true;
      ++metrics_.tenants[r.tenant].deadline_missed;
    }
    r.solution = s.layout.extract_interior(
        fl.outputs[static_cast<std::size_t>(g)].front());
    TenantStats& ts = metrics_.tenants[r.tenant];
    ++ts.completed;
    ts.latencies.push_back(r.latency);
    requests_.erase(id);
  }
  // Continuations go to the FRONT in slot order so a long solve is not
  // starved by traffic that arrived while its segment ran.
  for (auto it = continuations.rbegin(); it != continuations.rend(); ++it) {
    pending_.push_front(*it);
  }
}

void StencilService::reopen_card(Card& card, SimTime resume_at) {
  // Sessions hold the card's buffers and compiled programs; they must be
  // torn down before the device they were built on.
  card.sessions.clear();
  card.device.reset();
  // Reopen: the card's FaultPlan spans generations, so a failed core stays
  // failed (unless a probe healed it) and the next session on this card
  // shrinks its batch width accordingly.
  card.device = ttmetal::Device::open(card.spec, card.dev_cfg);
  // A reboot does not rewind time: restore the card clock so service
  // latencies stay monotone.
  card.device->hw().engine().run_until(resume_at);
}

void StencilService::handle_card_failure(Card& card, const std::string& why,
                                         bool retryable) {
  ++metrics_.card_reopens;
  const SimTime old_now = card.device->now();

  // Health bookkeeping: the first failure degrades the card; a streak
  // quarantines it (the scheduler stops feeding it until a probe passes).
  card.clean_streak = 0;
  ++card.consecutive_failures;
  if (card.consecutive_failures >= cfg_.health.quarantine_after) {
    if (card.health != CardHealth::kQuarantined) ++metrics_.quarantines;
    card.health = CardHealth::kQuarantined;
    card.probe_at = old_now + cfg_.health.probe_after;
  } else if (card.health == CardHealth::kHealthy) {
    card.health = CardHealth::kDegraded;
  }

  std::vector<std::uint64_t> victims;
  for (const auto& fl : card.inflight)
    for (std::uint64_t id : fl.members) victims.push_back(id);
  card.inflight.clear();
  // Drop what never started off the wedged queues (and clear the parked
  // host error) so teardown does not trip over half-enqueued work.
  metrics_.commands_cancelled += card.device->cancel_queues();
  reopen_card(card, old_now);

  // Oldest-first victims requeue to the *front* of the pending queue in
  // their original order (reverse iteration + push_front). A victim with a
  // checkpoint resumes from it — only the lost segment re-runs.
  for (auto it = victims.rbegin(); it != victims.rend(); ++it) {
    const std::uint64_t id = *it;
    auto& r = results_.at(id);
    Pending& p = requests_.at(id);
    const bool expired = p.req.deadline != 0 && p.req.deadline <= old_now;
    if (!retryable || r.retries >= cfg_.max_retries || expired) {
      if (expired) {
        r.deadline_missed = true;
        ++metrics_.tenants[p.req.tenant].deadline_missed;
      }
      fail_request(id, why);
      continue;
    }
    ++r.retries;
    metrics_.iterations_saved += static_cast<std::uint64_t>(p.iterations_done);
    // The retried segment must not dispatch before the failure was observed.
    p.req.arrival = std::max(p.req.arrival, old_now);
    r.card = -1;
    r.batch_size = 0;
    pending_.push_front(id);
  }
}

void StencilService::probe_card(Card& card) {
  ++metrics_.probes;
  const SimTime at = std::max(card.device->now(), card.probe_at);
  if (cfg_.health.heal_on_probe && card.dev_cfg.fault_plan != nullptr) {
    // Field service resets the flapping card's transient core faults; kills
    // scripted for later times survive, so a card can flap repeatedly.
    card.dev_cfg.fault_plan->heal_dead_cores(at);
  }
  reopen_card(card, at);
  const int slot = cfg_.run.cores_x * cfg_.run.cores_y;
  const int usable = static_cast<int>(card.device->usable_workers().size());
  if (usable >= slot) {
    // Readmit on probation: degraded until readmit_successes clean harvests.
    card.health = CardHealth::kDegraded;
    card.consecutive_failures = 0;
    card.clean_streak = 0;
    ++metrics_.readmissions;
    return;
  }
  if (cfg_.health.heal_on_probe) {
    card.probe_at = at + cfg_.health.probe_after;  // the flap may clear later
  } else {
    card.retired = true;  // dead silicon, no field service: written off
  }
}

bool StencilService::step() {
  bool progress = false;
  // Readmission probes due on the service clock run first, so a recovered
  // card is back in the pool before this step's dispatch decisions.
  const SimTime tnow = now();
  for (auto& c : cards_) {
    if (c->health == CardHealth::kQuarantined && !c->retired &&
        tnow >= c->probe_at) {
      probe_card(*c);
      progress = true;
    }
  }
  // Sharded sessions dispatch first: a group of idle cards is easiest to
  // assemble before the single-card scheduler parcels them out. Ids are
  // snapshotted because a dispatched segment rewrites the queue.
  auto try_sharded = [&](bool allow_future) {
    bool any = false;
    std::vector<std::uint64_t> ids;
    for (std::uint64_t sid : pending_) {
      const Pending& p = requests_.at(sid);
      if (p.shard_cards == 0) continue;
      if (!allow_future && p.req.arrival > tnow) continue;
      ids.push_back(sid);
    }
    for (std::uint64_t sid : ids) {
      if (std::find(pending_.begin(), pending_.end(), sid) == pending_.end())
        continue;
      if (dispatch_sharded(sid)) any = true;
    }
    return any;
  };
  if (try_sharded(/*allow_future=*/false)) progress = true;
  // Dispatch onto the best available card for as long as batches can be
  // formed. Health first (steer away from degraded cards), then fewest
  // batches in flight, then the clock furthest behind. Load before clock
  // matters for a same-instant wave: dispatching does not advance a card's
  // clock, so a clock-only rule would stack the wave onto card 0 up to
  // pipeline depth before the rest of the pool saw any work.
  while (!pending_.empty()) {
    Card* best = nullptr;
    auto rank = [](const Card& c) {
      return std::make_tuple(c.health == CardHealth::kDegraded ? 1 : 0,
                             c.inflight.size(), c.device->now());
    };
    for (auto& c : cards_) {
      if (c->retired || c->health == CardHealth::kQuarantined) continue;
      if (c->inflight.size() >= kPipelineDepth) continue;
      if (!best || rank(*c) < rank(*best)) best = c.get();
    }
    if (!best || !dispatch_on(*best)) break;
    progress = true;
  }
  // Harvest the oldest in-flight batch across the pool.
  Card* oldest = nullptr;
  for (auto& c : cards_) {
    if (c->inflight.empty()) continue;
    if (!oldest ||
        c->inflight.front().dispatched < oldest->inflight.front().dispatched)
      oldest = c.get();
  }
  if (oldest) {
    harvest_one(*oldest);
    progress = true;
  }
  // Stall guard: work is queued but every card is quarantined. Fast-forward
  // the service clock to the earliest probe and run it; when no card can
  // ever come back, fail the queue instead of spinning. A sharded request
  // whose arrival is still in the future gets one more chance first — an
  // idle group fast-forwards to it.
  if (!progress && !pending_.empty() &&
      try_sharded(/*allow_future=*/true)) {
    progress = true;
  }
  if (!progress && !pending_.empty()) {
    Card* next_probe = nullptr;
    for (auto& c : cards_) {
      if (c->health != CardHealth::kQuarantined || c->retired) continue;
      if (!next_probe || c->probe_at < next_probe->probe_at)
        next_probe = c.get();
    }
    if (next_probe != nullptr) {
      service_now_ = std::max(service_now_, next_probe->probe_at);
      probe_card(*next_probe);
      progress = true;
    } else {
      bool any_usable = false;
      for (const auto& c : cards_) {
        if (!c->retired && c->health != CardHealth::kQuarantined)
          any_usable = true;
      }
      if (!any_usable) {
        while (!pending_.empty()) {
          const std::uint64_t id = pending_.front();
          pending_.pop_front();
          fail_request(id, "no usable card left in the pool");
        }
        progress = true;
      }
    }
  }
  return progress;
}

void StencilService::drain() {
  while (step()) {
  }
  TTSIM_CHECK_MSG(pending_.empty(), "drain() finished with requests still queued");
}

const RequestResult& StencilService::result(std::uint64_t ticket_id) const {
  auto it = results_.find(ticket_id);
  if (it == results_.end()) TTSIM_THROW_API("unknown ticket id " << ticket_id);
  return it->second;
}

SimTime StencilService::now() const {
  SimTime t = service_now_;
  for (const auto& c : cards_) t = std::max(t, c->device->hw().engine().now());
  return t;
}

}  // namespace ttsim::serve
