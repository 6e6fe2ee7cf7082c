#pragma once
/// \file serve.hpp
/// Asynchronous multi-tenant stencil serving on a pool of simulated cards.
///
/// A StencilService accepts stencil solve requests (the paper's Jacobi or
/// any general radius-1 program) from many tenants and runs them on N
/// simulated Grayskull e150s. Every request is a general stencil program
/// from admission on — a Jacobi request becomes core::jacobi_program — so
/// one session, dispatch, staging, readback and checkpoint path serves all
/// of them. Three mechanisms buy throughput over serial blocking dispatch:
///
///   1. **Spatial batching** — up to max_batch same-shape requests launch as
///      ONE program on disjoint core groups (build_batched_stencil_program),
///      paying the ~500 us program-dispatch cost once and running the solves
///      in parallel across the grid.
///   2. **Async overlap** — each card drives three command queues (writes,
///      programs, reads) ordered by events, so batch j+1's host->device
///      staging rides the PCIe bus while batch j's kernels occupy the cores
///      (double-banked slot buffers make this safe).
///   3. **Session caching** — per (card, shape) sessions hold the streaming
///      buffers and the compiled batch programs; a shape pays its setup cost
///      once and every later request reuses it.
///
/// Scheduling is priority-first, then round-robin across tenants within a
/// priority (fair share), with same-shape head-of-line coalescing to form
/// batches. The pending queue is bounded: when full, submit() rejects with a
/// retry-after hint (backpressure) instead of queueing unboundedly.
///
/// **Resilience** (see DESIGN.md, "Service resilience") rides on four
/// mechanisms layered over the PR-1 device machinery:
///
///   * **Checkpoint/migration** — with checkpoint_every = k, a solve runs as
///     ceil(iterations / k)-sweep segments; each segment's readback is
///     sealed host-side as a CRC-32'd SessionCheckpoint (the exact padded
///     BF16 device image, PR 1's resilient-solver format). When a card dies
///     mid-solve the victim requeues and its next segment uploads the
///     checkpoint onto whichever card dispatches it — bit-exact resume,
///     since the image is the whole numerical state.
///   * **Health-tracked pool** — per-card healthy / degraded / quarantined
///     states driven by harvest outcomes (health.hpp). The scheduler steers
///     work away from degraded cards and gives quarantined ones none;
///     readmission goes through a probe that reopens the card (optionally
///     healing flapping cores via FaultPlan::heal_dead_cores) and checks it
///     can still field a batch slot.
///   * **SLO-aware admission** — with slo_admission set, a deadline request
///     is rejected at submit when the EWMA batch-service estimate says it
///     cannot finish in time (retry_after = 0: resubmitting unchanged is
///     pointless). With shed_low_priority, a full queue evicts its
///     lowest-priority newest entry to admit a higher-priority newcomer
///     instead of bouncing it. With adaptive_retry, backpressure hints
///     scale with the estimated queue drain time instead of a constant.
///   * **Typed errors** — every recoverable fault (DeviceTimeoutError,
///     TransferError, DeadlockError) and every logic error (CheckError)
///     implements SimError; harvest catches the one base and consults
///     retryable() to pick requeue-and-reopen vs fail-fast.
///
/// **Multi-chip** (DESIGN.md, "Multi-chip"): the pool may mix device-family
/// members (ServiceConfig::card_specs — Grayskulls beside Wormholes), with
/// capacity and cost tracked per spec. A request whose grids exceed every
/// single card's DRAM budget is admitted as a **sharded session**: its
/// segments dispatch synchronously onto a group of idle cards cabled into a
/// per-group ChipLinkFabric and run through core/sharded.hpp's bit-exact
/// halo-exchange solver. Segment results are sealed as CRC'd checkpoints of
/// the GLOBAL padded image, so a card dying mid-group wedges only that
/// segment: the victims reopen through the health machinery, the group
/// re-forms around the casualty, and the solve resumes bit-exactly
/// (migrations are counted when the group changes).
///
/// Everything is simulated time on the cards' deterministic engines: the
/// same submission sequence always produces the same timeline, latencies and
/// span trace (byte-identical across runs — the loadgen pins this).

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/serve/checkpoint.hpp"
#include "ttsim/serve/health.hpp"
#include "ttsim/sim/chiplink.hpp"
#include "ttsim/sim/trace.hpp"

namespace ttsim::serve {

/// Everything that shapes the compiled program and the session buffers.
/// Boundary values are NOT part of the key: they only change the initial
/// image (per-request data), so requests with different physics batch
/// together as long as the shapes match. With checkpointing, `iterations`
/// is the SEGMENT length (remaining sweeps capped at checkpoint_every), so
/// requests resume mid-solve batch with others at the same remaining depth.
struct ShapeKey {
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  int iterations = 0;
  std::uint32_t chunk_elems = 0;
  int read_ahead = 0;
  /// transition_hash() of the request's stencil program (a Jacobi request's
  /// is jacobi_program's). Structure (fields, passes, taps, weights, scale)
  /// keys the compiled program; boundary values and initial fields stay
  /// per-request data, so requests with different physics batch together.
  std::uint64_t program = 0;
  /// Solver strategy the session's programs compile for (DeviceStrategy as
  /// int) and, for kTemporal, the chained depth. Both shape the compiled
  /// kernels, so requests only batch together when they match.
  int strategy = 0;
  int temporal_depth = 1;
  auto operator<=>(const ShapeKey&) const = default;
};

/// One tenant request: solve `problem` some time at or after `arrival`
/// (simulated time on the service clock).
struct Request {
  /// The paper's Jacobi problem; submit() converts it to
  /// core::jacobi_program(problem) unless `general` is set.
  core::JacobiProblem problem;
  /// General radius-1 stencil program (the workload gallery and beyond).
  /// When set, `problem` is ignored: geometry and iterations come from the
  /// general problem, and the delivered `solution` is the primary field's
  /// interior. With checkpoint_every set, solves run in segments: each
  /// segment seals one checkpoint per WRITTEN field (read-only fields
  /// restage from the program spec), so a card fault only re-runs the lost
  /// segment and the resume is bit-exact on any card.
  std::optional<core::GeneralStencilProblem> general;
  /// Per-request solver strategy (kRowChunk or kTemporal); nullopt uses the
  /// service's run.strategy. kTemporal requests must satisfy the temporal
  /// eligibility rules (cores_x == 1, width <= 1024 or a multiple of 1024,
  /// general programs single-pass) or they fail at submit.
  std::optional<core::DeviceStrategy> strategy;
  /// kTemporal: iterations chained per DRAM pass; 0 uses the service's
  /// run.temporal_depth.
  int temporal_depth = 0;
  int tenant = 0;
  int priority = 0;       ///< higher dispatches first
  SimTime arrival = 0;    ///< earliest dispatch time (simulated)
  SimTime deadline = 0;   ///< absolute sim time; 0 = none. Missed-at-dispatch
                          ///< requests fail; missed-at-completion ones are
                          ///< delivered but counted as deadline_missed.
};

enum class RequestStatus : std::uint8_t {
  kQueued,     ///< admitted, not yet completed
  kCompleted,  ///< solution delivered
  kFailed,     ///< invalid shape, deadline missed at dispatch, or retries
               ///< exhausted after card faults
  kRejected,   ///< backpressure (queue full / shed) or SLO-infeasible
};

/// Submit outcome. Rejected tickets carry a retry-after hint: the earliest
/// simulated time resubmission is worth attempting, or 0 when resubmitting
/// the same request is pointless (deadline infeasible — relax it instead).
struct Ticket {
  std::uint64_t id = 0;
  RequestStatus status = RequestStatus::kQueued;
  SimTime retry_after = 0;
};

/// Final state of one request (query via StencilService::result()).
struct RequestResult {
  RequestStatus status = RequestStatus::kQueued;
  int tenant = 0;
  int card = -1;          ///< card that ran it (-1 until dispatched)
  int batch_size = 0;     ///< slots in the launch that carried it
  int retries = 0;        ///< times requeued after a card fault
  int migrations = 0;     ///< checkpoint resumes on a different card
  SimTime admit = 0;      ///< arrival time as admitted
  SimTime dispatched = 0; ///< batch formation time on the card clock
  SimTime completed = 0;  ///< D2H readback done
  SimTime latency = 0;    ///< completed - admit
  SimTime retry_after = 0;  ///< kRejected: the ticket's resubmission hint
  bool deadline_missed = false;
  std::string error;            ///< kFailed: why
  std::vector<float> solution;  ///< interior, row-major (kCompleted only)
  /// Sharded multi-card sessions only: the cards of the LAST segment's
  /// group (empty for single-card requests). `card` holds the group head.
  std::vector<int> group;
};

struct ServiceConfig {
  int cards = 1;
  sim::GrayskullSpec spec;
  /// Per-card spec overrides — a heterogeneous pool mixing device family
  /// members (Grayskull e150s beside Wormholes). Empty = every card uses
  /// `spec`; otherwise size must equal `cards`. Capacity (usable workers,
  /// DRAM budget) and cost (the EWMA admission history is keyed per spec)
  /// are tracked per family member.
  std::vector<sim::DeviceSpec> card_specs;
  /// Chip-to-chip link parameters for sharded multi-card sessions; nullopt
  /// derives them from the group head's spec (ChipLinkConfig::from_spec —
  /// Ethernet on Wormhole, the PCIe-host bounce on Grayskull).
  std::optional<sim::ChipLinkConfig> link;
  /// Per-card device config. Shared fault_plan spans card reopens, so a
  /// failed core stays failed for the service's lifetime. Set
  /// sim_time_limit to arm the watchdog that converts core kills into
  /// recoverable DeviceTimeoutErrors.
  ttmetal::DeviceConfig device;
  /// Per-card overrides of `device` (empty = every card uses `device`;
  /// otherwise size must equal `cards`). Lets chaos scenarios give each
  /// card its own fault plan so one card can storm while its pool-mates
  /// stay clean.
  std::vector<ttmetal::DeviceConfig> card_devices;
  /// Per-slot solver config; strategy must be kRowChunk or kTemporal (a
  /// per-request Request::strategy can override either way). cores_x *
  /// cores_y workers serve one request; a card batches as many slots as its
  /// usable workers allow (capped by max_batch).
  core::DeviceRunConfig run;
  int max_batch = 8;
  /// Bounded admission queue; submissions beyond this reject (backpressure).
  std::size_t queue_capacity = 256;
  /// Retry-after hint attached to rejections, added to the service clock.
  SimTime retry_after = 1 * kMillisecond;
  /// Requeue budget per request across card faults.
  int max_retries = 1;
  /// Record per-request spans (admit/queue/h2d/kernel/d2h) in spans().
  bool record_spans = true;
  /// Checkpoint period in sweeps: a solve runs as segments of at most this
  /// many iterations, each segment's result sealed host-side as migratable
  /// checkpoints (one per written field). 0 (default) disables checkpointing — a card fault
  /// restarts the solve from scratch, exactly the pre-resilience behavior.
  int checkpoint_every = 0;
  /// Health state machine knobs (degrade / quarantine / probe / readmit).
  HealthConfig health;
  /// Reject deadline requests at submit when the EWMA service-time estimate
  /// says they cannot finish in time (retry_after = 0 on the ticket).
  bool slo_admission = false;
  /// When the queue is full, evict its lowest-priority newest entry to make
  /// room for a strictly higher-priority newcomer (the evictee is rejected
  /// with a retry hint) instead of rejecting the newcomer.
  bool shed_low_priority = false;
  /// Scale backpressure retry-after hints with the estimated time to drain
  /// the current queue instead of the constant `retry_after`.
  bool adaptive_retry = false;
};

struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t deadline_missed = 0;
  std::vector<SimTime> latencies;  ///< completed requests, admission order
};

struct ServiceMetrics {
  std::map<int, TenantStats> tenants;
  std::uint64_t batches = 0;           ///< programs launched
  std::uint64_t batched_requests = 0;  ///< requests carried by those launches
  std::uint64_t session_cache_hits = 0;
  std::uint64_t session_cache_misses = 0;
  std::uint64_t card_reopens = 0;  ///< devices lost to faults and reopened
  std::size_t max_queue_depth = 0;

  // -- resilience --
  std::uint64_t checkpoints_taken = 0;   ///< segment results sealed host-side
  std::uint64_t checkpoint_bytes = 0;    ///< total bytes across those seals
  std::uint64_t migrations = 0;          ///< checkpoint resumes on a new card
  std::uint64_t iterations_saved = 0;    ///< sweeps a retry did NOT redo
  std::uint64_t shed = 0;                ///< queued requests evicted for
                                         ///< higher-priority newcomers
  std::uint64_t infeasible_rejects = 0;  ///< SLO-admission rejects
  std::uint64_t quarantines = 0;         ///< healthy/degraded -> quarantined
  std::uint64_t probes = 0;              ///< readmission probes run
  std::uint64_t readmissions = 0;        ///< probes that passed
  std::uint64_t commands_cancelled = 0;  ///< queue entries dropped off wedged
                                         ///< devices before reopen

  // -- sharded multi-card sessions --
  std::uint64_t sharded_sessions = 0;    ///< requests admitted as card groups
  std::uint64_t sharded_segments = 0;    ///< group launches across those
  std::uint64_t sharded_link_bytes = 0;  ///< halo bytes over chip links

  /// Latency percentile over every completed request (0 when none).
  SimTime latency_percentile(double p) const;
  SimTime p50() const { return latency_percentile(0.50); }
  SimTime p99() const { return latency_percentile(0.99); }
  SimTime p999() const { return latency_percentile(0.999); }
  std::uint64_t total_completed() const;
};

/// The serving frontend. Single-threaded and deterministic: submit requests
/// (arrival times non-decreasing per your workload model), then drain() — or
/// interleave submit/drain waves for closed-loop clients.
class StencilService {
 public:
  explicit StencilService(ServiceConfig config);
  ~StencilService();

  StencilService(const StencilService&) = delete;
  StencilService& operator=(const StencilService&) = delete;

  /// Admit (or reject) one request. O(queue) worst case; no simulation runs
  /// here.
  Ticket submit(const Request& request);

  /// Run the cards until every admitted request has completed or failed.
  void drain();

  /// One scheduling action (dispatch a batch, harvest the oldest in-flight
  /// one, or probe a quarantined card). Returns false when there is nothing
  /// left to do.
  bool step();

  /// Final state of a submitted request (ApiError for unknown ids).
  const RequestResult& result(std::uint64_t ticket_id) const;

  const ServiceMetrics& metrics() const { return metrics_; }

  /// Per-request span trace (kServeAdmit .. kServeD2H), when
  /// ServiceConfig::record_spans. Deterministic: byte-identical canonical()
  /// across runs of the same submission sequence.
  const sim::TraceSink& spans() const { return spans_; }

  /// Service clock: the max of the card clocks and the latest admission.
  SimTime now() const;

  int cards() const { return static_cast<int>(cards_.size()); }
  /// Batch slots card `card` can currently field for `key`'s shape (shrinks
  /// when the fault plan kills cores; 0 = the card cannot serve the shape).
  int card_capacity(int card, const ShapeKey& key);
  /// Current health state of `card` (see health.hpp for the machine).
  CardHealth card_health(int card) const;
  /// The device-family spec card `card` was opened with.
  const sim::DeviceSpec& card_spec(int card) const;
  /// EWMA batch-cost history for (program transition hash, spec name); 0 =
  /// no history yet. The SLO admission estimate reads exactly this table.
  SimTime ewma_cost(std::uint64_t program, const std::string& spec_name) const;

  /// Race-detector findings accumulated across every card's device, in card
  /// order. Empty unless ServiceConfig::device.enable_verify is set.
  std::vector<verify::Finding> verify_findings() const;

 private:
  struct Card;
  struct Session;
  struct InFlight;
  struct Pending;

  Session& session(Card& card, const ShapeKey& key,
                   const core::GeneralStencilProblem& program);
  /// The shape of `p`'s NEXT segment (remaining sweeps, capped at
  /// checkpoint_every when checkpointing is on).
  ShapeKey effective_key(const Pending& p) const;
  bool dispatch_on(Card& card);
  /// Synchronous group dispatch of one sharded request's next segment onto
  /// idle cards. Returns false when too few idle cards are available yet.
  bool dispatch_sharded(std::uint64_t id);
  void harvest_one(Card& card);
  void handle_card_failure(Card& card, const std::string& why, bool retryable);
  void reopen_card(Card& card, SimTime resume_at);
  /// Readmission probe for a quarantined card (heal, reopen, capacity
  /// check). Passing readmits as degraded; failing reschedules or retires.
  void probe_card(Card& card);
  void note_clean_harvest(Card& card);
  void fail_request(std::uint64_t id, const std::string& why);
  /// Batch slots currently fielded by cards the scheduler may use.
  int active_slots() const;
  /// EWMA-based estimate of when a request admitted now would complete; 0
  /// when there is no service-time history for ITS program yet. History is
  /// kept per program hash (gallery programs cost a fraction of a Jacobi
  /// batch), so a mixed-tenant pool neither over-rejects cheap workloads
  /// nor under-rejects expensive ones.
  SimTime estimate_completion(const Request& request) const;
  SimTime backpressure_hint() const;
  /// cfg_.run with the strategy / temporal depth the key's session compiled
  /// for (per-request overrides land in the key at admission).
  core::DeviceRunConfig run_for(const ShapeKey& key) const;
  void record_span(sim::TraceEventKind kind, SimTime ts, SimTime dur, int track,
                   std::uint64_t req, std::int32_t b = 0);
  int tenant_track(int tenant);
  int card_track(int card);

  ServiceConfig cfg_;
  std::vector<std::unique_ptr<Card>> cards_;
  std::deque<std::uint64_t> pending_;  // ticket ids awaiting dispatch
  std::map<std::uint64_t, Pending> requests_;
  std::map<std::uint64_t, RequestResult> results_;
  std::uint64_t next_ticket_ = 1;
  std::uint64_t batch_seq_ = 0;
  int rr_cursor_ = 0;  // round-robin start tenant index within a priority
  SimTime service_now_ = 0;
  /// EWMA of dispatch->readback per batch, keyed by (program hash, spec
  /// name): a Wormhole retires the same program at a different cost than a
  /// Grayskull, so a hash-only key would let one family member's history
  /// poison the other's admission estimates in a mixed pool (and gallery
  /// programs already cost a fraction of a Jacobi batch — the hash half of
  /// the key). Estimates read the OPTIMISTIC (minimum) cost across specs.
  std::map<std::pair<std::uint64_t, std::string>, SimTime> ewma_batch_;
  ServiceMetrics metrics_;

  sim::Engine span_engine_;  // never run; clock source for the span sink
  sim::TraceSink spans_;
  std::map<int, int> tenant_tracks_;
  std::map<int, int> card_tracks_;
};

}  // namespace ttsim::serve
