// Topology-generic cycle-driven simulator with flat (structure-of-arrays)
// state. The topology (dragonfly, flattened butterfly, torus — see
// topo/topology.hpp) is a plugin: the engine owns queues, credits, links,
// allocation, metrics, delivery logging, and trace hooks; the Topology
// instance owns wiring, minimal routing, the VC deadlock schedule, and the
// nonminimal-candidate machinery; the routing mechanism (src/routing/) owns
// every misrouting decision and the state behind it (contention counters,
// triggers, the ECtN snapshot), reading engine state only through the
// routing::EngineProbe surface this class implements.
//
// Model summary
//  - Packet granularity, virtual cut-through-ish: a packet occupies its link
//    for packet_size cycles and arrives whole after link latency + router
//    pipeline + serialization.
//  - Input-queued routers: per (port, VC) fixed-capacity rings over one
//    shared slab; credits are tracked as free downstream slots at the
//    upstream router's output, as a credit-based router keeps them
//    (reserved at grant time, returned when the packet moves on
//    downstream).
//  - A separable input-first allocator arbitrates the crossbar each cycle;
//    the router frequency speedup of Table I is modeled as extra allocator
//    iterations per cycle.
//  - Contention counters (owned by the routing mechanism, maintained by the
//    engine's head/tail hooks) track, per output port, how many packet
//    heads' *minimal* route uses that port — deliberately independent of
//    the actual routing decision (the property behind the paper's Figure 9).
//  - Global misrouting is decided by the mechanism at injection
//    (CB/UGAL/PB/VAL) or in transit (OLM/CB, where the topology's
//    in-transit policy allows); opportunistic local misrouting diverts a
//    blocked head one extra local hop on topologies that expose detour
//    ports.
//
// After warmup the steady-state step performs zero heap allocations: packets
// come from id ranges over a pool sized at construction, queues and scratch
// are preallocated, and the event calendar reuses its buckets.
// `allocation_events()` exposes every growth event so tests can verify this.
//
// Active-set stepping: the per-cycle phases iterate only non-empty state.
// Occupied queues are per-router bitmask words plus a router summary mask
// (maintained by push_queue/pop_queue), so route_and_allocate costs
// O(active queues); links with packets in flight sit in a timing wheel
// bucketed by their front arrival, so deliver_arrivals costs O(due links *
// log due links). Both mirror the dense state exactly
// (debug_check_active_state() cross-checks them) and keep the dense scan's
// order — queues in ascending (port, vc) bit order, the due bucket sorted by
// link — so every RNG draw happens in the original sequence. Refactors must
// keep the 18 goldens in tests/test_engine_equivalence.cpp bit-exact
// (ARCHITECTURE.md, "Bit-exactness rule").
//
// Cache layout: a hop touches a few router-local lines. A queue's hot
// fields are one 16-byte record; an output's state (busy time, link, ring
// bookkeeping, wheel chain) is one 32-byte record; a packet is one 32-byte
// record; the credits an output spends sit in its own router's credit
// block; and the allocator's only per-router state is the router's
// round-robin pointers, its scratch being shared by the shard. Both
// per-cycle walks (the sorted due links in deliver_arrivals, the active
// routers in route_and_allocate) prefetch the records of the entries a
// fixed distance ahead. The queue slab and link rings, like the packet
// pool, are lazily committed mappings (LazyArray).
//
// Sharded execution (engine.threads > 1): the routers are partitioned into
// contiguous shards, one barrier-synced worker thread per shard (the
// calling thread drives shard 0). Each shard owns its routers' queues,
// output credits and contention counters, one switch allocator, its slice
// of the occupancy bitmasks, its timing wheel, a private RNG stream and
// traffic-model instance, and private metrics. State that crosses a shard
// boundary — a departure onto a link owned downstream, a credit return to
// an upstream shard, a packet id going home — travels through per-shard
// outboxes applied at the next cycle's merge point in fixed (source shard,
// FIFO) order, so results are a pure function of (params, seed,
// engine.threads). Every shard count runs the same cycle body (cycle());
// with one shard its barriers and merge are no-ops, so threads = 1 stays
// bit-exact with the goldens. Sharded runs are deterministic per shard
// count but not bit-exact across shard counts (cross-shard credits land a
// cycle late, remote probes read a cycle-start snapshot, each shard has its
// own RNG stream). See ARCHITECTURE.md, "Sharded execution".
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/packet_pool.hpp"
#include "engine/spin_barrier.hpp"
#include "fault/fault_model.hpp"
#include "router/allocator.hpp"
#include "routing/mechanism.hpp"
#include "sim/config.hpp"
#include "telemetry/packet_trace.hpp"
#include "telemetry/phase_profiler.hpp"
#include "telemetry/telemetry_sink.hpp"
#include "topo/topology.hpp"
#include "traffic/model.hpp"
#include "util/fast_div.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dfsim {

class Simulator : private routing::EngineProbe {
 public:
  struct Delivery {
    Cycle birth = 0;
    Cycle latency = 0;
    bool misrouted = false;       // globally misrouted
    bool minimal_path = false;    // no global and no local misroute
  };

  struct Metrics {
    std::int64_t delivered = 0;
    std::int64_t delivered_phits = 0;
    double latency_sum = 0.0;
    std::int64_t misrouted = 0;       // global misroutes among delivered
    std::int64_t local_misrouted = 0;
    std::int64_t minimal_path = 0;
    std::int64_t generated = 0;
    std::int64_t refused = 0;  // generation attempts dropped at a full queue
    // Fault-overlay accounting; all stay 0 while faults are disabled.
    std::int64_t dropped = 0;        // in flight on a link when it went down
    std::int64_t undeliverable = 0;  // dropped by the hop-cap livelock guard
    std::int64_t dead_link_hops = 0; // departures onto a down link (hard
                                     // invariant: must remain 0)
    LatencyHistogram latency_hist;  // log2-bucketed, for p50/p95/p99

    [[nodiscard]] double mean_latency() const {
      return delivered > 0 ? latency_sum / static_cast<double>(delivered) : 0.0;
    }
    [[nodiscard]] double misrouted_fraction() const {
      return delivered > 0
                 ? static_cast<double>(misrouted) / static_cast<double>(delivered)
                 : 0.0;
    }
    [[nodiscard]] double minimal_path_fraction() const {
      return delivered > 0 ? static_cast<double>(minimal_path) /
                                 static_cast<double>(delivered)
                           : 0.0;
    }
  };

  /// Builds the topology `params.topology` selects via topo/factory.hpp.
  explicit Simulator(const SimParams& params);
  /// Runs on a caller-provided topology (tests, custom instances).
  Simulator(const SimParams& params, std::unique_ptr<const Topology> topology);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Advances one cycle: run(1).
  void step();
  /// Advances `cycles` cycles; with threads > 1 the workers run their
  /// shards alongside the calling thread, which drives shard 0.
  void run(Cycle cycles);

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] const SimParams& params() const { return params_; }
  [[nodiscard]] const Topology& topology() const { return topo_; }
  /// Shard count actually in use: min(engine.threads, routers).
  [[nodiscard]] std::int32_t shard_count() const { return n_shards_; }

  /// Resets measurement counters; metrics() accumulates from this point.
  void begin_measurement();
  /// Measurement-window metrics; with threads > 1 the per-shard metrics are
  /// merged in ascending shard order on each call.
  [[nodiscard]] const Metrics& metrics() const;
  [[nodiscard]] Cycle measured_cycles() const { return now_ - measure_start_; }

  /// Lifetime (never reset) packet accounting for conservation checks:
  /// generated - refused == delivered + dropped + undeliverable +
  /// packets_in_network() holds at every cycle. It is the window's metrics
  /// plus the counts begin_measurement() folded away.
  struct Totals {
    std::int64_t generated = 0;
    std::int64_t refused = 0;
    std::int64_t delivered = 0;
    std::int64_t dropped = 0;
    std::int64_t undeliverable = 0;
  };
  [[nodiscard]] const Totals& lifetime_totals() const;
  /// Packets currently held in queues or in flight on links (cross-shard
  /// handoffs still in an outbox included).
  [[nodiscard]] std::int64_t packets_in_network() const;
  /// Unaccounted packets (0 when conservation holds exactly).
  [[nodiscard]] std::int64_t conservation_error() const {
    const Totals& t = lifetime_totals();
    return t.generated - t.refused -
           (t.delivered + t.dropped + t.undeliverable + packets_in_network());
  }

  /// Accepted load in phits/node/cycle over the measurement window; 0 while
  /// the window is empty (guards the division right after
  /// begin_measurement()).
  [[nodiscard]] double throughput() const;
  /// Offered load actually generated (phits/node/cycle) over the window;
  /// 0 while the window is empty.
  [[nodiscard]] double generated_load() const;
  /// Packets waiting in injection queues, per node.
  [[nodiscard]] double backlog_per_node() const;

  /// Swaps the traffic pattern mid-run (transient experiments).
  void set_traffic(const TrafficParams& traffic);
  [[nodiscard]] const TrafficModel& traffic_model() const {
    return *shards_[0].traffic;
  }

  /// Records every subsequent injection attempt as a (cycle, src, dst)
  /// trace; replay it with TrafficKind::kTrace + traffic.trace_path (see
  /// traffic/trace.hpp for the format). When recording starts at
  /// construction, replay under the same SimParams and seed reproduces the
  /// run bit-exactly: the traffic model draws from its own RNG, so the
  /// routing RNG stream is unchanged. Recording after a warmup still
  /// replays deterministically, but into a cold network (cycles are
  /// re-based to the recording start and the warmup traffic is not in the
  /// trace), so metrics need not match the recording run.
  /// Requires engine.threads = 1 (a shard records only its own sources).
  void start_trace_recording(std::size_t reserve_records = 1u << 16);
  void write_recorded_trace(const std::string& path) const {
    shards_[0].traffic->write_recorded(path);
  }

  /// Per-delivery records for birth-bucketed transient analysis. With
  /// threads > 1 the log is the concatenation of the per-shard logs in
  /// ascending shard order (deterministic, but not birth-sorted).
  void enable_delivery_log();
  [[nodiscard]] const std::vector<Delivery>& delivery_log() const;

  /// Live ECtN broadcast-overhead measurement (Section VI-B ablation),
  /// kept by the ECtN mechanism (routing::RoutingMechanism). Throws under
  /// any other mechanism and with engine.threads > 1.
  void enable_ectn_monitor(std::int32_t async_mult, std::int32_t urgent_delta);
  [[nodiscard]] const EctnOverheadMonitor& ectn_monitor() const {
    return routing_->ectn_monitor();
  }

  /// Spatial telemetry frames (params.telemetry.enabled): per-router /
  /// per-link counters sampled every telemetry.sample_period cycles. See
  /// src/telemetry/telemetry_sink.hpp and telemetry/heatmap.hpp.
  [[nodiscard]] bool telemetry_enabled() const { return telemetry_on_; }
  [[nodiscard]] const telemetry::TelemetrySink& telemetry_sink() const {
    return sink_;
  }

  /// Packet-lifecycle tracing (params.trace.enabled): deterministically
  /// sampled per-packet event records, exported via
  /// telemetry/packet_trace.hpp's binary and Chrome trace-event writers.
  [[nodiscard]] bool trace_enabled() const { return trace_on_; }
  [[nodiscard]] const telemetry::PacketTracer& packet_tracer() const {
    return tracer_;
  }

  /// Per-phase wall-time profiling (dfsim_run perf --phases), at any shard
  /// count. API-enabled like the ECtN monitor: wall time never affects
  /// results, so there is no config key and the config hash is untouched.
  /// (Re)starts every shard's profiler from zero.
  void enable_phase_profiler() {
    profile_on_ = true;
    for (Shard& sh : shards_) sh.profiler.reset();
  }
  /// Shard `shard`'s phase profile; shard 0's runs on the calling thread.
  /// Sharded profiles also hold the inbox merge and barrier waits.
  [[nodiscard]] const telemetry::PhaseProfiler& phase_profiler(
      std::int32_t shard = 0) const {
    return shards_[static_cast<std::size_t>(shard)].profiler;
  }

  /// Growth/allocation events since construction (delivery log, outbox,
  /// or trace-recording growth; every other table is sized at
  /// construction). Constant across steps == steady state allocates
  /// nothing.
  [[nodiscard]] std::int64_t allocation_events() const;
  /// Packet ids the pool can hold: the structural bound (queue slots plus
  /// link-ring slots).
  [[nodiscard]] std::int32_t pool_bound() const { return pool_.bound(); }
  /// Distinct packet ids handed out so far, summed over the id ranges;
  /// only these ids' pool slots have been written.
  [[nodiscard]] std::int64_t pool_high_water() const;

  /// Bytes per subsystem: topology tables, per-queue and per-output
  /// arrays, queue slab and link rings (resident pages), packet pool
  /// (committed up to its high-water mark), per-shard
  /// allocators/wheels/outboxes/free lists, the routing mechanism, fault
  /// overlay and telemetry.
  [[nodiscard]] MemoryReport memory_report() const;

  /// Debug cross-check of the active-set structures against a brute-force
  /// scan of the dense state: every queue-occupancy bit matches the queue
  /// size, the router summary mask matches the queue bits, the timing wheel
  /// holds exactly one entry per non-empty link ring (in the bucket of its
  /// front arrival, due within the wheel's span), every credit equals its
  /// queue's capacity minus the packets queued in it, in flight toward it
  /// and (sharded) whose credit return still waits in an outbox, and the
  /// packet pool population equals the packets sitting in queues plus rings
  /// (plus, sharded, handoffs waiting in an outbox).
  /// O(routers * radix * vcs) and may allocate — tests only, not hot path.
  [[nodiscard]] bool debug_check_active_state() const;

  /// Test hook: staggers worker-thread start by `us * shard_index`
  /// microseconds on every dispatch, to shake out schedules under the
  /// determinism tests. Applies to simulators process-wide; 0 disables.
  static void debug_set_shard_jitter(std::int32_t us);

 private:
  struct LinkEvent {
    Cycle arrival = 0;
    std::int32_t packet = kInvalidPacket;
    std::int32_t down_queue = -1;
  };

  /// A (port, VC) queue's hot fields in one record: a ring of `cap` slab
  /// slots from `offset`, plus the head's routing state. cap, head and size
  /// are int16 (the constructor refuses larger capacities).
  struct QueueRec {
    std::int32_t offset = 0;    // slab offset
    std::int16_t cap = 0;       // capacity in packets (0 = unused vc)
    std::int16_t head = 0;
    std::int16_t size = 0;
    std::int16_t counted = -1;  // head's minimal output (contention counted)
    std::int16_t request = -1;  // port requested from the allocator
    std::int16_t wait = 0;      // bounded head-wait (head_wait.hpp)
  };
  static_assert(sizeof(QueueRec) == 16);

  /// An output port's state in one 32-byte record: when it is free, where
  /// its link leads, and the link's in-flight ring — ring_count events from
  /// ring_head of ring_cap slots at ring_slab_[ring_offset...] — plus the
  /// ring's timing-wheel chain. A departure reads and writes only this
  /// record and one ring slot. Ejection outputs (port >= fwd) use
  /// busy_until only.
  struct Output {
    Cycle busy_until = 0;
    std::int32_t down_base = -1;  // downstream (router, port) queue, VC 0
    std::int32_t delay = 0;       // pipeline + latency + serialization
    std::int32_t ring_offset = 0;
    std::int32_t next = -1;       // next link in its wheel bucket (-1: end)
    std::int16_t ring_cap = 0;
    std::int16_t ring_head = 0;
    std::int16_t ring_count = 0;
  };
  static_assert(sizeof(Output) == 32);

  /// Seed stride between shard RNG streams (routing and traffic). Shard 0
  /// uses the raw seed, so the serial stream is the threads = 1 stream.
  static constexpr std::uint64_t kShardSeedStride = 0xA24BAED4963EE407ull;

  /// Cross-shard event carried through the destination shard's inbox and
  /// applied at the next cycle's merge point (merge_inboxes) in fixed
  /// (source shard, FIFO) order.
  struct ShardMessage {
    enum class Kind : std::uint8_t {
      kLinkSend,  // packet departs onto a link owned downstream
      kCredit,    // credit return for a queue whose upstream is remote
      kFreeId,    // packet id going home to its allocating shard
    };
    Kind kind = Kind::kLinkSend;
    std::int32_t link = -1;                // kLinkSend: flat link id
    std::int32_t queue = -1;               // kLinkSend: flat queue;
                                           // kCredit: credit slot
    std::int32_t packet = kInvalidPacket;  // kLinkSend/kFreeId
    Cycle arrival = 0;                     // kLinkSend
  };

  /// One worker shard: a contiguous router range [r_lo, r_hi) plus every
  /// piece of per-cycle mutable state that only that range's owner may
  /// touch. With threads = 1, shard 0 spans everything (bit-exactness
  /// anchor). Cache-line aligned so neighboring shards never share a line
  /// through this struct.
  struct alignas(64) Shard {
    std::int32_t index = 0;
    RouterId r_lo = 0;
    RouterId r_hi = 0;
    NodeId n_lo = 0;  // = r_lo * concentration
    NodeId n_hi = 0;  // = r_hi * concentration
    Rng rng{0};       // routing decisions for owned routers
    std::unique_ptr<TrafficModel> traffic;  // restricted to [n_lo, n_hi)
    Metrics metrics;
    SeparableAllocator alloc;  // serves [r_lo, r_hi)
    AllocRequestBatch request_batch;  // per-router sparse requests (reused)
    // Router summary mask slice: bit (r - r_lo) of word (r - r_lo) / 64.
    std::vector<std::uint64_t> router_active;
    // Timing wheel over the non-empty rings this shard owns (downstream
    // side): bucket arrival & wheel_mask_ heads a list of links chained
    // through Output::next, each filed under its ring's front arrival (-1 =
    // empty).
    std::vector<std::int32_t> wheel;
    // Per-cycle scratch, reserved at construction: the current bucket's
    // links in ascending order, and the routers with an occupied queue.
    std::vector<std::int32_t> due;
    std::vector<RouterId> active_routers;
    std::vector<Delivery> deliveries;
    std::int64_t log_growth = 0;
    // Packet ids [base[i], base[i+1]) are allocated here (the serial
    // engine's range spans the whole pool); `live` is this shard's net
    // allocate-minus-release delta, so the sum over shards is the exact
    // in-network population.
    IdRange ids;
    std::int64_t live = 0;
    std::vector<std::vector<ShardMessage>> outbox;  // one per dest shard
    std::int64_t msg_growth = 0;
    telemetry::PhaseProfiler profiler;  // touched only while profile_on_
  };

  // --- construction helpers
  /// Packets a (port, VC) queue holds; 0 for VCs its port class lacks.
  [[nodiscard]] std::int32_t queue_capacity(PortIndex ip, VcIndex vc) const;
  /// Cycles a packet spends on `port`'s link: pipeline + latency +
  /// serialization.
  [[nodiscard]] std::int32_t link_delay_of(PortIndex port) const;
  /// In-flight ring slots for `port`'s link.
  [[nodiscard]] std::int32_t ring_capacity(PortIndex port) const;
  void build_layout();
  void build_shards();

  // --- fault overlay
  /// Refreshes the health map at a fault-event cycle and schedules the next
  /// one. Global state; sharded runs execute it on shard 0 only, behind a
  /// barrier.
  void advance_faults_serial();
  /// Drops in-flight packets on this shard's newly-dead links (credits
  /// returned, counted as dropped) and rebuilds the shard's timing wheel.
  void purge_faulted_rings(Shard& sh);

  // --- per-cycle phases
  void deliver_arrivals(Shard& sh);
  void inject_traffic(Shard& sh);
  void route_and_allocate(Shard& sh);
  /// Mechanism update window for this shard's router range (plus the
  /// telemetry update count).
  void update_mechanism(Shard& sh);

  // --- queue helpers (flat queue index q)
  [[nodiscard]] std::int32_t queue_index(RouterId r, PortIndex in_port,
                                         VcIndex vc) const {
    return (r * radix_ + in_port) * vmax_ + vc;
  }
  // Queue q is (r, ip, vc); callers pass r and ip, so no helper divides.
  void push_queue(Shard& sh, std::int32_t q, RouterId r, PortIndex ip,
                  std::int32_t packet);
  std::int32_t pop_queue(Shard& sh, std::int32_t q, RouterId r, PortIndex ip,
                         VcIndex vc);
  void on_new_head(Shard& sh, std::int32_t q, RouterId r, PortIndex ip);

  // --- active-set maintenance (queue occupancy bits + timing wheel)
  void activate_queue(Shard& sh, std::int32_t q, RouterId r);
  void deactivate_queue(Shard& sh, std::int32_t q, RouterId r);
  /// Files link `flat` under the wheel bucket of `arrival`, its ring's front.
  void wheel_insert(Shard& sh, std::int32_t flat, Cycle arrival) {
    std::int32_t& bucket = sh.wheel[static_cast<std::size_t>(
        static_cast<std::uint64_t>(arrival) & wheel_mask_)];
    out_[static_cast<std::size_t>(flat)].next = bucket;
    bucket = flat;
  }
  /// Appends `ev` to link `flat`'s in-flight ring, filing the ring in the
  /// shard's timing wheel when it goes non-empty.
  void ring_insert(Shard& sh, std::int32_t flat, const LinkEvent& ev);

  // --- the cycle body and its drivers
  /// One cycle of shard `sh`: the engine's only statement of the phase
  /// order, barrier-aligned with every other shard. With one shard the
  /// barriers and the inbox merge are no-ops.
  void cycle(Shard& sh);
  /// `cycles` cycles of shard `sh` (the calling thread drives shard 0).
  void run_shard(Shard& sh, Cycle cycles);
  void worker_loop(std::int32_t shard_index);
  /// Publishes the coming cycle's phase schedule (fault event? mechanism
  /// update?) from now_ and shared state, so every shard agrees on the
  /// barrier count. Called by run() and by shard 0 at the end of a cycle.
  void schedule_cycle();
  /// Waits for every shard (no-op with one shard); the wait is profiled as
  /// Phase::kBarrier.
  void sync_shards(Shard& sh);
  /// Charges the wall time since the shard's last profiler stamp to
  /// `phase` (no-op unless profiling).
  void lap(Shard& sh, telemetry::Phase phase) {
    if (profile_on_) sh.profiler.lap(phase);
  }
  /// Applies every message addressed to `sh` (source shards in ascending
  /// order, FIFO within each), then refreshes this shard's slice of the
  /// remote-occupancy snapshot.
  void merge_inboxes(Shard& sh);
  void push_msg(Shard& sh, std::int32_t dst, const ShardMessage& msg);
  /// Pool front-end: draws from the shard's id range (-1 when the range is
  /// exhausted — the injection is then refused deterministically); a
  /// released id goes back to the range that owns it.
  [[nodiscard]] std::int32_t allocate_packet(Shard& sh);
  void release_packet(Shard& sh, std::int32_t packet);

  // --- observability (every call site is gated behind telemetry_on_ /
  // trace_on_ / profile_on_, so disabled runs take predicted-false branches
  // only — the bit-exactness and zero-alloc invariants hold with the layer
  // compiled in)
  /// Gauge scan (queue occupancy, counter values, down links) + frame
  /// commit at the end of a sample period. Cold path, off the inner loops.
  void flush_telemetry();
  /// Misroute attribution shared by sink and tracer.
  void note_misroute(RouterId r, std::int32_t packet,
                     telemetry::MisrouteCause cause) {
    if (telemetry_on_) sink_.count_misroute(r, cause);
    if (trace_on_) {
      tracer_.record_hop(now_, packet, r,
                         telemetry::TraceEvent::kRouteDecision,
                         static_cast<std::uint8_t>(cause));
    }
  }

  // --- routing (`min_out` is the head's minimal output, computed once per
  // head in on_new_head and kept in its queue record as `counted`)
  void decide_injection(Shard& sh, RouterId r, std::int32_t packet);
  /// The output `packet` requests at `r`: its healthy-path preference, or
  /// the topology fallback when that link is down. With telemetry on, a
  /// fallback is counted as a kFaultFallback misroute.
  [[nodiscard]] PortIndex routed_output(RouterId r, std::int32_t packet,
                                        PortIndex min_out);
  void maybe_local_detour(Shard& sh, RouterId r, std::int32_t q);
  void maybe_transit_misroute(Shard& sh, RouterId r, std::int32_t q,
                              std::int32_t packet, PortIndex min_out);
  void apply_global_misroute(std::int32_t packet, const NonminCandidate& cand);

  // --- state probes (the routing::EngineProbe surface the mechanism reads
  // engine state through)
  [[nodiscard]] std::int32_t occupancy_phits(RouterId r,
                                             PortIndex out) const override;
  [[nodiscard]] std::int32_t port_capacity_phits(PortIndex out) const override;
  /// occupancy_phits through the cycle-start snapshot when `r` belongs to
  /// another shard (live credit state of a remote router is unreadable
  /// mid-cycle); the live value — serial behavior — otherwise.
  [[nodiscard]] std::int32_t probe_occupancy_phits(std::int32_t shard,
                                                   RouterId r,
                                                   PortIndex out) const override;
  /// Free credits on the VC a packet in state `vc_state` would take on
  /// (r, out) — OLM's blocked test.
  [[nodiscard]] std::int32_t free_credits(RouterId r, PortIndex out,
                                          std::int8_t vc_state) const override;
  [[nodiscard]] std::int32_t fault_extra_latency(RouterId r,
                                                 PortIndex out) const override;
  [[nodiscard]] bool fault_overlay() const override { return fault_on_; }
  /// Configured VC count of `out`'s port class.
  [[nodiscard]] std::int32_t class_vcs(PortIndex out) const {
    return port_vcs_[static_cast<std::size_t>(out)];
  }
  /// Downstream VC for `packet` taking `out` at `r`: the topology's VC
  /// class clamped to the port class's configured VC count.
  [[nodiscard]] VcIndex vc_for(RouterId r, PortIndex out,
                               std::int32_t packet) const;
  /// HopEstimate in cycles under this run's link latencies.
  [[nodiscard]] Cycle hops_to_latency(const HopEstimate& est) const {
    return static_cast<Cycle>(est.local_hops) * params_.link.local_latency +
           static_cast<Cycle>(est.global_hops) * params_.link.global_latency;
  }
  [[nodiscard]] std::int32_t flat_port(RouterId r, PortIndex port) const {
    return r * radix_ + port;
  }
  /// Credit slot of the VC `vc` queue downstream of output (r, out).
  [[nodiscard]] std::int32_t credit_slot(RouterId r, PortIndex out,
                                         VcIndex vc) const {
    return flat_port(r, out) * vmax_ + vc;
  }

  void depart(Shard& sh, RouterId r, const AllocGrant& grant);
  void deliver(Shard& sh, RouterId r, std::int32_t packet);

  // --- immutable shape (topo_owner_ must precede every member that reads
  // the topology during construction)
  SimParams params_;
  std::unique_ptr<const Topology> topo_owner_;
  const Topology& topo_;
  std::int32_t radix_ = 0;      // input/output ports per router
  std::int32_t fwd_ = 0;        // forward (link) ports per router
  std::int32_t vmax_ = 0;       // max VCs across port classes
  std::int32_t psize_ = 0;      // packet size in phits
  FastDivisor div_vmax_{1};     // flat queue -> flat port
  FastDivisor div_radix_{1};    // flat port -> router

  // --- per-queue state (size routers * radix * vmax), owned by the
  // queue's router's shard
  std::vector<QueueRec> q_;
  LazyArray<std::int32_t> slab_;  // ring storage for all queues
  // Capacity of a (port, VC) queue at any router, indexed port * vmax + vc,
  // and the VC count of each port's class.
  std::vector<std::int16_t> port_cap_;
  std::vector<std::int32_t> port_vcs_;

  // --- credits, indexed by credit_slot(r, out, vc) and owned by r's shard:
  // free slots in the queue downstream of forward output (r, out) (cap -
  // size - in flight); injection ports (out >= fwd) keep their own queue's
  // slot. up_credit_ maps a queue block (flat input port) to the slot of
  // its VC 0 credit at the upstream output.
  std::vector<std::int16_t> credit_;
  std::vector<std::int32_t> up_credit_;

  // --- per-output flat state (size routers * radix); a link's ring
  // fields belong to the downstream router's shard, the rest to the
  // output's own
  std::vector<Output> out_;

  // --- active sets: queue-occupancy bits (bit ip*vmax+vc of router r's
  // word block; ascending-bit iteration == the dense scan order). The
  // router summary mask lives in each shard (Shard::router_active).
  // Maintained by push_queue/pop_queue only.
  std::int32_t queue_words_per_router_ = 0;
  std::vector<std::uint64_t> queue_active_;   // routers * words_per_router

  // --- packets & per-link in-flight rings (fixed capacity: a link carries
  // at most delay/packet_size + 2 packets at once). The pool is sized once
  // (build_layout) to the structural bound; ids come from the shards'
  // IdRanges.
  PacketPool pool_;
  LazyArray<LinkEvent> ring_slab_;
  // Timing wheel shape: W = wheel_mask_ + 1 buckets, a power of two above
  // the longest link traversal (fault extra latency included), so every
  // ring front is due within W cycles and a bucket holds one arrival cycle.
  // Buckets chain through Output::next in the one global out_ array; each
  // link has one owning shard, so the chains never cross.
  std::uint64_t wheel_mask_ = 0;

  // --- sharded execution (n_shards_ == 1: shards_[0] spans everything and
  // the tables below stay empty)
  std::int32_t n_shards_ = 1;
  std::vector<Shard> shards_;
  std::vector<std::int32_t> shard_of_router_;  // size routers
  // Owner of each queue's credit counter, per flat input port
  // (routers * radix): the shard of the router upstream of that queue.
  std::vector<std::int32_t> credit_owner_;
  // Owner of each link's in-flight ring, per flat output port: the shard of
  // the downstream router.
  std::vector<std::int32_t> link_owner_;
  // Packet-id range bounds per shard (n_shards + 1 entries; empty serial).
  std::vector<std::int32_t> shard_id_base_;
  // Cycle-start occupancy snapshot (phits) per flat forward port, refreshed
  // by each port's owner at the merge point; read by the mechanism's remote
  // probes (wants_remote_probes: UGAL-G, PB). Only allocated when such
  // probes exist (snap_on_).
  bool snap_on_ = false;
  std::vector<std::int32_t> occ_snap_;
  // Worker dispatch: workers park on cv_ between run() calls (no spinning
  // while the simulator is idle) and spin only on the intra-cycle barrier.
  std::unique_ptr<SpinBarrier> barrier_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t epoch_ = 0;        // bumped per dispatch, guarded by mu_
  std::int32_t done_count_ = 0;    // workers finished this dispatch
  Cycle pending_cycles_ = 0;
  bool stop_ = false;
  // Next-cycle phase schedule (schedule_cycle), written by run() or by
  // shard 0 in its exclusive window (between the last two barriers of a
  // cycle) and read by every shard after the barrier — keeps all shards'
  // barrier counts aligned without racing on fault_next_event_.
  bool fault_cycle_ = false;
  bool mech_cycle_ = false;
  static std::atomic<std::int32_t> jitter_us_;
  // Merged-view caches for the const accessors.
  mutable Metrics merged_metrics_;
  mutable Totals merged_totals_;
  mutable std::vector<Delivery> merged_deliveries_;

  // --- routing mechanism (src/routing/factory.hpp picks the instance; the
  // capability flags are cached so disabled decision paths cost one
  // predicted branch)
  std::unique_ptr<routing::RoutingMechanism> routing_;
  bool inject_decides_ = false;
  bool transit_decides_ = false;
  bool throttle_on_ = false;

  // --- fault overlay (members inert when fault_on_ is false; the engine
  // then takes no fault branches and results are bit-exact with the
  // pre-overlay engine)
  bool fault_on_ = false;
  FaultModel fault_;
  LinkHealthMap health_;
  Cycle fault_next_event_ = 0;
  std::int32_t hop_cap_ = 0;

  // --- observability (members inert unless enabled; the engine then takes
  // no telemetry/trace/profile branches and results are bit-exact with
  // builds that predate the layer — ARCHITECTURE.md invariant 11). The
  // phase profilers live in the shards.
  bool telemetry_on_ = false;
  bool trace_on_ = false;
  bool profile_on_ = false;
  Cycle telemetry_next_sample_ = 0;
  telemetry::TelemetrySink sink_;
  telemetry::PacketTracer tracer_;

  // --- time & measurement
  Cycle now_ = 0;
  Cycle measure_start_ = 0;
  Totals before_;  // lifetime counts before the measurement window
  bool log_deliveries_ = false;
};

}  // namespace dfsim
