#include "engine/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>

#include "engine/head_wait.hpp"
#include "routing/factory.hpp"
#include "sim/config_io.hpp"
#include "topo/factory.hpp"
#include "util/prefetch.hpp"

namespace dfsim {

std::atomic<std::int32_t> Simulator::jitter_us_{0};

void Simulator::debug_set_shard_jitter(std::int32_t us) {
  jitter_us_.store(us, std::memory_order_relaxed);
}

Simulator::Simulator(const SimParams& params)
    : Simulator(params, make_topology(params)) {}

Simulator::Simulator(const SimParams& params,
                     std::unique_ptr<const Topology> topology)
    : params_(params),
      topo_owner_(std::move(topology)),
      topo_(*topo_owner_) {
  validate(params_);
  radix_ = topo_.radix();
  fwd_ = topo_.forward_ports();
  vmax_ = std::max({params_.router.vcs_local, params_.router.vcs_global,
                    params_.router.vcs_injection});
  psize_ = params_.packet_size_phits;
  div_vmax_ = FastDivisor(vmax_);
  div_radix_ = FastDivisor(radix_);

  // Index widths, checked here because Release builds compile asserts out:
  // flat queue indices are int32.
  const auto n_out = static_cast<std::int64_t>(topo_.routers()) * radix_;
  if (n_out * vmax_ > std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument("topology has too many (port, VC) queues "
                                "for int32 queue indices");
  }
  if (params_.trace.enabled &&
      topo_.routers() > std::numeric_limits<std::uint16_t>::max()) {
    throw std::invalid_argument(
        "packet tracing records router ids as uint16; this topology has " +
        std::to_string(topo_.routers()) + " routers");
  }
  // More shards than routers would leave some empty; clamp instead.
  n_shards_ = std::min(params_.engine.threads, topo_.routers());
  if (n_shards_ > 1) {
    if (params_.telemetry.enabled) {
      throw std::invalid_argument(
          "telemetry requires engine.threads = 1 (sink counters are not "
          "sharded)");
    }
    if (params_.trace.enabled) {
      throw std::invalid_argument(
          "packet tracing requires engine.threads = 1");
    }
  }

  if (params_.fault.enabled) {
    // Built before build_layout: ring capacities must cover the extra
    // in-flight time degraded links impose.
    fault_on_ = true;
    fault_ = FaultModel(params_.fault, topo_, params_.seed);
    health_.init(topo_.routers(), radix_);
    hop_cap_ = params_.fault.hop_cap;
    fault_next_event_ = params_.fault.onset;
    // The simulator holds exclusive ownership of the topology instance
    // (stored const for the hot path); attaching the health overlay is the
    // one sanctioned mutation, and only happens when faults are enabled.
    const_cast<Topology&>(topo_).attach_link_health(&health_);
  }

  // After the fault block (fault_overlay() must already answer truthfully),
  // before build_shards (snap_on_ reads wants_remote_probes()).
  routing_ = routing::make_mechanism(params_, topo_, *this);
  inject_decides_ = routing_->decides_at_injection();
  transit_decides_ = routing_->decides_in_transit();
  throttle_on_ = routing_->throttles_injection();

  build_layout();
  build_shards();

  if (params_.telemetry.enabled) {
    telemetry_on_ = true;
    sink_.configure(topo_.routers(), radix_, fwd_,
                    params_.telemetry.sample_period,
                    params_.telemetry.max_samples);
    // First frame closes at the end of the first sample period.
    telemetry_next_sample_ = sink_.sample_period() - 1;
  }
  if (params_.trace.enabled) {
    // Sized to the pool's structural bound: every live packet id indexes
    // the tracer's slot map directly.
    trace_on_ = true;
    tracer_.configure(params_.trace, params_.seed,
                      static_cast<std::size_t>(pool_.bound()));
  }
}

Simulator::~Simulator() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::int32_t Simulator::queue_capacity(PortIndex ip, VcIndex vc) const {
  if (ip >= fwd_) {
    return vc < params_.router.vcs_injection
               ? params_.router.injection_queue_packets
               : 0;
  }
  if (topo_.port_class(ip) == PortClass::kLocalClass) {
    return vc < params_.router.vcs_local
               ? params_.router.buf_local_phits / psize_
               : 0;
  }
  return vc < params_.router.vcs_global
             ? params_.router.buf_global_phits / psize_
             : 0;
}

std::int32_t Simulator::link_delay_of(PortIndex port) const {
  const std::int32_t lat = topo_.port_class(port) == PortClass::kLocalClass
                               ? params_.link.local_latency
                               : params_.link.global_latency;
  return params_.router.pipeline_cycles + lat + psize_;
}

std::int32_t Simulator::ring_capacity(PortIndex port) const {
  // Sends on a link are spaced >= psize cycles apart and stay on it for
  // link_delay cycles, so delay/psize + 2 slots is a strict capacity bound;
  // degraded links hold packets up to max_extra_latency longer.
  const std::int32_t extra = fault_on_ ? fault_.max_extra_latency() : 0;
  return (link_delay_of(port) + extra) / psize_ + 2;
}

void Simulator::build_layout() {
  const std::int32_t routers = topo_.routers();

  // Structural packet bound: every live packet sits in a queue slot or on a
  // link ring. Capacities depend on the port and VC only, so the bound is
  // routers x per-router slots. Checked before any table is allocated:
  // queue capacities are int16 in the packed queue record, and packet ids
  // and slab/ring offsets are int32.
  port_cap_.assign(static_cast<std::size_t>(radix_) *
                       static_cast<std::size_t>(vmax_),
                   0);
  port_vcs_.assign(static_cast<std::size_t>(radix_), 0);
  std::int64_t slots_per_router = 0;
  for (PortIndex ip = 0; ip < radix_; ++ip) {
    port_vcs_[static_cast<std::size_t>(ip)] =
        ip >= fwd_ ? params_.router.vcs_injection
        : topo_.port_class(ip) == PortClass::kLocalClass
            ? params_.router.vcs_local
            : params_.router.vcs_global;
    for (VcIndex vc = 0; vc < vmax_; ++vc) {
      const std::int32_t cap = queue_capacity(ip, vc);
      if (cap > std::numeric_limits<std::int16_t>::max()) {
        throw std::invalid_argument(
            "a router queue holds " + std::to_string(cap) +
            " packets; queue capacities are int16 (at most " +
            std::to_string(std::numeric_limits<std::int16_t>::max()) + ")");
      }
      port_cap_[static_cast<std::size_t>(ip * vmax_ + vc)] =
          static_cast<std::int16_t>(cap);
      slots_per_router += cap;
    }
  }
  std::int32_t max_delay = 0;
  for (PortIndex port = 0; port < fwd_; ++port) {
    const std::int32_t cap = ring_capacity(port);
    if (cap > std::numeric_limits<std::int16_t>::max()) {
      throw std::invalid_argument(
          "a link holds " + std::to_string(cap) +
          " packets in flight; link rings are int16 (at most " +
          std::to_string(std::numeric_limits<std::int16_t>::max()) + ")");
    }
    slots_per_router += cap;
    max_delay = std::max(max_delay, link_delay_of(port));
  }
  const std::int64_t bound = slots_per_router * routers;
  if (bound > std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument(
        "buffers and links hold up to " + std::to_string(bound) +
        " packets; packet ids are int32");
  }

  const auto n_q = static_cast<std::size_t>(routers) *
                   static_cast<std::size_t>(radix_) *
                   static_cast<std::size_t>(vmax_);
  const auto per_router = static_cast<std::size_t>(radix_ * vmax_);

  // Queues and credits. Every credit starts at the capacity of the queue it
  // guards: a queue's own (port, vc) capacity for injection slots, and the
  // downstream queue's for output slots, which the wiring loop below checks
  // equals the output port's own.
  q_.assign(n_q, QueueRec{});
  credit_.assign(n_q, 0);
  std::int32_t offset = 0;
  for (std::size_t base = 0; base < n_q; base += per_router) {
    for (std::size_t i = 0; i < per_router; ++i) {
      const std::int16_t cap = port_cap_[i];
      q_[base + i].offset = offset;
      q_[base + i].cap = cap;
      credit_[base + i] = cap;
      offset += cap;
    }
  }
  slab_ = LazyArray<std::int32_t>(static_cast<std::size_t>(offset));

  // Output-side tables: each forward output's link (downstream queue block,
  // delay, in-flight ring), and the upstream credit slot of every queue
  // block: (peer, peer_port) is fed by output (r, port); an injection block
  // keeps its own slot.
  const auto n_out = static_cast<std::size_t>(routers) *
                     static_cast<std::size_t>(radix_);
  out_.assign(n_out, Output{});
  up_credit_.assign(n_out, 0);
  std::int32_t ring_total = 0;
  for (RouterId r = 0; r < routers; ++r) {
    for (PortIndex port = 0; port < fwd_; ++port) {
      const std::size_t idx = static_cast<std::size_t>(flat_port(r, port));
      const RouterId peer = topo_.peer(r, port);
      const PortIndex peer_port = topo_.peer_port(r, port);
      if (!std::equal(port_cap_.begin() + port * vmax_,
                      port_cap_.begin() + (port + 1) * vmax_,
                      port_cap_.begin() + peer_port * vmax_)) {
        throw std::invalid_argument(
            "link from port " + std::to_string(port) + " to port " +
            std::to_string(peer_port) +
            " joins ports with different buffer capacities");
      }
      Output& o = out_[idx];
      o.down_base = queue_index(peer, peer_port, 0);
      o.delay = link_delay_of(port);
      o.ring_offset = ring_total;
      o.ring_cap = static_cast<std::int16_t>(ring_capacity(port));
      ring_total += o.ring_cap;
      up_credit_[static_cast<std::size_t>(flat_port(peer, peer_port))] =
          credit_slot(r, port, 0);
    }
    for (PortIndex ip = fwd_; ip < radix_; ++ip) {
      up_credit_[static_cast<std::size_t>(flat_port(r, ip))] =
          credit_slot(r, ip, 0);
    }
  }
  ring_slab_ = LazyArray<LinkEvent>(static_cast<std::size_t>(ring_total));

  // Active-set masks: all queues empty at construction. The router summary
  // masks are per shard (build_shards).
  queue_words_per_router_ = (radix_ * vmax_ + 63) / 64;
  queue_active_.assign(static_cast<std::size_t>(routers) *
                           static_cast<std::size_t>(queue_words_per_router_),
                       0);

  // Timing wheel shape: a ring front is due at most max_delay + max extra
  // latency cycles out.
  const std::int32_t extra = fault_on_ ? fault_.max_extra_latency() : 0;
  wheel_mask_ = std::bit_ceil(static_cast<std::uint64_t>(max_delay) +
                              static_cast<std::uint64_t>(extra) + 1) -
                1;

  pool_ = PacketPool(static_cast<std::int32_t>(bound));
}

void Simulator::build_shards() {
  const std::int32_t routers = topo_.routers();
  const std::int32_t conc = topo_.concentration();
  const auto n_out = static_cast<std::size_t>(routers) *
                     static_cast<std::size_t>(radix_);

  if (n_shards_ > 1) {
    shard_of_router_.assign(static_cast<std::size_t>(routers), 0);
    // Snapshot-based remote probes exist only for mechanisms that declare
    // them (the idealized-global estimate and Piggyback's remote link-state
    // flag).
    snap_on_ = routing_->wants_remote_probes();
    if (snap_on_) occ_snap_.assign(n_out, 0);
  }

  shards_.reserve(static_cast<std::size_t>(n_shards_));
  for (std::int32_t i = 0; i < n_shards_; ++i) {
    // Contiguous balanced ranges; boundaries need not be 64-aligned because
    // each shard's summary mask is indexed by (r - r_lo).
    const auto r_lo = static_cast<RouterId>(
        static_cast<std::int64_t>(routers) * i / n_shards_);
    const auto r_hi = static_cast<RouterId>(
        static_cast<std::int64_t>(routers) * (i + 1) / n_shards_);
    Shard sh;
    sh.index = i;
    sh.r_lo = r_lo;
    sh.r_hi = r_hi;
    sh.n_lo = r_lo * conc;
    sh.n_hi = r_hi * conc;
    // Shard 0 draws the raw seed: with one shard both streams ARE the
    // serial streams, which is what keeps threads = 1 bit-exact.
    const std::uint64_t seed =
        params_.seed + kShardSeedStride * static_cast<std::uint64_t>(i);
    sh.rng = Rng(seed);
    sh.traffic = std::make_unique<TrafficModel>(
        params_.traffic, topo_.traffic_info(), params_.packet_size_phits,
        seed);
    if (n_shards_ > 1) {
      sh.traffic->restrict_nodes(sh.n_lo, sh.n_hi);
      for (RouterId r = r_lo; r < r_hi; ++r) {
        shard_of_router_[static_cast<std::size_t>(r)] = i;
      }
    }
    sh.alloc = SeparableAllocator(radix_, radix_, vmax_, r_hi - r_lo);
    if (params_.router.through_priority) sh.alloc.set_through_priority(fwd_);
    sh.request_batch.reserve(radix_, vmax_);
    sh.router_active.assign(
        static_cast<std::size_t>((r_hi - r_lo + 63) / 64), 0);
    sh.wheel.assign(static_cast<std::size_t>(wheel_mask_ + 1), -1);
    sh.active_routers.reserve(static_cast<std::size_t>(r_hi - r_lo));
    shards_.push_back(std::move(sh));
  }

  if (n_shards_ == 1) {
    // A bucket holds at most every link, so this reserve is a hard
    // structural bound and the due list never allocates after construction.
    shards_[0].due.reserve(n_out);
    shards_[0].ids = IdRange(0, pool_.bound());
    return;
  }

  // Ownership tables, derived from the wiring rather than topology
  // symmetry assumptions: the credits of queue block (r, ip) belong to
  // whichever shard departs packets into it (the upstream router, whose
  // output holds them), and a link's in-flight ring belongs to the
  // downstream router's shard.
  credit_owner_.assign(n_out, 0);
  link_owner_.assign(n_out, 0);
  for (RouterId r = 0; r < routers; ++r) {
    const std::int32_t own = shard_of_router_[static_cast<std::size_t>(r)];
    for (PortIndex ip = 0; ip < radix_; ++ip) {
      credit_owner_[static_cast<std::size_t>(flat_port(r, ip))] = own;
    }
  }
  for (RouterId r = 0; r < routers; ++r) {
    const std::int32_t own = shard_of_router_[static_cast<std::size_t>(r)];
    for (PortIndex out = 0; out < fwd_; ++out) {
      const std::size_t flat = static_cast<std::size_t>(flat_port(r, out));
      const std::int32_t down_port = out_[flat].down_base / vmax_;
      credit_owner_[static_cast<std::size_t>(down_port)] = own;
      link_owner_[flat] = shard_of_router_[static_cast<std::size_t>(
          out_[flat].down_base / (radix_ * vmax_))];
    }
  }

  // Per-shard due-list reserves (one slot per owned link).
  std::vector<std::size_t> owned_links(static_cast<std::size_t>(n_shards_), 0);
  for (std::size_t l = 0; l < n_out; ++l) {
    if (out_[l].ring_cap > 0) {
      ++owned_links[static_cast<std::size_t>(link_owner_[l])];
    }
  }

  // Sharded packet-id ranges: each shard gets the ids backing its own queue
  // slots and owned link rings, and each id returns to its range owner via
  // kFreeId.
  std::vector<std::int64_t> share(static_cast<std::size_t>(n_shards_), 0);
  for (std::int32_t i = 0; i < n_shards_; ++i) {
    const Shard& sh = shards_[static_cast<std::size_t>(i)];
    const std::int64_t slab_lo =
        q_[static_cast<std::size_t>(queue_index(sh.r_lo, 0, 0))].offset;
    const std::int64_t slab_hi =
        sh.r_hi < routers
            ? q_[static_cast<std::size_t>(queue_index(sh.r_hi, 0, 0))].offset
            : static_cast<std::int64_t>(slab_.size());
    share[static_cast<std::size_t>(i)] = slab_hi - slab_lo;
  }
  for (std::size_t l = 0; l < n_out; ++l) {
    share[static_cast<std::size_t>(link_owner_[l])] += out_[l].ring_cap;
  }
  shard_id_base_.assign(static_cast<std::size_t>(n_shards_) + 1, 0);
  for (std::int32_t i = 0; i < n_shards_; ++i) {
    shard_id_base_[static_cast<std::size_t>(i) + 1] =
        shard_id_base_[static_cast<std::size_t>(i)] +
        static_cast<std::int32_t>(share[static_cast<std::size_t>(i)]);
  }
  assert(shard_id_base_.back() == pool_.bound());

  for (std::int32_t i = 0; i < n_shards_; ++i) {
    Shard& sh = shards_[static_cast<std::size_t>(i)];
    sh.ids = IdRange(shard_id_base_[static_cast<std::size_t>(i)],
                     shard_id_base_[static_cast<std::size_t>(i) + 1]);
    sh.due.reserve(owned_links[static_cast<std::size_t>(i)]);
    sh.outbox.resize(static_cast<std::size_t>(n_shards_));
    for (auto& box : sh.outbox) box.reserve(64);
  }

  barrier_ = std::make_unique<SpinBarrier>(n_shards_);
  workers_.reserve(static_cast<std::size_t>(n_shards_) - 1);
  for (std::int32_t i = 1; i < n_shards_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

// ---------------------------------------------------------------------------
// Queue primitives

void Simulator::activate_queue(Shard& sh, std::int32_t q, RouterId r) {
  const std::int32_t bit = q - r * radix_ * vmax_;
  queue_active_[static_cast<std::size_t>(r) *
                    static_cast<std::size_t>(queue_words_per_router_) +
                static_cast<std::size_t>(bit >> 6)] |=
      std::uint64_t{1} << (bit & 63);
  const std::int32_t rl = r - sh.r_lo;
  sh.router_active[static_cast<std::size_t>(rl >> 6)] |= std::uint64_t{1}
                                                         << (rl & 63);
}

void Simulator::deactivate_queue(Shard& sh, std::int32_t q, RouterId r) {
  const std::int32_t bit = q - r * radix_ * vmax_;
  const std::size_t base = static_cast<std::size_t>(r) *
                           static_cast<std::size_t>(queue_words_per_router_);
  queue_active_[base + static_cast<std::size_t>(bit >> 6)] &=
      ~(std::uint64_t{1} << (bit & 63));
  std::uint64_t any = 0;
  for (std::int32_t w = 0; w < queue_words_per_router_; ++w) {
    any |= queue_active_[base + static_cast<std::size_t>(w)];
  }
  if (any == 0) {
    const std::int32_t rl = r - sh.r_lo;
    sh.router_active[static_cast<std::size_t>(rl >> 6)] &=
        ~(std::uint64_t{1} << (rl & 63));
  }
}

void Simulator::push_queue(Shard& sh, std::int32_t q, RouterId r,
                           PortIndex ip, std::int32_t packet) {
  QueueRec& qr = q_[static_cast<std::size_t>(q)];
  assert(qr.size < qr.cap);
  std::int32_t slot = qr.head + qr.size;
  if (slot >= qr.cap) slot -= qr.cap;
  slab_[static_cast<std::size_t>(qr.offset + slot)] = packet;
  if (++qr.size == 1) {
    activate_queue(sh, q, r);
    on_new_head(sh, q, r, ip);
  }
}

std::int32_t Simulator::pop_queue(Shard& sh, std::int32_t q, RouterId r,
                                  PortIndex ip, VcIndex vc) {
  QueueRec& qr = q_[static_cast<std::size_t>(q)];
  assert(qr.size > 0);
  const std::int32_t packet = slab_[static_cast<std::size_t>(qr.offset +
                                                             qr.head)];
  qr.head = static_cast<std::int16_t>(qr.head + 1 == qr.cap ? 0 : qr.head + 1);
  --qr.size;
  // The freed slot is a credit for the upstream output (the queue's own
  // slot for an injection queue).
  const std::size_t in_flat = static_cast<std::size_t>(flat_port(r, ip));
  const std::int32_t slot = up_credit_[in_flat] + vc;
  if (n_shards_ == 1) {
    ++credit_[static_cast<std::size_t>(slot)];
  } else {
    // The credit belongs to the upstream shard; return it through the
    // inbox when that is someone else (applied at their next merge — the
    // one-cycle credit delay documented in ARCHITECTURE.md).
    const std::int32_t owner = credit_owner_[in_flat];
    if (owner == sh.index) {
      ++credit_[static_cast<std::size_t>(slot)];
    } else {
      ShardMessage m;
      m.kind = ShardMessage::Kind::kCredit;
      m.queue = slot;
      push_msg(sh, owner, m);
    }
  }
  if (qr.size > 0) {
    on_new_head(sh, q, r, ip);
  } else {
    deactivate_queue(sh, q, r);
  }
  return packet;
}

void Simulator::on_new_head(Shard& sh, std::int32_t q, RouterId r,
                            PortIndex ip) {
  QueueRec& qr = q_[static_cast<std::size_t>(q)];
  const std::int32_t packet =
      slab_[static_cast<std::size_t>(qr.offset + qr.head)];
  Packet& pk = pool_[packet];

  // Valiant phase ending on arrival at the intermediate router (candidates
  // with via_port < 0; dragonfly phases end on the global hop instead).
  if ((pk.flags & PacketPool::kPhase0) && pk.via_port < 0 &&
      pk.target_router == r) {
    pk.flags &= static_cast<std::uint8_t>(~PacketPool::kPhase0);
    pk.target_router = topo_.router_of_node(pk.dst);
    pk.g_hops = topo_.phase_end_state(pk.g_hops);
  }

  if (trace_on_) {
    tracer_.record_hop(now_, packet, r, telemetry::TraceEvent::kQueueHead,
                       static_cast<std::uint8_t>(ip));
  }

  if (ip >= fwd_ && !(pk.flags & PacketPool::kRouted)) {
    decide_injection(sh, r, packet);
  }
  // The destination never changes, so the head's minimal output is computed
  // once here and reused while it stays the head.
  const PortIndex min_out = topo_.minimal_output(r, pk.dst);
  maybe_transit_misroute(sh, r, q, packet, min_out);

  qr.counted = static_cast<std::int16_t>(min_out);
  qr.request = static_cast<std::int16_t>(routed_output(r, packet, min_out));
  qr.wait = 0;
  routing_->on_head(flat_port(r, min_out));
}

// ---------------------------------------------------------------------------
// Routing decisions

PortIndex Simulator::routed_output(RouterId r, std::int32_t packet,
                                   PortIndex min_out) {
  const Packet& pk = pool_[packet];
  const bool phase0 = (pk.flags & PacketPool::kPhase0) != 0;
  PortIndex out = min_out;
  if (phase0) {
    out = r == pk.target_router ? static_cast<PortIndex>(pk.via_port)
                                : topo_.route_toward(r, pk.target_router);
  }
  if (fault_on_ && out >= 0 && out < fwd_ && !health_.link_up(r, out)) {
    // Preferred link is down: deterministic topology fallback (no RNG — a
    // blocked head may re-evaluate this every cycle). kInvalidPort when
    // every forward link of `r` is down.
    const PortIndex preferred = out;
    out = topo_.fallback_output(
        r, phase0 ? pk.target_router : topo_.router_of_node(pk.dst), out);
    if (telemetry_on_ && out >= 0 && out != preferred) {
      sink_.count_misroute(r, telemetry::MisrouteCause::kFaultFallback);
    }
  }
  return out;
}

std::int32_t Simulator::occupancy_phits(RouterId r, PortIndex out) const {
  if (out >= fwd_) return 0;  // ejection: modeled as an ideal sink
  // The downstream queue's capacity equals the output port's own (checked
  // at construction), so this reads only r's credit block.
  const std::int32_t slot = credit_slot(r, out, 0);
  std::int32_t occupied = 0;
  for (VcIndex vc = 0; vc < vmax_; ++vc) {
    occupied += port_cap_[static_cast<std::size_t>(out * vmax_ + vc)] -
                credit_[static_cast<std::size_t>(slot + vc)];
  }
  return occupied * psize_;
}

std::int32_t Simulator::probe_occupancy_phits(std::int32_t shard, RouterId r,
                                              PortIndex out) const {
  // Remote routers' live credit state is owned by another shard; the
  // cycle-start snapshot (refreshed at each owner's merge point) stands in
  // for it. With one shard every router is local, so this is exactly
  // occupancy_phits and the serial draw sequence is untouched.
  const Shard& sh = shards_[static_cast<std::size_t>(shard)];
  if (snap_on_ && (r < sh.r_lo || r >= sh.r_hi)) {
    if (out >= fwd_) return 0;
    return occ_snap_[static_cast<std::size_t>(flat_port(r, out))];
  }
  return occupancy_phits(r, out);
}

std::int32_t Simulator::free_credits(RouterId r, PortIndex out,
                                     std::int8_t vc_state) const {
  // The VC a non-phase-0 packet in hop state `vc_state` would take on
  // (r, out), clamped like vc_for; OLM's exact-blocked test reads this.
  const VcIndex cls = topo_.vc_class(r, out, vc_state, false);
  const VcIndex vcn = std::min<VcIndex>(cls, class_vcs(out) - 1);
  return credit_[static_cast<std::size_t>(credit_slot(r, out, vcn))];
}

std::int32_t Simulator::fault_extra_latency(RouterId r, PortIndex out) const {
  if (!fault_on_) return 0;
  return health_.extra_latency(r, out);
}

std::int32_t Simulator::port_capacity_phits(PortIndex out) const {
  // Reference capacity for occupancy-fraction triggers: a single VC buffer.
  // Traffic on a link concentrates in its hop-class VC, so fractions of the
  // all-VC capacity would almost never be reached.
  if (out >= fwd_) return psize_;
  return topo_.port_class(out) == PortClass::kLocalClass
             ? params_.router.buf_local_phits
             : params_.router.buf_global_phits;
}

VcIndex Simulator::vc_for(RouterId r, PortIndex out,
                          std::int32_t packet) const {
  const Packet& pk = pool_[packet];
  const VcIndex cls = topo_.vc_class(r, out, pk.g_hops,
                                     (pk.flags & PacketPool::kPhase0) != 0);
  return std::min<VcIndex>(cls, class_vcs(out) - 1);
}

void Simulator::apply_global_misroute(std::int32_t packet,
                                      const NonminCandidate& cand) {
  Packet& pk = pool_[packet];
  pk.flags |= PacketPool::kMisGlobal | PacketPool::kPhase0;
  pk.target_router = cand.inter;
  pk.via_port = static_cast<std::int16_t>(cand.via_port);
}

void Simulator::decide_injection(Shard& sh, RouterId r, std::int32_t packet) {
  Packet& pk = pool_[packet];
  pk.flags |= PacketPool::kRouted;
  const NodeId d = pk.dst;
  pk.target_router = topo_.router_of_node(d);

  if (!inject_decides_ || (pk.flags & PacketPool::kInorder)) return;
  if (topo_.min_channel(r, d) < 0) return;  // no nonminimal option applies

  const routing::Decision dec =
      routing_->decide_injection(sh.rng, now_, sh.index, r, d);
  if (dec.misroute) {
    apply_global_misroute(packet, dec.cand);
    note_misroute(r, packet, dec.cause);
  }
}

void Simulator::maybe_transit_misroute(Shard& sh, RouterId r, std::int32_t q,
                                       std::int32_t packet, PortIndex min_out) {
  // In-transit mechanisms re-decide at injection and wherever the
  // topology's in-transit policy still allows it, so backlogged
  // minimal-committed packets can divert when the counters are hot.
  if (!transit_decides_) return;
  const Packet& pk = pool_[packet];
  if (pk.flags & (PacketPool::kMisGlobal | PacketPool::kInorder)) return;
  if (!topo_.can_misroute_in_transit(r, topo_.router_of_node(pk.src),
                                     pk.g_hops)) {
    return;
  }
  const NodeId d = pk.dst;
  const std::int32_t min_ch = topo_.min_channel(r, d);
  if (min_ch < 0) return;

  const routing::Decision dec = routing_->decide_transit(
      sh.rng, sh.index, r, d, pk.g_hops, min_out, min_ch);
  if (!dec.misroute) return;
  apply_global_misroute(packet, dec.cand);
  q_[static_cast<std::size_t>(q)].request =
      static_cast<std::int16_t>(routed_output(r, packet, min_out));
  if (telemetry_on_ || trace_on_) {
    note_misroute(r, packet,
                  r == topo_.router_of_node(pk.src)
                      ? telemetry::MisrouteCause::kTrigger
                      : telemetry::MisrouteCause::kInTransit);
  }
}

void Simulator::maybe_local_detour(Shard& sh, RouterId r, std::int32_t q) {
  if (!params_.routing.allow_local_misroute || !transit_decides_) return;
  const std::int32_t locals = topo_.local_detour_ports(r);
  QueueRec& qr = q_[static_cast<std::size_t>(q)];
  const PortIndex rp = qr.request;
  if (rp < 0 || rp >= locals) return;  // detour-eligible hops only
  const std::int32_t packet =
      slab_[static_cast<std::size_t>(qr.offset + qr.head)];
  Packet& pk = pool_[packet];
  if (pk.flags & (PacketPool::kDetoured | PacketPool::kInorder)) return;

  if (!routing_->local_detour_fires(sh.rng, sh.index, r, rp)) return;
  Rng& rng = sh.rng;

  // Pick a random alternative local port with a free link and credits.
  for (std::int32_t attempt = 0; attempt < 4; ++attempt) {
    const auto ap = static_cast<PortIndex>(
        rng.next_below(static_cast<std::uint64_t>(locals)));
    if (ap == rp) continue;
    if (fault_on_ && !health_.link_up(r, ap)) continue;
    const std::size_t flat = static_cast<std::size_t>(flat_port(r, ap));
    if (out_[flat].busy_until > now_) continue;
    const VcIndex vcn = vc_for(r, ap, packet);
    if (credit_[static_cast<std::size_t>(credit_slot(r, ap, vcn))] <= 1) {
      continue;  // require slack so detours do not fill the last slot
    }
    qr.request = static_cast<std::int16_t>(ap);
    pk.flags |= PacketPool::kMisLocal | PacketPool::kDetoured;
    note_misroute(r, packet, telemetry::MisrouteCause::kLocalDetour);
    return;
  }
}

// ---------------------------------------------------------------------------
// Per-cycle phases

void Simulator::ring_insert(Shard& sh, std::int32_t flat,
                            const LinkEvent& ev) {
  Output& o = out_[static_cast<std::size_t>(flat)];
  assert(o.ring_count < o.ring_cap);
  std::int32_t slot = o.ring_head + o.ring_count;
  if (slot >= o.ring_cap) slot -= o.ring_cap;
  ring_slab_[static_cast<std::size_t>(o.ring_offset + slot)] = ev;
  // A ring going non-empty files its (only possible due) front entry in the
  // timing wheel; rings already in flight stay filed under their front.
  if (o.ring_count++ == 0) wheel_insert(sh, flat, ev.arrival);
}

void Simulator::deliver_arrivals(Shard& sh) {
  // Per-link FIFO rings: arrivals on a link are strictly increasing and
  // spaced >= psize cycles, so only the front entry can be due and each
  // ring sits in one wheel bucket. Every front is due within the wheel's
  // span, so the current bucket holds exactly the rings due now. Sorting it
  // visits same-cycle arrivals in ascending link order, matching the
  // pre-active-set full scan bit-exactly.
  std::vector<std::int32_t>& due = sh.due;
  due.clear();
  std::int32_t& bucket = sh.wheel[static_cast<std::size_t>(
      static_cast<std::uint64_t>(now_) & wheel_mask_)];
  for (std::int32_t l = bucket; l >= 0;
       l = out_[static_cast<std::size_t>(l)].next) {
    // dfsim-check: allow(CHK-ALLOC): reserved to the owned-link bound
    due.push_back(l);
  }
  bucket = -1;
  std::sort(due.begin(), due.end());

  // Staged lookahead, one dependent load per stage: the link's output
  // record kLinkAhead links ahead, its ring front kEventAhead ahead, the
  // target queue and packet records kTargetAhead ahead, and the queue's
  // tail slot kSlotAhead ahead, so each stage reads what the previous one
  // fetched.
  constexpr std::size_t kLinkAhead = 6;
  constexpr std::size_t kEventAhead = 4;
  constexpr std::size_t kTargetAhead = 2;
  constexpr std::size_t kSlotAhead = 1;
  const std::size_t n = due.size();
  const auto front_of = [&](std::size_t i) -> const LinkEvent& {
    const Output& o = out_[static_cast<std::size_t>(due[i])];
    return ring_slab_[static_cast<std::size_t>(o.ring_offset + o.ring_head)];
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kLinkAhead < n) {
      prefetch(&out_[static_cast<std::size_t>(due[i + kLinkAhead])]);
    }
    if (i + kEventAhead < n) prefetch(&front_of(i + kEventAhead));
    if (i + kTargetAhead < n) {
      const LinkEvent& ahead = front_of(i + kTargetAhead);
      prefetch(&q_[static_cast<std::size_t>(ahead.down_queue)]);
      prefetch(&pool_[ahead.packet]);
    }
    if (i + kSlotAhead < n) {
      const QueueRec& qa =
          q_[static_cast<std::size_t>(front_of(i + kSlotAhead).down_queue)];
      std::int32_t tail = qa.head + qa.size;
      if (tail >= qa.cap) tail -= qa.cap;
      prefetch(&slab_[static_cast<std::size_t>(qa.offset + tail)]);
    }

    const std::int32_t l = due[i];
    Output& o = out_[static_cast<std::size_t>(l)];
    const LinkEvent ev =
        ring_slab_[static_cast<std::size_t>(o.ring_offset + o.ring_head)];
    assert(ev.arrival == now_);
    if (++o.ring_head == o.ring_cap) o.ring_head = 0;
    if (--o.ring_count > 0) {
      wheel_insert(sh, l,
                   ring_slab_[static_cast<std::size_t>(o.ring_offset +
                                                       o.ring_head)]
                       .arrival);
    }
    const std::int32_t in_flat = div_vmax_.quot(ev.down_queue);
    const RouterId r = div_radix_.quot(in_flat);
    const PortIndex ip = in_flat - r * radix_;
    if (trace_on_) {
      tracer_.record_hop(now_, ev.packet, r,
                         telemetry::TraceEvent::kLinkArrive,
                         static_cast<std::uint8_t>(ip));
    }
    push_queue(sh, ev.down_queue, r, ip, ev.packet);
  }
}

void Simulator::inject_traffic(Shard& sh) {
  // All pattern logic lives in the traffic model (pre-resolved tables, own
  // RNG); the engine just places whatever the model emits. Each shard's
  // model instance is restricted to the shard's terminals.
  Rng& rng = sh.rng;
  TrafficModel& traffic = *sh.traffic;
  traffic.begin_cycle(now_);
  Injection inj;
  while (traffic.next(inj)) {
    ++sh.metrics.generated;

    const RouterId r = topo_.router_of_node(inj.src);
    if (throttle_on_ && !routing_->admit_injection(now_, r, inj.dst)) {
      // Source throttle (ARN variant): same accounting as a full queue.
      ++sh.metrics.refused;
      if (telemetry_on_) sink_.count_refusal(r);
      continue;
    }
    const PortIndex ip = fwd_ + (inj.src % topo_.concentration());
    // An injection queue's credit slot is its own queue index.
    const std::int32_t q = queue_index(r, ip, 0);
    if (credit_[static_cast<std::size_t>(q)] <= 0) {
      ++sh.metrics.refused;
      if (telemetry_on_) sink_.count_refusal(r);
      continue;
    }

    const std::int32_t packet = allocate_packet(sh);
    if (packet < 0) {
      // Id range exhausted. Only a shard can get here: it may hold ids
      // that sit in other shards' queues, while the serial range covers
      // every slot. Deterministic back-pressure, same accounting as a full
      // queue.
      ++sh.metrics.refused;
      continue;
    }
    pool_.reset_packet(packet, inj.src, inj.dst, now_);
    if (telemetry_on_) sink_.count_injection(r);
    if (trace_on_) tracer_.on_inject(now_, packet, r, inj.dst);
    if (params_.traffic.inorder_fraction > 0.0 &&
        rng.next_bool(params_.traffic.inorder_fraction)) {
      pool_[packet].flags |= PacketPool::kInorder;
    }
    --credit_[static_cast<std::size_t>(q)];
    push_queue(sh, q, r, ip, packet);
  }
}

void Simulator::route_and_allocate(Shard& sh) {
  // Active-set walk: routers with any occupied queue, then that router's
  // occupied queues in ascending (port, vc) bit order — exactly the dense
  // triple loop's visit order over non-empty queues, so head-wait
  // re-evaluation (and its RNG draws) happen in the original sequence.
  // Grants mutate only the router being processed (depart pops its own
  // input queues; departures land on link rings or outboxes, not queues),
  // so the active-router list gathered up front stays exact, and iterating
  // over word copies is safe.
  std::vector<RouterId>& routers = sh.active_routers;
  routers.clear();
  for (std::size_t rw = 0; rw < sh.router_active.size(); ++rw) {
    std::uint64_t rbits = sh.router_active[rw];
    while (rbits != 0) {
      const int rbit = std::countr_zero(rbits);
      rbits &= rbits - 1;
      // dfsim-check: allow(CHK-ALLOC): reserved to the shard's router count
      routers.push_back(
          sh.r_lo +
          static_cast<RouterId>(rw * 64 + static_cast<std::size_t>(rbit)));
    }
  }

  // Staged lookahead over the router list, one dependent load per stage,
  // for every occupied queue: the router's queue-occupancy words
  // kWordsAhead routers ahead; the queue records kQueuesAhead ahead; the
  // head's slab slot, its contention counter and the requested output's
  // record and credits kHeadsAhead ahead; the router's round-robin
  // pointers, the packets a departure would touch (the head and the next
  // head) and the ring slot it would fill kPacketsAhead ahead. A
  // router's queues change only while it is processed, so each stage reads
  // what the previous stage fetched.
  constexpr std::size_t kWordsAhead = 4;
  constexpr std::size_t kQueuesAhead = 3;
  constexpr std::size_t kHeadsAhead = 2;
  constexpr std::size_t kPacketsAhead = 1;
  const std::int32_t qwpr = queue_words_per_router_;
  const auto for_each_active = [&](RouterId ra, auto&& fn) {
    const std::size_t wbase =
        static_cast<std::size_t>(ra) * static_cast<std::size_t>(qwpr);
    const std::size_t qa = static_cast<std::size_t>(ra) *
                           static_cast<std::size_t>(radix_ * vmax_);
    for (std::int32_t w = 0; w < qwpr; ++w) {
      std::uint64_t bits = queue_active_[wbase + static_cast<std::size_t>(w)];
      while (bits != 0) {
        fn(q_[qa + static_cast<std::size_t>(w * 64 + std::countr_zero(bits))]);
        bits &= bits - 1;
      }
    }
  };
  const std::size_t n = routers.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kWordsAhead < n) {
      prefetch(&queue_active_[static_cast<std::size_t>(
                                  routers[i + kWordsAhead]) *
                              static_cast<std::size_t>(qwpr)]);
    }
    if (i + kQueuesAhead < n) {
      const RouterId ra = routers[i + kQueuesAhead];
      for_each_active(ra, [](const QueueRec& qr) { prefetch(&qr); });
    }
    if (i + kHeadsAhead < n) {
      const RouterId ra = routers[i + kHeadsAhead];
      for_each_active(ra, [&](const QueueRec& qr) {
        prefetch(&slab_[static_cast<std::size_t>(qr.offset + qr.head)]);
        routing_->prefetch_counter(flat_port(ra, qr.counted));
        if (qr.request < 0) return;
        prefetch(&out_[static_cast<std::size_t>(flat_port(ra, qr.request))]);
        prefetch(&credit_[static_cast<std::size_t>(
            credit_slot(ra, qr.request, 0))]);
      });
    }
    if (i + kPacketsAhead < n) {
      const RouterId ra = routers[i + kPacketsAhead];
      sh.alloc.prefetch_router(ra - sh.r_lo);
      for_each_active(ra, [&](const QueueRec& qr) {
        prefetch(&pool_[slab_[static_cast<std::size_t>(qr.offset + qr.head)]]);
        if (qr.size > 1) {
          const std::int32_t next = qr.head + 1 == qr.cap ? 0 : qr.head + 1;
          prefetch(&pool_[slab_[static_cast<std::size_t>(qr.offset + next)]]);
        }
        if (qr.request < 0 || qr.request >= fwd_) return;
        const auto flat = static_cast<std::size_t>(flat_port(ra, qr.request));
        // Another shard's ring may be mid-write: read only our own.
        if (n_shards_ > 1 && link_owner_[flat] != sh.index) return;
        const Output& o = out_[flat];
        std::int32_t tail = o.ring_head + o.ring_count;
        if (tail >= o.ring_cap) tail -= o.ring_cap;
        prefetch(&ring_slab_[static_cast<std::size_t>(o.ring_offset + tail)]);
      });
    }

    const RouterId r = routers[i];
    const std::size_t qbase =
        static_cast<std::size_t>(r) * static_cast<std::size_t>(qwpr);
    const std::int32_t q0 = r * radix_ * vmax_;
    sh.request_batch.clear();
    for (std::int32_t w = 0; w < qwpr; ++w) {
      std::uint64_t qbits = queue_active_[qbase + static_cast<std::size_t>(w)];
      while (qbits != 0) {
        const int qbit = std::countr_zero(qbits);
        qbits &= qbits - 1;
        const std::int32_t local = w * 64 + qbit;
        const std::int32_t q = q0 + local;
        QueueRec& qr = q_[static_cast<std::size_t>(q)];
        assert(qr.size > 0);

        if (head_wait_due(qr.wait)) {
          // The head has been blocked for a while: re-evaluate in-transit
          // global misrouting and consider an opportunistic local detour.
          const std::int32_t packet =
              slab_[static_cast<std::size_t>(qr.offset + qr.head)];
          maybe_transit_misroute(sh, r, q, packet, qr.counted);
          maybe_local_detour(sh, r, q);
        }
        qr.wait = advance_head_wait(qr.wait);

        PortIndex out = qr.request;
        if (fault_on_ &&
            (out < 0 || (out < fwd_ && !health_.link_up(r, out)))) {
          // The requested link died (or no live option existed when the
          // head was last routed): re-route via the topology fallback.
          // Heads with no live output wait in place — a flap may revive
          // the link, and head-wait re-evaluation above still lets the
          // adaptive mechanisms divert the packet.
          const std::int32_t packet =
              slab_[static_cast<std::size_t>(qr.offset + qr.head)];
          out = routed_output(r, packet, qr.counted);
          qr.request = static_cast<std::int16_t>(out);
          if (out < 0) continue;
        }
        const std::size_t flat = static_cast<std::size_t>(flat_port(r, out));
        if (out_[flat].busy_until > now_) continue;
        if (out < fwd_) {
          const std::int32_t packet =
              slab_[static_cast<std::size_t>(qr.offset + qr.head)];
          const VcIndex vcn = vc_for(r, out, packet);
          if (credit_[static_cast<std::size_t>(credit_slot(r, out, vcn))] <=
              0) {
            if (telemetry_on_) sink_.count_credit_stall(r);
            continue;
          }
        }
        const PortIndex ip = div_vmax_.quot(local);
        sh.request_batch.add(ip, static_cast<VcIndex>(local - ip * vmax_),
                             out);
      }
    }
    if (sh.request_batch.empty()) continue;

    SeparableAllocator& alloc = sh.alloc;
    alloc.begin_cycle(r - sh.r_lo);
    for (std::int32_t it = 0; it < params_.router.speedup; ++it) {
      if (alloc.iterate(sh.request_batch).empty() && it > 0) break;
    }
    for (const AllocGrant& grant : alloc.cycle_grants()) {
      depart(sh, r, grant);
    }
  }
}

void Simulator::depart(Shard& sh, RouterId r, const AllocGrant& grant) {
  const std::int32_t q = queue_index(r, grant.in, grant.vc);
  const std::int16_t counted = q_[static_cast<std::size_t>(q)].counted;
  const std::int32_t packet = pop_queue(sh, q, r, grant.in, grant.vc);
  routing_->on_tail_departure(flat_port(r, counted));

  const PortIndex out = grant.out;
  const std::size_t flat = static_cast<std::size_t>(flat_port(r, out));
  Output& o = out_[flat];
  o.busy_until = now_ + psize_;

  if (out >= fwd_) {
    deliver(sh, r, packet);
    return;
  }

  Packet& pk = pool_[packet];
  if (fault_on_) {
    // Hard invariant (gated == 0): the request filter in route_and_allocate
    // never lets a head depart onto a down link.
    if (!health_.link_up(r, out)) ++sh.metrics.dead_link_hops;
    if (pk.hops >= hop_cap_) {
      // Livelock guard: rerouted around faults past any plausible path
      // length; drop rather than circulate forever.
      ++sh.metrics.undeliverable;
      if (telemetry_on_) sink_.count_undeliverable();
      if (trace_on_) {
        tracer_.close(now_, packet, r, telemetry::TraceEvent::kDrop);
      }
      release_packet(sh, packet);
      return;
    }
    pk.hops = static_cast<std::uint16_t>(pk.hops + 1);
  }
  if (telemetry_on_) {
    sink_.count_link_departure(static_cast<std::int32_t>(flat));
  }
  if (trace_on_) {
    tracer_.record_hop(now_, packet, r, telemetry::TraceEvent::kLinkDepart,
                       static_cast<std::uint8_t>(out));
  }
  const VcIndex vcn = vc_for(r, out, packet);  // pre-transition state
  --credit_[static_cast<std::size_t>(credit_slot(r, out, vcn))];
  const std::int32_t down = o.down_base + vcn;

  const HopTransition hop = topo_.on_hop(r, out, pk.g_hops);
  pk.g_hops = hop.vc_state;
  if (hop.reset_detour) {
    pk.flags &= static_cast<std::uint8_t>(~PacketPool::kDetoured);
  }
  if (hop.end_phase0 && (pk.flags & PacketPool::kPhase0)) {
    pk.flags &= static_cast<std::uint8_t>(~PacketPool::kPhase0);
    pk.target_router = topo_.router_of_node(pk.dst);
  }
  Cycle arrival = now_ + o.delay;
  if (fault_on_) arrival += health_.extra_latency(r, out);
  const auto lid = static_cast<std::int32_t>(flat);
  if (n_shards_ == 1 || link_owner_[flat] == sh.index) {
    ring_insert(sh, lid, LinkEvent{arrival, packet, down});
  } else {
    // The ring belongs to the downstream shard: hand the traversal over
    // through its inbox; it ring-inserts at its next merge point. Arrivals
    // are several cycles out, so the one-cycle handoff loses nothing.
    ShardMessage m;
    m.kind = ShardMessage::Kind::kLinkSend;
    m.link = lid;
    m.queue = down;
    m.packet = packet;
    m.arrival = arrival;
    push_msg(sh, link_owner_[flat], m);
  }
}

void Simulator::deliver(Shard& sh, RouterId r, std::int32_t packet) {
  const Packet& pk = pool_[packet];
  const Cycle latency =
      now_ + params_.router.pipeline_cycles + psize_ - pk.birth;
  const std::uint8_t flags = pk.flags;
  const bool mis_global = (flags & PacketPool::kMisGlobal) != 0;
  const bool mis_local = (flags & PacketPool::kMisLocal) != 0;

  ++sh.metrics.delivered;
  sh.metrics.delivered_phits += psize_;
  sh.metrics.latency_sum += static_cast<double>(latency);
  sh.metrics.latency_hist.add(latency);
  if (mis_global) ++sh.metrics.misrouted;
  if (mis_local) ++sh.metrics.local_misrouted;
  if (!mis_global && !mis_local) ++sh.metrics.minimal_path;

  if (log_deliveries_) {
    if (sh.deliveries.size() == sh.deliveries.capacity()) ++sh.log_growth;
    // dfsim-check: allow(CHK-ALLOC): growth is counted in log_growth
    sh.deliveries.push_back(Delivery{pk.birth, latency, mis_global,
                                     !mis_global && !mis_local});
  }
  if (telemetry_on_) sink_.count_delivery(r);
  if (trace_on_) {
    tracer_.close(now_, packet, r, telemetry::TraceEvent::kDeliver,
                  static_cast<std::uint32_t>(latency));
  }
  release_packet(sh, packet);
}

void Simulator::update_mechanism(Shard& sh) {
  // The mechanism's update window: shards call it for their own router
  // ranges and may write only per-shard-disjoint state slices; the
  // surrounding barriers order the writes against every reader.
  routing_->update(now_, sh.index, sh.r_lo, sh.r_hi);
  if (telemetry_on_) {
    for (RouterId r = sh.r_lo; r < sh.r_hi; ++r) sink_.count_ectn_update();
  }
}

// ---------------------------------------------------------------------------
// Fault overlay

void Simulator::advance_faults_serial() {
  health_.apply(fault_, now_);
  fault_next_event_ = fault_.next_event_after(now_);
}

void Simulator::purge_faulted_rings(Shard& sh) {
  // Drop in-flight packets on links that just went down: each drop returns
  // the reserved downstream credit and releases the packet, so conservation
  // (generated - refused == delivered + dropped + undeliverable +
  // in-network) keeps holding exactly. Sharded: each shard purges only the
  // rings it owns; credits whose upstream is remote ride the inbox and land
  // at the next merge.
  bool purged = false;
  for (const std::int32_t id : fault_.faulty_links()) {
    const auto l = static_cast<std::size_t>(id);
    if (n_shards_ > 1 && link_owner_[l] != sh.index) continue;
    Output& o = out_[l];
    if (o.ring_count == 0) continue;
    if (health_.link_up(id / radix_, id % radix_)) continue;
    while (o.ring_count > 0) {
      const LinkEvent& ev =
          ring_slab_[static_cast<std::size_t>(o.ring_offset + o.ring_head)];
      // The credit sits at this link's own upstream output.
      const std::int32_t slot = id * vmax_ + (ev.down_queue - o.down_base);
      const std::int32_t owner =
          n_shards_ == 1 ? 0
                         : credit_owner_[static_cast<std::size_t>(
                               ev.down_queue / vmax_)];
      if (owner == sh.index) {
        ++credit_[static_cast<std::size_t>(slot)];
      } else {
        ShardMessage m;
        m.kind = ShardMessage::Kind::kCredit;
        m.queue = slot;
        push_msg(sh, owner, m);
      }
      ++sh.metrics.dropped;
      if (telemetry_on_) sink_.count_drop();
      if (trace_on_) {
        tracer_.close(now_, ev.packet,
                      static_cast<RouterId>(l / static_cast<std::size_t>(
                                                    radix_)),
                      telemetry::TraceEvent::kDrop);
      }
      release_packet(sh, ev.packet);
      if (++o.ring_head == o.ring_cap) o.ring_head = 0;
      --o.ring_count;
    }
    purged = true;
  }
  if (!purged) return;

  // Rebuild the shard's timing wheel so the one-entry-per-non-empty-ring
  // invariant survives the purge (deliver_arrivals sorts each bucket, so
  // the order within a bucket does not matter).
  std::fill(sh.wheel.begin(), sh.wheel.end(), -1);
  for (std::size_t l = 0; l < out_.size(); ++l) {
    // Ownership first: every shard purges concurrently, so the ring of a
    // link another shard owns may be mid-write — don't even read it.
    if (n_shards_ > 1 && link_owner_[l] != sh.index) continue;
    const Output& o = out_[l];
    if (o.ring_count == 0) continue;
    wheel_insert(sh, static_cast<std::int32_t>(l),
                 ring_slab_[static_cast<std::size_t>(o.ring_offset +
                                                     o.ring_head)]
                     .arrival);
  }
}

// ---------------------------------------------------------------------------
// Sharded execution

void Simulator::push_msg(Shard& sh, std::int32_t dst,
                         const ShardMessage& msg) {
  std::vector<ShardMessage>& box = sh.outbox[static_cast<std::size_t>(dst)];
  if (box.size() == box.capacity()) ++sh.msg_growth;
  // dfsim-check: allow(CHK-ALLOC): growth is counted in msg_growth
  box.push_back(msg);
}

std::int32_t Simulator::allocate_packet(Shard& sh) {
  const std::int32_t id = sh.ids.allocate();
  if (id != kInvalidPacket) ++sh.live;
  return id;
}

void Simulator::release_packet(Shard& sh, std::int32_t packet) {
  // `live` is a per-shard delta (allocations minus releases, wherever the
  // id came from), so the sum over shards counts in-network packets
  // exactly even while an id rides an inbox back to its range owner.
  --sh.live;
  if (sh.ids.owns(packet)) {
    sh.ids.release(packet);
  } else {
    const auto it = std::upper_bound(shard_id_base_.begin(),
                                     shard_id_base_.end(), packet);
    const auto owner =
        static_cast<std::int32_t>(it - shard_id_base_.begin()) - 1;
    ShardMessage m;
    m.kind = ShardMessage::Kind::kFreeId;
    m.packet = packet;
    push_msg(sh, owner, m);
  }
}

void Simulator::merge_inboxes(Shard& sh) {
  // Fixed merge order — ascending source shard, FIFO within each box — is
  // what makes a sharded run a pure function of (params, seed, shards).
  for (std::int32_t src = 0; src < n_shards_; ++src) {
    std::vector<ShardMessage>& box =
        shards_[static_cast<std::size_t>(src)].outbox[
            static_cast<std::size_t>(sh.index)];
    for (const ShardMessage& m : box) {
      switch (m.kind) {
        case ShardMessage::Kind::kLinkSend:
          ring_insert(sh, m.link, LinkEvent{m.arrival, m.packet, m.queue});
          break;
        case ShardMessage::Kind::kCredit:
          ++credit_[static_cast<std::size_t>(m.queue)];
          break;
        case ShardMessage::Kind::kFreeId:
          sh.ids.release(m.packet);
          break;
      }
    }
    box.clear();
  }
  if (snap_on_) {
    // Publish this shard's forward-port occupancy (credits just applied)
    // for the remote probes of other shards this cycle.
    for (RouterId r = sh.r_lo; r < sh.r_hi; ++r) {
      for (PortIndex out = 0; out < fwd_; ++out) {
        occ_snap_[static_cast<std::size_t>(flat_port(r, out))] =
            occupancy_phits(r, out);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The cycle body and its drivers

void Simulator::cycle(Shard& sh) {
  using telemetry::Phase;
  // This cycle's schedule, published by run() or by shard 0 at the end of
  // the previous cycle, so every shard executes the same barrier count.
  const bool fault_cycle = fault_cycle_;
  const bool mech_cycle = mech_cycle_;

  if (n_shards_ > 1) {
    // Merge point: apply cross-shard events from the previous cycle. Every
    // shard is past its route phase (dispatch or end-of-cycle barrier), so
    // outboxes addressed to us are quiescent.
    merge_inboxes(sh);
    lap(sh, Phase::kMerge);
  }
  if (fault_on_ && fault_cycle) {
    // The health map is global: one shard refreshes it while the rest wait.
    // The barrier also fences purge's outbox appends from the merges above.
    if (sh.index == 0) advance_faults_serial();
    if (n_shards_ > 1) {
      lap(sh, Phase::kFaults);
      sync_shards(sh);
    }
    purge_faulted_rings(sh);
    lap(sh, Phase::kFaults);
  }
  sync_shards(sh);  // merges/purges done; cycle phases begin
  deliver_arrivals(sh);
  lap(sh, Phase::kDeliver);
  inject_traffic(sh);
  lap(sh, Phase::kInject);
  if (mech_cycle) {
    // Mechanism update window: counters stop changing at the barrier above,
    // and no shard reads the refreshed state until the one below.
    sync_shards(sh);
    update_mechanism(sh);
    lap(sh, Phase::kEctn);
    sync_shards(sh);
  }
  route_and_allocate(sh);
  lap(sh, Phase::kRoute);
  sync_shards(sh);  // route done everywhere; outboxes quiescent
  if (sh.index == 0) {
    if (telemetry_on_ && now_ == telemetry_next_sample_) flush_telemetry();
    ++now_;
    schedule_cycle();
  }
  lap(sh, Phase::kTelemetry);
  sync_shards(sh);  // now_ and the next schedule published
}

void Simulator::sync_shards(Shard& sh) {
  if (n_shards_ == 1) return;
  barrier_->arrive_and_wait();
  lap(sh, telemetry::Phase::kBarrier);
}

void Simulator::schedule_cycle() {
  fault_cycle_ = fault_on_ && now_ == fault_next_event_;
  mech_cycle_ = routing_->update_due(now_);
}

void Simulator::run_shard(Shard& sh, Cycle cycles) {
  if (profile_on_) sh.profiler.begin(cycles);
  for (Cycle i = 0; i < cycles; ++i) cycle(sh);
}

void Simulator::worker_loop(std::int32_t shard_index) {
  Shard& sh = shards_[static_cast<std::size_t>(shard_index)];
  std::uint64_t seen = 0;
  for (;;) {
    Cycle cycles = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      cycles = pending_cycles_;
    }
    const std::int32_t jitter = jitter_us_.load(std::memory_order_relaxed);
    if (jitter > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(jitter * shard_index));
    }
    run_shard(sh, cycles);
    std::lock_guard<std::mutex> lock(mu_);
    if (++done_count_ == n_shards_ - 1) cv_.notify_all();
  }
}

void Simulator::step() { run(1); }

void Simulator::run(Cycle cycles) {
  if (cycles <= 0) return;
  schedule_cycle();  // the first cycle's; shard 0 publishes the rest
  if (n_shards_ > 1) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_cycles_ = cycles;
      done_count_ = 0;
      ++epoch_;
    }
    cv_.notify_all();
  }
  run_shard(shards_[0], cycles);
  if (n_shards_ == 1) return;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return done_count_ == n_shards_ - 1; });
}

void Simulator::flush_telemetry() {
  const std::int32_t routers = topo_.routers();
  const std::int32_t queues_per_router = radix_ * vmax_;
  for (RouterId r = 0; r < routers; ++r) {
    std::int32_t occupied = 0;
    const std::int32_t q0 = r * queues_per_router;
    for (std::int32_t i = 0; i < queues_per_router; ++i) {
      occupied += q_[static_cast<std::size_t>(q0 + i)].size;
    }
    sink_.set_gauge_occupancy(r, occupied);
    for (PortIndex port = 0; port < fwd_; ++port) {
      const std::int32_t flat = flat_port(r, port);
      sink_.set_gauge_counter(flat, routing_->counter_value(flat));
    }
  }
  if (fault_on_) {
    std::int32_t down = 0;
    for (RouterId r = 0; r < routers; ++r) {
      for (PortIndex port = 0; port < fwd_; ++port) {
        if (!health_.link_up(r, port)) ++down;
      }
    }
    sink_.set_links_down(down);
  }
  sink_.commit_frame(now_);
  telemetry_next_sample_ = now_ + sink_.sample_period();
}

// ---------------------------------------------------------------------------
// Measurement & merged views

void Simulator::begin_measurement() {
  before_ = lifetime_totals();
  for (Shard& sh : shards_) sh.metrics = Metrics{};
  measure_start_ = now_;
}

const Simulator::Metrics& Simulator::metrics() const {
  if (n_shards_ == 1) return shards_[0].metrics;
  merged_metrics_ = Metrics{};
  for (const Shard& sh : shards_) {
    const Metrics& m = sh.metrics;
    merged_metrics_.delivered += m.delivered;
    merged_metrics_.delivered_phits += m.delivered_phits;
    merged_metrics_.latency_sum += m.latency_sum;
    merged_metrics_.misrouted += m.misrouted;
    merged_metrics_.local_misrouted += m.local_misrouted;
    merged_metrics_.minimal_path += m.minimal_path;
    merged_metrics_.generated += m.generated;
    merged_metrics_.refused += m.refused;
    merged_metrics_.dropped += m.dropped;
    merged_metrics_.undeliverable += m.undeliverable;
    merged_metrics_.dead_link_hops += m.dead_link_hops;
    merged_metrics_.latency_hist.merge(m.latency_hist);
  }
  return merged_metrics_;
}

const Simulator::Totals& Simulator::lifetime_totals() const {
  const Metrics& m = metrics();
  merged_totals_ = before_;
  merged_totals_.generated += m.generated;
  merged_totals_.refused += m.refused;
  merged_totals_.delivered += m.delivered;
  merged_totals_.dropped += m.dropped;
  merged_totals_.undeliverable += m.undeliverable;
  return merged_totals_;
}

std::int64_t Simulator::packets_in_network() const {
  std::int64_t live = 0;
  for (const Shard& sh : shards_) live += sh.live;
  return live;
}

const std::vector<Simulator::Delivery>& Simulator::delivery_log() const {
  if (n_shards_ == 1) return shards_[0].deliveries;
  merged_deliveries_.clear();
  std::size_t total = 0;
  for (const Shard& sh : shards_) total += sh.deliveries.size();
  merged_deliveries_.reserve(total);
  for (const Shard& sh : shards_) {
    merged_deliveries_.insert(merged_deliveries_.end(), sh.deliveries.begin(),
                              sh.deliveries.end());
  }
  return merged_deliveries_;
}

double Simulator::throughput() const {
  const Cycle cycles = measured_cycles();
  if (cycles <= 0) return 0.0;
  return static_cast<double>(metrics().delivered_phits) /
         (static_cast<double>(topo_.nodes()) * static_cast<double>(cycles));
}

double Simulator::generated_load() const {
  const Cycle cycles = measured_cycles();
  if (cycles <= 0) return 0.0;
  return static_cast<double>(metrics().generated) *
         static_cast<double>(psize_) /
         (static_cast<double>(topo_.nodes()) * static_cast<double>(cycles));
}

double Simulator::backlog_per_node() const {
  std::int64_t waiting = 0;
  for (RouterId r = 0; r < topo_.routers(); ++r) {
    for (std::int32_t i = 0; i < topo_.concentration(); ++i) {
      waiting += q_[static_cast<std::size_t>(queue_index(r, fwd_ + i, 0))]
                     .size;
    }
  }
  return static_cast<double>(waiting) / static_cast<double>(topo_.nodes());
}

void Simulator::set_traffic(const TrafficParams& traffic) {
  params_.traffic = traffic;
  for (Shard& sh : shards_) sh.traffic->reset_spec(traffic);
}

void Simulator::start_trace_recording(std::size_t reserve_records) {
  if (n_shards_ > 1) {
    throw std::invalid_argument(
        "trace recording requires engine.threads = 1 (a shard sees only its "
        "own sources)");
  }
  shards_[0].traffic->start_recording(reserve_records);
}

void Simulator::enable_delivery_log() {
  log_deliveries_ = true;
  for (Shard& sh : shards_) sh.deliveries.clear();
}

void Simulator::enable_ectn_monitor(std::int32_t async_mult,
                                    std::int32_t urgent_delta) {
  if (n_shards_ > 1) {
    throw std::invalid_argument(
        "ECtN overhead monitor requires engine.threads = 1");
  }
  routing_->enable_ectn_monitor(async_mult, urgent_delta);
}

std::int64_t Simulator::allocation_events() const {
  std::int64_t events = 0;
  for (const Shard& sh : shards_) {
    events += sh.log_growth + sh.msg_growth +
              sh.traffic->record_growth_events();
  }
  return events;
}

std::int64_t Simulator::pool_high_water() const {
  std::int64_t ids = 0;
  for (const Shard& sh : shards_) ids += sh.ids.high_water();
  return ids;
}

MemoryReport Simulator::memory_report() const {
  const auto bytes = [](const auto& v) { return vector_bytes(v); };
  MemoryReport report;
  report.merge("topology", topo_.memory_report());
  report.add("engine.queues", bytes(q_) + bytes(port_cap_) + bytes(port_vcs_));
  report.add("engine.credits", bytes(credit_) + bytes(up_credit_));
  report.add("engine.queue_slab", slab_.resident_bytes(),
             slab_.reserved_bytes());
  report.add("engine.outputs", out_);
  report.add("engine.link_rings", ring_slab_.resident_bytes(),
             ring_slab_.reserved_bytes());
  report.add("engine.active_sets", queue_active_);
  report.add("engine.shard_tables",
             bytes(shard_of_router_) + bytes(credit_owner_) +
                 bytes(link_owner_) + bytes(shard_id_base_) +
                 bytes(occ_snap_));
  report.merge("pool", pool_.memory_report(pool_high_water()));
  for (const Shard& sh : shards_) {
    const std::string name = "shard" + std::to_string(sh.index);
    report.add(name + ".allocator", sh.alloc.heap_bytes());
    report.add(name + ".link_wheel", bytes(sh.wheel) + bytes(sh.due));
    std::size_t outbox_bytes = bytes(sh.outbox);
    for (const auto& box : sh.outbox) outbox_bytes += bytes(box);
    report.add(name + ".outboxes", outbox_bytes);
    report.add(name + ".free_list", sh.ids.free_list_bytes(),
               sh.ids.free_list_reserved());
    report.add(name + ".scratch", bytes(sh.router_active) +
                                      bytes(sh.active_routers) +
                                      bytes(sh.request_batch.groups()) +
                                      bytes(sh.request_batch.reqs()));
    report.add(name + ".delivery_log", sh.deliveries);
    report.add(name + ".traffic", sh.traffic->heap_bytes());
  }
  report.merge("routing", routing_->memory_report());
  if (fault_on_) {
    report.add("fault", fault_.heap_bytes() + health_.heap_bytes());
  }
  if (telemetry_on_) report.merge("telemetry.sink", sink_.memory_report());
  if (trace_on_) report.merge("telemetry.tracer", tracer_.memory_report());
  return report;
}

bool Simulator::debug_check_active_state() const {
  const std::int32_t routers = topo_.routers();
  const std::int32_t qwpr = queue_words_per_router_;

  // (1) Queue-occupancy bits mirror queue sizes exactly; the owning shard's
  // router summary bit mirrors the OR of the router's queue words.
  std::int64_t queued_packets = 0;
  for (RouterId r = 0; r < routers; ++r) {
    const Shard& sh = shards_[static_cast<std::size_t>(
        n_shards_ == 1 ? 0 : shard_of_router_[static_cast<std::size_t>(r)])];
    const std::size_t qbase =
        static_cast<std::size_t>(r) * static_cast<std::size_t>(qwpr);
    std::uint64_t any = 0;
    for (PortIndex ip = 0; ip < radix_; ++ip) {
      for (VcIndex vc = 0; vc < vmax_; ++vc) {
        const std::int32_t bit = ip * vmax_ + vc;
        const bool set =
            (queue_active_[qbase + static_cast<std::size_t>(bit >> 6)] >>
             (bit & 63)) & 1;
        const std::int32_t size =
            q_[static_cast<std::size_t>(queue_index(r, ip, vc))].size;
        if (set != (size > 0)) return false;
        queued_packets += size;
      }
    }
    for (std::int32_t w = 0; w < qwpr; ++w) {
      any |= queue_active_[qbase + static_cast<std::size_t>(w)];
    }
    const std::int32_t rl = r - sh.r_lo;
    const bool rset =
        (sh.router_active[static_cast<std::size_t>(rl >> 6)] >> (rl & 63)) & 1;
    if (rset != (any != 0)) return false;
  }

  // (2) Each shard's timing wheel holds exactly one entry per non-empty
  // ring it owns, in the bucket of that ring's front arrival, and every
  // front is due this cycle or within the wheel's span.
  const std::size_t n_links = out_.size();
  std::vector<std::uint8_t> filed(n_links, 0);
  std::vector<std::size_t> entries(shards_.size(), 0);
  const auto window = static_cast<Cycle>(wheel_mask_ + 1);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::vector<std::int32_t>& wheel = shards_[s].wheel;
    for (std::size_t b = 0; b < wheel.size(); ++b) {
      for (std::int32_t l = wheel[b]; l >= 0;
           l = out_[static_cast<std::size_t>(l)].next) {
        const auto li = static_cast<std::size_t>(l);
        // A second filing (or a cycle in the chain) shows up here.
        if (li >= n_links || filed[li] != 0) return false;
        filed[li] = 1;
        ++entries[s];
        const Output& o = out_[li];
        if (o.ring_count == 0) return false;
        if (n_shards_ > 1 && static_cast<std::size_t>(link_owner_[li]) != s) {
          return false;
        }
        const Cycle arrival =
            ring_slab_[static_cast<std::size_t>(o.ring_offset + o.ring_head)]
                .arrival;
        if (arrival < now_ || arrival >= now_ + window) return false;
        if ((static_cast<std::uint64_t>(arrival) & wheel_mask_) != b) {
          return false;
        }
      }
    }
  }
  std::int64_t inflight_packets = 0;
  std::size_t nonempty = 0;
  for (std::size_t l = 0; l < n_links; ++l) {
    inflight_packets += out_[l].ring_count;
    if (out_[l].ring_count == 0) continue;
    ++nonempty;
    if (filed[l] == 0) return false;
    // Fault overlay: nothing may remain in flight on a down link (purged at
    // the fault event, never re-entered by the allocator filter).
    if (fault_on_ &&
        !health_.link_up(
            static_cast<RouterId>(l / static_cast<std::size_t>(radix_)),
            static_cast<PortIndex>(l % static_cast<std::size_t>(radix_)))) {
      return false;
    }
  }
  std::size_t filed_total = 0;
  for (const std::size_t e : entries) filed_total += e;
  if (filed_total != nonempty) return false;

  // (3) Pool accounting: every live packet sits in a queue, on a link, or
  // (sharded) in a kLinkSend handoff waiting in an outbox.
  // (4) Credit conservation: a credit counts the free slots of the queue it
  // guards — capacity minus packets queued there, minus packets on the link
  // or in a kLinkSend handoff toward it, minus freed slots whose kCredit
  // return still waits in an outbox.
  const std::size_t n_q = q_.size();
  std::vector<std::int32_t> toward(n_q, 0);   // per flat queue
  std::vector<std::int32_t> unreturned(n_q, 0);  // per credit slot
  for (std::size_t l = 0; l < n_links; ++l) {
    const Output& o = out_[l];
    for (std::int32_t k = 0; k < o.ring_count; ++k) {
      std::int32_t slot = o.ring_head + k;
      if (slot >= o.ring_cap) slot -= o.ring_cap;
      ++toward[static_cast<std::size_t>(
          ring_slab_[static_cast<std::size_t>(o.ring_offset + slot)]
              .down_queue)];
    }
  }
  std::int64_t pending_sends = 0;
  for (const Shard& sh : shards_) {
    for (const auto& box : sh.outbox) {
      for (const ShardMessage& m : box) {
        if (m.kind == ShardMessage::Kind::kLinkSend) {
          ++pending_sends;
          ++toward[static_cast<std::size_t>(m.queue)];
        } else if (m.kind == ShardMessage::Kind::kCredit) {
          ++unreturned[static_cast<std::size_t>(m.queue)];
        }
      }
    }
  }
  if (packets_in_network() !=
      queued_packets + inflight_packets + pending_sends) {
    return false;
  }
  for (std::size_t flat = 0; flat < n_links; ++flat) {
    const auto port = static_cast<PortIndex>(flat % static_cast<std::size_t>(
                                                        radix_));
    for (VcIndex vc = 0; vc < vmax_; ++vc) {
      const std::size_t slot =
          flat * static_cast<std::size_t>(vmax_) + static_cast<std::size_t>(vc);
      // Forward outputs guard their downstream queue; injection slots their
      // own queue (never in flight, credited locally).
      const std::size_t down =
          port < fwd_ ? static_cast<std::size_t>(out_[flat].down_base + vc)
                      : slot;
      const QueueRec& qr = q_[down];
      if (credit_[slot] !=
          qr.cap - qr.size - toward[down] - unreturned[slot]) {
        return false;
      }
    }
  }

  // (5) Lifetime packet conservation, drops included.
  return conservation_error() == 0;
}

}  // namespace dfsim
