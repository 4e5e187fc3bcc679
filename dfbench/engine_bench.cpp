// Engine workloads: a Simulator driven through its public API — timed
// construction, an untimed warmup whose second half is the pinned simulated
// fingerprint, then a timed window of fixed-size run(k) chunks.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "engine/simulator.hpp"
#include "sim/config.hpp"
#include "telemetry/phase_profiler.hpp"

namespace dfbench {
namespace {

using dfsim::Cycle;
using dfsim::RoutingKind;
using dfsim::SimParams;
using dfsim::Simulator;
using dfsim::TrafficKind;

/// An engine configuration; `threads` is the shard count of the timed run,
/// pinned here and never read from the host.
struct EngineConfig {
  const char* workload;
  const char* scale;
  RoutingKind routing;
  TrafficKind traffic;
  std::int32_t threads;
  /// Cycles per timed run() call: ~15 ms (UN serial) / ~9 ms (ADV, 2
  /// shards) per chunk at paper scale, ~0.15 ms at tiny scale.
  Cycle chunk;
};

// registry_tiny has no timed engine run; its traced run profiles the
// registry's typical point (tiny Base/UN) so every per-layer metric exists.
constexpr EngineConfig kConfigs[] = {
    {"paper_un_base", "paper", RoutingKind::kCbBase, TrafficKind::kUniform, 1,
     5},
    {"paper_adv_ectn_t2", "paper", RoutingKind::kCbEctn,
     TrafficKind::kAdversarial, 2, 5},
    {"registry_tiny", "tiny", RoutingKind::kCbBase, TrafficKind::kUniform, 1,
     50},
};

constexpr double kLoad = 0.3;
/// Untimed warmup; its second half is the fingerprint window. Past it the
/// paper-scale runs make no further allocation (outbox growth ends by ~300).
constexpr Cycle kWarmup = 1000;
constexpr int kSetupReps = 7;
/// Delivery-free cycles that count as a stall.
constexpr Cycle kStallCycles = 500;
/// p90 needs at least 10 samples beyond it.
constexpr std::size_t kMinChunks = 100;
/// The traced run's legs take turns of this length, so a drift in host speed
/// hits every leg alike and the ratios between legs (shard speed-up, tracing
/// overhead) stay meaningful.
constexpr double kTurnSeconds = 0.5;

const EngineConfig& config_for(const std::string& workload) {
  for (const EngineConfig& c : kConfigs) {
    if (workload == c.workload) return c;
  }
  throw std::invalid_argument("no engine config for workload " + workload);
}

SimParams params_for(const EngineConfig& c, std::uint64_t seed,
                     std::int32_t threads) {
  SimParams p = dfsim::presets::by_name(c.scale);
  p.routing.kind = c.routing;
  p.traffic.kind = c.traffic;
  p.traffic.adv_offset = 1;
  p.traffic.load = kLoad;
  p.seed = seed;
  p.engine.threads = threads;
  return p;
}

struct Fingerprint {
  std::int64_t delivered = 0;
  std::int64_t generated = 0;
  double latency_sum = 0.0;
  std::int64_t misrouted = 0;

  [[nodiscard]] Json to_json() const {
    Json j = Json::object();
    j.set("delivered", delivered);
    j.set("generated", generated);
    j.set("latency_sum", latency_sum);
    j.set("misrouted", misrouted);
    return j;
  }
  [[nodiscard]] bool operator==(const Fingerprint&) const = default;
};

/// One constructed, warmed simulator and its timed window, which may be
/// extended in several turns.
struct Leg {
  std::unique_ptr<Simulator> sim;
  std::vector<double> setup_s;
  double rss_after_setup_mb = 0.0;
  Fingerprint fingerprint;
  std::int64_t fingerprint_dead_hops = 0;

  Cycle cycles = 0;
  double seconds = 0.0;          // summed chunk time
  std::vector<double> cycle_ms;  // host ms per simulated cycle, per chunk
  std::int64_t events_before = 0;
  Cycle stall = 0;
  Cycle longest_stall = 0;

  /// Runs chunks for `turn_s` seconds, and at least until `min_chunks` are
  /// timed in all.
  void extend(Cycle chunk, double turn_s, std::size_t min_chunks) {
    const Clock::time_point start = Clock::now();
    while (seconds_since(start) < turn_s || cycle_ms.size() < min_chunks) {
      const std::int64_t delivered_before = sim->lifetime_totals().delivered;
      const Clock::time_point chunk_start = Clock::now();
      sim->run(chunk);
      const double s = seconds_since(chunk_start);
      seconds += s;
      cycle_ms.push_back(s * 1e3 / static_cast<double>(chunk));
      cycles += chunk;
      stall = sim->lifetime_totals().delivered == delivered_before
                  ? stall + chunk
                  : 0;
      longest_stall = std::max(longest_stall, stall);
    }
  }
  [[nodiscard]] double cycles_per_s() const {
    return static_cast<double>(cycles) / seconds;
  }
};

/// Constructs `setup_reps` times (keeping the last), warms up, records the
/// fingerprint and opens the timed window.
Leg prepare(const SimParams& params, int setup_reps) {
  Leg leg;
  for (int rep = 0; rep < setup_reps; ++rep) {
    leg.sim.reset();  // one simulator alive at a time: peak RSS stays honest
    const Clock::time_point start = Clock::now();
    leg.sim = std::make_unique<Simulator>(params);
    leg.setup_s.push_back(seconds_since(start));
  }
  leg.rss_after_setup_mb = proc_status_mb("VmRSS");
  Simulator& sim = *leg.sim;
  sim.run(kWarmup / 2);
  sim.begin_measurement();
  sim.run(kWarmup - kWarmup / 2);
  const Simulator::Metrics& m = sim.metrics();
  leg.fingerprint = {m.delivered, m.generated, m.latency_sum, m.misrouted};
  leg.fingerprint_dead_hops = m.dead_link_hops;
  leg.events_before = sim.allocation_events();
  sim.begin_measurement();
  return leg;
}

/// Runs every invariant check on a finished leg, plus the pinned fingerprint
/// for the reference seed; returns the leg's detail record.
Json check_leg(const Options& options, const EngineConfig& config,
               const Leg& leg, Outcome& out) {
  const Simulator& sim = *leg.sim;
  const Simulator::Metrics& m = sim.metrics();
  const std::int64_t alloc_events = sim.allocation_events() - leg.events_before;
  const std::size_t failures_before = out.failures.size();
  const std::string name = std::string(config.workload) + "/t" +
                           std::to_string(sim.params().engine.threads);
  Json rec = Json::object();
  rec.set("leg", name);
  rec.set("cycles", static_cast<std::int64_t>(leg.cycles));
  rec.set("seconds", leg.seconds);
  rec.set("delivered", m.delivered);
  rec.set("chunks", static_cast<std::int64_t>(leg.cycle_ms.size()));
  rec.set("fingerprint", leg.fingerprint.to_json());

  out.check(sim.conservation_error() == 0, name + ": conservation_error != 0");
  out.check(leg.fingerprint_dead_hops == 0 && m.dead_link_hops == 0,
            name + ": dead_link_hops != 0");
  out.check(leg.longest_stall < kStallCycles,
            name + ": no deliveries for " +
                std::to_string(leg.longest_stall) + " cycles");
  out.check(alloc_events == 0, name + ": " + std::to_string(alloc_events) +
                                   " allocation events in the timed window");
  out.check(m.delivered > 0, name + ": nothing delivered in the timed window");

  // The fingerprint is pinned per (workload, shard count) for the reference
  // seed; other seeds are held out.
  if (options.seed != kReferenceSeed) {
    rec.set("fingerprint_check", "skipped (held-out seed)");
  } else {
    const Json reference = read_json_file(options.reference_path);
    const Json* pinned = reference.get("fingerprints").find(name);
    bool match = false;
    if (pinned != nullptr &&
        static_cast<Cycle>(reference.get_number("warmup")) == kWarmup) {
      const Fingerprint expected{
          static_cast<std::int64_t>(pinned->get_number("delivered")),
          static_cast<std::int64_t>(pinned->get_number("generated")),
          pinned->get_number("latency_sum"),
          static_cast<std::int64_t>(pinned->get_number("misrouted"))};
      match = expected == leg.fingerprint;
    }
    rec.set("fingerprint_check", match ? "match" : "MISMATCH");
    out.check(match, name + ": simulated fingerprint differs from reference");
  }
  // A failed check fails every chunk of the leg: its timings are void.
  out.attempted += static_cast<std::int64_t>(leg.cycle_ms.size());
  if (out.failures.size() > failures_before) {
    out.failed += static_cast<std::int64_t>(leg.cycle_ms.size());
  }
  return rec;
}

/// Smoke runs time only the minimum chunk count.
double window_seconds(const Options& options, double full) {
  return options.smoke ? 0.0 : full;
}

}  // namespace

void trace_engine(const Options& options, Outcome& out) {
  const EngineConfig& config = config_for(options.workload);
  // Four legs share the run; per-layer metrics carry no bound.
  const double leg_s = window_seconds(options, options.seconds / 4.0);

  // legs[0] is profiled (the profiler is serial-only); legs[1..3] are the
  // unprofiled 1/2/4-shard legs of the same config.
  const std::int32_t shard_counts[] = {1, 1, 2, 4};
  std::vector<Leg> legs;
  for (const std::int32_t shards : shard_counts) {
    legs.push_back(prepare(params_for(config, options.seed, shards), 1));
  }
  legs[0].sim->enable_phase_profiler();  // resets: the timed window only
  for (bool pending = true; pending;) {
    pending = false;
    for (Leg& leg : legs) {
      if (leg.seconds < leg_s) {
        leg.extend(config.chunk, kTurnSeconds, 0);
        pending = true;
      }
    }
  }
  Json records = Json::array();
  for (Leg& leg : legs) {
    leg.extend(config.chunk, 0.0, kMinChunks);
    records.push_back(check_leg(options, config, leg, out));
  }

  const Leg& prof = legs[0];
  const dfsim::telemetry::PhaseProfiler& profiler = prof.sim->phase_profiler();
  const auto per_cycle = [&](dfsim::telemetry::Phase phase) {
    return static_cast<double>(profiler.nanoseconds(phase)) /
           static_cast<double>(profiler.cycles());
  };
  using dfsim::telemetry::Phase;
  out.metric("engine.deliver_ns_per_cycle", per_cycle(Phase::kDeliver), "ns");
  out.metric("engine.route_ns_per_cycle", per_cycle(Phase::kRoute), "ns");
  out.metric("engine.faults_ns_per_cycle", per_cycle(Phase::kFaults), "ns");
  out.metric("engine.telemetry_ns_per_cycle", per_cycle(Phase::kTelemetry),
             "ns");
  out.metric("traffic.inject_ns_per_cycle", per_cycle(Phase::kInject), "ns");
  out.metric("routing.update_ns_per_cycle", per_cycle(Phase::kEctn), "ns");
  out.metric("engine.alloc_events_measure",
             static_cast<double>(prof.sim->allocation_events() -
                                 prof.events_before),
             "count");
  out.metric("engine.rss_after_setup_mb", prof.rss_after_setup_mb, "MB");
  // Deterministic count over the fixed fingerprint window, with its base.
  const Fingerprint& fp = prof.fingerprint;
  out.metric("routing.misrouted_share",
             fp.delivered > 0 ? static_cast<double>(fp.misrouted) /
                                    static_cast<double>(fp.delivered)
                              : 0.0,
             "share");
  Json share = Json::object();
  share.set("misrouted", fp.misrouted);
  share.set("delivered", fp.delivered);
  out.record.set("misrouted_share_base", std::move(share));

  const double serial = legs[1].cycles_per_s();
  out.metric("engine.cycles_per_s_t1", serial, "1/s");
  out.metric("engine.shard_speedup_t2", legs[2].cycles_per_s() / serial,
             "ratio");
  out.metric("engine.shard_speedup_t4", legs[3].cycles_per_s() / serial,
             "ratio");
  out.metric("trace.cycles_per_s_traced", prof.cycles_per_s(), "1/s");
  out.metric("trace.overhead_share", 1.0 - prof.cycles_per_s() / serial,
             "share");
  out.record.set("engine_legs", std::move(records));
}

bool is_engine_workload(const std::string& name) {
  return name == kConfigs[0].workload || name == kConfigs[1].workload;
}

Outcome run_engine_workload(const Options& options) {
  Outcome out;
  const Clock::time_point start = Clock::now();
  const EngineConfig& config = config_for(options.workload);
  Leg leg = prepare(params_for(config, options.seed, config.threads),
                    kSetupReps);
  leg.extend(config.chunk, window_seconds(options, options.seconds),
             kMinChunks);
  Json record = check_leg(options, config, leg, out);
  const double wall = seconds_since(start);

  out.metric("setup_s", median(leg.setup_s), "s");
  out.metric("wall_s", wall, "s");
  out.metric("cycles_per_s", leg.cycles_per_s(), "1/s");
  out.metric("ns_per_packet",
             leg.seconds * 1e9 /
                 static_cast<double>(
                     std::max<std::int64_t>(leg.sim->metrics().delivered, 1)),
             "ns");
  out.metric("cycle_ms_p50", quantile(leg.cycle_ms, 0.50), "ms");
  out.metric("cycle_ms_p90", quantile(leg.cycle_ms, 0.90), "ms");
  out.metric("peak_rss_mb", proc_status_mb("VmHWM"), "MB");

  Json setup = Json::array();
  for (const double s : leg.setup_s) setup.push_back(s);
  record.set("setup_samples_s", std::move(setup));
  record.set("cycles_per_chunk", static_cast<std::int64_t>(config.chunk));
  record.set("rss_after_setup_mb", leg.rss_after_setup_mb);
  Json records = Json::array();
  records.push_back(std::move(record));
  out.record.set("engine_legs", std::move(records));
  return out;
}

}  // namespace dfbench
