// End-to-end simulator sanity at tiny scale: conservation, routing-mechanism
// invariants (MIN never misroutes, VAL always does), throughput under light
// load, adversarial behavior ordering, the transient driver, and the
// no-progress watchdog of the guarded run.
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/experiment.hpp"
#include "engine/simulator.hpp"
#include "engine/sweep.hpp"

namespace {

dfsim::SteadyResult steady(dfsim::RoutingKind kind, dfsim::TrafficKind traffic,
                           double load) {
  dfsim::SimParams p = dfsim::presets::tiny();
  p.routing.kind = kind;
  p.traffic.kind = traffic;
  p.traffic.load = load;
  p.traffic.adv_offset = 1;
  dfsim::SteadyOptions opt;
  opt.warmup = 1500;
  opt.measure = 2000;
  return dfsim::run_steady(p, opt);
}

// Index-width limits that Release builds would otherwise not check: the
// constructor must refuse such shapes up front, before the per-queue
// tables are allocated.
void check_construction_limits() {
  using namespace dfsim;
  const auto refused = [](const SimParams& p) {
    try {
      const Simulator sim(p);
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  // Queue capacities are int16 in the packed queue record.
  SimParams long_queue = presets::tiny();
  long_queue.router.injection_queue_packets = 40000;
  assert(refused(long_queue));
  long_queue.router.injection_queue_packets = 32767;
  assert(!refused(long_queue));
  // Paper shape with 32767-packet local buffers: every queue fits int16,
  // but the network holds ~3.0G slots, past int32 packet ids.
  SimParams deep = presets::paper();
  deep.router.buf_local_phits = 32767 * deep.packet_size_phits;
  assert(refused(deep));
  std::printf("construction limits ok\n");
}

}  // namespace

// The watchdog on a wedged network: ADV+1 under MIN with every global link
// dead, so no packet can reach its destination group and none is delivered.
void check_watchdog() {
  using namespace dfsim;
  SimParams wedge = presets::with_link_faults(presets::tiny(), 1.0, "global");
  wedge.routing.kind = RoutingKind::kMin;
  wedge.traffic.kind = TrafficKind::kAdversarial;
  wedge.traffic.adv_offset = 1;
  wedge.traffic.load = 0.3;

  std::vector<Cycle> beats;
  SteadyOptions opt;
  opt.warmup = 300;
  opt.measure = 1200;
  opt.progress_window = 500;
  opt.heartbeat = [&beats](Cycle now, std::int64_t, double) {
    beats.push_back(now);
  };

  // A grid cell reports the stall. The 300-cycle warmup is shorter than a
  // window; the measure segment's first full window (to cycle 800) delivers
  // nothing, and the run steps no further.
  assert(run_steady(wedge, opt).timed_out == 1.0);
  assert((beats == std::vector<Cycle>{300, 800}));

  // A healthy run never trips it and beats once per chunk of each segment.
  beats.clear();
  SimParams healthy = presets::tiny();
  healthy.traffic.load = 0.3;
  assert(run_steady(healthy, opt).timed_out == 0.0);
  assert((beats == std::vector<Cycle>{300, 800, 1300, 1500}));

  // A transient has no partial result to report: the stall throws, naming
  // the run and the cycle (warmup 300 + pre 10 + one 500-cycle window).
  TransientOptions topt;
  topt.before = wedge.traffic;
  topt.after = wedge.traffic;
  topt.pre = 10;
  topt.post = 10;
  topt.drain = 1000;
  bool threw = false;
  try {
    (void)run_transient(wedge, opt, topt, "wedge");
  } catch (const std::runtime_error& e) {
    threw = std::string(e.what()).rfind("wedge: stalled at cycle 810: ", 0) == 0;
  }
  assert(threw);
}

int main() {
  using namespace dfsim;

  check_construction_limits();
  check_watchdog();

  // Light uniform load: every mechanism must deliver close to offered load
  // with sane latencies.
  for (const RoutingKind kind :
       {RoutingKind::kMin, RoutingKind::kValiant, RoutingKind::kUgalL,
        RoutingKind::kPiggyback, RoutingKind::kOlm, RoutingKind::kCbBase,
        RoutingKind::kCbHybrid, RoutingKind::kCbEctn}) {
    const SteadyResult r = steady(kind, TrafficKind::kUniform, 0.2);
    if (r.throughput < 0.15 || r.latency_avg <= 0.0) {
      std::fprintf(stderr, "kind=%s throughput=%.3f latency=%.1f\n",
                   to_string(kind).c_str(), r.throughput, r.latency_avg);
      return EXIT_FAILURE;
    }
    assert(r.backlog_per_node < 4.0);
  }

  // MIN is always fully minimal; VAL misroutes (essentially) all
  // inter-group packets.
  {
    const SteadyResult min = steady(RoutingKind::kMin, TrafficKind::kUniform, 0.2);
    assert(min.misrouted_fraction == 0.0);
    assert(min.minimal_path_fraction == 1.0);
    const SteadyResult val =
        steady(RoutingKind::kValiant, TrafficKind::kAdversarial, 0.2);
    assert(val.misrouted_fraction > 0.9);
    // VAL pays extra hops: strictly higher latency than MIN under UN.
    const SteadyResult val_un =
        steady(RoutingKind::kValiant, TrafficKind::kUniform, 0.2);
    assert(val_un.latency_avg > min.latency_avg);
  }

  // Adversarial traffic: MIN collapses onto the single inter-group link
  // (huge backlog), while Base and VAL keep delivering.
  {
    const SteadyResult min =
        steady(RoutingKind::kMin, TrafficKind::kAdversarial, 0.35);
    const SteadyResult base =
        steady(RoutingKind::kCbBase, TrafficKind::kAdversarial, 0.35);
    const SteadyResult val =
        steady(RoutingKind::kValiant, TrafficKind::kAdversarial, 0.35);
    assert(min.backlog_per_node > 4.0);  // saturated
    if (!(base.throughput > 1.5 * min.throughput)) {
      std::fprintf(stderr, "ADV: base=%.3f min=%.3f val=%.3f\n",
                   base.throughput, min.throughput, val.throughput);
      return EXIT_FAILURE;
    }
    // Base misroutes most adversarial traffic once counters trigger.
    assert(base.misrouted_fraction > 0.3);
  }

  // Transient driver: birth-bucketed stats exist on both sides of the
  // switch, and counter-based misrouting ramps up after it.
  {
    SimParams p = presets::tiny();
    p.routing.kind = RoutingKind::kCbBase;
    TransientOptions topt;
    topt.before.kind = TrafficKind::kUniform;
    topt.before.load = 0.2;
    topt.after.kind = TrafficKind::kAdversarial;
    topt.after.adv_offset = 1;
    topt.after.load = 0.2;
    topt.pre = 40;
    topt.post = 200;
    SteadyOptions opt;
    opt.warmup = 1000;
    opt.reps = 2;
    const TransientResult res = run_transient(p, opt, topt, "Base");
    assert(res.at(-20, 20).latency > 0.0);
    assert(res.at(150, 40).latency > 0.0);
    const double mis_before = res.at(-20, 20).misrouted_pct;
    const double mis_after = res.at(150, 40).misrouted_pct;
    if (!(mis_after > mis_before + 20.0)) {
      std::fprintf(stderr, "transient: mis before=%.1f after=%.1f\n",
                   mis_before, mis_after);
      return EXIT_FAILURE;
    }
  }

  // Sweep engine: results come back in order and match serial runs.
  {
    SimParams p = presets::tiny();
    SteadyOptions opt;
    opt.warmup = 400;
    opt.measure = 600;
    std::vector<SimParams> points;
    for (const double load : {0.1, 0.3}) {
      points.push_back(p);
      points.back().traffic.load = load;
    }
    const auto parallel = run_sweep(points, opt, 2);
    const auto serial0 = run_steady(points[0], opt);
    const auto serial1 = run_steady(points[1], opt);
    assert(parallel.size() == 2);
    assert(parallel[0].throughput == serial0.throughput);
    assert(parallel[1].throughput == serial1.throughput);
    assert(parallel[0].latency_avg == serial0.latency_avg);
    assert(parallel[1].latency_avg == serial1.latency_avg);
  }

  // Multi-rep quantiles come from the POOLED latency histogram, not from
  // averaging per-rep quantiles (the mean of p99s is not the p99 of the
  // combined sample). Reproduce run_steady's reps by hand, merge the
  // histograms, and check the driver reports the merged order statistics.
  {
    SimParams p = presets::tiny();
    p.routing.kind = RoutingKind::kCbBase;
    p.traffic.kind = TrafficKind::kAdversarial;
    p.traffic.adv_offset = 1;
    p.traffic.load = 0.30;  // near saturation: rep-to-rep tails differ
    p.seed = 3;
    SteadyOptions opt;
    opt.warmup = 400;
    opt.measure = 800;
    opt.reps = 3;

    LatencyHistogram pooled;
    double mean_of_p99 = 0.0;
    for (std::int32_t rep = 0; rep < opt.reps; ++rep) {
      SimParams q = p;
      q.seed = p.seed + static_cast<std::uint64_t>(rep) * 7919u;
      Simulator sim(q);
      sim.run(opt.warmup);
      sim.begin_measurement();
      sim.run(opt.measure);
      pooled.merge(sim.metrics().latency_hist);
      mean_of_p99 += sim.metrics().latency_hist.quantile(0.99);
    }
    mean_of_p99 /= static_cast<double>(opt.reps);

    const SteadyResult r = run_steady(p, opt);
    assert(r.latency_p50 == pooled.quantile(0.50));
    assert(r.latency_p95 == pooled.quantile(0.95));
    assert(r.latency_p99 == pooled.quantile(0.99));
    // The old mean-of-quantiles aggregation genuinely differed here.
    assert(r.latency_p99 != mean_of_p99);
  }

  return EXIT_SUCCESS;
}
