// Active-set invariant suite: the engine's O(active) bookkeeping (queue
// occupancy bits + router summary mask + timing wheel + upstream credits +
// pool accounting) must exactly match a brute-force scan of the dense state
// on EVERY cycle — across all three topologies, under the skewed traffic
// that churns the sets hardest (hotspot destinations with a bursty on/off
// injection process), through the classic stale-active-list trap (drain
// the network to fully idle, then re-activate it), under flapping links
// (every down edge purges rings and rebuilds the wheel), and sharded.
//
// debug_check_active_state() performs the brute-force comparison; see
// engine/simulator.hpp. A stale bit (queue drained but still flagged, or
// flagged router with no occupied queue), a missing/duplicated/misfiled
// wheel entry, a credit that disagrees with its queue, or a leaked packet
// all fail the check.
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "engine/simulator.hpp"

namespace {

using namespace dfsim;

SimParams base_for(TopologyKind topo) {
  SimParams p;
  switch (topo) {
    case TopologyKind::kDragonfly:
      p = presets::tiny();
      break;
    case TopologyKind::kFbfly:
      p = presets::fbfly({4, 2, 4});
      break;
    case TopologyKind::kTorus:
      p = presets::torus({8, 2, 2});
      break;
  }
  return p;
}

const char* name_of(TopologyKind topo) {
  switch (topo) {
    case TopologyKind::kDragonfly: return "dragonfly";
    case TopologyKind::kFbfly: return "fbfly";
    case TopologyKind::kTorus: return "torus";
  }
  return "?";
}

int check_every_cycle(Simulator& sim, Cycle cycles, const char* what) {
  for (Cycle c = 0; c < cycles; ++c) {
    sim.step();
    if (!sim.debug_check_active_state()) {
      std::fprintf(stderr, "active-set mismatch: %s at cycle %lld\n", what,
                   static_cast<long long>(sim.now()));
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main() {
  for (const TopologyKind topo :
       {TopologyKind::kDragonfly, TopologyKind::kFbfly, TopologyKind::kTorus}) {
    // --- per-cycle equivalence under hotspot + bursty churn ---------------
    SimParams p = base_for(topo);
    p.routing.kind = RoutingKind::kCbBase;
    // Hot-set sizing keeps the per-hot-node demand just under the 1
    // phit/cycle ejection bound, so the drain below terminates quickly;
    // the saturated drain (slow, long) is covered in test_saturation.
    p.traffic.kind = TrafficKind::kHotspot;
    p.traffic.hotspot_count = 4;
    p.traffic.hotspot_fraction = 0.2;
    p.traffic.injection = InjectionProcess::kBursty;
    p.traffic.load = 0.25;
    p.seed = 31;
    Simulator sim(p);
    if (check_every_cycle(sim, 1500, name_of(topo))) return EXIT_FAILURE;
    assert(sim.metrics().delivered > 0);

    // --- drain to fully idle, then re-activate ----------------------------
    // A queue bit or wheel entry that survives the drain (the stale-active
    // state bug) either trips the brute-force check while idle or wrongly
    // schedules work on the first cycles after re-activation.
    TrafficParams off = p.traffic;
    off.load = 0.0;
    sim.set_traffic(off);
    // Generously past the longest in-flight latency at these scales.
    if (check_every_cycle(sim, 6000, "drain")) return EXIT_FAILURE;
    sim.begin_measurement();
    sim.run(50);
    // Fully idle: nothing generated, nothing delivered, no backlog.
    assert(sim.metrics().generated == 0);
    assert(sim.metrics().delivered == 0);
    assert(sim.backlog_per_node() == 0.0);
    assert(sim.debug_check_active_state());

    TrafficParams on = p.traffic;
    on.injection = InjectionProcess::kBernoulli;
    on.kind = TrafficKind::kUniform;
    on.load = 0.3;
    sim.set_traffic(on);
    sim.begin_measurement();
    if (check_every_cycle(sim, 1200, "re-activation")) return EXIT_FAILURE;
    // The network genuinely woke up: traffic flows end to end again.
    assert(sim.metrics().generated > 0);
    assert(sim.metrics().delivered > 0);
  }

  // --- flapping and degraded links, serial and sharded -------------------
  // Each down edge drops the packets in flight on the flapping links
  // (returning their credits, through kCredit messages when the upstream
  // router is another shard's) and rebuilds the timing wheel; degraded
  // links stretch arrivals toward the end of the wheel's span. The sharded
  // leg also carries every cross-shard link traversal and credit return.
  for (const std::int32_t threads : {1, 2}) {
    SimParams p = presets::tiny();
    p.routing.kind = RoutingKind::kCbBase;
    p.traffic.kind = TrafficKind::kUniform;
    p.traffic.load = 0.3;
    p.seed = 17;
    p.engine.threads = threads;
    p.fault.enabled = true;
    p.fault.onset = 200;
    p.fault.link_fail_fraction = 0.25;
    p.fault.flap_period = 120;
    p.fault.flap_down = 40;
    p.fault.degrade_fraction = 0.25;
    p.fault.degrade_latency = 45;
    Simulator sim(p);
    const char* what = threads == 1 ? "flapping links" : "flapping, 2 shards";
    if (check_every_cycle(sim, 1500, what)) return EXIT_FAILURE;
    assert(sim.shard_count() == threads);
    assert(sim.lifetime_totals().dropped > 0);  // purges really ran
    assert(sim.metrics().delivered > 0);
  }

  return EXIT_SUCCESS;
}
