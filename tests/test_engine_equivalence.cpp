// Engine-unification equivalence suite.
//
// (1) Golden metrics: the engine must reproduce these numbers *bit-exactly*
//     for fixed seeds — every routing mechanism, uniform and adversarial,
//     on the tiny dragonfly, the 4-ary 2-flat and the 8-ary 2-cube (seed
//     12345, warmup 800, measure 1200, load 0.3, ADV+1), plus a faulted
//     row per grid topology; double equality is intentional. The table pins
//     the whole chain (traffic draws, routing draws, iteration order, grant
//     order), so ANY engine restructure must keep it green unchanged; only
//     a deliberate behavior change may regenerate it (run with --print).
// (2) Flattened butterfly on the unified engine: the Section VI-D ordering
//     survives the move off the forked output-queued simulator.
// (3) Torus: minimal routes take the shorter ring direction, the
//     dateline x phase VC schedule stays in range and is deadlock-free in
//     practice (forward progress for the whole line-up under tornado at 2x
//     the ring cap).
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "engine/experiment.hpp"
#include "engine/simulator.hpp"
#include "topo/torus.hpp"

namespace {

using namespace dfsim;

struct Golden {
  TopologyKind topology;
  RoutingKind kind;
  TrafficKind traffic;
  bool faults;  // 10% of the local-class links dead from cycle 0
  double throughput;
  double latency_avg;
  double misrouted_fraction;
  double backlog_per_node;
};

// Captured from the active-set engine after the distinct-candidate
// sampling fix (pick_misroute_channel enumerates pools <= 4 and samples
// without replacement above that); regenerate with `--print` after any
// further DELIBERATE behavior change only (ARCHITECTURE.md bit-exactness
// rule). MIN/VAL rows are identical to the original seed-engine capture —
// they never score candidates — which pins the mechanisms that must not
// move. The fbfly/torus rows pin the grid topologies' candidate draws; the
// faulted VAL and Base rows also pin the candidate_usable filter and the
// Valiant retry budget.
const Golden kGolden[] = {
    {TopologyKind::kDragonfly, RoutingKind::kMin, TrafficKind::kUniform, false, 0.30435185185185187, 74.019166413142685, 0, 0.027777777777777776},
    {TopologyKind::kDragonfly, RoutingKind::kMin, TrafficKind::kAdversarial, false, 0.125, 748.87407407407409, 0, 42.166666666666664},
    {TopologyKind::kDragonfly, RoutingKind::kValiant, TrafficKind::kUniform, false, 0.30314814814814817, 128.73946243127673, 0.90134392180818568, 0.25},
    {TopologyKind::kDragonfly, RoutingKind::kValiant, TrafficKind::kAdversarial, false, 0.30074074074074075, 136.39593596059115, 1, 0.20833333333333334},
    {TopologyKind::kDragonfly, RoutingKind::kUgalL, TrafficKind::kUniform, false, 0.30435185185185187, 74.408883480377241, 0.0066930331609370243, 0.027777777777777776},
    {TopologyKind::kDragonfly, RoutingKind::kUgalL, TrafficKind::kAdversarial, false, 0.25944444444444442, 224.40328336902212, 0.51713062098501072, 9.4444444444444446},
    {TopologyKind::kDragonfly, RoutingKind::kUgalG, TrafficKind::kUniform, false, 0.30462962962962964, 75.295744680851058, 0.032522796352583587, 0.055555555555555552},
    {TopologyKind::kDragonfly, RoutingKind::kUgalG, TrafficKind::kAdversarial, false, 0.28629629629629627, 179.19307891332471, 0.56468305304010347, 4.0694444444444446},
    {TopologyKind::kDragonfly, RoutingKind::kPiggyback, TrafficKind::kUniform, false, 0.30435185185185187, 74.408883480377241, 0.0066930331609370243, 0.027777777777777776},
    {TopologyKind::kDragonfly, RoutingKind::kPiggyback, TrafficKind::kAdversarial, false, 0.25944444444444442, 224.40328336902212, 0.51713062098501072, 9.4444444444444446},
    {TopologyKind::kDragonfly, RoutingKind::kOlm, TrafficKind::kUniform, false, 0.30481481481481482, 75.995139732685303, 0, 0.027777777777777776},
    {TopologyKind::kDragonfly, RoutingKind::kOlm, TrafficKind::kAdversarial, false, 0.27861111111111109, 223.48886673313393, 0.5503489531405783, 6.9722222222222223},
    {TopologyKind::kDragonfly, RoutingKind::kCbBase, TrafficKind::kUniform, false, 0.30435185185185187, 74.040766656525705, 0.00060845756008518403, 0.027777777777777776},
    {TopologyKind::kDragonfly, RoutingKind::kCbBase, TrafficKind::kAdversarial, false, 0.29351851851851851, 179.31703470031545, 0.65015772870662458, 2.2361111111111112},
    {TopologyKind::kDragonfly, RoutingKind::kCbHybrid, TrafficKind::kUniform, false, 0.30444444444444446, 74.022506082725059, 0.0021289537712895377, 0.027777777777777776},
    {TopologyKind::kDragonfly, RoutingKind::kCbHybrid, TrafficKind::kAdversarial, false, 0.30009259259259258, 146.72601049058932, 0.63930885529157666, 0.43055555555555558},
    {TopologyKind::kDragonfly, RoutingKind::kCbEctn, TrafficKind::kUniform, false, 0.30435185185185187, 74.040766656525705, 0.00060845756008518403, 0.027777777777777776},
    {TopologyKind::kDragonfly, RoutingKind::kCbEctn, TrafficKind::kAdversarial, false, 0.30129629629629628, 169.52397049784881, 0.67363245236631841, 1.2916666666666667},
    {TopologyKind::kFbfly, RoutingKind::kMin, TrafficKind::kUniform, false, 0.29950520833333333, 10.341578993131032, 0, 0.109375},
    {TopologyKind::kFbfly, RoutingKind::kMin, TrafficKind::kAdversarial, false, 0.25, 245.94677083333335, 0, 101.203125},
    {TopologyKind::kFbfly, RoutingKind::kValiant, TrafficKind::kUniform, false, 0.29928385416666664, 24.103589297367847, 0.95309984772677836, 0.875},
    {TopologyKind::kFbfly, RoutingKind::kValiant, TrafficKind::kAdversarial, false, 0.30024739583333332, 34.952903421657489, 1, 2.78125},
    {TopologyKind::kFbfly, RoutingKind::kUgalL, TrafficKind::kUniform, false, 0.29950520833333333, 10.547343709242675, 0.023302321537257628, 0.125},
    {TopologyKind::kFbfly, RoutingKind::kUgalL, TrafficKind::kAdversarial, false, 0.30014322916666669, 18.135568955793676, 0.46917704221075007, 0.96875},
    {TopologyKind::kFbfly, RoutingKind::kUgalG, TrafficKind::kUniform, false, 0.29962239583333333, 10.809916996219199, 0.086697666333492671, 0.09375},
    {TopologyKind::kFbfly, RoutingKind::kUgalG, TrafficKind::kAdversarial, false, 0.29903645833333331, 23.054079944265435, 0.52011669424366458, 1.546875},
    {TopologyKind::kFbfly, RoutingKind::kPiggyback, TrafficKind::kUniform, false, 0.29947916666666669, 10.557739130434783, 0.024217391304347826, 0.140625},
    {TopologyKind::kFbfly, RoutingKind::kPiggyback, TrafficKind::kAdversarial, false, 0.30014322916666669, 18.135568955793676, 0.46917704221075007, 0.96875},
    {TopologyKind::kFbfly, RoutingKind::kOlm, TrafficKind::kUniform, false, 0.29950520833333333, 10.341578993131032, 0, 0.109375},
    {TopologyKind::kFbfly, RoutingKind::kOlm, TrafficKind::kAdversarial, false, 0.25, 245.94677083333335, 0, 101.203125},
    {TopologyKind::kFbfly, RoutingKind::kCbBase, TrafficKind::kUniform, false, 0.29950520833333333, 10.342100686896792, 4.3474480479958267e-05, 0.109375},
    {TopologyKind::kFbfly, RoutingKind::kCbBase, TrafficKind::kAdversarial, false, 0.29997395833333335, 26.716815695806929, 0.3405677576178488, 1.984375},
    {TopologyKind::kFbfly, RoutingKind::kValiant, TrafficKind::kAdversarial, true, 0, 0, 0, 494.03125},
    {TopologyKind::kFbfly, RoutingKind::kCbBase, TrafficKind::kAdversarial, true, 0.042877604166666666, 12.499240813847555, 0.41907075614940781, 400.21875},
    {TopologyKind::kTorus, RoutingKind::kMin, TrafficKind::kUniform, false, 0.26322265625000002, 111.83381563651653, 0, 65.5546875},
    {TopologyKind::kTorus, RoutingKind::kMin, TrafficKind::kAdversarial, false, 0.29926432291666666, 7.3748123653925646, 0, 0.1015625},
    {TopologyKind::kTorus, RoutingKind::kValiant, TrafficKind::kUniform, false, 0.13849609374999999, 560.35519202745263, 0.99308983218163871, 304.375},
    {TopologyKind::kTorus, RoutingKind::kValiant, TrafficKind::kAdversarial, false, 0.11259765625, 805.597629372651, 1, 351.0859375},
    {TopologyKind::kTorus, RoutingKind::kUgalL, TrafficKind::kUniform, false, 0.22740234375000001, 132.13089409945891, 0.16559306020785022, 94.78125},
    {TopologyKind::kTorus, RoutingKind::kUgalL, TrafficKind::kAdversarial, false, 0.29476562499999998, 31.551064581676826, 0.3261551373796272, 5.109375},
    {TopologyKind::kTorus, RoutingKind::kUgalG, TrafficKind::kUniform, false, 0.29863932291666667, 32.810294085587842, 0.11626081838198427, 1.109375},
    {TopologyKind::kTorus, RoutingKind::kUgalG, TrafficKind::kAdversarial, false, 0.29930989583333334, 13.764214556053421, 0.15378257275851567, 0.3125},
    {TopologyKind::kTorus, RoutingKind::kPiggyback, TrafficKind::kUniform, false, 0.17680989583333334, 267.06105015096841, 0.66728035937845198, 193.2421875},
    {TopologyKind::kTorus, RoutingKind::kPiggyback, TrafficKind::kAdversarial, false, 0.29476562499999998, 31.551064581676826, 0.3261551373796272, 5.109375},
    {TopologyKind::kTorus, RoutingKind::kOlm, TrafficKind::kUniform, false, 0.22141276041666666, 114.02314093328236, 0.082713399394277992, 105.3828125},
    {TopologyKind::kTorus, RoutingKind::kOlm, TrafficKind::kAdversarial, false, 0.29926432291666666, 7.3748123653925646, 0, 0.1015625},
    {TopologyKind::kTorus, RoutingKind::kCbBase, TrafficKind::kUniform, false, 0.1612890625, 415.23310728990072, 0.6015177201905223, 238.5234375},
    {TopologyKind::kTorus, RoutingKind::kCbBase, TrafficKind::kAdversarial, false, 0.09923177083333333, 746.01384332764724, 1, 347.3359375},
    {TopologyKind::kTorus, RoutingKind::kValiant, TrafficKind::kAdversarial, true, 6.5104166666666666e-05, 1175.8, 1, 512},
    {TopologyKind::kTorus, RoutingKind::kCbBase, TrafficKind::kAdversarial, true, 0.0046940104166666666, 8.140083217753121, 0.0013869625520110957, 502.140625},
};

const char* enum_name(RoutingKind kind) {
  switch (kind) {
    case RoutingKind::kMin: return "kMin";
    case RoutingKind::kValiant: return "kValiant";
    case RoutingKind::kUgalL: return "kUgalL";
    case RoutingKind::kUgalG: return "kUgalG";
    case RoutingKind::kPiggyback: return "kPiggyback";
    case RoutingKind::kOlm: return "kOlm";
    case RoutingKind::kCbBase: return "kCbBase";
    case RoutingKind::kCbHybrid: return "kCbHybrid";
    case RoutingKind::kCbEctn: return "kCbEctn";
    case RoutingKind::kArn: return "kArn";
  }
  return "?";
}

const char* enum_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kDragonfly: return "kDragonfly";
    case TopologyKind::kFbfly: return "kFbfly";
    case TopologyKind::kTorus: return "kTorus";
  }
  return "?";
}

SteadyResult run_point(TopologyKind topo, RoutingKind kind,
                       TrafficKind traffic, double load, int adv_offset,
                       bool faults = false) {
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
  p.routing.kind = kind;
  p.traffic.kind = traffic;
  p.traffic.load = load;
  p.traffic.adv_offset = adv_offset;
  p.seed = 12345;
  if (faults) p = presets::with_link_faults(p, 0.1, "local");
  SteadyOptions opt;
  opt.warmup = 800;
  opt.measure = 1200;
  return run_steady(p, opt);
}

}  // namespace

int main(int argc, char** argv) {
  // Regeneration mode (deliberate behavior changes ONLY — see the
  // bit-exactness rule in ARCHITECTURE.md): prints the kGolden table for
  // pasting back into this file.
  if (argc > 1 && std::string_view(argv[1]) == "--print") {
    for (const Golden& g : kGolden) {
      const SteadyResult r =
          run_point(g.topology, g.kind, g.traffic, 0.3, 1, g.faults);
      std::printf("    {TopologyKind::%s, RoutingKind::%s, TrafficKind::k%s, "
                  "%s, %.17g, %.17g, %.17g, %.17g},\n",
                  enum_name(g.topology), enum_name(g.kind),
                  g.traffic == TrafficKind::kUniform ? "Uniform"
                                                     : "Adversarial",
                  g.faults ? "true" : "false", r.throughput, r.latency_avg,
                  r.misrouted_fraction, r.backlog_per_node);
    }
    return EXIT_SUCCESS;
  }

  // --- (1) golden reproduction, bit-exact ---------------------------------
  for (const Golden& g : kGolden) {
    const SteadyResult r =
        run_point(g.topology, g.kind, g.traffic, 0.3, 1, g.faults);
    if (r.throughput != g.throughput || r.latency_avg != g.latency_avg ||
        r.misrouted_fraction != g.misrouted_fraction ||
        r.backlog_per_node != g.backlog_per_node) {
      std::fprintf(stderr,
                   "%s golden mismatch kind=%s traffic=%s faults=%d\n"
                   "  thr %.17g vs %.17g\n  lat %.17g vs %.17g\n"
                   "  mis %.17g vs %.17g\n  bkl %.17g vs %.17g\n",
                   to_string(g.topology).c_str(), to_string(g.kind).c_str(),
                   to_string(g.traffic).c_str(), g.faults ? 1 : 0,
                   r.throughput, g.throughput,
                   r.latency_avg, g.latency_avg, r.misrouted_fraction,
                   g.misrouted_fraction, r.backlog_per_node,
                   g.backlog_per_node);
      return EXIT_FAILURE;
    }
  }

  // --- (2) flattened butterfly keeps the Section VI-D ordering ------------
  {
    const SteadyResult min_un =
        run_point(TopologyKind::kFbfly, RoutingKind::kMin,
                  TrafficKind::kUniform, 0.2, 1);
    const SteadyResult cb_un =
        run_point(TopologyKind::kFbfly, RoutingKind::kCbBase,
                  TrafficKind::kUniform, 0.2, 1);
    assert(min_un.throughput > 0.15);
    assert(min_un.misrouted_fraction == 0.0);
    assert(cb_un.throughput > 0.15);
    assert(cb_un.misrouted_fraction < 0.05);

    const SteadyResult min_adv =
        run_point(TopologyKind::kFbfly, RoutingKind::kMin,
                  TrafficKind::kAdversarial, 0.5, 1);
    const SteadyResult cb_adv =
        run_point(TopologyKind::kFbfly, RoutingKind::kCbBase,
                  TrafficKind::kAdversarial, 0.5, 1);
    if (!(cb_adv.throughput > 1.15 * min_adv.throughput)) {
      std::fprintf(stderr, "fbfly ADJ: cb=%.3f min=%.3f\n",
                   cb_adv.throughput, min_adv.throughput);
      return EXIT_FAILURE;
    }
    assert(cb_adv.misrouted_fraction > 0.3);
  }

  // --- (3a) torus minimal routes: shorter ring direction, DOR length ------
  {
    const TorusTopology topo(GridParams{8, 2, 2});
    assert(topo.routers() == 64);
    assert(topo.forward_ports() == 4);
    for (RouterId r = 0; r < topo.routers(); ++r) {
      for (PortIndex port = 0; port < topo.forward_ports(); ++port) {
        const RouterId peer = topo.peer(r, port);
        assert(peer != r);
        assert(topo.peer(peer, topo.peer_port(r, port)) == r);
      }
      for (RouterId dr = 0; dr < topo.routers(); ++dr) {
        RouterId at = r;
        std::int32_t hops = 0;
        while (at != dr) {
          const PortIndex port = topo.route_toward(at, dr);
          assert(port >= 0 && port < topo.forward_ports());
          at = topo.peer(at, port);
          ++hops;
          assert(hops <= 2 * 4);  // n * k/2
        }
        assert(hops == topo.dor_hops(r, dr));  // shortest-direction DOR
      }
    }
  }

  // --- (3b) torus VC schedule: in range, dateline bump within a phase -----
  {
    const TorusTopology topo(GridParams{8, 2, 2});
    for (RouterId r = 0; r < topo.routers(); ++r) {
      for (PortIndex out = 0; out < topo.forward_ports(); ++out) {
        for (std::int8_t state = 0; state < 4; ++state) {
          for (const bool phase0 : {true, false}) {
            const VcIndex vc = topo.vc_class(r, out, state, phase0);
            assert(vc >= 0 && vc < 4);
            // Phase pairs are disjoint: phase 0 uses {0,1}, phase 1 {2,3}.
            assert(phase0 ? vc < 2 : vc >= 2);
            const HopTransition t = topo.on_hop(r, out, state);
            // Crossing the wrap link raises the dateline bit.
            if (topo.is_wrap_hop(r, out)) assert((t.vc_state & 1) == 1);
            assert(!t.end_phase0);  // phases end on arrival at `inter`
          }
        }
      }
    }
    // Phase end clears the dateline bit for the fresh destination leg.
    assert(topo.phase_end_state(3) == 2);
    assert(topo.phase_end_state(1) == 0);
  }

  // --- (3c) torus line-up under tornado at 2x the ring cap: forward
  // progress for every mechanism (practical deadlock-freedom), MIN capped
  // at the one-direction ring bound, UGAL-L clearly above it.
  {
    const double ring_cap = 1.0 / (2.0 * 4.0);  // 1/(c * k/2) = 0.125
    double min_thr = 0.0;
    double ugal_thr = 0.0;
    for (const RoutingKind kind :
         {RoutingKind::kMin, RoutingKind::kValiant, RoutingKind::kUgalL,
          RoutingKind::kPiggyback, RoutingKind::kCbBase,
          RoutingKind::kCbHybrid}) {
      const SteadyResult r = run_point(TopologyKind::kTorus, kind,
                                       TrafficKind::kAdversarial,
                                       2.0 * ring_cap, 4);
      assert(r.throughput > 0.01);  // the network keeps moving
      if (kind == RoutingKind::kMin) min_thr = r.throughput;
      if (kind == RoutingKind::kUgalL) ugal_thr = r.throughput;
      if (kind == RoutingKind::kMin) {
        // One ring direction saturated: at most the cap (+ slack), and the
        // through-priority allocator should actually reach it.
        assert(r.throughput < 1.1 * ring_cap);
        assert(r.throughput > 0.85 * ring_cap);
        assert(r.misrouted_fraction == 0.0);
      }
      if (kind == RoutingKind::kValiant) {
        assert(r.misrouted_fraction > 0.9);
      }
    }
    if (!(ugal_thr > 1.3 * min_thr)) {
      std::fprintf(stderr, "torus tornado: ugal=%.3f min=%.3f\n", ugal_thr,
                   min_thr);
      return EXIT_FAILURE;
    }
  }

  // --- torus under uniform: adaptive mechanisms ride MIN at low load ------
  {
    const SteadyResult min_un = run_point(
        TopologyKind::kTorus, RoutingKind::kMin, TrafficKind::kUniform, 0.2, 4);
    const SteadyResult cb_un =
        run_point(TopologyKind::kTorus, RoutingKind::kCbBase,
                  TrafficKind::kUniform, 0.2, 4);
    assert(min_un.throughput > 0.18);
    assert(cb_un.throughput > 0.18);
    assert(cb_un.misrouted_fraction < 0.15);
  }

  return EXIT_SUCCESS;
}
