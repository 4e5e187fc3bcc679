// DragonflyTopology invariants: peer symmetry, unique group pair links,
// minimal path shape (<= 3 router hops, <= 1 global hop), gateway tables —
// plus the nonminimal candidate-pool enumeration contract
// (nonmin_candidate_at) all three topologies must honor for the engine's
// small-pool exhaustive scoring.
#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <set>
#include <vector>

#include "topo/dragonfly.hpp"
#include "topo/fb_topology.hpp"
#include "topo/torus.hpp"
#include "util/fast_div.hpp"

namespace {

void check_preset(const dfsim::SimParams& params) {
  using namespace dfsim;
  const DragonflyTopology topo(params.topo);
  const std::int32_t a = params.topo.a;

  // Peer symmetry: following a link and its reported reverse port returns.
  for (RouterId r = 0; r < topo.routers(); ++r) {
    for (PortIndex port = 0; port < topo.forward_ports(); ++port) {
      const RouterId peer = topo.peer(r, port);
      const PortIndex back = topo.peer_port(r, port);
      assert(peer != r);
      assert(topo.peer(peer, back) == r);
      assert(topo.peer_port(peer, back) == port);
      // Local links stay in the group; global links leave it.
      if (topo.is_local_port(port)) {
        assert(topo.group_of(peer) == topo.group_of(r));
      } else {
        assert(topo.group_of(peer) != topo.group_of(r));
      }
    }
  }

  // Every ordered group pair has exactly one gateway, consistent with peers.
  for (GroupId g = 0; g < topo.groups(); ++g) {
    for (GroupId gd = 0; gd < topo.groups(); ++gd) {
      if (g == gd) continue;
      const RouterId gw = topo.minimal_global_source(g, gd);
      const PortIndex gp = topo.minimal_global_port(g, gd);
      assert(topo.group_of(gw) == g);
      assert(topo.is_global_port(gp));
      assert(topo.group_of(topo.peer(gw, gp)) == gd);
    }
  }

  // Minimal routes: walking minimal_router_output reaches the destination
  // router within 3 hops using at most 1 global hop.
  for (RouterId r = 0; r < topo.routers(); ++r) {
    for (RouterId dr = 0; dr < topo.routers(); ++dr) {
      RouterId cur = r;
      std::int32_t hops = 0;
      std::int32_t globals = 0;
      while (cur != dr) {
        const PortIndex port = topo.minimal_router_output(cur, dr);
        assert(port != kInvalidPort);
        if (topo.is_global_port(port)) ++globals;
        cur = topo.peer(cur, port);
        ++hops;
        assert(hops <= 3);
      }
      assert(globals <= 1);
      assert(hops == topo.minimal_hops(r, dr));
      // Cross-group paths have at least the global hop.
      if (topo.group_of(r) != topo.group_of(dr)) assert(globals == 1);
    }
  }

  // minimal_output at the destination router is the right ejection port.
  for (NodeId n = 0; n < topo.nodes(); ++n) {
    const RouterId dr = topo.router_of_node(n);
    const PortIndex port = topo.minimal_output(dr, n);
    assert(topo.is_ejection_port(port));
    assert(port - topo.forward_ports() == n % params.topo.p);
  }

  // local_port_to round-trip across the whole group.
  for (RouterId r = 0; r < topo.routers(); ++r) {
    const GroupId g = topo.group_of(r);
    for (std::int32_t li = 0; li < a; ++li) {
      const RouterId other = g * a + li;
      if (other == r) continue;
      const PortIndex port = topo.local_port_to(r, other);
      assert(topo.is_local_port(port));
      assert(topo.peer(r, port) == other);
    }
  }
}

// FastDivisor (the dragonfly's group / local-index split) must equal / and %
// over the whole non-negative int32 range the proof covers: every small
// divisor, and numerators near both ends plus a stride through the middle.
void check_fast_divisor() {
  using dfsim::FastDivisor;
  constexpr std::int32_t kMax = 0x7fffffff;
  for (const std::int32_t d : {1, 2, 3, 4, 5, 6, 7, 8, 16, 47, 48, 100, 127,
                               4097, 65535, 1 << 20, kMax}) {
    const FastDivisor div(d);
    const auto check = [&](std::int32_t n) {
      assert(div.quot(n) == n / d);
      assert(div.rem(n) == n % d);
    };
    for (std::int32_t n = 0; n < 100000; ++n) check(n);
    for (std::int32_t n = kMax; n > kMax - 100000; --n) check(n);
    for (std::int64_t n = 0; n <= kMax; n += 65521) {
      check(static_cast<std::int32_t>(n));
    }
  }
}

// The composed next hop must answer exactly what the routers^2 next-hop
// table it replaced answered. The table is rebuilt here, as that
// constructor built it, and compared on every (router, destination router)
// pair through all three entry points.
void check_against_next_hop_table(const dfsim::TopoParams& shape) {
  using namespace dfsim;
  const DragonflyTopology topo(shape);
  constexpr std::int16_t kEject = -2;
  const auto n = static_cast<std::size_t>(topo.routers());
  std::vector<std::int16_t> table(n * n, kEject);
  for (RouterId r = 0; r < topo.routers(); ++r) {
    const GroupId g = topo.group_of(r);
    for (RouterId dr = 0; dr < topo.routers(); ++dr) {
      if (dr == r) continue;
      const std::size_t idx = static_cast<std::size_t>(r) * n +
                              static_cast<std::size_t>(dr);
      const GroupId gd = topo.group_of(dr);
      if (gd == g) {
        table[idx] = static_cast<std::int16_t>(topo.local_port_to(r, dr));
        continue;
      }
      const RouterId gateway = topo.minimal_global_source(g, gd);
      table[idx] = static_cast<std::int16_t>(
          r == gateway ? topo.minimal_global_port(g, gd)
                       : topo.local_port_to(r, gateway));
    }
  }
  for (RouterId r = 0; r < topo.routers(); ++r) {
    for (RouterId dr = 0; dr < topo.routers(); ++dr) {
      const std::int16_t want =
          table[static_cast<std::size_t>(r) * n + static_cast<std::size_t>(dr)];
      const PortIndex got = topo.minimal_router_output(r, dr);
      if (want == kEject) {
        assert(got == kInvalidPort);
        // Every node of the router ejects on its own port.
        for (std::int32_t i = 0; i < shape.p; ++i) {
          assert(topo.minimal_output(r, dr * shape.p + i) ==
                 topo.forward_ports() + i);
        }
        continue;
      }
      assert(got == want);
      assert(topo.route_toward(r, dr) == want);
      // minimal_output toward any node of dr (first and last checked).
      assert(topo.minimal_output(r, dr * shape.p) == want);
      assert(topo.minimal_output(r, dr * shape.p + shape.p - 1) == want);
    }
  }
}

// Enumeration contract of nonmin_candidate_at: distinct indices yield
// distinct channels, every usable index fills a candidate whose channel is
// never the minimal one, and (for the dragonfly) the CRG pool enumerates
// exactly this router's own global channels. The engine's small-pool
// exhaustive scoring (pick_misroute_channel) relies on all of this.
void check_candidate_enumeration(const dfsim::Topology& topo,
                                 bool has_crg_restriction) {
  using namespace dfsim;
  for (RouterId r = 0; r < topo.routers(); r += std::max(1, topo.routers() / 7)) {
    for (NodeId dst = 0; dst < topo.nodes();
         dst += std::max(1, topo.nodes() / 5)) {
      if (topo.router_of_node(dst) == r) continue;
      if (topo.min_channel(r, dst) < 0) continue;  // no nonminimal decision
      for (const bool crg : {false, true}) {
        if (crg && !has_crg_restriction) continue;
        const std::int32_t pool = topo.nonmin_pool_size(r, crg);
        assert(pool > 0);
        std::set<std::int32_t> channels;
        for (std::int32_t i = 0; i < pool; ++i) {
          NonminCandidate cand;
          if (!topo.nonmin_candidate_at(r, dst, crg, i, cand)) continue;
          assert(cand.channel != topo.min_channel(r, dst));
          assert(cand.first_hop >= 0);
          const bool fresh = channels.insert(cand.channel).second;
          assert(fresh);  // distinct indices -> distinct candidates
        }
        // The pool loses at most the minimal slot plus (router-id candidate
        // spaces) the self/destination routers; everything else is usable.
        assert(static_cast<std::int32_t>(channels.size()) >= pool - 2);
        assert(!channels.empty());
      }
    }
  }
}

}  // namespace

int main() {
  check_fast_divisor();
  check_preset(dfsim::presets::tiny());
  check_preset(dfsim::presets::small());
  for (const auto& params :
       {dfsim::presets::tiny(), dfsim::presets::small(),
        dfsim::presets::medium(), dfsim::presets::paper()}) {
    check_against_next_hop_table(params.topo);
  }

  {
    using namespace dfsim;
    const DragonflyTopology dragonfly(presets::small().topo);
    check_candidate_enumeration(dragonfly, /*has_crg_restriction=*/true);
    const FlattenedButterflyTopology fbfly(GridParams{4, 2, 4});
    check_candidate_enumeration(fbfly, /*has_crg_restriction=*/false);
    const TorusTopology torus(GridParams{8, 2, 2});
    check_candidate_enumeration(torus, /*has_crg_restriction=*/false);
  }
  return EXIT_SUCCESS;
}
