#include "topo/grid.hpp"

namespace dfsim {

GridTopology::GridTopology(const GridParams& params,
                           std::int32_t forward_ports)
    : params_(params) {
  set_shape(params_.routers(), forward_ports, params_.c);
}

PortIndex GridTopology::minimal_output(RouterId r, NodeId dest) const {
  const RouterId dr = router_of_node(dest);
  if (dr == r) return forward_ports() + (dest % params_.c);
  return route_toward(r, dr);
}

std::int32_t GridTopology::min_channel(RouterId r, NodeId dst) const {
  const RouterId dr = router_of_node(dst);
  return dr == r ? -1 : dr;  // candidate space is router ids
}

bool GridTopology::make_candidate(RouterId r, RouterId inter,
                                  NonminCandidate& out) const {
  out.channel = inter;
  out.inter = inter;
  out.via_port = -1;  // phase 0 ends on arrival at the intermediate
  out.first_hop = route_toward(r, inter);
  return candidate_usable(r, out);
}

bool GridTopology::nonmin_candidate_at(RouterId r, NodeId dst,
                                       bool own_router_only,
                                       std::int32_t index,
                                       NonminCandidate& out) const {
  (void)own_router_only;
  const RouterId dr = router_of_node(dst);
  if (index == r || index == dr) return false;  // not a nonminimal option
  return make_candidate(r, index, out);
}

bool GridTopology::sample_valiant(Rng& rng, RouterId r, NodeId dst,
                                  NonminCandidate& out) const {
  const RouterId dr = router_of_node(dst);
  for (std::int32_t attempt = 0; attempt < 8; ++attempt) {
    const auto inter = static_cast<RouterId>(
        rng.next_below(static_cast<std::uint64_t>(routers())));
    // With faults attached a drawn candidate may be unusable; keep trying
    // within the attempt budget (draw-for-draw identical when healthy).
    if (inter != r && inter != dr && make_candidate(r, inter, out)) {
      return true;
    }
  }
  return false;
}

bool GridTopology::min_link_probe(RouterId r, NodeId dst,
                                  RemoteProbe& out) const {
  // One-hop-lookahead: the next router's own minimal output toward `dst`
  // (an ejection port there reads as zero occupancy). On a ring the
  // congestion of interest sits a few hops downstream, and the neighbour's
  // same-direction queue is the closest observable proxy.
  const PortIndex first = minimal_output(r, dst);
  if (first >= forward_ports()) return false;
  const RouterId next = peer(r, first);
  out = RemoteProbe{next, minimal_output(next, dst)};
  return true;
}

bool GridTopology::nonmin_remote_probe(RouterId r,
                                       const NonminCandidate& cand,
                                       RemoteProbe& out) const {
  // One-hop-lookahead on the candidate path: the next router's output
  // continuing toward the intermediate (toward the final destination when
  // the intermediate is already the next router).
  if (cand.first_hop < 0 || cand.first_hop >= forward_ports()) return false;
  const RouterId next = peer(r, cand.first_hop);
  const PortIndex cont = next == cand.inter
                             ? kInvalidPort
                             : route_toward(next, cand.inter);
  if (cont == kInvalidPort) return false;
  out = RemoteProbe{next, cont};
  return true;
}

TrafficTopologyInfo GridTopology::traffic_info() const {
  TrafficTopologyInfo info;
  info.nodes = nodes();
  info.groups = routers();
  info.nodes_per_group = params_.c;
  const std::int32_t k = params_.k;
  // ADV+o advances the dimension-0 coordinate: ADV+1 is the row adversary
  // of the Section VI-D bench (all nodes of router R target R+1 in dim 0);
  // on the torus offset k/2 is the tornado adversary.
  info.adv_group = [k](std::int32_t r, std::int32_t offset) {
    const std::int32_t c0 = r % k;
    return r - c0 + ((c0 + offset) % k + k) % k;
  };
  return info;
}

}  // namespace dfsim
