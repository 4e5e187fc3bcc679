// k-ary n-grid base shared by the flattened butterfly and the torus.
//
// Routers are points of a k^n grid with c terminals each, and router ids
// number the grid dimension 0 fastest. Everything but the wiring is common
// to both grids: Dimension-Order minimal routes (the subclass's
// route_toward picks the output within a dimension), Valiant through any
// router other than the source and destination — the candidate space is
// router ids, and the nonminimal phase ends on *arrival* at the
// intermediate (NonminCandidate::via_port = -1) — one-hop-lookahead probes
// for UGAL-G/PB, decisions at the source router only, and ADV+o advancing
// the dimension-0 coordinate. All channels are kLocalClass: one buffer
// depth, one link latency.
//
// Subclasses own the wiring (peer, peer_port, route_toward), the hop
// distance (dor_hops), the VC schedule and the fault fallback.
#pragma once

#include <cstdint>

#include "sim/config.hpp"
#include "topo/topology.hpp"
#include "util/types.hpp"

namespace dfsim {

class GridTopology : public Topology {
 public:
  [[nodiscard]] std::int32_t coord(RouterId r, std::int32_t dim) const {
    std::int32_t v = r;
    for (std::int32_t d = 0; d < dim; ++d) v /= params_.k;
    return v % params_.k;
  }
  /// Length of the Dimension-Order route from `from` to `to`.
  [[nodiscard]] virtual std::int32_t dor_hops(RouterId from,
                                              RouterId to) const = 0;

  // --- Topology interface -------------------------------------------------

  [[nodiscard]] PortClass port_class(PortIndex port) const override {
    (void)port;
    return PortClass::kLocalClass;
  }
  [[nodiscard]] PortIndex minimal_output(RouterId r,
                                         NodeId dest) const override;

  [[nodiscard]] std::int32_t min_channel(RouterId r, NodeId dst) const override;
  [[nodiscard]] std::int32_t nonmin_pool_size(
      RouterId r, bool own_router_only) const override {
    (void)r;
    (void)own_router_only;  // no CRG analogue: every candidate starts here
    return routers();
  }
  [[nodiscard]] bool nonmin_candidate_at(RouterId r, NodeId dst,
                                         bool own_router_only,
                                         std::int32_t index,
                                         NonminCandidate& out) const override;
  [[nodiscard]] bool sample_valiant(Rng& rng, RouterId r, NodeId dst,
                                    NonminCandidate& out) const override;

  [[nodiscard]] HopEstimate min_hops(RouterId r, RouterId dr) const override {
    return {dor_hops(r, dr), 0};
  }
  [[nodiscard]] HopEstimate nonmin_hops(RouterId r,
                                        const NonminCandidate& cand,
                                        RouterId dr) const override {
    return {dor_hops(r, cand.inter) + dor_hops(cand.inter, dr), 0};
  }
  [[nodiscard]] bool min_link_probe(RouterId r, NodeId dst,
                                    RemoteProbe& out) const override;
  [[nodiscard]] bool min_remote_probe(RouterId r, NodeId dst,
                                      RemoteProbe& out) const override {
    return min_link_probe(r, dst, out);  // one-hop-lookahead queue
  }
  [[nodiscard]] bool nonmin_remote_probe(RouterId r,
                                         const NonminCandidate& cand,
                                         RemoteProbe& out) const override;

  [[nodiscard]] bool can_misroute_in_transit(
      RouterId r, RouterId src_router, std::int8_t vc_state) const override {
    (void)vc_state;
    return r == src_router;  // decisions at the source router only
  }

  [[nodiscard]] TrafficTopologyInfo traffic_info() const override;

 protected:
  GridTopology(const GridParams& params, std::int32_t forward_ports);

  GridParams params_;

 private:
  [[nodiscard]] bool make_candidate(RouterId r, RouterId inter,
                                    NonminCandidate& out) const;
};

}  // namespace dfsim
