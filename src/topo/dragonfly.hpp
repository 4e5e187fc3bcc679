// Canonical dragonfly topology over O(routers + groups^2) flat tables.
//
// Port layout per router (outputs and inputs use the same indices):
//   [0, a-1)                      local ports, one per other router in group
//   [a-1, a-1+h)                  global ports
//   [forward_ports(), +p)         ejection (outputs) / injection (inputs)
//
// Global link arrangement is the standard "absolute" one: group G's global
// channel j (j in [0, a*h), owned by router j/h at global port j%h) connects
// to group j if j < G else j+1, which gives exactly one link per group pair.
//
// `minimal_output` is composed, not stored: the local port inside a group is
// closed-form (`local_port_to`), and between groups the G x G gateway tables
// (`global_src_`/`global_port_`, 6 bytes per group pair) name the router
// owning the group pair's link and its global port. No table grows with
// routers^2, which is what keeps exa-scale shapes buildable.
//
// As a Topology plugin this class also owns the dragonfly-shaped half of the
// paper's routing mechanisms: the nonminimal candidate space is the a*h
// group-level global channels (MM+L) or the router's own h channels (CRG),
// Valiant draws uniformly over the non-minimal channels, phase 0 ends on the
// global hop, the VC schedule is the hop-class one (l0/l1/l2, g0/g1), and
// ECtN broadcasts each router's h global-port counters inside its group.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "topo/topology.hpp"
#include "util/fast_div.hpp"
#include "util/types.hpp"

namespace dfsim {

class DragonflyTopology final : public Topology {
 public:
  explicit DragonflyTopology(const TopoParams& params);

  [[nodiscard]] const TopoParams& params() const { return params_; }
  [[nodiscard]] std::int32_t groups() const { return groups_; }

  [[nodiscard]] GroupId group_of(RouterId r) const {
    return per_group_.quot(r);
  }
  [[nodiscard]] std::int32_t local_index(RouterId r) const {
    return per_group_.rem(r);
  }

  [[nodiscard]] bool is_local_port(PortIndex port) const {
    return port < params_.a - 1;
  }
  [[nodiscard]] bool is_global_port(PortIndex port) const {
    return port >= params_.a - 1 && port < forward_ports();
  }
  [[nodiscard]] bool is_ejection_port(PortIndex port) const {
    return port >= forward_ports();
  }

  // --- Topology interface -------------------------------------------------

  [[nodiscard]] PortClass port_class(PortIndex port) const override {
    return port < params_.a - 1 ? PortClass::kLocalClass
                                : PortClass::kGlobalClass;
  }

  /// Neighbor router on the other end of `port` (local or global).
  [[nodiscard]] RouterId peer(RouterId r, PortIndex port) const override {
    return peer_[static_cast<std::size_t>(r) *
                     static_cast<std::size_t>(forward_ports()) +
                 static_cast<std::size_t>(port)];
  }
  /// Input port on the peer router that this link feeds.
  [[nodiscard]] PortIndex peer_port(RouterId r, PortIndex port) const override {
    return peer_port_[static_cast<std::size_t>(r) *
                          static_cast<std::size_t>(forward_ports()) +
                      static_cast<std::size_t>(port)];
  }

  /// Next output port on the (unique) minimal route from router `r` to node
  /// `dest`: an ejection port when `dest` is attached to `r`.
  [[nodiscard]] PortIndex minimal_output(RouterId r,
                                         NodeId dest) const override {
    const RouterId dr = router_of_node(dest);
    if (dr == r) return forward_ports() + (dest % params_.p);
    return minimal_router_output(r, dr);
  }

  [[nodiscard]] PortIndex route_toward(RouterId r,
                                       RouterId target) const override {
    return minimal_router_output(r, target);
  }

  [[nodiscard]] VcIndex vc_class(RouterId r, PortIndex out,
                                 std::int8_t vc_state,
                                 bool phase0) const override {
    (void)r;
    (void)out;
    (void)phase0;
    return vc_state;  // VC class == global hops taken; engine clamps
  }

  [[nodiscard]] HopTransition on_hop(RouterId r, PortIndex out,
                                     std::int8_t vc_state) const override {
    (void)r;
    if (out >= params_.a - 1) {
      // Global hop: advance the VC class, close any phase-0 detour, and
      // allow a fresh local detour in the next group.
      return {static_cast<std::int8_t>(vc_state + 1), true, true};
    }
    return {vc_state, false, false};
  }

  [[nodiscard]] std::int32_t min_channel(RouterId r, NodeId dst) const override;
  [[nodiscard]] std::int32_t nonmin_pool_size(
      RouterId r, bool own_router_only) const override;
  [[nodiscard]] bool nonmin_viable(RouterId r, NodeId dst,
                                   bool own_router_only) const override;
  [[nodiscard]] bool nonmin_candidate_at(RouterId r, NodeId dst,
                                         bool own_router_only,
                                         std::int32_t index,
                                         NonminCandidate& out) const override;
  [[nodiscard]] bool sample_valiant(Rng& rng, RouterId r, NodeId dst,
                                    NonminCandidate& out) const override;

  [[nodiscard]] HopEstimate min_hops(RouterId r, RouterId dr) const override;
  [[nodiscard]] HopEstimate nonmin_hops(RouterId r,
                                        const NonminCandidate& cand,
                                        RouterId dr) const override;
  [[nodiscard]] bool min_remote_probe(RouterId r, NodeId dst,
                                      RemoteProbe& out) const override;
  [[nodiscard]] bool nonmin_remote_probe(RouterId r,
                                         const NonminCandidate& cand,
                                         RemoteProbe& out) const override;
  [[nodiscard]] bool min_link_probe(RouterId r, NodeId dst,
                                    RemoteProbe& out) const override;

  [[nodiscard]] bool can_misroute_in_transit(
      RouterId r, RouterId src_router, std::int8_t vc_state) const override {
    (void)r;
    (void)src_router;
    return vc_state == 0;  // source group only (no global hop taken yet)
  }
  [[nodiscard]] std::int32_t local_detour_ports(RouterId r) const override {
    (void)r;
    return params_.a - 1;
  }

  [[nodiscard]] bool supports_ectn() const override { return true; }
  [[nodiscard]] std::int32_t ectn_domains() const override { return groups_; }
  [[nodiscard]] std::int32_t ectn_channels() const override {
    return params_.a * params_.h;
  }
  [[nodiscard]] std::int32_t ectn_router_slots() const override {
    return params_.h;
  }
  [[nodiscard]] std::int32_t ectn_domain(RouterId r) const override {
    return group_of(r);
  }
  [[nodiscard]] EctnSlot ectn_slot(RouterId r, std::int32_t i) const override {
    return EctnSlot{(params_.a - 1) + i, group_of(r),
                    local_index(r) * params_.h + i};
  }

  [[nodiscard]] TrafficTopologyInfo traffic_info() const override;

  /// Same-class-first fallback: other global ports for a dead global link,
  /// other local routers for a dead local hop.
  [[nodiscard]] PortIndex fallback_output(RouterId r, RouterId target,
                                          PortIndex avoid) const override;

  // --- dragonfly-specific helpers (tests, micro benches, ECtN math) -------

  /// Next output port on the minimal route toward router `dr` (kInvalidPort
  /// when `r == dr`).
  /// Route shape: local?(to gateway) -> global -> local?(to dest router).
  [[nodiscard]] PortIndex minimal_router_output(RouterId r, RouterId dr) const {
    if (r == dr) return kInvalidPort;
    const GroupId g = group_of(r);
    const GroupId gd = group_of(dr);
    if (g == gd) return local_port_to(r, dr);
    const RouterId gateway = minimal_global_source(g, gd);
    return r == gateway ? minimal_global_port(g, gd)
                        : local_port_to(r, gateway);
  }

  /// The router in group `g` owning the global link to group `gd` (g != gd).
  [[nodiscard]] RouterId minimal_global_source(GroupId g, GroupId gd) const {
    return global_src_[static_cast<std::size_t>(g) *
                           static_cast<std::size_t>(groups_) +
                       static_cast<std::size_t>(gd)];
  }
  /// The global port on `minimal_global_source(g, gd)` reaching `gd`.
  [[nodiscard]] PortIndex minimal_global_port(GroupId g, GroupId gd) const {
    return global_port_[static_cast<std::size_t>(g) *
                            static_cast<std::size_t>(groups_) +
                        static_cast<std::size_t>(gd)];
  }

  /// Destination group of group-level global channel `channel` in [0, a*h)
  /// of group `g`.
  [[nodiscard]] GroupId global_channel_dest(GroupId g,
                                            std::int32_t channel) const {
    return channel < g ? channel : channel + 1;
  }
  /// Group-level channel index [0, a*h) for router `r`'s global port.
  [[nodiscard]] std::int32_t global_channel_of(RouterId r,
                                               PortIndex global_port) const {
    return local_index(r) * params_.h + (global_port - (params_.a - 1));
  }

  /// Local output port on router `r` toward router `dest` in the same group.
  [[nodiscard]] PortIndex local_port_to(RouterId r, RouterId dest) const {
    const std::int32_t li = local_index(dest);
    const std::int32_t lr = local_index(r);
    return li < lr ? li : li - 1;
  }

  /// Hop count of the minimal route between two routers (0..3; at most one
  /// global hop plus at most one local hop on each side).
  [[nodiscard]] std::int32_t minimal_hops(RouterId from, RouterId to) const;

  [[nodiscard]] MemoryReport memory_report() const override;

 private:
  /// Fills a candidate from a group-level channel id of `r`'s group.
  void fill_candidate(RouterId r, std::int32_t channel,
                      NonminCandidate& out) const;

  TopoParams params_;
  std::int32_t groups_ = 0;

  // Divides router ids by a without a divide instruction: the composed
  // next hop splits up to three router ids into (group, local index).
  FastDivisor per_group_;
  std::vector<RouterId> peer_;          // [routers x forward_ports]
  std::vector<std::int16_t> peer_port_; // [routers x forward_ports]
  std::vector<RouterId> global_src_;    // [groups x groups]
  std::vector<std::int16_t> global_port_;  // [groups x groups]
};

}  // namespace dfsim
