// Flattened-butterfly Topology plugin for the unified engine (Section VI-D).
//
// A k-ary n-flat: routers are points of a k^n grid, each dimension fully
// connected ((k-1) channels per dimension per router), c terminals per
// router. Minimal routing is Dimension-Order (unique path); nonminimal
// routing is Valiant through a random intermediate router, taken as DOR
// r -> inter -> dest (GridTopology). The VC schedule is the usual FB
// deadlock-avoidance split collapsed to one class per phase: VC0 on the leg
// to the intermediate, VC1 on the leg to the destination (configure
// vcs_local >= 2).
#pragma once

#include <cstdint>

#include "sim/config.hpp"
#include "topo/grid.hpp"
#include "util/types.hpp"

namespace dfsim {

class FlattenedButterflyTopology final : public GridTopology {
 public:
  explicit FlattenedButterflyTopology(const GridParams& params);

  /// Output channel index toward coordinate `v` in dimension `dim`.
  [[nodiscard]] std::int32_t channel_to(RouterId r, std::int32_t dim,
                                        std::int32_t v) const {
    const std::int32_t own = coord(r, dim);
    return dim * (params_.k - 1) + (v < own ? v : v - 1);
  }
  [[nodiscard]] std::int32_t dor_hops(RouterId from,
                                      RouterId to) const override {
    std::int32_t hops = 0;
    for (std::int32_t dim = 0; dim < params_.n; ++dim) {
      if (coord(from, dim) != coord(to, dim)) ++hops;
    }
    return hops;
  }

  // --- Topology interface -------------------------------------------------

  [[nodiscard]] RouterId peer(RouterId r, PortIndex port) const override;
  [[nodiscard]] PortIndex peer_port(RouterId r, PortIndex port) const override;
  [[nodiscard]] PortIndex route_toward(RouterId r,
                                       RouterId target) const override;

  [[nodiscard]] VcIndex vc_class(RouterId r, PortIndex out,
                                 std::int8_t vc_state,
                                 bool phase0) const override {
    (void)r;
    (void)out;
    (void)vc_state;
    return phase0 ? 0 : 1;
  }
  [[nodiscard]] HopTransition on_hop(RouterId r, PortIndex out,
                                     std::int8_t vc_state) const override {
    (void)r;
    (void)out;
    return {vc_state, false, false};  // phase 0 ends on arrival at `inter`
  }

  /// Other minimal dimensions first, then a detour coordinate within the
  /// blocked dimension (its row router has a direct channel onward).
  [[nodiscard]] PortIndex fallback_output(RouterId r, RouterId target,
                                          PortIndex avoid) const override;
};

}  // namespace dfsim
