// k-ary n-cube (torus) Topology plugin for the unified engine.
//
// Routers are points of a k^n grid with wrap-around rings per dimension and
// c terminals per router; each dimension contributes a plus port (2d) and a
// minus port (2d+1). Minimal routing is Dimension-Order taking the shorter
// ring direction (ties broken toward plus, which is what makes tornado
// traffic at offset k/2 the classic MIN-collapse adversary); nonminimal
// routing is Valiant through a random intermediate router (GridTopology).
//
// Deadlock avoidance uses dateline VCs doubled per Valiant phase: within a
// phase a packet uses VC 0 of the pair until it traverses the wrap link of
// the current dimension and VC 1 after, and the destination leg uses the
// second pair. vc_class returns (phase0 ? 0 : 2) + crossed, so configure
// vcs_local >= 4. The per-packet vc_state byte packs
// (current dimension) * 2 + crossed-dateline-in-that-dimension.
#pragma once

#include <cstdint>

#include "sim/config.hpp"
#include "topo/grid.hpp"
#include "util/types.hpp"

namespace dfsim {

class TorusTopology final : public GridTopology {
 public:
  explicit TorusTopology(const GridParams& params);

  [[nodiscard]] std::int32_t ring_distance(std::int32_t from,
                                           std::int32_t to) const {
    const std::int32_t k = params_.k;
    const std::int32_t plus = ((to - from) % k + k) % k;
    return std::min(plus, k - plus);
  }
  [[nodiscard]] std::int32_t dor_hops(RouterId from,
                                      RouterId to) const override {
    std::int32_t hops = 0;
    for (std::int32_t dim = 0; dim < params_.n; ++dim) {
      hops += ring_distance(coord(from, dim), coord(to, dim));
    }
    return hops;
  }
  /// True when taking `out` at `r` traverses that ring's wrap-around link.
  [[nodiscard]] bool is_wrap_hop(RouterId r, PortIndex out) const {
    const std::int32_t c = coord(r, out / 2);
    return (out % 2 == 0) ? c == params_.k - 1 : c == 0;
  }

  // --- Topology interface -------------------------------------------------

  [[nodiscard]] RouterId peer(RouterId r, PortIndex port) const override;
  [[nodiscard]] PortIndex peer_port(RouterId r, PortIndex port) const override {
    (void)r;
    return port ^ 1;  // plus links feed the peer's minus port and vice versa
  }
  [[nodiscard]] PortIndex route_toward(RouterId r,
                                       RouterId target) const override;

  [[nodiscard]] VcIndex vc_class(RouterId r, PortIndex out,
                                 std::int8_t vc_state,
                                 bool phase0) const override {
    return (phase0 ? 0 : 2) + crossed_after(r, out, vc_state);
  }
  [[nodiscard]] HopTransition on_hop(RouterId r, PortIndex out,
                                     std::int8_t vc_state) const override {
    const std::int8_t next = static_cast<std::int8_t>(
        (out / 2) * 2 + crossed_after(r, out, vc_state));
    return {next, false, false};
  }
  [[nodiscard]] std::int8_t phase_end_state(
      std::int8_t vc_state) const override {
    return static_cast<std::int8_t>(vc_state & ~1);  // fresh dateline leg
  }

  /// Opposite ring direction first, then other unresolved dimensions.
  [[nodiscard]] PortIndex fallback_output(RouterId r, RouterId target,
                                          PortIndex avoid) const override;

 private:
  [[nodiscard]] std::int32_t crossed_after(RouterId r, PortIndex out,
                                           std::int8_t vc_state) const {
    const std::int32_t dim = out / 2;
    const std::int32_t prev = (vc_state / 2 == dim) ? (vc_state & 1) : 0;
    return prev | (is_wrap_hop(r, out) ? 1 : 0);
  }
};

}  // namespace dfsim
