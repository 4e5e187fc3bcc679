#include "topo/torus.hpp"

#include <stdexcept>

namespace dfsim {

TorusTopology::TorusTopology(const GridParams& params)
    : GridTopology(params, 2 * params.n) {
  if (params_.k < 3 || params_.n < 1 || params_.c < 1) {
    // k >= 3 keeps plus/minus ports distinct links (k == 2 would double the
    // single physical link between the two routers of a ring).
    throw std::invalid_argument("torus: need k>=3, n>=1, c>=1");
  }
}

RouterId TorusTopology::peer(RouterId r, PortIndex port) const {
  const std::int32_t k = params_.k;
  const std::int32_t dim = port / 2;
  const std::int32_t own = coord(r, dim);
  const std::int32_t next =
      (port % 2 == 0) ? (own + 1) % k : (own - 1 + k) % k;
  std::int32_t stride = 1;
  for (std::int32_t d = 0; d < dim; ++d) stride *= k;
  return r + (next - own) * stride;
}

PortIndex TorusTopology::route_toward(RouterId r, RouterId target) const {
  if (r == target) return kInvalidPort;
  const std::int32_t k = params_.k;
  for (std::int32_t dim = 0; dim < params_.n; ++dim) {
    const std::int32_t cr = coord(r, dim);
    const std::int32_t ct = coord(target, dim);
    if (cr == ct) continue;
    const std::int32_t plus = ((ct - cr) % k + k) % k;
    // Shorter direction wins; ties go to plus, which is what concentrates
    // tornado traffic (offset k/2) on one ring direction.
    return plus <= k - plus ? dim * 2 : dim * 2 + 1;
  }
  return kInvalidPort;
}

PortIndex TorusTopology::fallback_output(RouterId r, RouterId target,
                                         PortIndex avoid) const {
  // The opposite direction of the blocked ring first (the long way round
  // that dimension), then the preferred direction of any other unresolved
  // dimension, then anything live. DOR is memoryless, so a detour can
  // ping-pong in pathological cut sets; the engine's hop cap bounds that.
  const PortIndex opposite = avoid ^ 1;
  if (link_up(r, opposite)) return opposite;
  const std::int32_t k = params_.k;
  for (std::int32_t dim = 0; dim < params_.n; ++dim) {
    const std::int32_t cr = coord(r, dim);
    const std::int32_t ct = coord(target, dim);
    if (cr == ct) continue;
    const std::int32_t plus = ((ct - cr) % k + k) % k;
    const PortIndex pref = plus <= k - plus ? dim * 2 : dim * 2 + 1;
    if (pref != avoid && link_up(r, pref)) return pref;
    if ((pref ^ 1) != avoid && link_up(r, pref ^ 1)) return pref ^ 1;
  }
  for (PortIndex p = 0; p < forward_ports(); ++p) {
    if (p != avoid && link_up(r, p)) return p;
  }
  return kInvalidPort;
}

}  // namespace dfsim
