#include "topo/fb_topology.hpp"

#include <stdexcept>

namespace dfsim {

FlattenedButterflyTopology::FlattenedButterflyTopology(
    const GridParams& params)
    : GridTopology(params, params.n * (params.k - 1)) {
  if (params_.k < 2 || params_.n < 1 || params_.c < 1) {
    throw std::invalid_argument("fbfly: need k>=2, n>=1, c>=1");
  }
}

RouterId FlattenedButterflyTopology::peer(RouterId r, PortIndex port) const {
  const std::int32_t k = params_.k;
  const std::int32_t dim = port / (k - 1);
  const std::int32_t idx = port % (k - 1);
  const std::int32_t own = coord(r, dim);
  const std::int32_t v = idx < own ? idx : idx + 1;
  std::int32_t stride = 1;
  for (std::int32_t d = 0; d < dim; ++d) stride *= k;
  return r + (v - own) * stride;
}

PortIndex FlattenedButterflyTopology::peer_port(RouterId r,
                                                PortIndex port) const {
  const std::int32_t k = params_.k;
  const std::int32_t dim = port / (k - 1);
  return channel_to(peer(r, port), dim, coord(r, dim));
}

PortIndex FlattenedButterflyTopology::route_toward(RouterId r,
                                                   RouterId target) const {
  if (r == target) return kInvalidPort;
  for (std::int32_t dim = 0; dim < params_.n; ++dim) {
    const std::int32_t cr = coord(r, dim);
    const std::int32_t ct = coord(target, dim);
    if (cr != ct) return channel_to(r, dim, ct);
  }
  return kInvalidPort;
}

PortIndex FlattenedButterflyTopology::fallback_output(RouterId r,
                                                      RouterId target,
                                                      PortIndex avoid) const {
  const std::int32_t k = params_.k;
  // Resolve a different dimension first (still minimal distance overall),
  // then detour to another coordinate of the blocked dimension — that row
  // router keeps a direct channel to the wanted coordinate.
  for (std::int32_t dim = 0; dim < params_.n; ++dim) {
    const std::int32_t ct = coord(target, dim);
    if (coord(r, dim) == ct) continue;
    const PortIndex p = channel_to(r, dim, ct);
    if (p != avoid && link_up(r, p)) return p;
  }
  const std::int32_t dead_dim = avoid / (k - 1);
  for (std::int32_t i = 0; i < k - 1; ++i) {
    const PortIndex p = dead_dim * (k - 1) + i;
    if (p != avoid && link_up(r, p)) return p;
  }
  for (PortIndex p = 0; p < forward_ports(); ++p) {
    if (p != avoid && link_up(r, p)) return p;
  }
  return kInvalidPort;
}

}  // namespace dfsim
