#include "sim/config.hpp"

#include <algorithm>
#include <stdexcept>

namespace dfsim {

std::string to_string(RoutingKind kind) {
  switch (kind) {
    case RoutingKind::kMin: return "MIN";
    case RoutingKind::kValiant: return "VAL";
    case RoutingKind::kUgalL: return "UGAL-L";
    case RoutingKind::kUgalG: return "UGAL-G";
    case RoutingKind::kPiggyback: return "PB";
    case RoutingKind::kOlm: return "OLM";
    case RoutingKind::kCbBase: return "Base";
    case RoutingKind::kCbHybrid: return "Hybrid";
    case RoutingKind::kCbEctn: return "ECtN";
    case RoutingKind::kArn: return "ARN";
  }
  return "?";
}

std::string to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kDragonfly: return "dragonfly";
    case TopologyKind::kFbfly: return "fbfly";
    case TopologyKind::kTorus: return "torus";
  }
  return "?";
}

TopologyKind topology_kind_from_string(const std::string& name) {
  if (name == "dragonfly" || name == "df") return TopologyKind::kDragonfly;
  if (name == "fbfly" || name == "flattened-butterfly" || name == "fb") {
    return TopologyKind::kFbfly;
  }
  if (name == "torus" || name == "ring") return TopologyKind::kTorus;
  throw std::invalid_argument("unknown topology: " + name +
                              " (expected dragonfly|fbfly|torus)");
}

RoutingKind routing_kind_from_string(const std::string& name) {
  auto lower = [](std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    return s;
  };
  const std::string n = lower(name);
  if (n == "min") return RoutingKind::kMin;
  if (n == "val" || n == "valiant") return RoutingKind::kValiant;
  if (n == "ugal-l" || n == "ugall") return RoutingKind::kUgalL;
  if (n == "ugal-g" || n == "ugalg") return RoutingKind::kUgalG;
  if (n == "pb" || n == "piggyback") return RoutingKind::kPiggyback;
  if (n == "olm") return RoutingKind::kOlm;
  if (n == "base" || n == "cb" || n == "cb-base") return RoutingKind::kCbBase;
  if (n == "hybrid" || n == "cb-hybrid") return RoutingKind::kCbHybrid;
  if (n == "ectn" || n == "cb-ectn") return RoutingKind::kCbEctn;
  if (n == "arn" || n == "notify") return RoutingKind::kArn;
  throw std::invalid_argument("unknown routing mechanism: " + name);
}

std::string to_string(GlobalMisroutePolicy policy) {
  return policy == GlobalMisroutePolicy::kMmL ? "MM+L" : "CRG";
}

GlobalMisroutePolicy global_policy_from_string(const std::string& name) {
  if (name == "MM+L" || name == "mml" || name == "MML") {
    return GlobalMisroutePolicy::kMmL;
  }
  if (name == "CRG" || name == "crg") return GlobalMisroutePolicy::kCrg;
  throw std::invalid_argument("unknown global misroute policy: " + name +
                              " (expected MM+L|CRG)");
}

namespace presets {

SimParams paper() {
  SimParams p;
  p.topo = TopoParams{8, 16, 8};
  return p;
}

SimParams medium() {
  SimParams p;
  p.topo = TopoParams{4, 8, 4};
  return p;
}

SimParams small() {
  SimParams p;
  p.topo = TopoParams{3, 6, 3};
  p.routing.contention_threshold = 5;
  return p;
}

SimParams tiny() {
  SimParams p;
  p.topo = TopoParams{2, 4, 2};
  p.routing.contention_threshold = 4;
  // Short links keep base latency low at smoke scale.
  p.link.local_latency = 5;
  p.link.global_latency = 20;
  return p;
}

SimParams exa() {
  SimParams p;
  p.topo = TopoParams{10, 48, 44};  // 2113 groups, 101424 routers, ~1.01M nodes
  return p;
}

namespace {

// Shared non-dragonfly baseline: unit packets so `load` is packets/node/
// cycle, uniform short links, one buffer class.
SimParams flat_base(std::int32_t buf_packets) {
  SimParams p;
  p.packet_size_phits = 1;
  p.router.pipeline_cycles = 1;
  p.router.vcs_injection = 1;
  p.router.buf_local_phits = buf_packets;
  p.router.buf_global_phits = buf_packets;
  p.router.injection_queue_packets = 512;
  p.link.local_latency = 3;
  p.link.global_latency = 3;
  p.router.through_priority = true;
  return p;
}

}  // namespace

SimParams fbfly(std::int32_t k, std::int32_t n, std::int32_t c,
                std::int32_t buf_packets) {
  SimParams p = flat_base(buf_packets);
  p.topology = TopologyKind::kFbfly;
  p.fbfly = FbflyParams{k, n, c};
  p.router.vcs_local = 2;   // one VC class per Valiant phase
  p.router.vcs_global = 2;
  // Auto threshold: all c injection heads aligned on one channel. The
  // unified engine's counters observe every queue head (not just the
  // injection heads the old forked simulator sampled), so c aligned heads
  // fire reliably under adversarial patterns while random uniform alignment
  // stays very unlikely.
  p.routing.contention_threshold = std::max(2, c);
  p.routing.hybrid_contention_threshold =
      std::max(1, p.routing.contention_threshold / 2);
  p.routing.allow_local_misroute = false;  // no local-detour analogue
  return p;
}

SimParams torus(std::int32_t k, std::int32_t n, std::int32_t c,
                std::int32_t buf_packets) {
  SimParams p = flat_base(buf_packets);
  p.topology = TopologyKind::kTorus;
  p.torus = TorusParams{k, n, c};
  p.router.vcs_local = 4;   // dateline x Valiant-phase classes
  p.router.vcs_global = 4;
  p.routing.contention_threshold = std::max(2, c);
  p.routing.hybrid_contention_threshold =
      std::max(1, p.routing.contention_threshold / 2);
  p.routing.allow_local_misroute = false;
  return p;
}

SimParams with_link_faults(SimParams base, double fraction,
                           const std::string& link_class, Cycle onset) {
  base.fault.enabled = true;
  base.fault.link_fail_fraction = fraction;
  base.fault.link_class = link_class;
  base.fault.onset = onset;
  return base;
}

SimParams by_name(const std::string& name) {
  if (name == "paper") return paper();
  if (name == "medium") return medium();
  if (name == "small") return small();
  if (name == "tiny") return tiny();
  if (name == "exa") return exa();
  throw std::invalid_argument("unknown preset/scale: " + name +
                              " (expected tiny|small|medium|paper|exa)");
}

}  // namespace presets

}  // namespace dfsim
