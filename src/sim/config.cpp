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

// Shared grid baseline: unit packets so `load` is packets/node/cycle,
// uniform short links, one buffer class of 16 packets per channel, and an
// auto contention threshold of all c injection heads aligned on one
// channel. The unified engine's counters observe every queue head (not just
// the injection heads the old forked simulator sampled), so c aligned heads
// fire reliably under adversarial patterns while random uniform alignment
// stays very unlikely.
SimParams flat_base(const GridParams& shape) {
  SimParams p;
  p.packet_size_phits = 1;
  p.router.pipeline_cycles = 1;
  p.router.vcs_injection = 1;
  p.router.buf_local_phits = 16;
  p.router.buf_global_phits = 16;
  p.router.injection_queue_packets = 512;
  p.link.local_latency = 3;
  p.link.global_latency = 3;
  p.router.through_priority = true;
  p.routing.contention_threshold = std::max(2, shape.c);
  p.routing.hybrid_contention_threshold =
      std::max(1, p.routing.contention_threshold / 2);
  p.routing.allow_local_misroute = false;  // no local-detour analogue
  return p;
}

}  // namespace

SimParams fbfly(const GridParams& shape) {
  SimParams p = flat_base(shape);
  p.topology = TopologyKind::kFbfly;
  p.fbfly = shape;
  p.router.vcs_local = 2;   // one VC class per Valiant phase
  p.router.vcs_global = 2;
  return p;
}

SimParams torus(const GridParams& shape) {
  SimParams p = flat_base(shape);
  p.topology = TopologyKind::kTorus;
  p.torus = shape;
  p.router.vcs_local = 4;   // dateline x Valiant-phase classes
  p.router.vcs_global = 4;
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

std::span<const Scale> scales() {
  // name, dragonfly, fbfly {k, n, c}, torus {k, n, c}, warmup, measure,
  // perf_cycles (exa: ~100k routers, every cycle is costly)
  static const Scale kScales[] = {
      {"tiny", tiny, {{3, 2, 2}}, {{4, 2, 2}}, 1000, 2000, 60000},
      {"small", small, {{4, 2, 2}}, {{6, 2, 2}}, 2000, 3000, 20000},
      {"medium", medium, {{4, 2, 4}}, {{8, 2, 2}}, 2000, 3000, 8000},
      {"paper", paper, {{8, 2, 8}}, {{16, 2, 4}}, 5000, 15000, 600},
      {"exa", exa, {}, {}, 2000, 3000, 200},
  };
  return kScales;
}

const Scale& scale(const std::string& name) {
  std::string known;
  for (const Scale& row : scales()) {
    if (name == row.name) return row;
    known += known.empty() ? "" : "|";
    known += row.name;
  }
  throw std::invalid_argument("unknown preset/scale: " + name + " (expected " +
                              known + ")");
}

SimParams by_name(const std::string& name) { return scale(name).dragonfly(); }

SimParams preset_for(const std::string& name, TopologyKind kind) {
  const Scale& row = scale(name);
  if (kind == TopologyKind::kDragonfly) return row.dragonfly();
  if (kind == TopologyKind::kFbfly && row.fbfly) return fbfly(*row.fbfly);
  if (kind == TopologyKind::kTorus && row.torus) return torus(*row.torus);
  throw std::invalid_argument("scale '" + name + "' has no " +
                              to_string(kind) + " shape");
}

}  // namespace presets

}  // namespace dfsim
