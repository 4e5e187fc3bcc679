// Per-layer probes: single public calls of the topology and router layers,
// timed from outside on inputs generated from the benchmark seed. Each probe
// reports the median of several timed repetitions.
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "router/allocator.hpp"
#include "sim/config.hpp"
#include "topo/factory.hpp"
#include "util/rng.hpp"

namespace dfbench {
namespace {

using dfsim::NodeId;
using dfsim::PortIndex;
using dfsim::RouterId;
using dfsim::SimParams;

constexpr int kReps = 5;
constexpr std::size_t kRoutePairs = std::size_t{1} << 16;
constexpr int kRoutePasses = 48;
constexpr int kBatches = 256;
constexpr int kAllocPasses = 64;
/// Share of (input, vc) slots that request an output, as in micro_allocator.
constexpr double kRequestDensity = 0.6;

/// Keeps a computed value observable so the timed loop is not elided.
volatile std::int64_t g_sink = 0;

/// ns per Topology::minimal_output over random (router, destination) pairs.
double min_route_ns(const SimParams& params, std::uint64_t seed, int passes) {
  const std::unique_ptr<dfsim::Topology> topo = dfsim::make_topology(params);
  dfsim::Rng rng(seed);
  std::vector<std::pair<RouterId, NodeId>> pairs(kRoutePairs);
  for (auto& [r, d] : pairs) {
    r = static_cast<RouterId>(
        rng.next_below(static_cast<std::uint64_t>(topo->routers())));
    d = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(topo->nodes())));
  }
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    std::int64_t sum = 0;
    const Clock::time_point start = Clock::now();
    for (int pass = 0; pass < passes; ++pass) {
      for (const auto& [r, d] : pairs) sum += topo->minimal_output(r, d);
    }
    ns.push_back(seconds_since(start) * 1e9 /
                 (static_cast<double>(passes) * kRoutePairs));
    g_sink = g_sink + sum;
  }
  return median(ns);
}

/// ns per SeparableAllocator::iterate (after begin_cycle) on random request
/// batches shaped like a paper-scale router.
double alloc_ns_per_batch(const SimParams& params, std::uint64_t seed,
                          int passes) {
  const std::int32_t radix = params.topo.radix();
  const std::int32_t vcs =
      std::max({params.router.vcs_local, params.router.vcs_global,
                params.router.vcs_injection});
  dfsim::SeparableAllocator alloc(radix, radix, vcs);
  dfsim::Rng rng(seed);
  std::vector<dfsim::AllocRequestBatch> batches(kBatches);
  for (dfsim::AllocRequestBatch& batch : batches) {
    batch.reserve(radix, vcs);
    for (std::int32_t in = 0; in < radix; ++in) {
      for (dfsim::VcIndex vc = 0; vc < vcs; ++vc) {
        if (rng.next_bool(kRequestDensity)) {
          batch.add(static_cast<PortIndex>(in), vc,
                    static_cast<PortIndex>(rng.next_below(
                        static_cast<std::uint64_t>(radix))));
        }
      }
    }
  }
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    std::int64_t grants = 0;
    const Clock::time_point start = Clock::now();
    for (int pass = 0; pass < passes; ++pass) {
      for (const dfsim::AllocRequestBatch& batch : batches) {
        alloc.begin_cycle();
        grants += static_cast<std::int64_t>(alloc.iterate(batch).size());
      }
    }
    ns.push_back(seconds_since(start) * 1e9 /
                 (static_cast<double>(passes) * kBatches));
    g_sink = g_sink + grants;
  }
  return median(ns);
}

double topology_build_s(const SimParams& params) {
  std::vector<double> s;
  for (int rep = 0; rep < kReps; ++rep) {
    const Clock::time_point start = Clock::now();
    const std::unique_ptr<dfsim::Topology> topo = dfsim::make_topology(params);
    s.push_back(seconds_since(start));
    g_sink = g_sink + topo->routers();
  }
  return median(s);
}

}  // namespace

void probe_layers(const Options& options, Outcome& out) {
  const SimParams paper = dfsim::presets::by_name("paper");
  const SimParams tiny = dfsim::presets::by_name("tiny");
  const int route_passes = options.smoke ? 1 : kRoutePasses;
  const int alloc_passes = options.smoke ? 1 : kAllocPasses;
  out.metric("topo.min_route_ns_paper",
             min_route_ns(paper, options.seed, route_passes), "ns");
  out.metric("topo.min_route_ns_tiny",
             min_route_ns(tiny, options.seed, route_passes), "ns");
  out.metric("topo.build_s_paper", topology_build_s(paper), "s");
  out.metric("router.alloc_ns_per_batch",
             alloc_ns_per_batch(paper, options.seed, alloc_passes), "ns");
}

}  // namespace dfbench
