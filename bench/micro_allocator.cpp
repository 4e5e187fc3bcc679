// Micro-benchmark: separable allocator iteration throughput at several
// radix/VC shapes (simulator hot path #1).
#include <benchmark/benchmark.h>

#include "router/allocator.hpp"
#include "util/rng.hpp"

namespace {

void BM_AllocatorIteration(benchmark::State& state) {
  using namespace dfsim;
  const auto ports = static_cast<std::int32_t>(state.range(0));
  const auto vcs = static_cast<std::int32_t>(state.range(1));
  SeparableAllocator alloc(ports, ports, vcs);
  Rng rng(7);

  AllocRequestBatch requests;
  requests.reserve(ports, vcs);
  for (std::int32_t i = 0; i < ports; ++i) {
    for (VcIndex vc = 0; vc < vcs; ++vc) {
      if (rng.next_bool(0.6)) {
        requests.add(static_cast<PortIndex>(i), vc,
                     static_cast<PortIndex>(rng.next_below(
                         static_cast<std::uint64_t>(ports))));
      }
    }
  }
  std::int64_t grants = 0;
  for (auto _ : state) {
    alloc.begin_cycle();
    const auto g = alloc.iterate(requests);
    grants += static_cast<std::int64_t>(g.size());
    benchmark::DoNotOptimize(grants);
  }
  state.counters["grants/iter"] =
      benchmark::Counter(static_cast<double>(grants),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AllocatorIteration)
    ->Args({15, 3})   // medium preset router
    ->Args({31, 3})   // paper preset router
    ->Args({64, 4});  // stress

}  // namespace
