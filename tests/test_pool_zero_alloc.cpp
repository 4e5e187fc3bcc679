// Acceptance gate: Simulator::step() at the medium preset performs zero heap
// allocations after warmup. allocation_events() counts delivery-log,
// outbox and trace-recording growth; it must be flat across the
// post-warmup window. Also pins the packet-id allocator (IdRange) to the
// id sequence of the allocators it replaced, and the memory report's
// accounting of the pool and the dragonfly tables.
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace dfsim;

// Reference models of the two allocators IdRange replaced: the sharded
// engine's stack pre-filled with [lo, hi) in descending order, and the
// serial pool's free list over arrays grown by push_back.
struct PrefilledStack {
  std::vector<std::int32_t> ids;
  PrefilledStack(std::int32_t lo, std::int32_t hi) {
    for (std::int32_t id = hi - 1; id >= lo; --id) ids.push_back(id);
  }
  std::int32_t allocate() {
    if (ids.empty()) return kInvalidPacket;
    const std::int32_t id = ids.back();
    ids.pop_back();
    return id;
  }
  void release(std::int32_t id) { ids.push_back(id); }
};

struct GrowingPool {
  std::int32_t size = 0;
  std::vector<std::int32_t> free;
  std::int32_t allocate() {
    if (free.empty()) return size++;
    const std::int32_t id = free.back();
    free.pop_back();
    return id;
  }
  void release(std::int32_t id) { free.push_back(id); }
};

// A scripted allocate/release walk (allocation-biased, so it reaches
// exhaustion) must yield the same ids from IdRange as from both models.
void test_id_sequence_matches_reference() {
  constexpr std::int32_t kLo = 100;
  constexpr std::int32_t kHi = 164;
  IdRange range(kLo, kHi);
  PrefilledStack stack(kLo, kHi);
  GrowingPool grow;
  std::vector<std::int32_t> live;
  Rng rng(7);
  bool exhausted = false;
  for (int step = 0; step < 4000; ++step) {
    if (live.empty() || rng.next_below(8) < 5) {
      const std::int32_t id = range.allocate();
      assert(id == stack.allocate());
      if (id == kInvalidPacket) {
        exhausted = true;
        continue;
      }
      // The growing pool never runs dry; it numbers from 0.
      assert(id - kLo == grow.allocate());
      live.push_back(id);
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(live.size())));
      const std::int32_t id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      range.release(id);
      stack.release(id);
      grow.release(id - kLo);
    }
    assert(range.high_water() == grow.size);
  }
  assert(exhausted);
  assert(range.high_water() == kHi - kLo);
  std::printf("id sequence matches reference ok\n");
}

// At paper scale the dragonfly holds no routers^2 table, the pool's
// committed bytes are exactly the ids handed out times the packet size,
// and the lazily mapped slab and rings report only their resident pages.
void test_memory_report() {
  SimParams p = presets::paper();
  p.routing.kind = RoutingKind::kCbBase;
  p.traffic.load = 0.3;
  for (const std::int32_t threads : {1, 2}) {
    p.engine.threads = threads;
    Simulator sim(p);
    assert(sim.pool_high_water() == 0);
    // The queue slab and link rings are mapped, not yet touched: the
    // report counts their resident pages, not their full size.
    {
      const MemoryReport fresh = sim.memory_report();
      assert(fresh.reserved("engine.queue_slab") > 0);
      assert(fresh.bytes("engine.queue_slab") <
             fresh.reserved("engine.queue_slab"));
      assert(fresh.bytes("engine.link_rings") <
             fresh.reserved("engine.link_rings"));
    }
    sim.run(200);
    const MemoryReport report = sim.memory_report();
    assert(report.bytes("topology.") < 1024 * 1024);
    assert(report.bytes("topology.") > 0);
    assert(sim.pool_high_water() > 0);
    assert(sim.pool_high_water() <= sim.pool_bound());
    assert(report.bytes("pool.") ==
           static_cast<std::size_t>(sim.pool_high_water()) *
               PacketPool::kBytesPerPacket);
    assert(report.reserved("pool.") ==
           static_cast<std::size_t>(sim.pool_bound()) *
               PacketPool::kBytesPerPacket);
    // Far fewer ids are ever live than the structural bound.
    assert(sim.pool_high_water() * 10 < sim.pool_bound());
    // The shards' id ranges partition the pool.
    std::size_t free_list_reserved = 0;
    for (std::int32_t i = 0; i < threads; ++i) {
      free_list_reserved +=
          report.reserved("shard" + std::to_string(i) + ".free_list");
    }
    assert(free_list_reserved ==
           static_cast<std::size_t>(sim.pool_bound()) * sizeof(std::int32_t));
    // One switch allocator per shard: only the routers' round-robin
    // pointers scale with the router count.
    std::size_t allocator_bytes = 0;
    for (std::int32_t i = 0; i < threads; ++i) {
      const std::string name = "shard" + std::to_string(i) + ".allocator";
      assert(report.bytes(name) > 0);
      allocator_bytes += report.bytes(name);
    }
    assert(allocator_bytes <= 1024 * 1024);
    assert(report.bytes("engine.allocators") == 0);
  }
  std::printf("memory report ok\n");
}

}  // namespace

int main() {
  test_id_sequence_matches_reference();
  test_memory_report();

  SimParams params = presets::medium();
  params.routing.kind = RoutingKind::kCbBase;
  params.traffic.kind = TrafficKind::kUniform;
  params.traffic.load = 0.3;

  Simulator sim(params);
  sim.run(1500);  // reach steady occupancy

  const std::int64_t events_after_warmup = sim.allocation_events();
  sim.run(1000);
  const std::int64_t events_after_measure = sim.allocation_events();

  if (events_after_measure != events_after_warmup) {
    std::fprintf(stderr,
                 "allocation events grew after warmup: %lld -> %lld\n",
                 static_cast<long long>(events_after_warmup),
                 static_cast<long long>(events_after_measure));
    return EXIT_FAILURE;
  }

  // The pooled allocator must also actually recycle: packets were delivered
  // and no more ids were ever handed out than the structural bound.
  assert(sim.metrics().delivered > 0);
  assert(sim.pool_high_water() <= sim.pool_bound());

  // Same property for the adversarial pattern with ECtN (exercises the
  // snapshot path).
  SimParams adv = presets::medium();
  adv.routing.kind = RoutingKind::kCbEctn;
  adv.traffic.kind = TrafficKind::kAdversarial;
  adv.traffic.load = 0.25;
  Simulator sim2(adv);
  sim2.run(1500);
  const std::int64_t base2 = sim2.allocation_events();
  sim2.run(1000);
  if (sim2.allocation_events() != base2) {
    std::fprintf(stderr, "ECtN/ADV run allocated after warmup\n");
    return EXIT_FAILURE;
  }

  // And with the traffic subsystem's skewed/bursty models active: hotspot
  // destinations under a bursty on/off injection process must stay on the
  // pre-resolved zero-allocation hot path too.
  SimParams hot = presets::medium();
  hot.routing.kind = RoutingKind::kCbBase;
  hot.traffic.kind = TrafficKind::kHotspot;
  hot.traffic.hotspot_count = 16;
  hot.traffic.injection = InjectionProcess::kBursty;
  hot.traffic.load = 0.25;
  Simulator sim3(hot);
  sim3.run(1500);
  const std::int64_t base3 = sim3.allocation_events();
  sim3.run(1000);
  if (sim3.allocation_events() != base3) {
    std::fprintf(stderr, "hotspot/bursty run allocated after warmup\n");
    return EXIT_FAILURE;
  }
  assert(sim3.metrics().delivered > 0);

  return EXIT_SUCCESS;
}
