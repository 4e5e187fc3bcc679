// Pluggable traffic/workload model consumed by both simulators.
//
// Design
//  - Everything a pattern needs is pre-resolved per source at setup
//    (permutation tables, adversarial group bases, the hot-node set), so the
//    per-packet hot path is a table lookup plus at most two RNG draws, with
//    zero heap allocation after construction.
//  - The model owns its own RNG, decoupled from the simulator's routing RNG.
//    That makes a recorded trace replay *bit-identical*: replaying the same
//    injection stream leaves the routing RNG consuming the exact same draw
//    sequence as the recording run.
//  - Pull API: the simulator calls begin_cycle(now) once per cycle and then
//    next() until it returns false; each call returns one injection attempt
//    (at most one per node per cycle). Trace replay and synthetic patterns
//    share this interface, so the engines carry no pattern enums at all.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "traffic/spec.hpp"
#include "traffic/trace.hpp"
#include "util/memory_report.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dfsim {

/// Topology facts a traffic model needs: terminal count plus a partition of
/// terminals into `groups` contiguous blocks of `nodes_per_group` (dragonfly
/// groups; fbfly routers). `adv_group` maps (source group, offset) to the
/// adversarial target group; when unset, the ring (g + offset) mod groups is
/// used. Consulted at setup only — never on the hot path.
struct TrafficTopologyInfo {
  std::int32_t nodes = 0;
  std::int32_t groups = 1;
  std::int32_t nodes_per_group = 0;
  std::function<std::int32_t(std::int32_t group, std::int32_t offset)>
      adv_group;
};

struct Injection {
  NodeId src = 0;
  NodeId dst = 0;
};

class TrafficModel {
 public:
  /// `packet_size_phits` converts spec.load (phits/node/cycle) into the
  /// per-node packet injection probability. Throws std::invalid_argument on
  /// inconsistent topology info and std::runtime_error on unreadable traces.
  TrafficModel(const TrafficParams& spec, const TrafficTopologyInfo& topo,
               std::int32_t packet_size_phits, std::uint64_t seed);

  /// Swaps the workload mid-run (transient experiments). Rebuilds the
  /// pattern tables (may allocate); the RNG stream continues.
  void reset_spec(const TrafficParams& spec);

  /// Restricts this instance to source nodes in [lo, hi): next() scans only
  /// that range and trace replay serves only records whose src falls inside
  /// it. Destination draws still span all nodes. Sharded simulations give
  /// each shard its own model restricted to the shard's node range; the
  /// default (full range) leaves every draw sequence untouched.
  void restrict_nodes(NodeId lo, NodeId hi);

  // --- hot path: begin_cycle once per cycle, then next() until false.
  void begin_cycle(Cycle now);
  bool next(Injection& out);

  // --- trace recording: every subsequent injection attempt is appended to
  // an in-memory buffer (cycle made relative to the first recorded cycle).
  void start_recording(std::size_t reserve_records);
  [[nodiscard]] bool recording() const { return recording_; }
  [[nodiscard]] const std::vector<TraceRecord>& recorded() const {
    return recorded_;
  }
  void write_recorded(const std::string& path) const;
  /// Record-buffer growths past the reserve (zero-alloc accounting).
  [[nodiscard]] std::int64_t record_growth_events() const {
    return record_growth_;
  }
  /// Heap bytes of the pre-resolved pattern tables and trace buffers.
  [[nodiscard]] std::size_t heap_bytes() const {
    return vector_bytes(perm_) + vector_bytes(adv_base_) +
           vector_bytes(hot_nodes_) + vector_bytes(on_) +
           vector_bytes(replay_) + vector_bytes(recorded_);
  }

  [[nodiscard]] const TrafficParams& spec() const { return spec_; }
  [[nodiscard]] const TrafficTopologyInfo& topology() const { return topo_; }

  /// Draws (or looks up) a destination for `src`. Exposed for tests:
  /// deterministic for the permutation patterns, a fresh draw otherwise.
  [[nodiscard]] NodeId draw_dest(NodeId src);
  /// Advances the injection process for node `src` by one cycle and reports
  /// whether it injects. Exposed for the rate tests.
  [[nodiscard]] bool draw_injects(NodeId src);

 private:
  void build_tables();
  [[nodiscard]] NodeId uniform_excluding(NodeId src);
  /// draw_injects against an explicit RNG (next() loops on a local copy).
  [[nodiscard]] bool injects(NodeId src, Rng& rng);

  TrafficParams spec_;
  TrafficTopologyInfo topo_;
  std::int32_t psize_ = 1;
  Rng rng_;

  // Pre-resolved pattern state.
  double inject_prob_ = 0.0;              // packets/node/cycle
  std::vector<std::int32_t> perm_;        // permutation patterns: dst per src
  std::vector<std::int32_t> adv_base_;    // per group: target-group first node
  std::vector<std::int32_t> hot_nodes_;   // hotspot target set
  // Bursty on/off process (alpha: off->on, beta: on->off per cycle).
  double p_on_ = 0.0;
  double alpha_ = 0.0;
  double beta_ = 0.0;
  std::vector<std::uint8_t> on_;
  // Integer acceptance bounds (Rng::bool_threshold) for the per-node
  // injection draws — the O(nodes)-per-cycle hot loop. Outcomes are
  // bit-identical to next_bool on the corresponding probability.
  std::uint64_t inject_threshold_ = 0;
  std::uint64_t p_on_threshold_ = 0;
  std::uint64_t alpha_threshold_ = 0;
  std::uint64_t beta_threshold_ = 0;

  // Source-node range (restrict_nodes); defaults to every node.
  NodeId node_lo_ = 0;
  NodeId node_hi_ = 0;

  // Per-cycle iteration state.
  Cycle now_ = 0;
  NodeId node_cursor_ = 0;

  // Trace replay.
  std::vector<TraceRecord> replay_;
  std::size_t replay_cursor_ = 0;
  Cycle replay_base_ = -1;

  // Trace recording.
  bool recording_ = false;
  Cycle record_base_ = -1;
  std::vector<TraceRecord> recorded_;
  std::int64_t record_growth_ = 0;
};

}  // namespace dfsim
