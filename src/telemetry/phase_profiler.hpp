// Engine phase profiler: wall-time accounting per phase of the engine's
// cycle body, driving `dfsim_run perf --phases` and the BENCH_engine.json
// phase breakdown (which phase actually burns the cycles, and — sharded —
// how long each shard waits for the others).
//
// API-enabled only (Simulator::enable_phase_profiler) — it measures wall
// time, so it has no config key and never enters the config hash. Each
// shard keeps its own profiler; while profiling is off the cycle body takes
// only predicted-false branches and reads no clock.
#pragma once

#include <chrono>
#include <cstdint>

namespace dfsim::telemetry {

enum class Phase : std::uint8_t {
  kFaults = 0,     // fault schedule refresh + purge of dead links' rings
  kDeliver = 1,    // deliver_arrivals
  kInject = 2,     // inject_traffic
  kEctn = 3,       // mechanism update window (any mechanism's update())
  kRoute = 4,      // route_and_allocate
  kTelemetry = 5,  // end of cycle: telemetry flush, next-cycle schedule
  kMerge = 6,      // cross-shard inbox merge (sharded only)
  kBarrier = 7,    // every barrier wait of the cycle (sharded only)
};
inline constexpr std::int32_t kPhaseCount = 8;

[[nodiscard]] constexpr const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kFaults: return "faults";
    case Phase::kDeliver: return "deliver";
    case Phase::kInject: return "inject";
    case Phase::kEctn: return "ectn";
    case Phase::kRoute: return "route";
    case Phase::kTelemetry: return "telemetry";
    case Phase::kMerge: return "merge";
    case Phase::kBarrier: return "barrier";
  }
  return "unknown";
}

class PhaseProfiler {
 public:
  using Clock = std::chrono::steady_clock;

  void reset() {
    for (auto& ns : ns_) ns = 0;
    cycles_ = 0;
  }

  /// Starts a run of `cycles` cycles: counts them and stamps the clock.
  void begin(std::int64_t cycles) {
    cycles_ += cycles;
    last_ = Clock::now();
  }
  /// Charges the time since the last stamp to `phase`, then restamps.
  void lap(Phase phase) {
    const Clock::time_point now = Clock::now();
    ns_[static_cast<std::size_t>(phase)] +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
            .count();
    last_ = now;
  }

  [[nodiscard]] std::int64_t cycles() const { return cycles_; }
  [[nodiscard]] std::int64_t nanoseconds(Phase phase) const {
    return ns_[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] double seconds(Phase phase) const {
    return static_cast<double>(nanoseconds(phase)) * 1e-9;
  }
  [[nodiscard]] double total_seconds() const {
    std::int64_t sum = 0;
    for (const auto ns : ns_) sum += ns;
    return static_cast<double>(sum) * 1e-9;
  }

 private:
  std::int64_t ns_[kPhaseCount] = {};
  std::int64_t cycles_ = 0;
  Clock::time_point last_{};
};

}  // namespace dfsim::telemetry
