// dfbench: shared pieces of the benchmark binary. Every workload drives the
// dfsim layers from outside, through their public headers only, and returns
// an Outcome: the named metrics, a detail record (sample counts, fingerprints,
// per-check results) and the attempted/failed operation counts.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "report/json.hpp"

namespace dfbench {

using Clock = std::chrono::steady_clock;
using dfsim::report::Json;

/// The seed whose simulated fingerprints are pinned in reference.json; every
/// other seed is held out and runs the invariant checks only.
inline constexpr std::uint64_t kReferenceSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kReferenceSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test mode: minimal timed windows, every check and metric kept.
  bool smoke = false;
  std::string reference_path;
  /// The committed parity goldens the registry workload compares against.
  std::string goldens_dir;
};

struct Outcome {
  Json metrics = Json::object();
  Json record = Json::object();
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  void metric(const std::string& name, double value, const char* unit);
  /// Records a correctness check; a failing one is kept for the report.
  bool check(bool ok, const std::string& what);
};

[[nodiscard]] double seconds_since(Clock::time_point start);
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile (q in [0,1]) of a non-empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// Resident-set field of /proc/self/status ("VmRSS", "VmHWM") in MB.
[[nodiscard]] double proc_status_mb(const char* field);
[[nodiscard]] Json read_json_file(const std::string& path);

/// Compiler, build type and optimisation flags the binary was built with.
[[nodiscard]] Json build_manifest();
/// False when the binary (and so the library it was built with) lacks
/// optimisation or keeps asserts: such timings are refused.
[[nodiscard]] bool optimized_build();

// Timed workloads (engine_bench.cpp, registry_bench.cpp): end-to-end metrics.
[[nodiscard]] bool is_engine_workload(const std::string& name);
[[nodiscard]] Outcome run_engine_workload(const Options& options);
[[nodiscard]] Outcome run_registry_workload(const Options& options);

// The traced run's sections: per-layer metrics.
/// Profiled serial leg plus the 1/2/4-shard legs of the workload's engine
/// config: engine.*, traffic.*, routing.* and trace.* metrics.
void trace_engine(const Options& options, Outcome& out);
/// One registry pass observed through the sweep heartbeat: sweep.*, report.*.
void trace_registry(const Options& options, Outcome& out);

// Per-layer probes timed around single public calls (layer_probes.cpp).
void probe_layers(const Options& options, Outcome& out);

}  // namespace dfbench
