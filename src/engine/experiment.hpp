// The guarded run every driver shares, the steady-state and transient
// drivers built on it, and the result structs every figure consumes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/simulator.hpp"
#include "sim/config.hpp"
#include "util/types.hpp"

namespace dfsim {

struct SteadyOptions {
  Cycle warmup = 2000;
  Cycle measure = 3000;
  std::int32_t reps = 1;
  /// No-progress watchdog: a run that goes `progress_window` consecutive
  /// cycles without a single delivery while packets sit in the network
  /// (deadlock / total blackout under a fault schedule) stops early instead
  /// of hanging ctest/CI. Deterministic (cycle-based), and chunked stepping
  /// is bit-exact with one long run, so healthy results are unchanged for
  /// any window. <= 0 disables.
  Cycle progress_window = 50000;
  /// Optional wall-clock cap per guarded segment in seconds; 0 disables. CI
  /// backstop only — tripping it makes results machine-dependent.
  double wall_limit_s = 0.0;
  /// Optional progress heartbeat, invoked after every watchdog chunk with
  /// the sim's current cycle, lifetime deliveries, and wall seconds elapsed
  /// in the current guarded segment. Purely observational — results are
  /// bit-exact with and without it. Null disables.
  std::function<void(Cycle, std::int64_t, double)> heartbeat;
};

/// One seeded, watchdog-checked simulation (rep `rep` runs at seed
/// `params.seed + rep * 7919`). Each run() steps a segment in
/// `progress_window` chunks, fires the heartbeat after each, and stops the
/// run for good on a full window without a delivery or past the wall cap.
/// Callers hook between segments through sim().
class GuardedRun {
 public:
  GuardedRun(const SimParams& params, const SteadyOptions& options,
             std::int32_t rep = 0);

  void run(Cycle cycles);  // steps nothing once stopped
  [[nodiscard]] bool stopped() const { return !stop_.empty(); }
  /// Throws std::runtime_error naming `what`, the cycle and the cause when
  /// the run stopped: for runs with no partial result to report.
  void require_progress(const std::string& what) const;
  [[nodiscard]] Simulator& sim() { return sim_; }

 private:
  SteadyOptions options_;
  Simulator sim_;
  std::string stop_;  // why the run stopped; empty while it runs
};

struct SteadyResult {
  double latency_avg = 0.0;           // cycles, delivered packets
  // Tail latency from the log2-bucketed histogram (util/histogram.hpp) —
  // mean-only latency hides the tails skewed/bursty workloads create.
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double throughput = 0.0;            // accepted phits/node/cycle
  double misrouted_fraction = 0.0;    // globally misrouted share
  double local_misrouted_fraction = 0.0;
  double minimal_path_fraction = 0.0; // delivered fully minimal
  double backlog_per_node = 0.0;      // injection-queue packets per node
  double generated_load = 0.0;        // offered load actually generated
  /// Average count of delivered packets whose latency fell at or beyond the
  /// histogram's tracked range (LatencyHistogram::overflow) — nonzero means
  /// the p50/p95/p99 columns are saturated lower bounds, not estimates.
  double latency_overflow = 0.0;
  // Fault-overlay columns (all 0 for healthy runs).
  double dropped_pct = 0.0;        // in-flight losses, % of accepted packets
  double undeliverable_pct = 0.0;  // hop-cap drops, % of accepted packets
  double dead_traversals = 0.0;    // departures onto down links (must be 0)
  double conservation_error = 0.0; // unaccounted packets (must be 0)
  double timed_out = 0.0;          // share of reps stopped by the watchdog
};

/// Runs warmup + measurement (averaged over `reps` seeds). A rep the
/// watchdog stops counts into `timed_out` instead of throwing, so a grid
/// cell reports its stall next to its metrics.
[[nodiscard]] SteadyResult run_steady(const SimParams& params,
                                      const SteadyOptions& options);

// ---------------------------------------------------------------------------
// Transient experiments (Figures 7-9): traffic switches `before` -> `after`
// at t=0; deliveries are bucketed by *birth* cycle relative to the switch.

/// What a transient adds to the steady options (warmup, reps, watchdog and
/// heartbeat come from SteadyOptions).
struct TransientOptions {
  TrafficParams before;
  TrafficParams after;
  Cycle pre = 50;    // observed cycles before the switch
  Cycle post = 250;  // observed cycles after the switch
  /// Extra cycles simulated past `post` so late-born packets still deliver
  /// into their birth buckets.
  Cycle drain = 2000;
};

class TransientResult {
 public:
  TransientResult(Cycle pre, Cycle post);

  /// Packets born in [t - window/2, t - window/2 + max(1, window)), clipped
  /// to the observed span; all 0 when none were born there.
  struct Window {
    double latency = 0.0;  // mean
    /// p99 from the per-cycle log2-bucketed histograms — the transient tail
    /// spike around a traffic switch is much larger than the mean spike.
    double latency_p99 = 0.0;
    double misrouted_pct = 0.0;  // globally misrouted share
  };
  [[nodiscard]] Window at(Cycle t, Cycle window) const;

  void record(Cycle birth_rel, Cycle latency, bool misrouted);

 private:
  [[nodiscard]] std::size_t index(Cycle t) const {
    return static_cast<std::size_t>(t + pre_);
  }

  Cycle pre_;
  Cycle post_;
  std::vector<std::int64_t> misrouted_;
  std::vector<double> latency_sum_;
  std::vector<LatencyHistogram> hist_;  // per birth-cycle bucket
};

/// Runs the transient over `options.reps` reps. A rep the watchdog stops
/// throws std::runtime_error naming `what` (see GuardedRun::require_progress).
[[nodiscard]] TransientResult run_transient(const SimParams& params,
                                            const SteadyOptions& options,
                                            const TransientOptions& transient,
                                            const std::string& what);

}  // namespace dfsim
