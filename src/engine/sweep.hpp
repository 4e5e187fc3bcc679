// Parallel sweep engine: every (routing x load) point of a figure is an
// independent simulation, so they fan out across a std::thread pool. Results
// come back in input order regardless of scheduling.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "engine/experiment.hpp"
#include "sim/config.hpp"

namespace dfsim {

struct SweepPoint {
  SimParams params;
  SteadyOptions options;
};

/// Runs task(i) for every i in [0, n) on min(workers, n) threads, the
/// calling thread included. When a task throws, no further index is handed
/// out; the workers finish their current task and are joined, and the first
/// exception is rethrown to the caller.
void parallel_for(std::size_t n, int workers,
                  const std::function<void(std::size_t)>& task);

/// Worker count: explicit argument > $DFSIM_THREADS > hardware concurrency,
/// clamped to the number of points.
[[nodiscard]] std::vector<SteadyResult> run_sweep(
    const std::vector<SweepPoint>& points, int threads = 0);

}  // namespace dfsim
