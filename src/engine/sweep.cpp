#include "engine/sweep.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "util/cli.hpp"

namespace dfsim {

void parallel_for(std::size_t n, int workers,
                  const std::function<void(std::size_t)>& task) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;  // the first task exception, guarded by mu
  const auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        task(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        next = n;  // hand out no more work
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < n && t < static_cast<std::size_t>(workers); ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

std::vector<SteadyResult> run_sweep(const std::vector<SimParams>& points,
                                    const SteadyOptions& options, int threads) {
  std::vector<SteadyResult> results(points.size());
  if (threads <= 0) {
    threads = static_cast<int>(
        CliOptions::env_int("DFSIM_THREADS",
                            static_cast<std::int64_t>(
                                std::thread::hardware_concurrency())));
  }
  parallel_for(points.size(), threads, [&](std::size_t i) {
    results[i] = run_steady(points[i], options);
  });
  return results;
}

}  // namespace dfsim
