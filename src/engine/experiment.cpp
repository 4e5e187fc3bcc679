#include "engine/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace dfsim {

GuardedRun::GuardedRun(const SimParams& params, const SteadyOptions& options,
                       std::int32_t rep)
    : options_(options), sim_([&] {
        SimParams seeded = params;
        seeded.seed += static_cast<std::uint64_t>(rep) * 7919u;
        return seeded;
      }()) {}

// Chunked stepping is bit-exact with one long run — run(a); run(b) is
// identical to run(a + b) — so healthy results are unchanged by the window.
void GuardedRun::run(Cycle cycles) {
  const Cycle window = options_.progress_window;
  const Cycle chunk = window > 0 ? window : cycles;
  const auto start = std::chrono::steady_clock::now();
  for (Cycle remaining = cycles; remaining > 0 && !stopped();) {
    const Cycle step = std::min(remaining, chunk);
    const std::int64_t delivered_before = sim_.lifetime_totals().delivered;
    sim_.run(step);
    remaining -= step;
    const std::int64_t delivered = sim_.lifetime_totals().delivered;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (options_.heartbeat) {
      options_.heartbeat(sim_.now(), delivered, elapsed.count());
    }
    if (step == window && delivered == delivered_before &&
        sim_.packets_in_network() > 0) {
      stop_ = "no packet delivered in " + std::to_string(window) +
              " cycles with " + std::to_string(sim_.packets_in_network()) +
              " packets in the network";
    } else if (options_.wall_limit_s > 0.0 &&
               elapsed.count() > options_.wall_limit_s) {
      stop_ = "wall-clock limit reached";
    }
  }
}

void GuardedRun::require_progress(const std::string& what) const {
  if (!stopped()) return;
  throw std::runtime_error(what + ": stalled at cycle " +
                           std::to_string(sim_.now()) + ": " + stop_);
}

SteadyResult run_steady(const SimParams& params, const SteadyOptions& options) {
  const std::int32_t reps = options.reps < 1 ? 1 : options.reps;
  SteadyResult acc;
  // Tail quantiles are order statistics, not means: averaging per-rep p99s
  // is NOT the p99 of the combined sample (a single congested rep's tail
  // disappears into the average). The reps' histograms are merged and the
  // quantiles read once from the pooled distribution; the remaining metrics
  // are true means and keep the per-rep average.
  LatencyHistogram pooled;
  for (std::int32_t rep = 0; rep < reps; ++rep) {
    GuardedRun run(params, options, rep);
    Simulator& sim = run.sim();
    run.run(options.warmup);
    sim.begin_measurement();
    run.run(options.measure);
    if (run.stopped()) acc.timed_out += 1.0;

    const Simulator::Metrics& m = sim.metrics();
    pooled.merge(m.latency_hist);
    acc.latency_avg += m.mean_latency();
    acc.throughput += sim.throughput();
    acc.misrouted_fraction += m.misrouted_fraction();
    acc.local_misrouted_fraction +=
        m.delivered > 0 ? static_cast<double>(m.local_misrouted) /
                              static_cast<double>(m.delivered)
                        : 0.0;
    acc.minimal_path_fraction += m.minimal_path_fraction();
    acc.backlog_per_node += sim.backlog_per_node();
    // metrics() was reset at begin_measurement, so `generated` covers the
    // measure window only; the accessor guards the zero-length-window case.
    acc.generated_load += sim.generated_load();
    // Fault-overlay columns, from lifetime totals so a fault firing during
    // warmup is still visible in the measured row.
    const Simulator::Totals& t = sim.lifetime_totals();
    const double accepted =
        static_cast<double>(t.generated - t.refused) > 0.0
            ? static_cast<double>(t.generated - t.refused)
            : 1.0;
    acc.dropped_pct += 100.0 * static_cast<double>(t.dropped) / accepted;
    acc.undeliverable_pct +=
        100.0 * static_cast<double>(t.undeliverable) / accepted;
    acc.dead_traversals += static_cast<double>(m.dead_link_hops);
    const std::int64_t cons = sim.conservation_error();
    acc.conservation_error += static_cast<double>(cons < 0 ? -cons : cons);
  }
  const auto n = static_cast<double>(reps);
  acc.latency_avg /= n;
  acc.latency_p50 = pooled.quantile(0.50);
  acc.latency_p95 = pooled.quantile(0.95);
  acc.latency_p99 = pooled.quantile(0.99);
  acc.throughput /= n;
  acc.misrouted_fraction /= n;
  acc.local_misrouted_fraction /= n;
  acc.minimal_path_fraction /= n;
  acc.backlog_per_node /= n;
  acc.generated_load /= n;
  acc.latency_overflow = static_cast<double>(pooled.overflow()) / n;
  acc.dropped_pct /= n;
  acc.undeliverable_pct /= n;
  acc.dead_traversals /= n;
  acc.conservation_error /= n;
  acc.timed_out /= n;
  return acc;
}

TransientResult::TransientResult(Cycle pre, Cycle post)
    : pre_(pre),
      post_(post),
      misrouted_(static_cast<std::size_t>(pre + post), 0),
      latency_sum_(static_cast<std::size_t>(pre + post), 0.0),
      hist_(static_cast<std::size_t>(pre + post)) {}

void TransientResult::record(Cycle birth_rel, Cycle latency, bool misrouted) {
  if (birth_rel < -pre_ || birth_rel >= post_) return;
  const std::size_t i = index(birth_rel);
  if (misrouted) ++misrouted_[i];
  latency_sum_[i] += static_cast<double>(latency);
  hist_[i].add(latency);
}

TransientResult::Window TransientResult::at(Cycle t, Cycle window) const {
  const Cycle lo = std::max<Cycle>(-pre_, t - window / 2);
  const Cycle hi =
      std::min<Cycle>(post_, t - window / 2 + std::max<Cycle>(1, window));
  std::int64_t misrouted = 0;
  double latency_sum = 0.0;
  LatencyHistogram merged;
  for (Cycle c = lo; c < hi; ++c) {
    misrouted += misrouted_[index(c)];
    latency_sum += latency_sum_[index(c)];
    merged.merge(hist_[index(c)]);
  }
  const auto n = static_cast<double>(merged.total());
  if (n == 0.0) return {};
  return {latency_sum / n, merged.quantile(0.99),
          100.0 * static_cast<double>(misrouted) / n};
}

TransientResult run_transient(const SimParams& params,
                              const SteadyOptions& options,
                              const TransientOptions& transient,
                              const std::string& what) {
  TransientResult result(transient.pre, transient.post);
  SimParams before = params;
  before.traffic = transient.before;
  const std::int32_t reps = options.reps < 1 ? 1 : options.reps;
  for (std::int32_t rep = 0; rep < reps; ++rep) {
    GuardedRun run(before, options, rep);
    Simulator& sim = run.sim();
    run.run(options.warmup);
    sim.enable_delivery_log();
    run.run(transient.pre);
    const Cycle switch_cycle = sim.now();
    sim.set_traffic(transient.after);
    run.run(transient.post + transient.drain);
    run.require_progress(what);

    for (const Simulator::Delivery& d : sim.delivery_log()) {
      result.record(d.birth - switch_cycle, d.latency, d.misrouted);
    }
  }
  return result;
}

}  // namespace dfsim
