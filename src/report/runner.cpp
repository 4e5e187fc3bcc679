#include "report/runner.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "engine/sweep.hpp"

namespace dfsim::report {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The standard steady-state metric set captured for every grid cell.
/// misrouted/minpath shares are stored as percentages (paper units).
const std::vector<std::string>& steady_metric_names() {
  static const std::vector<std::string> kNames{
      "latency_avg",    "latency_p50",     "latency_p95",
      "latency_p99",    "throughput",      "misrouted_pct",
      "local_misrouted_pct", "minpath_pct", "backlog_per_node",
      "generated_load", "latency_overflow",
      // Fault-overlay columns — all exactly 0 for healthy runs. Golden
      // comparison iterates the *golden's* metric list, so pre-fault goldens
      // stay valid without regeneration.
      "dropped_pct",    "undeliverable_pct", "dead_traversals",
      "conservation_error", "timed_out"};
  return kNames;
}

std::vector<double> steady_metric_values(const SteadyResult& r) {
  return {r.latency_avg,
          r.latency_p50,
          r.latency_p95,
          r.latency_p99,
          r.throughput,
          100.0 * r.misrouted_fraction,
          100.0 * r.local_misrouted_fraction,
          100.0 * r.minimal_path_fraction,
          r.backlog_per_node,
          r.generated_load,
          r.latency_overflow,
          r.dropped_pct,
          r.undeliverable_pct,
          r.dead_traversals,
          r.conservation_error,
          r.timed_out};
}

}  // namespace

std::string format_fixed(double v, int precision) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

Panel run_grid_panel(const std::string& name, const std::string& x_label,
                     const SimParams& base, const std::vector<GridTick>& ticks,
                     const std::vector<GridSeries>& series,
                     const SteadyOptions& options, int threads) {
  std::vector<SimParams> points;
  points.reserve(ticks.size() * series.size());
  for (const GridTick& tick : ticks) {
    for (const GridSeries& line : series) {
      SimParams& p = points.emplace_back(base);
      if (tick.mutate) tick.mutate(p);
      if (line.mutate) line.mutate(p);
    }
  }
  const std::vector<SteadyResult> results = run_sweep(points, options, threads);

  Panel panel;
  panel.name = name;
  panel.kind = Panel::Kind::kGrid;
  panel.x_label = x_label;
  for (const GridTick& tick : ticks) {
    panel.x_labels.push_back(tick.label);
    panel.x_values.push_back(tick.value);
  }
  for (const GridSeries& line : series) panel.series.push_back(line.label);

  const auto& metric_names = steady_metric_names();
  panel.metrics.reserve(metric_names.size());
  for (const std::string& metric : metric_names) {
    panel.metrics.emplace_back(
        metric, std::vector<std::vector<double>>(
                    ticks.size(), std::vector<double>(series.size(), kNaN)));
  }
  for (std::size_t xi = 0; xi < ticks.size(); ++xi) {
    for (std::size_t si = 0; si < series.size(); ++si) {
      const std::vector<double> values =
          steady_metric_values(results[xi * series.size() + si]);
      for (std::size_t mi = 0; mi < values.size(); ++mi) {
        panel.metrics[mi].second[xi][si] = values[mi];
      }
    }
  }
  return panel;
}

std::vector<GridTick> load_ticks(const std::vector<double>& loads,
                                 int precision) {
  std::vector<GridTick> ticks;
  ticks.reserve(loads.size());
  for (const double load : loads) {
    ticks.push_back(GridTick{
        format_fixed(load, precision), load,
        [load](SimParams& p) { p.traffic.load = load; }});
  }
  return ticks;
}

std::vector<GridSeries> mechanism_series(
    const std::vector<RoutingKind>& mechanisms) {
  std::vector<GridSeries> series;
  series.reserve(mechanisms.size());
  for (const RoutingKind kind : mechanisms) {
    series.push_back(GridSeries{
        to_string(kind), [kind](SimParams& p) { p.routing.kind = kind; }});
  }
  return series;
}

Panel run_load_grid(const std::string& name, const SimParams& base,
                    const std::vector<RoutingKind>& mechanisms,
                    const std::vector<double>& loads,
                    const SteadyOptions& options, int threads) {
  return run_grid_panel(name, "load", base, load_ticks(loads),
                        mechanism_series(mechanisms), options, threads);
}

Panel run_transient_panel(const std::string& name,
                          const std::vector<TransientSeries>& series,
                          const SteadyOptions& options,
                          const TransientOptions& transient, Cycle step,
                          Cycle window) {
  std::vector<TransientResult> results(
      series.size(), TransientResult(transient.pre, transient.post));
  // One worker per series: each run_transient is single-threaded and the
  // series count is small (<= 6).
  parallel_for(series.size(), static_cast<int>(series.size()),
               [&](std::size_t i) {
                 results[i] = run_transient(
                     series[i].params, options, transient,
                     "panel '" + name + "' series " + series[i].label);
               });

  Panel panel;
  panel.name = name;
  panel.kind = Panel::Kind::kTransient;
  panel.x_label = "cycle";
  for (const TransientSeries& line : series) {
    panel.series.push_back(line.label);
  }
  std::vector<std::vector<double>> latency;
  std::vector<std::vector<double>> misrouted;
  std::vector<std::vector<double>> p99;
  for (Cycle t = -transient.pre; t < transient.post; t += step) {
    panel.x_labels.push_back(std::to_string(t));
    panel.x_values.push_back(static_cast<double>(t));
    std::vector<double> lat_row(series.size(), kNaN);
    std::vector<double> mis_row(series.size(), kNaN);
    std::vector<double> p99_row(series.size(), kNaN);
    for (std::size_t si = 0; si < series.size(); ++si) {
      const TransientResult::Window w = results[si].at(t, window);
      lat_row[si] = w.latency;
      mis_row[si] = w.misrouted_pct;
      p99_row[si] = w.latency_p99;
    }
    latency.push_back(std::move(lat_row));
    misrouted.push_back(std::move(mis_row));
    p99.push_back(std::move(p99_row));
  }
  panel.metrics.emplace_back("latency_avg", std::move(latency));
  panel.metrics.emplace_back("misrouted_pct", std::move(misrouted));
  // Schema-additive: golden comparison iterates the golden's metric list,
  // so transient goldens recorded before this column stay valid.
  panel.metrics.emplace_back("latency_p99", std::move(p99));
  return panel;
}

std::string traffic_label(const TrafficParams& traffic) {
  std::string label = to_string(traffic.kind);
  switch (traffic.kind) {
    case TrafficKind::kAdversarial:
      label += "+";
      label += std::to_string(traffic.adv_offset);
      break;
    case TrafficKind::kMixed:
      label += "(un=";
      label += format_fixed(traffic.mixed_uniform_fraction, 2);
      label += ")";
      break;
    case TrafficKind::kShift:
      label += "(";
      label += std::to_string(traffic.shift_offset);
      label += ")";
      break;
    case TrafficKind::kHotspot:
      label += "(n=";
      label += std::to_string(traffic.hotspot_count);
      label += ",f=";
      label += format_fixed(traffic.hotspot_fraction, 2);
      label += ")";
      break;
    case TrafficKind::kTrace:
      label += "(";
      label += traffic.trace_path;
      label += ")";
      break;
    default:
      break;
  }
  if (traffic.injection == InjectionProcess::kBursty) label += "+bursty";
  return label;
}

}  // namespace dfsim::report
