// Execution helpers for registered experiments: a RunContext carrying the
// scale preset + cycle budget + user overrides, and panel executors that
// fan (series x x-tick) steady grids through engine/sweep and transient
// series through engine/experiment, returning schema Panels with every
// SteadyResult metric captured.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/experiment.hpp"
#include "report/schema.hpp"
#include "sim/config.hpp"
#include "sim/config_io.hpp"
#include "sim/param_list.hpp"

namespace dfsim::report {

/// Everything a registered experiment needs to run: the scale's base
/// parameters (with any --config/--set/flag overrides already applied)
/// plus measurement windows and optional user overrides of the x-grid and
/// the mechanism line-up.
struct RunContext {
  SimParams base;
  std::string scale = "medium";
  SteadyOptions options;  // warmup/measure; reps = steady-state default
  int threads = 0;
  /// --loads override (steady load sweeps honor it; other x-axes ignore it).
  std::optional<std::vector<double>> loads;
  /// --routings override of a figure's mechanism line-up.
  std::optional<std::vector<RoutingKind>> lineup;
  /// --reps override; transients otherwise use their own (higher) defaults.
  std::optional<std::int32_t> reps;
  /// --with-ugal appends the UGAL-L/UGAL-G extra baselines to whatever
  /// line-up (default or --routings) is in effect.
  bool with_ugal = false;
  /// The `key = value` assignments the user made, in order, through
  /// --config, --set, or a dfsim_run flag that spells a key. An
  /// experiment's own defaults never override them.
  std::vector<std::pair<std::string, std::string>> assignments;

  /// Applies `key = value` to `base` and records the assignment.
  void set_param(const std::string& key, const std::string& value) {
    apply_param(base, key, value);
    assignments.emplace_back(key, value);
  }
  /// `kind`'s preset at scale `preset` with this context's seed and every
  /// user assignment but `topology` applied on top: the base of a run that
  /// leaves the user's scale or topology.
  [[nodiscard]] SimParams rebased(const std::string& preset,
                                  TopologyKind kind) const {
    SimParams p = presets::preset_for(preset, kind);
    p.seed = base.seed;
    for (const auto& [key, value] : assignments) {
      if (key != "topology") apply_param(p, key, value);
    }
    return p;
  }
  /// Whether the user set the key of `field`, a member of `base`. A trace
  /// path also sets the pattern (traffic.kind becomes TRACE).
  template <class T>
  [[nodiscard]] bool user_set(const T& field) const {
    const std::string_view key = param_key(base, field);
    return std::ranges::any_of(assignments, [key](const auto& set) {
      return set.first == key ||
             (key == "traffic.kind" && set.first == "traffic.trace_path");
    });
  }
  /// An experiment's default for one key: the user's value of `field` (a
  /// member of `base`) when they set its key, else `fallback`. Experiments
  /// write it into `base` only where the default belongs in the config hash.
  template <class T>
  [[nodiscard]] T user_or(const T& field,
                          const std::type_identity_t<T>& fallback) const {
    return user_set(field) ? field : fallback;
  }

  [[nodiscard]] std::vector<double> loads_or(
      const std::vector<double>& defaults) const {
    return loads && !loads->empty() ? *loads : defaults;
  }
  [[nodiscard]] std::vector<RoutingKind> lineup_or(
      const std::vector<RoutingKind>& defaults) const {
    std::vector<RoutingKind> result =
        lineup && !lineup->empty() ? *lineup : defaults;
    if (with_ugal) {
      result.push_back(RoutingKind::kUgalL);
      result.push_back(RoutingKind::kUgalG);
    }
    return result;
  }
  [[nodiscard]] std::int32_t reps_or(std::int32_t fallback) const {
    return reps ? *reps : fallback;
  }
};

/// One line of a grid panel (a routing mechanism, a threshold variant, ...).
struct GridSeries {
  std::string label;
  std::function<void(SimParams&)> mutate;  // applied after the x mutation
};

/// One x tick of a grid panel.
struct GridTick {
  std::string label;
  double value = 0.0;  // NaN for categorical axes
  std::function<void(SimParams&)> mutate;
};

/// Runs the full (tick x series) matrix as one parallel sweep and captures
/// every SteadyResult metric.
[[nodiscard]] Panel run_grid_panel(const std::string& name,
                                   const std::string& x_label,
                                   const SimParams& base,
                                   const std::vector<GridTick>& ticks,
                                   const std::vector<GridSeries>& series,
                                   const SteadyOptions& options, int threads);

/// Mechanisms-by-loads grid, the shape most figures share.
[[nodiscard]] Panel run_load_grid(const std::string& name,
                                  const SimParams& base,
                                  const std::vector<RoutingKind>& mechanisms,
                                  const std::vector<double>& loads,
                                  const SteadyOptions& options, int threads);

/// Ticks helper: loads formatted at `precision` decimals.
[[nodiscard]] std::vector<GridTick> load_ticks(const std::vector<double>& loads,
                                               int precision = 2);
/// Series helper: one GridSeries per routing mechanism.
[[nodiscard]] std::vector<GridSeries> mechanism_series(
    const std::vector<RoutingKind>& mechanisms);

/// One line of a transient panel.
struct TransientSeries {
  std::string label;
  SimParams params;
};

/// Runs every series (parallel across series, reps inside run_transient) and
/// samples latency/misrouted_pct at `step`-spaced cycles with a `window`-
/// cycle smoothing window, as the paper's transient figures do. A series the
/// watchdog stops throws, naming the panel and the series.
[[nodiscard]] Panel run_transient_panel(
    const std::string& name, const std::vector<TransientSeries>& series,
    const SteadyOptions& options, const TransientOptions& transient,
    Cycle step, Cycle window);

/// Formats a double with fixed decimals (tick labels, notes).
[[nodiscard]] std::string format_fixed(double v, int precision);

/// Human label of a TrafficParams ("ADV+1", "HOTSPOT(n=8,f=0.50)+bursty").
[[nodiscard]] std::string traffic_label(const TrafficParams& traffic);

}  // namespace dfsim::report
