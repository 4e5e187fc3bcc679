// The declarative experiment registry: every paper figure, table, and
// ablation is a registered ExperimentSpec executed through the shared
// runner instead of a standalone bench binary. `dfsim_run` lists and runs
// these; scripts/reproduce.sh runs the whole registry; the paper-parity
// gates and RESULTS.md renderer consume the emitted documents.
#pragma once

#include <string>
#include <vector>

#include "report/runner.hpp"
#include "report/schema.hpp"

namespace dfsim::report {

struct ExperimentSpec {
  const char* name;       // registry key: "fig5a", "ablation_torus", ...
  const char* title;      // figure title used in headers and RESULTS.md
  const char* paper_ref;  // "Fig. 5a", "Sec. VI-B", "beyond the paper"
  TopologyKind topology;  // fbfly/torus: see run_experiment
  const char* description;  // expectations commentary rendered in RESULTS.md
  ResultsDoc (*run)(RunContext& ctx);  // leaves in ctx what it ran with
};

/// All registered experiments, in paper order.
[[nodiscard]] const std::vector<ExperimentSpec>& experiment_registry();

/// nullptr when `name` is not registered.
[[nodiscard]] const ExperimentSpec* find_experiment(const std::string& name);

/// Runs a spec — an fbfly/torus one on its preset at the scale, keeping the
/// user's assignments — and stamps the document header from the context it
/// ran with: the only way results documents are produced.
[[nodiscard]] ResultsDoc run_experiment(const ExperimentSpec& spec,
                                        const RunContext& ctx);

}  // namespace dfsim::report
