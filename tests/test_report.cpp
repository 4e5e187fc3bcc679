// Report-layer unit tests: JSON canonical round-trip (emit -> parse ->
// re-emit byte-identical), schema document round-trip, config-hash
// stability and sensitivity, and a parity-gate self-test where a
// deliberately corrupted golden must fail while the pristine one passes;
// and a point that throws inside a parallel sweep or transient panel
// reaches the caller as its exception instead of ending the process.
#include <cassert>
#include <cmath>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "engine/sweep.hpp"
#include "report/json.hpp"
#include "report/parity.hpp"
#include "report/registry.hpp"
#include "report/render.hpp"
#include "report/runner.hpp"
#include "report/schema.hpp"
#include "sim/config_io.hpp"

using namespace dfsim;
using namespace dfsim::report;

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------

void test_json_roundtrip() {
  Json root = Json::object();
  root.set("string", Json("hi \"there\"\nline2\ttab"));
  root.set("bool_t", Json(true));
  root.set("bool_f", Json(false));
  root.set("null", Json());
  root.set("int", Json(42.0));
  root.set("neg", Json(-17.0));
  root.set("zero", Json(0.0));
  root.set("neg_zero", Json(-0.0));
  Json numbers = Json::array();
  // Awkward doubles: non-terminating binary fractions, tiny/huge exponents,
  // values needing all 17 digits.
  for (const double v : {0.1, 1.0 / 3.0, 2.5e-17, 6.02214076e23, 123.456,
                         0.30000000000000004, 1e-300, -3.5}) {
    numbers.push_back(Json(v));
  }
  root.set("numbers", std::move(numbers));
  Json nested = Json::array();
  Json row = Json::array();
  row.push_back(Json(1.0));
  row.push_back(Json());
  nested.push_back(std::move(row));
  root.set("nested", std::move(nested));

  const std::string once = root.dump();
  const std::string twice = Json::parse(once).dump();
  assert(once == twice && "emit -> parse -> re-emit must be byte-identical");
  const std::string thrice = Json::parse(twice).dump();
  assert(twice == thrice);

  // Parsed values survive exactly.
  const Json back = Json::parse(once);
  assert(back.get("numbers").at(0).as_number() == 0.1);
  assert(back.get("numbers").at(1).as_number() == 1.0 / 3.0);
  assert(back.get("string").as_string() == "hi \"there\"\nline2\ttab");
  assert(back.get("null").is_null());
  assert(back.get("neg_zero").as_number() == 0.0);

  // Non-finite numbers serialize as null (missing data).
  assert(Json::number_to_string(kNaN) == "null");

  // Parse errors throw instead of corrupting.
  bool threw = false;
  try {
    (void)Json::parse("{\"unterminated\": ");
  } catch (const std::exception&) {
    threw = true;
  }
  assert(threw);
  std::cout << "json roundtrip ok\n";
}

ResultsDoc make_test_doc() {
  ResultsDoc doc;
  doc.header.experiment = "fig5b";
  doc.header.title = "test doc";
  doc.header.paper_ref = "Fig. 5b";
  doc.header.topology = "dragonfly";
  doc.header.scale = "tiny";
  doc.header.nodes = 72;
  doc.header.config_hash = config_hash(presets::tiny());
  doc.header.git_rev = "";
  doc.header.seed = 1;
  doc.header.warmup = 1000;
  doc.header.measure = 2000;
  doc.header.reps = 1;

  Panel panel;
  panel.name = "ADV+1";
  panel.kind = Panel::Kind::kGrid;
  panel.x_label = "load";
  panel.x_labels = {"0.10", "0.45"};
  panel.x_values = {0.10, 0.45};
  panel.series = {"MIN", "VAL", "PB", "OLM", "Base", "Hybrid", "ECtN"};
  // Shaped like the paper: MIN collapsed, VAL bounded at 0.5, ECtN's
  // latency under PB/OLM, counters recovering Valiant bandwidth.
  panel.metrics.emplace_back(
      "latency_avg",
      std::vector<std::vector<double>>{
          {300.0, 260.0, 250.0, 245.0, 235.0, 238.0, 230.0},
          {kNaN, 280.0, 290.0, 285.0, 260.0, 262.0, 255.0}});
  panel.metrics.emplace_back(
      "throughput", std::vector<std::vector<double>>{
                        {0.09, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10},
                        {0.11, 0.42, 0.40, 0.41, 0.43, 0.44, 0.43}});
  panel.metrics.emplace_back(
      "backlog_per_node", std::vector<std::vector<double>>{
                              {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0},
                              {30.0, 0.5, 0.6, 0.5, 0.4, 0.4, 0.4}});
  panel.notes.push_back("synthetic panel for the self-test");
  doc.panels.push_back(std::move(panel));

  Panel info;
  info.name = "info";
  info.kind = Panel::Kind::kInfo;
  info.columns = {"k", "v"};
  info.cells = {{"answer", "42"}};
  doc.panels.push_back(std::move(info));
  return doc;
}

void test_schema_roundtrip() {
  const ResultsDoc doc = make_test_doc();
  const std::string once = to_json(doc).dump();
  const ResultsDoc parsed = doc_from_json(Json::parse(once));
  const std::string twice = to_json(parsed).dump();
  assert(once == twice && "schema round-trip must be byte-identical");

  assert(parsed.header.experiment == "fig5b");
  assert(parsed.header.nodes == 72);
  const Panel* panel = parsed.panel("ADV+1");
  assert(panel && panel->series.size() == 7);
  assert(panel->value("throughput", "0.45", "VAL") == 0.42);
  assert(std::isnan(panel->value("latency_avg", "0.45", "MIN")));
  assert(parsed.panel("info") &&
         parsed.panel("info")->cells[0][1] == "42");

  // CSV emission covers every non-info cell.
  std::ostringstream csv;
  write_csv(parsed, csv);
  const std::string text = csv.str();
  assert(text.find("fig5b,ADV+1,throughput,0.45,VAL,0.42") !=
         std::string::npos);
  // NaN cells serialize as an empty value field.
  assert(text.find("fig5b,ADV+1,latency_avg,0.45,MIN,\n") !=
         std::string::npos);

  // Unsupported schema versions are rejected.
  Json bad = Json::parse(once);
  bad.set("schema", Json("dfsim-results/v999"));
  bool threw = false;
  try {
    (void)doc_from_json(bad);
  } catch (const std::exception&) {
    threw = true;
  }
  assert(threw);
  std::cout << "schema roundtrip ok\n";
}

void test_config_hash() {
  const SimParams a = presets::tiny();
  const SimParams b = presets::tiny();
  assert(config_hash(a) == config_hash(b) && "hash must be deterministic");
  assert(canonical_params_text(a) == canonical_params_text(b));

  // Every INI-reachable knob must shift the hash.
  SimParams c = presets::tiny();
  apply_param(c, "routing.pb_ugal_threshold", "5");
  assert(config_hash(c) != config_hash(a));
  SimParams d = presets::tiny();
  apply_param(d, "traffic.load", "0.33");
  assert(config_hash(d) != config_hash(a));
  SimParams e = presets::tiny();
  apply_param(e, "router.through_priority", "true");
  assert(config_hash(e) != config_hash(a));

  // The canonical text is itself a loadable INI overlay: applying every
  // line back reproduces the same hash (keys stay in sync with config_io).
  std::istringstream lines(canonical_params_text(c));
  SimParams rebuilt = presets::tiny();
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t eq = line.find(" = ");
    assert(eq != std::string::npos);
    apply_param(rebuilt, line.substr(0, eq), line.substr(eq + 3));
  }
  assert(config_hash(rebuilt) == config_hash(c));

  // Pinned value: changing the canonical serialization (field order,
  // formatting) breaks every committed golden, so it must be deliberate.
  assert(fnv1a_hex("dfsim") == "0f4e95700ea5e5be");
  std::cout << "config hash ok (tiny = " << config_hash(a) << ")\n";
}

void test_trend_gates() {
  const ResultsDoc good = make_test_doc();
  {
    const auto outcomes = check_trend_gates(good);
    assert(!outcomes.empty());
    assert(all_passed(outcomes));
  }
  {
    // MIN stops collapsing -> the min-collapses gate must fail.
    ResultsDoc bad = good;
    auto& thpt = bad.panels[0].metrics[1].second;
    thpt[1][0] = 0.44;  // MIN throughput at the top load
    const auto outcomes = check_trend_gates(bad);
    assert(!all_passed(outcomes));
  }
  {
    // VAL exceeding its 0.5 bound must fail.
    ResultsDoc bad = good;
    bad.panels[0].metrics[1].second[1][1] = 0.61;
    assert(!all_passed(check_trend_gates(bad)));
  }
  {
    // ECtN losing its latency win must fail.
    ResultsDoc bad = good;
    bad.panels[0].metrics[0].second[1][6] = 400.0;
    assert(!all_passed(check_trend_gates(bad)));
  }
  std::cout << "trend gates ok\n";
}

void test_golden_gates() {
  const ResultsDoc doc = make_test_doc();
  {
    // Pristine golden: everything inside the band.
    const auto outcomes = check_against_golden(doc, doc);
    assert(outcomes.size() == 1);
    assert(outcomes[0].status == GateStatus::kPass);
  }
  {
    // Tiny jitter inside the tolerance band still passes.
    ResultsDoc golden = doc;
    golden.panels[0].metrics[0].second[0][0] *= 1.01;
    assert(all_passed(check_against_golden(doc, golden)));
  }
  {
    // Corrupted golden (out-of-band value) must fail.
    ResultsDoc golden = doc;
    golden.panels[0].metrics[1].second[1][1] = 0.30;  // VAL throughput -29%
    const auto outcomes = check_against_golden(doc, golden);
    assert(outcomes.size() == 1);
    assert(outcomes[0].status == GateStatus::kFail);
  }
  {
    // Truncated golden (missing panel) must fail.
    ResultsDoc golden = doc;
    golden.panels[0].name = "renamed";
    assert(!all_passed(check_against_golden(doc, golden)));
  }
  {
    // Saturated latency cells are exempt: MIN's latency at 0.45 diverges
    // but its backlog marks it saturated in both docs.
    ResultsDoc golden = doc;
    golden.panels[0].metrics[0].second[1][0] = 9999.0;
    assert(all_passed(check_against_golden(doc, golden)));
  }
  {
    // Config drift at identical settings is a failure, not a skip.
    ResultsDoc golden = doc;
    golden.header.config_hash = "0000000000000000";
    const auto outcomes = check_against_golden(doc, golden);
    assert(outcomes.size() == 1 && outcomes[0].status == GateStatus::kFail);
  }
  {
    // Different settings (another scale) skip instead of failing.
    ResultsDoc golden = doc;
    golden.header.scale = "medium";
    const auto outcomes = check_against_golden(doc, golden);
    assert(outcomes.size() == 1 && outcomes[0].status == GateStatus::kSkip);
  }
  std::cout << "golden gates ok\n";
}

void test_registry_and_render() {
  // Registry sanity: unique names, resolvable, every spec has docs text.
  const auto& registry = experiment_registry();
  assert(registry.size() == 21);
  for (const ExperimentSpec& spec : registry) {
    assert(find_experiment(spec.name) == &spec);
    assert(std::string(spec.title).size() > 4);
    assert(std::string(spec.description).size() > 40);
  }
  assert(find_experiment("nope") == nullptr);
  assert(find_experiment("congestion_map") != nullptr);

  // Renderer: the synthetic doc yields a report with gate table, headers,
  // a saturated cell printed as "sat", and the trend commentary.
  const ResultsDoc doc = make_test_doc();
  std::vector<GateOutcome> gates = check_trend_gates(doc);
  const std::string md = render_markdown({doc}, gates);
  assert(md.find("## Paper-parity gates") != std::string::npos);
  assert(md.find("min-collapses") != std::string::npos);
  assert(md.find("| sat |") != std::string::npos);
  assert(md.find("peak accepted load") != std::string::npos);
  assert(md.find("synthetic panel for the self-test") != std::string::npos);
  // Deterministic: same inputs, same bytes.
  assert(md == render_markdown({doc}, gates));
  std::cout << "registry + renderer ok\n";
}

/// Runs `fn` and reports whether it threw std::invalid_argument.
template <class Fn>
bool throws_invalid_argument(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_worker_errors() {
  // One bad point (engine.threads = 0 is refused by the Simulator) among
  // good ones: with 2 and 3 workers the sweep and the transient panel
  // rethrow the worker's exception on the calling thread.
  SimParams good = presets::tiny();
  SimParams bad = good;
  bad.engine.threads = 0;

  SteadyOptions steady;
  steady.warmup = 50;
  steady.measure = 50;
  const std::vector<SimParams> points{good, bad, good};
  TransientOptions transient;
  transient.pre = 10;
  transient.post = 20;
  transient.drain = 50;
  const std::vector<TransientSeries> series{{"good", good}, {"bad", bad}};
  for (const int workers : {2, 3}) {
    assert(throws_invalid_argument(
        [&] { (void)run_sweep(points, steady, workers); }));
  }
  assert(throws_invalid_argument([&] {
    (void)run_transient_panel("errors", series, steady, transient, 10, 10);
  }));
  // Without the bad point the same sweep runs through.
  assert(run_sweep({good, good}, steady, 2).size() == 2);
  std::cout << "worker errors propagate ok\n";
}

// Experiment defaults yield to user-set keys: a user value moves both the
// config hash and the results (the default runs are pinned by the goldens
// and RESULTS.md).
void test_user_keys_win() {
  RunContext ctx;
  ctx.scale = "tiny";
  ctx.base = presets::tiny();
  ctx.options.warmup = 200;
  ctx.options.measure = 300;
  ctx.lineup = std::vector<RoutingKind>{RoutingKind::kCbBase};
  ctx.reps = 1;
  const struct {
    const char* experiment;
    const char* key;
    const char* value;
  } cases[] = {
      {"fig8", "router.buf_local_phits", "64"},
      {"fig9", "traffic.load", "0.37"},
      {"fault_degradation", "traffic.load", "0.37"},
  };
  for (const auto& c : cases) {
    const ExperimentSpec& spec = *find_experiment(c.experiment);
    RunContext user = ctx;
    user.set_param(c.key, c.value);
    const ResultsDoc by_default = run_experiment(spec, ctx);
    ResultsDoc by_user = run_experiment(spec, user);
    assert(by_user.header.config_hash != by_default.header.config_hash);
    by_user.header = by_default.header;
    by_user.panels[0].name = by_default.panels[0].name;
    assert(to_json(by_user).dump() != to_json(by_default).dump());
  }
  std::cout << "user keys win over experiment defaults ok\n";
}

}  // namespace

int main() {
  test_json_roundtrip();
  test_schema_roundtrip();
  test_config_hash();
  test_trend_gates();
  test_golden_gates();
  test_registry_and_render();
  test_worker_errors();
  test_user_keys_win();
  std::cout << "test_report: all ok\n";
  return 0;
}
