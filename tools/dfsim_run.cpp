// dfsim_run — the single CLI over the experiment registry.
//
//   dfsim_run list [--markdown]
//   dfsim_run run [--experiments=all|a,b,..] [--scale=..] [--out=DIR] ...
//   dfsim_run check --in=DIR [--goldens=DIR] [--rel-tol --abs-tol]
//   dfsim_run render --in=DIR [--out=RESULTS.md] [--goldens=DIR]
//   dfsim_run gate [--experiments=..] --goldens=DIR [--scale=tiny] ...
//   dfsim_run perf [--scales=tiny,medium] [--loads=0.05,0.3] [--out=F]
//
// `run` executes registered experiments through the parallel sweep engine
// and emits schema-versioned JSON (+ long-format CSV) per experiment;
// `check` evaluates the paper-parity trend gates and the tolerance-banded
// golden comparison over emitted documents; `render` generates RESULTS.md;
// `gate` is run+check in one process (the ctest parity target); `perf`
// times raw engine throughput (cycles/sec) per scale x load — and, with
// --engine-threads=1,2,8, per shard count, turning the file into a scaling
// record — emitting the BENCH_engine.json trajectory document, optionally
// soft-checking it against a committed baseline (--baseline, warns on
// >threshold drops). Every point records the process's peak RSS and the
// simulator's memory report by subsystem (--memory prints it in full;
// --max-rss-mb turns the peak into a hard limit).
#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "report/parity.hpp"
#include "report/registry.hpp"
#include "report/render.hpp"
#include "sim/config_io.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/packet_trace.hpp"
#include "traffic/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace dfsim;
using namespace dfsim::report;

int usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: dfsim_run <command> [flags]\n"
      "  list    [--markdown]                      list registered experiments\n"
      "  run     [--experiments=all|a,b] [--scale=tiny|small|medium|paper]\n"
      "          [--out=DIR] [--csv] [--quiet] [--strip-rev] [--progress]\n"
      "          [--warmup=N --measure=N --reps=N --seed=N --threads=N]\n"
      "          [--loads=0.1,0.2] [--routings=MIN,Base,..] [--with-ugal]\n"
      "          [--traffic=NAME --injection=bernoulli|bursty --trace=F]\n"
      "          [--adv-offset=N --shift-offset=N --hotspot-count=N\n"
      "           --hotspot-fraction=F --mixed-uniform-fraction=F\n"
      "           --burst-factor=F --burst-len=F]\n"
      "          [--config=file.ini] [--set=key=v;key2=v2]\n"
      "  check   --in=DIR [--goldens=DIR] [--rel-tol=R --abs-tol=A]\n"
      "  render  --in=DIR [--out=RESULTS.md] [--goldens=DIR]\n"
      "  gate    [--experiments=..] --goldens=DIR [run flags]\n"
      "  observe [--scale=tiny|..] [--out=DIR] [--name=congestion]\n"
      "          [--routing=Base] [--load=F] [--warmup=N --measure=N]\n"
      "          [--sample-period=N --max-samples=N] [--trace-rate=F]\n"
      "          [--trace-max-events=N] [--strip-rev] [run traffic flags]\n"
      "  perf    [--scales=tiny,medium] [--loads=0.05,0.3] [--routing=Base]\n"
      "          [--traffic=uniform] [--cycles=N] [--warmup=N] [--seed=N]\n"
      "          [--out=BENCH_engine.json] [--baseline=F] [--threshold=0.2]\n"
      "          [--phases] [--engine-threads=1,2,8] [--memory]\n"
      "          [--max-rss-mb=N] [--config=file.ini] [--set=key=v;..]\n"
      "          [run traffic flags]\n";
  return 2;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> items;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

std::vector<const ExperimentSpec*> select_experiments(const CliOptions& cli) {
  std::string names = cli.get("experiments", "all");
  // Positional names work too: `dfsim_run run fig5a fig5b`.
  if (!cli.has("experiments") && cli.positional().size() > 1) {
    names.clear();
    for (std::size_t i = 1; i < cli.positional().size(); ++i) {
      if (!names.empty()) names += ',';
      names += cli.positional()[i];
    }
  }
  std::vector<const ExperimentSpec*> specs;
  if (names == "all") {
    for (const ExperimentSpec& spec : experiment_registry()) {
      specs.push_back(&spec);
    }
    return specs;
  }
  for (const std::string& name : split_csv(names)) {
    const ExperimentSpec* spec = find_experiment(name);
    if (!spec) {
      throw std::invalid_argument(
          "unknown experiment '" + name + "' (see dfsim_run list)");
    }
    specs.push_back(spec);
  }
  if (specs.empty()) throw std::invalid_argument("no experiments selected");
  return specs;
}

/// Per-scale measurement defaults; tiny's are also the golden settings the
/// committed tests/goldens were produced with.
void default_cycles(const std::string& scale, Cycle& warmup, Cycle& measure) {
  if (scale == "tiny") {
    warmup = 1000;
    measure = 2000;
  } else if (scale == "paper") {
    warmup = 5000;
    measure = 15000;
  } else {
    warmup = 2000;
    measure = 3000;
  }
}

/// A dfsim_run flag that spells a config key: `--traffic=ADV` is
/// `--set=traffic.kind=ADV`.
struct FlagKey {
  const char* flag;
  const char* key;
  bool observe_only;  // a knob of the one run `observe` instruments
};

/// Applied after --config and --set, in this order (so a --trace given
/// with --traffic wins).
constexpr FlagKey kFlagKeys[] = {
    {"traffic", "traffic.kind", false},
    {"trace", "traffic.trace_path", false},
    {"injection", "traffic.injection", false},
    {"adv-offset", "traffic.adv_offset", false},
    {"shift-offset", "traffic.shift_offset", false},
    {"hotspot-count", "traffic.hotspot_count", false},
    {"hotspot-fraction", "traffic.hotspot_fraction", false},
    {"mixed-uniform-fraction", "traffic.mixed_uniform_fraction", false},
    {"burst-factor", "traffic.burst_factor", false},
    {"burst-len", "traffic.burst_len", false},
    {"seed", "seed", false},
    {"routing", "routing.kind", true},
    {"load", "traffic.load", true},
    {"sample-period", "telemetry.sample_period", true},
    {"max-samples", "telemetry.max_samples", true},
    {"trace-rate", "trace.sample_rate", true},
    {"trace-max-events", "trace.max_events", true},
};

/// The `scale` preset with --config, --set and the flags of kFlagKeys
/// applied (the observe-only ones too when `all_flags`), validated before
/// anything runs.
RunContext configure(const CliOptions& cli, const std::string& scale,
                     bool all_flags) {
  RunContext ctx;
  ctx.scale = scale;
  ctx.base = presets::by_name(scale);
  if (cli.has("config")) {
    for (const auto& [key, value] : read_params_file(cli.get("config"))) {
      ctx.set_param(key, value);
    }
  }
  if (cli.has("set")) {
    // `--set=routing.pb_ugal_threshold=5;topo.a=8` — ';'-separated
    // key=value assignments through the config_io keyspace.
    std::stringstream ss(cli.get("set"));
    std::string assignment;
    while (std::getline(ss, assignment, ';')) {
      const std::size_t eq = assignment.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("--set expects key=value, got '" +
                                    assignment + "'");
      }
      ctx.set_param(assignment.substr(0, eq), assignment.substr(eq + 1));
    }
  }
  for (const FlagKey& f : kFlagKeys) {
    if (cli.has(f.flag) && (all_flags || !f.observe_only)) {
      ctx.set_param(f.key, cli.get(f.flag));
    }
  }
  validate(ctx.base);
  if (!ctx.base.traffic.trace_path.empty()) {
    (void)validate_trace(ctx.base.traffic.trace_path);
  }
  return ctx;
}

/// configure() at --scale plus the cycle budget and the run flags.
RunContext make_context(const CliOptions& cli, bool observe = false) {
  RunContext ctx = configure(
      cli, cli.get("scale", CliOptions::env("DFSIM_SCALE", "medium")),
      observe);
  default_cycles(ctx.scale, ctx.options.warmup, ctx.options.measure);
  ctx.options.warmup = cli.get_int(
      "warmup", CliOptions::env_int("DFSIM_WARMUP", ctx.options.warmup));
  ctx.options.measure = cli.get_int(
      "measure", CliOptions::env_int("DFSIM_MEASURE", ctx.options.measure));
  if (cli.has("reps")) {
    ctx.options.reps = static_cast<std::int32_t>(cli.get_int("reps", 1));
    ctx.reps = ctx.options.reps;
  }
  ctx.threads = static_cast<int>(cli.get_int("threads", 0));

  if (cli.has("loads")) {
    std::vector<double> loads;
    for (const std::string& item : split_csv(cli.get("loads"))) {
      loads.push_back(CliOptions::to_double("loads", item));
    }
    if (!loads.empty()) ctx.loads = std::move(loads);
  }
  if (cli.has("routings")) {
    std::vector<RoutingKind> lineup;
    for (const std::string& item : split_csv(cli.get("routings"))) {
      lineup.push_back(routing_kind_from_string(item));
    }
    if (!lineup.empty()) ctx.lineup = std::move(lineup);
  }
  // Appends to the default (or --routings) line-up, as the old benches did.
  ctx.with_ugal = cli.has("with-ugal");
  return ctx;
}

/// Crash-safe emission: a killed or crashing run must never leave a
/// truncated JSON/CSV/RESULTS.md behind for `check`/`render` to trip over.
void write_file(const std::filesystem::path& path, const std::string& text) {
  write_file_atomic(path.string(), text);
}

ResultsDoc load_doc(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::stringstream buffer;
  buffer << in.rdbuf();
  return doc_from_json(Json::parse(buffer.str()));
}

/// Every registry experiment with a document in `dir`, in registry order.
std::vector<ResultsDoc> load_docs(const std::filesystem::path& dir) {
  std::vector<ResultsDoc> docs;
  for (const ExperimentSpec& spec : experiment_registry()) {
    const std::filesystem::path path = dir / (std::string(spec.name) + ".json");
    if (std::filesystem::exists(path)) docs.push_back(load_doc(path));
  }
  if (docs.empty()) {
    throw std::runtime_error("no results documents under " + dir.string());
  }
  return docs;
}

std::vector<GateOutcome> evaluate_gates(const std::vector<ResultsDoc>& docs,
                                        const std::string& goldens_dir,
                                        double rel_tol, double abs_tol) {
  std::vector<GateOutcome> gates;
  for (const ResultsDoc& doc : docs) {
    for (GateOutcome& g : check_trend_gates(doc)) {
      gates.push_back(std::move(g));
    }
    if (goldens_dir.empty()) continue;
    const std::filesystem::path golden_path =
        std::filesystem::path(goldens_dir) /
        (doc.header.experiment + ".json");
    if (!std::filesystem::exists(golden_path)) continue;
    for (GateOutcome& g : check_against_golden(doc, load_doc(golden_path),
                                               rel_tol, abs_tol)) {
      gates.push_back(std::move(g));
    }
  }
  return gates;
}

int print_gates(const std::vector<GateOutcome>& gates) {
  ResultTable table({"experiment", "gate", "status", "detail"});
  for (const GateOutcome& g : gates) {
    table.begin_row();
    table.set("experiment", g.experiment);
    table.set("gate", g.gate);
    table.set("status", to_string(g.status));
    table.set("detail", g.detail);
  }
  std::cout << "== paper-parity gates ==\n";
  table.write_pretty(std::cout);
  if (!all_passed(gates)) {
    std::cout << "\nPARITY GATES FAILED\n";
    return 1;
  }
  std::cout << "\nall parity gates passed\n";
  return 0;
}

std::vector<ResultsDoc> run_selected(const CliOptions& cli) {
  const std::vector<const ExperimentSpec*> specs = select_experiments(cli);
  const bool quiet = cli.has("quiet");
  const bool strip_rev = cli.has("strip-rev");
  const std::string git_rev = strip_rev ? std::string{} : current_git_rev();
  const std::string out_dir = cli.get("out", "");
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
  }
  // One context for all experiments: --config/--trace are parsed and
  // validated once; each spec.run copies it by value.
  const RunContext ctx = make_context(cli);
  const bool progress = cli.has("progress");
  std::vector<ResultsDoc> docs;
  for (const ExperimentSpec* spec : specs) {
    if (!quiet) {
      std::cerr << "running " << spec->name << " ...\n";
    }
    RunContext run_ctx = ctx;
    if (progress) {
      // One structured line per watchdog chunk. Sweeps run the points on a
      // thread pool, so the line is assembled first and written under a
      // lock — interleaved heartbeats stay line-atomic.
      static std::mutex progress_mutex;
      const std::string name = spec->name;
      run_ctx.options.heartbeat = [name](Cycle cycle, std::int64_t delivered,
                                         double elapsed) {
        std::ostringstream line;
        line << "progress experiment=" << name << " cycle=" << cycle
             << " delivered=" << delivered << " elapsed="
             << format_fixed(elapsed, 2) << "s\n";
        const std::scoped_lock lock(progress_mutex);
        std::cerr << line.str();
      };
    }
    ResultsDoc doc = run_experiment(*spec, run_ctx);
    doc.header.git_rev = git_rev;
    if (!out_dir.empty()) {
      const std::filesystem::path base =
          std::filesystem::path(out_dir) / spec->name;
      write_file(base.string() + ".json", to_json(doc).dump());
      std::ostringstream csv;
      write_csv(doc, csv);
      write_file(base.string() + ".csv", csv.str());
    }
    if (!quiet) print_doc(doc, cli.has("csv"), std::cout);
    docs.push_back(std::move(doc));
  }
  return docs;
}

int cmd_list(const CliOptions& cli) {
  if (cli.has("markdown")) {
    std::cout << "| experiment | paper ref | topology | what it reproduces "
                 "|\n|---|---|---|---|\n";
    for (const ExperimentSpec& spec : experiment_registry()) {
      std::cout << "| `" << spec.name << "` | " << spec.paper_ref << " | "
                << spec.topology << " | " << spec.title << " |\n";
    }
    return 0;
  }
  ResultTable table({"experiment", "paper_ref", "topology", "title"});
  for (const ExperimentSpec& spec : experiment_registry()) {
    table.begin_row();
    table.set("experiment", spec.name);
    table.set("paper_ref", spec.paper_ref);
    table.set("topology", spec.topology);
    table.set("title", spec.title);
  }
  table.write_pretty(std::cout);
  return 0;
}

int cmd_run(const CliOptions& cli) {
  run_selected(cli);
  return 0;
}

int cmd_check(const CliOptions& cli) {
  if (!cli.has("in")) return usage("check needs --in=DIR");
  const std::vector<ResultsDoc> docs = load_docs(cli.get("in"));
  const std::vector<GateOutcome> gates =
      evaluate_gates(docs, cli.get("goldens", ""),
                     cli.get_double("rel-tol", 0.05),
                     cli.get_double("abs-tol", 0.05));
  return print_gates(gates);
}

int cmd_render(const CliOptions& cli) {
  if (!cli.has("in")) return usage("render needs --in=DIR");
  const std::vector<ResultsDoc> docs = load_docs(cli.get("in"));
  const std::vector<GateOutcome> gates =
      evaluate_gates(docs, cli.get("goldens", ""),
                     cli.get_double("rel-tol", 0.05),
                     cli.get_double("abs-tol", 0.05));
  const std::string out = cli.get("out", "RESULTS.md");
  write_file(out, render_markdown(docs, gates));
  std::cout << "wrote " << out << " (" << docs.size() << " experiments, "
            << gates.size() << " gates)\n";
  return all_passed(gates) ? 0 : 1;
}

int cmd_gate(const CliOptions& cli) {
  if (!cli.has("goldens")) return usage("gate needs --goldens=DIR");
  const std::vector<ResultsDoc> docs = run_selected(cli);
  const std::vector<GateOutcome> gates =
      evaluate_gates(docs, cli.get("goldens"),
                     cli.get_double("rel-tol", 0.05),
                     cli.get_double("abs-tol", 0.05));
  return print_gates(gates);
}

// ---------------------------------------------------------------------------
// observe: one instrumented run with spatial telemetry + packet tracing
// forced on, emitting the heatmap document (JSON + long CSV), the Chrome
// trace-event JSON (load in Perfetto / chrome://tracing), and the compact
// binary trace. Every artifact is round-trip-validated before it is written:
// a file that exists is a file the readers can parse.

int cmd_observe(const CliOptions& cli) {
  const RunContext ctx = make_context(cli, /*observe=*/true);
  SimParams p = ctx.base;
  p.telemetry.enabled = true;
  p.trace.enabled = true;

  GuardedRun run(p, ctx.options);
  Simulator& sim = run.sim();
  run.run(ctx.options.warmup);
  sim.begin_measurement();
  run.run(ctx.options.measure);
  run.require_progress("observe");

  const std::string out_dir = cli.get("out", "observe");
  std::filesystem::create_directories(out_dir);
  const std::string name = cli.get("name", "congestion");
  const std::filesystem::path base = std::filesystem::path(out_dir) / name;

  // Heatmap document: validated by parsing the emitted JSON back through
  // the schema reader.
  ResultsDoc doc = telemetry::build_heatmap_doc(sim, name, ctx.scale);
  doc.header.warmup = ctx.options.warmup;
  if (cli.has("strip-rev")) doc.header.git_rev.clear();
  const std::string json_text = to_json(doc).dump();
  (void)doc_from_json(Json::parse(json_text));  // throws on schema breakage
  write_file(base.string() + "_heatmap.json", json_text);
  std::ostringstream csv;
  write_csv(doc, csv);
  write_file(base.string() + "_heatmap.csv", csv.str());

  // Traces: binary round-trip and Chrome-JSON parse checked in-memory
  // before the files land.
  const telemetry::PacketTracer& tracer = sim.packet_tracer();
  std::ostringstream bin;
  telemetry::write_trace_binary(tracer.events(), tracer.dropped_events(), bin);
  {
    std::istringstream check(bin.str());
    std::vector<telemetry::TraceEvent> decoded;
    std::int64_t dropped = 0;
    if (!telemetry::read_trace_binary(check, decoded, dropped) ||
        decoded.size() != tracer.events().size()) {
      throw std::runtime_error("observe: binary trace failed round-trip");
    }
  }
  write_file(base.string() + "_trace.bin", bin.str());
  std::ostringstream chrome;
  telemetry::write_chrome_trace(tracer.events(), chrome);
  (void)Json::parse(chrome.str());  // throws when not well-formed JSON
  write_file(base.string() + "_trace.json", chrome.str());

  const telemetry::TelemetrySink& sink = sim.telemetry_sink();
  std::cerr << "observe: " << sink.frames() << " frames ("
            << sink.dropped_frames() << " dropped), "
            << tracer.events().size() << " trace events from "
            << tracer.sampled_packets() << " sampled packets ("
            << tracer.dropped_events() << " dropped)\n"
            << "wrote " << base.string() << "_heatmap.{json,csv} and "
            << base.string() << "_trace.{json,bin}\n";
  return 0;
}

// ---------------------------------------------------------------------------
// perf: raw engine stepping throughput (the BENCH_engine.json trajectory).

/// A "Key:   value" line of a /proc text file; empty when absent.
std::string proc_field(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? std::string{} : line.substr(start);
  }
  return {};
}

double mib(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// This process's peak resident set (VmHWM) in MiB; 0 when unreadable.
double peak_rss_mb() {
  const std::string kb = proc_field("/proc/self/status", "VmHWM");
  return kb.empty() ? 0.0 : std::stod(kb) / 1024.0;
}

/// Host and build a perf measurement was taken on.
Json host_manifest() {
  Json host = Json::object();
  host.set("nproc",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  host.set("cpu_model", proc_field("/proc/cpuinfo", "model name"));
  host.set("compiler", std::string("g++ ") + __VERSION__);
#ifdef NDEBUG
  host.set("asserts", false);
#else
  host.set("asserts", true);
#endif
  return host;
}

/// MemoryReport bytes in MiB per subsystem (first name component, shard
/// entries summed over shards).
Json memory_by_subsystem(const MemoryReport& report) {
  std::map<std::string, double> mb;
  for (const MemoryReport::Entry& e : report.entries()) {
    std::string group = e.name.substr(0, e.name.find('.'));
    if (group.rfind("shard", 0) == 0) group = "shards";
    mb[group] += mib(e.bytes);
  }
  Json out = Json::object();
  for (const auto& [group, value] : mb) out.set(group, value);
  return out;
}

/// Wall-clock cycles for one timed point, sized so every point finishes in
/// well under a second on the scan-free engine while still averaging over
/// enough cycles that per-cycle noise washes out.
Cycle default_perf_cycles(const std::string& scale) {
  if (scale == "tiny") return 60000;
  if (scale == "small") return 20000;
  if (scale == "medium") return 8000;
  if (scale == "exa") return 200;  // ~100k routers: every cycle is costly
  return 600;  // paper
}

int cmd_perf(const CliOptions& cli) {
  const std::vector<std::string> scales =
      split_csv(cli.get("scales", "tiny,medium"));
  if (scales.empty()) throw std::invalid_argument("perf: no --scales given");
  // Each scale's params come from the key list as `run` builds them; a bad
  // value fails here, before any point is timed.
  std::vector<SimParams> bases;
  for (const std::string& scale : scales) {
    bases.push_back(configure(cli, scale, /*all_flags=*/true).base);
  }
  std::vector<double> loads;
  for (const std::string& item : split_csv(cli.get("loads", "0.05,0.3"))) {
    loads.push_back(CliOptions::to_double("loads", item));
  }
  const Cycle warmup = cli.get_int("warmup", 500);
  // --engine-threads=1,2,8 measures the same points at several shard
  // counts (engine.threads), turning the trajectory file into a scaling
  // record. Points are tagged with their shard count; baseline matching is
  // per (scale, load, engine_threads), with untagged history entries read
  // as serial.
  std::vector<std::int32_t> thread_counts;
  for (const std::string& item :
       split_csv(cli.get("engine-threads", "1"))) {
    thread_counts.push_back(static_cast<std::int32_t>(
        CliOptions::to_int("engine-threads", item)));
  }
  // --phases folds the engine's per-phase wall-time accounting into each
  // point (shard 0's as phase_seconds; sharded points add every shard's as
  // phase_seconds_by_shard, barrier and merge included). The profiler's
  // clock reads add overhead, so phase-profiled cycles/sec are not
  // comparable with unprofiled baselines — flagged in the document and
  // excluded from the regression check.
  const bool phases = cli.has("phases");

  Json points = Json::array();
  double max_rss = 0.0;
  for (std::size_t si = 0; si < scales.size(); ++si) {
    const std::string& scale = scales[si];
    for (const double load : loads) {
      for (const std::int32_t threads : thread_counts) {
      SimParams p = bases[si];
      p.traffic.load = load;
      p.engine.threads = threads;
      const Cycle cycles = cli.get_int("cycles", default_perf_cycles(scale));

      const auto t_setup = std::chrono::steady_clock::now();
      Simulator sim(p);
      const double setup_seconds = std::chrono::duration<double>(
          std::chrono::steady_clock::now() - t_setup).count();
      if (phases) sim.enable_phase_profiler();
      sim.run(warmup);
      sim.begin_measurement();
      if (phases) sim.enable_phase_profiler();  // reset: measure window only
      const auto t0 = std::chrono::steady_clock::now();
      sim.run(cycles);
      const auto t1 = std::chrono::steady_clock::now();
      const double seconds =
          std::chrono::duration<double>(t1 - t0).count();
      const double cps =
          seconds > 0.0 ? static_cast<double>(cycles) / seconds : 0.0;

      Json pt = Json::object();
      pt.set("scale", scale);
      pt.set("nodes", p.nodes());
      pt.set("load", load);
      if (threads != 1) {
        pt.set("engine_threads", static_cast<std::int64_t>(threads));
      }
      pt.set("setup_seconds", setup_seconds);
      pt.set("cycles", static_cast<std::int64_t>(cycles));
      pt.set("seconds", seconds);
      pt.set("cycles_per_sec", cps);
      pt.set("delivered", sim.metrics().delivered);
      const MemoryReport memory = sim.memory_report();
      const double rss = peak_rss_mb();
      max_rss = std::max(max_rss, rss);
      pt.set("peak_rss_mb", rss);
      pt.set("memory_mb", memory_by_subsystem(memory));
      std::cerr << "perf " << scale << " load=" << load;
      if (threads != 1) std::cerr << " threads=" << threads;
      std::cerr << ": " << static_cast<std::int64_t>(cps)
                << " cycles/sec (" << cycles << " cycles, "
                << sim.metrics().delivered << " delivered); process peak RSS "
                << format_fixed(rss, 1) << " MiB, accounted "
                << format_fixed(mib(memory.bytes()), 1) << " MiB\n";
      if (cli.has("memory")) {
        memory.print(std::cerr);
        Json detail = Json::object();
        for (const MemoryReport::Entry& e : memory.entries()) {
          detail.set(e.name, mib(e.bytes));
        }
        pt.set("memory_detail_mb", std::move(detail));
      }
      if (phases) {
        Json by_shard = Json::array();
        for (std::int32_t shard = 0; shard < sim.shard_count(); ++shard) {
          const telemetry::PhaseProfiler& prof = sim.phase_profiler(shard);
          Json breakdown = Json::object();
          for (std::int32_t ph = 0; ph < telemetry::kPhaseCount; ++ph) {
            const auto phase = static_cast<telemetry::Phase>(ph);
            const double s = prof.seconds(phase);
            breakdown.set(telemetry::to_string(phase), s);
            std::cerr << "  ";
            if (sim.shard_count() > 1) std::cerr << "shard " << shard << " ";
            std::cerr << "phase " << telemetry::to_string(phase) << ": "
                      << format_fixed(s * 1e3, 2) << " ms ("
                      << format_fixed(prof.total_seconds() > 0.0
                                          ? 100.0 * s / prof.total_seconds()
                                          : 0.0,
                                      1)
                      << "%)\n";
          }
          if (shard == 0) pt.set("phase_seconds", breakdown);
          by_shard.push_back(std::move(breakdown));
        }
        if (sim.shard_count() > 1) {
          pt.set("phase_seconds_by_shard", std::move(by_shard));
        }
      }
      points.push_back(std::move(pt));
      }
    }
  }

  Json doc = Json::object();
  doc.set("schema", "dfsim-bench-engine/v1");
  doc.set("routing", to_string(bases.front().routing.kind));
  doc.set("traffic", to_string(bases.front().traffic.kind));
  doc.set("warmup", static_cast<std::int64_t>(warmup));
  doc.set("points", points);
  if (phases) doc.set("phase_profiled", true);

  // Read the committed baseline (when given) once: it is both the soft
  // regression reference and the carrier of the perf-trajectory history.
  Json base;
  bool base_ok = false;
  if (cli.has("baseline")) {
    std::ifstream in(cli.get("baseline"), std::ios::binary);
    if (in) {
      std::stringstream buf;
      buf << in.rdbuf();
      try {
        base = Json::parse(buf.str());
        (void)base.get("points");
        base_ok = true;
      } catch (const std::exception& e) {
        std::cerr << "perf: baseline '" << cli.get("baseline")
                  << "' corrupt (" << e.what() << "), skipping comparison\n";
      }
    } else {
      std::cerr << "perf: baseline '" << cli.get("baseline")
                << "' not readable, skipping comparison\n";
    }
  }

  // Per-run trajectory history: the emitted file used to hold only the
  // latest measurement, so re-emitting destroyed the trajectory the file
  // exists to record. Each run now appends {git_rev, date, points} to the
  // history carried over from the baseline file; the regression check reads
  // the latest history entry of the baseline when one exists.
  {
    Json history = Json::array();
    if (base_ok) {
      if (const Json* prior = base.find("history")) {
        if (prior->is_array()) history = *prior;
      }
    }
    Json entry = Json::object();
    entry.set("git_rev", current_git_rev());
    std::time_t now = std::time(nullptr);
    char date[32] = "unknown";
    if (std::tm tm_buf{}; gmtime_r(&now, &tm_buf) != nullptr) {
      std::strftime(date, sizeof(date), "%Y-%m-%d", &tm_buf);
    }
    entry.set("date", std::string(date));
    entry.set("host", host_manifest());
    entry.set("warmup", static_cast<std::int64_t>(warmup));
    if (phases) entry.set("phase_profiled", true);
    entry.set("points", points);
    history.push_back(std::move(entry));
    doc.set("history", std::move(history));
  }

  // Soft regression check against the committed trajectory file: timing
  // noise makes a hard gate flaky, so drops past the threshold only warn —
  // and an unreadable or corrupt baseline skips the comparison instead of
  // failing the (otherwise successful) measurement. Phase-profiled runs skip
  // it too: the profiler's clock reads slow the engine down.
  if (base_ok && phases) {
    std::cerr << "perf: --phases run, skipping baseline comparison\n";
  }
  if (base_ok && !phases) {
    const double threshold = cli.get_double("threshold", 0.2);
    // Each point compares against its newest measurement in the baseline:
    // history entries newest first (a partial run, such as a single exa
    // point, does not hide the others), then the top-level points of
    // pre-history files.
    std::vector<const Json*> sources;
    if (const Json* history = base.find("history")) {
      if (history->is_array()) {
        for (std::size_t i = history->size(); i-- > 0;) {
          const Json& entry = history->items()[i];
          const Json* hp = entry.find("points");
          if (hp != nullptr && !entry.find("phase_profiled")) {
            sources.push_back(hp);
          }
        }
      }
    }
    sources.push_back(&base.get("points"));
    // engine_threads is omitted for serial points, so pre-sharding history
    // entries compare as 1 and keep matching serial points.
    const auto threads_of = [](const Json& point) {
      const Json* t = point.find("engine_threads");
      return t ? static_cast<std::int64_t>(t->as_number()) : std::int64_t{1};
    };
    const auto newest_match = [&](const Json& pt) -> const Json* {
      for (const Json* points : sources) {
        for (const Json& bp : points->items()) {
          if (bp.get_string("scale") == pt.get_string("scale") &&
              bp.get_number("load") == pt.get_number("load") &&
              threads_of(bp) == threads_of(pt)) {
            return &bp;
          }
        }
      }
      return nullptr;
    };
    int warnings = 0;
    {
      for (const Json& pt : doc.get("points").items()) {
        const Json* bp = newest_match(pt);
        if (bp == nullptr) continue;
        const double now = pt.get_number("cycles_per_sec");
        const double before = bp->get_number("cycles_per_sec");
        if (before > 0.0 && now < (1.0 - threshold) * before) {
          ++warnings;
          std::cerr << "perf WARNING: " << pt.get_string("scale")
                    << " load=" << pt.get_number("load") << " regressed "
                    << format_fixed(100.0 * (1.0 - now / before), 1)
                    << "% (" << static_cast<std::int64_t>(before) << " -> "
                    << static_cast<std::int64_t>(now) << " cycles/sec)\n";
        }
      }
      if (warnings == 0) {
        std::cerr << "perf: no regression beyond "
                  << format_fixed(100.0 * threshold, 0)
                  << "% vs " << cli.get("baseline") << "\n";
      }
    }
  }

  if (cli.has("out")) {
    write_file(cli.get("out"), doc.dump());
    std::cerr << "wrote " << cli.get("out") << "\n";
  } else {
    std::cout << doc.dump();
  }
  // Throughput warnings never fail the run; a peak-RSS limit does.
  if (cli.has("max-rss-mb") && max_rss > cli.get_double("max-rss-mb", 0.0)) {
    std::cerr << "perf: peak RSS " << format_fixed(max_rss, 1)
              << " MiB exceeds --max-rss-mb=" << cli.get("max-rss-mb") << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli(argc, argv);
  if (cli.positional().empty()) return usage();
  const std::string command = cli.positional().front();
  try {
    if (command == "list") return cmd_list(cli);
    if (command == "run") return cmd_run(cli);
    if (command == "check") return cmd_check(cli);
    if (command == "render") return cmd_render(cli);
    if (command == "gate") return cmd_gate(cli);
    if (command == "observe") return cmd_observe(cli);
    if (command == "perf") return cmd_perf(cli);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return usage("unknown command '" + command + "'");
}
