// dfbench entry point. One invocation runs one workload in this process and
// prints one JSON document on stdout: {"record": details, "result":
// {correct, attempted, failed, metrics}}. run.py builds this binary and
// relays both parts as single lines. Exit code 2: bad arguments; 3: refused
// (unoptimised build); 4: the workload threw.
//
//   dfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//           --reference=reference.json --goldens=DIR [--smoke]
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "util/cli.hpp"

namespace {

constexpr const char* kWorkloads[] = {"paper_un_base", "paper_adv_ectn_t2",
                                      "registry_tiny"};

int usage(const std::string& error) {
  std::cerr << "dfbench: " << error
            << "\nusage: dfbench --workload=paper_un_base|paper_adv_ectn_t2|"
               "registry_tiny --seed=N --seconds=S --trace=0|1 "
               "--reference=FILE --goldens=DIR [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dfbench;
  const dfsim::CliOptions cli(argc, argv);
  Options options;
  options.workload = cli.get("workload");
  bool known = false;
  for (const char* name : kWorkloads) known = known || options.workload == name;
  if (!known) return usage("unknown workload '" + options.workload + "'");
  if (!cli.has("reference") || !cli.has("goldens")) {
    return usage("--reference and --goldens are required");
  }
  try {
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    options.seconds = cli.get_double("seconds", 10.0);
    options.trace = cli.get_int("trace", 0) != 0;
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  options.smoke = cli.has("smoke");
  options.reference_path = cli.get("reference");
  options.goldens_dir = cli.get("goldens");

  if (!optimized_build()) {
    std::cerr << "dfbench: refusing to time an unoptimised build ("
              << build_manifest().dump() << ")\n";
    return 3;
  }

  Outcome out;
  try {
    if (options.trace) {
      trace_engine(options, out);
      trace_registry(options, out);
      probe_layers(options, out);
    } else if (is_engine_workload(options.workload)) {
      out = run_engine_workload(options);
    } else {
      out = run_registry_workload(options);
    }
  } catch (const std::exception& e) {
    std::cerr << "dfbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 4;
  }
  // A failed check that no operation claimed voids the whole run.
  if (!out.failures.empty() && out.failed == 0) out.failed = out.attempted;

  Json failures = Json::array();
  for (const std::string& f : out.failures) failures.push_back(f);
  out.record.set("workload", options.workload);
  out.record.set("seed", static_cast<std::int64_t>(options.seed));
  out.record.set("trace", options.trace);
  out.record.set("smoke", options.smoke);
  out.record.set("build", build_manifest());
  out.record.set("failures", std::move(failures));
  Json result = Json::object();
  result.set("correct", out.failures.empty());
  result.set("attempted", out.attempted);
  result.set("failed", out.failed);
  result.set("metrics", std::move(out.metrics));
  Json doc = Json::object();
  doc.set("record", std::move(out.record));
  doc.set("result", std::move(result));
  std::cout << doc.dump();
  return 0;
}
