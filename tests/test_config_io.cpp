// Config-file overlay: partial files override only the keys they mention;
// sections and dotted keys are equivalent; bad keys/values throw. Then the
// key list itself: every declared key parses strictly, round-trips through
// the canonical text, moves the config hash, stays out of the text while
// its group is off, and has its rule enforced by validate().
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "report/schema.hpp"
#include "sim/config_io.hpp"
#include "sim/param_list.hpp"

namespace {

using namespace dfsim;

template <class F>
bool throws_invalid_argument(F&& f, const std::string& needle = "") {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return std::string(e.what()).find(needle) != std::string::npos;
  }
  return false;
}

/// Calls `f(field, rule)` on the field of `key` in `p`.
template <class F>
void with_field(SimParams& p, std::string_view key, F&& f) {
  visit_params(p, [&](std::string_view name, auto& field, const Rule& rule,
                      bool) {
    if (name == key) f(field, rule);
  });
}

std::vector<std::string> declared_keys() {
  std::vector<std::string> keys;
  const SimParams p = presets::tiny();
  visit_params(p, [&](std::string_view key, const auto&, const Rule&, bool) {
    keys.emplace_back(key);
  });
  return keys;
}

/// Tiny with every opt-in group switched on.
SimParams all_groups_on() {
  SimParams p = presets::tiny();
  p.fault.enabled = true;
  p.telemetry.enabled = true;
  p.trace.enabled = true;
  p.notify.enabled = true;
  return p;
}

/// A valid value other than the field's current one.
template <class T>
void change_validly(T& v, const Rule& rule) {
  if constexpr (std::is_same_v<T, bool>) {
    v = !v;
  } else if constexpr (std::is_arithmetic_v<T>) {
    const T step = std::is_floating_point_v<T> ? T(0.125) : T(1);
    v = static_cast<double>(v + step) <= rule.hi ? T(v + step) : T(v - step);
  } else if constexpr (std::is_same_v<T, std::string>) {
    std::istringstream spellings{std::string(rule.one_of)};
    std::string choice;
    while (std::getline(spellings, choice, '|')) {
      if (choice != v) break;
    }
    v = rule.one_of.empty() ? v + "x.dftrace" : choice;
  } else {
    v = static_cast<T>(static_cast<int>(v) == 0 ? 1 : 0);
  }
}

/// Sets the field just outside its rule; false when the rule admits every
/// value of the field's type.
template <class T>
bool break_rule(T& v, const Rule& rule) {
  if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
    if (std::isfinite(rule.lo)) {
      v = static_cast<T>(rule.lo - (std::is_floating_point_v<T> ? 0.5 : 1));
      return true;
    }
    if (std::isfinite(rule.hi)) {
      v = static_cast<T>(rule.hi + (std::is_floating_point_v<T> ? 0.5 : 1));
      return true;
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!rule.one_of.empty()) {
      v = "bogus";
      return true;
    }
  }
  return false;
}

/// Whether `p` emits `key` into its canonical text.
bool emit_of(const SimParams& p, const std::string& key) {
  bool found = false;
  visit_params(p, [&](std::string_view name, const auto&, const Rule&,
                      bool emit) {
    if (name == key) found = emit;
  });
  return found;
}

/// Whether `text` has a "key = ..." line.
bool has_line(const std::string& text, const std::string& key) {
  return ("\n" + text).find("\n" + key + " = ") != std::string::npos;
}

/// Re-applies every line of `text` on top of tiny.
SimParams reload(const std::string& text) {
  SimParams p = presets::tiny();
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t eq = line.find(" = ");
    apply_param(p, line.substr(0, eq), line.substr(eq + 3));
  }
  return p;
}

void test_strict_parsing() {
  struct Case {
    const char* key;
    const char* value;
    const char* message;
  };
  const Case cases[] = {
      {"seed", "-1", "seed needs an integer in [0, 18446744073709551615]"},
      {"seed", "18446744073709551616", "seed needs an integer"},
      {"seed", "abc", "seed needs an integer"},
      {"traffic.load", "0.3abc", "traffic.load needs a finite number"},
      {"traffic.load", "", "traffic.load needs a finite number"},
      {"traffic.load", "nan", "traffic.load needs a finite number"},
      {"traffic.load", "inf", "traffic.load needs a finite number"},
      {"traffic.hotspot_fraction", "abc", "hotspot_fraction needs a finite"},
      {"topo.a", "4294967304", "topo.a needs an integer in [-2147483648"},
      {"topo.a", "8.5", "topo.a needs an integer"},
      {"topo.a", " 8", "topo.a needs an integer"},
      {"fault.seed", "-3", "fault.seed needs an integer"},
      {"routing.through_priority", "maybe", "unknown key"},
      {"router.through_priority", "maybe", "needs true|false"},
      {"routing.kind", "WARP", "routing.kind: unknown routing mechanism"},
      {"routing.global_policy", "ALL", "routing.global_policy: unknown"},
      {"traffic.injection", "poisson", "traffic.injection: unknown"},
      {"topology", "hypercube", "topology: unknown topology"},
      {"fault.link_class", "quantum", "fault.link_class must be one of"},
      {"router.vcs_local", "0", "router.vcs_local must be >= 1"},
      {"router.speedup", "0", "router.speedup must be >= 1"},
      {"packet_size_phits", "0", "packet_size_phits must be >= 1"},
      {"traffic.load", "1.5", "traffic.load must be <= 1"},
      {"engine.threads", "0", "engine.threads must be >= 1"},
      {"engine.threads", "1025", "engine.threads must be <= 1024"},
  };
  for (const Case& c : cases) {
    SimParams p = presets::tiny();
    const std::string before = report::canonical_params_text(p);
    const bool refused =
        throws_invalid_argument([&] { apply_param(p, c.key, c.value); },
                                c.message);
    if (!refused) {
      std::fprintf(stderr, "%s = '%s' was not refused with '%s'\n", c.key,
                   c.value, c.message);
    }
    assert(refused);
    assert(report::canonical_params_text(p) == before);  // p is untouched
  }

  // Whole-range integers: 64-bit keys keep their full width in the text.
  SimParams p = presets::tiny();
  apply_param(p, "seed", "4294967297");
  assert(p.seed == 4294967297ULL);
  assert(report::config_hash(p) != report::config_hash(presets::tiny()));
  apply_param(p, "seed", "18446744073709551615");
  assert(p.seed == 18446744073709551615ULL);
  apply_param(p, "trace.max_events", "4294967297");
  assert(p.trace.max_events == 4294967297LL);
  apply_param(p, "routing.ectn_update_period", "3000000000");
  assert(p.routing.ectn_update_period == 3000000000LL);
  p.trace.enabled = true;
  const std::string text = report::canonical_params_text(p);
  assert(text.find("seed = 18446744073709551615\n") != std::string::npos);
  assert(text.find("trace.max_events = 4294967297\n") != std::string::npos);
  assert(text.find("routing.ectn_update_period = 3000000000\n") !=
         std::string::npos);
  // In-range values keep their text: the same seed, spelled plainly.
  SimParams a = presets::tiny();
  SimParams b = presets::tiny();
  apply_param(a, "seed", "1");
  assert(report::config_hash(a) == report::config_hash(b));
  std::printf("strict parsing ok\n");
}

void test_validate() {
  assert(throws_invalid_argument([] {
    SimParams p = presets::tiny();
    p.router.buf_local_phits = p.packet_size_phits - 1;
    validate(p);
  }, "router.buf_local_phits must be >= 8"));
  assert(throws_invalid_argument([] {
    SimParams p = presets::paper();
    p.router.buf_global_phits = 4;
    validate(p);
  }, "router.buf_global_phits must be >= 8"));
  // The upper bound on engine.threads, checked without starting threads.
  assert(throws_invalid_argument([] {
    SimParams p = presets::tiny();
    p.engine.threads = 1 << 20;
    validate(p);
  }, "engine.threads must be <= 1024"));
  assert(throws_invalid_argument([] {
    SimParams p = presets::tiny();
    p.traffic.burst_len = std::nan("");
    validate(p);
  }, "traffic.burst_len must be finite"));
  for (const SimParams& p :
       {presets::paper(), presets::medium(), presets::small(), presets::tiny(),
        presets::exa(), presets::fbfly({4, 2, 4}), presets::torus({4, 2, 2}),
        presets::with_link_faults(presets::tiny(), 0.1, "global")}) {
    validate(p);
  }
  std::printf("validate ok\n");
}

void test_every_key() {
  const std::vector<std::string> keys = declared_keys();
  assert(keys.size() == 74);
  assert(std::set<std::string>(keys.begin(), keys.end()).size() == keys.size());

  const SimParams on = all_groups_on();
  const std::string on_text = report::canonical_params_text(on);
  const std::string off_text = report::canonical_params_text(presets::tiny());
  std::size_t gated = 0;
  std::size_t ruled = 0;
  for (const std::string& key : keys) {
    SimParams p = on;
    const SimParams before = p;
    const bool emitted_off = emit_of(presets::tiny(), key);

    // A non-default valid value moves the hash (with the group on) and
    // round-trips through the canonical text.
    with_field(p, key, [](auto& field, const Rule& rule) {
      change_validly(field, rule);
    });
    if (!p.traffic.trace_path.empty()) {
      p.traffic.kind = TrafficKind::kTrace;  // what parsing the path implies
    }
    validate(p);
    const std::string text = report::canonical_params_text(p);
    if (text == report::canonical_params_text(before)) {
      std::fprintf(stderr, "%s: a new value does not move the hash\n",
                   key.c_str());
      assert(false);
    }
    // (Switching a group's `enabled` off drops the group from the text.)
    assert(has_line(text, key) == emit_of(p, key));
    assert(report::canonical_params_text(reload(text)) == text);

    // The text holds what the emit flag says; an opt-in group's keys are
    // absent while the group is disabled.
    assert(has_line(off_text, key) == emitted_off);
    const std::string group = key.substr(0, key.find('.'));
    if (group == "fault" || group == "telemetry" || group == "trace" ||
        group == "notify") {
      ++gated;
      assert(!emitted_off && has_line(on_text, key));
    }

    // The rule is enforced by validate().
    SimParams bad = presets::tiny();
    bool breakable = false;
    with_field(bad, key, [&](auto& field, const Rule& rule) {
      breakable = break_rule(field, rule);
    });
    if (breakable) {
      ++ruled;
      if (!throws_invalid_argument([&] { validate(bad); }, key + " must be")) {
        std::fprintf(stderr, "%s: out-of-range value not refused\n",
                     key.c_str());
        assert(false);
      }
    }
  }
  assert(gated == 24);
  std::printf("every key ok (%zu keys, %zu gated, %zu with a range)\n",
              keys.size(), gated, ruled);
}


std::string write_temp(const std::string& contents) {
  const std::string path = "dfsim_test_config.ini";
  std::ofstream out(path);
  out << contents;
  return path;
}

}  // namespace

int main() {
  using namespace dfsim;

  test_strict_parsing();
  test_validate();
  test_every_key();

  // Overlay semantics: only mentioned keys change.
  {
    const std::string path = write_temp(
        "# comment\n"
        "topo.a = 16\n"
        "routing.kind = ECtN   ; trailing comment\n"
        "\n"
        "[traffic]\n"
        "load = 0.35\n"
        "kind = ADV\n");
    const SimParams base = presets::medium();
    SimParams params = base;
    for (const auto& [key, value] : read_params_file(path)) {
      apply_param(params, key, value);
    }
    assert(params.topo.a == 16);
    assert(params.topo.p == base.topo.p);        // untouched
    assert(params.topo.h == base.topo.h);        // untouched
    assert(params.routing.kind == RoutingKind::kCbEctn);
    assert(params.traffic.load == 0.35);
    assert(params.traffic.kind == TrafficKind::kAdversarial);
    assert(params.router.vcs_local == base.router.vcs_local);
    std::remove(path.c_str());
  }

  // apply_param covers scalars, bools, and enums.
  {
    SimParams p = presets::tiny();
    apply_param(p, "routing.statistical_trigger", "true");
    assert(p.routing.statistical_trigger);
    apply_param(p, "routing.global_policy", "CRG");
    assert(p.routing.global_policy == GlobalMisroutePolicy::kCrg);
    apply_param(p, "packet_size_phits", "4");
    assert(p.packet_size_phits == 4);
  }

  // Traffic-subsystem keys: every model and injection knob is selectable.
  {
    SimParams p = presets::tiny();
    apply_param(p, "traffic.kind", "hotspot");
    assert(p.traffic.kind == TrafficKind::kHotspot);
    apply_param(p, "traffic.hotspot_count", "8");
    apply_param(p, "traffic.hotspot_fraction", "0.4");
    assert(p.traffic.hotspot_count == 8);
    assert(p.traffic.hotspot_fraction == 0.4);
    apply_param(p, "traffic.kind", "shift");
    apply_param(p, "traffic.shift_offset", "9");
    assert(p.traffic.kind == TrafficKind::kShift);
    assert(p.traffic.shift_offset == 9);
    apply_param(p, "traffic.injection", "bursty");
    apply_param(p, "traffic.burst_factor", "6");
    apply_param(p, "traffic.burst_len", "25");
    assert(p.traffic.injection == InjectionProcess::kBursty);
    assert(p.traffic.burst_factor == 6.0);
    assert(p.traffic.burst_len == 25.0);
    // trace_path implies kTrace.
    apply_param(p, "traffic.trace_path", "run.dftrace");
    assert(p.traffic.kind == TrafficKind::kTrace);
    assert(p.traffic.trace_path == "run.dftrace");

    bool threw = false;
    try {
      apply_param(p, "traffic.kind", "fractal");
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    assert(threw);
  }

  // Errors: unknown key, bad value, missing file.
  {
    SimParams p = presets::tiny();
    bool threw = false;
    try {
      apply_param(p, "router.flux_capacitor", "1");
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    assert(threw);

    threw = false;
    try {
      apply_param(p, "traffic.load", "heavy");
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    assert(threw);

    threw = false;
    try {
      (void)read_params_file("does_not_exist.ini");
    } catch (const std::runtime_error&) {
      threw = true;
    }
    assert(threw);
  }

  return EXIT_SUCCESS;
}
