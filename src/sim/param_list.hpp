// The config keyspace, declared once. Every SimParams field that a config
// file, `--set` or a dfsim_run flag can reach is one row below, in
// canonical order, with the rule its value must satisfy and the condition
// under which it enters the canonical params text (and so the config
// hash). Parsing (apply_param), value checks (validate), the canonical
// text (report::canonical_params_text) and the record of user-set keys
// (report::RunContext) are loops over this list; docs/CONFIG.md documents
// every key it names (CHK-CONFIG).
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <type_traits>

#include "sim/config.hpp"

namespace dfsim {

/// The values a key accepts: a closed range for a number, or the
/// '|'-separated spellings of a string key with a fixed vocabulary. Bool
/// and enum keys are closed by their parsers.
struct Rule {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  std::string_view one_of;
};

[[nodiscard]] constexpr Rule range(double lo, double hi) {
  return Rule{lo, hi, {}};
}
[[nodiscard]] constexpr Rule at_least(double lo) {
  return range(lo, std::numeric_limits<double>::infinity());
}
[[nodiscard]] constexpr Rule one_of(std::string_view spellings) {
  Rule rule;
  rule.one_of = spellings;
  return rule;
}
inline constexpr Rule kAnyValue{};
inline constexpr Rule kFraction = range(0.0, 1.0);

/// Calls `f(key, field, rule, emit)` once per key, in canonical order.
/// `P` is SimParams or const SimParams; `field` is a reference into `p`.
/// `emit` says whether the key enters the canonical params text: always,
/// except that the keys of an opt-in group (`fault.`, `telemetry.`,
/// `trace.`, `notify.`) enter it only while the group is enabled,
/// `traffic.trace_path` only while set and `engine.threads` only while not
/// 1. A config that never touches them keeps the hash it had before they
/// existed.
template <class P, class F>
  requires std::is_same_v<std::remove_const_t<P>, SimParams>
void visit_params(P& p, F&& f) {
  const auto row = [&f](std::string_view key, auto& field, const Rule& rule,
                        bool emit = true) { f(key, field, rule, emit); };
  row("topology", p.topology, kAnyValue);
  row("topo.p", p.topo.p, at_least(1));
  row("topo.a", p.topo.a, at_least(2));
  row("topo.h", p.topo.h, at_least(1));
  row("fbfly.k", p.fbfly.k, at_least(2));
  row("fbfly.n", p.fbfly.n, at_least(1));
  row("fbfly.c", p.fbfly.c, at_least(1));
  row("torus.k", p.torus.k, at_least(3));
  row("torus.n", p.torus.n, at_least(1));
  row("torus.c", p.torus.c, at_least(1));

  auto& r = p.router;
  row("router.pipeline_cycles", r.pipeline_cycles, at_least(0));
  row("router.speedup", r.speedup, at_least(1));
  row("router.vcs_local", r.vcs_local, at_least(1));
  row("router.vcs_global", r.vcs_global, at_least(1));
  row("router.vcs_injection", r.vcs_injection, at_least(1));
  row("router.buf_output_phits", r.buf_output_phits, at_least(0));
  row("router.buf_local_phits", r.buf_local_phits, at_least(1));
  row("router.buf_global_phits", r.buf_global_phits, at_least(1));
  row("router.injection_queue_packets", r.injection_queue_packets,
      at_least(1));
  row("router.through_priority", r.through_priority, kAnyValue);
  row("link.local_latency", p.link.local_latency, at_least(0));
  row("link.global_latency", p.link.global_latency, at_least(0));

  auto& rt = p.routing;
  row("routing.kind", rt.kind, kAnyValue);
  row("routing.contention_threshold", rt.contention_threshold, at_least(1));
  row("routing.hybrid_contention_threshold", rt.hybrid_contention_threshold,
      at_least(1));
  row("routing.ectn_combined_threshold", rt.ectn_combined_threshold,
      at_least(1));
  row("routing.ectn_update_period", rt.ectn_update_period, at_least(1));
  // Counters are int16.
  row("routing.counter_saturation", rt.counter_saturation,
      range(1, std::numeric_limits<std::int16_t>::max()));
  row("routing.olm_credit_fraction", rt.olm_credit_fraction, kFraction);
  row("routing.hybrid_credit_fraction", rt.hybrid_credit_fraction, kFraction);
  row("routing.pb_ugal_threshold", rt.pb_ugal_threshold, kAnyValue);
  row("routing.global_policy", rt.global_policy, kAnyValue);
  row("routing.allow_local_misroute", rt.allow_local_misroute, kAnyValue);
  row("routing.statistical_trigger", rt.statistical_trigger, kAnyValue);
  row("routing.statistical_window", rt.statistical_window, at_least(0));

  // Offsets are taken modulo the group or node count, so any is valid.
  auto& t = p.traffic;
  row("traffic.kind", t.kind, kAnyValue);
  row("traffic.load", t.load, kFraction);
  row("traffic.adv_offset", t.adv_offset, kAnyValue);
  row("traffic.mixed_uniform_fraction", t.mixed_uniform_fraction, kFraction);
  row("traffic.shift_offset", t.shift_offset, kAnyValue);
  row("traffic.hotspot_count", t.hotspot_count, at_least(1));
  row("traffic.hotspot_fraction", t.hotspot_fraction, kFraction);
  row("traffic.injection", t.injection, kAnyValue);
  row("traffic.burst_factor", t.burst_factor, at_least(1));
  row("traffic.burst_len", t.burst_len, at_least(1));
  row("traffic.trace_path", t.trace_path, kAnyValue,
      !t.trace_path.empty());
  row("traffic.inorder_fraction", t.inorder_fraction, kFraction);
  row("packet_size_phits", p.packet_size_phits, at_least(1));
  row("seed", p.seed, kAnyValue);

  auto& fl = p.fault;
  row("fault.enabled", fl.enabled, kAnyValue, fl.enabled);
  row("fault.seed", fl.seed, kAnyValue, fl.enabled);
  row("fault.onset", fl.onset, at_least(0), fl.enabled);
  row("fault.link_fail_fraction", fl.link_fail_fraction, kFraction, fl.enabled);
  row("fault.link_class", fl.link_class, one_of("any|local|global"),
      fl.enabled);
  row("fault.flap_period", fl.flap_period, at_least(0), fl.enabled);
  row("fault.flap_down", fl.flap_down, at_least(0), fl.enabled);
  row("fault.router_fail_fraction", fl.router_fail_fraction, kFraction,
      fl.enabled);
  row("fault.degrade_fraction", fl.degrade_fraction, kFraction, fl.enabled);
  row("fault.degrade_latency", fl.degrade_latency, at_least(0), fl.enabled);
  // Packet hop counts are uint16.
  row("fault.hop_cap", fl.hop_cap,
      range(1, std::numeric_limits<std::uint16_t>::max()), fl.enabled);

  auto& tm = p.telemetry;
  row("telemetry.enabled", tm.enabled, kAnyValue, tm.enabled);
  row("telemetry.sample_period", tm.sample_period, at_least(1), tm.enabled);
  row("telemetry.max_samples", tm.max_samples, at_least(1), tm.enabled);

  auto& tr = p.trace;
  row("trace.enabled", tr.enabled, kAnyValue, tr.enabled);
  row("trace.seed", tr.seed, kAnyValue, tr.enabled);
  row("trace.sample_rate", tr.sample_rate, kFraction, tr.enabled);
  row("trace.max_events", tr.max_events, at_least(0), tr.enabled);

  auto& n = p.notify;
  row("notify.enabled", n.enabled, kAnyValue, n.enabled);
  row("notify.threshold", n.threshold, kFraction, n.enabled);
  row("notify.update_period", n.update_period, at_least(0), n.enabled);
  row("notify.propagation_delay", n.propagation_delay, at_least(0), n.enabled);
  row("notify.expiry", n.expiry, at_least(0), n.enabled);
  row("notify.throttle_injection", n.throttle_injection, kAnyValue, n.enabled);

  // One worker thread per shard; more shards than routers clamp to the
  // router count.
  row("engine.threads", p.engine.threads, range(1, 1024),
      p.engine.threads != 1);
}

/// The key of `field`, a member of `p`; empty when no key names it.
template <class T>
[[nodiscard]] std::string_view param_key(const SimParams& p, const T& field) {
  std::string_view found;
  visit_params(p, [&](std::string_view key, const auto& v, const Rule&, bool) {
    if (static_cast<const void*>(&v) == static_cast<const void*>(&field)) {
      found = key;
    }
  });
  return found;
}

}  // namespace dfsim
