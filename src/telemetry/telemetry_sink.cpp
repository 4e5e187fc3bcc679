#include "telemetry/telemetry_sink.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace dfsim::telemetry {

const char* to_string(MisrouteCause cause) {
  switch (cause) {
    case MisrouteCause::kValiant: return "valiant";
    case MisrouteCause::kUgal: return "ugal";
    case MisrouteCause::kTrigger: return "trigger";
    case MisrouteCause::kInTransit: return "in_transit";
    case MisrouteCause::kLocalDetour: return "local_detour";
    case MisrouteCause::kFaultFallback: return "fault_fallback";
    case MisrouteCause::kPiggyback: return "piggyback";
    case MisrouteCause::kNotify: return "notify";
  }
  return "unknown";
}

void TelemetrySink::configure(std::int32_t routers, std::int32_t radix,
                              std::int32_t forward_ports, Cycle sample_period,
                              std::int32_t max_samples) {
  assert(routers > 0 && radix > 0 && forward_ports > 0);
  assert(sample_period > 0 && max_samples > 0);
  routers_ = routers;
  radix_ = radix;
  fwd_ = forward_ports;
  links_ = routers * radix;
  period_ = sample_period;
  max_samples_ = max_samples;

  const auto nr = static_cast<std::size_t>(routers_);
  const auto nl = static_cast<std::size_t>(links_);
  const auto nf = static_cast<std::size_t>(max_samples_);

  acc_injections_.assign(nr, 0);
  acc_refusals_.assign(nr, 0);
  acc_deliveries_.assign(nr, 0);
  acc_credit_stalls_.assign(nr, 0);
  acc_misroutes_.assign(nr, 0);
  acc_link_departures_.assign(nl, 0);
  std::fill(std::begin(acc_causes_), std::end(acc_causes_), 0);
  acc_drops_ = 0;
  acc_undeliverable_ = 0;
  acc_ectn_updates_ = 0;

  gauge_occupancy_.assign(nr, 0);
  gauge_counters_.assign(nl, 0);
  gauge_links_down_ = 0;

  frames_ = 0;
  dropped_frames_ = 0;
  frame_cycles_.assign(nf, 0);
  occupancy_.assign(nf * nr, 0);
  injections_.assign(nf * nr, 0);
  refusals_.assign(nf * nr, 0);
  deliveries_.assign(nf * nr, 0);
  credit_stalls_.assign(nf * nr, 0);
  misroutes_.assign(nf * nr, 0);
  link_departures_.assign(nf * nl, 0);
  counters_.assign(nf * nl, 0);
  causes_.assign(nf * static_cast<std::size_t>(kMisrouteCauseCount), 0);
  frame_drops_.assign(nf, 0);
  frame_undeliverable_.assign(nf, 0);
  frame_ectn_updates_.assign(nf, 0);
  frame_links_down_.assign(nf, 0);
}

void TelemetrySink::commit_frame(Cycle now) {
  if (frames_ == max_samples_) {
    // Capacity exhausted: the frame is lost, but the accumulators keep
    // counting so lifetime totals (and conservation checks) stay exact.
    ++dropped_frames_;
    return;
  }
  const std::int32_t f = frames_;
  frame_cycles_[static_cast<std::size_t>(f)] = now;
  for (std::int32_t r = 0; r < routers_; ++r) {
    const std::size_t i = router_idx(f, r);
    const auto ri = static_cast<std::size_t>(r);
    occupancy_[i] = gauge_occupancy_[ri];
    injections_[i] = static_cast<std::int32_t>(acc_injections_[ri]);
    refusals_[i] = static_cast<std::int32_t>(acc_refusals_[ri]);
    deliveries_[i] = static_cast<std::int32_t>(acc_deliveries_[ri]);
    credit_stalls_[i] = static_cast<std::int32_t>(acc_credit_stalls_[ri]);
    misroutes_[i] = static_cast<std::int32_t>(acc_misroutes_[ri]);
    acc_injections_[ri] = 0;
    acc_refusals_[ri] = 0;
    acc_deliveries_[ri] = 0;
    acc_credit_stalls_[ri] = 0;
    acc_misroutes_[ri] = 0;
  }
  for (std::int32_t l = 0; l < links_; ++l) {
    const std::size_t i = link_idx(f, l);
    const auto li = static_cast<std::size_t>(l);
    link_departures_[i] = static_cast<std::int32_t>(acc_link_departures_[li]);
    counters_[i] = gauge_counters_[li];
    acc_link_departures_[li] = 0;
  }
  for (std::int32_t c = 0; c < kMisrouteCauseCount; ++c) {
    causes_[static_cast<std::size_t>(f) * kMisrouteCauseCount +
            static_cast<std::size_t>(c)] = acc_causes_[c];
    acc_causes_[c] = 0;
  }
  frame_drops_[static_cast<std::size_t>(f)] = acc_drops_;
  frame_undeliverable_[static_cast<std::size_t>(f)] = acc_undeliverable_;
  frame_ectn_updates_[static_cast<std::size_t>(f)] = acc_ectn_updates_;
  frame_links_down_[static_cast<std::size_t>(f)] = gauge_links_down_;
  acc_drops_ = 0;
  acc_undeliverable_ = 0;
  acc_ectn_updates_ = 0;
  ++frames_;
}

namespace {

// committed per-router frames + pending accumulators
std::int64_t total_over(const std::vector<std::int32_t>& frames,
                        const std::vector<std::int64_t>& pending) {
  std::int64_t sum = std::accumulate(pending.begin(), pending.end(),
                                     std::int64_t{0});
  for (const std::int32_t v : frames) sum += v;
  return sum;
}

}  // namespace

std::int64_t TelemetrySink::total_injections() const {
  return total_over(injections_, acc_injections_);
}
std::int64_t TelemetrySink::total_refusals() const {
  return total_over(refusals_, acc_refusals_);
}
std::int64_t TelemetrySink::total_deliveries() const {
  return total_over(deliveries_, acc_deliveries_);
}
std::int64_t TelemetrySink::total_credit_stalls() const {
  return total_over(credit_stalls_, acc_credit_stalls_);
}
std::int64_t TelemetrySink::total_link_departures() const {
  return total_over(link_departures_, acc_link_departures_);
}
std::int64_t TelemetrySink::total_misroutes() const {
  return total_over(misroutes_, acc_misroutes_);
}

std::int64_t TelemetrySink::total_cause(MisrouteCause cause) const {
  std::int64_t sum = acc_causes_[static_cast<std::size_t>(cause)];
  for (std::int32_t f = 0; f < frames_; ++f) sum += cause_count(f, cause);
  return sum;
}

std::int64_t TelemetrySink::sum_drops() const {
  std::int64_t sum = acc_drops_;
  for (std::int32_t f = 0; f < frames_; ++f) {
    sum += frame_drops_[static_cast<std::size_t>(f)];
  }
  return sum;
}

std::int64_t TelemetrySink::total_undeliverable() const {
  std::int64_t sum = acc_undeliverable_;
  for (std::int32_t f = 0; f < frames_; ++f) {
    sum += frame_undeliverable_[static_cast<std::size_t>(f)];
  }
  return sum;
}

std::int64_t TelemetrySink::total_ectn_updates() const {
  std::int64_t sum = acc_ectn_updates_;
  for (std::int32_t f = 0; f < frames_; ++f) {
    sum += frame_ectn_updates_[static_cast<std::size_t>(f)];
  }
  return sum;
}

MemoryReport TelemetrySink::memory_report() const {
  const auto bytes = [](const auto& v) { return vector_bytes(v); };
  MemoryReport report;
  report.add("accumulators",
             bytes(acc_injections_) + bytes(acc_refusals_) +
                 bytes(acc_deliveries_) + bytes(acc_credit_stalls_) +
                 bytes(acc_misroutes_) + bytes(acc_link_departures_) +
                 bytes(gauge_occupancy_) + bytes(gauge_counters_));
  report.add("frames",
             bytes(frame_cycles_) + bytes(occupancy_) + bytes(injections_) +
                 bytes(refusals_) + bytes(deliveries_) +
                 bytes(credit_stalls_) + bytes(misroutes_) +
                 bytes(link_departures_) + bytes(counters_) + bytes(causes_) +
                 bytes(frame_drops_) + bytes(frame_undeliverable_) +
                 bytes(frame_ectn_updates_) + bytes(frame_links_down_));
  return report;
}

}  // namespace dfsim::telemetry
