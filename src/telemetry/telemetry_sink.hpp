// Spatial telemetry sink: per-router / per-link activity sampled on a fixed
// cadence into preallocated SoA time-series (the data behind the heatmap
// artifact and the congestion_map experiment).
//
// The engine owns the hot path: between samples it bumps flat accumulator
// counters (one add each — injection, delivery, credit stall, link
// departure, misroute bucketed by cause, fault drop, ECtN broadcast), every
// call gated behind the simulator's `telemetry_on_` flag so a disabled run
// takes zero telemetry branches. At the end of each sample period the
// engine writes the gauge snapshots (queue occupancy, contention-counter
// values, down-link count) and calls commit_frame(), which copies the
// accumulators into the frame series and resets them.
//
// All storage is sized at configure() — committing a frame never
// allocates, preserving the zero-alloc-after-warmup invariant with
// telemetry enabled. When the frame capacity is exhausted, sampling stops
// (dropped_frames() reports how many commits were skipped) but the pending
// accumulators keep counting, so the lifetime totals stay exact and the
// conservation checks (total injections == generated - refused, total
// deliveries == delivered) hold regardless of capacity.
#pragma once

#include <cstdint>
#include <vector>

#include "util/memory_report.hpp"
#include "util/types.hpp"

namespace dfsim::telemetry {

/// Why a packet left the minimal path — the paper's mechanisms decide at
/// injection (UGAL-family estimate, Valiant's oblivious draw) or in transit
/// (counter/credit trigger at the source router or downstream), and the
/// fault overlay adds deterministic fallback routings around dead links.
enum class MisrouteCause : std::uint8_t {
  kValiant = 0,       // oblivious Valiant intermediate draw
  kUgal = 1,          // UGAL-L/G/PB injection-time estimate
  kTrigger = 2,       // counter/credit trigger at the source router
  kInTransit = 3,     // counter/credit trigger downstream of the source
  kLocalDetour = 4,   // opportunistic one-hop local detour
  kFaultFallback = 5, // topology fallback around a dead link
  kPiggyback = 6,     // PB's piggybacked remote link state fired
  kNotify = 7,        // live congestion notification (ARN family)
};
inline constexpr std::int32_t kMisrouteCauseCount = 8;

[[nodiscard]] const char* to_string(MisrouteCause cause);

class TelemetrySink {
 public:
  TelemetrySink() = default;

  /// Sizes every series for `max_samples` frames over `routers` routers and
  /// `routers * radix` flat link slots (forward ports used; injection ports
  /// stay zero). All allocation happens here.
  void configure(std::int32_t routers, std::int32_t radix,
                 std::int32_t forward_ports, Cycle sample_period,
                 std::int32_t max_samples);

  [[nodiscard]] bool configured() const { return routers_ > 0; }
  [[nodiscard]] std::int32_t routers() const { return routers_; }
  [[nodiscard]] std::int32_t radix() const { return radix_; }
  [[nodiscard]] std::int32_t forward_ports() const { return fwd_; }
  [[nodiscard]] Cycle sample_period() const { return period_; }
  [[nodiscard]] std::int32_t max_samples() const { return max_samples_; }

  /// Accumulator/gauge arrays and the preallocated frame series.
  [[nodiscard]] MemoryReport memory_report() const;

  // --- hot-path accumulators (engine-side, gated on telemetry_on_)

  void count_injection(RouterId r) {
    ++acc_injections_[static_cast<std::size_t>(r)];
  }
  void count_refusal(RouterId r) {
    ++acc_refusals_[static_cast<std::size_t>(r)];
  }
  void count_delivery(RouterId r) {
    ++acc_deliveries_[static_cast<std::size_t>(r)];
  }
  void count_credit_stall(RouterId r) {
    ++acc_credit_stalls_[static_cast<std::size_t>(r)];
  }
  void count_link_departure(std::int32_t flat_link) {
    ++acc_link_departures_[static_cast<std::size_t>(flat_link)];
  }
  void count_misroute(RouterId r, MisrouteCause cause) {
    ++acc_misroutes_[static_cast<std::size_t>(r)];
    ++acc_causes_[static_cast<std::size_t>(cause)];
  }
  void count_drop() { ++acc_drops_; }
  void count_undeliverable() { ++acc_undeliverable_; }
  void count_ectn_update() { ++acc_ectn_updates_; }

  // --- flush-time gauges (written by the engine right before commit_frame)

  void set_gauge_occupancy(RouterId r, std::int32_t packets) {
    gauge_occupancy_[static_cast<std::size_t>(r)] = packets;
  }
  void set_gauge_counter(std::int32_t flat_link, std::int32_t value) {
    gauge_counters_[static_cast<std::size_t>(flat_link)] =
        static_cast<std::int16_t>(value);
  }
  void set_links_down(std::int32_t n) { gauge_links_down_ = n; }

  /// Snapshots accumulators + gauges into the frame series and resets the
  /// accumulators. Past max_samples the commit is skipped (dropped_frames()
  /// counts it) and the accumulators keep growing so totals stay exact.
  void commit_frame(Cycle now);

  // --- read side (frame-major: value(frame, router|link))

  [[nodiscard]] std::int32_t frames() const { return frames_; }
  [[nodiscard]] std::int64_t dropped_frames() const { return dropped_frames_; }
  [[nodiscard]] Cycle sample_cycle(std::int32_t f) const {
    return frame_cycles_[static_cast<std::size_t>(f)];
  }

  [[nodiscard]] std::int32_t occupancy(std::int32_t f, RouterId r) const {
    return occupancy_[router_idx(f, r)];
  }
  [[nodiscard]] std::int32_t injections(std::int32_t f, RouterId r) const {
    return injections_[router_idx(f, r)];
  }
  [[nodiscard]] std::int32_t refusals(std::int32_t f, RouterId r) const {
    return refusals_[router_idx(f, r)];
  }
  [[nodiscard]] std::int32_t deliveries(std::int32_t f, RouterId r) const {
    return deliveries_[router_idx(f, r)];
  }
  [[nodiscard]] std::int32_t credit_stalls(std::int32_t f, RouterId r) const {
    return credit_stalls_[router_idx(f, r)];
  }
  [[nodiscard]] std::int32_t misroutes(std::int32_t f, RouterId r) const {
    return misroutes_[router_idx(f, r)];
  }
  [[nodiscard]] std::int32_t link_departures(std::int32_t f,
                                             std::int32_t flat_link) const {
    return link_departures_[link_idx(f, flat_link)];
  }
  [[nodiscard]] std::int32_t counter(std::int32_t f,
                                     std::int32_t flat_link) const {
    return counters_[link_idx(f, flat_link)];
  }
  [[nodiscard]] std::int64_t cause_count(std::int32_t f,
                                         MisrouteCause cause) const {
    return causes_[static_cast<std::size_t>(f) * kMisrouteCauseCount +
                   static_cast<std::size_t>(cause)];
  }
  [[nodiscard]] std::int64_t drops(std::int32_t f) const {
    return frame_drops_[static_cast<std::size_t>(f)];
  }
  [[nodiscard]] std::int64_t undeliverable(std::int32_t f) const {
    return frame_undeliverable_[static_cast<std::size_t>(f)];
  }
  [[nodiscard]] std::int64_t ectn_updates(std::int32_t f) const {
    return frame_ectn_updates_[static_cast<std::size_t>(f)];
  }
  [[nodiscard]] std::int32_t links_down(std::int32_t f) const {
    return frame_links_down_[static_cast<std::size_t>(f)];
  }

  // --- lifetime totals (committed frames + pending accumulators — exact
  // regardless of frame capacity, so conservation checks never depend on
  // max_samples)

  [[nodiscard]] std::int64_t total_injections() const;
  [[nodiscard]] std::int64_t total_refusals() const;
  [[nodiscard]] std::int64_t total_deliveries() const;
  [[nodiscard]] std::int64_t total_credit_stalls() const;
  [[nodiscard]] std::int64_t total_link_departures() const;
  [[nodiscard]] std::int64_t total_misroutes() const;
  [[nodiscard]] std::int64_t total_cause(MisrouteCause cause) const;
  [[nodiscard]] std::int64_t total_drops() const { return sum_drops(); }
  [[nodiscard]] std::int64_t total_undeliverable() const;
  [[nodiscard]] std::int64_t total_ectn_updates() const;

 private:
  [[nodiscard]] std::size_t router_idx(std::int32_t f, RouterId r) const {
    return static_cast<std::size_t>(f) * static_cast<std::size_t>(routers_) +
           static_cast<std::size_t>(r);
  }
  [[nodiscard]] std::size_t link_idx(std::int32_t f,
                                     std::int32_t flat_link) const {
    return static_cast<std::size_t>(f) * static_cast<std::size_t>(links_) +
           static_cast<std::size_t>(flat_link);
  }
  [[nodiscard]] std::int64_t sum_drops() const;

  std::int32_t routers_ = 0;
  std::int32_t radix_ = 0;
  std::int32_t fwd_ = 0;
  std::int32_t links_ = 0;  // routers * radix (flat_port addressing)
  Cycle period_ = 0;
  std::int32_t max_samples_ = 0;

  // Pending accumulators (reset at every successful commit).
  std::vector<std::int64_t> acc_injections_;
  std::vector<std::int64_t> acc_refusals_;
  std::vector<std::int64_t> acc_deliveries_;
  std::vector<std::int64_t> acc_credit_stalls_;
  std::vector<std::int64_t> acc_misroutes_;
  std::vector<std::int64_t> acc_link_departures_;
  std::int64_t acc_causes_[kMisrouteCauseCount] = {};
  std::int64_t acc_drops_ = 0;
  std::int64_t acc_undeliverable_ = 0;
  std::int64_t acc_ectn_updates_ = 0;

  // Flush-time gauges (overwritten before each commit).
  std::vector<std::int32_t> gauge_occupancy_;
  std::vector<std::int16_t> gauge_counters_;
  std::int32_t gauge_links_down_ = 0;

  // Committed frame series (frame-major).
  std::int32_t frames_ = 0;
  std::int64_t dropped_frames_ = 0;
  std::vector<Cycle> frame_cycles_;
  std::vector<std::int32_t> occupancy_;
  std::vector<std::int32_t> injections_;
  std::vector<std::int32_t> refusals_;
  std::vector<std::int32_t> deliveries_;
  std::vector<std::int32_t> credit_stalls_;
  std::vector<std::int32_t> misroutes_;
  std::vector<std::int32_t> link_departures_;
  std::vector<std::int16_t> counters_;
  std::vector<std::int64_t> causes_;
  std::vector<std::int64_t> frame_drops_;
  std::vector<std::int64_t> frame_undeliverable_;
  std::vector<std::int64_t> frame_ectn_updates_;
  std::vector<std::int32_t> frame_links_down_;
};

}  // namespace dfsim::telemetry
