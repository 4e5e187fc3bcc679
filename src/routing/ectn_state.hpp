// ECtN (Explicit Contention Notification, Section V-C / VI-B): every router
// periodically broadcasts its global-port contention counters inside its
// group, so all group members know the contention of every global channel and
// can misroute — and pick an alternative channel — at injection time.
//
// This header holds (a) the per-group snapshot ECtN routing consults, (b)
// the analytic broadcast-overhead estimate the paper derives (~6 phits per
// 100-cycle update at Table I scale), and (c) the on-line overhead monitor
// that measures what the alternative encodings the paper sketches would cost
// on live traffic (full array / nonempty-with-id / incremental / async).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "util/memory_report.hpp"
#include "util/types.hpp"

namespace dfsim {

/// Bits needed to represent values 0..max_value. Shared by the analytic
/// overhead estimate and the live monitor so the Section VI-B arithmetic
/// cannot desynchronize.
[[nodiscard]] constexpr std::int32_t bits_for_value(std::int32_t max_value) {
  std::int32_t bits = 1;
  while ((1 << bits) <= max_value) ++bits;
  return bits;
}

// ---------------------------------------------------------------------------
// Snapshot consulted by injection decisions.

/// Per-group copy of all a*h global-channel counters, refreshed every
/// `ectn_update_period` cycles by EctnMechanism::update.
class EctnSnapshot {
 public:
  void resize(std::int32_t groups, std::int32_t channels_per_group) {
    channels_ = channels_per_group;
    values_.assign(
        static_cast<std::size_t>(groups) * static_cast<std::size_t>(channels_),
        0);
  }

  [[nodiscard]] std::int32_t value(GroupId g, std::int32_t channel) const {
    return values_[static_cast<std::size_t>(g) *
                       static_cast<std::size_t>(channels_) +
                   static_cast<std::size_t>(channel)];
  }
  void set(GroupId g, std::int32_t channel, std::int32_t value) {
    values_[static_cast<std::size_t>(g) * static_cast<std::size_t>(channels_) +
            static_cast<std::size_t>(channel)] =
        static_cast<std::int16_t>(value);
  }
  [[nodiscard]] std::int32_t channels_per_group() const { return channels_; }
  [[nodiscard]] std::size_t heap_bytes() const {
    return vector_bytes(values_);
  }

 private:
  std::int32_t channels_ = 0;
  std::vector<std::int16_t> values_;
};

// ---------------------------------------------------------------------------
// Analytic estimate (paper's Section VI-B arithmetic).

struct EctnOverheadEstimate {
  std::int32_t counters = 0;         // counters broadcast per group (a*h)
  std::int32_t bits_per_counter = 0; // ceil(log2(saturation+1))
  std::int32_t payload_bits = 0;     // counters * bits_per_counter
  double phits = 0.0;                // payload / phit size
  double bandwidth_fraction = 0.0;   // phits per update / update period
};

[[nodiscard]] EctnOverheadEstimate estimate_ectn_overhead(
    const SimParams& params, std::int32_t phit_bits = 80);

// ---------------------------------------------------------------------------
// Live measurement.

struct EctnOverheadReport {
  // Average broadcast payload in bits per update per router, per encoding.
  double avg_bits_full = 0.0;
  double avg_bits_nonempty = 0.0;
  double avg_bits_incremental = 0.0;
  double avg_bits_async = 0.0;
  std::int64_t async_urgent_messages = 0;

  [[nodiscard]] double phits_full(std::int32_t phit_bits) const {
    return avg_bits_full / static_cast<double>(phit_bits);
  }
  /// Link-bandwidth fraction of a 1 phit/cycle local link consumed by one
  /// router's updates of `bits` every `period` cycles.
  [[nodiscard]] double overhead_fraction(std::int32_t phit_bits, Cycle period,
                                         double bits) const {
    if (period <= 0) return 0.0;
    return (bits / static_cast<double>(phit_bits)) /
           static_cast<double>(period);
  }
};

/// Samples one router's h global counters at every update period and
/// accumulates what each encoding would have sent. Owned by EctnMechanism,
/// which samples it in its update window; see Simulator::enable_ectn_monitor.
class EctnOverheadMonitor {
 public:
  void configure(std::int32_t routers, std::int32_t counters_per_router,
                 std::int32_t bits_per_counter, std::int32_t id_bits,
                 std::int32_t async_mult, std::int32_t urgent_delta);

  /// Feed the current counter values of one router at an update boundary.
  /// `values` must hold `counters_per_router` entries.
  void on_update(RouterId router, const std::int16_t* values);

  [[nodiscard]] EctnOverheadReport report() const;

  [[nodiscard]] std::size_t heap_bytes() const {
    return vector_bytes(last_period_) + vector_bytes(last_full_) +
           vector_bytes(updates_seen_);
  }

 private:
  std::int32_t counters_per_router_ = 0;
  std::int32_t bits_per_counter_ = 4;
  std::int32_t id_bits_ = 0;
  std::int32_t async_mult_ = 4;
  std::int32_t urgent_delta_ = 4;

  // Last values seen per router: [routers x counters_per_router], for the
  // incremental encoding (vs previous period) and the async encoding (vs
  // previous *full* broadcast).
  std::vector<std::int16_t> last_period_;
  std::vector<std::int16_t> last_full_;
  std::vector<std::int32_t> updates_seen_;  // per router

  std::int64_t samples_ = 0;  // (router, update) samples
  double bits_full_ = 0.0;
  double bits_nonempty_ = 0.0;
  double bits_incremental_ = 0.0;
  double bits_async_ = 0.0;
  std::int64_t urgent_messages_ = 0;
};

}  // namespace dfsim
