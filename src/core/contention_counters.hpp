// Per-output-port contention counters (Section IV of the paper).
//
// A counter tracks how many packet *heads* in this router are currently
// requesting the port as their minimal output: +1 when a packet becomes head
// of an input VC (or changes its requested port), -1 when its tail leaves the
// router. Contention is therefore observed the cycle it appears — before any
// queue has had time to fill — which is what gives the mechanism its fast
// transient response (Figures 7/8).
//
// Counters saturate (4 bits by default, matching the Section VI-B broadcast
// overhead math) and are branch-light: the hot path is one load, one clamped
// add, one store.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/memory_report.hpp"
#include "util/prefetch.hpp"
#include "util/types.hpp"

namespace dfsim {

class ContentionCounters {
 public:
  explicit ContentionCounters(std::int32_t ports,
                              std::int32_t saturation = 15)
      : saturation_(static_cast<std::int16_t>(saturation)),
        values_(static_cast<std::size_t>(ports), 0),
        // Tracks increments dropped at saturation so the matching decrement
        // is dropped too and head/tail pairs stay symmetric.
        overflow_(static_cast<std::size_t>(ports), 0) {}

  /// A packet head starts requesting `port`.
  void on_head(PortIndex port) {
    auto& v = values_[static_cast<std::size_t>(port)];
    if (v < saturation_) {
      ++v;
    } else {
      ++overflow_[static_cast<std::size_t>(port)];
    }
  }

  /// The tail of a packet whose head requested `port` leaves the router.
  void on_tail_departure(PortIndex port) {
    auto& v = values_[static_cast<std::size_t>(port)];
    // Only a counter at saturation can hold overflow (on_head overflows
    // only there, and the value stays put until the overflow drains), so
    // the overflow word is read only then.
    if (v == saturation_) {
      auto& over = overflow_[static_cast<std::size_t>(port)];
      if (over > 0) {
        --over;
        return;
      }
    }
    v = static_cast<std::int16_t>(std::max<std::int32_t>(0, v - 1));
  }

  /// Hint: fetch `port`'s counter line ahead of a head or tail event.
  void prefetch(PortIndex port) const {
    dfsim::prefetch(&values_[static_cast<std::size_t>(port)]);
  }

  [[nodiscard]] std::int32_t value(PortIndex port) const {
    return values_[static_cast<std::size_t>(port)];
  }
  [[nodiscard]] std::int32_t ports() const {
    return static_cast<std::int32_t>(values_.size());
  }
  [[nodiscard]] std::int32_t saturation() const { return saturation_; }
  [[nodiscard]] std::size_t heap_bytes() const {
    return vector_bytes(values_) + vector_bytes(overflow_);
  }

  void reset() {
    std::fill(values_.begin(), values_.end(), std::int16_t{0});
    std::fill(overflow_.begin(), overflow_.end(), std::int32_t{0});
  }

 private:
  std::int16_t saturation_;
  std::vector<std::int16_t> values_;
  std::vector<std::int32_t> overflow_;
};

}  // namespace dfsim
