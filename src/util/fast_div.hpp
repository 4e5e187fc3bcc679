// Division by a run-time constant with one multiply and a shift.
//
// For a fixed divisor 1 <= d < 2^31, n / d == (n * m) >> s for every
// 0 <= n < 2^31, with l = ceil(log2 d), s = 31 + l and
// m = floor(2^s / d) + 1 (Granlund & Montgomery, "Division by invariant
// integers using multiplication", 1994, Thm. 4.2 with N = 31). m <= 2^32,
// so the product fits 64 bits.
#pragma once

#include <bit>
#include <cstdint>

namespace dfsim {

class FastDivisor {
 public:
  explicit FastDivisor(std::int32_t d)
      : d_(d),
        shift_(31 + std::bit_width(static_cast<std::uint32_t>(d) - 1)),
        m_((std::uint64_t{1} << shift_) / static_cast<std::uint64_t>(d) + 1) {}

  /// n / d for 0 <= n < 2^31.
  [[nodiscard]] std::int32_t quot(std::int32_t n) const {
    return static_cast<std::int32_t>(
        (static_cast<std::uint64_t>(n) * m_) >> shift_);
  }
  /// n % d for 0 <= n < 2^31.
  [[nodiscard]] std::int32_t rem(std::int32_t n) const {
    return n - quot(n) * d_;
  }

 private:
  std::int32_t d_;
  int shift_;
  std::uint64_t m_;
};

}  // namespace dfsim
