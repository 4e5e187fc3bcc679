// Software prefetch hints for the engine's lookahead walks. A hint never
// faults and never changes results: it only starts a cache-line fill early,
// so a load issued a few iterations later finds the line resident.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dfsim {

/// Fetches the line holding `p`.
inline void prefetch(const void* p) { __builtin_prefetch(p); }

/// Fetches every line of [p, p + bytes).
inline void prefetch_span(const void* p, std::size_t bytes) {
  constexpr std::uintptr_t kLine = 64;
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  for (std::uintptr_t a = begin & ~(kLine - 1); a < begin + bytes;
       a += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(a));
  }
}

}  // namespace dfsim
