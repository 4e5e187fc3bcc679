// Packet records plus the id ranges that hand ids out.
//
// A packet id indexes one 32-byte record (two to a cache line), so a hop
// that reads a packet's routing state misses at most once instead of once
// per field. The records are sized once, at construction, to the engine's
// structural bound (every live packet sits in a queue slot or on a link
// ring, so more can never be live) and never reallocate, so sharded
// workers may index them concurrently. The storage is an anonymous mapping
// (LazyArray), which the kernel commits page by page on first touch: a
// page becomes resident only when an id on it is first handed out. (Heap
// storage would not guarantee that: malloc may hand back recycled,
// already-resident blocks.) reset_packet() writes every field before
// anything reads it.
//
// Ids come from IdRanges, disjoint [lo, hi) slices of the id space: one per
// engine shard, the serial engine's spanning everything. A range pops its
// LIFO free list first and otherwise bumps its high-water pointer, so a
// fresh range hands out lo, lo + 1, ... and the latest released id is the
// next one reused.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "util/memory_report.hpp"
#include "util/types.hpp"

namespace dfsim {

/// Fixed-size array of trivial T in a private anonymous mapping: untouched
/// pages cost address space only, and the whole mapping returns to the
/// system on destruction. Holds the packet records, the id free lists and
/// the engine's queue slab and link rings; none is read before written.
template <class T>
class LazyArray {
 public:
  LazyArray() = default;
  explicit LazyArray(std::size_t n) : bytes_(n * sizeof(T)) {
    if (bytes_ == 0) return;
    // NORESERVE: only touched pages count against the commit limit.
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
  }
  ~LazyArray() {
    if (data_ != nullptr) munmap(data_, bytes_);
  }
  LazyArray(LazyArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        bytes_(std::exchange(other.bytes_, 0)) {}
  LazyArray& operator=(LazyArray&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(bytes_, other.bytes_);
    return *this;
  }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] std::size_t size() const { return bytes_ / sizeof(T); }
  [[nodiscard]] std::size_t reserved_bytes() const { return bytes_; }

  /// Bytes of the mapping's pages that are resident (touched), from
  /// mincore(2); at most reserved_bytes().
  [[nodiscard]] std::size_t resident_bytes() const {
    if (data_ == nullptr) return 0;
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    std::vector<unsigned char> in_core((bytes_ + page - 1) / page);
    if (mincore(data_, bytes_, in_core.data()) != 0) return bytes_;
    std::size_t pages = 0;
    for (const unsigned char c : in_core) pages += c & 1U;
    return std::min(pages * page, bytes_);
  }

 private:
  T* data_ = nullptr;
  std::size_t bytes_ = 0;
};

class IdRange {
 public:
  IdRange() = default;
  /// Ids [lo, hi); the free list's storage is reserved, not touched.
  IdRange(std::int32_t lo, std::int32_t hi)
      : lo_(lo),
        hi_(hi),
        next_(lo),
        free_(static_cast<std::size_t>(hi - lo)) {}

  /// Next id, or kInvalidPacket when every id of the range is live.
  std::int32_t allocate() {
    if (n_free_ > 0) return free_[static_cast<std::size_t>(--n_free_)];
    if (next_ == hi_) return kInvalidPacket;
    return next_++;
  }
  /// Returns an id this range handed out.
  void release(std::int32_t id) {
    free_[static_cast<std::size_t>(n_free_++)] = id;
  }

  [[nodiscard]] bool owns(std::int32_t id) const {
    return id >= lo_ && id < hi_;
  }
  [[nodiscard]] std::int32_t size() const { return hi_ - lo_; }
  /// Distinct ids handed out so far (the range's high-water mark).
  [[nodiscard]] std::int32_t high_water() const { return next_ - lo_; }

  /// Free-list storage: reserved for the whole range, committed at most up
  /// to the high-water mark (the list never holds more ids than were
  /// handed out).
  [[nodiscard]] std::size_t free_list_bytes() const {
    return static_cast<std::size_t>(high_water()) * sizeof(std::int32_t);
  }
  [[nodiscard]] std::size_t free_list_reserved() const {
    return static_cast<std::size_t>(size()) * sizeof(std::int32_t);
  }

 private:
  std::int32_t lo_ = 0;
  std::int32_t hi_ = 0;
  std::int32_t next_ = 0;
  std::int32_t n_free_ = 0;
  LazyArray<std::int32_t> free_;
};

/// One packet's state. Field order keeps `birth` 8-byte aligned; the
/// alignment pads the record to 32 bytes so no record straddles a line.
struct alignas(32) Packet {
  NodeId src;
  NodeId dst;
  Cycle birth;
  RouterId target_router;  // phase-0 gateway target
  std::int16_t via_port;   // global port at the gateway
  std::uint16_t hops;      // total hops (livelock guard)
  std::int8_t g_hops;      // global hops taken (VC class)
  std::uint8_t flags;
};
static_assert(sizeof(Packet) == 32);

class PacketPool {
 public:
  // Packet flag bits.
  static constexpr std::uint8_t kRouted = 1;        // injection decision made
  static constexpr std::uint8_t kMisGlobal = 2;     // globally misrouted
  static constexpr std::uint8_t kMisLocal = 4;      // took a local detour
  static constexpr std::uint8_t kInorder = 8;       // pinned to minimal path
  static constexpr std::uint8_t kPhase0 = 16;       // heading to misroute gateway
  static constexpr std::uint8_t kDetoured = 32;     // local detour in this group

  PacketPool() = default;
  explicit PacketPool(std::int32_t bound)
      : bound_(bound), packets_(static_cast<std::size_t>(bound)) {}

  Packet& operator[](std::int32_t id) {
    return packets_[static_cast<std::size_t>(id)];
  }
  const Packet& operator[](std::int32_t id) const {
    return packets_[static_cast<std::size_t>(id)];
  }

  /// Writes every field of a freshly allocated packet.
  void reset_packet(std::int32_t id, NodeId source, NodeId dest, Cycle now) {
    (*this)[id] = Packet{source, dest, now, -1, -1, 0, 0, 0};
  }

  /// Ids the records hold (the structural bound).
  [[nodiscard]] std::int32_t bound() const { return bound_; }

  static constexpr std::size_t kBytesPerPacket = sizeof(Packet);

  /// Slot storage: reserved for the bound, committed up to `high_water`
  /// ids (the sum of the id ranges' high-water marks).
  [[nodiscard]] MemoryReport memory_report(std::int64_t high_water) const {
    MemoryReport report;
    report.add("slots", static_cast<std::size_t>(high_water) * kBytesPerPacket,
               static_cast<std::size_t>(bound_) * kBytesPerPacket);
    return report;
  }

 private:
  std::int32_t bound_ = 0;
  LazyArray<Packet> packets_;
};

}  // namespace dfsim
