// Byte accounting per subsystem.
//
// Every stateful layer (Simulator, Topology, PacketPool, telemetry, the
// routing mechanism) answers `memory_report()` with one entry per table it
// owns. An entry carries two sizes:
//  - `bytes`: what the table has committed (written), i.e. what counts
//    toward resident memory;
//  - `reserved`: the address space it holds, >= bytes. The two differ only
//    for storage that is deliberately left untouched until used (the packet
//    pool's id slots, the shard free lists, and the engine's queue slab and
//    link rings, whose resident pages mincore counts).
// `dfsim_run perf` prints the report next to peak RSS, so a run that uses a
// lot of memory says where it went.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace dfsim {

/// A vector's heap block (capacity, not size: that is what it holds).
template <class T>
[[nodiscard]] std::size_t vector_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

class MemoryReport {
 public:
  struct Entry {
    std::string name;
    std::size_t bytes = 0;
    std::size_t reserved = 0;
  };

  void add(std::string name, std::size_t bytes, std::size_t reserved) {
    entries_.push_back(Entry{std::move(name), bytes, std::max(bytes, reserved)});
  }
  void add(std::string name, std::size_t bytes) {
    add(std::move(name), bytes, bytes);
  }
  template <class T>
  void add(std::string name, const std::vector<T>& v) {
    add(std::move(name), vector_bytes(v));
  }

  /// Appends `sub`'s entries as "<prefix>.<name>".
  void merge(const std::string& prefix, const MemoryReport& sub) {
    for (const Entry& e : sub.entries_) {
      add(prefix + "." + e.name, e.bytes, e.reserved);
    }
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  /// Sum of committed bytes over entries whose name starts with `prefix`
  /// (the whole report for an empty prefix).
  [[nodiscard]] std::size_t bytes(const std::string& prefix = "") const {
    std::size_t sum = 0;
    for (const Entry& e : entries_) {
      if (e.name.compare(0, prefix.size(), prefix) == 0) sum += e.bytes;
    }
    return sum;
  }
  [[nodiscard]] std::size_t reserved(const std::string& prefix = "") const {
    std::size_t sum = 0;
    for (const Entry& e : entries_) {
      if (e.name.compare(0, prefix.size(), prefix) == 0) sum += e.reserved;
    }
    return sum;
  }

  /// One line per entry, in MiB, plus the total.
  void print(std::ostream& os) const {
    const auto mib = [](std::size_t b) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f MiB",
                    static_cast<double>(b) / (1024.0 * 1024.0));
      return std::string(buf);
    };
    const auto line = [&](const std::string& name, std::size_t b,
                          std::size_t r) {
      os << "  " << name << ": " << mib(b);
      if (r != b) os << " (reserved " << mib(r) << ")";
      os << "\n";
    };
    for (const Entry& e : entries_) line(e.name, e.bytes, e.reserved);
    line("total", bytes(), reserved());
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace dfsim
