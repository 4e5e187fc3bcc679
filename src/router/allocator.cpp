#include "router/allocator.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace dfsim {

SeparableAllocator::SeparableAllocator(std::int32_t in_ports,
                                       std::int32_t out_ports,
                                       std::int32_t vcs,
                                       std::int32_t routers)
    : in_ports_(in_ports),
      out_ports_(out_ports),
      vcs_(vcs),
      routers_(routers) {
  // Wrap bound for the input round-robin counters: any multiple of
  // lcm(1..vcs) keeps `counter % n` bit-identical to an unbounded counter
  // for all request counts n <= vcs; the lcm itself is the tightest bound.
  // For absurd vcs (>= 23) the lcm leaves the int range — fall back to no
  // wrap (0): the counters are int64, which cannot practically overflow,
  // so correctness is preserved either way.
  std::int64_t l = 1;
  for (std::int32_t v = 2; v <= vcs_; ++v) {
    l = std::lcm(l, std::int64_t{v});
    if (l > (std::int64_t{1} << 30)) {
      l = 0;
      break;
    }
  }
  in_rr_wrap_ = l;

  in_rr_.assign(static_cast<std::size_t>(routers_ * in_ports_), 0);
  out_rr_.assign(static_cast<std::size_t>(routers_ * out_ports_), 0);
  in_busy_.assign(static_cast<std::size_t>(in_ports_), 0);
  out_busy_.assign(static_cast<std::size_t>(out_ports_), 0);
  out_has_candidate_.assign(static_cast<std::size_t>(out_ports_), 0);
  winners_.reserve(static_cast<std::size_t>(in_ports_));
  cand_outs_.reserve(static_cast<std::size_t>(out_ports_));
  // A grant keeps its input and output busy until the next begin_cycle(),
  // so a cycle grants at most min(in, out) times.
  cycle_grants_.reserve(static_cast<std::size_t>(
      std::min(in_ports_, out_ports_)));
}

void SeparableAllocator::begin_cycle(std::int32_t router) {
  assert(router >= 0 && router < routers_);
  in_base_ = static_cast<std::size_t>(router * in_ports_);
  out_base_ = static_cast<std::size_t>(router * out_ports_);
  std::fill(in_busy_.begin(), in_busy_.end(), std::int8_t{0});
  std::fill(out_busy_.begin(), out_busy_.end(), std::int8_t{0});
  cycle_grants_.clear();
}

std::span<const AllocGrant> SeparableAllocator::iterate(
    const AllocRequestBatch& batch) {
  const std::size_t first = cycle_grants_.size();  // this iteration's grants

  // Stage 1: each free requesting input picks one VC, round-robin from its
  // pointer. Only inputs present in the batch are visited (they arrive in
  // ascending port order), so an idle router costs nothing here.
  const std::vector<AllocRequest>& reqs = batch.reqs();
  for (const AllocRequestBatch::Group& group : batch.groups()) {
    const auto ini = static_cast<std::size_t>(group.in);
    if (in_busy_[ini]) continue;
    const std::int32_t n = group.count;
    assert(n <= vcs_);  // the wrap-bound equivalence needs n <= vcs
    const auto start = static_cast<std::int32_t>(in_rr_[in_base_ + ini] % n);
    for (std::int32_t k = 0; k < n; ++k) {
      const AllocRequest& req =
          reqs[static_cast<std::size_t>(group.begin + (start + k) % n)];
      if (out_busy_[static_cast<std::size_t>(req.out)]) continue;
      // dfsim-check: allow(CHK-ALLOC): reserved to in_ports_ in the ctor
      winners_.push_back(AllocGrant{group.in, req.vc, req.out});
      if (!out_has_candidate_[static_cast<std::size_t>(req.out)]) {
        out_has_candidate_[static_cast<std::size_t>(req.out)] = 1;
        // dfsim-check: allow(CHK-ALLOC): reserved to out_ports_ in the ctor
        cand_outs_.push_back(req.out);
      }
      break;
    }
  }

  // Stage 2: each contested output picks one stage-1 winner. The winner is
  // the input with the smallest circular round-robin distance from the
  // output's pointer — equivalent to the dense scan from out_rr_[out], in
  // O(winners) instead of O(in_ports). Outputs are processed in ascending
  // index order (grant order is observable downstream: the engine pops
  // queues in grant order and RNG draws hang off the new heads).
  // With through-priority enabled, through inputs rank before injection
  // inputs regardless of distance (the old two-pass scan).
  if (!winners_.empty()) {
    std::sort(cand_outs_.begin(), cand_outs_.end());
    for (const PortIndex out : cand_outs_) {
      const auto outi = static_cast<std::size_t>(out);
      if (out_busy_[outi]) continue;
      std::int32_t& out_rr = out_rr_[out_base_ + outi];
      const std::int32_t start = out_rr;
      std::int32_t best = -1;
      std::int32_t best_key = 0;
      for (std::size_t w = 0; w < winners_.size(); ++w) {
        const AllocGrant& cand = winners_[w];
        if (cand.out != out) continue;
        if (in_busy_[static_cast<std::size_t>(cand.in)]) continue;
        const std::int32_t dist =
            (cand.in - start + in_ports_) % in_ports_;
        const std::int32_t cls =
            (first_injection_port_ >= 0 && cand.in >= first_injection_port_)
                ? 1
                : 0;
        const std::int32_t key = cls * in_ports_ + dist;
        if (best < 0 || key < best_key) {
          best = static_cast<std::int32_t>(w);
          best_key = key;
        }
      }
      if (best < 0) continue;
      const AllocGrant& grant = winners_[static_cast<std::size_t>(best)];
      // dfsim-check: allow(CHK-ALLOC): reserved to min(in,out) in the ctor
      cycle_grants_.push_back(grant);
      in_busy_[static_cast<std::size_t>(grant.in)] = 1;
      out_busy_[outi] = 1;
      // Advance round-robin pointers past the winners. out_rr_ is bounded
      // by its modulus here; in_rr_ wraps at lcm(1..vcs) (see in_rr_wrap).
      out_rr = (grant.in + 1) % in_ports_;
      std::int64_t& rr =
          in_rr_[in_base_ + static_cast<std::size_t>(grant.in)];
      rr = (in_rr_wrap_ != 0 && rr + 1 == in_rr_wrap_) ? 0 : rr + 1;
    }
  }

  // Sparse-clear the per-iteration scratch.
  for (const PortIndex out : cand_outs_) {
    out_has_candidate_[static_cast<std::size_t>(out)] = 0;
  }
  cand_outs_.clear();
  winners_.clear();
  return {cycle_grants_.data() + first, cycle_grants_.size() - first};
}

std::size_t SeparableAllocator::heap_bytes() const {
  const auto bytes = [](const auto& v) { return vector_bytes(v); };
  return bytes(in_rr_) + bytes(out_rr_) + bytes(in_busy_) + bytes(out_busy_) +
         bytes(winners_) + bytes(out_has_candidate_) + bytes(cand_outs_) +
         bytes(cycle_grants_);
}

}  // namespace dfsim
