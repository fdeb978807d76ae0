// Shared machinery for the repo's generational search engines — the
// coverage-guided fuzzer (sim/fuzz.h) and the adversary synthesizer
// (sim/adversary.h). Both hunt the same way: plan a batch deterministically,
// evaluate its slots in parallel, fold the results serially, repeat. What
// they *score* differs (crash/violation novelty vs. protocol effort), so the
// reusable parts live here:
//
//   * FNV-1a mixing and the event fingerprint: a 64-bit digest of "where the
//     protocol is" after one applied event. It deliberately excludes raw
//     times and sequence numbers (every case would be all-new coverage) and
//     includes the action shape, the protocol automata's own counters, and
//     the output length — state the paper's proofs quantify over.
//   * FingerprintSet: the set those fingerprints are collected in, once per
//     event. It must not allocate per insert (a node-based set spent a fifth
//     of the adversary search's time there; docs/PERF.md), so it is a flat
//     open-addressing table that keeps its capacity across clear().
//   * parallel_for_slots: the library's one worker pool. Campaign jobs,
//     MultiSession shards and every search generation run on it. Workers
//     claim indices from an atomic cursor and write disjoint slots; the
//     caller folds serially afterwards, so results are independent of the
//     worker count. The first slot exception stops further claims and is
//     rethrown on the caller's thread.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "rstp/ioa/trace.h"
#include "rstp/protocols/base.h"

namespace rstp::sim {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

[[nodiscard]] constexpr std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

/// Coverage fingerprint of one applied event given the two protocol
/// automata's current counter state (see the header comment).
[[nodiscard]] std::uint64_t event_fingerprint(const ioa::TimedEvent& e,
                                              const protocols::TransmitterBase& t,
                                              const protocols::ReceiverBase& r);

/// FNV-1a over a bit sequence (output hashing).
[[nodiscard]] std::uint64_t hash_bits(const std::vector<ioa::Bit>& bits);

/// FNV-1a fold of an already-sorted value sequence (order-independent
/// coverage hashing: sort first, then fold).
[[nodiscard]] std::uint64_t hash_sorted(const std::vector<std::uint64_t>& values);

/// Set of 64-bit fingerprints: open addressing with linear probing over a
/// power-of-two table, Fibonacci hashing, load at most 1/2. Slot value 0
/// marks an empty slot, so the key 0 is kept in a flag instead.
class FingerprintSet {
 public:
  /// Adds `v`; true when it was not already a member.
  bool insert(std::uint64_t v) {
    if (v == 0) {
      const bool fresh = !has_zero_;
      has_zero_ = true;
      return fresh;
    }
    if (2 * (used_ + 1) > slots_.size()) grow();
    for (std::size_t i = bucket(v);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == v) return false;
      if (slots_[i] == 0) {
        slots_[i] = v;
        ++used_;
        return true;
      }
    }
  }

  [[nodiscard]] std::size_t size() const { return used_ + (has_zero_ ? 1 : 0); }

  /// Empties the set and keeps its capacity.
  void clear();

  /// Calls f(v) once per member, in unspecified order: use it only for
  /// folds whose result does not depend on the order.
  template <typename F>
  void for_each(F&& f) const {
    if (has_zero_) f(std::uint64_t{0});
    for (const std::uint64_t v : slots_) {
      if (v != 0) f(v);
    }
  }

  /// The members in increasing order.
  [[nodiscard]] std::vector<std::uint64_t> sorted() const;

 private:
  [[nodiscard]] std::size_t bucket(std::uint64_t v) const {
    return static_cast<std::size_t>((v * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  void grow();

  std::vector<std::uint64_t> slots_;  ///< 0 = empty; size is 0 or a power of two
  std::size_t used_ = 0;              ///< nonzero members
  unsigned shift_ = 64;               ///< 64 - log2(slots_.size())
  bool has_zero_ = false;
};

/// Runs fn(0..n-1) across up to `jobs` worker threads (0 = hardware
/// concurrency); with one worker, fn runs inline on the caller's thread.
/// fn must write only to its own slot `i`.
void parallel_for_slots(std::size_t n, unsigned jobs,
                        const std::function<void(std::size_t)>& fn);

}  // namespace rstp::sim
