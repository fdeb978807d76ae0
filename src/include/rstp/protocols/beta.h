// A^β(k) — the block r-passive solution (paper §6.1, Figure 3).
//
// The transmitter groups the input into chunks of B = ⌊log2 μ_k(δ)⌋ bits,
// encodes each chunk as a multiset of δ packets over the k-symbol alphabet
// (combinatorics::BlockCoder), and runs in rounds of 2δ steps: δ sends
// followed by δ idle steps. The idle phase spans ≥ d time at every legal
// step rate, so all packets of a block are delivered before any packet of
// the next block — blocks cannot mix. Within a block the channel may reorder
// arbitrarily; decoding is from the multiset, so order is irrelevant.
//
// δ here is ⌈d/c1⌉ (the paper's δ1 = d/c1 generalized to non-dividing c1;
// see core::TimingParams::delta1_wait). Worst-case effort:
// 2δ·c2 / B per message (Lemma 6.1's bound).
//
// The receiver accumulates arrivals in a multiset A, decodes every full
// block of δ, and writes the recovered bits one per step, discarding the
// zero-padding beyond |X|.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rstp/combinatorics/block_coder.h"
#include "rstp/protocols/base.h"

namespace rstp::protocols {

class BetaTransmitter final : public TransmitterBase {
 public:
  explicit BetaTransmitter(const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_t^beta"; }
  [[nodiscard]] std::optional<ioa::Action> enabled_local() const override;
  void apply(const ioa::Action& action) override;
  [[nodiscard]] bool quiescent() const override;
  [[nodiscard]] bool transmission_complete() const override;
  [[nodiscard]] std::string snapshot() const override;
  [[nodiscard]] std::unique_ptr<ioa::Automaton> clone() const override;

  /// δ: packets per block (default ⌈d/c1⌉, overridable via ProtocolConfig).
  [[nodiscard]] std::int64_t block_size() const { return block_; }
  /// Idle steps between blocks (default ⌈d/c1⌉, overridable).
  [[nodiscard]] std::int64_t wait_steps() const { return wait_; }
  /// B: message bits per block.
  [[nodiscard]] std::size_t bits_per_block() const { return coder_->bits_per_block(); }
  /// The full encoded symbol stream (|input| padded to a block multiple).
  [[nodiscard]] const std::vector<combinatorics::Symbol>& symbol_stream() const { return stream_; }

 private:
  std::shared_ptr<const combinatorics::BlockCoder> coder_;
  std::vector<combinatorics::Symbol> stream_;  // encoded X, block-aligned
  std::int64_t block_ = 0;                     // δ (send-phase length)
  std::int64_t wait_ = 0;                      // idle-phase length
  std::size_t i_ = 0;                          // next symbol index (Figure 3's i)
  std::int64_t c_ = 0;                         // round step counter (Figure 3's c)
};

class BetaReceiver final : public ReceiverBase {
 public:
  explicit BetaReceiver(const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_r^beta"; }
  [[nodiscard]] std::optional<ioa::Action> enabled_local() const override;
  void apply(const ioa::Action& action) override;
  [[nodiscard]] bool quiescent() const override;
  [[nodiscard]] const std::vector<ioa::Bit>& output() const override { return written_; }
  [[nodiscard]] std::string snapshot() const override;
  [[nodiscard]] std::unique_ptr<ioa::Automaton> clone() const override;

  /// Bits decoded so far (includes padding not yet known to be padding).
  [[nodiscard]] std::size_t decoded_bits() const { return decoded_.size(); }

 private:
  std::shared_ptr<const combinatorics::BlockCoder> coder_;
  combinatorics::Multiset block_;     // Figure 3's A
  std::vector<ioa::Bit> decoded_;     // Figure 3's ŷ_1, ŷ_2, ...
  std::vector<ioa::Bit> written_;     // Y
  std::size_t target_length_ = 0;     // |X|: bits beyond this are padding
};

}  // namespace rstp::protocols
