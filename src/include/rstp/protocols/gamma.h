// A^γ(k) — the active (acknowledgement-based) solution (paper §6.2,
// Figure 4; the protocol idea is credited to Richard Beigel).
//
// Like A^β but with block size δ2 = ⌊d/c2⌋ and ack-based block separation:
// the transmitter sends the δ2 packets of a block (taking ≤ δ2·c2 ≤ d time),
// then idles until it has received δ2 acknowledgements — one per delivered
// packet — before starting the next block. Since acks certify that the
// receiver holds the complete block, no timing argument is needed for block
// separation, and the per-block latency is bounded by 3d + c2 (packet
// delivery d, receiver ack step c2, ack delivery d, plus the ≤ d of block
// transmission), giving effort ≤ (3d + c2)/⌊log2 μ_k(δ2)⌋.
//
// The receiver's local-action priority is: outstanding acks first, then
// writes, then idle — acks gate the transmitter's progress, writes do not.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rstp/combinatorics/block_coder.h"
#include "rstp/protocols/base.h"

namespace rstp::protocols {

/// Payload of every acknowledgement packet (P^rt is the singleton {ack}).
inline constexpr std::uint32_t kAckPayload = 0;

class GammaTransmitter final : public TransmitterBase {
 public:
  explicit GammaTransmitter(const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_t^gamma"; }
  [[nodiscard]] std::optional<ioa::Action> enabled_local() const override;
  void apply(const ioa::Action& action) override;
  [[nodiscard]] bool quiescent() const override;
  [[nodiscard]] bool transmission_complete() const override;
  [[nodiscard]] std::string snapshot() const override;
  [[nodiscard]] std::unique_ptr<ioa::Automaton> clone() const override;

  /// δ2: packets per block (= acks awaited per round).
  [[nodiscard]] std::int64_t block_size() const { return delta2_; }
  [[nodiscard]] std::size_t bits_per_block() const { return coder_->bits_per_block(); }
  [[nodiscard]] const std::vector<combinatorics::Symbol>& symbol_stream() const { return stream_; }

 private:
  std::shared_ptr<const combinatorics::BlockCoder> coder_;
  std::vector<combinatorics::Symbol> stream_;
  std::int64_t delta2_ = 0;  // δ2
  std::size_t i_ = 0;        // next symbol index
  std::int64_t c_ = 0;       // packets sent in the current block (Figure 4's c)
  std::int64_t a_ = 0;       // acks received in the current block (Figure 4's a)
};

class GammaReceiver final : public ReceiverBase {
 public:
  explicit GammaReceiver(const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_r^gamma"; }
  [[nodiscard]] std::optional<ioa::Action> enabled_local() const override;
  void apply(const ioa::Action& action) override;
  [[nodiscard]] bool quiescent() const override;
  [[nodiscard]] const std::vector<ioa::Bit>& output() const override { return written_; }
  [[nodiscard]] std::string snapshot() const override;
  [[nodiscard]] std::unique_ptr<ioa::Automaton> clone() const override;

  [[nodiscard]] std::size_t decoded_bits() const { return decoded_.size(); }

 private:
  std::shared_ptr<const combinatorics::BlockCoder> coder_;
  combinatorics::Multiset block_;   // Figure 4's A
  std::vector<ioa::Bit> decoded_;
  std::vector<ioa::Bit> written_;   // Y
  std::int64_t unacked_ = 0;        // Figure 4's j: received, not yet acked
  std::size_t target_length_ = 0;
};

}  // namespace rstp::protocols
