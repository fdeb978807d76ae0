// Estimator-driven A^β/A^γ: the paper's block protocols re-planned at every
// block boundary from live (ĉ1, ĉ2, d̂) estimates.
//
// The adaptive transmitters mirror Figures 3/4 exactly, except that δ (and
// β's wait W) come from a BlockPlan computed per block instead of a constant
// fixed at construction. Correctness no longer leans on the oracle δ:
//
//   * β's inter-block wait runs for plan.wait steps AND until the channel has
//     drained (planner->outstanding() == 0). Even if d̂ is still far below
//     the true d, no packet of block j can be in flight when block j+1's
//     first send happens, so blocks cannot mix — the Figure 3 separation
//     argument holds with the drain replacing the δ·c1 ≥ d arithmetic.
//   * γ is ack-gated exactly as in Figure 4: block j+1 starts only after
//     δ_j acks, which the receiver emits only after δ_j arrivals. Estimation
//     quality affects effort, never correctness.
//
// Both sides of a pair read the same shared BlockPlanner (see est/estimator.h
// for the agreement argument). clone() shares the planner too: two clones
// stepped independently would race its sequential plan cache, so the
// explorer must not branch adaptive automata (no explorer config uses
// planner-backed pairs).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rstp/combinatorics/multiset_codec.h"
#include "rstp/est/estimator.h"
#include "rstp/protocols/base.h"

namespace rstp::est {

class AdaptiveBetaTransmitter final : public protocols::TransmitterBase {
 public:
  /// Requires config.planner with Discipline::TimedBlocks.
  explicit AdaptiveBetaTransmitter(const protocols::ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_t^beta-est"; }
  [[nodiscard]] std::optional<ioa::Action> enabled_local() const override;
  void apply(const ioa::Action& action) override;
  [[nodiscard]] bool quiescent() const override;
  [[nodiscard]] bool transmission_complete() const override;
  [[nodiscard]] std::string snapshot() const override;
  [[nodiscard]] std::unique_ptr<ioa::Automaton> clone() const override;

 private:
  enum class Phase : std::uint8_t { Send, Wait, Done };

  std::shared_ptr<BlockPlanner> planner_;
  Phase phase_ = Phase::Send;
  std::size_t block_ = 0;        ///< current block index
  std::uint32_t pos_ = 0;        ///< next symbol within the block
  std::int64_t wait_count_ = 0;  ///< wait_t steps taken since the block ended
  bool more_ = false;            ///< a block follows the current one
};

class AdaptiveBetaReceiver final : public protocols::ReceiverBase {
 public:
  explicit AdaptiveBetaReceiver(const protocols::ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_r^beta-est"; }
  [[nodiscard]] std::optional<ioa::Action> enabled_local() const override;
  void apply(const ioa::Action& action) override;
  [[nodiscard]] bool quiescent() const override;
  [[nodiscard]] const std::vector<ioa::Bit>& output() const override { return written_; }
  [[nodiscard]] std::string snapshot() const override;
  [[nodiscard]] std::unique_ptr<ioa::Automaton> clone() const override;

 private:
  std::shared_ptr<BlockPlanner> planner_;
  std::size_t block_index_ = 0;     ///< block currently being collected
  combinatorics::Multiset block_;   ///< Figure 3's A
  std::vector<ioa::Bit> decoded_;
  std::vector<ioa::Bit> written_;
  std::size_t target_length_ = 0;
};

class AdaptiveGammaTransmitter final : public protocols::TransmitterBase {
 public:
  /// Requires config.planner with Discipline::AckedBlocks.
  explicit AdaptiveGammaTransmitter(const protocols::ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_t^gamma-est"; }
  [[nodiscard]] std::optional<ioa::Action> enabled_local() const override;
  void apply(const ioa::Action& action) override;
  [[nodiscard]] bool quiescent() const override;
  [[nodiscard]] bool transmission_complete() const override;
  [[nodiscard]] std::string snapshot() const override;
  [[nodiscard]] std::unique_ptr<ioa::Automaton> clone() const override;

 private:
  enum class Phase : std::uint8_t { Send, AwaitAcks, Done };

  std::shared_ptr<BlockPlanner> planner_;
  Phase phase_ = Phase::Send;
  std::size_t block_ = 0;
  std::uint32_t pos_ = 0;     ///< symbols of the current block already sent
  std::int64_t acked_ = 0;    ///< acks consumed for the current block
  bool more_ = false;
};

class AdaptiveGammaReceiver final : public protocols::ReceiverBase {
 public:
  explicit AdaptiveGammaReceiver(const protocols::ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_r^gamma-est"; }
  [[nodiscard]] std::optional<ioa::Action> enabled_local() const override;
  void apply(const ioa::Action& action) override;
  [[nodiscard]] bool quiescent() const override;
  [[nodiscard]] const std::vector<ioa::Bit>& output() const override { return written_; }
  [[nodiscard]] std::string snapshot() const override;
  [[nodiscard]] std::unique_ptr<ioa::Automaton> clone() const override;

 private:
  std::shared_ptr<BlockPlanner> planner_;
  std::size_t block_index_ = 0;
  combinatorics::Multiset block_;
  std::vector<ioa::Bit> decoded_;
  std::vector<ioa::Bit> written_;
  std::size_t target_length_ = 0;
  std::int64_t unacked_ = 0;
};

}  // namespace rstp::est
