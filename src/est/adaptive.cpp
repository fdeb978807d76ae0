#include "rstp/est/adaptive.h"

#include <sstream>

#include "rstp/common/check.h"
#include "rstp/protocols/gamma.h"

namespace rstp::est {

using ioa::Action;
using ioa::ActionKind;
using ioa::Bit;
using ioa::Packet;

namespace {

std::shared_ptr<BlockPlanner> checked_planner(const protocols::ProtocolConfig& config,
                                              BlockPlanner::Discipline expected) {
  config.validate();
  RSTP_CHECK(config.planner != nullptr, "adaptive automata require config.planner");
  RSTP_CHECK(config.planner->discipline() == expected,
             "planner discipline does not match the protocol");
  RSTP_CHECK_EQ(config.planner->alphabet(), config.k, "planner alphabet must match config.k");
  RSTP_CHECK_EQ(config.planner->input_bits(), config.input.size(),
                "planner input must match config.input");
  return config.planner;
}

}  // namespace

// ---------------------------------------------------------------------------
// β

AdaptiveBetaTransmitter::AdaptiveBetaTransmitter(const protocols::ProtocolConfig& config)
    : planner_(checked_planner(config, BlockPlanner::Discipline::TimedBlocks)) {
  if (planner_->input_bits() == 0) phase_ = Phase::Done;
}

std::optional<Action> AdaptiveBetaTransmitter::enabled_local() const {
  switch (phase_) {
    case Phase::Send: {
      const BlockPlan& p = planner_->plan(block_);
      return Action::send(Packet::to_receiver(p.symbols[pos_]));
    }
    case Phase::Wait:
      return protocols::wait_t_action();
    case Phase::Done:
      return std::nullopt;
  }
  RSTP_UNREACHABLE("invalid phase");
}

void AdaptiveBetaTransmitter::apply(const Action& action) {
  if (accepts_input(action)) {
    return;  // r-passive: the receiver never sends, but stay input-enabled
  }
  const std::optional<Action> enabled = enabled_local();
  RSTP_CHECK(enabled.has_value() && *enabled == action, "action not enabled");
  if (action.kind == ActionKind::Send) {
    const BlockPlan& p = planner_->plan(block_);
    ++pos_;
    if (pos_ == p.delta) {
      ++counters_.blocks_encoded;
      more_ = planner_->has_block(block_ + 1);
      phase_ = Phase::Wait;
      wait_count_ = 0;
    }
    return;
  }
  // wait_t: count the step; leave the wait phase only once the planned wait
  // has elapsed AND the channel has drained — the drain is what makes the
  // protocol correct even while the estimates are still warming up.
  ++wait_count_;
  const BlockPlan& p = planner_->plan(block_);
  if (wait_count_ >= static_cast<std::int64_t>(p.wait) && planner_->outstanding() == 0) {
    if (more_) {
      ++block_;
      pos_ = 0;
      phase_ = Phase::Send;
    } else {
      phase_ = Phase::Done;
    }
  }
}

bool AdaptiveBetaTransmitter::quiescent() const { return transmission_complete(); }

bool AdaptiveBetaTransmitter::transmission_complete() const {
  return phase_ == Phase::Done || (phase_ == Phase::Wait && !more_);
}

std::string AdaptiveBetaTransmitter::snapshot() const {
  std::ostringstream os;
  os << "beta_est_t block=" << block_ << " pos=" << pos_ << " wait=" << wait_count_
     << " phase=" << static_cast<int>(phase_);
  return os.str();
}

std::unique_ptr<ioa::Automaton> AdaptiveBetaTransmitter::clone() const {
  // Shares the planner (see the header caveat on explorer branching).
  return std::make_unique<AdaptiveBetaTransmitter>(*this);
}

AdaptiveBetaReceiver::AdaptiveBetaReceiver(const protocols::ProtocolConfig& config)
    : planner_(checked_planner(config, BlockPlanner::Discipline::TimedBlocks)),
      block_(config.k),
      target_length_(config.input.size()) {
}

std::optional<Action> AdaptiveBetaReceiver::enabled_local() const {
  if (written_.size() < decoded_.size() && written_.size() < target_length_) {
    return Action::write(decoded_[written_.size()]);
  }
  return protocols::idle_r_action();
}

void AdaptiveBetaReceiver::apply(const Action& action) {
  if (accepts_input(action)) {
    const std::uint32_t payload = action.packet.payload;
    RSTP_CHECK_LT(payload, planner_->alphabet(), "packet symbol outside the alphabet");
    // The transmitter computed plan(block_index_) before sending any of its
    // packets, so this lookup always hits the frozen cache.
    const BlockPlan& p = planner_->plan(block_index_);
    block_.add(payload);
    if (block_.size() == p.delta) {
      const std::vector<Bit> bits = p.coder->decode(block_);
      // Blocks are padded independently: keep only this block's real bits.
      decoded_.insert(decoded_.end(), bits.begin(),
                      bits.begin() + static_cast<std::ptrdiff_t>(p.bits));
      block_.clear();
      ++block_index_;
      ++counters_.blocks_decoded;
    }
    return;
  }
  const std::optional<Action> enabled = enabled_local();
  RSTP_CHECK(enabled.has_value() && *enabled == action, "action not enabled");
  if (action.kind == ActionKind::Write) {
    written_.push_back(action.message);
  }
}

bool AdaptiveBetaReceiver::quiescent() const {
  return written_.size() >= target_length_ ||
         (written_.size() == decoded_.size() && block_.size() == 0);
}

std::string AdaptiveBetaReceiver::snapshot() const {
  std::ostringstream os;
  os << "beta_est_r block=" << block_index_ << " decoded=" << decoded_.size()
     << " written=" << written_.size() << " pending=" << block_.size();
  return os.str();
}

std::unique_ptr<ioa::Automaton> AdaptiveBetaReceiver::clone() const {
  return std::make_unique<AdaptiveBetaReceiver>(*this);
}

// ---------------------------------------------------------------------------
// γ

AdaptiveGammaTransmitter::AdaptiveGammaTransmitter(const protocols::ProtocolConfig& config)
    : planner_(checked_planner(config, BlockPlanner::Discipline::AckedBlocks)) {
  if (planner_->input_bits() == 0) phase_ = Phase::Done;
}

std::optional<Action> AdaptiveGammaTransmitter::enabled_local() const {
  switch (phase_) {
    case Phase::Send: {
      const BlockPlan& p = planner_->plan(block_);
      return Action::send(Packet::to_receiver(p.symbols[pos_]));
    }
    case Phase::AwaitAcks:
      return protocols::idle_t_action();
    case Phase::Done:
      return std::nullopt;
  }
  RSTP_UNREACHABLE("invalid phase");
}

void AdaptiveGammaTransmitter::apply(const Action& action) {
  if (accepts_input(action)) {
    RSTP_CHECK_EQ(action.packet.payload, protocols::kAckPayload, "unexpected r→t payload");
    ++acked_;
    ++counters_.acks_observed;
    RSTP_CHECK_LE(acked_, static_cast<std::int64_t>(pos_),
                  "ack without a matching packet in this block");
    const BlockPlan& p = planner_->plan(block_);
    if (acked_ == static_cast<std::int64_t>(p.delta)) {
      acked_ = 0;
      if (more_) {
        ++block_;
        pos_ = 0;
        phase_ = Phase::Send;
      } else {
        phase_ = Phase::Done;
      }
    }
    return;
  }
  const std::optional<Action> enabled = enabled_local();
  RSTP_CHECK(enabled.has_value() && *enabled == action, "action not enabled");
  if (action.kind == ActionKind::Send) {
    const BlockPlan& p = planner_->plan(block_);
    ++pos_;
    if (pos_ == p.delta) {
      ++counters_.blocks_encoded;
      more_ = planner_->has_block(block_ + 1);
      phase_ = Phase::AwaitAcks;
    }
  }
  // idle_t has no effect.
}

bool AdaptiveGammaTransmitter::quiescent() const { return transmission_complete(); }

bool AdaptiveGammaTransmitter::transmission_complete() const {
  return phase_ == Phase::Done || (phase_ == Phase::AwaitAcks && !more_);
}

std::string AdaptiveGammaTransmitter::snapshot() const {
  std::ostringstream os;
  os << "gamma_est_t block=" << block_ << " pos=" << pos_ << " acked=" << acked_
     << " phase=" << static_cast<int>(phase_);
  return os.str();
}

std::unique_ptr<ioa::Automaton> AdaptiveGammaTransmitter::clone() const {
  return std::make_unique<AdaptiveGammaTransmitter>(*this);
}

AdaptiveGammaReceiver::AdaptiveGammaReceiver(const protocols::ProtocolConfig& config)
    : planner_(checked_planner(config, BlockPlanner::Discipline::AckedBlocks)),
      block_(config.k),
      target_length_(config.input.size()) {
}

std::optional<Action> AdaptiveGammaReceiver::enabled_local() const {
  if (unacked_ > 0) {
    return Action::send(Packet::to_transmitter(protocols::kAckPayload));
  }
  if (written_.size() < decoded_.size() && written_.size() < target_length_) {
    return Action::write(decoded_[written_.size()]);
  }
  return protocols::idle_r_action();
}

void AdaptiveGammaReceiver::apply(const Action& action) {
  if (accepts_input(action)) {
    const std::uint32_t payload = action.packet.payload;
    RSTP_CHECK_LT(payload, planner_->alphabet(), "packet symbol outside the alphabet");
    ++unacked_;
    const BlockPlan& p = planner_->plan(block_index_);
    block_.add(payload);
    if (block_.size() == p.delta) {
      const std::vector<Bit> bits = p.coder->decode(block_);
      decoded_.insert(decoded_.end(), bits.begin(),
                      bits.begin() + static_cast<std::ptrdiff_t>(p.bits));
      block_.clear();
      ++block_index_;
      ++counters_.blocks_decoded;
    }
    return;
  }
  const std::optional<Action> enabled = enabled_local();
  RSTP_CHECK(enabled.has_value() && *enabled == action, "action not enabled");
  switch (action.kind) {
    case ActionKind::Send:
      --unacked_;
      ++counters_.acks_sent;
      break;
    case ActionKind::Write:
      written_.push_back(action.message);
      break;
    case ActionKind::Internal:
      break;
    case ActionKind::Recv:
      RSTP_UNREACHABLE("recv handled as input");
  }
}

bool AdaptiveGammaReceiver::quiescent() const {
  return unacked_ == 0 &&
         (written_.size() >= target_length_ ||
          (written_.size() == decoded_.size() && block_.size() == 0));
}

std::string AdaptiveGammaReceiver::snapshot() const {
  std::ostringstream os;
  os << "gamma_est_r block=" << block_index_ << " decoded=" << decoded_.size()
     << " written=" << written_.size() << " pending=" << block_.size()
     << " unacked=" << unacked_;
  return os.str();
}

std::unique_ptr<ioa::Automaton> AdaptiveGammaReceiver::clone() const {
  return std::make_unique<AdaptiveGammaReceiver>(*this);
}

}  // namespace rstp::est
