#include "rstp/protocols/beta.h"

#include <sstream>

#include "rstp/common/check.h"

namespace rstp::protocols {

using combinatorics::BlockCoder;
using combinatorics::Symbol;
using ioa::Action;
using ioa::ActionKind;
using ioa::Bit;
using ioa::Packet;

BetaTransmitter::BetaTransmitter(const ProtocolConfig& config) {
  config.validate();
  block_ = config.block_size_override.has_value()
               ? static_cast<std::int64_t>(*config.block_size_override)
               : config.params.delta1_wait();
  wait_ = config.wait_steps_override.has_value()
              ? static_cast<std::int64_t>(*config.wait_steps_override)
              : config.params.delta1_wait();
  coder_ = std::make_shared<const BlockCoder>(config.k, static_cast<std::uint32_t>(block_));
  stream_ = coder_->encode_message(config.input);
  RSTP_CHECK_EQ(stream_.size() % static_cast<std::size_t>(block_), std::size_t{0},
                "encoded stream must be block-aligned");
}

std::optional<Action> BetaTransmitter::enabled_local() const {
  // Figure 3: send when i <= |X| and 0 <= c < δ; wait when δ <= c < δ+W
  // (the paper has W = δ, making the round 2δ steps).
  if (c_ < block_ && i_ < stream_.size()) {
    return Action::send(Packet::to_receiver(stream_[i_]));
  }
  if (c_ >= block_) {
    return wait_t_action();
  }
  return std::nullopt;  // i == |S| and c == 0: transmission finished
}

void BetaTransmitter::apply(const Action& action) {
  if (accepts_input(action)) {
    return;  // r-passive: the receiver never sends, but stay input-enabled
  }
  const std::optional<Action> enabled = enabled_local();
  RSTP_CHECK(enabled.has_value() && *enabled == action, "action not enabled");
  if (action.kind == ActionKind::Send) {
    ++i_;
    ++c_;
    if (c_ == block_) {
      ++counters_.blocks_encoded;
    }
  } else {
    c_ = (c_ + 1) % (block_ + wait_);  // Figure 3's wait_t: c := c + 1 (mod 2δ)
  }
}

bool BetaTransmitter::quiescent() const { return transmission_complete(); }

bool BetaTransmitter::transmission_complete() const { return i_ >= stream_.size(); }

std::string BetaTransmitter::snapshot() const {
  std::ostringstream os;
  os << "beta_t i=" << i_ << " c=" << c_;
  return os.str();
}

std::unique_ptr<ioa::Automaton> BetaTransmitter::clone() const {
  return std::make_unique<BetaTransmitter>(*this);
}

BetaReceiver::BetaReceiver(const ProtocolConfig& config)
    : block_(1), target_length_(config.input.size()) {
  config.validate();
  const auto delta = config.block_size_override.has_value()
                         ? *config.block_size_override
                         : static_cast<std::uint32_t>(config.params.delta1_wait());
  coder_ = std::make_shared<const BlockCoder>(config.k, delta);
  block_ = combinatorics::Multiset{config.k};
}

std::optional<Action> BetaReceiver::enabled_local() const {
  if (written_.size() < decoded_.size() && written_.size() < target_length_) {
    return Action::write(decoded_[written_.size()]);
  }
  return idle_r_action();
}

void BetaReceiver::apply(const Action& action) {
  if (accepts_input(action)) {
    const std::uint32_t payload = action.packet.payload;
    RSTP_CHECK_LT(payload, coder_->alphabet(), "packet symbol outside the alphabet");
    block_.add(payload);
    if (block_.size() == coder_->packets_per_block()) {
      // Figure 3: a full block has arrived; decode it from its multiset.
      const std::vector<Bit> bits = coder_->decode(block_);
      decoded_.insert(decoded_.end(), bits.begin(), bits.end());
      block_.clear();
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

bool BetaReceiver::quiescent() const {
  return written_.size() >= target_length_ ||
         (written_.size() == decoded_.size() && block_.size() == 0);
}

std::string BetaReceiver::snapshot() const {
  std::ostringstream os;
  os << "beta_r decoded=" << decoded_.size() << " written=" << written_.size()
     << " block=" << block_.size();
  return os.str();
}

std::unique_ptr<ioa::Automaton> BetaReceiver::clone() const {
  return std::make_unique<BetaReceiver>(*this);
}

}  // namespace rstp::protocols
