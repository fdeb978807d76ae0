#include "rstp/protocols/gamma.h"

#include <sstream>

#include "rstp/common/check.h"

namespace rstp::protocols {

using combinatorics::BlockCoder;
using ioa::Action;
using ioa::ActionKind;
using ioa::Bit;
using ioa::Packet;

GammaTransmitter::GammaTransmitter(const ProtocolConfig& config) {
  config.validate();
  delta2_ = config.block_size_override.has_value()
                ? static_cast<std::int64_t>(*config.block_size_override)
                : config.params.delta2();
  RSTP_CHECK_GE(delta2_, 1, "delta2 >= 1 requires c2 <= d");
  coder_ = std::make_shared<const BlockCoder>(config.k, static_cast<std::uint32_t>(delta2_));
  stream_ = coder_->encode_message(config.input);
}

std::optional<Action> GammaTransmitter::enabled_local() const {
  // Figure 4: send while c < δ2 and data remains; idle_t while awaiting acks.
  if (c_ < delta2_ && i_ < stream_.size()) {
    return Action::send(Packet::to_receiver(stream_[i_]));
  }
  if (c_ == delta2_) {
    return idle_t_action();
  }
  return std::nullopt;  // c == 0 and i == |S|: all blocks sent and acked
}

void GammaTransmitter::apply(const Action& action) {
  if (accepts_input(action)) {
    // recv(ack): a := a + 1; when the block is fully acked, unlock the next.
    RSTP_CHECK_EQ(action.packet.payload, kAckPayload, "unexpected r→t payload");
    ++a_;
    ++counters_.acks_observed;
    // Under the lossless, duplication-free channel every ack answers a packet
    // of the current block, so acks can never outrun this round's sends.
    RSTP_CHECK_LE(a_, c_, "ack without a matching packet in this block");
    if (a_ == delta2_) {
      a_ = 0;
      c_ = 0;
    }
    return;
  }
  const std::optional<Action> enabled = enabled_local();
  RSTP_CHECK(enabled.has_value() && *enabled == action, "action not enabled");
  if (action.kind == ActionKind::Send) {
    ++i_;
    ++c_;
    if (c_ == delta2_) {
      ++counters_.blocks_encoded;
    }
  }
  // idle_t has no effect.
}

bool GammaTransmitter::quiescent() const { return transmission_complete(); }

bool GammaTransmitter::transmission_complete() const { return i_ >= stream_.size(); }

std::string GammaTransmitter::snapshot() const {
  std::ostringstream os;
  os << "gamma_t i=" << i_ << " c=" << c_ << " a=" << a_;
  return os.str();
}

std::unique_ptr<ioa::Automaton> GammaTransmitter::clone() const {
  return std::make_unique<GammaTransmitter>(*this);
}

GammaReceiver::GammaReceiver(const ProtocolConfig& config)
    : block_(1), target_length_(config.input.size()) {
  config.validate();
  const auto delta2 = config.block_size_override.has_value()
                          ? *config.block_size_override
                          : static_cast<std::uint32_t>(config.params.delta2());
  coder_ = std::make_shared<const BlockCoder>(config.k, delta2);
  block_ = combinatorics::Multiset{config.k};
}

std::optional<Action> GammaReceiver::enabled_local() const {
  // Priority: acks gate the transmitter, so they come first (Figure 4's
  // send(ack) precondition j > 0), then writes, then idle.
  if (unacked_ > 0) {
    return Action::send(Packet::to_transmitter(kAckPayload));
  }
  if (written_.size() < decoded_.size() && written_.size() < target_length_) {
    return Action::write(decoded_[written_.size()]);
  }
  return idle_r_action();
}

void GammaReceiver::apply(const Action& action) {
  if (accepts_input(action)) {
    const std::uint32_t payload = action.packet.payload;
    RSTP_CHECK_LT(payload, coder_->alphabet(), "packet symbol outside the alphabet");
    ++unacked_;
    block_.add(payload);
    if (block_.size() == coder_->packets_per_block()) {
      const std::vector<Bit> bits = coder_->decode(block_);
      decoded_.insert(decoded_.end(), bits.begin(), bits.end());
      block_.clear();
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

bool GammaReceiver::quiescent() const {
  return unacked_ == 0 &&
         (written_.size() >= target_length_ ||
          (written_.size() == decoded_.size() && block_.size() == 0));
}

std::string GammaReceiver::snapshot() const {
  std::ostringstream os;
  os << "gamma_r decoded=" << decoded_.size() << " written=" << written_.size()
     << " block=" << block_.size() << " unacked=" << unacked_;
  return os.str();
}

std::unique_ptr<ioa::Automaton> GammaReceiver::clone() const {
  return std::make_unique<GammaReceiver>(*this);
}

}  // namespace rstp::protocols
