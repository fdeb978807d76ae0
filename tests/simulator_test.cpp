// Tests for the discrete-event simulator, using purpose-built micro-automata
// (exercising the ioa::Automaton interface directly, independent of the
// shipped protocols), plus the incremental API (start / next_instant /
// advance / take_result) checked field by field against run() over the
// paper's protocols.
#include "rstp/sim/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>

#include "rstp/channel/policies.h"
#include "rstp/common/check.h"
#include "rstp/common/rng.h"
#include "rstp/core/effort.h"
#include "rstp/est/estimator.h"
#include "rstp/protocols/factory.h"

namespace rstp::sim {
namespace {

using ioa::Action;
using ioa::ActionKind;
using ioa::Actor;
using ioa::Packet;
using ioa::ProcessId;

/// Sends payloads 0..n-1, one per step, then stops.
class CounterSender final : public ioa::Automaton {
 public:
  explicit CounterSender(std::uint32_t n) : n_(n) {}
  [[nodiscard]] std::string_view name() const override { return "counter_sender"; }
  [[nodiscard]] std::optional<Action> enabled_local() const override {
    if (sent_ < n_) return Action::send(Packet::to_receiver(sent_));
    return std::nullopt;
  }
  void apply(const Action& action) override {
    if (action.kind == ActionKind::Recv) {
      ++acks_;
      return;
    }
    RSTP_CHECK(enabled_local().has_value() && *enabled_local() == action, "not enabled");
    ++sent_;
  }
  [[nodiscard]] bool accepts_input(const Action& a) const override {
    return a.kind == ActionKind::Recv &&
           a.packet.direction == Packet::Direction::ReceiverToTransmitter;
  }
  [[nodiscard]] bool quiescent() const override { return sent_ >= n_; }
  [[nodiscard]] std::string snapshot() const override {
    std::ostringstream os;
    os << "cs " << sent_ << ' ' << acks_;
    return os.str();
  }
  [[nodiscard]] std::unique_ptr<Automaton> clone() const override {
    return std::make_unique<CounterSender>(*this);
  }
  [[nodiscard]] std::uint32_t acks() const { return acks_; }

 private:
  std::uint32_t n_;
  std::uint32_t sent_ = 0;
  std::uint32_t acks_ = 0;
};

/// Records arrivals; optionally echoes an ack per arrival; always idles.
class EchoReceiver final : public ioa::Automaton {
 public:
  explicit EchoReceiver(bool echo) : echo_(echo) {}
  [[nodiscard]] std::string_view name() const override { return "echo_receiver"; }
  [[nodiscard]] std::optional<Action> enabled_local() const override {
    if (pending_acks_ > 0) return Action::send(Packet::to_transmitter(0));
    return Action::internal(1, "idle");
  }
  void apply(const Action& action) override {
    if (action.kind == ActionKind::Recv) {
      received_.push_back(action.packet.payload);
      if (echo_) ++pending_acks_;
      return;
    }
    if (action.kind == ActionKind::Send) {
      --pending_acks_;
    }
  }
  [[nodiscard]] bool accepts_input(const Action& a) const override {
    return a.kind == ActionKind::Recv &&
           a.packet.direction == Packet::Direction::TransmitterToReceiver;
  }
  [[nodiscard]] bool quiescent() const override { return pending_acks_ == 0; }
  [[nodiscard]] std::string snapshot() const override {
    std::ostringstream os;
    os << "er " << received_.size() << ' ' << pending_acks_;
    return os.str();
  }
  [[nodiscard]] std::unique_ptr<Automaton> clone() const override {
    return std::make_unique<EchoReceiver>(*this);
  }
  [[nodiscard]] const std::vector<std::uint32_t>& received() const { return received_; }

 private:
  bool echo_;
  std::vector<std::uint32_t> received_;
  int pending_acks_ = 0;
};

/// Stop-and-wait sender: sends payloads 0..n-1, but after each send has no
/// enabled local action (so the simulator stops it) until the ack arrives.
class StopAndWaitSender final : public ioa::Automaton {
 public:
  explicit StopAndWaitSender(std::uint32_t n) : n_(n) {}
  [[nodiscard]] std::string_view name() const override { return "stop_and_wait_sender"; }
  [[nodiscard]] std::optional<Action> enabled_local() const override {
    if (!awaiting_ && sent_ < n_) return Action::send(Packet::to_receiver(sent_));
    return std::nullopt;
  }
  void apply(const Action& action) override {
    if (action.kind == ActionKind::Recv) {
      awaiting_ = false;
      return;
    }
    RSTP_CHECK(enabled_local().has_value() && *enabled_local() == action, "not enabled");
    ++sent_;
    awaiting_ = true;
  }
  [[nodiscard]] bool accepts_input(const Action& a) const override {
    return a.kind == ActionKind::Recv &&
           a.packet.direction == Packet::Direction::ReceiverToTransmitter;
  }
  [[nodiscard]] bool quiescent() const override { return sent_ >= n_ && !awaiting_; }
  [[nodiscard]] std::string snapshot() const override {
    std::ostringstream os;
    os << "sw " << sent_ << ' ' << awaiting_;
    return os.str();
  }
  [[nodiscard]] std::unique_ptr<Automaton> clone() const override {
    return std::make_unique<StopAndWaitSender>(*this);
  }

 private:
  std::uint32_t n_;
  std::uint32_t sent_ = 0;
  bool awaiting_ = false;
};

SimConfig config_for(const core::TimingParams& params) {
  SimConfig c;
  c.params = params;
  return c;
}

TEST(Simulator, DeliversEverythingAndQuiesces) {
  const auto params = core::TimingParams::make(1, 1, 3);
  CounterSender sender{5};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_max_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  Simulator sim{sender, receiver, chan, ts, rs, config_for(params)};
  const RunResult result = sim.run();
  EXPECT_TRUE(result.quiescent);
  EXPECT_EQ(receiver.received(), (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(result.transmitter_sends, 5u);
  EXPECT_EQ(result.receiver_sends, 0u);
  ASSERT_TRUE(result.last_transmitter_send.has_value());
  // Steps at 0,1,2,3,4 → last send at 4; last delivery at 4+3=7.
  EXPECT_EQ(*result.last_transmitter_send, at_tick(4));
  EXPECT_EQ(result.end_time, at_tick(7));
}

TEST(Simulator, TraceHasDeterministicEventOrdering) {
  const auto params = core::TimingParams::make(1, 1, 1);
  CounterSender sender{2};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_zero_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  Simulator sim{sender, receiver, chan, ts, rs, config_for(params)};
  const RunResult result = sim.run();
  // With zero delay: at t=0 the transmitter's send precedes the delivery
  // (deliveries-first applies only to packets already in flight), and the
  // delivery precedes the receiver's step — all at tick 0.
  const auto& ev = result.trace.events();
  ASSERT_GE(ev.size(), 3u);
  EXPECT_EQ(ev[0].actor, Actor::Transmitter);
  EXPECT_EQ(ev[0].action.kind, ActionKind::Send);
  EXPECT_EQ(ev[1].actor, Actor::Channel);
  EXPECT_EQ(ev[1].action.kind, ActionKind::Recv);
  EXPECT_EQ(ev[2].actor, Actor::Receiver);
  EXPECT_EQ(ev[0].time, at_tick(0));
  EXPECT_EQ(ev[2].time, at_tick(0));
}

TEST(Simulator, AcksFlowBackToTransmitter) {
  const auto params = core::TimingParams::make(1, 2, 4);
  CounterSender sender{3};
  EchoReceiver receiver{true};
  channel::Channel chan{params.d, channel::make_max_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  Simulator sim{sender, receiver, chan, ts, rs, config_for(params)};
  const RunResult result = sim.run();
  EXPECT_TRUE(result.quiescent);
  EXPECT_EQ(sender.acks(), 3u);
  EXPECT_EQ(result.receiver_sends, 3u);
}

TEST(Simulator, SlowSchedulerStretchesTime) {
  const auto params = core::TimingParams::make(1, 5, 5);
  CounterSender sender{4};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_zero_delay()};
  FixedRateScheduler ts{params.c2};  // steps every 5
  FixedRateScheduler rs{params.c2};
  Simulator sim{sender, receiver, chan, ts, rs, config_for(params)};
  const RunResult result = sim.run();
  ASSERT_TRUE(result.last_transmitter_send.has_value());
  EXPECT_EQ(*result.last_transmitter_send, at_tick(15));  // 0,5,10,15
}

TEST(Simulator, OutOfBandSchedulerIsModelError) {
  const auto params = core::TimingParams::make(2, 3, 5);
  CounterSender sender{2};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_zero_delay()};
  FixedRateScheduler bad{Duration{1}};  // gap 1 < c1=2
  FixedRateScheduler ok{params.c1};
  Simulator sim{sender, receiver, chan, bad, ok, config_for(params)};
  EXPECT_THROW((void)sim.run(), ModelError);
}

TEST(Simulator, FirstOffsetBeyondC2IsModelError) {
  const auto params = core::TimingParams::make(1, 2, 3);
  CounterSender sender{1};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_zero_delay()};
  FixedRateScheduler bad{params.c1, Duration{3}};  // first step at 3 > c2=2
  FixedRateScheduler ok{params.c1};
  Simulator sim{sender, receiver, chan, bad, ok, config_for(params)};
  EXPECT_THROW((void)sim.run(), ModelError);
}

TEST(Simulator, DropInjectionLosesPacketButSimStillTerminates) {
  const auto params = core::TimingParams::make(1, 1, 2);
  CounterSender sender{1};
  EchoReceiver receiver{true};
  channel::Channel chan{params.d, channel::make_zero_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  SimConfig cfg = config_for(params);
  cfg.drop_every_nth = 1;  // drop the only data packet
  cfg.max_events = 100;
  Simulator sim{sender, receiver, chan, ts, rs, cfg};
  const RunResult result = sim.run();
  EXPECT_TRUE(result.quiescent);  // sender quiesces even though packet lost
  EXPECT_EQ(result.dropped_packets, 1u);
  EXPECT_TRUE(receiver.received().empty());
}

TEST(Simulator, PerProcessTimingLawsValidatedSeparately) {
  // Generalized model: the transmitter may run a law the receiver's would
  // reject. transmitter [1,2], receiver [3,5], d = 6.
  const auto envelope = core::TimingParams::make(1, 5, 6);
  CounterSender sender{3};
  EchoReceiver receiver{false};
  channel::Channel chan{envelope.d, channel::make_zero_delay()};
  FixedRateScheduler ts{Duration{2}};  // legal for t [1,2], illegal for r [3,5]
  FixedRateScheduler rs{Duration{4}};  // legal for r [3,5], illegal for t [1,2]
  SimConfig cfg = config_for(envelope);
  cfg.transmitter_params = core::TimingParams::make(1, 2, 6);
  cfg.receiver_params = core::TimingParams::make(3, 5, 6);
  Simulator sim{sender, receiver, chan, ts, rs, cfg};
  const RunResult result = sim.run();
  EXPECT_TRUE(result.quiescent);
  EXPECT_EQ(receiver.received().size(), 3u);
}

TEST(Simulator, PerProcessLawViolationCaught) {
  const auto envelope = core::TimingParams::make(1, 5, 6);
  CounterSender sender{2};
  EchoReceiver receiver{false};
  channel::Channel chan{envelope.d, channel::make_zero_delay()};
  FixedRateScheduler ts{Duration{4}};  // violates the transmitter's [1,2]
  FixedRateScheduler rs{Duration{4}};
  SimConfig cfg = config_for(envelope);
  cfg.transmitter_params = core::TimingParams::make(1, 2, 6);
  cfg.receiver_params = core::TimingParams::make(3, 5, 6);
  Simulator sim{sender, receiver, chan, ts, rs, cfg};
  EXPECT_THROW((void)sim.run(), ModelError);
}

TEST(Simulator, MismatchedChannelDelayRejected) {
  const auto params = core::TimingParams::make(1, 1, 3);
  CounterSender sender{1};
  EchoReceiver receiver{false};
  channel::Channel chan{Duration{4}, channel::make_zero_delay()};  // d mismatch
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  EXPECT_THROW(Simulator(sender, receiver, chan, ts, rs, config_for(params)),
               ContractViolation);
}

TEST(Simulator, RunIsSingleShot) {
  const auto params = core::TimingParams::make(1, 1, 1);
  CounterSender sender{1};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_zero_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  Simulator sim{sender, receiver, chan, ts, rs, config_for(params)};
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), ContractViolation);
}

TEST(Simulator, ObserverSeesEveryEventInOrder) {
  const auto params = core::TimingParams::make(1, 1, 2);
  CounterSender sender{3};
  EchoReceiver receiver{true};
  channel::Channel chan{params.d, channel::make_max_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  SimConfig cfg = config_for(params);
  std::vector<ioa::TimedEvent> seen;
  cfg.observer = [&seen](const ioa::TimedEvent& e) { seen.push_back(e); };
  Simulator sim{sender, receiver, chan, ts, rs, cfg};
  const RunResult result = sim.run();
  EXPECT_TRUE(result.quiescent);
  // Observer stream must equal the recorded trace exactly.
  EXPECT_EQ(seen, result.trace.events());
}

TEST(Simulator, ObserverWorksWithoutTraceRecording) {
  // The observer enables memory-flat invariant checking on long runs.
  const auto params = core::TimingParams::make(1, 1, 2);
  CounterSender sender{50};
  EchoReceiver receiver{true};
  channel::Channel chan{params.d, channel::make_max_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  SimConfig cfg = config_for(params);
  cfg.record_trace = false;
  std::uint64_t events = 0;
  std::int64_t in_flight = 0;
  cfg.observer = [&](const ioa::TimedEvent& e) {
    ++events;
    if (e.action.kind == ActionKind::Send) ++in_flight;
    if (e.action.kind == ActionKind::Recv) --in_flight;
    ASSERT_GE(in_flight, 0) << "a recv without a matching prior send";
  };
  Simulator sim{sender, receiver, chan, ts, rs, cfg};
  const RunResult result = sim.run();
  EXPECT_TRUE(result.trace.empty());
  EXPECT_EQ(events, result.event_count);
  EXPECT_EQ(in_flight, 0);
}

TEST(Simulator, ObserverExceptionAbortsRun) {
  const auto params = core::TimingParams::make(1, 1, 2);
  CounterSender sender{5};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_zero_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  SimConfig cfg = config_for(params);
  cfg.observer = [](const ioa::TimedEvent& e) {
    if (e.action.kind == ActionKind::Recv) {
      throw ModelError("stop at first delivery");
    }
  };
  Simulator sim{sender, receiver, chan, ts, rs, cfg};
  EXPECT_THROW((void)sim.run(), ModelError);
}

TEST(Simulator, RecordTraceOffKeepsCountsOnly) {
  const auto params = core::TimingParams::make(1, 1, 2);
  CounterSender sender{3};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_max_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  SimConfig cfg = config_for(params);
  cfg.record_trace = false;
  Simulator sim{sender, receiver, chan, ts, rs, cfg};
  const RunResult result = sim.run();
  EXPECT_TRUE(result.trace.empty());
  EXPECT_EQ(result.transmitter_sends, 3u);
  EXPECT_GT(result.event_count, 0u);
}

// --- Incremental API -------------------------------------------------------

/// Field-by-field RunResult equality (RunResult has no operator==).
void expect_same_result(const RunResult& expected, const RunResult& got) {
  EXPECT_EQ(expected.trace.events(), got.trace.events());
  EXPECT_EQ(expected.output, got.output);
  EXPECT_EQ(expected.last_transmitter_send, got.last_transmitter_send);
  EXPECT_EQ(expected.end_time, got.end_time);
  EXPECT_EQ(expected.event_count, got.event_count);
  EXPECT_EQ(expected.transmitter_steps, got.transmitter_steps);
  EXPECT_EQ(expected.receiver_steps, got.receiver_steps);
  EXPECT_EQ(expected.transmitter_sends, got.transmitter_sends);
  EXPECT_EQ(expected.receiver_sends, got.receiver_sends);
  EXPECT_EQ(expected.dropped_packets, got.dropped_packets);
  EXPECT_EQ(expected.faults, got.faults);
  EXPECT_EQ(expected.quiescent, got.quiescent);
  EXPECT_EQ(expected.metrics, got.metrics);
}

/// Drives a fresh simulator through the incremental API, checking on the way
/// that next_instant() has a value exactly while the run is not over.
RunResult run_incrementally(Simulator& sim) {
  EXPECT_THROW((void)sim.next_instant(), ContractViolation);  // before start()
  sim.start();
  Time last = Time::zero();
  bool checked_unfinished = false;
  while (const std::optional<Time> now = sim.next_instant()) {
    EXPECT_EQ(sim.next_instant(), now);  // cached until advance()
    EXPECT_GE(*now, last);
    last = *now;
    if (!checked_unfinished) {
      EXPECT_THROW((void)sim.take_result(), ContractViolation);  // not over yet
      checked_unfinished = true;
    }
    sim.advance();
  }
  EXPECT_FALSE(sim.next_instant().has_value());
  EXPECT_THROW(sim.advance(), ContractViolation);  // advance() past the end
  EXPECT_FALSE(sim.next_instant().has_value());
  return sim.take_result();
}

/// Forwards every call to an inner automaton and re-exports its counters
/// through its own CounterSource base, without overriding counter_source():
/// the shape of a timing decorator that sits outside the protocol hierarchy.
class ForwardingDecorator final : public ioa::Automaton, public obs::CounterSource {
 public:
  explicit ForwardingDecorator(ioa::Automaton& inner) : inner_(inner) {}
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] std::optional<Action> enabled_local() const override {
    return inner_.enabled_local();
  }
  void apply(const Action& action) override { inner_.apply(action); }
  [[nodiscard]] bool accepts_input(const Action& a) const override {
    return inner_.accepts_input(a);
  }
  [[nodiscard]] bool quiescent() const override { return inner_.quiescent(); }
  [[nodiscard]] std::string snapshot() const override { return inner_.snapshot(); }
  [[nodiscard]] std::unique_ptr<Automaton> clone() const override { return inner_.clone(); }
  [[nodiscard]] const obs::ProtocolCounters& protocol_counters() const override {
    static const obs::ProtocolCounters kNone{};
    const obs::CounterSource* source = inner_.counter_source();
    return source != nullptr ? source->protocol_counters() : kNone;
  }

 private:
  ioa::Automaton& inner_;
};

/// One session of a shipped protocol, wired exactly like core::run_protocol.
/// With `decorate`, the simulator drives the automata through
/// ForwardingDecorators instead.
struct ProtocolSession {
  protocols::ProtocolInstance instance;
  std::unique_ptr<ioa::Automaton> t_decorator;
  std::unique_ptr<ioa::Automaton> r_decorator;
  std::unique_ptr<StepScheduler> t_sched;
  std::unique_ptr<StepScheduler> r_sched;
  std::unique_ptr<channel::Channel> chan;
  std::unique_ptr<Simulator> sim;
};

ProtocolSession make_session(protocols::ProtocolKind kind, const core::Environment& env,
                             std::uint64_t max_events, bool decorate = false) {
  protocols::ProtocolConfig config;
  config.params = core::TimingParams::make(1, 2, 4);
  config.k = 4;
  config.input = core::make_random_input(24, 0x5EED);
  ProtocolSession s;
  s.instance = protocols::make_protocol(kind, config);
  Rng seeder{env.seed};
  s.t_sched = core::make_scheduler(env.transmitter_sched, config.params, seeder.next_u64());
  s.r_sched = core::make_scheduler(env.receiver_sched, config.params, seeder.next_u64());
  s.chan = std::make_unique<channel::Channel>(
      config.params.d, core::make_delivery_policy(env.delay, config.params, seeder.next_u64()));
  SimConfig sim_config = config_for(config.params);
  sim_config.record_trace = true;
  sim_config.max_events = max_events;
  ioa::Automaton* transmitter = s.instance.transmitter.get();
  ioa::Automaton* receiver = s.instance.receiver.get();
  if (decorate) {
    s.t_decorator = std::make_unique<ForwardingDecorator>(*transmitter);
    s.r_decorator = std::make_unique<ForwardingDecorator>(*receiver);
    transmitter = s.t_decorator.get();
    receiver = s.r_decorator.get();
  }
  s.sim = std::make_unique<Simulator>(*transmitter, *receiver, *s.chan, *s.t_sched, *s.r_sched,
                                      sim_config);
  return s;
}

TEST(SimulatorIncremental, MatchesRunForPaperProtocolsAndEnvironments) {
  const core::Environment environments[] = {
      core::Environment::worst_case(), core::Environment::adversarial_fast(),
      core::Environment::randomized(11), core::Environment::randomized(12)};
  for (const protocols::ProtocolKind kind : protocols::kPaperProtocolKinds) {
    for (const core::Environment& env : environments) {
      SCOPED_TRACE(testing::Message() << kind << " env seed " << env.seed << " delay "
                                      << static_cast<int>(env.delay));
      ProtocolSession whole = make_session(kind, env, SimConfig{}.max_events);
      const RunResult expected = whole.sim->run();
      ASSERT_TRUE(expected.quiescent);
      ASSERT_FALSE(expected.trace.events().empty());
      ProtocolSession stepped = make_session(kind, env, SimConfig{}.max_events);
      expect_same_result(expected, run_incrementally(*stepped.sim));
    }
  }
}

TEST(SimulatorIncremental, EventCapReportsNotQuiescentOnBothPaths) {
  constexpr std::uint64_t kCap = 10;
  for (const protocols::ProtocolKind kind : protocols::kPaperProtocolKinds) {
    SCOPED_TRACE(testing::Message() << kind);
    ProtocolSession whole = make_session(kind, core::Environment::worst_case(), kCap);
    const RunResult expected = whole.sim->run();
    EXPECT_FALSE(expected.quiescent);
    EXPECT_GE(expected.event_count, kCap);
    ProtocolSession stepped = make_session(kind, core::Environment::worst_case(), kCap);
    const RunResult got = run_incrementally(*stepped.sim);
    EXPECT_FALSE(got.quiescent);
    expect_same_result(expected, got);
  }
}

TEST(SimulatorIncremental, StoppedProcessResumesOnInputOnBothPaths) {
  // The paper's protocols idle instead of stopping mid-run, so a stop-and-wait
  // sender drives the stop/resume path: after each send it has nothing
  // enabled until the ack comes back 2d later.
  const auto params = core::TimingParams::make(1, 2, 4);
  const auto run_session = [&params](bool incremental) {
    StopAndWaitSender sender{5};
    EchoReceiver receiver{true};
    channel::Channel chan{params.d, channel::make_max_delay()};
    FixedRateScheduler ts{params.c1};
    FixedRateScheduler rs{params.c1};
    Simulator sim{sender, receiver, chan, ts, rs, config_for(params)};
    return incremental ? run_incrementally(sim) : sim.run();
  };
  const RunResult expected = run_session(false);
  EXPECT_TRUE(expected.quiescent);
  EXPECT_EQ(expected.transmitter_sends, 5u);
  // Resumed steps follow a gap longer than c2: proof the sender was stopped.
  EXPECT_GT(expected.metrics.transmitter_gap.max(), params.c2.ticks());
  expect_same_result(expected, run_session(true));
}

// --- Counter discovery -----------------------------------------------------

TEST(SimulatorCounters, DecoratorWithoutOverrideMatchesUndecoratedRun) {
  // The decorator leaves counter_source() at the default, so the simulator
  // finds its CounterSource base through the dynamic_cast fallback.
  for (const protocols::ProtocolKind kind : protocols::kPaperProtocolKinds) {
    SCOPED_TRACE(testing::Message() << kind);
    const core::Environment env = core::Environment::randomized(11);
    ProtocolSession plain = make_session(kind, env, SimConfig{}.max_events);
    ProtocolSession decorated = make_session(kind, env, SimConfig{}.max_events, true);
    ASSERT_NE(decorated.t_decorator->counter_source(), nullptr);
    const RunResult expected = plain.sim->run();
    ASSERT_TRUE(expected.quiescent);
    const RunResult got = decorated.sim->run();
    expect_same_result(expected, got);
    EXPECT_EQ(expected.metrics.counters.protocol, got.metrics.counters.protocol);
    if (kind == protocols::ProtocolKind::Beta || kind == protocols::ProtocolKind::Gamma) {
      // Non-vacuous: the block protocols do report counters.
      EXPECT_GT(got.metrics.counters.protocol.blocks_decoded, 0u);
    }
  }
}

TEST(SimulatorCounters, AutomatonOutsideCounterSourceReportsZero) {
  const auto params = core::TimingParams::make(1, 2, 4);
  StopAndWaitSender sender{5};
  EchoReceiver receiver{true};
  EXPECT_EQ(sender.counter_source(), nullptr);
  EXPECT_EQ(receiver.counter_source(), nullptr);
  channel::Channel chan{params.d, channel::make_max_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  Simulator sim{sender, receiver, chan, ts, rs, config_for(params)};
  const RunResult result = sim.run();
  EXPECT_TRUE(result.quiescent);
  EXPECT_GT(result.metrics.counters.ack_sends, 0u);
  EXPECT_EQ(result.metrics.counters.protocol, obs::ProtocolCounters{});
}

void expect_counter_source_matches_cast(const protocols::ProtocolInstance& instance) {
  const ioa::Automaton& t = *instance.transmitter;
  const ioa::Automaton& r = *instance.receiver;
  ASSERT_NE(t.counter_source(), nullptr);
  ASSERT_NE(r.counter_source(), nullptr);
  EXPECT_EQ(t.counter_source(), dynamic_cast<const obs::CounterSource*>(&t));
  EXPECT_EQ(r.counter_source(), dynamic_cast<const obs::CounterSource*>(&r));
}

TEST(SimulatorCounters, CounterSourceAgreesWithDynamicCastForEveryKind) {
  for (const protocols::ProtocolKind kind : protocols::kAllProtocolKinds) {
    SCOPED_TRACE(testing::Message() << kind);
    protocols::ProtocolConfig config;
    config.params = core::TimingParams::make(1, 2, 8);
    config.k = kind == protocols::ProtocolKind::Indexed ? 64u : 8u;
    config.input = core::make_random_input(16, 1);
    expect_counter_source_matches_cast(protocols::make_protocol(kind, config));
  }
  const std::pair<protocols::ProtocolKind, est::BlockPlanner::Discipline> adaptive[] = {
      {protocols::ProtocolKind::Beta, est::BlockPlanner::Discipline::TimedBlocks},
      {protocols::ProtocolKind::Gamma, est::BlockPlanner::Discipline::AckedBlocks}};
  for (const auto& [kind, discipline] : adaptive) {
    SCOPED_TRACE(testing::Message() << "adaptive " << kind);
    protocols::ProtocolConfig config;
    config.params = core::TimingParams::make(1, 2, 8);
    config.k = 8;
    config.input = core::make_random_input(16, 1);
    config.planner = std::make_shared<est::BlockPlanner>(
        discipline, config.k, config.input,
        std::make_shared<est::TimingEstimator>(est::EstimatorConfig{}));
    expect_counter_source_matches_cast(protocols::make_protocol(kind, config));
  }
}

}  // namespace
}  // namespace rstp::sim
