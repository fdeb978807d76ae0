#include "traced.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "rstp/bigint/biguint.h"
#include "rstp/channel/channel.h"
#include "rstp/combinatorics/block_coder.h"
#include "rstp/combinatorics/multiset_codec.h"
#include "rstp/common/rng.h"
#include "rstp/common/time.h"
#include "rstp/sim/search_support.h"
#include "rstp/sim/simulator.h"

namespace perfbench {

using rstp::Duration;
using rstp::Time;
using rstp::host_now_ns;
namespace ioa = rstp::ioa;
namespace obs = rstp::obs;
namespace sim = rstp::sim;
namespace channel = rstp::channel;
namespace protocols = rstp::protocols;
namespace combinatorics = rstp::combinatorics;

namespace {

/// Results of the probes feed this so the calls cannot be discarded.
std::uint64_t g_sink = 0;

std::size_t kind_slot(protocols::ProtocolKind kind) {
  switch (kind) {
    case protocols::ProtocolKind::Alpha: return 0;
    case protocols::ProtocolKind::Beta: return 1;
    case protocols::ProtocolKind::Gamma: return 2;
    case protocols::ProtocolKind::AltBit: return 3;
    default: return 4;
  }
}

/// Times every call the simulator makes into a protocol automaton.
class TimedAutomaton final : public ioa::Automaton, public obs::CounterSource {
 public:
  TimedAutomaton(ioa::Automaton& inner, std::size_t slot, LayerStats& stats)
      : inner_(inner),
        counters_(dynamic_cast<const obs::CounterSource*>(&inner)),
        enabled_(stats.enabled_local[slot]),
        apply_(stats.apply[slot]),
        quiescent_(stats.quiescent[slot]) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] std::optional<ioa::Action> enabled_local() const override {
    if (!enabled_.sample()) return inner_.enabled_local();
    const std::uint64_t t0 = host_now_ns();
    std::optional<ioa::Action> action = inner_.enabled_local();
    enabled_.add_timed(host_now_ns() - t0);
    return action;
  }
  void apply(const ioa::Action& action) override {
    if (!apply_.sample()) return inner_.apply(action);
    const std::uint64_t t0 = host_now_ns();
    inner_.apply(action);
    apply_.add_timed(host_now_ns() - t0);
  }
  [[nodiscard]] bool accepts_input(const ioa::Action& action) const override {
    return inner_.accepts_input(action);
  }
  [[nodiscard]] bool quiescent() const override {
    if (!quiescent_.sample()) return inner_.quiescent();
    const std::uint64_t t0 = host_now_ns();
    const bool q = inner_.quiescent();
    quiescent_.add_timed(host_now_ns() - t0);
    return q;
  }
  [[nodiscard]] std::string snapshot() const override { return inner_.snapshot(); }
  [[nodiscard]] std::unique_ptr<ioa::Automaton> clone() const override { return inner_.clone(); }
  [[nodiscard]] const obs::ProtocolCounters& protocol_counters() const override {
    static const obs::ProtocolCounters kNone{};
    return counters_ != nullptr ? counters_->protocol_counters() : kNone;
  }

 private:
  ioa::Automaton& inner_;
  const obs::CounterSource* counters_;
  CallStat& enabled_;
  CallStat& apply_;
  CallStat& quiescent_;
};

class TimedScheduler final : public sim::StepScheduler {
 public:
  TimedScheduler(sim::StepScheduler& inner, CallStat& stat) : inner_(inner), stat_(stat) {}
  [[nodiscard]] Duration first_offset() override {
    if (!stat_.sample()) return inner_.first_offset();
    const std::uint64_t t0 = host_now_ns();
    const Duration d = inner_.first_offset();
    stat_.add_timed(host_now_ns() - t0);
    return d;
  }
  [[nodiscard]] Duration next_gap(std::uint64_t step_index) override {
    if (!stat_.sample()) return inner_.next_gap(step_index);
    const std::uint64_t t0 = host_now_ns();
    const Duration d = inner_.next_gap(step_index);
    stat_.add_timed(host_now_ns() - t0);
    return d;
  }

 private:
  sim::StepScheduler& inner_;
  CallStat& stat_;
};

class TimedPolicy final : public channel::DeliveryPolicy {
 public:
  TimedPolicy(std::unique_ptr<channel::DeliveryPolicy> inner, CallStat& stat)
      : inner_(std::move(inner)), stat_(stat) {}
  [[nodiscard]] channel::Delivery choose(const ioa::Packet& packet, Time sent_at, Time deadline,
                                         std::uint64_t send_seq) override {
    if (!stat_.sample()) return inner_->choose(packet, sent_at, deadline, send_seq);
    const std::uint64_t t0 = host_now_ns();
    const channel::Delivery d = inner_->choose(packet, sent_at, deadline, send_seq);
    stat_.add_timed(host_now_ns() - t0);
    return d;
  }

 private:
  std::unique_ptr<channel::DeliveryPolicy> inner_;
  CallStat& stat_;
};

/// One send as the channel saw it, for the standalone replay.
struct SendRecord {
  ioa::Packet packet{};
  Time sent_at{};
  channel::Delivery delivery{};
};

/// Records every send (untimed; used only by the replay pass).
class LoggingPolicy final : public channel::DeliveryPolicy {
 public:
  LoggingPolicy(std::unique_ptr<channel::DeliveryPolicy> inner, std::vector<SendRecord>& log)
      : inner_(std::move(inner)), log_(log) {}
  [[nodiscard]] channel::Delivery choose(const ioa::Packet& packet, Time sent_at, Time deadline,
                                         std::uint64_t send_seq) override {
    const channel::Delivery d = inner_->choose(packet, sent_at, deadline, send_seq);
    log_.push_back(SendRecord{packet, sent_at, d});
    return d;
  }

 private:
  std::unique_ptr<channel::DeliveryPolicy> inner_;
  std::vector<SendRecord>& log_;
};

/// Hands a standalone Channel the recorded delivery of each send.
class ReplayPolicy final : public channel::DeliveryPolicy {
 public:
  explicit ReplayPolicy(const std::vector<SendRecord>& log) : log_(log) {}
  [[nodiscard]] channel::Delivery choose(const ioa::Packet&, Time, Time,
                                         std::uint64_t send_seq) override {
    return log_.at(static_cast<std::size_t>(send_seq)).delivery;
  }

 private:
  const std::vector<SendRecord>& log_;
};

/// Replays the recorded sends into a fresh Channel at their instants, with
/// each due batch collected before the sends of the same instant (the
/// simulator's tie rule), timing every send() and collect_due() call.
void replay_channel(Duration d, const std::vector<SendRecord>& log, LayerStats& stats) {
  channel::Channel chan{d, std::make_unique<ReplayPolicy>(log)};
  const auto collect_until = [&](std::optional<Time> limit) {
    while (const std::optional<Time> next = chan.next_delivery_time()) {
      if (limit.has_value() && *limit < *next) break;
      const std::uint64_t t0 = host_now_ns();
      const std::vector<channel::InFlightPacket>& due = chan.collect_due(*next);
      stats.channel_collect.add(host_now_ns() - t0);
      g_sink += due.size();
    }
  };
  for (const SendRecord& rec : log) {
    collect_until(rec.sent_at);
    const std::uint64_t t0 = host_now_ns();
    chan.send(rec.packet, rec.sent_at);
    stats.channel_send.add(host_now_ns() - t0);
    stats.peak_in_flight = std::max<std::uint64_t>(stats.peak_in_flight, chan.in_flight());
  }
  collect_until(std::nullopt);
}

/// Replays the process half of a genome, as sim::evaluate_genome does.
class GenomeReplayScheduler final : public sim::StepScheduler {
 public:
  GenomeReplayScheduler(Duration first, std::vector<Duration> gaps)
      : first_(first), gaps_(std::move(gaps)) {
    if (gaps_.empty()) throw std::invalid_argument("genome scheduler needs a gap");
  }
  [[nodiscard]] Duration first_offset() override { return first_; }
  [[nodiscard]] Duration next_gap(std::uint64_t step_index) override {
    return gaps_[(step_index - 1) % gaps_.size()];
  }

 private:
  Duration first_;
  std::vector<Duration> gaps_;
};

/// What a session is built from: either an Environment (run_protocol's
/// recipe) or a genome (evaluate_genome's).
struct Recipe {
  protocols::ProtocolKind kind = protocols::ProtocolKind::Alpha;
  rstp::core::TimingParams params{};
  std::uint32_t k = 2;
  std::size_t input_bits = 0;
  std::uint64_t input_seed = 0;
  const std::vector<ioa::Bit>* input = nullptr;  ///< used instead of input_seed when set
  const rstp::core::Environment* env = nullptr;
  const channel::ScheduleGenome* genome = nullptr;
  std::uint64_t max_events = 0;
};

/// Builds and drives one session. With `log` null every layer is timed into
/// `stats`; otherwise nothing is timed and the channel's sends are logged.
sim::RunResult drive_session(const Recipe& recipe, LayerStats& stats,
                             std::vector<SendRecord>* log) {
  const bool timed = log == nullptr;
  const std::uint64_t session_start = host_now_ns();
  std::uint64_t t0 = session_start;
  const auto lap = [&](CallStat& stat) {
    const std::uint64_t t1 = host_now_ns();
    if (timed) stat.add(t1 - t0);
    t0 = t1;
  };

  protocols::ProtocolConfig config;
  config.params = recipe.params;
  config.k = recipe.k;
  config.input = recipe.input != nullptr
                     ? *recipe.input
                     : rstp::core::make_random_input(recipe.input_bits, recipe.input_seed);
  lap(stats.setup_input);
  if (recipe.genome != nullptr && recipe.kind == protocols::ProtocolKind::Indexed) {
    config.k = std::max<std::uint32_t>(config.k,
                                       static_cast<std::uint32_t>(2 * recipe.input_bits));
  }
  t0 = host_now_ns();
  protocols::ProtocolInstance instance = protocols::make_protocol(recipe.kind, config);
  lap(stats.setup_protocol);

  std::unique_ptr<sim::StepScheduler> t_sched;
  std::unique_ptr<sim::StepScheduler> r_sched;
  std::unique_ptr<channel::DeliveryPolicy> policy;
  std::optional<rstp::Rng> seeder;
  if (recipe.env != nullptr) {
    seeder.emplace(recipe.env->seed);
    t_sched = rstp::core::make_scheduler(recipe.env->transmitter_sched, recipe.params,
                                         seeder->next_u64());
    r_sched = rstp::core::make_scheduler(recipe.env->receiver_sched, recipe.params,
                                         seeder->next_u64());
  } else {
    t_sched = std::make_unique<GenomeReplayScheduler>(recipe.genome->t_first,
                                                      recipe.genome->t_gaps);
    r_sched = std::make_unique<GenomeReplayScheduler>(recipe.genome->r_first,
                                                      recipe.genome->r_gaps);
  }
  lap(stats.setup_schedulers);
  policy = recipe.env != nullptr
               ? rstp::core::make_delivery_policy(recipe.env->delay, recipe.params,
                                                  seeder->next_u64())
               : channel::make_synthesized(*recipe.genome, recipe.params);
  lap(stats.setup_policy);

  std::unique_ptr<channel::DeliveryPolicy> wrapped;
  if (timed) {
    wrapped = std::make_unique<TimedPolicy>(std::move(policy), stats.choose);
  } else {
    wrapped = std::make_unique<LoggingPolicy>(std::move(policy), *log);
  }
  std::optional<TimedAutomaton> t_timed;
  std::optional<TimedAutomaton> r_timed;
  std::optional<TimedScheduler> ts_timed;
  std::optional<TimedScheduler> rs_timed;
  ioa::Automaton* t_auto = instance.transmitter.get();
  ioa::Automaton* r_auto = instance.receiver.get();
  sim::StepScheduler* ts = t_sched.get();
  sim::StepScheduler* rs = r_sched.get();
  if (timed) {
    const std::size_t slot = kind_slot(recipe.kind);
    t_auto = &t_timed.emplace(*instance.transmitter, slot, stats);
    r_auto = &r_timed.emplace(*instance.receiver, slot, stats);
    ts = &ts_timed.emplace(*t_sched, stats.scheduler);
    rs = &rs_timed.emplace(*r_sched, stats.scheduler);
  }

  t0 = host_now_ns();
  channel::Channel chan{recipe.params.d, std::move(wrapped)};
  lap(stats.setup_channel);

  sim::SimConfig sim_config;
  sim_config.params = recipe.params;
  sim_config.record_trace = false;
  sim_config.max_events = recipe.max_events;
  std::unordered_set<std::uint64_t> seen;
  if (recipe.genome != nullptr) {
    // evaluate_genome fingerprints every event; the cost is part of its run.
    const protocols::TransmitterBase& t = *instance.transmitter;
    const protocols::ReceiverBase& r = *instance.receiver;
    sim_config.observer = [&seen, &t, &r](const ioa::TimedEvent& e) {
      seen.insert(sim::event_fingerprint(e, t, r));
    };
  }
  sim::Simulator simulator{*t_auto, *r_auto, chan, *ts, *rs, std::move(sim_config)};
  lap(stats.setup_simulator);

  simulator.start();
  while (simulator.next_instant().has_value()) simulator.advance();
  sim::RunResult result = simulator.take_result();
  lap(stats.sim_span);

  if (timed) {
    stats.traced_ns += host_now_ns() - session_start;
    ++stats.sessions;
    stats.events += result.event_count;
    if (result.output == config.input) stats.bits += config.input.size();
    stats.blocks += result.metrics.counters.protocol.blocks_encoded;
  }
  g_sink += seen.size();
  return result;
}

void add_channel_replay(const Recipe& recipe, LayerStats& stats) {
  std::vector<SendRecord> log;
  LayerStats scratch;
  (void)drive_session(recipe, scratch, &log);
  replay_channel(recipe.params.d, log, stats);
}

/// Median per-call ns of `body` (which performs `calls` calls per pass) over
/// passes run for at least `min_ns`, at least five passes.
template <typename Body>
double time_per_call(std::size_t calls, Body&& body, std::uint64_t min_ns = 20'000'000) {
  std::vector<double> per_call;
  const std::uint64_t start = host_now_ns();
  while (per_call.size() < 5 || host_now_ns() - start < min_ns) {
    const std::uint64_t t0 = host_now_ns();
    body();
    per_call.push_back(static_cast<double>(host_now_ns() - t0) / static_cast<double>(calls));
  }
  return median(per_call);
}

std::vector<combinatorics::Bit> random_bits(rstp::Rng& rng, std::size_t n) {
  std::vector<combinatorics::Bit> bits(n);
  for (auto& b : bits) b = static_cast<combinatorics::Bit>(rng.next_below(2));
  return bits;
}

}  // namespace

LayerStats::LayerStats() {
  for (std::size_t i = 0; i < kKindSlots; ++i) {
    enabled_local[i].every = kSampleEvery;
    apply[i].every = kSampleEvery;
    quiescent[i].every = kSampleEvery;
  }
  scheduler.every = kSampleEvery;
  choose.every = kSampleEvery;
}

std::vector<const CallStat*> LayerStats::decorated() const {
  std::vector<const CallStat*> out{&scheduler, &choose};
  for (std::size_t i = 0; i < kKindSlots; ++i) {
    out.push_back(&enabled_local[i]);
    out.push_back(&apply[i]);
    out.push_back(&quiescent[i]);
  }
  return out;
}

namespace {

/// The layer used to measure tracing cost: a scheduler that does nothing.
class NoopScheduler final : public sim::StepScheduler {
 public:
  [[nodiscard]] Duration first_offset() override { return Duration{0}; }
  [[nodiscard]] Duration next_gap(std::uint64_t step_index) override {
    return Duration{static_cast<std::int64_t>(step_index & 1U)};
  }
};

/// Minimum over trials of the per-call time of next_gap calls on a
/// scheduler the compiler cannot see through.
double per_gap_call_ns(sim::StepScheduler* sched) {
  constexpr std::uint64_t kCalls = 200'000;
  double best = 1e9;
  for (int trial = 0; trial < 7; ++trial) {
    asm volatile("" : "+r"(sched));
    std::int64_t acc = 0;
    const std::uint64_t t0 = host_now_ns();
    for (std::uint64_t i = 0; i < kCalls; ++i) acc += sched->next_gap(i).ticks();
    const std::uint64_t t1 = host_now_ns();
    g_sink += static_cast<std::uint64_t>(acc);
    best = std::min(best, static_cast<double>(t1 - t0) / kCalls);
  }
  return best;
}

/// Extra per-call cost of a TimedScheduler that times one call in `every`.
double decorator_cost_ns(std::uint64_t every) {
  NoopScheduler bare;
  NoopScheduler inner;
  CallStat stat;
  stat.every = every;
  TimedScheduler timed{inner, stat};
  return std::max(0.0, per_gap_call_ns(&timed) - per_gap_call_ns(&bare));
}

}  // namespace

const TraceClock& TraceClock::get() {
  static const TraceClock clock = [] {
    TraceClock c;
    std::vector<double> pairs;
    for (int i = 0; i < 100'001; ++i) {
      const std::uint64_t t0 = host_now_ns();
      pairs.push_back(static_cast<double>(host_now_ns() - t0));
    }
    c.in_span_ns = median(pairs);
    c.timed_call_ns = decorator_cost_ns(1);
    c.counted_call_ns = decorator_cost_ns(std::uint64_t{1} << 62);
    return c;
  }();
  return clock;
}

namespace {

/// Simulator self time: the session spans minus the estimated time of every
/// decorated child call and minus the tracing cost the children add.
double sim_self_ns(const LayerStats& stats) {
  const TraceClock& clock = TraceClock::get();
  double self = static_cast<double>(stats.sim_span.ns) -
                static_cast<double>(stats.sim_span.timed) * clock.in_span_ns;
  for (const CallStat* s : stats.decorated()) {
    const auto counted = static_cast<double>(s->calls - s->timed);
    // Timed calls: their raw spans plus the tracing cost outside them.
    self -= static_cast<double>(s->ns) +
            static_cast<double>(s->timed) * (clock.timed_call_ns - clock.in_span_ns);
    // Counted-only calls: their estimated time plus the counting cost.
    self -= counted * (clock.per_call(*s) + clock.counted_call_ns);
  }
  return self;
}

}  // namespace

LayerCost layer_cost(const LayerStats& stats) {
  const TraceClock& clock = TraceClock::get();
  double setup = 0;
  for (const CallStat* s : {&stats.setup_input, &stats.setup_protocol, &stats.setup_schedulers,
                            &stats.setup_policy, &stats.setup_channel, &stats.setup_simulator}) {
    setup += clock.total(*s);
  }
  double loop = sim_self_ns(stats);
  for (const CallStat* s : stats.decorated()) loop += clock.total(*s);
  LayerCost cost;
  if (stats.sessions > 0) cost.setup_ns_per_session = setup / static_cast<double>(stats.sessions);
  if (stats.events > 0) cost.loop_ns_per_event = loop / static_cast<double>(stats.events);
  return cost;
}

sim::RunResult traced_protocol_session(protocols::ProtocolKind kind,
                                       const protocols::ProtocolConfig& config,
                                       const rstp::core::Environment& env,
                                       std::uint64_t max_events, LayerStats& stats) {
  Recipe recipe;
  recipe.kind = kind;
  recipe.params = config.params;
  recipe.k = config.k;
  recipe.input_bits = config.input.size();
  recipe.input = &config.input;
  recipe.env = &env;
  recipe.max_events = max_events;
  return drive_session(recipe, stats, nullptr);
}

void replay_protocol_session_channel(protocols::ProtocolKind kind,
                                     const protocols::ProtocolConfig& config,
                                     const rstp::core::Environment& env, std::uint64_t max_events,
                                     LayerStats& stats) {
  Recipe recipe;
  recipe.kind = kind;
  recipe.params = config.params;
  recipe.k = config.k;
  recipe.input_bits = config.input.size();
  recipe.input = &config.input;
  recipe.env = &env;
  recipe.max_events = max_events;
  add_channel_replay(recipe, stats);
}

sim::RunResult traced_genome_session(const sim::AdversaryCell& cell, std::uint64_t input_seed,
                                     const channel::ScheduleGenome& genome,
                                     std::uint64_t max_events, LayerStats& stats) {
  Recipe recipe;
  recipe.kind = cell.protocol;
  recipe.params = cell.params;
  recipe.k = cell.k;
  recipe.input_bits = cell.input_bits;
  recipe.input_seed = input_seed;
  recipe.genome = &genome;
  recipe.max_events = max_events;
  sim::RunResult result = drive_session(recipe, stats, nullptr);
  // Genome sessions are a few dozen events; replaying right away is cheap.
  add_channel_replay(recipe, stats);
  return result;
}

CodecCost probe_codec(std::uint32_t k, std::uint32_t delta, std::uint64_t seed) {
  constexpr std::size_t kInputs = 64;
  const combinatorics::BlockCoder coder{k, delta};
  const combinatorics::MultisetCodec codec{k, delta};
  rstp::Rng rng{seed};
  std::vector<std::vector<combinatorics::Bit>> messages;
  std::vector<combinatorics::Multiset> blocks;
  std::vector<rstp::bigint::BigUint> ranks;
  for (std::size_t i = 0; i < kInputs; ++i) {
    messages.push_back(random_bits(rng, coder.bits_per_block()));
    blocks.push_back(combinatorics::Multiset::from_symbols(k, coder.encode(messages.back())));
    ranks.push_back(codec.rank(blocks.back()));
  }
  CodecCost cost;
  cost.encode_ns = time_per_call(kInputs, [&] {
    for (const auto& m : messages) g_sink += coder.encode(m).size();
  });
  cost.decode_ns = time_per_call(kInputs, [&] {
    for (const auto& b : blocks) g_sink += coder.decode(b).size();
  });
  cost.rank_ns = time_per_call(kInputs, [&] {
    for (const auto& b : blocks) g_sink += codec.rank(b).bit_length();
  });
  cost.unrank_ns = time_per_call(kInputs, [&] {
    for (const auto& r : ranks) g_sink += codec.unrank(r).size();
  });
  return cost;
}

double probe_encode_message_ns_per_bit(std::uint32_t k, std::uint32_t delta, std::size_t bits,
                                       std::uint64_t seed) {
  const combinatorics::BlockCoder coder{k, delta};
  rstp::Rng rng{seed};
  const std::vector<combinatorics::Bit> message = random_bits(rng, bits);
  return time_per_call(bits, [&] { g_sink += coder.encode_message(message).size(); });
}

BigIntCost probe_bigint(std::size_t limbs, std::uint64_t seed) {
  using rstp::bigint::BigUint;
  rstp::Rng rng{seed};
  const std::size_t width = limbs * 64 - 1;
  // a has exactly `width` bits; b is one limb narrower, so a - b never
  // underflows and a + b stays within `limbs` limbs for the loop's length.
  BigUint a = BigUint::pow2(width - 1);
  BigUint b;
  for (std::size_t i = 0; i + 1 < limbs; ++i) {
    b <<= 64;
    b.add_u64(rng.next_u64() >> 1);
  }
  if (b.is_zero()) b = BigUint{rng.next_u64() >> 40};
  for (std::size_t i = 0; i + 1 < limbs; ++i) a.add_u64(rng.next_u64() >> 2);
  constexpr std::size_t kOps = 256;
  BigIntCost cost;
  cost.add_ns = time_per_call(kOps, [&] {
    BigUint z = a;
    for (std::size_t i = 0; i < kOps; ++i) z += b;
    g_sink += z.bit_length();
  });
  BigUint y = a;
  for (std::size_t i = 0; i < kOps; ++i) y += b;
  cost.sub_ns = time_per_call(kOps, [&] {
    BigUint z = y;
    for (std::size_t i = 0; i < kOps; ++i) z -= b;
    g_sink += z.bit_length();
  });
  cost.cmp_ns = time_per_call(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) g_sink += (a <=> y) == std::strong_ordering::less;
  });
  const std::size_t bits = a.bit_length();
  cost.bits_roundtrip_ns = time_per_call(1, [&] {
    g_sink += combinatorics::bits_to_biguint(combinatorics::biguint_to_bits(a, bits)).bit_length();
  });
  return cost;
}

std::vector<Metric> per_layer_metrics() {
  std::vector<Metric> m;
  const auto add = [&](std::string name, const char* unit) {
    m.push_back(Metric{std::move(name), 0, unit});
  };
  add("sim.dispatch_self_ns_per_event", "ns");
  add("sim.events_per_bit", "events/bit");
  for (const char* kind : kTracedKinds) {
    const std::string base = std::string("protocols.") + kind;
    add(base + ".enabled_local_ns", "ns");
    add(base + ".apply_ns", "ns");
    add(base + ".quiescent_ns", "ns");
  }
  add("protocols.enabled_local_calls_per_event", "calls/event");
  add("protocols.quiescent_calls_per_event", "calls/event");
  add("scheduler.next_gap_ns", "ns");
  add("scheduler.calls_per_event", "calls/event");
  add("channel.policy_choose_ns", "ns");
  add("channel.send_ns", "ns");
  add("channel.collect_due_ns", "ns");
  add("channel.peak_in_flight", "count");
  for (const char* cell : {"k16_d4", "k16_d8", "k16_d32", "k16_d64", "k256_d4", "k256_d8",
                           "k256_d32", "k256_d64"}) {
    const std::string base = std::string("combinatorics.") + cell;
    add(base + ".encode_ns", "ns");
    add(base + ".decode_ns", "ns");
    add(base + ".rank_ns", "ns");
    add(base + ".unrank_ns", "ns");
  }
  add("combinatorics.encode_message_ns_per_bit", "ns/bit");
  add("combinatorics.blocks_per_bit", "blocks/bit");
  for (const char* width : {"limbs1", "limbs3", "limbs4"}) {
    const std::string base = std::string("bigint.") + width;
    add(base + ".add_ns", "ns");
    add(base + ".sub_ns", "ns");
    add(base + ".cmp_ns", "ns");
    add(base + ".bits_roundtrip_ns", "ns");
  }
  add("core.session_setup_ns", "ns");
  add("core.setup.input_ns", "ns");
  add("core.setup.make_protocol_ns", "ns");
  add("core.setup.make_schedulers_ns", "ns");
  add("core.setup.make_delivery_policy_ns", "ns");
  add("core.setup.channel_ns", "ns");
  add("core.setup.simulator_ns", "ns");
  add("core.session_host_us_p50", "us");
  add("core.session_host_us_p99", "us");
  add("multi_session.overhead_ns_per_session", "ns");
  add("campaign.parallel_efficiency", "ratio");
  add("campaign.job_ms_p50", "ms");
  add("campaign.job_ms_p99", "ms");
  add("adversary.evaluate_genome_us_p50", "us");
  add("adversary.evaluate_genome_us_p99", "us");
  add("adversary.search_self_frac", "ratio");
  add("trace.residual_frac", "ratio");
  add("trace.overhead_frac", "ratio");
  return m;
}

void set_metric(std::vector<Metric>& metrics, const std::string& name, double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

void set_layer_metrics(std::vector<Metric>& metrics, const LayerStats& stats) {
  const TraceClock& clock = TraceClock::get();
  const auto events = static_cast<double>(std::max<std::uint64_t>(1, stats.events));
  const auto sessions = static_cast<double>(std::max<std::uint64_t>(1, stats.sessions));
  set_metric(metrics, "sim.dispatch_self_ns_per_event", sim_self_ns(stats) / events);
  set_metric(metrics, "sim.events_per_bit",
             static_cast<double>(stats.events) /
                 static_cast<double>(std::max<std::uint64_t>(1, stats.bits)));
  std::uint64_t enabled_calls = 0;
  std::uint64_t quiescent_calls = 0;
  for (std::size_t i = 0; i < kKindSlots; ++i) {
    enabled_calls += stats.enabled_local[i].calls;
    quiescent_calls += stats.quiescent[i].calls;
    if (i >= std::size(kTracedKinds)) continue;
    const std::string base = std::string("protocols.") + kTracedKinds[i];
    set_metric(metrics, base + ".enabled_local_ns", clock.per_call(stats.enabled_local[i]));
    set_metric(metrics, base + ".apply_ns", clock.per_call(stats.apply[i]));
    set_metric(metrics, base + ".quiescent_ns", clock.per_call(stats.quiescent[i]));
  }
  set_metric(metrics, "protocols.enabled_local_calls_per_event",
             static_cast<double>(enabled_calls) / events);
  set_metric(metrics, "protocols.quiescent_calls_per_event",
             static_cast<double>(quiescent_calls) / events);
  set_metric(metrics, "scheduler.next_gap_ns", clock.per_call(stats.scheduler));
  set_metric(metrics, "scheduler.calls_per_event",
             static_cast<double>(stats.scheduler.calls) / events);
  set_metric(metrics, "channel.policy_choose_ns", clock.per_call(stats.choose));
  set_metric(metrics, "channel.send_ns", clock.per_call(stats.channel_send));
  set_metric(metrics, "channel.collect_due_ns", clock.per_call(stats.channel_collect));
  set_metric(metrics, "channel.peak_in_flight", static_cast<double>(stats.peak_in_flight));
  set_metric(metrics, "combinatorics.blocks_per_bit",
             static_cast<double>(stats.blocks) /
                 static_cast<double>(std::max<std::uint64_t>(1, stats.bits)));

  const double input = clock.total(stats.setup_input) / sessions;
  const double protocol = clock.total(stats.setup_protocol) / sessions;
  const double schedulers = clock.total(stats.setup_schedulers) / sessions;
  const double policy = clock.total(stats.setup_policy) / sessions;
  const double chan = clock.total(stats.setup_channel) / sessions;
  const double simulator = clock.total(stats.setup_simulator) / sessions;
  set_metric(metrics, "core.setup.input_ns", input);
  set_metric(metrics, "core.setup.make_protocol_ns", protocol);
  set_metric(metrics, "core.setup.make_schedulers_ns", schedulers);
  set_metric(metrics, "core.setup.make_delivery_policy_ns", policy);
  set_metric(metrics, "core.setup.channel_ns", chan);
  set_metric(metrics, "core.setup.simulator_ns", simulator);
  set_metric(metrics, "core.session_setup_ns",
             input + protocol + schedulers + policy + chan + simulator);
}

}  // namespace perfbench
