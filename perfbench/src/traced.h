// The traced run's machinery: timing decorators around the layers the
// simulator calls through public interfaces (ioa::Automaton,
// sim::StepScheduler, channel::DeliveryPolicy), sessions rebuilt from the
// same seeds and driven through sim::Simulator with those decorators, a
// standalone Channel replay, and direct probes of the codec and BigUint.
//
// Spans are kept in memory as per-layer (calls, ns) accumulators and folded
// into metrics when the run ends. Decorated layers count every call and time
// a sample of them; every duration is corrected by the measured cost of the
// tracing itself (TraceClock), so that layer self times multiplied by exact
// call counts can be summed against an untraced total.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perf.h"
#include "rstp/channel/synthesized.h"
#include "rstp/core/effort.h"
#include "rstp/sim/adversary.h"

namespace perfbench {

/// Calls into one entry point, and the raw nanoseconds of those that were
/// timed. Decorated layers time one call in `every` (counting all of them),
/// which keeps the clock's own cost from swamping layers that take a few ns.
struct CallStat {
  std::uint64_t calls = 0;
  std::uint64_t timed = 0;
  std::uint64_t ns = 0;
  std::uint64_t every = 1;
  std::uint64_t countdown = 1;  ///< calls until the next timed one
  /// Counts a call; true when this one is to be timed.
  bool sample() {
    ++calls;
    if (--countdown != 0) return false;
    countdown = every;
    return true;
  }
  void add_timed(std::uint64_t d) {
    ++timed;
    ns += d;
  }
  /// Counts and times one call (spans that are always timed).
  void add(std::uint64_t d) {
    ++calls;
    add_timed(d);
  }
};

/// Decorated layers time one call in this many.
inline constexpr std::uint64_t kSampleEvery = 8;

/// Protocol kinds broken out in the per-layer metrics.
inline constexpr const char* kTracedKinds[] = {"alpha", "beta", "gamma", "altbit"};
inline constexpr std::size_t kKindSlots = 5;  // the four above + any other kind

/// Everything the traced sessions accumulated.
struct LayerStats {
  LayerStats();

  CallStat enabled_local[kKindSlots];
  CallStat apply[kKindSlots];
  CallStat quiescent[kKindSlots];
  CallStat scheduler;  ///< first_offset + next_gap
  CallStat choose;     ///< DeliveryPolicy::choose
  CallStat sim_span;   ///< start() .. take_result(), one span per session

  // Session construction, one call each per session.
  CallStat setup_input;
  CallStat setup_protocol;
  CallStat setup_schedulers;
  CallStat setup_policy;
  CallStat setup_channel;
  CallStat setup_simulator;

  // Standalone Channel replay of the recorded sends and deliveries.
  CallStat channel_send;
  CallStat channel_collect;
  std::uint64_t peak_in_flight = 0;

  std::uint64_t sessions = 0;
  std::uint64_t events = 0;
  std::uint64_t bits = 0;
  std::uint64_t blocks = 0;  ///< ProtocolCounters::blocks_encoded
  std::uint64_t traced_ns = 0;  ///< wall time of the traced sessions, setup included

  /// The sampled (decorated) entry points.
  [[nodiscard]] std::vector<const CallStat*> decorated() const;
};

/// What tracing itself costs, measured once per process on a no-op layer.
struct TraceClock {
  /// Back-to-back clock reads: the part of a timed span that is the clock,
  /// not the layer.
  double in_span_ns = 0;
  /// Extra cost of a timed decorated call over the bare virtual call (both
  /// clock reads, the accumulator update, the extra indirection).
  double timed_call_ns = 0;
  /// Extra cost of a decorated call that is only counted.
  double counted_call_ns = 0;
  static const TraceClock& get();
  /// Corrected nanoseconds per call, from the timed calls (0 without any).
  [[nodiscard]] double per_call(const CallStat& s) const {
    if (s.timed == 0) return 0;
    return (static_cast<double>(s.ns) - static_cast<double>(s.timed) * in_span_ns) /
           static_cast<double>(s.timed);
  }
  /// Corrected nanoseconds of every call, timed or only counted.
  [[nodiscard]] double total(const CallStat& s) const {
    return per_call(s) * static_cast<double>(s.calls);
  }
};

/// The traced decomposition of the sampled sessions, as per-unit costs that
/// multiply exact counts: construction per session, and the event loop
/// (simulator self time plus every decorated layer, corrected) per event.
struct LayerCost {
  double setup_ns_per_session = 0;
  double loop_ns_per_event = 0;
  /// Σ (layer self time × exact count) for a workload of these sizes.
  [[nodiscard]] double total_ns(double sessions, double events) const {
    return sessions * setup_ns_per_session + events * loop_ns_per_event;
  }
};
[[nodiscard]] LayerCost layer_cost(const LayerStats& stats);

/// Rebuilds the session core::run_protocol(kind, config, env, false,
/// max_events) would run and drives it through decorated layers. The result
/// must equal run_protocol's.
[[nodiscard]] rstp::sim::RunResult traced_protocol_session(
    rstp::protocols::ProtocolKind kind, const rstp::protocols::ProtocolConfig& config,
    const rstp::core::Environment& env, std::uint64_t max_events, LayerStats& stats);

/// Replays the channel traffic of the same session into a standalone Channel,
/// timing send() and collect_due() (channel.* metrics).
void replay_protocol_session_channel(rstp::protocols::ProtocolKind kind,
                                     const rstp::protocols::ProtocolConfig& config,
                                     const rstp::core::Environment& env, std::uint64_t max_events,
                                     LayerStats& stats);

/// Rebuilds the session sim::evaluate_genome(cell, input_seed, genome,
/// max_events) runs (genome schedulers, synthesized policy, coverage
/// fingerprints), drives it through decorated layers and replays its channel
/// traffic.
[[nodiscard]] rstp::sim::RunResult traced_genome_session(
    const rstp::sim::AdversaryCell& cell, std::uint64_t input_seed,
    const rstp::channel::ScheduleGenome& genome, std::uint64_t max_events, LayerStats& stats);

/// Per-call costs of the public codec entry points at one (k, δ) cell.
struct CodecCost {
  double encode_ns = 0;
  double decode_ns = 0;
  double rank_ns = 0;
  double unrank_ns = 0;
};
[[nodiscard]] CodecCost probe_codec(std::uint32_t k, std::uint32_t delta, std::uint64_t seed);
/// BlockCoder::encode_message cost per message bit.
[[nodiscard]] double probe_encode_message_ns_per_bit(std::uint32_t k, std::uint32_t delta,
                                                     std::size_t bits, std::uint64_t seed);

struct BigIntCost {
  double add_ns = 0;
  double sub_ns = 0;
  double cmp_ns = 0;
  double bits_roundtrip_ns = 0;
};
/// BigUint operation costs on operands of `limbs` 64-bit limbs.
[[nodiscard]] BigIntCost probe_bigint(std::size_t limbs, std::uint64_t seed);

/// Every per-layer metric, in BENCHMARK.json order, valued 0 (a layer that
/// is not on a workload's path reads 0).
[[nodiscard]] std::vector<Metric> per_layer_metrics();
/// Sets one metric of a per_layer_metrics() list; throws on an unknown name.
void set_metric(std::vector<Metric>& metrics, const std::string& name, double value);
/// Fills the sim / protocols / scheduler / channel / core setup metrics.
void set_layer_metrics(std::vector<Metric>& metrics, const LayerStats& stats);

}  // namespace perfbench
