// The four workloads: their fixed batches, engine calls, per-unit checks,
// sampled differential checks, digests and traced runs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "perf.h"
#include "rstp/common/rng.h"
#include "rstp/common/time.h"
#include "rstp/core/effort.h"
#include "rstp/obs/metrics.h"
#include "rstp/obs/sinks.h"
#include "rstp/sim/adversary.h"
#include "rstp/sim/campaign.h"
#include "rstp/sim/multi_session.h"
#include "traced.h"

namespace perfbench {

namespace {

namespace core = rstp::core;
namespace obs = rstp::obs;
namespace sim = rstp::sim;
using rstp::Time;
using rstp::protocols::ProtocolConfig;
using rstp::protocols::ProtocolKind;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t scaled(std::uint64_t base, double scale) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(static_cast<double>(base) * scale)));
}

/// The root seed of one workload's inputs: a pure function of --seed.
std::uint64_t workload_seed(const Options& options) {
  return sim::derive_unit_seeds(options.seed, static_cast<std::uint64_t>(options.workload) + 1)
      .environment;
}

/// `count` distinct indices in [0, n), drawn from `seed`.
std::vector<std::uint64_t> sample_indices(std::uint64_t n, std::size_t count, std::uint64_t seed) {
  rstp::Rng rng{seed};
  std::vector<std::uint64_t> out;
  while (out.size() < std::min<std::uint64_t>(count, n)) {
    const std::uint64_t i = rng.next_below(n);
    if (std::find(out.begin(), out.end(), i) == out.end()) out.push_back(i);
  }
  return out;
}

std::string records_digest(const std::vector<obs::RunMetricsRecord>& records,
                           const std::string& extra) {
  std::ostringstream os;
  for (const obs::RunMetricsRecord& r : records) obs::write_run_metrics_jsonl(os, r);
  os << extra;
  return fnv_hex(os.str());
}

std::string fmt(const char* format, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

/// True when a rebuilt run agrees with the reference run on every simulated
/// field.
bool same_run(const sim::RunResult& a, const sim::RunResult& b) {
  return a.output == b.output && a.event_count == b.event_count &&
         a.last_transmitter_send == b.last_transmitter_send && a.end_time == b.end_time &&
         a.quiescent == b.quiescent && a.metrics == b.metrics;
}

std::int64_t ticks_of(const std::optional<Time>& t) {
  return t.has_value() ? (*t - Time::zero()).ticks() : 0;
}

/// Marks the run failed when the traced run disagrees with the untraced one.
void require_traced_equal(bool equal, const char* what, Report& report) {
  if (equal) return;
  report.notes.push_back(std::string("FAILED: traced run differs from the untraced run on ") +
                         what);
  report.failed = report.attempted;
}

/// Reports Σ(layer self time × exact counts) + `engine_ns` (the engine's own
/// share, measured untraced) against the untraced total `untraced_ns`, both
/// over the whole batch, and the tracing overhead.
void set_reconciliation(std::vector<Metric>& metrics, const LayerCost& cost, double units,
                        double events, double engine_ns, double untraced_ns,
                        double overhead_frac, Report& report) {
  const double layers_ns = cost.total_ns(units, events);
  const double residual = 1 - (layers_ns + engine_ns) / untraced_ns;
  set_metric(metrics, "trace.residual_frac", residual);
  set_metric(metrics, "trace.overhead_frac", overhead_frac);
  const TraceClock& clock = TraceClock::get();
  report.notes.push_back(fmt("trace clock: %.1f ns inside each span; a decorated call costs "
                             "%.1f ns more when timed, %.1f ns when only counted",
                             clock.in_span_ns, clock.timed_call_ns, clock.counted_call_ns));
  report.notes.push_back(fmt("layers: setup %.0f ns per unit, loop %.1f ns per event; ",
                             cost.setup_ns_per_session, cost.loop_ns_per_event) +
                         fmt("batch: layers %.4g s + engine %.4g s vs untraced %.4g s",
                             layers_ns * 1e-9, engine_ns * 1e-9, untraced_ns * 1e-9));
  report.notes.push_back(fmt("reconcile: residual %.3f, tracing overhead %.3f", residual,
                             overhead_frac));
}

// ---------------------------------------------------------------------------
// alpha_stream / alpha_churn: sim::MultiSession

class AlphaWorkload final : public Workload {
 public:
  AlphaWorkload(const Options& options, bool churn)
      : churn_(churn), engine_(make_spec(options, churn)) {}

  double run_batch() override {
    const auto start = Clock::now();
    sim::MultiSessionResult result = engine_.run(1);
    const double wall = seconds_since(start);
    latest_same_ = !reference_.has_value() || result.same_simulation(*reference_);
    if (!reference_.has_value()) reference_ = result;
    latest_ = std::move(result);
    return wall;
  }

  std::uint64_t check_units() override {
    const std::uint64_t n = engine_.spec().sessions;
    if (!latest_same_ || latest_.sessions != n) return n;
    return std::min(n, (n - latest_.correct_sessions) + (n - latest_.quiescent_sessions));
  }

  [[nodiscard]] std::uint64_t units_per_batch() const override { return engine_.spec().sessions; }

  bool differential(const Options& options, Report& report) override {
    const sim::MultiSessionSpec& spec = engine_.spec();
    // (1) The engine's fold over a prefix of the sessions must be
    // field-equal to the same fold over standalone core::run_protocol runs.
    sim::MultiSessionSpec prefix = spec;
    prefix.sessions = std::min<std::uint64_t>(spec.sessions, churn_ ? 512 : 32);
    prefix.shards = 1;
    const sim::MultiSessionResult got = sim::MultiSession{prefix}.run(1);
    sim::MultiSessionResult want;
    std::uint64_t senders = 0;
    std::uint64_t tick_sum = 0;
    std::int64_t tick_min = 0;
    std::int64_t tick_max = 0;
    for (std::uint64_t i = 0; i < prefix.sessions; ++i) {
      const ProtocolConfig config = session_config(i);
      const core::ProtocolRun run = run_session(i, config);
      ++want.sessions;
      if (run.output_correct) ++want.correct_sessions;
      if (run.result.quiescent) ++want.quiescent_sessions;
      want.total_events += run.result.event_count;
      if (const std::int64_t ticks = ticks_of(run.result.last_transmitter_send); ticks > 0) {
        tick_min = senders == 0 ? ticks : std::min(tick_min, ticks);
        tick_max = senders == 0 ? ticks : std::max(tick_max, ticks);
        tick_sum += static_cast<std::uint64_t>(ticks);
        ++senders;
      }
      if (i == 0) {
        want.metrics = run.result.metrics;
      } else {
        want.metrics.counters += run.result.metrics.counters;
        want.metrics.data_delay.merge(run.result.metrics.data_delay);
        want.metrics.ack_delay.merge(run.result.metrics.ack_delay);
        want.metrics.transmitter_gap.merge(run.result.metrics.transmitter_gap);
        want.metrics.receiver_gap.merge(run.result.metrics.receiver_gap);
      }
    }
    if (senders > 0) {
      const auto bits = static_cast<double>(spec.input_bits);
      want.effort.min = static_cast<double>(tick_min) / bits;
      want.effort.max = static_cast<double>(tick_max) / bits;
      want.effort.mean = static_cast<double>(tick_sum) / (bits * static_cast<double>(senders));
    }
    const bool fold_ok = got.same_simulation(want);

    // (2) Sessions sampled across the whole batch: Y must equal the input
    // the benchmark regenerates itself, and the run must reach quiescence.
    bool sample_ok = true;
    const std::vector<std::uint64_t> picks =
        sample_indices(spec.sessions, 8, spec.base_seed ^ 0x5A3F);
    for (std::size_t s = 0; s < picks.size(); ++s) {
      const ProtocolConfig config = session_config(picks[s]);
      std::vector<rstp::ioa::Bit> expected = config.input;
      if (options.tamper == "output" && s == 0) expected[0] ^= 1;
      const core::ProtocolRun run = run_session(picks[s], config);
      sample_ok = sample_ok && run.result.output == expected && run.result.quiescent;
    }
    report.notes.push_back(std::string("differential: ") + std::to_string(prefix.sessions) +
                           "-session prefix fold vs run_protocol " + (fold_ok ? "ok" : "FAILED") +
                           ", " + std::to_string(picks.size()) + " sampled sessions Y==X " +
                           (sample_ok ? "ok" : "FAILED"));
    return fold_ok && sample_ok;
  }

  [[nodiscard]] std::string digest() const override {
    sim::MultiSessionResult folded = *reference_;
    folded.elapsed_seconds = 0;
    folded.events_per_sec = 0;
    return records_digest({sim::multi_session_metrics_record(engine_.spec(), folded)}, "");
  }

  void fill_counts(Timing& timing) override {
    timing.units = engine_.spec().sessions;
    timing.bits = reference_->correct_sessions * engine_.spec().input_bits;
    timing.events = reference_->total_events;
  }

  void trace(const Options&, const Timing& timing, Report& report) override {
    const sim::MultiSessionSpec& spec = engine_.spec();
    std::vector<Metric> metrics = per_layer_metrics();
    // The sample is one shard's worth of sessions, so the engine run over it
    // below has the batch's per-shard working set.
    const std::uint64_t m = std::max<std::uint64_t>(1, spec.sessions / spec.shards);

    // Three rounds, each timing the sample three ways back to back, so that
    // drift in machine speed hits all three alike:
    //   * untraced: one core::run_protocol per session (per-session times
    //     give the host-time percentiles);
    //   * the engine over the same sessions, whose excess over run_protocol
    //     is the heap, the arena and the fold;
    //   * traced: the same sessions through decorated layers.
    sim::MultiSessionSpec prefix = spec;
    prefix.sessions = m;
    prefix.shards = 1;
    const sim::MultiSession small{prefix};
    std::vector<double> session_us;
    std::vector<double> pass_ns;
    std::vector<double> engine_ns;
    LayerStats stats;
    bool equal = true;
    for (int round = 0; round < 3; ++round) {
      std::vector<sim::RunResult> reference(static_cast<std::size_t>(m));
      double total = 0;
      for (std::uint64_t i = 0; i < m; ++i) {
        const ProtocolConfig config = session_config(i);
        const std::uint64_t t0 = rstp::host_now_ns();
        core::ProtocolRun run = run_session(i, config);
        const auto ns = static_cast<double>(rstp::host_now_ns() - t0);
        total += ns;
        session_us.push_back(ns / 1e3);
        reference[static_cast<std::size_t>(i)] = std::move(run.result);
      }
      pass_ns.push_back(total);

      const std::uint64_t t0 = rstp::host_now_ns();
      (void)small.run(1);
      engine_ns.push_back(static_cast<double>(rstp::host_now_ns() - t0));

      for (std::uint64_t i = 0; i < m; ++i) {
        const sim::RunResult traced =
            traced_protocol_session(spec.protocol, session_config(i), session_env(i),
                                    spec.max_events_per_session, stats);
        equal = equal && same_run(traced, reference[static_cast<std::size_t>(i)]);
      }
    }
    require_traced_equal(equal, "sampled sessions", report);
    for (std::uint64_t i = 0; i < std::min<std::uint64_t>(m, 64); ++i) {
      replay_protocol_session_channel(spec.protocol, session_config(i), session_env(i),
                                      spec.max_events_per_session, stats);
    }
    const double run_protocol_ns = median(pass_ns);
    const double overhead_per_session =
        (median(engine_ns) - run_protocol_ns) / static_cast<double>(m);

    set_layer_metrics(metrics, stats);
    set_metric(metrics, "core.session_host_us_p50", percentile(session_us, 50));
    set_metric(metrics, "core.session_host_us_p99", percentile(session_us, 99));
    set_metric(metrics, "multi_session.overhead_ns_per_session", overhead_per_session);
    const auto sessions = static_cast<double>(spec.sessions);
    set_reconciliation(metrics, layer_cost(stats), sessions,
                       static_cast<double>(timing.events), overhead_per_session * sessions,
                       median(timing.wall_s) * 1e9,
                       static_cast<double>(stats.traced_ns) / (3 * run_protocol_ns) - 1, report);
    report.metrics = std::move(metrics);
  }

 private:
  static sim::MultiSessionSpec make_spec(const Options& options, bool churn) {
    sim::MultiSessionSpec spec;
    spec.protocol = ProtocolKind::Alpha;
    spec.params = core::TimingParams::make(1, 2, 4);
    spec.k = 2;
    spec.environment = core::Environment::randomized(0);
    spec.base_seed = workload_seed(options);
    if (churn) {
      // 4 bits per session; about 2k sessions per shard, so each shard's
      // arena has the working set of the full-size churn run.
      spec.input_bits = 4;
      spec.sessions = scaled(131'072, options.scale);
      spec.shards = static_cast<std::uint32_t>(std::max<std::uint64_t>(1, spec.sessions / 2048));
    } else {
      spec.input_bits = 512;
      spec.sessions = scaled(1'024, options.scale);
      spec.shards = static_cast<std::uint32_t>(std::min<std::uint64_t>(16, spec.sessions));
    }
    return spec;
  }

  [[nodiscard]] ProtocolConfig session_config(std::uint64_t session) const {
    const sim::MultiSessionSpec& spec = engine_.spec();
    ProtocolConfig config;
    config.params = spec.params;
    config.k = spec.k;
    config.input = core::make_random_input(
        spec.input_bits, sim::derive_unit_seeds(spec.base_seed, session).input);
    return config;
  }

  [[nodiscard]] core::Environment session_env(std::uint64_t session) const {
    core::Environment env = engine_.spec().environment;
    env.seed = sim::derive_unit_seeds(engine_.spec().base_seed, session).environment;
    return env;
  }

  [[nodiscard]] core::ProtocolRun run_session(std::uint64_t session,
                                              const ProtocolConfig& config) const {
    return core::run_protocol(engine_.spec().protocol, config, session_env(session),
                              /*record_trace=*/false, engine_.spec().max_events_per_session);
  }

  bool churn_;
  sim::MultiSession engine_;
  std::optional<sim::MultiSessionResult> reference_;
  sim::MultiSessionResult latest_;
  bool latest_same_ = true;
};

// ---------------------------------------------------------------------------
// block_grid: sim::Campaign

constexpr unsigned kGridThreads = 2;
constexpr std::size_t kGridBits = 16'384;

class GridWorkload final : public Workload {
 public:
  explicit GridWorkload(const Options& options) : engine_(make_spec(options)) {}

  double run_batch() override {
    const auto start = Clock::now();
    sim::CampaignResult result = engine_.run(kGridThreads);
    const double wall = seconds_since(start);
    latest_same_ = !reference_.has_value() || result == *reference_;
    if (!reference_.has_value()) reference_ = result;
    latest_ = std::move(result);
    return wall;
  }

  std::uint64_t check_units() override {
    const std::uint64_t n = engine_.job_count();
    if (!latest_same_ || latest_.jobs.size() != n) return n;
    return static_cast<std::uint64_t>(std::count_if(
        latest_.jobs.begin(), latest_.jobs.end(),
        [](const sim::CampaignJobResult& j) { return !job_ok(j); }));
  }

  [[nodiscard]] std::uint64_t units_per_batch() const override { return engine_.job_count(); }

  bool differential(const Options& options, Report& report) override {
    bool rows_ok = true;
    bool outputs_ok = true;
    const std::vector<std::uint64_t> picks =
        sample_indices(engine_.job_count(), 8, engine_.spec().campaign_seed ^ 0x5A3F);
    for (std::size_t s = 0; s < picks.size(); ++s) {
      const sim::CampaignJob job = engine_.job(static_cast<std::size_t>(picks[s]));
      const sim::CampaignJobResult row =
          sim::run_campaign_job(job, kGridBits, engine_.spec().max_events);
      rows_ok = rows_ok && row == reference_->jobs[static_cast<std::size_t>(picks[s])];
      const ProtocolConfig config = job_config(job);
      std::vector<rstp::ioa::Bit> expected = config.input;
      if (options.tamper == "output" && s == 0) expected[0] ^= 1;
      const core::ProtocolRun run = core::run_protocol(job.protocol, config, job.environment,
                                                       false, engine_.spec().max_events);
      outputs_ok = outputs_ok && run.result.output == expected && run.result.quiescent;
    }
    report.notes.push_back(std::string("differential: ") + std::to_string(picks.size()) +
                           " sampled rows vs run_campaign_job " + (rows_ok ? "ok" : "FAILED") +
                           ", Y==X " + (outputs_ok ? "ok" : "FAILED"));
    return rows_ok && outputs_ok;
  }

  [[nodiscard]] std::string digest() const override {
    return records_digest(sim::campaign_metrics_records(*reference_, kGridBits),
                          "incorrect=" + std::to_string(reference_->incorrect));
  }

  void fill_counts(Timing& timing) override {
    timing.units = engine_.job_count();
    timing.bits = kGridBits * static_cast<std::uint64_t>(std::count_if(
                                  reference_->jobs.begin(), reference_->jobs.end(), job_ok));
    timing.events = reference_->total_events;
  }

  void trace(const Options& options, const Timing& timing, Report& report) override {
    std::vector<Metric> metrics = per_layer_metrics();
    const std::size_t jobs = engine_.job_count();
    const double wall_ns = median(timing.wall_s) * 1e9;

    // Every job of the batch, serially through run_campaign_job.
    std::vector<double> job_ns(jobs);
    bool rows_equal = true;
    for (std::size_t i = 0; i < jobs; ++i) {
      const sim::CampaignJob job = engine_.job(i);
      const std::uint64_t t0 = rstp::host_now_ns();
      const sim::CampaignJobResult row =
          sim::run_campaign_job(job, kGridBits, engine_.spec().max_events);
      job_ns[i] = static_cast<double>(rstp::host_now_ns() - t0);
      rows_equal = rows_equal && row == reference_->jobs[i];
    }
    require_traced_equal(rows_equal, "serial campaign rows", report);
    double serial_ns = 0;
    std::vector<double> job_ms;
    for (const double ns : job_ns) {
      serial_ns += ns;
      job_ms.push_back(ns / 1e6);
    }
    set_metric(metrics, "campaign.parallel_efficiency", serial_ns / (kGridThreads * wall_ns));
    set_metric(metrics, "campaign.job_ms_p50", percentile(job_ms, 50));
    set_metric(metrics, "campaign.job_ms_p99", percentile(job_ms, 99));

    // Traced: the first job of every grid cell through decorated layers.
    LayerStats stats;
    bool equal = true;
    double sampled_untraced_ns = 0;
    const std::size_t per_cell = engine_.spec().seeds_per_cell;
    for (std::size_t i = 0; i < jobs; i += per_cell) {
      const sim::CampaignJob job = engine_.job(i);
      const ProtocolConfig config = job_config(job);
      const sim::RunResult traced = traced_protocol_session(job.protocol, config, job.environment,
                                                            engine_.spec().max_events, stats);
      const sim::CampaignJobResult& row = reference_->jobs[i];
      equal = equal && traced.event_count == row.event_count &&
              (traced.output == config.input) == row.output_correct &&
              traced.quiescent == row.quiescent && traced.metrics == row.metrics;
      sampled_untraced_ns += job_ns[i];
    }
    require_traced_equal(equal, "sampled grid jobs", report);
    for (std::size_t i = 0; i < jobs; i += per_cell) {
      const sim::CampaignJob job = engine_.job(i);
      replay_protocol_session_channel(job.protocol, job_config(job), job.environment,
                                      engine_.spec().max_events, stats);
    }
    set_layer_metrics(metrics, stats);

    // The public codec and BigUint entry points, at the grid's own cells.
    std::uint64_t probe_seed = workload_seed(options);
    double encode_message_sum = 0;
    int cells = 0;
    for (const std::uint32_t k : engine_.spec().alphabets) {
      for (const core::TimingParams& p : engine_.spec().timings) {
        const auto beta_delta = static_cast<std::uint32_t>((p.d.ticks() + p.c1.ticks() - 1) /
                                                           p.c1.ticks());
        const auto gamma_delta = static_cast<std::uint32_t>(p.d.ticks() / p.c2.ticks());
        for (const std::uint32_t delta : {beta_delta, gamma_delta}) {
          const CodecCost cost = probe_codec(k, delta, ++probe_seed);
          const std::string base =
              "combinatorics.k" + std::to_string(k) + "_d" + std::to_string(delta);
          set_metric(metrics, base + ".encode_ns", cost.encode_ns);
          set_metric(metrics, base + ".decode_ns", cost.decode_ns);
          set_metric(metrics, base + ".rank_ns", cost.rank_ns);
          set_metric(metrics, base + ".unrank_ns", cost.unrank_ns);
          encode_message_sum += probe_encode_message_ns_per_bit(k, delta, kGridBits, ++probe_seed);
          ++cells;
        }
      }
    }
    set_metric(metrics, "combinatorics.encode_message_ns_per_bit", encode_message_sum / cells);
    for (const std::size_t limbs : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
      const BigIntCost cost = probe_bigint(limbs, ++probe_seed);
      const std::string base = "bigint.limbs" + std::to_string(limbs);
      set_metric(metrics, base + ".add_ns", cost.add_ns);
      set_metric(metrics, base + ".sub_ns", cost.sub_ns);
      set_metric(metrics, base + ".cmp_ns", cost.cmp_ns);
      set_metric(metrics, base + ".bits_roundtrip_ns", cost.bits_roundtrip_ns);
    }

    // Reconcile in thread time: the traced layers of the batch plus the
    // worker pool's share (threads × wall − Σ serial job time).
    const double thread_ns = kGridThreads * wall_ns;
    set_reconciliation(metrics, layer_cost(stats), static_cast<double>(jobs),
                       static_cast<double>(timing.events), thread_ns - serial_ns, thread_ns,
                       static_cast<double>(stats.traced_ns) / sampled_untraced_ns - 1, report);
    report.metrics = std::move(metrics);
  }

 private:
  static bool job_ok(const sim::CampaignJobResult& j) {
    return j.output_correct && j.quiescent && !j.failed;
  }

  static sim::CampaignSpec make_spec(const Options& options) {
    sim::CampaignSpec spec;
    spec.protocols = {ProtocolKind::Beta, ProtocolKind::Gamma};
    spec.timings = {core::TimingParams::make(1, 2, 8), core::TimingParams::make(1, 2, 64)};
    spec.alphabets = {16, 256};
    spec.environments = {core::Environment::worst_case(), core::Environment::randomized(0)};
    spec.seeds_per_cell = static_cast<std::uint32_t>(scaled(8, options.scale));
    spec.input_bits = kGridBits;
    spec.campaign_seed = workload_seed(options);
    return spec;
  }

  static ProtocolConfig job_config(const sim::CampaignJob& job) {
    ProtocolConfig config;
    config.params = job.params;
    config.k = job.k;
    config.input = core::make_random_input(kGridBits, job.input_seed);
    return config;
  }

  sim::Campaign engine_;
  std::optional<sim::CampaignResult> reference_;
  sim::CampaignResult latest_;
  bool latest_same_ = true;
};

// ---------------------------------------------------------------------------
// adversary_search: sim::run_adversary_search

/// Simulator events `body` runs, from the simulator's own phase counters.
template <typename Body>
std::uint64_t count_events(Body&& body) {
  obs::set_phase_timing_enabled(true);
  obs::reset_phase_totals();
  body();
  obs::set_phase_timing_enabled(false);
  for (const obs::PhaseTotal& t : obs::collect_phase_totals()) {
    if (t.phase == obs::Phase::RecordEvent) return t.calls;
  }
  return 0;
}

constexpr unsigned kSearchJobs = 1;

class AdversaryWorkload final : public Workload {
 public:
  explicit AdversaryWorkload(const Options& options) {
    spec_.grid = sim::golden_adversary_grid();
    spec_.seed = workload_seed(options);
    spec_.budget = scaled(1'024, options.scale);
    spec_.jobs = kSearchJobs;
  }

  double run_batch() override {
    const auto start = Clock::now();
    sim::AdversaryResult result = sim::run_adversary_search(spec_);
    const double wall = seconds_since(start);
    latest_same_ = !reference_.has_value() || result.result_hash == reference_->result_hash;
    if (!reference_.has_value()) reference_ = result;
    latest_ = std::move(result);
    return wall;
  }

  std::uint64_t check_units() override {
    const std::uint64_t n = spec_.grid.size();
    if (!latest_same_ || latest_.cells.size() != n) return n;
    return static_cast<std::uint64_t>(
        std::count_if(latest_.cells.begin(), latest_.cells.end(),
                      [](const sim::AdversaryCellResult& c) { return !c.beats_hand(); }));
  }

  [[nodiscard]] std::uint64_t units_per_batch() const override { return spec_.grid.size(); }

  bool differential(const Options& options, Report& report) override {
    bool ok = true;
    for (std::size_t c = 0; c < reference_->cells.size(); ++c) {
      sim::AdversaryRepro repro = sim::make_adversary_repro(reference_->cells[c], spec_.max_events);
      if (options.tamper == "output" && c == 0) ++repro.expect_last_send;
      ok = ok && sim::replay_adversary_repro(repro).reproduced;
    }
    report.notes.push_back(std::string("differential: ") +
                           std::to_string(reference_->cells.size()) +
                           " winning genomes replayed " + (ok ? "ok" : "FAILED"));
    return ok;
  }

  [[nodiscard]] std::string digest() const override {
    char hash[32];
    std::snprintf(hash, sizeof hash, "result_hash=%016llx",
                  static_cast<unsigned long long>(reference_->result_hash));
    return records_digest(sim::adversary_metrics_records(*reference_, spec_.seed), hash);
  }

  void fill_counts(Timing& timing) override {
    timing.units = 0;
    timing.bits = 0;
    for (const sim::AdversaryCellResult& c : reference_->cells) {
      timing.units += c.executed;
      timing.bits += c.executed * c.cell.input_bits;
    }
    // The search reports no event total, so one extra, untimed search with
    // the simulator's phase counters armed counts every event exactly. The
    // counter is first checked against an evaluation that reports its own
    // event count.
    const sim::AdversaryCellResult& first = reference_->cells.front();
    sim::GenomeEval probe;
    const std::uint64_t probe_events = count_events([&] {
      probe = sim::evaluate_genome(first.cell, first.input_seed, first.best_genome,
                                   spec_.max_events);
    });
    sim::AdversaryResult counted;
    timing.events = count_events([&] { counted = sim::run_adversary_search(spec_); });
    if (probe_events != probe.event_count || counted.result_hash != reference_->result_hash) {
      throw std::runtime_error("adversary event counting pass disagrees with the engine");
    }
  }

  void trace(const Options&, const Timing& timing, Report& report) override {
    std::vector<Metric> metrics = per_layer_metrics();

    // evaluate_genome timed directly, and then traced, on each cell's
    // hand-coded and winning genomes.
    std::vector<double> eval_us;
    std::vector<double> eval_events;
    LayerStats stats;
    bool equal = true;
    double untraced_same = 0;  // untraced time of exactly the traced evaluations
    for (const sim::AdversaryCellResult& c : reference_->cells) {
      for (const rstp::channel::ScheduleGenome& genome :
           {sim::hand_equivalent_genome(c.cell.params), c.best_genome}) {
        sim::GenomeEval eval;
        std::vector<double> reps;
        for (int rep = 0; rep < 9; ++rep) {
          const std::uint64_t t0 = rstp::host_now_ns();
          eval = sim::evaluate_genome(c.cell, c.input_seed, genome, spec_.max_events);
          reps.push_back(static_cast<double>(rstp::host_now_ns() - t0));
        }
        for (const double ns : reps) eval_us.push_back(ns / 1e3);
        eval_events.push_back(static_cast<double>(eval.event_count));
        untraced_same += median(reps);
        const sim::RunResult traced =
            traced_genome_session(c.cell, c.input_seed, genome, spec_.max_events, stats);
        equal = equal && traced.event_count == eval.event_count &&
                ticks_of(traced.last_transmitter_send) == eval.last_send &&
                (traced.end_time - Time::zero()).ticks() == eval.end_time &&
                traced.quiescent == eval.quiescent;
      }
    }
    require_traced_equal(equal, "hand-coded and winning genomes", report);
    set_layer_metrics(metrics, stats);

    // Untraced evaluation cost as a + b · events, fitted by least squares to
    // the timed evaluations (their per-genome medians); applied to the
    // search's executed evaluations and exact event count, the rest of the
    // wall time is the search loop's own (plan, fold, minimize).
    std::vector<double> eval_ns;
    for (std::size_t i = 0; i < eval_events.size(); ++i) {
      std::vector<double> reps(eval_us.begin() + static_cast<std::ptrdiff_t>(9 * i),
                               eval_us.begin() + static_cast<std::ptrdiff_t>(9 * i + 9));
      eval_ns.push_back(median(reps) * 1e3);
    }
    double mean_e = 0;
    double mean_t = 0;
    for (std::size_t i = 0; i < eval_ns.size(); ++i) {
      mean_e += eval_events[i] / static_cast<double>(eval_ns.size());
      mean_t += eval_ns[i] / static_cast<double>(eval_ns.size());
    }
    double cov = 0;
    double var = 0;
    for (std::size_t i = 0; i < eval_ns.size(); ++i) {
      cov += (eval_events[i] - mean_e) * (eval_ns[i] - mean_t);
      var += (eval_events[i] - mean_e) * (eval_events[i] - mean_e);
    }
    const double per_event = var > 0 ? cov / var : mean_t / mean_e;
    const double per_eval = mean_t - per_event * mean_e;
    const auto evals = static_cast<double>(timing.units);
    const auto events = static_cast<double>(timing.events);
    const double thread_ns = kSearchJobs * median(timing.wall_s) * 1e9;
    const double search_self_ns = thread_ns - (per_eval * evals + per_event * events);
    set_metric(metrics, "adversary.evaluate_genome_us_p50", percentile(eval_us, 50));
    set_metric(metrics, "adversary.evaluate_genome_us_p99", percentile(eval_us, 99));
    set_metric(metrics, "adversary.search_self_frac", search_self_ns / thread_ns);
    set_reconciliation(metrics, layer_cost(stats), evals, events, search_self_ns, thread_ns,
                       static_cast<double>(stats.traced_ns) / untraced_same - 1, report);
    report.metrics = std::move(metrics);
  }

 private:
  sim::AdversarySpec spec_;
  std::optional<sim::AdversaryResult> reference_;
  sim::AdversaryResult latest_;
  bool latest_same_ = true;
};

}  // namespace

bool parse_workload(const std::string& name, WorkloadKind& out) {
  for (const WorkloadKind kind : {WorkloadKind::AlphaStream, WorkloadKind::AlphaChurn,
                                  WorkloadKind::BlockGrid, WorkloadKind::AdversarySearch}) {
    if (name == workload_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::AlphaStream: return "alpha_stream";
    case WorkloadKind::AlphaChurn: return "alpha_churn";
    case WorkloadKind::BlockGrid: return "block_grid";
    case WorkloadKind::AdversarySearch: return "adversary_search";
  }
  return "unknown";
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  switch (options.workload) {
    case WorkloadKind::AlphaStream: return std::make_unique<AlphaWorkload>(options, false);
    case WorkloadKind::AlphaChurn: return std::make_unique<AlphaWorkload>(options, true);
    case WorkloadKind::BlockGrid: return std::make_unique<GridWorkload>(options);
    case WorkloadKind::AdversarySearch: return std::make_unique<AdversaryWorkload>(options);
  }
  throw std::invalid_argument("unknown workload");
}

}  // namespace perfbench
