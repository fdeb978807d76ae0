// rstp — command-line front end to the library.
//
//   rstp bounds  <c1> <c2> <d> <k>
//       Print every closed-form bound for the model.
//
//   rstp run     <protocol> <c1> <c2> <d> <k> <n|bits> [options]
//       Run a protocol end to end and print transfer statistics.
//         protocol: alpha | beta | gamma | altbit | indexed | strawman
//         n|bits:   a length (random input, seeded) or a literal 0/1 string
//         --env worst|fast|random|adversarial   (default worst)
//         --seed N                              (default 1)
//         --trace FILE                          write the timed trace
//         --trace-out FILE                      write a Chrome-trace/Perfetto
//                                               span timeline (rstp-trace-v1)
//         --stats                               print trace statistics
//         --metrics-out FILE                    append the run's metrics (JSONL)
//         --timing                              print wall-clock phase timings
//                                               (raw and net of the measured
//                                               timer-pair overhead)
//
//   rstp verify  <c1> <c2> <d> <tracefile> <bits>
//       Check a saved trace against good(A) and the expected output.
//
//   rstp explore <protocol> <d> <k> <bits>
//       Exhaustively verify all schedules (c1=c2=1) for a small instance;
//       prints a counterexample trace on failure.
//
//   rstp campaign [--metrics-out FILE] [--threads N] [--dashboard]
//       Run the fixed golden campaign grid (the regression-gate reference;
//       bitwise deterministic for any thread count) and append one JSONL row
//       per job to --metrics-out. --dashboard renders a live terminal view
//       (per-protocol bars, jobs/sec, ETA, rolling effort mean and delay
//       percentiles); when stdout is not a TTY or NO_COLOR is set it
//       degrades to the one-line progress mode (never ANSI). --no-dashboard
//       wins over --dashboard. Display never touches the result.
//
//   rstp mega [--sessions N] [--shards N] [--threads N] [--protocol P]
//             [--k K] [--bits N] [--seed N] [--max-events N]
//             [--metrics-out FILE]
//       Run N multiplexed sessions on one simulated clock (the
//       million-session engine, sim/multi_session.h). Defaults are the
//       golden megasession cell, so `rstp mega --sessions 10000
//       --metrics-out F` regenerates tests/golden/megasession_baseline.jsonl.
//       Appends ONE JSONL row — the session-order fold — carrying the
//       `sessions` and `events_per_sec` schema fields.
//
//   rstp report <metrics.jsonl>
//       Render a metrics JSONL file (from --metrics-out) as a table.
//
//   rstp report <old.jsonl> <new.jsonl> [--json] [--fail-on SPEC]
//       Join two metrics series by run identity and report per-cell and
//       aggregate deltas. --json emits the machine-readable
//       rstp-metrics-diff-v1 document instead of the table. --fail-on turns
//       the diff into a gate: SPEC is a comma-separated list of clauses like
//       'effort_mean>1%,delay_p99>5%,cells_changed>0' (grammar in
//       docs/OBSERVABILITY.md); any tripped clause exits 3.
//
//   rstp fuzz <protocol> [options]
//       Coverage-guided schedule/fault fuzzing (docs/TESTING.md). The run is
//       deterministic for a fixed --seed/--budget, for any --jobs value;
//       failures are minimized and written as replayable repro documents.
//         --seed N            master seed (default 1)
//         --budget N          case executions (default 256)
//         --jobs N            worker threads (default 1; 0 = hardware)
//         --k K  --bits N     alphabet size / max input bits
//         --faults            enable the fault injector (drops, duplicates,
//                             late deliveries, in-alphabet corruption)
//         --corpus DIR        seed with every *.case file in DIR (sorted)
//         --repro-out FILE    write the first failure's repro document here
//         --metrics-out FILE  append one JSONL row per corpus entry
//         --wait-override W / --block-override B   mutant knobs
//         --max-events N / --time-budget-ms N / --keep-going
//         --dashboard         live per-generation view (corpus, coverage
//                             growth, crash/failure counters); same TTY /
//                             NO_COLOR / --no-dashboard fallback as campaign
//
//   rstp adversary [options]
//       Coverage-guided adversary synthesis (docs/TESTING.md): per grid cell,
//       search the space of legal delivery schedules and process step plans
//       for an effort maximizer, and report the empirical gap to the paper's
//       Theorem 5.3/5.6 lower bounds. Generation 0 always contains the
//       hand-coded worst case, so best >= hand on every cell unless the
//       search itself regressed — exit 1 in that case.
//         --grid golden|quick   16-cell baseline grid / 4-cell smoke grid
//         --budget N            genome evaluations per cell (default 64)
//         --jobs N              worker threads (default 1; 0 = hardware);
//                               the result is bitwise identical for any value
//         --seed N              master seed (default 1)
//         --max-events N        per-run event cap (default 200000)
//         --repro-out FILE      write the max-gap cell's winning genome as a
//                               replayable rstp-adversary-v1 artifact
//         --metrics-out FILE    append one JSONL row per cell (gap_ratio
//                               feeds `rstp report --fail-on 'gap_ratio_max>…'`)
//
//   rstp replay <reprofile> [--trace-out FILE]
//       Re-execute a repro document (rstp-fuzz-repro-v1 or rstp-adversary-v1,
//       sniffed from the header line) and compare every recorded field.
//       Exit 0 iff the recorded verdict reproduces bitwise (even a failing
//       verdict), 1 on any divergence. --trace-out writes the replay's span
//       timeline (Chrome-trace JSON) for post-mortem inspection in Perfetto
//       (fuzz repros only).
//
// Exit code 0 on success/verified, 1 on failure, 2 on usage errors (including
// malformed diff inputs and threshold specs), 3 on a tripped --fail-on gate.
#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "rstp/core/bounds.h"
#include "rstp/core/drift.h"
#include "rstp/core/effort.h"
#include "rstp/est/runner.h"
#include "rstp/core/trace_stats.h"
#include "rstp/core/verify.h"
#include "rstp/ioa/explorer.h"
#include "rstp/ioa/trace_io.h"
#include "rstp/obs/dashboard.h"
#include "rstp/obs/diff.h"
#include "rstp/obs/sinks.h"
#include "rstp/obs/trace.h"
#include "rstp/protocols/factory.h"
#include "rstp/sim/adversary.h"
#include "rstp/sim/campaign.h"
#include "rstp/sim/multi_session.h"
#include "rstp/sim/fuzz.h"

namespace {

using namespace rstp;
using protocols::ProtocolKind;

int usage() {
  std::cerr << "usage:\n"
               "  rstp bounds  <c1> <c2> <d> <k>\n"
               "  rstp run     <protocol> <c1> <c2> <d> <k> <n|bits>"
               " [--env worst|fast|random|adversarial] [--seed N] [--trace FILE]"
               " [--trace-out FILE] [--stats] [--metrics-out FILE] [--timing]"
               " [--estimator[=margin]] [--drift SPEC]\n"
               "  rstp verify  <c1> <c2> <d> <tracefile> <bits>\n"
               "  rstp explore <protocol> <d> <k> <bits>\n"
               "  rstp campaign [--metrics-out FILE] [--threads N] [--dashboard]"
               " [--no-dashboard] [--estimator[=margin]] [--drift SPEC]\n"
               "  rstp mega    [--sessions N] [--shards N] [--threads N]"
               " [--protocol P] [--k K] [--bits N] [--seed N] [--max-events N]"
               " [--metrics-out FILE]\n"
               "  rstp report  <metrics.jsonl>\n"
               "  rstp report  <old.jsonl> <new.jsonl> [--json] [--fail-on SPEC]\n"
               "  rstp fuzz    <protocol> [--seed N] [--budget N] [--jobs N] [--k K]"
               " [--bits N] [--faults] [--corpus DIR] [--repro-out FILE]"
               " [--metrics-out FILE] [--wait-override W] [--block-override B]"
               " [--max-events N] [--time-budget-ms N] [--keep-going]"
               " [--dashboard] [--no-dashboard]\n"
               "  rstp adversary [--grid golden|quick] [--budget N] [--jobs N]"
               " [--seed N] [--max-events N] [--repro-out FILE] [--metrics-out FILE]\n"
               "  rstp replay  <reprofile> [--trace-out FILE]\n";
  return 2;
}

/// Checked numeric parsing: the whole token must be one decimal number that
/// fits the target type. std::nullopt on any malformed or out-of-range token
/// (unlike std::stoll, which accepts trailing garbage and throws on range).
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || text.empty()) return std::nullopt;
  return value;
}

/// Names a bad argument and its token: every "invalid" usage error goes
/// through here. Always false, so a flag's setter can return it.
bool invalid(std::string_view what, std::string_view token, std::string_view why) {
  std::cerr << "invalid " << what << " '" << token << "': " << why << "\n";
  return false;
}

/// A positional number; std::nullopt after naming a bad token.
template <typename T>
[[nodiscard]] std::optional<T> number_arg(std::string_view what, std::string_view token) {
  const auto parsed = parse_number<T>(token);
  if (!parsed.has_value()) invalid(what, token, "expected a decimal integer");
  return parsed;
}

/// The positional (c1, c2, d) triple at argv[first..first+2]; std::nullopt
/// after naming the first bad token.
[[nodiscard]] std::optional<core::TimingParams> timing_args(char** argv, int first) {
  const auto c1 = number_arg<std::int64_t>("c1", argv[first]);
  const auto c2 = c1.has_value() ? number_arg<std::int64_t>("c2", argv[first + 1]) : std::nullopt;
  const auto d = c2.has_value() ? number_arg<std::int64_t>("d", argv[first + 2]) : std::nullopt;
  if (!d.has_value()) return std::nullopt;
  return core::TimingParams::make(*c1, *c2, *d);
}

/// A protocol name; std::nullopt after naming an unknown one.
[[nodiscard]] std::optional<ProtocolKind> protocol_arg(std::string_view name) {
  const auto kind = protocols::protocol_from_string(name);
  if (!kind.has_value()) std::cerr << "unknown protocol '" << name << "'\n";
  return kind;
}

/// One entry of a verb's flag table. A flag that takes a value accepts both
/// `--flag value` and `--flag=value`; an optional value takes only the `=`
/// form. `set` stores the value (std::nullopt when none was given) and
/// returns false once it has named a bad token.
struct Flag {
  enum class Takes { Nothing, Value, OptionalValue };
  std::string_view name;
  Takes takes;
  std::function<bool(std::optional<std::string_view>)> set;
};

/// Upper bound on --threads/--jobs: each worker is an OS thread, and results
/// are bitwise identical for any worker count.
constexpr unsigned kMaxThreads = 256;

Flag switch_flag(std::string_view name, bool& slot, bool value = true) {
  return {name, Flag::Takes::Nothing, [&slot, value](auto) { slot = value; return true; }};
}

Flag string_flag(std::string_view name, std::string& slot) {
  return {name, Flag::Takes::Value, [&slot](auto value) { slot = *value; return true; }};
}

/// A decimal integer in [min, max].
template <typename T>
Flag number_flag(std::string_view name, T& slot, std::type_identity_t<T> min = 0,
                 std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
  const auto set = [name, &slot, min, max](std::optional<std::string_view> value) {
    const auto parsed = parse_number<T>(*value);
    if (!parsed.has_value()) return invalid(name, *value, "expected a decimal integer");
    if (*parsed < min) return invalid(name, *value, "must be at least " + std::to_string(min));
    if (*parsed > max) return invalid(name, *value, "must be at most " + std::to_string(max));
    slot = *parsed;
    return true;
  };
  return {name, Flag::Takes::Value, set};
}

/// One name from a fixed list.
Flag choice_flag(std::string_view name, std::string_view& slot,
                 std::vector<std::string_view> choices) {
  return {name, Flag::Takes::Value, [name, &slot, choices = std::move(choices)](auto value) {
            if (std::find(choices.begin(), choices.end(), *value) != choices.end()) {
              slot = *value;
              return true;
            }
            std::string expected = "expected ";
            for (const std::string_view choice : choices) (expected += choice) += '|';
            expected.pop_back();
            return invalid(name, *value, expected);
          }};
}

/// `--estimator[=margin]`, the one flag whose value is optional: bare, it
/// turns the estimator on; with a value, it also sets a margin in [0, 1).
Flag estimator_flag(bool& on, std::optional<double>& margin) {
  return {"--estimator", Flag::Takes::OptionalValue, [&on, &margin](auto value) {
            on = true;
            if (!value.has_value()) return true;
            margin = parse_number<double>(*value);
            if (margin.has_value() && *margin >= 0.0 && *margin < 1.0) return true;
            return invalid("--estimator margin", *value, "expected a number in [0, 1)");
          }};
}

/// `--drift SPEC`; a DriftParseError names the offending segment. A parsed
/// spec is never empty, so an empty slot means the flag was not given.
Flag drift_flag(core::DriftSpec& slot) {
  return {"--drift", Flag::Takes::Value, [&slot](auto value) {
            try {
              slot = core::DriftSpec::parse(*value);
              return true;
            } catch (const core::DriftParseError& e) {
              std::cerr << "bad --drift segment '" << e.token() << "': " << e.what() << "\n";
              return false;
            }
          }};
}

/// Reads argv[first..argc) against a verb's flag table: the one place any
/// verb reads a flag. False once the bad token is named (a usage error, exit
/// 2). A verb that takes positional arguments passes `positional`; they are
/// the arguments that name no flag and do not start with '-'.
bool parse_flags(int argc, char** argv, int first, std::initializer_list<Flag> table,
                std::vector<std::string>* positional = nullptr) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const Flag* flag = std::find_if(table.begin(), table.end(),
                                    [name](const Flag& f) { return f.name == name; });
    if (flag == table.end()) {
      if (positional == nullptr || arg.starts_with('-')) {
        std::cerr << "unknown option '" << arg << "'\n";
        return false;
      }
      positional->emplace_back(arg);
      continue;
    }
    std::optional<std::string_view> value;
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
      if (flag->takes == Flag::Takes::Nothing) return invalid(name, *value, "takes no value");
    } else if (flag->takes == Flag::Takes::Value) {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << name << "\n";
        return false;
      }
      value = argv[++i];
    }
    if (!flag->set(value)) return false;
  }
  return true;
}

/// The `--env` presets, built after every flag is read so that the order of
/// `--env` and `--seed` does not matter.
[[nodiscard]] core::Environment make_environment(std::string_view name, std::uint64_t seed) {
  core::Environment env = core::Environment::worst_case();
  if (name == "fast") {
    env.transmitter_sched = core::Environment::Sched::FastFixed;
    env.receiver_sched = core::Environment::Sched::FastFixed;
    env.delay = core::Environment::Delay::Zero;
  } else if (name == "random") {
    env = core::Environment::randomized(seed);
  } else if (name == "adversarial") {
    env = core::Environment::adversarial_fast();
  }
  env.seed = seed;
  return env;
}

/// A positional 0/1 string; std::nullopt after naming the argument.
[[nodiscard]] std::optional<std::vector<ioa::Bit>> bits_arg(std::string_view what,
                                                            std::string_view text) {
  if (text.find_first_not_of("01") != std::string_view::npos) {
    std::cerr << what << " must be a 0/1 string\n";
    return std::nullopt;
  }
  std::vector<ioa::Bit> bits;
  bits.reserve(text.size());
  for (const char c : text) bits.push_back(static_cast<ioa::Bit>(c - '0'));
  return bits;
}

/// Parses the input argument: a pure 0/1 string of length ≥ 8 is a literal
/// bit sequence; anything else is a decimal length for a seeded random
/// input (so "64" is 64 random bits, "01100110" is those exact 8 bits).
/// std::nullopt, after naming the token, when it is neither.
std::optional<std::vector<ioa::Bit>> parse_input(const std::string& text, std::uint64_t seed) {
  if (text.find_first_not_of("01") == std::string::npos && text.size() >= 8) {
    return bits_arg("input", text);
  }
  const auto length = number_arg<std::uint32_t>("input length", text);
  if (!length.has_value()) return std::nullopt;
  return core::make_random_input(*length, seed);
}

/// Opens `stream` on `path`; false after naming a path that cannot be
/// opened. The stream adds std::ios::in or std::ios::out to `mode` itself.
template <typename Stream>
[[nodiscard]] bool open_file(Stream& stream, const std::filesystem::path& path,
                             std::ios::openmode mode = {}) {
  stream.open(path, mode);
  if (!stream) std::cerr << "cannot open '" << path.string() << "'\n";
  return static_cast<bool>(stream);
}

/// Appends metric records to a JSONL file (append, so several runs can
/// accumulate into one report input). False after naming a file that cannot
/// be opened.
bool append_metrics_jsonl(const std::string& path,
                          const std::vector<obs::RunMetricsRecord>& records) {
  std::ofstream out;
  if (!open_file(out, path, std::ios::app)) return false;
  for (const obs::RunMetricsRecord& record : records) {
    obs::write_run_metrics_jsonl(out, record);
  }
  return static_cast<bool>(out);
}

int cmd_bounds(int argc, char** argv) {
  if (argc != 6) return usage();
  const auto params = timing_args(argv, 2);
  if (!params.has_value()) return 2;
  const auto k = number_arg<std::uint32_t>("k", argv[5]);
  if (!k.has_value()) return 2;
  std::cout << core::compute_bounds(*params, *k) << '\n';
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 8) return usage();
  const auto kind = protocol_arg(argv[2]);
  if (!kind.has_value()) return 2;
  const auto params = timing_args(argv, 3);
  if (!params.has_value()) return 2;
  const auto k = number_arg<std::uint32_t>("k", argv[6]);
  if (!k.has_value()) return 2;
  protocols::ProtocolConfig cfg;
  cfg.params = *params;
  cfg.k = *k;

  std::string_view env_name = "worst";
  std::uint64_t seed = 1;
  std::string trace_file;
  std::string trace_out_file;
  std::string metrics_file;
  bool want_stats = false;
  bool want_timing = false;
  bool want_estimator = false;
  std::optional<double> margin;
  core::DriftSpec drift;
  if (!parse_flags(argc, argv, 8,
                   {choice_flag("--env", env_name, {"worst", "fast", "random", "adversarial"}),
                    number_flag("--seed", seed), string_flag("--trace", trace_file),
                    string_flag("--trace-out", trace_out_file), switch_flag("--stats", want_stats),
                    string_flag("--metrics-out", metrics_file),
                    switch_flag("--timing", want_timing), estimator_flag(want_estimator, margin),
                    drift_flag(drift)})) {
    return 2;
  }
  const core::Environment env = make_environment(env_name, seed);
  if (want_estimator && *kind != ProtocolKind::Beta && *kind != ProtocolKind::Gamma) {
    std::cerr << "--estimator supports only beta and gamma\n";
    return 2;
  }
  const auto input = parse_input(argv[7], seed);
  if (!input.has_value()) return 2;
  cfg.input = *input;
  if (*kind == ProtocolKind::Indexed) {
    cfg.k = std::max<std::uint32_t>(cfg.k,
                                    static_cast<std::uint32_t>(2 * std::max<std::size_t>(
                                                                       1, cfg.input.size())));
  }

  std::uint64_t overhead_ns = 0;
  if (want_timing) {
    obs::set_phase_timing_enabled(true);
    // The calibration loop spins real timer pairs; reset so the run's
    // attribution starts clean (the overhead gauge survives the reset).
    overhead_ns = obs::measure_phase_overhead_ns_per_pair();
    obs::reset_phase_totals();
  }
  std::optional<obs::trace::Tracer> tracer;
  std::optional<obs::trace::ModelRecorder> recorder;
  if (!trace_out_file.empty()) {
    tracer.emplace();
    recorder.emplace(*tracer);
    if (want_timing) tracer->attach_host_hook();
  }
  // run_estimated with no drift and the estimator off is exactly
  // core::run_protocol (same seed stream), so one call covers all modes.
  est::EstimatorConfig est_cfg;
  if (margin.has_value()) est_cfg.margin = *margin;
  const est::EstimatedRun est_run =
      est::run_estimated(*kind, cfg, env, drift, want_estimator, est_cfg,
                         /*record_trace=*/true, 50'000'000,
                         recorder.has_value() ? &*recorder : nullptr);
  const core::ProtocolRun& run = est_run.run;
  if (tracer.has_value()) tracer->detach_host_hook();
  if (want_timing) obs::set_phase_timing_enabled(false);
  std::cout << "protocol:   " << protocols::to_string(*kind) << "\n"
            << "model:      " << cfg.params << " k=" << cfg.k << "\n"
            << "input bits: " << cfg.input.size() << "\n"
            << "completed:  " << (run.result.quiescent ? "yes" : "NO") << "\n"
            << "correct:    " << (run.output_correct ? "yes" : "NO") << "\n";
  if (!drift.empty()) {
    std::cout << "drift:      " << drift << "\n";
  }
  if (want_estimator) {
    std::cout << "estimator:  margin " << est_cfg.margin << ", (c1,c2,d) = ("
              << est_run.gauges.c1_hat << ", " << est_run.gauges.c2_hat << ", "
              << est_run.gauges.d_hat << "), " << est_run.gauges.gap_samples << " gap / "
              << est_run.gauges.delay_samples << " delay samples, " << est_run.gauges.resizes
              << " resizes\n";
  }
  double effort = 0;
  if (run.result.last_transmitter_send.has_value() && !cfg.input.empty()) {
    effort = static_cast<double>((*run.result.last_transmitter_send - Time::zero()).ticks()) /
             static_cast<double>(cfg.input.size());
    std::cout << "effort:     " << effort << " ticks/bit\n";
  }
  const core::VerifyResult verdict = core::verify_trace(run.result.trace, cfg.params, cfg.input);
  std::cout << "verifier:   " << (verdict.ok() ? "accepts (in good(A))" : "REJECTS") << '\n';
  if (!verdict.ok()) std::cout << verdict;
  if (want_stats) {
    std::cout << core::compute_trace_stats(run.result.trace) << '\n';
  }
  if (want_timing) {
    std::cout << "phase timing (timer-pair overhead " << overhead_ns
              << " ns, clock: " << to_string(host_clock_source()) << "):\n";
    const std::vector<obs::PhaseTotal> totals = obs::collect_phase_totals();
    obs::print_phase_table(std::cout, totals, overhead_ns);
    obs::print_phase_tree(std::cout, totals, obs::collect_phase_edge_totals());
  }
  if (!metrics_file.empty()) {
    obs::RunMetricsRecord record;
    record.protocol = protocols::to_string(*kind);
    record.c1 = cfg.params.c1.ticks();
    record.c2 = cfg.params.c2.ticks();
    record.d = cfg.params.d.ticks();
    record.k = cfg.k;
    record.input_bits = cfg.input.size();
    record.seed = env.seed;
    record.effort = effort;
    record.end_time = (run.result.end_time - Time::zero()).ticks();
    record.correct = run.output_correct;
    record.quiescent = run.result.quiescent;
    record.metrics = run.result.metrics;
    record.est = est_run.gauges;
    if (!append_metrics_jsonl(metrics_file, {record})) return 1;
    std::cout << "metrics:    appended to " << metrics_file << "\n";
  }
  if (!trace_file.empty()) {
    std::ofstream out;
    if (!open_file(out, trace_file)) return 1;
    ioa::write_trace(out, run.result.trace);
    std::cout << "trace:      written to " << trace_file << " (" << run.result.trace.size()
              << " events)\n";
  }
  if (tracer.has_value()) {
    std::ofstream out;
    if (!open_file(out, trace_out_file)) return 1;
    tracer->write_chrome_json(out);
    const obs::trace::Summary summary = obs::trace::summarize(*tracer);
    std::cout << "trace-out:  written to " << trace_out_file << " (" << summary.model_spans
              << " spans, " << summary.flow_events << " flow events, " << summary.host_spans
              << " host spans, " << summary.dropped << " dropped, delay p50/p95/p99 "
              << summary.delay_p50 << '/' << summary.delay_p95 << '/' << summary.delay_p99
              << " ticks)\n";
  }
  return run.output_correct && verdict.ok() ? 0 : 1;
}

int cmd_verify(int argc, char** argv) {
  if (argc != 7) return usage();
  const auto params = timing_args(argv, 2);
  if (!params.has_value()) return 2;
  std::ifstream in;
  if (!open_file(in, argv[5])) return 1;
  const ioa::TimedTrace trace = ioa::parse_trace(in);
  const auto expected = bits_arg("expected-output", argv[6]);
  if (!expected.has_value()) return 2;
  const core::VerifyResult verdict = core::verify_trace(trace, *params, *expected);
  std::cout << verdict << '\n';
  return verdict.ok() ? 0 : 1;
}

int cmd_explore(int argc, char** argv) {
  if (argc != 6) return usage();
  const auto kind = protocol_arg(argv[2]);
  if (!kind.has_value()) return 2;
  const auto d = number_arg<std::int64_t>("d", argv[3]);
  if (!d.has_value()) return 2;
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 1, *d);
  const auto k = number_arg<std::uint32_t>("k", argv[4]);
  if (!k.has_value()) return 2;
  cfg.k = *k;
  const auto bits = bits_arg("input", argv[5]);
  if (!bits.has_value()) return 2;
  cfg.input = *bits;
  if (*kind == ProtocolKind::Indexed) {
    cfg.k = std::max<std::uint32_t>(
        cfg.k, static_cast<std::uint32_t>(2 * std::max<std::size_t>(1, cfg.input.size())));
  }
  const auto instance = protocols::make_protocol(*kind, cfg);
  ioa::ExplorerConfig config;
  config.d = *d;
  const auto& input = cfg.input;
  const auto prefix = [&input](const ioa::Automaton&, const ioa::Automaton& r) {
    const auto& out = dynamic_cast<const protocols::ReceiverBase&>(r).output();
    return out.size() <= input.size() && std::equal(out.begin(), out.end(), input.begin());
  };
  const auto complete = [&input](const ioa::Automaton&, const ioa::Automaton& r) {
    return dynamic_cast<const protocols::ReceiverBase&>(r).output() == input;
  };
  ioa::Explorer explorer{*instance.transmitter, *instance.receiver, config, prefix, complete};
  const ioa::ExplorerResult result = explorer.run();
  std::cout << "states:      " << result.distinct_states << "\n"
            << "transitions: " << result.transitions << "\n"
            << "terminals:   " << result.terminal_states << "\n"
            << "verdict:     " << (result.verified() ? "VERIFIED over all schedules"
                                                     : "VIOLATION FOUND")
            << '\n';
  if (!result.verified()) {
    if (result.exhausted_caps) {
      std::cout << "(state/branching caps exhausted — result inconclusive)\n";
    }
    if (!result.counterexample.empty()) {
      std::cout << "\ncounterexample:\n";
      ioa::write_trace(std::cout, result.counterexample);
    }
  }
  return result.verified() ? 0 : 1;
}

/// How `--dashboard` resolves against the terminal: live ANSI frames only on
/// a real TTY with NO_COLOR unset; otherwise the one-line fallback, which
/// never emits escape bytes (CI pipes it and greps for exactly that).
enum class ProgressStyle { None, Lines, Frames };

[[nodiscard]] ProgressStyle resolve_progress_style(bool want_dashboard) {
  if (!want_dashboard) return ProgressStyle::None;
  return obs::stream_supports_dashboard(stdout) ? ProgressStyle::Frames : ProgressStyle::Lines;
}

[[nodiscard]] obs::DashboardState campaign_dashboard_state(const sim::CampaignSnapshot& snap) {
  obs::DashboardState s;
  s.mode = obs::DashboardState::Mode::Campaign;
  s.label = "campaign";
  s.elapsed_seconds = snap.elapsed_seconds;
  s.done = snap.jobs_done;
  s.total = snap.jobs_total;
  s.events = snap.events;
  s.effort_jobs = snap.effort_jobs;
  if (snap.effort_jobs > 0) {
    s.effort_mean = snap.effort_sum / static_cast<double>(snap.effort_jobs);
  }
  s.protocols.reserve(snap.protocols.size());
  for (const sim::CampaignProtocolSnapshot& p : snap.protocols) {
    obs::DashboardProtocolRow row;
    row.name = std::string{protocols::to_string(p.protocol)};
    row.done = p.done;
    row.total = p.total;
    row.events = p.events;
    row.effort_jobs = p.effort_jobs;
    if (p.effort_jobs > 0) row.effort_mean = p.effort_sum / static_cast<double>(p.effort_jobs);
    s.protocols.push_back(std::move(row));
  }
  s.delay_buckets = snap.delay_buckets;
  s.delay_count = snap.delay_count;
  return s;
}

[[nodiscard]] obs::DashboardState fuzz_dashboard_state(const sim::FuzzGenerationSnapshot& snap,
                                                       protocols::ProtocolKind protocol) {
  obs::DashboardState s;
  s.mode = obs::DashboardState::Mode::Fuzz;
  s.label = "fuzz " + std::string{protocols::to_string(protocol)};
  s.elapsed_seconds = snap.elapsed_seconds;
  s.done = snap.executed;
  s.total = snap.budget;
  s.generation = snap.generation;
  s.corpus = snap.corpus;
  s.coverage = snap.coverage;
  s.coverage_gain = snap.coverage_gain;
  s.crashes = snap.crashes;
  s.failures = snap.failures;
  return s;
}

int cmd_campaign(int argc, char** argv) {
  std::string metrics_file;
  unsigned threads = 1;
  bool want_dashboard = false;
  bool want_estimator = false;
  std::optional<double> margin_override;
  core::DriftSpec drift;
  if (!parse_flags(argc, argv, 2,
                   {string_flag("--metrics-out", metrics_file),
                    number_flag("--threads", threads, 0, kMaxThreads),
                    switch_flag("--dashboard", want_dashboard),
                    switch_flag("--no-dashboard", want_dashboard, false),
                    estimator_flag(want_estimator, margin_override), drift_flag(drift)})) {
    return 2;
  }
  // Bare --estimator runs the pinned estimator grid (margin 0, its own drift
  // axis — the checked-in estimator_baseline.jsonl); overrides are for
  // ad-hoc sweeps, not the baseline.
  sim::CampaignSpec spec =
      want_estimator ? est::golden_estimator_spec() : sim::golden_campaign_spec();
  if (margin_override.has_value()) spec.estimator.margin = *margin_override;
  if (!drift.empty()) spec.drifts = {drift};
  const sim::Campaign campaign{spec};
  const ProgressStyle style = resolve_progress_style(want_dashboard);
  sim::CampaignProgress progress;
  obs::Dashboard dashboard{std::cout};
  if (style == ProgressStyle::Lines) {
    progress.out = &std::cout;
    progress.interval = std::chrono::milliseconds{500};
  } else if (style == ProgressStyle::Frames) {
    progress.interval = std::chrono::milliseconds{250};
    progress.on_snapshot = [&dashboard](const sim::CampaignSnapshot& snap) {
      dashboard.draw(campaign_dashboard_state(snap));
    };
  }
  const sim::CampaignResult result =
      style == ProgressStyle::None ? campaign.run(threads) : campaign.run(threads, progress);
  dashboard.close();
  if (want_estimator) {
    std::cout << "estimator grid: " << result.jobs.size() << " jobs, " << result.incorrect
              << " incorrect, est penalty mean/max " << result.est_penalty.mean << "/"
              << result.est_penalty.max << ", mean effort " << result.effort.mean
              << " ticks/bit\n";
  } else {
    std::cout << "golden grid: " << result.jobs.size() << " jobs, " << result.incorrect
              << " incorrect, mean effort " << result.effort.mean << " ticks/bit\n";
  }
  if (!metrics_file.empty()) {
    if (!append_metrics_jsonl(metrics_file,
                              sim::campaign_metrics_records(result, spec.input_bits))) {
      return 1;
    }
    std::cout << "metrics:     appended " << result.jobs.size() << " jobs to " << metrics_file
              << "\n";
  }
  return result.all_correct() ? 0 : 1;
}

int cmd_mega(int argc, char** argv) {
  // Defaults ARE the golden megasession cell: `rstp mega --sessions 10000
  // --metrics-out F` reproduces the checked-in baseline bit for bit (modulo
  // the wall-clock events_per_sec field, which the gate treats as aggregate-
  // only). Every flag below is an ad-hoc override for exploration.
  sim::MultiSessionSpec spec = sim::golden_megasession_spec();
  unsigned threads = 1;
  std::string metrics_file;
  const Flag protocol{"--protocol", Flag::Takes::Value, [&spec](auto value) {
                        const auto kind = protocol_arg(*value);
                        if (kind.has_value()) spec.protocol = *kind;
                        return kind.has_value();
                      }};
  if (!parse_flags(
          argc, argv, 2,
          {number_flag("--sessions", spec.sessions, 1), number_flag("--shards", spec.shards, 1),
           number_flag("--threads", threads, 0, kMaxThreads), protocol,
           number_flag("--k", spec.k),
           number_flag("--bits", spec.input_bits, 0, std::numeric_limits<std::uint32_t>::max()),
           number_flag("--seed", spec.base_seed),
           number_flag("--max-events", spec.max_events_per_session, 1),
           string_flag("--metrics-out", metrics_file)})) {
    return 2;
  }
  const sim::MultiSession mega{spec};
  const sim::MultiSessionResult result = mega.run(threads);
  std::cout << "mega: " << result.sessions << " sessions on " << spec.shards << " shards, "
            << result.total_events << " events in " << std::fixed << std::setprecision(2)
            << result.elapsed_seconds << "s (" << std::setprecision(0)
            << result.events_per_sec << " events/sec), mean effort " << std::setprecision(2)
            << result.effort.mean << " ticks/bit, "
            << result.sessions - result.correct_sessions << " incorrect, "
            << result.sessions - result.quiescent_sessions << " non-quiescent\n";
  if (!metrics_file.empty()) {
    if (!append_metrics_jsonl(metrics_file, {sim::multi_session_metrics_record(spec, result)})) {
      return 1;
    }
    std::cout << "metrics: appended 1 fold record to " << metrics_file << "\n";
  }
  return result.all_correct() ? 0 : 1;
}

/// The two-file (diff / gate) form of `rstp report`. Malformed inputs and
/// threshold specs are usage-class errors (exit 2, naming the offending line
/// or token); a tripped gate is its own outcome (exit 3) so CI can tell
/// "regressed" from "broken invocation".
int cmd_report_diff(const std::string& old_path, const std::string& new_path, bool want_json,
                    const std::string& fail_on) {
  std::vector<obs::Threshold> thresholds;
  try {
    if (!fail_on.empty()) thresholds = obs::parse_thresholds(fail_on);
  } catch (const obs::ThresholdParseError& e) {
    std::cerr << "bad --fail-on clause '" << e.token() << "': " << e.what() << "\n";
    return 2;
  }
  const auto read_series = [](const std::string& path,
                              std::vector<obs::RunMetricsRecord>& out) {
    std::ifstream in;
    if (!open_file(in, path)) return 1;
    try {
      out = obs::read_run_metrics_jsonl(in);
    } catch (const obs::JsonParseError& e) {
      std::cerr << "error in '" << path << "': " << e.what() << "\n";
      return 2;
    }
    return 0;
  };
  std::vector<obs::RunMetricsRecord> old_records;
  std::vector<obs::RunMetricsRecord> new_records;
  if (const int rc = read_series(old_path, old_records); rc != 0) return rc;
  if (const int rc = read_series(new_path, new_records); rc != 0) return rc;

  const obs::DiffReport report = obs::diff_metrics(old_records, new_records);
  if (want_json) {
    obs::write_diff_json(std::cout, report);
  } else {
    obs::print_diff_table(std::cout, report);
  }
  if (thresholds.empty()) return 0;
  std::vector<obs::ThresholdViolation> violations;
  try {
    violations = obs::evaluate_thresholds(report, thresholds);
  } catch (const obs::ThresholdParseError& e) {
    std::cerr << "bad --fail-on clause '" << e.token() << "': " << e.what() << "\n";
    return 2;
  }
  if (violations.empty()) {
    std::cerr << "gate: all " << thresholds.size() << " thresholds hold\n";
    return 0;
  }
  for (const obs::ThresholdViolation& v : violations) {
    std::cerr << "gate: " << v.threshold.source << " tripped: " << v.quantity.name << " "
              << (v.quantity.integral ? std::to_string(v.quantity.old_u)
                                      : std::to_string(v.quantity.old_v))
              << " -> "
              << (v.quantity.integral ? std::to_string(v.quantity.new_u)
                                      : std::to_string(v.quantity.new_v))
              << " (+" << v.observed << (v.threshold.relative ? "%" : "") << ")\n";
  }
  return 3;
}

int cmd_report(int argc, char** argv) {
  std::vector<std::string> files;
  bool want_json = false;
  std::string fail_on;
  if (!parse_flags(argc, argv, 2,
                   {switch_flag("--json", want_json), string_flag("--fail-on", fail_on)},
                   &files)) {
    return 2;
  }
  if (files.size() == 2) {
    return cmd_report_diff(files[0], files[1], want_json, fail_on);
  }
  // The single-file form keeps its original contract: render the table,
  // exit 1 on unreadable or malformed input (via main's catch-all).
  if (files.size() != 1 || want_json || !fail_on.empty()) return usage();
  std::ifstream in;
  if (!open_file(in, files[0])) return 1;
  const std::vector<obs::RunMetricsRecord> records = obs::read_run_metrics_jsonl(in);
  obs::print_metrics_table(std::cout, records);
  return 0;
}

/// One JSONL row per fuzz-corpus entry, in the standard run-metrics schema
/// (so `rstp report` and the diff gate work on fuzz output unchanged).
[[nodiscard]] obs::RunMetricsRecord fuzz_metrics_record(const sim::FuzzCase& c,
                                                        const sim::FuzzCaseResult& r) {
  obs::RunMetricsRecord record;
  record.protocol = std::string{protocols::to_string(c.protocol)};
  record.c1 = c.params.c1.ticks();
  record.c2 = c.params.c2.ticks();
  record.d = c.params.d.ticks();
  record.k = c.k;
  record.input_bits = c.input_bits;
  record.seed = c.input_seed;
  record.effort = r.effort;
  record.end_time = r.end_time;
  record.correct = !r.failed && !r.crashed;
  record.quiescent = r.quiescent;
  record.metrics = r.metrics;
  return record;
}

int cmd_fuzz(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto kind = protocol_arg(argv[2]);
  if (!kind.has_value()) return 2;
  sim::FuzzSpec spec;
  spec.protocol = *kind;
  std::string corpus_dir;
  std::string repro_file;
  std::string metrics_file;
  bool want_dashboard = false;
  if (!parse_flags(
          argc, argv, 3,
          {number_flag("--seed", spec.seed), number_flag("--budget", spec.budget, 1),
           number_flag("--jobs", spec.jobs, 0, kMaxThreads), number_flag("--k", spec.k),
           number_flag("--bits", spec.max_input_bits),
           number_flag("--max-events", spec.max_events, 1),
           number_flag("--time-budget-ms", spec.time_budget_ms),
           number_flag("--wait-override", spec.wait_override),
           number_flag("--block-override", spec.block_override),
           switch_flag("--faults", spec.faults_enabled),
           switch_flag("--keep-going", spec.stop_on_failure, false),
           switch_flag("--dashboard", want_dashboard),
           switch_flag("--no-dashboard", want_dashboard, false),
           string_flag("--corpus", corpus_dir), string_flag("--repro-out", repro_file),
           string_flag("--metrics-out", metrics_file)})) {
    return 2;
  }

  if (!corpus_dir.empty()) {
    std::vector<std::filesystem::path> paths;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator{corpus_dir, ec}) {
      if (entry.path().extension() == ".case") paths.push_back(entry.path());
    }
    if (ec) {
      std::cerr << "cannot read corpus dir '" << corpus_dir << "': " << ec.message() << "\n";
      return 2;
    }
    std::sort(paths.begin(), paths.end());
    for (const std::filesystem::path& path : paths) {
      std::ifstream in;
      if (!open_file(in, path)) return 2;
      sim::FuzzCase seed_case = sim::parse_fuzz_case(in);
      seed_case.protocol = spec.protocol;  // the corpus seeds schedules, not protocols
      spec.corpus_seeds.push_back(seed_case);
    }
  }

  const ProgressStyle style = resolve_progress_style(want_dashboard);
  obs::Dashboard dashboard{std::cout};
  if (style == ProgressStyle::Frames) {
    spec.on_generation = [&dashboard, &spec](const sim::FuzzGenerationSnapshot& snap) {
      dashboard.draw(fuzz_dashboard_state(snap, spec.protocol));
    };
  } else if (style == ProgressStyle::Lines) {
    spec.on_generation = [&spec](const sim::FuzzGenerationSnapshot& snap) {
      std::cout << obs::render_line(fuzz_dashboard_state(snap, spec.protocol)) << '\n'
                << std::flush;
    };
  }

  const sim::FuzzResult result = sim::run_fuzz(spec);
  dashboard.close();
  std::cout << "protocol:      " << protocols::to_string(spec.protocol) << "\n"
            << "executed:      " << result.executed << " cases (budget " << spec.budget
            << ", jobs " << spec.jobs << ")\n"
            << "coverage:      " << result.coverage << " fingerprints (hash "
            << result.coverage_hash << ")\n"
            << "corpus:        " << result.corpus.size() << " cases\n"
            << "failures:      " << result.failures.size() << "\n";

  if (!metrics_file.empty()) {
    std::vector<obs::RunMetricsRecord> records;
    records.reserve(result.corpus.size());
    for (std::size_t i = 0; i < result.corpus.size(); ++i) {
      records.push_back(fuzz_metrics_record(result.corpus[i], result.corpus_results[i]));
    }
    if (!append_metrics_jsonl(metrics_file, records)) return 1;
    std::cout << "metrics:       appended " << records.size() << " rows to " << metrics_file
              << "\n";
  }

  if (result.ok()) return 0;
  for (const sim::FuzzFailure& failure : result.failures) {
    std::cout << "\nfailure: " << failure.result.failure << "\n";
  }
  const sim::FuzzFailure& first = result.failures.front();
  if (!repro_file.empty()) {
    std::ofstream out;
    if (!open_file(out, repro_file)) return 1;
    sim::write_fuzz_repro(out, first.minimized, first.result);
    std::cout << "repro:         written to " << repro_file << " (rstp replay " << repro_file
              << ")\n";
  } else {
    std::cout << "\n";  // repro inline: pipe to a file and `rstp replay` it
    sim::write_fuzz_repro(std::cout, first.minimized, first.result);
  }
  return 1;
}

int cmd_adversary(int argc, char** argv) {
  sim::AdversarySpec spec;
  std::string_view grid = "golden";
  std::string repro_file;
  std::string metrics_file;
  if (!parse_flags(argc, argv, 2,
                   {number_flag("--seed", spec.seed), number_flag("--budget", spec.budget, 1),
                    number_flag("--jobs", spec.jobs, 0, kMaxThreads),
                    number_flag("--max-events", spec.max_events, 1),
                    choice_flag("--grid", grid, {"golden", "quick"}),
                    string_flag("--repro-out", repro_file),
                    string_flag("--metrics-out", metrics_file)})) {
    return 2;
  }
  spec.grid = grid == "quick" ? sim::quick_adversary_grid() : sim::golden_adversary_grid();

  spec.on_cell = [](const sim::AdversaryProgress& progress) {
    std::cerr << "adversary: cell " << (progress.cell_index + 1) << "/" << progress.cell_count
              << " done\n";
  };
  const sim::AdversaryResult result = sim::run_adversary_search(spec);

  std::cout << "adversary synthesis: " << result.cells.size() << " cells, budget "
            << spec.budget << "/cell, seed " << spec.seed << ", jobs " << spec.jobs
            << " (result hash " << result.result_hash << ")\n";
  std::cout << std::left << std::setw(8) << "proto" << std::right << std::setw(4) << "c1"
            << std::setw(4) << "c2" << std::setw(4) << "d" << std::setw(4) << "k"
            << std::setw(10) << "bound" << std::setw(10) << "hand" << std::setw(10) << "best"
            << std::setw(11) << "gap_ratio" << "  verdict\n";
  for (const sim::AdversaryCellResult& cell : result.cells) {
    std::cout << std::left << std::setw(8) << protocols::to_string(cell.cell.protocol)
              << std::right << std::setw(4) << cell.cell.params.c1.ticks() << std::setw(4)
              << cell.cell.params.c2.ticks() << std::setw(4) << cell.cell.params.d.ticks()
              << std::setw(4) << cell.cell.k << std::setw(10) << std::fixed
              << std::setprecision(3) << cell.lower_bound << std::setw(10) << cell.hand_effort
              << std::setw(10) << cell.best.effort << std::setw(11) << cell.gap_ratio << "  "
              << (cell.beats_hand() ? "best>=hand" : "BELOW HAND") << "\n";
  }

  if (!metrics_file.empty()) {
    const std::vector<obs::RunMetricsRecord> records =
        sim::adversary_metrics_records(result, spec.seed);
    if (!append_metrics_jsonl(metrics_file, records)) return 1;
    std::cout << "metrics:   appended " << records.size() << " rows to " << metrics_file
              << "\n";
  }

  if (!repro_file.empty()) {
    // The most interesting witness: the cell with the largest empirical gap.
    const auto widest = std::max_element(
        result.cells.begin(), result.cells.end(),
        [](const auto& a, const auto& b) { return a.gap_ratio < b.gap_ratio; });
    std::ofstream out;
    if (!open_file(out, repro_file)) return 1;
    sim::write_adversary_repro(out, sim::make_adversary_repro(*widest, spec.max_events));
    std::cout << "repro:     written to " << repro_file << " (rstp replay " << repro_file
              << ")\n";
  }

  if (!result.all_beat_hand()) {
    std::cerr << "adversary search fell below the hand-coded policy on some cell\n";
    return 1;
  }
  return 0;
}

/// Prints a replay's last line: exit 0 iff every recorded field reproduced.
int report_reproduced(bool reproduced, const std::string& mismatch) {
  if (reproduced) {
    std::cout << "reproduced: yes (all recorded fields match bitwise)\n";
    return 0;
  }
  std::cout << "reproduced: NO — " << mismatch << "\n";
  return 1;
}

/// Replays an rstp-adversary-v1 artifact (cmd_replay dispatches here after
/// sniffing the header line).
int replay_adversary_file(std::ifstream& in) {
  const sim::AdversaryRepro repro = sim::parse_adversary_repro(in);
  const sim::AdversaryReplayOutcome outcome = sim::replay_adversary_repro(repro);
  std::cout << "case:       " << protocols::to_string(repro.cell.protocol) << " "
            << repro.cell.params << " k=" << repro.cell.k << " bits="
            << repro.cell.input_bits << " (adversary genome)\n"
            << "effort:     " << std::fixed << std::setprecision(3) << outcome.eval.effort
            << " (last_send " << outcome.eval.last_send << ", "
            << (outcome.eval.correct ? "correct" : "INCORRECT") << ", "
            << (outcome.eval.quiescent ? "quiescent" : "event-capped") << ")\n";
  return report_reproduced(outcome.reproduced, outcome.mismatch);
}

/// First non-blank, non-comment line of a file (empty if none) — used to
/// sniff which artifact grammar a replay file speaks.
[[nodiscard]] std::string sniff_header_line(const std::string& path) {
  std::ifstream in{path};
  std::string raw;
  while (std::getline(in, raw)) {
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::size_t first = raw.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const std::size_t last = raw.find_last_not_of(" \t\r");
    return raw.substr(first, last - first + 1);
  }
  return {};
}

int cmd_replay(int argc, char** argv) {
  if (argc < 3) return usage();
  std::string trace_out_file;
  const Flag estimator{"--estimator", Flag::Takes::OptionalValue, [](auto) {
                         std::cerr << "--estimator is not supported for replay: artifacts pin"
                                      " the recorded constants\n";
                         return false;
                       }};
  if (!parse_flags(argc, argv, 3, {string_flag("--trace-out", trace_out_file), estimator})) {
    return 2;
  }
  std::ifstream in;
  if (!open_file(in, argv[2])) return 1;
  if (sniff_header_line(argv[2]) == sim::adversary_repro_header()) {
    if (!trace_out_file.empty()) {
      std::cerr << "--trace-out is not supported for adversary artifacts\n";
      return 2;
    }
    return replay_adversary_file(in);
  }
  const sim::FuzzRepro repro = sim::parse_fuzz_repro(in);
  std::optional<obs::trace::Tracer> tracer;
  std::optional<obs::trace::ModelRecorder> recorder;
  if (!trace_out_file.empty()) {
    tracer.emplace();
    recorder.emplace(*tracer);
  }
  const sim::ReplayOutcome outcome =
      sim::replay_fuzz_repro(repro, recorder.has_value() ? &*recorder : nullptr);
  if (tracer.has_value()) {
    std::ofstream trace_out;
    if (!open_file(trace_out, trace_out_file)) return 1;
    tracer->write_chrome_json(trace_out);
    const obs::trace::Summary summary = obs::trace::summarize(*tracer);
    std::cout << "trace-out:  written to " << trace_out_file << " (" << summary.model_spans
              << " spans, " << summary.flow_events << " flow events)\n";
  }
  std::cout << "case:       " << protocols::to_string(repro.fuzz_case.protocol) << " "
            << repro.fuzz_case.params << " k=" << repro.fuzz_case.k << " bits="
            << repro.fuzz_case.input_bits << "\n"
            << "verdict:    "
            << (outcome.result.failed ? "FAILED" : outcome.result.crashed ? "crashed (excused)"
                                                                          : "ok")
            << "\n";
  if (!outcome.result.failure.empty()) {
    std::cout << "detail:     " << outcome.result.failure << "\n";
  }
  return report_reproduced(outcome.reproduced, outcome.mismatch);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "bounds") return cmd_bounds(argc, argv);
    if (command == "run") return cmd_run(argc, argv);
    if (command == "verify") return cmd_verify(argc, argv);
    if (command == "explore") return cmd_explore(argc, argv);
    if (command == "campaign") return cmd_campaign(argc, argv);
    if (command == "mega") return cmd_mega(argc, argv);
    if (command == "report") return cmd_report(argc, argv);
    if (command == "fuzz") return cmd_fuzz(argc, argv);
    if (command == "adversary") return cmd_adversary(argc, argv);
    if (command == "replay") return cmd_replay(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
