// The rstp benchmark: shared types of the entry point (main.cpp), the workloads
// and their output checks (workloads.cpp), the traced layer run (traced.cpp)
// and the report printer (report.cpp).
//
// Every workload hands one fixed batch of work to one public engine call
// (sim::MultiSession::run, sim::Campaign::run, sim::run_adversary_search),
// repeats that identical call for the measurement window, and reports
// medians over the repetitions. The library only ever sees the generated
// specs; the seed that generates them is a benchmark argument.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

enum class WorkloadKind { AlphaStream, AlphaChurn, BlockGrid, AdversarySearch };

struct Options {
  WorkloadKind workload = WorkloadKind::AlphaStream;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  /// Multiplies every batch size (sessions, seeds per cell, search budget);
  /// the benchmark's own tests run at a tiny scale. Digests are recorded at 1.
  double scale = 1;
  /// Test hook: "output" corrupts one checked unit's expected output, so the
  /// checks must count it as failed. Empty in every measured run.
  std::string tamper;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one invocation measured and checked.
struct Report {
  std::uint64_t attempted = 0;  ///< units (sessions, jobs, cells) over all repetitions
  std::uint64_t failed = 0;
  std::string digest;           ///< hex digest of the batch's deterministic fold
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines printed before the result
};

/// Samples of the untraced engine calls, one per repetition.
struct Timing {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;  ///< process CPU time, to tell descheduling from slow running
  std::uint64_t units = 0;   ///< work items per batch (sessions, jobs, evaluations)
  std::uint64_t bits = 0;    ///< correctly delivered message bits per batch
  std::uint64_t events = 0;  ///< simulator events per batch
};

/// One workload: a fixed batch, its engine call, and its checks.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Runs the batch once through the engine, timed. The first call becomes
  /// the reference result; later calls must reproduce it bit for bit.
  /// Returns the wall time in seconds.
  virtual double run_batch() = 0;
  /// Checks every unit of the latest batch; returns the number that failed.
  virtual std::uint64_t check_units() = 0;
  /// Units one batch attempts.
  [[nodiscard]] virtual std::uint64_t units_per_batch() const = 0;
  /// The sampled differential check against the reference execution path;
  /// returns false if any sampled unit disagrees.
  virtual bool differential(const Options& options, Report& report) = 0;
  /// Hex digest of the reference batch's deterministic fold.
  [[nodiscard]] virtual std::string digest() const = 0;
  /// Per-batch work counts used to turn wall time into throughput.
  virtual void fill_counts(Timing& timing) = 0;
  /// The separate traced run: per-layer metrics plus reconciliation against
  /// the untraced medians in `timing`.
  virtual void trace(const Options& options, const Timing& timing, Report& report) = 0;

 protected:
  Workload() = default;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& options);
[[nodiscard]] bool parse_workload(const std::string& name, WorkloadKind& out);
[[nodiscard]] const char* workload_name(WorkloadKind kind);

// ---- helpers shared by the workload and trace code ------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile (p in [0, 100]) of a non-empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
/// FNV-1a over a byte string, as 16 hex digits.
[[nodiscard]] std::string fnv_hex(const std::string& bytes);
/// Peak resident set size of this process so far, in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

/// Prints the notes, the fingerprint line and the result line.
void print_report(const Options& options, const Report& report);
/// Non-empty when this translation unit was built without optimization or
/// with a sanitizer; the benchmark refuses to record from such a build.
[[nodiscard]] std::string build_refusal();

}  // namespace perfbench
