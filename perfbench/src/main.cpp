// rstp_perf — runs one benchmark workload and prints what it measured.
//
//   rstp_perf --workload NAME --seed N --seconds S --trace 0|1
//             [--scale X] [--setup-only] [--tamper output]
//
// --setup-only builds the workload's engine, prints "ready" and exits; the
// Python wrapper (perfbench/run.py) times that from process start to report
// setup_s. Otherwise the engine call is repeated for S seconds after one
// warm-up batch, every unit of every batch is checked, a sampled
// differential check runs, and with --trace 1 a separate traced run measures
// the layers. Exit codes: 0 measured, 2 bad arguments, 3 refused build,
// 4 engine error.
#include <time.h>

#include <chrono>
#include <exception>
#include <iostream>
#include <string>

#include "perf.h"
#include "rstp/common/time.h"

namespace {

using perfbench::Options;

double cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

bool parse_args(int argc, char** argv, Options& options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    std::string v;
    try {
      if (arg == "--workload") {
        if (!value(v) || !perfbench::parse_workload(v, options.workload)) return false;
        have_workload = true;
      } else if (arg == "--seed") {
        if (!value(v)) return false;
        options.seed = std::stoull(v);
      } else if (arg == "--seconds") {
        if (!value(v)) return false;
        options.seconds = std::stod(v);
        if (!(options.seconds > 0)) return false;
      } else if (arg == "--trace") {
        if (!value(v) || (v != "0" && v != "1")) return false;
        options.trace = v == "1";
      } else if (arg == "--scale") {
        if (!value(v)) return false;
        options.scale = std::stod(v);
        if (!(options.scale > 0 && options.scale <= 1)) return false;
      } else if (arg == "--setup-only") {
        options.setup_only = true;
      } else if (arg == "--tamper") {
        if (!value(v) || v != "output") return false;
        options.tamper = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    std::cerr << "usage: rstp_perf --workload alpha_stream|alpha_churn|block_grid|"
                 "adversary_search --seed N --seconds S --trace 0|1 [--scale X] "
                 "[--setup-only] [--tamper output]\n";
    return 2;
  }
  if (const std::string refusal = perfbench::build_refusal(); !refusal.empty()) {
    std::cerr << "rstp_perf: refusing to record from " << refusal << " build\n";
    return 3;
  }
  try {
    rstp::calibrate_host_clock();
    std::unique_ptr<perfbench::Workload> workload = perfbench::make_workload(options);
    if (options.setup_only) {
      std::cout << "ready" << std::endl;
      return 0;
    }

    perfbench::Report report;
    perfbench::Timing timing;
    // Warm-up batch: fills the codec's interned tables and the allocator's
    // free lists, and becomes the reference every timed batch must equal.
    workload->run_batch();
    report.attempted += workload->units_per_batch();
    report.failed += workload->check_units();
    const auto window = std::chrono::duration<double>(options.seconds);
    const auto start = std::chrono::steady_clock::now();
    while (timing.wall_s.size() < 3 || std::chrono::steady_clock::now() - start < window) {
      const double cpu0 = cpu_seconds();
      timing.wall_s.push_back(workload->run_batch());
      timing.cpu_s.push_back(cpu_seconds() - cpu0);
      report.attempted += workload->units_per_batch();
      report.failed += workload->check_units();
    }
    // The engine runs' own peak, before the checks below add theirs.
    const double engine_peak_rss_mb = perfbench::peak_rss_mb();
    if (!workload->differential(options, report)) {
      // A failed differential check discredits the whole run.
      report.failed = report.attempted;
    }
    report.digest = workload->digest();
    std::string batches = "batches (wall/cpu s):";
    for (std::size_t i = 0; i < timing.wall_s.size(); ++i) {
      batches += " " + std::to_string(timing.wall_s[i]) + "/" + std::to_string(timing.cpu_s[i]);
    }
    report.notes.push_back(batches);
    workload->fill_counts(timing);

    if (options.trace) {
      workload->trace(options, timing, report);
    } else {
      const double wall = perfbench::median(timing.wall_s);
      report.metrics.push_back(
          {"ns_per_bit", wall * 1e9 / static_cast<double>(timing.bits), "ns"});
      report.metrics.push_back(
          {"events_per_sec", static_cast<double>(timing.events) / wall, "1/s"});
      report.metrics.push_back(
          {"units_per_sec", static_cast<double>(timing.units) / wall, "1/s"});
      report.metrics.push_back({"peak_rss_mb", engine_peak_rss_mb, "MB"});
    }
    perfbench::print_report(options, report);
  } catch (const std::exception& e) {
    std::cerr << "rstp_perf: " << e.what() << "\n";
    return 4;
  }
  return 0;
}
