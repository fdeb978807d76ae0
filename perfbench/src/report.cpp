// Statistics helpers, the build guard, the machine fingerprint and the
// printed result of one rstp_perf invocation.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "perf.h"
#include "rstp/common/check.h"
#include "rstp/common/time.h"

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto first = line.find_first_not_of(' ', colon + 1);
        return first == std::string::npos ? "" : line.substr(first);
      }
    }
  }
  return "unknown";
}

}  // namespace

double median(std::vector<double> values) {
  RSTP_CHECK(!values.empty(), "median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double percentile(std::vector<double> values, double p) {
  RSTP_CHECK(!values.empty(), "percentile of an empty sample");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

std::string fnv_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double peak_rss_mb() {
  // VmHWM is this process image's own high-water mark; getrusage's
  // ru_maxrss would also carry the parent's peak across exec.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB
}

std::string build_refusal() {
  // GCC defines no macro for UBSan, so the build's own flags are checked too.
  bool sanitized = std::string_view(RSTP_PERF_CXX_FLAGS).find("-fsanitize") != std::string_view::npos;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  sanitized = true;
#endif
#endif
  if (sanitized) return "a sanitizer";
#if defined(__OPTIMIZE__)
  return "";
#else
  return "an unoptimized";
#endif
}

void print_report(const Options& options, const Report& report) {
  for (const std::string& note : report.notes) std::cout << note << "\n";

  std::ostringstream fp;
  fp << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"online_cpus\": "
     << sysconf(_SC_NPROCESSORS_ONLN) << ", \"cpu_model\": \"" << json_escape(cpu_model())
     << "\", \"compiler\": \"" << json_escape(RSTP_PERF_COMPILER) << "\", \"build_type\": \""
     << json_escape(RSTP_PERF_BUILD_TYPE) << "\", \"host_clock\": \""
     << rstp::to_string(rstp::host_clock_source()) << "\"}";

  std::ostringstream out;
  out << "{\"workload\": \"" << workload_name(options.workload) << "\", \"seed\": "
      << options.seed << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
      << ", \"digest\": \"" << report.digest << "\", \"fingerprint\": " << fp.str()
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << json_number(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  std::cout << "perf-result " << out.str() << std::endl;
}

}  // namespace perfbench
