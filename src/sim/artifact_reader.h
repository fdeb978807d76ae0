// The line reader behind the repo's text artifacts (`rstp-fuzz-case-v1`,
// `rstp-fuzz-repro-v1`, `rstp-adversary-v1`): a header line, then one
// `key values...` record per line, closed by `end`. '#' starts a comment;
// blank lines are skipped. Every rejection is a ModelError
// "malformed <format> file: <what> in line '<line>'" naming the bad line.
// Internal to the library; each format keeps its own writer and key table.
#pragma once

#include <cstdint>
#include <istream>
#include <sstream>
#include <string>
#include <string_view>

#include "rstp/common/check.h"
#include "rstp/core/params.h"
#include "rstp/protocols/factory.h"

namespace rstp::sim::detail {

class ArtifactReader {
 public:
  /// `format` names the artifact in every error ("fuzz", "adversary").
  ArtifactReader(std::istream& is, std::string_view format) : is_(is), format_(format) {}

  /// Requires the first non-blank line to be `header`.
  void expect_header(std::string_view header) {
    if (!next_line()) malformed("empty document");
    if (line_ != header) malformed("expected header");
  }

  /// Advances to the next non-blank line and reads its key; false at the
  /// end of input (line() is then empty).
  [[nodiscard]] bool next_line() {
    std::string raw;
    while (std::getline(is_, raw)) {
      line_ = clean_line(raw);
      if (line_.empty()) continue;
      tokens_.clear();
      tokens_.str(line_);
      tokens_ >> key_;
      return true;
    }
    line_.clear();
    return false;
  }

  [[nodiscard]] const std::string& line() const { return line_; }
  [[nodiscard]] const std::string& key() const { return key_; }

  /// The current line's next value; rejects the line if it is missing or
  /// does not parse as T.
  template <typename T>
  [[nodiscard]] T read(std::string_view missing = "missing or bad value") {
    T value{};
    if (!(tokens_ >> value)) malformed(missing);
    return value;
  }

  [[nodiscard]] protocols::ProtocolKind read_protocol() {
    const auto kind = protocols::protocol_from_string(read<std::string>("missing protocol name"));
    if (!kind.has_value()) malformed("unknown protocol");
    return *kind;
  }

  [[nodiscard]] core::TimingParams read_params() {
    const auto c1 = read<std::int64_t>();
    const auto c2 = read<std::int64_t>();
    const auto d = read<std::int64_t>();
    if (c1 < 1 || c2 < c1 || d < c2) malformed("params must satisfy 0 < c1 <= c2 <= d");
    return core::TimingParams::make(c1, c2, d);
  }

  /// Throws the format's ModelError, quoting the current line if any.
  [[noreturn]] void malformed(std::string_view what) const {
    std::ostringstream os;
    os << "malformed " << format_ << " file: " << what;
    if (!line_.empty()) os << " in line '" << line_ << "'";
    throw ModelError(os.str());
  }

 private:
  /// Strips a trailing comment and surrounding whitespace; empty = skip.
  [[nodiscard]] static std::string clean_line(const std::string& raw) {
    std::string line = raw;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) return {};
    const std::size_t last = line.find_last_not_of(" \t\r");
    return line.substr(first, last - first + 1);
  }

  std::istream& is_;
  std::string_view format_;
  std::string line_;
  std::string key_;
  std::istringstream tokens_;
};

}  // namespace rstp::sim::detail
