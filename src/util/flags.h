// Table-driven command-line flags, shared by the `phonolid` CLI and
// bench_serve.  Each flag is one FlagSpec row (name, value kind, inclusive
// range or choices, help).  parse_flags() checks every value against its
// row while reading the command line, so a malformed or out-of-range value
// is a UsageError naming the flag before any work starts, and the usage
// text is rendered from the same rows.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace phonolid::util {

enum class FlagKind {
  kText,    // any string
  kInt,     // integer in [min, max]
  kNumber,  // decimal number in [min, max]
  kChoice,  // one of the '|'-separated words in FlagSpec::value
};

inline constexpr double kNoMin = -std::numeric_limits<double>::infinity();
inline constexpr double kNoMax = std::numeric_limits<double>::infinity();
/// The `min` of a number that must be strictly positive.
inline constexpr double kPositive = std::numeric_limits<double>::denorm_min();

struct FlagSpec {
  std::string_view name;   // without the leading "--"
  std::string_view value;  // usage placeholder ("N"); the choices for kChoice
  std::string_view help;
  FlagKind kind = FlagKind::kText;
  double min = kNoMin;  // inclusive bounds for kInt and kNumber
  double max = kNoMax;
};

/// A command-line mistake; what() names the flag.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One command line's checked flag values and its positionals.  When a
/// flag repeats, the last value wins.
struct ParsedFlags {
  std::map<std::string, std::string, std::less<>> values;
  std::vector<std::string> positionals;

  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] std::string text(std::string_view name,
                                 std::string_view fallback = {}) const;
  [[nodiscard]] std::int64_t integer(std::string_view name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double number(std::string_view name, double fallback) const;
  /// integer() with an upper bound known only at run time (e.g. the number
  /// of front ends); a larger value on the command line is a UsageError.
  [[nodiscard]] std::int64_t integer_at_most(std::string_view name,
                                             std::int64_t fallback,
                                             std::int64_t max) const;
};

/// Read "--name value" pairs and positionals from `args`, accepting only
/// the flags named in `accepted`, each checked against its `table` row.
/// `owner` ends the unknown-flag message ("... for <owner>").  With
/// `stop_at_positional`, the first positional and everything after it stay
/// unparsed in `positionals` (a wrapped command line).
[[nodiscard]] ParsedFlags parse_flags(
    std::span<const FlagSpec> table, std::span<const std::string_view> accepted,
    std::span<const std::string> args, std::string_view owner,
    bool stop_at_positional = false);

/// One usage entry: `left`, then `text` word-wrapped in the help column.
[[nodiscard]] std::string help_row(std::string_view left,
                                   std::string_view text);

/// Usage text for `table`: "--name VALUE  help; VALUE range" per row.
[[nodiscard]] std::string format_flag_help(std::span<const FlagSpec> table);

}  // namespace phonolid::util
