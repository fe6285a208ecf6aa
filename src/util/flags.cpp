#include "util/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace phonolid::util {

namespace {

/// Strict parse: the whole text must be the value ("3x" and "" are not).
template <typename T>
bool parse_all(std::string_view text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && ptr == end && !text.empty();
}

std::string bound_text(const FlagSpec& spec, double v) {
  if (spec.kind == FlagKind::kInt) return std::to_string(std::llround(v));
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// "in [0, 65535]", ">= 1", "> 0", or "" when unbounded.
std::string range_text(const FlagSpec& spec) {
  const bool has_min = spec.min > kNoMin;
  const bool has_max = spec.max < kNoMax;
  if (spec.min == kPositive) return "> 0";
  if (has_min && has_max) {
    return "in [" + bound_text(spec, spec.min) + ", " +
           bound_text(spec, spec.max) + "]";
  }
  if (has_min) return ">= " + bound_text(spec, spec.min);
  return has_max ? "<= " + bound_text(spec, spec.max) : "";
}

void check_value(const FlagSpec& spec, const std::string& text) {
  const std::string flag = "flag --" + std::string(spec.name);
  double value = 0.0;
  std::int64_t integer = 0;
  switch (spec.kind) {
    case FlagKind::kText:
      return;
    case FlagKind::kChoice:
      if (text.find('|') == std::string::npos &&
          ("|" + std::string(spec.value) + "|").find("|" + text + "|") !=
              std::string::npos) {
        return;
      }
      throw UsageError(flag + " expects " + std::string(spec.value) +
                       ", got '" + text + "'");
    case FlagKind::kInt:
      if (!parse_all(text, integer)) {
        throw UsageError(flag + " expects an integer, got '" + text + "'");
      }
      value = static_cast<double>(integer);
      break;
    case FlagKind::kNumber:
      if (!parse_all(text, value)) {
        throw UsageError(flag + " expects a number, got '" + text + "'");
      }
      break;
  }
  if (!(value >= spec.min && value <= spec.max)) {  // NaN is out of range
    throw UsageError(flag + " expects " + std::string(spec.value) + " " +
                     range_text(spec) + ", got '" + text + "'");
  }
}

template <typename T>
T parsed_value(const ParsedFlags& flags, std::string_view name, T fallback) {
  if (const auto it = flags.values.find(name); it != flags.values.end()) {
    parse_all(it->second, fallback);  // checked when parsed
  }
  return fallback;
}

}  // namespace

bool ParsedFlags::has(std::string_view name) const {
  return values.find(name) != values.end();
}

std::string ParsedFlags::text(std::string_view name,
                              std::string_view fallback) const {
  const auto it = values.find(name);
  return it == values.end() ? std::string(fallback) : it->second;
}

std::int64_t ParsedFlags::integer(std::string_view name,
                                  std::int64_t fallback) const {
  return parsed_value(*this, name, fallback);
}

double ParsedFlags::number(std::string_view name, double fallback) const {
  return parsed_value(*this, name, fallback);
}

std::int64_t ParsedFlags::integer_at_most(std::string_view name,
                                          std::int64_t fallback,
                                          std::int64_t max) const {
  const std::int64_t value = integer(name, fallback);
  if (has(name) && value > max) {
    throw UsageError("flag --" + std::string(name) + " expects at most " +
                     std::to_string(max) + ", got '" + text(name) + "'");
  }
  return value;
}

ParsedFlags parse_flags(std::span<const FlagSpec> table,
                        std::span<const std::string_view> accepted,
                        std::span<const std::string> args,
                        std::string_view owner, bool stop_at_positional) {
  ParsedFlags parsed;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& token = args[i];
    if (token.rfind("--", 0) != 0) {
      if (stop_at_positional) {
        parsed.positionals.assign(args.begin() + static_cast<long>(i),
                                  args.end());
        break;
      }
      parsed.positionals.push_back(token);
      continue;
    }
    const std::string_view name = std::string_view(token).substr(2);
    const auto spec =
        std::find_if(table.begin(), table.end(),
                     [&](const FlagSpec& s) { return s.name == name; });
    if (spec == table.end() ||
        std::find(accepted.begin(), accepted.end(), name) == accepted.end()) {
      throw UsageError("unknown flag " + token + " for " + std::string(owner));
    }
    if (i + 1 >= args.size()) {
      throw UsageError("flag " + token + " expects a value");
    }
    check_value(*spec, args[++i]);
    parsed.values[std::string(name)] = args[i];
  }
  return parsed;
}

std::string help_row(std::string_view left, std::string_view text) {
  constexpr std::size_t kColumn = 30;
  constexpr std::size_t kWidth = 79;
  std::string out(left);
  std::size_t column = out.size();
  if (column >= kColumn) {
    out += "\n";
    column = 0;
  }
  for (std::size_t start = 0; start < text.size();) {
    std::size_t end = text.find(' ', start);
    if (end == std::string_view::npos) end = text.size();
    const std::size_t gap = column < kColumn ? kColumn - column : 1;
    if (column > kColumn && column + gap + (end - start) > kWidth) {
      out += "\n";
      column = 0;
      continue;
    }
    out.append(gap, ' ');
    out += text.substr(start, end - start);
    column += gap + (end - start);
    start = end + 1;
  }
  return out + "\n";
}

std::string format_flag_help(std::span<const FlagSpec> table) {
  std::string out;
  for (const FlagSpec& spec : table) {
    std::string help(spec.help);
    if (const std::string range = range_text(spec); !range.empty()) {
      help += "; " + std::string(spec.value) + " " + range;
    }
    out += help_row("  --" + std::string(spec.name) + " " +
                        std::string(spec.value),
                    help);
  }
  return out;
}

}  // namespace phonolid::util
