#include "obs/report_diff.h"

#include <array>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

namespace phonolid::obs {

namespace {

std::map<std::string, double> span_means(const Json& report) {
  std::map<std::string, double> out;
  const Json* spans = report.find("spans");
  if (spans == nullptr || !spans->is_array()) return out;
  for (const Json& s : spans->as_array()) {
    const Json* path = s.find("path");
    const Json* mean = s.find("mean_s");
    if (path != nullptr && path->is_string() && mean != nullptr &&
        mean->is_number()) {
      out[path->as_string()] = mean->as_double();
    }
  }
  return out;
}

std::map<std::string, double> counter_values(const Json& report) {
  std::map<std::string, double> out;
  const Json* metrics = report.find("metrics");
  const Json* counters =
      metrics == nullptr ? nullptr : metrics->find("counters");
  if (counters == nullptr || !counters->is_object()) return out;
  for (const auto& [name, v] : counters->as_object()) {
    if (v.is_number()) out[name] = v.as_double();
  }
  return out;
}

/// Flatten every numeric leaf under "results" into "results/a/b"-style keys
/// (array elements indexed numerically), so reports from any command
/// compare structurally.
void collect_numeric_leaves(const Json& node, const std::string& prefix,
                            std::map<std::string, double>& out) {
  if (node.is_object()) {
    for (const auto& [key, value] : node.as_object()) {
      collect_numeric_leaves(value, prefix + "/" + key, out);
    }
  } else if (node.is_array()) {
    const auto& arr = node.as_array();
    for (std::size_t i = 0; i < arr.size(); ++i) {
      collect_numeric_leaves(arr[i], prefix + "/" + std::to_string(i), out);
    }
  } else if (node.is_number()) {
    out[prefix] = node.as_double();
  }
}

/// Scalar + per-language/per-round "quality" leaves.  The bulky subtrees
/// (DET staircase, histograms, confusion counts) are deliberately not
/// diffed — they change shape freely and gating happens on the derived
/// scalars instead.
std::map<std::string, double> quality_leaves(const Json& report) {
  std::map<std::string, double> out;
  const Json* quality = report.find("quality");
  if (quality == nullptr || !quality->is_object()) return out;
  for (const auto& [key, value] : quality->as_object()) {
    if (key == "det" || key == "histogram" || key == "confusion") continue;
    collect_numeric_leaves(value, "quality/" + key, out);
  }
  return out;
}

std::map<std::string, double> section_leaves(const Json& report,
                                             const std::string& section) {
  std::map<std::string, double> out;
  const Json* node = report.find(section);
  if (node != nullptr) collect_numeric_leaves(*node, section, out);
  return out;
}

const char* energy_source(const Json& report) {
  const Json* energy = report.find("energy");
  const Json* source = energy == nullptr ? nullptr : energy->find("source");
  return source != nullptr && source->is_string() ? source->as_string().c_str()
                                                  : nullptr;
}

/// Flatten the "profile" section's *share* leaves, keyed by function name /
/// span path rather than array index so the comparison is stable when the
/// top-N ordering shifts between runs.  Raw sample counts are machine- and
/// duration-dependent, so only the section scalars that are meaningful to
/// compare (hz, symbolized_share) and the 0..1 share leaves are emitted.
std::map<std::string, double> profile_leaves(const Json& report) {
  std::map<std::string, double> out;
  const Json* profile = report.find("profile");
  if (profile == nullptr || !profile->is_object()) return out;
  for (const char* key : {"hz", "symbolized_share"}) {
    if (const Json* v = profile->find(key); v != nullptr && v->is_number()) {
      out[std::string("profile/") + key] = v->as_double();
    }
  }
  if (const Json* functions = profile->find("functions");
      functions != nullptr && functions->is_array()) {
    for (const Json& fn : functions->as_array()) {
      const Json* name = fn.find("name");
      if (name == nullptr || !name->is_string()) continue;
      const std::string prefix = "profile/functions/" + name->as_string();
      for (const char* key : {"self_share", "total_share"}) {
        if (const Json* v = fn.find(key); v != nullptr && v->is_number()) {
          out[prefix + "/" + key] = v->as_double();
        }
      }
    }
  }
  if (const Json* spans = profile->find("spans");
      spans != nullptr && spans->is_array()) {
    for (const Json& span : spans->as_array()) {
      const Json* path = span.find("path");
      const Json* share = span.find("share");
      if (path != nullptr && path->is_string() && share != nullptr &&
          share->is_number()) {
        out["profile/spans/" + path->as_string() + "/share"] =
            share->as_double();
      }
    }
  }
  return out;
}

/// A numeric leaf fetched by path, or 0 when absent/non-numeric.
double numeric_at(const Json& report,
                  std::initializer_list<const char*> path) {
  const Json* node = &report;
  for (const char* key : path) {
    node = node->is_object() ? node->find(key) : nullptr;
    if (node == nullptr) return 0.0;
  }
  return node->is_number() ? node->as_double() : 0.0;
}

/// Nonzero ring-drop counts mean the trace/profile under comparison is
/// incomplete; say so loudly instead of letting a truncated run pass a gate.
void note_drops(const Json& report, const char* side,
                ReportDiffResult& result) {
  const auto note = [&](double dropped, const char* what) {
    if (dropped <= 0) return;
    result.notes.push_back("WARNING: " + std::string(side) + " dropped " +
                           std::to_string(static_cast<long long>(dropped)) +
                           what);
  };
  note(numeric_at(report, {"resource", "flight_recorder", "dropped_events"}),
       " flight-recorder events — its trace is truncated");
  note(numeric_at(report, {"profile", "dropped"}),
       " profiler samples — its profile is incomplete");
}

/// Forward compatibility: a newer binary may emit top-level sections this
/// tool has never heard of.  They must surface as notes and be skipped, not
/// rejected — otherwise every schema extension would break every committed
/// baseline at once.
void note_unknown_sections(const Json& report, const char* side,
                           ReportDiffResult& result) {
  static const std::set<std::string> kKnownSections = {
      "schema_version", "generated_at", "meta",      "metrics",
      "spans",          "resource",     "energy",    "hw",
      "profile",        "results",      "quality",   "streaming",
      "serve",          "experiment",   "dba",       "cache"};
  if (!report.is_object()) return;
  for (const auto& [key, value] : report.as_object()) {
    (void)value;
    if (kKnownSections.find(key) == kKnownSections.end()) {
      result.notes.push_back("unknown section \"" + key + "\" in " + side +
                             " — skipped (not compared, not gated)");
    }
  }
}

/// Whether both reports' joules come from one energy source: RAPL joules
/// and software-model joules are not comparable, so a differing source is
/// a note and leaves the joule leaves ungated.
bool same_energy_source(const Json& baseline, const Json& current,
                        ReportDiffResult& result) {
  const char* base_source = energy_source(baseline);
  const char* cur_source = energy_source(current);
  if (base_source == nullptr || cur_source == nullptr) return false;
  if (std::string_view(base_source) == cur_source) return true;
  result.notes.push_back(std::string("energy source differs (baseline ") +
                         base_source + ", current " + cur_source +
                         ") — joule leaves not gated");
  return false;
}

/// The report sections compared, in table order: `name`'s numeric leaves
/// as they are, or those `leaves` extracts.  Unchanged rows of the
/// `elide_unchanged` kinds are the bulk of a same-machine diff, so the
/// printed table hides them.
struct Section {
  std::string_view kind;
  const char* name;
  std::map<std::string, double> (*leaves)(const Json& report);
  bool elide_unchanged;
};

const Section kSections[] = {
    {"span", nullptr, span_means, false},
    {"counter", nullptr, counter_values, true},
    {"result", "results", nullptr, false},
    {"quality", nullptr, quality_leaves, false},
    {"resource", "resource", nullptr, true},
    {"energy", "energy", nullptr, false},
    {"hw", "hw", nullptr, true},
    {"profile", nullptr, profile_leaves, true},
    {"serve", "serve", nullptr, true},
};

enum class Worse { kRise, kDrop };
enum class Budget { kAbsolute, kPercent };  // leaf units, or % of baseline

/// One gate.  A row is gated by the first gate whose kinds and leaf cover
/// it and whose threshold (or, while that is unset, its fallback) is >= 0.
/// It violates when its regression, a rise or a drop per `worse`, exceeds
/// the threshold in `budget` units and also exceeds `slack` in leaf units.
/// Percent budgets skip leaves whose baseline is not positive, and `floor`
/// skips leaves whose baseline is below that option.
struct Gate {
  std::string_view flag;  // the CLI flag, and the gated row's gate name
  double ReportDiffOptions::*threshold;
  std::array<std::string_view, 2> kinds;
  bool (*leaf)(std::string_view key);
  Worse worse;
  Budget budget;
  std::string_view help;
  double slack = 0.0;
  double ReportDiffOptions::*fallback = nullptr;
  double ReportDiffOptions::*floor = nullptr;
};

using O = ReportDiffOptions;
using enum Worse;
using enum Budget;
constexpr std::array<std::string_view, 2> kAccuracy = {"result", "quality"};

const Gate kGates[] = {
    {"max-regress", &O::max_regress_pct, {"span"},
     [](std::string_view) { return true; }, kRise, kPercent,
     "fail when a span mean grows by more than pct percent", 0.0, nullptr,
     &O::min_span_s},
    {"max-eer-delta", &O::max_eer_delta, kAccuracy,
     [](std::string_view k) { return k.ends_with("/eer"); }, kRise, kAbsolute,
     "fail when an eer leaf under results or quality rises by more than x "
     "(a fraction: 0.02 = 2 points)"},
    {"max-cavg-delta", &O::max_cavg_delta, kAccuracy,
     [](std::string_view k) { return k.ends_with("/cavg"); }, kRise, kAbsolute,
     "the same for cavg leaves (default: the --max-eer-delta budget)", 0.0,
     &O::max_eer_delta},
    {"max-cllr-delta", &O::max_cllr_delta, kAccuracy,
     [](std::string_view k) {
       return k.ends_with("/cllr") || k.ends_with("/min_cllr");
     },
     kRise, kAbsolute, "the same for cllr and min_cllr leaves"},
    {"max-adoption-precision-drop", &O::max_adoption_precision_drop, kAccuracy,
     [](std::string_view k) {
       return k.ends_with("/precision") && k.find("/adoption") != k.npos;
     },
     kDrop, kAbsolute,
     "fail when a DBA adoption precision leaf drops by more than x"},
    // Joules of different energy sources are never compared (diff_reports).
    {"max-energy-delta-pct", &O::max_energy_delta_pct, {"energy"},
     [](std::string_view k) {
       return k == "energy/total_joules" ||
              k == "energy/joules_per_utterance" ||
              k == "energy/joules_per_test_utterance";
     },
     kRise, kPercent,
     "fail when total or per-utterance joules grow by more than pct percent "
     "(reports of one energy source only)"},
    {"max-self-share-delta", &O::max_self_share_delta, {"profile"},
     [](std::string_view k) {
       return k.starts_with("profile/functions/") && k.ends_with("/self_share");
     },
     kRise, kAbsolute,
     "fail when a function's profile self-time share (0..1) rises by more "
     "than x"},
    {"max-serve-p99-regress", &O::max_serve_p99_regress_pct, {"serve"},
     [](std::string_view k) { return k == "serve/latency_ms/p99"; }, kRise,
     kPercent,
     "fail when bench_serve's latency p99 grows by more than pct percent"},
    {"max-serve-throughput-drop", &O::max_serve_throughput_drop_pct, {"serve"},
     [](std::string_view k) { return k == "serve/throughput_rps"; }, kDrop,
     kPercent,
     "fail when bench_serve's throughput drops by more than pct percent"},
    // Phase percentiles are edges of 0.1 ms buckets: a one-bucket wobble
    // is a huge relative change on a fast phase, hence the 1 ms slack.
    {"max-phase-p99-regress", &O::max_phase_p99_regress_pct, {"serve"},
     [](std::string_view k) {
       return k.starts_with("serve/phases/") &&
              (k.ends_with("/p99") || k.ends_with("/p999"));
     },
     kRise, kPercent,
     "fail when a serve phase's p99 or p999 grows by more than pct percent "
     "and by more than 1 ms",
     1.0},
};

void apply_gates(ReportDiffRow& row, const ReportDiffOptions& options) {
  for (const Gate& gate : kGates) {
    if (row.kind != gate.kinds[0] && row.kind != gate.kinds[1]) continue;
    if (!gate.leaf(row.key)) continue;
    double threshold = options.*gate.threshold;
    if (!(threshold >= 0.0) && gate.fallback != nullptr) {
      threshold = options.*gate.fallback;
    }
    if (!(threshold >= 0.0)) continue;
    if (gate.floor != nullptr && !(row.base >= options.*gate.floor)) continue;
    const bool percent = gate.budget == kPercent;
    if (percent && !(row.base > 0.0)) continue;
    const double regress =
        gate.worse == kRise ? row.cur - row.base : row.base - row.cur;
    const double excess = percent ? 100.0 * regress / row.base : regress;
    row.gated = true;
    row.gate = gate.flag;
    row.threshold = threshold;
    row.violation = excess > threshold && regress > gate.slack;
    return;
  }
}

bool elides_unchanged(const std::string& kind) {
  for (const Section& section : kSections) {
    if (section.kind == kind) return section.elide_unchanged;
  }
  return false;
}

}  // namespace

std::vector<ReportDiffFlag> report_diff_flags() {
  std::vector<ReportDiffFlag> flags;
  for (const Gate& gate : kGates) {
    flags.push_back({gate.flag, gate.budget == kPercent ? "pct" : "x",
                     gate.threshold, gate.help});
  }
  flags.push_back({"min-span-s", "s", &O::min_span_s,
                   "--max-regress skips spans whose baseline mean is below s "
                   "seconds, which is timer noise (default 0.01)"});
  return flags;
}

ReportDiffResult diff_reports(const Json& baseline, const Json& current,
                              const ReportDiffOptions& options) {
  ReportDiffResult result;

  const Json* bs = baseline.find("schema_version");
  const Json* cs = current.find("schema_version");
  const std::int64_t bv = bs != nullptr && bs->is_int() ? bs->as_int() : -1;
  const std::int64_t cv = cs != nullptr && cs->is_int() ? cs->as_int() : -1;
  if (bv != cv || bv < 0) {
    result.notes.push_back("schema_version mismatch (baseline " +
                           std::to_string(bv) + ", current " +
                           std::to_string(cv) + ")");
    result.violated = true;
  }

  // Keys on both sides become rows; keys on one side only become notes.
  for (const Section& section : kSections) {
    const std::string kind(section.kind);
    const bool gateable =
        kind != "energy" || same_energy_source(baseline, current, result);
    const auto leaves = [&](const Json& report) {
      return section.leaves != nullptr ? section.leaves(report)
                                       : section_leaves(report, section.name);
    };
    const std::map<std::string, double> base = leaves(baseline);
    const std::map<std::string, double> cur = leaves(current);
    for (const auto& [key, b] : base) {
      const auto it = cur.find(key);
      if (it == cur.end()) {
        result.notes.push_back(kind + " only in baseline: " + key);
        continue;
      }
      ReportDiffRow row;
      row.kind = kind;
      row.key = key;
      row.base = b;
      row.cur = it->second;
      if (gateable) apply_gates(row, options);
      result.rows.push_back(std::move(row));
    }
    for (const auto& [key, c] : cur) {
      if (!base.contains(key)) {
        result.notes.push_back(kind + " only in current: " + key);
      }
    }
  }

  note_unknown_sections(baseline, "baseline", result);
  note_unknown_sections(current, "current", result);
  note_drops(baseline, "baseline", result);
  note_drops(current, "current", result);

  for (const ReportDiffRow& row : result.rows) {
    if (row.violation) result.violated = true;
  }
  return result;
}

std::string ReportDiffResult::format() const {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-8s %-48s %14s %14s %12s\n", "kind",
                "key", "baseline", "current", "delta");
  out << line;
  std::size_t hidden = 0;
  for (const ReportDiffRow& row : rows) {
    if (elides_unchanged(row.kind) && row.base == row.cur && !row.violation) {
      ++hidden;
      continue;
    }
    const double delta = row.cur - row.base;
    char delta_text[48];
    if (row.kind == "span" && row.base > 0.0) {
      std::snprintf(delta_text, sizeof(delta_text), "%+.1f%%",
                    100.0 * delta / row.base);
    } else {
      std::snprintf(delta_text, sizeof(delta_text), "%+.6g", delta);
    }
    std::snprintf(line, sizeof(line), "%-8s %-48s %14.6g %14.6g %12s%s%s\n",
                  row.kind.c_str(), row.key.c_str(), row.base, row.cur,
                  delta_text, row.gated ? "  [gated]" : "",
                  row.violation ? "  VIOLATION" : "");
    out << line;
  }
  if (hidden > 0) {
    std::string kinds;
    for (const Section& section : kSections) {
      if (!section.elide_unchanged) continue;
      kinds += (kinds.empty() ? "" : "/") + std::string(section.kind);
    }
    out << "(" << hidden << " unchanged " << kinds << " rows elided)\n";
  }
  for (const std::string& note : notes) {
    out << "note: " << note << '\n';
  }
  // One line per violation with everything needed to act on it — the table
  // above can be long, but these lines alone identify the failures.
  std::size_t violations = 0;
  for (const ReportDiffRow& row : rows) {
    if (!row.violation) continue;
    ++violations;
    std::snprintf(line, sizeof(line),
                  "violation: %s %s: baseline %.6g, current %.6g, "
                  "threshold %.6g\n",
                  row.gate.c_str(), row.key.c_str(), row.base, row.cur,
                  row.threshold);
    out << line;
  }
  if (violated) {
    out << "report-diff: FAIL (" << violations
        << (violations == 1 ? " violation" : " violations");
    if (violations == 0) out << "; schema mismatch";  // only non-row failure
    out << ")\n";
  } else {
    out << "report-diff: OK\n";
  }
  return out.str();
}

}  // namespace phonolid::obs
