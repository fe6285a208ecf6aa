// Structural comparison of two schema-v1 run reports (obs/report.h):
// `phonolid report-diff baseline.json current.json` prints a delta table
// over every compared section and exits 1 when a gate is violated.
//
// Each gate is one row of the gate table in report_diff.cpp (DESIGN.md §7
// lists them); rows no gate covers are report-only.  A schema_version
// mismatch is a violation.  Keys or sections on one side only, unknown
// top-level sections, and nonzero recorder or profiler drop counts are
// notes, so reports of other commands and newer binaries stay comparable.
// Negative thresholds (the default) turn gates off, so a bare diff always
// exits 0.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace phonolid::obs {

/// One threshold per gate (negative = gate off), named after its flag in
/// the gate table of report_diff.cpp.
struct ReportDiffOptions {
  double max_regress_pct = -1.0;
  double max_eer_delta = -1.0;
  /// Negative = cavg leaves gate on max_eer_delta.
  double max_cavg_delta = -1.0;
  double max_cllr_delta = -1.0;
  double max_adoption_precision_drop = -1.0;
  double max_energy_delta_pct = -1.0;
  double max_self_share_delta = -1.0;
  double max_serve_p99_regress_pct = -1.0;
  double max_serve_throughput_drop_pct = -1.0;
  double max_phase_p99_regress_pct = -1.0;
  /// Spans with a baseline mean below this (seconds) are never gated.
  double min_span_s = 0.01;
};

struct ReportDiffRow {
  std::string kind;  // "span" | "counter" | "result" | "quality" |
                     // "resource" | "energy" | "hw" | "profile" | "serve"
  std::string key;   // span path, counter name, or results/...-style path
  double base = 0.0;
  double cur = 0.0;
  bool gated = false;      // a threshold was applied to this row
  bool violation = false;  // ... and it fired
  std::string gate;        // the gate's flag when gated (e.g. "max-eer-delta")
  double threshold = 0.0;  // the threshold that was applied when gated
};

struct ReportDiffResult {
  std::vector<ReportDiffRow> rows;
  std::vector<std::string> notes;  // added/removed keys, schema issues
  bool violated = false;

  /// Human-readable delta table (rows that changed, notes, verdict line).
  [[nodiscard]] std::string format() const;
};

/// A report-diff command-line option: each gate's threshold flag, plus the
/// span gate's --min-span-s floor.  Listed from the gate table, so a CLI
/// declares none of them itself.
struct ReportDiffFlag {
  std::string_view name;             // without the leading "--"
  std::string_view value;            // usage placeholder: "pct", "x" or "s"
  double ReportDiffOptions::*field;  // the option the flag sets
  std::string_view help;
};
[[nodiscard]] std::vector<ReportDiffFlag> report_diff_flags();

/// Compare two parsed schema-v1 reports.  Never throws on missing
/// sections — absent pieces become notes.
[[nodiscard]] ReportDiffResult diff_reports(const Json& baseline,
                                            const Json& current,
                                            const ReportDiffOptions& options = {});

}  // namespace phonolid::obs
