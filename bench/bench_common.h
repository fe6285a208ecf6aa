// Shared helpers for the table/figure benches.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "obs/energy.h"
#include "obs/exporters.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/options.h"

namespace phonolid::bench {

inline std::unique_ptr<core::Experiment> build_experiment() {
  // Honors PHONOLID_TRACE before any instrumented work, so the flight
  // recorder captures the build itself; the matching export happens in
  // maybe_write_report at bench exit.  When $PHONOLID_CACHE is set (see
  // scripts/bench_baseline.sh) every bench shares one artifact store, so
  // only the first bench of a session pays for AM training and decoding.
  obs::enable_recorder_from_env();
  const auto scale = util::scale_from_env();
  std::printf("# phonolid bench (scale=%s, seed=%llu)\n",
              util::to_string(scale),
              static_cast<unsigned long long>(util::master_seed()));
  obs::Span build_span("bench_build");
  auto config = core::ExperimentConfig::preset(scale, util::master_seed());
  auto experiment = core::Experiment::build(config);
  std::printf("# experiment built in %.1fs: %zu languages, %zu subsystems, "
              "%zu test utterances\n",
              build_span.stop(), experiment->num_languages(),
              experiment->num_subsystems(),
              experiment->corpus().test_info().size());
  return experiment;
}

/// When PHONOLID_REPORT=<path> is set, write the structured JSON run report
/// (same schema as `phonolid run --report`, DESIGN.md "Observability") after
/// the bench finishes; likewise PHONOLID_TRACE (Chrome trace-event JSON)
/// and PHONOLID_PROM (Prometheus text).  Call at the end of every bench
/// main.  `extra` sections (an object) merge into the report top level —
/// bench_table5_rtf uses this for its measured "streaming" section.
inline void maybe_write_report(const core::Experiment& exp,
                               const std::string& bench_name,
                               obs::Json extra = obs::Json::object()) {
  obs::export_from_env();
  // One energy line per bench so trajectories of bench logs carry cost next
  // to speed; the full per-stage breakdown lives in the report's "energy"
  // section and `phonolid power --input <report>`.
  if (obs::Energy::source() != obs::EnergySource::kOff) {
    std::printf("# energy: %.3f J (%s), %.2f GFLOP charged\n",
                obs::Energy::total_joules(),
                obs::to_string(obs::Energy::source()),
                obs::Energy::total_gflops());
  }
  // Same idea for the sampling profiler (PHONOLID_PROFILE=cpu): one summary
  // line here, full tables via `phonolid flame --input <report>`.
  if (obs::Profiler::available()) {
    const obs::ProfileData p = obs::Profiler::snapshot();
    std::printf("# profile: %llu samples (%llu dropped) at %d Hz\n",
                static_cast<unsigned long long>(p.samples),
                static_cast<unsigned long long>(p.dropped), p.hz);
  }
  const char* path = std::getenv("PHONOLID_REPORT");
  if (path == nullptr || *path == '\0') return;
  exp.write_report(path, bench_name, std::move(extra));
  std::printf("# wrote run report to %s\n", path);
}

/// All baseline blocks as evaluate() input.
inline std::vector<const core::SubsystemScores*> baseline_blocks(
    const core::Experiment& exp) {
  std::vector<const core::SubsystemScores*> blocks;
  for (const auto& b : exp.baseline_scores()) blocks.push_back(&b);
  return blocks;
}

inline std::vector<const core::SubsystemScores*> as_blocks(
    const std::vector<core::SubsystemScores>& scores) {
  std::vector<const core::SubsystemScores*> blocks;
  for (const auto& b : scores) blocks.push_back(&b);
  return blocks;
}

/// Eq. 15 weights for a fused (M1 + M2) block list.
inline std::vector<double> eq15_weights(const core::TrdbaSelection& selection,
                                        std::size_t repetitions) {
  std::vector<double> weights;
  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    for (std::size_t c : selection.subsystem_fit_counts) {
      weights.push_back(static_cast<double>(c));
    }
  }
  return weights;
}

}  // namespace phonolid::bench
