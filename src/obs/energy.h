// Per-stage energy accounting with a portable cost model.
//
// Answers "what did this run cost in joules, and which stage spent them?"
// with two interchangeable sources, recorded in every report as
// `energy.source`:
//
//   - "rapl": a background sampler thread reads Intel RAPL package energy
//     from /sys/class/powercap/intel-rapl:<pkg>/energy_uj (wrap-aware) and
//     apportions each sampling interval's joules to the span paths open on
//     each live thread, weighted by that thread's CPU-time delta over the
//     interval (obs::Trace::active_threads).  Joules burned while no
//     instrumented span is open land in the "(unattributed)" bucket, so
//     per-span energies always sum to the measured total.
//
//   - "software": a deterministic cost model.  Instrumented kernels and
//     stages call Energy::charge_flops(flops) (la::gemm*, the feature
//     pipeline, the Viterbi decoder, VSM scoring), and each charge converts
//     to joules at a fixed joules-per-GFLOP rate, attributed to the calling
//     thread's current span path.  Charges depend only on problem sizes —
//     never on wall time, thread count, or machine — so software-model
//     totals are reproducible across hosts and PHONOLID_THREADS settings,
//     which is what makes `report-diff --max-energy-delta-pct` a portable
//     CI gate.  Calibration: the default rate (see kDefaultJoulesPerGflop)
//     is set so the synthetic pipeline's decode stage — whose achieved
//     GFLOP/s is already measured by the decode.gflops counter track —
//     prices at roughly an embedded-class package (a few watts at a few
//     GFLOP/s); override with PHONOLID_JOULES_PER_GFLOP.
//
// Source selection (PHONOLID_ENERGY): "rapl" | "software" | "off" | "auto"
// (default).  "auto" uses RAPL when the powercap files are readable
// (requires root on most systems) and falls back to the software model
// otherwise; "rapl" on a machine without readable RAPL also degrades to
// "software" rather than silently reporting zeros.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/json.h"

namespace phonolid::obs {

enum class EnergySource { kOff, kSoftware, kRapl };

[[nodiscard]] const char* to_string(EnergySource source) noexcept;

/// Default software-model price: 0.30 J per GFLOP (~3.3 GFLOP/J), an
/// embedded-multicore-class operating point.  The absolute level only
/// shifts every report by a constant factor; gates compare runs, not watts
/// against a meter.
inline constexpr double kDefaultJoulesPerGflop = 0.30;

class Energy {
 public:
  /// Resolve PHONOLID_ENERGY and start the RAPL sampler when selected.
  /// Idempotent; called by every entry point via
  /// obs::enable_recorder_from_env().
  static void init_from_env();

  [[nodiscard]] static EnergySource source() noexcept;

  /// Software cost model: account `flops` floating-point operations to the
  /// calling thread's current span path.  Under every source this also
  /// feeds the total-GFLOP accounting behind `energy.gflops_per_watt`;
  /// the joule conversion happens only when source() == kSoftware.
  /// No-op (one relaxed load) when source() == kOff.
  static void charge_flops(double flops) noexcept;

  /// Active joules-per-GFLOP rate (PHONOLID_JOULES_PER_GFLOP or default).
  [[nodiscard]] static double joules_per_gflop() noexcept;

  /// Total joules accumulated so far (sum over joules_by_span()).
  [[nodiscard]] static double total_joules();

  /// Total GFLOPs charged so far (both sources).
  [[nodiscard]] static double total_gflops() noexcept;

  /// Per-span-path joules, merged across threads; RAPL runs include the
  /// "(unattributed)" bucket.  Sums exactly to total_joules().
  [[nodiscard]] static std::map<std::string, double> joules_by_span();

  /// The "energy" report section.  Joule values are rounded to 1 µJ so
  /// software-model reports are byte-stable across thread counts (the
  /// per-thread accumulation order perturbs only sub-nanojoule bits).
  /// Forces a final RAPL sample first, so the section is current.
  [[nodiscard]] static Json energy_json();

  /// Publish energy.* float gauges into the metrics registry so the
  /// Prometheus exporter and report metrics.values carry the totals.
  static void publish_gauges();

  /// Drop all accumulated energy and GFLOP accounting (tests).
  static void reset();

  /// Stop the RAPL sampler after one final sample.  Idempotent; called at
  /// entry-point exit via obs::export_from_env().
  static void shutdown() noexcept;

  /// Test hook: force a source (bypassing the environment), resetting
  /// accumulated state.  kRapl requires readable powercap files and falls
  /// back to kSoftware like init_from_env does.
  static void force_source_for_test(EnergySource source);
};

}  // namespace phonolid::obs
