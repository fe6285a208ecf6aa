// Frozen model bundles: the train/infer split.
//
// Training (Experiment) owns the corpus and the stage graph; inference only
// needs the end products — per-front-end acoustic models + phone maps, the
// TFLLR backgrounds, the (DBA-re-trained) VSM heads and the fitted LDA-MMI
// fusion.  A FrozenModel packages exactly those, serialized as one
// self-contained, versioned, checksummed bundle directory:
//
//   bundle/
//     MANIFEST.json           bundle format + stage key + model metadata
//     bundle-<hex>.art        ArtifactStore envelope (magic, echo check,
//                             FNV-1a checksum) around the "PFZM" payload
//
// `phonolid freeze` writes one from a trained experiment; `phonolid serve`
// (src/serve/) loads one and scores PCM with no Experiment or corpus in
// sight.  score_batch() reproduces the offline evaluate() chain bit for bit:
// per-utterance supervectors from the same shared feature pass + per-front-end
// tail as the offline decode (FeatureGroups, built once at load), per-head
// VSM scores, Matrix-overload fusion apply, per-row LLR calibration — every
// step is row-independent, so any batching of requests yields the same bytes
// as `phonolid run` (the tier1 serve gate cmp's them).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "backend/fusion.h"
#include "core/subsystem.h"
#include "util/matrix.h"

namespace phonolid::core {

class Experiment;

/// Bump when the bundle payload or manifest layout changes; old bundles then
/// fail loudly at load instead of parsing garbage.
inline constexpr std::uint32_t kBundleFormatVersion = 1;

/// One VSM scoring head: a language classifier over the supervectors of one
/// subsystem.  A both-mode DBA freeze carries 2Q heads (M1 + M2) over Q
/// subsystems, mirroring the fused block list of the offline evaluate().
struct FrozenHead {
  std::uint32_t subsystem = 0;
  svm::VsmModel vsm;
};

/// Result of scoring one micro-batch of utterances.
struct BatchScore {
  util::Matrix llr;                 // utterances x K calibrated LLRs
  std::vector<std::uint32_t> best;  // argmax language per utterance
};

class FrozenModel {
 public:
  FrozenModel(std::string scale, std::uint64_t seed, double sample_rate,
              std::vector<std::string> languages,
              std::vector<std::unique_ptr<Subsystem>> subsystems,
              std::vector<FrozenHead> heads, backend::ScoreFusion fusion);

  FrozenModel(const FrozenModel&) = delete;
  FrozenModel& operator=(const FrozenModel&) = delete;
  FrozenModel(FrozenModel&&) = default;
  FrozenModel& operator=(FrozenModel&&) = default;

  /// Load a bundle directory; throws std::runtime_error /
  /// util::SerializeError on a missing, corrupt or wrong-version bundle.
  static FrozenModel load_bundle(const std::string& dir);

  /// Write this model as a bundle directory (created if absent).
  void save_bundle(const std::string& dir) const;

  /// `phonolid freeze`: snapshot a trained experiment's front ends plus the
  /// given scoring heads and fitted fusion into a bundle directory.
  static void write_bundle(const std::string& dir, const Experiment& exp,
                           const std::vector<FrozenHead>& heads,
                           const backend::ScoreFusion& fusion);

  /// Score a micro-batch of PCM utterances (at sample_rate()).  Each output
  /// row depends only on its own utterance, so results are bit-identical for
  /// any batching of the same utterances and any thread count.
  [[nodiscard]] BatchScore score_batch(
      const std::vector<std::span<const float>>& utterances) const;

  [[nodiscard]] const std::string& scale() const noexcept { return scale_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] double sample_rate() const noexcept { return sample_rate_; }
  [[nodiscard]] const std::vector<std::string>& languages() const noexcept {
    return languages_;
  }
  [[nodiscard]] std::size_t num_languages() const noexcept {
    return languages_.size();
  }
  [[nodiscard]] std::size_t num_subsystems() const noexcept {
    return subsystems_.size();
  }
  [[nodiscard]] std::size_t num_heads() const noexcept { return heads_.size(); }
  [[nodiscard]] const Subsystem& subsystem(std::size_t s) const {
    return *subsystems_.at(s);
  }

 private:
  std::string scale_;
  std::uint64_t seed_ = 0;
  double sample_rate_ = 0.0;
  std::vector<std::string> languages_;
  std::vector<std::unique_ptr<Subsystem>> subsystems_;
  /// subsystems_ grouped by feature config (borrows them; the unique_ptrs
  /// keep every Subsystem at one address across moves of this model).
  FeatureGroups groups_;
  std::vector<FrozenHead> heads_;
  backend::ScoreFusion fusion_;
};

}  // namespace phonolid::core
