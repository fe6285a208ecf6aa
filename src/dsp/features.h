// Feature post-processing: delta/delta-delta appending, per-utterance
// cepstral mean/variance normalisation, and the FeaturePipeline that the
// acoustic front-ends consume (paper §4.1: "13-dimensional PLP features
// plus their first order and second order derivatives ... normalized to
// have zero mean and unit variance").
#pragma once

#include <memory>
#include <span>
#include <variant>

#include "dsp/mfcc.h"
#include "dsp/plp.h"
#include "util/matrix.h"

namespace phonolid::dsp {

/// Appends delta and delta-delta columns: D -> 3D.
/// Deltas use the standard regression formula with window `delta_window`.
[[nodiscard]] util::Matrix add_deltas(const util::Matrix& features,
                                      std::size_t delta_window = 2);

/// In-place cepstral mean subtraction (always) and variance normalisation
/// (if `normalize_variance`), computed per utterance over frames.
void cmvn_inplace(util::Matrix& features, bool normalize_variance = true);

enum class FeatureKind { kMfcc, kPlp };

struct FeaturePipelineConfig {
  FeatureKind kind = FeatureKind::kMfcc;
  MfccConfig mfcc;
  PlpConfig plp;
  bool deltas = true;
  std::size_t delta_window = 2;
  bool cmvn = true;
  bool cmvn_variance = true;

  /// Equal configs produce bit-identical features, so front ends whose
  /// configs compare equal can share one feature pass per utterance.
  bool operator==(const FeaturePipelineConfig&) const = default;
};

/// Raw signal -> normalised feature matrix (frames x dim).
class FeaturePipeline {
 public:
  explicit FeaturePipeline(const FeaturePipelineConfig& config = {});

  [[nodiscard]] std::size_t feature_dim() const noexcept;
  [[nodiscard]] const FeaturePipelineConfig& config() const noexcept {
    return config_;
  }

  /// Active extractor (exactly one is non-null, per config().kind).
  [[nodiscard]] const MfccExtractor* mfcc() const noexcept { return mfcc_.get(); }
  [[nodiscard]] const PlpExtractor* plp() const noexcept { return plp_.get(); }

  /// Software energy-model cost of one fully post-processed frame
  /// (extraction + deltas + CMVN terms); deterministic for a given config.
  [[nodiscard]] double flops_per_frame() const noexcept;

  /// Batch entry point: a single-chunk pass through the streaming extractor
  /// (dsp::StreamingFeatures) followed by per-utterance CMVN.
  [[nodiscard]] util::Matrix process(std::span<const float> signal) const;

  /// The same pass with the signal pushed in `chunk_samples`-sized pieces
  /// (0 = one push).  Bit-identical to process(signal) for any chunking.
  [[nodiscard]] util::Matrix process(std::span<const float> signal,
                                     std::size_t chunk_samples) const;

 private:
  FeaturePipelineConfig config_;
  std::unique_ptr<MfccExtractor> mfcc_;
  std::unique_ptr<PlpExtractor> plp_;
};

}  // namespace phonolid::dsp
