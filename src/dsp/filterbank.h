// Mel / Bark filterbanks and DCT-II, the spectral-integration stage shared
// by the MFCC and PLP front-ends.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace phonolid::dsp {

double hz_to_mel(double hz) noexcept;
double mel_to_hz(double mel) noexcept;
double hz_to_bark(double hz) noexcept;

enum class FilterbankScale { kMel, kBark };

/// Triangular filterbank over FFT power-spectrum bins.
class Filterbank {
 public:
  /// `num_bins` = n_fft/2 + 1 power-spectrum bins; filters span
  /// [low_hz, high_hz] on the chosen perceptual scale.
  Filterbank(std::size_t num_filters, std::size_t num_bins, double sample_rate,
             double low_hz, double high_hz,
             FilterbankScale scale = FilterbankScale::kMel);

  [[nodiscard]] std::size_t num_filters() const noexcept { return num_filters_; }
  [[nodiscard]] std::size_t num_bins() const noexcept { return num_bins_; }

  /// out[f] = sum_b weight[f][b] * power[b], summed in bin order over the
  /// bins where filter f is nonzero.  For a non-negative `power` (a power
  /// spectrum) the skipped terms are +0 added to a non-negative sum, so the
  /// result is bit-identical to the dense sum over every bin.
  void apply(std::span<const float> power, std::span<float> out) const;

  /// Filter weights for bin inspection / tests.
  [[nodiscard]] std::span<const float> filter(std::size_t f) const;

 private:
  std::size_t num_filters_;
  std::size_t num_bins_;
  std::vector<float> weights_;  // num_filters x num_bins
  // Filter f is zero outside bins [band_begin_[f], band_end_[f]); the range
  // is empty for a filter narrower than a bin.
  std::vector<std::size_t> band_begin_;
  std::vector<std::size_t> band_end_;
};

/// Orthonormal DCT-II: c[k] = sqrt(2/N) * sum_n x[n] cos(pi k (2n+1) / 2N),
/// with c[0] scaled by 1/sqrt(2).
class Dct {
 public:
  Dct(std::size_t num_inputs, std::size_t num_outputs);
  void apply(std::span<const float> in, std::span<float> out) const;
  [[nodiscard]] std::size_t num_inputs() const noexcept { return num_inputs_; }
  [[nodiscard]] std::size_t num_outputs() const noexcept { return num_outputs_; }

 private:
  std::size_t num_inputs_;
  std::size_t num_outputs_;
  std::vector<float> table_;  // num_outputs x num_inputs
};

}  // namespace phonolid::dsp
