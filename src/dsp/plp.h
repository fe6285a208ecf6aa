// PLP-style front-end (perceptual linear prediction, Hermansky 1990).
//
// Power spectrum -> Bark-scaled critical-band integration -> equal-loudness
// pre-emphasis -> intensity-loudness (cube-root) compression -> inverse DFT
// to autocorrelation -> Levinson-Durbin LPC -> cepstral recursion.
// This is the paper's "PLP feature" diversification axis (§4.1(b): 13-dim
// PLP plus deltas feeding the DNN front-end).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/fft.h"
#include "dsp/filterbank.h"
#include "dsp/window.h"
#include "util/matrix.h"

namespace phonolid::dsp {

/// Solves Toeplitz normal equations R a = r via Levinson-Durbin.
/// `autocorr` holds R[0..order]; outputs LPC coefficients a[1..order] into
/// `lpc` (size order) and returns the prediction error (gain^2).
/// R[0] must be > 0.
double levinson_durbin(std::span<const double> autocorr, std::span<double> lpc);

/// Converts LPC coefficients (+ gain) to `num_ceps` cepstra via the standard
/// recursion; c[0] = ln(gain^2).
void lpc_to_cepstrum(std::span<const double> lpc, double gain2,
                     std::span<double> cepstrum);

struct PlpConfig {
  double sample_rate = 8000.0;
  std::size_t frame_length = 200;
  std::size_t frame_shift = 80;
  std::size_t n_fft = 256;
  std::size_t num_filters = 21;   // critical bands
  std::size_t lpc_order = 12;
  std::size_t num_ceps = 13;      // c0..c12
  double low_hz = 100.0;
  double high_hz = 3800.0;
  float pre_emph = 0.97f;
  WindowType window = WindowType::kHamming;
  double compress_power = 1.0 / 3.0;  // intensity-loudness law

  bool operator==(const PlpConfig&) const = default;
};

class PlpExtractor {
 public:
  /// Per-call working memory (see MfccExtractor::Workspace): the extractor
  /// is immutable and shared; every caller/session owns its own scratch.
  struct Workspace {
    std::vector<float> frame;                 // n_fft, zero-padded
    std::vector<float> power;                 // n_fft/2 + 1
    std::vector<float> bands;                 // num_filters
    std::vector<float> fft;                   // 2 * n_fft: split re/im FFT
    std::vector<double> loud;                 // num_filters
    std::vector<double> autocorr;             // lpc_order + 1
    std::vector<double> lpc;                  // lpc_order
    std::vector<double> ceps;                 // num_ceps
  };

  explicit PlpExtractor(const PlpConfig& config = {});

  [[nodiscard]] const PlpConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t feature_dim() const noexcept { return config_.num_ceps; }

  [[nodiscard]] Workspace make_workspace() const;

  /// One frame of *pre-emphasized* samples (size frame_length, window not
  /// yet applied) -> one cepstral row (size num_ceps).
  void extract_frame(std::span<const float> samples, Workspace& ws,
                     std::span<float> out) const;

  [[nodiscard]] util::Matrix extract(std::span<const float> signal) const;

 private:
  PlpConfig config_;
  Framer framer_;
  std::vector<float> window_;
  Fft fft_;
  Filterbank filterbank_;
  std::vector<double> equal_loudness_;  // per critical band
  // Inverse-DFT cosines, (lpc_order + 1) x num_filters: row `lag` holds
  // cos(pi * (f + 0.5) * lag / num_filters).
  std::vector<double> idft_cos_;
};

}  // namespace phonolid::dsp
