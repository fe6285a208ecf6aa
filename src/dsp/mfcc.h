// MFCC front-end (paper §4.1: one of the acoustic feature choices that
// diversifies the parallel phone recognizers).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "dsp/fft.h"
#include "dsp/filterbank.h"
#include "dsp/window.h"
#include "util/matrix.h"

namespace phonolid::dsp {

struct MfccConfig {
  double sample_rate = 8000.0;
  std::size_t frame_length = 200;   // 25 ms @ 8 kHz
  std::size_t frame_shift = 80;     // 10 ms @ 8 kHz
  std::size_t n_fft = 256;
  std::size_t num_filters = 23;
  std::size_t num_ceps = 13;        // including c0
  double low_hz = 100.0;
  double high_hz = 3800.0;
  float pre_emph = 0.97f;
  WindowType window = WindowType::kHamming;
  float log_floor = 1e-10f;

  bool operator==(const MfccConfig&) const = default;
};

class MfccExtractor {
 public:
  /// Per-call working memory.  The extractor itself is immutable and shared
  /// across threads and streaming sessions; each caller owns one Workspace,
  /// so concurrent extraction (even two sessions on one thread) never
  /// touches shared or thread-local scratch.
  struct Workspace {
    std::vector<float> frame;                 // n_fft, zero-padded
    std::vector<float> power;                 // n_fft/2 + 1
    std::vector<float> fbank;                 // num_filters
    std::vector<float> fft;                   // 2 * n_fft: split re/im FFT
  };

  explicit MfccExtractor(const MfccConfig& config = {});

  [[nodiscard]] const MfccConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t feature_dim() const noexcept { return config_.num_ceps; }

  [[nodiscard]] Workspace make_workspace() const;

  /// One frame of *pre-emphasized* samples (size frame_length, window not
  /// yet applied) -> one cepstral row (size num_ceps).
  void extract_frame(std::span<const float> samples, Workspace& ws,
                     std::span<float> out) const;

  /// Extracts one feature row per frame; returns num_frames x num_ceps.
  /// Implemented as a loop over extract_frame, so batch and streaming share
  /// one per-frame code path.
  [[nodiscard]] util::Matrix extract(std::span<const float> signal) const;

 private:
  MfccConfig config_;
  Framer framer_;
  std::vector<float> window_;
  Fft fft_;
  Filterbank filterbank_;
  Dct dct_;
};

}  // namespace phonolid::dsp
