#include "dsp/features.h"

#include "dsp/streaming_features.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/energy.h"

namespace phonolid::dsp {

util::Matrix add_deltas(const util::Matrix& features, std::size_t delta_window) {
  const std::size_t frames = features.rows();
  const std::size_t dim = features.cols();
  util::Matrix out(frames, dim * 3);
  if (frames == 0) return out;

  const auto w = static_cast<std::ptrdiff_t>(delta_window);
  double denom = 0.0;
  for (std::ptrdiff_t k = 1; k <= w; ++k) denom += 2.0 * static_cast<double>(k * k);
  const float inv_denom = static_cast<float>(1.0 / denom);

  // value(t) clamped at utterance edges, applied to an arbitrary source.
  const auto compute_delta = [&](const auto& src, std::size_t t, std::size_t d) {
    float acc = 0.0f;
    for (std::ptrdiff_t k = 1; k <= w; ++k) {
      const auto tt = static_cast<std::ptrdiff_t>(t);
      const auto last = static_cast<std::ptrdiff_t>(frames) - 1;
      const std::size_t fwd = static_cast<std::size_t>(std::min(tt + k, last));
      const std::size_t bwd = static_cast<std::size_t>(std::max(tt - k, std::ptrdiff_t{0}));
      acc += static_cast<float>(k) * (src(fwd, d) - src(bwd, d));
    }
    return acc * inv_denom;
  };

  // Statics.
  for (std::size_t t = 0; t < frames; ++t) {
    for (std::size_t d = 0; d < dim; ++d) out(t, d) = features(t, d);
  }
  // Deltas over the statics.
  const auto statics = [&](std::size_t t, std::size_t d) { return features(t, d); };
  for (std::size_t t = 0; t < frames; ++t) {
    for (std::size_t d = 0; d < dim; ++d) {
      out(t, dim + d) = compute_delta(statics, t, d);
    }
  }
  // Delta-deltas over the deltas just written.
  const auto deltas = [&](std::size_t t, std::size_t d) { return out(t, dim + d); };
  for (std::size_t t = 0; t < frames; ++t) {
    for (std::size_t d = 0; d < dim; ++d) {
      out(t, 2 * dim + d) = compute_delta(deltas, t, d);
    }
  }
  return out;
}

void cmvn_inplace(util::Matrix& features, bool normalize_variance) {
  const std::size_t frames = features.rows();
  const std::size_t dim = features.cols();
  if (frames == 0) return;
  for (std::size_t d = 0; d < dim; ++d) {
    double sum = 0.0, sum2 = 0.0;
    for (std::size_t t = 0; t < frames; ++t) {
      const double v = features(t, d);
      sum += v;
      sum2 += v * v;
    }
    const double m = sum / static_cast<double>(frames);
    double inv_std = 1.0;
    if (normalize_variance) {
      const double var = sum2 / static_cast<double>(frames) - m * m;
      inv_std = 1.0 / std::sqrt(std::max(var, 1e-10));
    }
    for (std::size_t t = 0; t < frames; ++t) {
      features(t, d) =
          static_cast<float>((features(t, d) - m) * inv_std);
    }
  }
}

FeaturePipeline::FeaturePipeline(const FeaturePipelineConfig& config)
    : config_(config) {
  if (config_.kind == FeatureKind::kMfcc) {
    mfcc_ = std::make_unique<MfccExtractor>(config_.mfcc);
  } else {
    plp_ = std::make_unique<PlpExtractor>(config_.plp);
  }
}

std::size_t FeaturePipeline::feature_dim() const noexcept {
  const std::size_t base = (config_.kind == FeatureKind::kMfcc)
                               ? config_.mfcc.num_ceps
                               : config_.plp.num_ceps;
  return config_.deltas ? base * 3 : base;
}

double FeaturePipeline::flops_per_frame() const noexcept {
  // Software energy model: per-frame FFT (~5 N log2 N), filterbank
  // (~2 * filters * N/2), and cepstral projection (~2 * ceps * filters),
  // plus delta regression and CMVN terms.  Depends only on the config, so
  // the charge is deterministic for a given input.
  const bool mfcc = config_.kind == FeatureKind::kMfcc;
  const double n_fft =
      static_cast<double>(mfcc ? config_.mfcc.n_fft : config_.plp.n_fft);
  const double n_filters = static_cast<double>(
      mfcc ? config_.mfcc.num_filters : config_.plp.num_filters);
  const double n_ceps = static_cast<double>(mfcc ? config_.mfcc.num_ceps
                                                 : config_.plp.num_ceps);
  double per_frame = 5.0 * n_fft * std::log2(n_fft) +
                     n_filters * n_fft + 2.0 * n_ceps * n_filters;
  const double cols = static_cast<double>(feature_dim());
  if (config_.deltas) {
    per_frame += 4.0 * static_cast<double>(config_.delta_window) * cols;
  }
  if (config_.cmvn) per_frame += 4.0 * cols;
  return per_frame;
}

util::Matrix FeaturePipeline::process(std::span<const float> signal) const {
  return process(signal, 0);
}

util::Matrix FeaturePipeline::process(std::span<const float> signal,
                                      std::size_t chunk_samples) const {
  // One code path with the streaming front end: batch is a single chunk.
  StreamingFeatures stream(*this);
  const std::size_t step = chunk_samples == 0 ? signal.size() : chunk_samples;
  for (std::size_t i = 0; i < signal.size(); i += step) {
    stream.push(signal.subspan(i, std::min(step, signal.size() - i)));
  }
  stream.finish();
  util::Matrix feats = stream.take();
  if (config_.cmvn) cmvn_inplace(feats, config_.cmvn_variance);
  obs::Energy::charge_flops(static_cast<double>(feats.rows()) *
                            flops_per_frame());
  return feats;
}

}  // namespace phonolid::dsp
