#include "dsp/mfcc.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace phonolid::dsp {

MfccExtractor::MfccExtractor(const MfccConfig& config)
    : config_(config),
      framer_(config.frame_length, config.frame_shift),
      window_(make_window(config.window, config.frame_length)),
      fft_(config.n_fft),
      filterbank_(config.num_filters, config.n_fft / 2 + 1, config.sample_rate,
                  config.low_hz, config.high_hz, FilterbankScale::kMel),
      dct_(config.num_filters, config.num_ceps) {
  if (config.frame_length > config.n_fft) {
    throw std::invalid_argument("frame_length must be <= n_fft");
  }
}

MfccExtractor::Workspace MfccExtractor::make_workspace() const {
  Workspace ws;
  ws.frame.assign(config_.n_fft, 0.0f);
  ws.power.resize(config_.n_fft / 2 + 1);
  ws.fbank.resize(config_.num_filters);
  ws.fft.resize(2 * config_.n_fft);
  return ws;
}

void MfccExtractor::extract_frame(std::span<const float> samples, Workspace& ws,
                                  std::span<float> out) const {
  assert(samples.size() == config_.frame_length);
  std::fill(ws.frame.begin(), ws.frame.end(), 0.0f);
  for (std::size_t i = 0; i < config_.frame_length; ++i) {
    ws.frame[i] = samples[i] * window_[i];
  }
  fft_.power_spectrum(ws.frame, ws.power, ws.fft);
  filterbank_.apply(ws.power, ws.fbank);
  for (auto& v : ws.fbank) v = std::log(std::max(v, config_.log_floor));
  dct_.apply(ws.fbank, out);
}

util::Matrix MfccExtractor::extract(std::span<const float> signal) const {
  // Pre-emphasis operates on a copy so callers keep their raw signal.
  std::vector<float> emphasized(signal.begin(), signal.end());
  pre_emphasis(emphasized, config_.pre_emph);

  const std::size_t frames = framer_.num_frames(emphasized.size());
  util::Matrix features(frames, config_.num_ceps);

  Workspace ws = make_workspace();
  for (std::size_t t = 0; t < frames; ++t) {
    extract_frame(std::span<const float>(emphasized)
                      .subspan(t * config_.frame_shift, config_.frame_length),
                  ws, features.row(t));
  }
  return features;
}

}  // namespace phonolid::dsp
