#include "dsp/filterbank.h"

#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace phonolid::dsp {

double hz_to_mel(double hz) noexcept {
  return 2595.0 * std::log10(1.0 + hz / 700.0);
}

double mel_to_hz(double mel) noexcept {
  return 700.0 * (std::pow(10.0, mel / 2595.0) - 1.0);
}

double hz_to_bark(double hz) noexcept {
  // Traunmüller (1990).
  return 26.81 * hz / (1960.0 + hz) - 0.53;
}

namespace {
double bark_to_hz(double bark) noexcept {
  return 1960.0 * (bark + 0.53) / (26.28 - bark);
}
}  // namespace

Filterbank::Filterbank(std::size_t num_filters, std::size_t num_bins,
                       double sample_rate, double low_hz, double high_hz,
                       FilterbankScale scale)
    : num_filters_(num_filters), num_bins_(num_bins) {
  if (num_filters == 0 || num_bins < 3) {
    throw std::invalid_argument("filterbank dimensions too small");
  }
  if (!(low_hz >= 0.0 && high_hz > low_hz && high_hz <= sample_rate / 2.0)) {
    throw std::invalid_argument("invalid filterbank frequency range");
  }
  const auto fwd = (scale == FilterbankScale::kMel) ? hz_to_mel : hz_to_bark;
  const auto inv = (scale == FilterbankScale::kMel) ? mel_to_hz : bark_to_hz;

  // num_filters + 2 equally spaced centre frequencies on the warped scale.
  const double lo = fwd(low_hz);
  const double hi = fwd(high_hz);
  std::vector<double> centers_hz(num_filters + 2);
  for (std::size_t i = 0; i < centers_hz.size(); ++i) {
    const double warped =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(num_filters + 1);
    centers_hz[i] = inv(warped);
  }

  const double bin_hz = sample_rate / (2.0 * static_cast<double>(num_bins - 1));
  weights_.assign(num_filters * num_bins, 0.0f);
  for (std::size_t f = 0; f < num_filters; ++f) {
    const double left = centers_hz[f];
    const double center = centers_hz[f + 1];
    const double right = centers_hz[f + 2];
    for (std::size_t b = 0; b < num_bins; ++b) {
      const double hz = static_cast<double>(b) * bin_hz;
      double w = 0.0;
      if (hz > left && hz < center) {
        w = (hz - left) / (center - left);
      } else if (hz >= center && hz < right) {
        w = (right - hz) / (right - center);
      }
      weights_[f * num_bins + b] = static_cast<float>(w);
    }
  }

  band_begin_.assign(num_filters, 0);
  band_end_.assign(num_filters, 0);
  for (std::size_t f = 0; f < num_filters; ++f) {
    const float* w = &weights_[f * num_bins];
    std::size_t begin = 0;
    while (begin < num_bins && w[begin] == 0.0f) ++begin;
    std::size_t end = num_bins;
    while (end > begin && w[end - 1] == 0.0f) --end;
    band_begin_[f] = begin;
    band_end_[f] = end;
  }
}

void Filterbank::apply(std::span<const float> power, std::span<float> out) const {
  assert(power.size() == num_bins_ && out.size() == num_filters_);
  for (std::size_t f = 0; f < num_filters_; ++f) {
    const float* w = &weights_[f * num_bins_];
    float acc = 0.0f;
    for (std::size_t b = band_begin_[f]; b < band_end_[f]; ++b) {
      acc += w[b] * power[b];
    }
    out[f] = acc;
  }
}

std::span<const float> Filterbank::filter(std::size_t f) const {
  assert(f < num_filters_);
  return {weights_.data() + f * num_bins_, num_bins_};
}

Dct::Dct(std::size_t num_inputs, std::size_t num_outputs)
    : num_inputs_(num_inputs), num_outputs_(num_outputs) {
  if (num_inputs == 0 || num_outputs == 0 || num_outputs > num_inputs) {
    throw std::invalid_argument("invalid DCT dimensions");
  }
  table_.resize(num_outputs * num_inputs);
  const double scale = std::sqrt(2.0 / static_cast<double>(num_inputs));
  for (std::size_t k = 0; k < num_outputs; ++k) {
    const double row_scale = (k == 0) ? scale / std::sqrt(2.0) : scale;
    for (std::size_t n = 0; n < num_inputs; ++n) {
      table_[k * num_inputs + n] = static_cast<float>(
          row_scale * std::cos(std::numbers::pi * static_cast<double>(k) *
                               (2.0 * static_cast<double>(n) + 1.0) /
                               (2.0 * static_cast<double>(num_inputs))));
    }
  }
}

void Dct::apply(std::span<const float> in, std::span<float> out) const {
  assert(in.size() == num_inputs_ && out.size() == num_outputs_);
  for (std::size_t k = 0; k < num_outputs_; ++k) {
    const float* row = &table_[k * num_inputs_];
    float acc = 0.0f;
    for (std::size_t n = 0; n < num_inputs_; ++n) acc += row[n] * in[n];
    out[k] = acc;
  }
}

}  // namespace phonolid::dsp
