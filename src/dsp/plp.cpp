#include "dsp/plp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace phonolid::dsp {

double levinson_durbin(std::span<const double> autocorr, std::span<double> lpc) {
  const std::size_t order = lpc.size();
  assert(autocorr.size() >= order + 1);
  if (autocorr[0] <= 0.0) {
    throw std::invalid_argument("levinson_durbin: R[0] must be positive");
  }
  std::vector<double> a(order + 1, 0.0);  // a[0] unused convention: a[0]=1
  std::vector<double> tmp(order + 1, 0.0);
  double err = autocorr[0];
  for (std::size_t i = 1; i <= order; ++i) {
    double acc = autocorr[i];
    for (std::size_t j = 1; j < i; ++j) acc -= a[j] * autocorr[i - j];
    const double k = acc / err;
    std::copy(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(i), tmp.begin());
    a[i] = k;
    for (std::size_t j = 1; j < i; ++j) a[j] = tmp[j] - k * tmp[i - j];
    err *= (1.0 - k * k);
    if (err <= 0.0) {
      // Degenerate (perfectly predictable) signal; floor the error so the
      // caller still gets a usable gain term.
      err = 1e-12;
    }
  }
  for (std::size_t j = 0; j < order; ++j) lpc[j] = a[j + 1];
  return err;
}

void lpc_to_cepstrum(std::span<const double> lpc, double gain2,
                     std::span<double> cepstrum) {
  const std::size_t order = lpc.size();
  const std::size_t num_ceps = cepstrum.size();
  if (num_ceps == 0) return;
  cepstrum[0] = std::log(std::max(gain2, 1e-300));
  for (std::size_t n = 1; n < num_ceps; ++n) {
    // c_n = a_n + sum_{k=1}^{n-1} (k/n) c_k a_{n-k}; a_m = 0 for m > order.
    double c = (n <= order) ? lpc[n - 1] : 0.0;
    for (std::size_t k = 1; k < n; ++k) {
      const std::size_t m = n - k;
      if (m <= order) {
        c += (static_cast<double>(k) / static_cast<double>(n)) * cepstrum[k] *
             lpc[m - 1];
      }
    }
    cepstrum[n] = c;
  }
}

PlpExtractor::PlpExtractor(const PlpConfig& config)
    : config_(config),
      framer_(config.frame_length, config.frame_shift),
      window_(make_window(config.window, config.frame_length)),
      fft_(config.n_fft),
      filterbank_(config.num_filters, config.n_fft / 2 + 1, config.sample_rate,
                  config.low_hz, config.high_hz, FilterbankScale::kBark) {
  if (config.frame_length > config.n_fft) {
    throw std::invalid_argument("frame_length must be <= n_fft");
  }
  if (config.num_ceps > config.lpc_order + 1 && config.num_ceps > 64) {
    throw std::invalid_argument("num_ceps unreasonably large");
  }
  // Equal-loudness curve sampled at the band centre frequencies
  // (approximate 40-phon curve, Hermansky eq. 4).
  equal_loudness_.resize(config.num_filters);
  const double lo = hz_to_bark(config.low_hz);
  const double hi = hz_to_bark(config.high_hz);
  for (std::size_t f = 0; f < config.num_filters; ++f) {
    const double bark = lo + (hi - lo) * static_cast<double>(f + 1) /
                                 static_cast<double>(config.num_filters + 1);
    // Invert Traunmüller to get Hz back for the loudness formula.
    const double hz = 1960.0 * (bark + 0.53) / (26.28 - bark);
    const double w2 = hz * hz;
    const double el = (w2 / (w2 + 1.6e5)) * (w2 / (w2 + 1.6e5)) *
                      ((w2 + 1.44e6) / (w2 + 9.61e6));
    equal_loudness_[f] = el;
  }
  // The autocorrelation's inverse DFT treats the bands as samples of an
  // even spectrum at angles pi*(f+0.5)/nb; the cosines depend only on the
  // config, so they are computed here rather than once per frame.
  const std::size_t nb = config.num_filters;
  idft_cos_.resize((config.lpc_order + 1) * nb);
  for (std::size_t lag = 0; lag <= config.lpc_order; ++lag) {
    for (std::size_t f = 0; f < nb; ++f) {
      const double angle = std::numbers::pi * (static_cast<double>(f) + 0.5) *
                           static_cast<double>(lag) / static_cast<double>(nb);
      idft_cos_[lag * nb + f] = std::cos(angle);
    }
  }
}

PlpExtractor::Workspace PlpExtractor::make_workspace() const {
  Workspace ws;
  ws.frame.assign(config_.n_fft, 0.0f);
  ws.power.resize(config_.n_fft / 2 + 1);
  ws.bands.resize(config_.num_filters);
  ws.fft.resize(2 * config_.n_fft);
  ws.loud.resize(config_.num_filters);
  ws.autocorr.resize(config_.lpc_order + 1);
  ws.lpc.resize(config_.lpc_order);
  ws.ceps.resize(config_.num_ceps);
  return ws;
}

void PlpExtractor::extract_frame(std::span<const float> samples, Workspace& ws,
                                 std::span<float> out) const {
  assert(samples.size() == config_.frame_length);
  const std::size_t nb = config_.num_filters;
  std::fill(ws.frame.begin(), ws.frame.end(), 0.0f);
  for (std::size_t i = 0; i < config_.frame_length; ++i) {
    ws.frame[i] = samples[i] * window_[i];
  }
  fft_.power_spectrum(ws.frame, ws.power, ws.fft);
  filterbank_.apply(ws.power, ws.bands);
  for (std::size_t f = 0; f < nb; ++f) {
    const double compressed = std::pow(
        std::max(static_cast<double>(ws.bands[f]), 1e-10) * equal_loudness_[f],
        config_.compress_power);
    ws.loud[f] = compressed;
  }
  // Inverse DFT of the (symmetric) loudness spectrum gives autocorrelation
  // of the perceptually warped signal.
  for (std::size_t lag = 0; lag <= config_.lpc_order; ++lag) {
    const double* cosines = &idft_cos_[lag * nb];
    double acc = 0.0;
    for (std::size_t f = 0; f < nb; ++f) acc += ws.loud[f] * cosines[f];
    ws.autocorr[lag] = acc / static_cast<double>(nb);
  }
  if (ws.autocorr[0] <= 0.0) ws.autocorr[0] = 1e-10;
  const double gain2 = levinson_durbin(ws.autocorr, ws.lpc);
  lpc_to_cepstrum(ws.lpc, gain2, ws.ceps);
  for (std::size_t k = 0; k < config_.num_ceps; ++k) {
    out[k] = static_cast<float>(ws.ceps[k]);
  }
}

util::Matrix PlpExtractor::extract(std::span<const float> signal) const {
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
