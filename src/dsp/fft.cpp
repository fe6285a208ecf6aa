#include "dsp/fft.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace phonolid::dsp {

Fft::Fft(std::size_t n) : n_(n) {
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("Fft size must be a power of two >= 2");
  }
  // Bit-reversal permutation table.
  bitrev_.resize(n);
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n; ++b) {
      r = (r << 1) | ((i >> b) & 1u);
    }
    bitrev_[i] = r;
  }
  // Twiddles for each butterfly span: W_m^j = exp(-2*pi*i*j/m), packed by
  // stage (m = 2, 4, ..., n) contiguously: total n-1 entries.
  twiddle_re_.reserve(n - 1);
  twiddle_im_.reserve(n - 1);
  for (std::size_t m = 2; m <= n; m <<= 1) {
    for (std::size_t j = 0; j < m / 2; ++j) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(j) /
                           static_cast<double>(m);
      twiddle_re_.push_back(static_cast<float>(std::cos(angle)));
      twiddle_im_.push_back(static_cast<float>(std::sin(angle)));
    }
  }
}

void Fft::transform(float* re, float* im) const {
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) {
      std::swap(re[i], re[j]);
      std::swap(im[i], im[j]);
    }
  }
  std::size_t tw_base = 0;
  for (std::size_t m = 2; m <= n_; m <<= 1) {
    const std::size_t half = m / 2;
    const float* wr = twiddle_re_.data() + tw_base;
    const float* wi = twiddle_im_.data() + tw_base;
    for (std::size_t k = 0; k < n_; k += m) {
      float* ur = re + k;
      float* ui = im + k;
      float* xr = ur + half;
      float* xi = ui + half;
      for (std::size_t j = 0; j < half; ++j) {
        const float tr = wr[j] * xr[j] - wi[j] * xi[j];
        const float ti = wr[j] * xi[j] + wi[j] * xr[j];
        const float a = ur[j];
        const float b = ui[j];
        ur[j] = a + tr;
        ui[j] = b + ti;
        xr[j] = a - tr;
        xi[j] = b - ti;
      }
    }
    tw_base += half;
  }
}

void Fft::forward(std::span<std::complex<float>> data) const {
  assert(data.size() == n_);
  std::vector<float> re(n_), im(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    re[i] = data[i].real();
    im[i] = data[i].imag();
  }
  transform(re.data(), im.data());
  for (std::size_t i = 0; i < n_; ++i) data[i] = {re[i], im[i]};
}

void Fft::inverse(std::span<std::complex<float>> data) const {
  assert(data.size() == n_);
  for (auto& v : data) v = std::conj(v);
  forward(data);
  const float inv_n = 1.0f / static_cast<float>(n_);
  for (auto& v : data) v = std::conj(v) * inv_n;
}

void Fft::power_spectrum(std::span<const float> in, std::span<float> out,
                         std::vector<float>& scratch) const {
  assert(in.size() == n_ && out.size() == n_ / 2 + 1);
  scratch.resize(2 * n_);
  float* re = scratch.data();
  float* im = re + n_;
  std::copy(in.begin(), in.end(), re);
  std::fill(im, im + n_, 0.0f);
  transform(re, im);
  for (std::size_t k = 0; k <= n_ / 2; ++k) {
    out[k] = re[k] * re[k] + im[k] * im[k];
  }
}

}  // namespace phonolid::dsp
