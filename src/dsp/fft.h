// Iterative radix-2 FFT.
//
// Sized for speech frames (N = 128..1024).  Twiddle factors are cached per
// size inside the Fft object, so power_spectrum allocates nothing per frame.
//
// The butterflies run on split real/imaginary float arrays with the complex
// product written out (tr = wr*xr - wi*xi, ti = wr*xi + wi*xr): the
// operations GCC emits for a std::complex<float> multiply, so the results
// are bit-identical to an interleaved std::complex<float> loop on every
// input that keeps the transform finite, without that loop's stack round
// trips and duplicated NaN-check product (DESIGN.md §13).
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace phonolid::dsp {

class Fft {
 public:
  /// `n` must be a power of two >= 2.
  explicit Fft(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// In-place forward transform of `data` (size n).
  void forward(std::span<std::complex<float>> data) const;

  /// In-place inverse transform (unscaled conjugate method; divides by n).
  void inverse(std::span<std::complex<float>> data) const;

  /// Power spectrum |X_k|^2 for k = 0..n/2 of a real signal.
  /// `in` has size n (zero-padded by the caller), `out` has size n/2 + 1.
  /// `scratch` is caller-owned working memory (resized to 2n on first use):
  /// one Fft object is shared by concurrent feature sessions, so transform
  /// state must live with the caller, never in the object or a thread_local.
  void power_spectrum(std::span<const float> in, std::span<float> out,
                      std::vector<float>& scratch) const;

  static bool is_power_of_two(std::size_t n) noexcept {
    return n >= 2 && (n & (n - 1)) == 0;
  }

 private:
  /// The one kernel: in-place forward transform of n values held as
  /// separate real (`re`) and imaginary (`im`) arrays.
  void transform(float* re, float* im) const;

  std::size_t n_;
  std::vector<std::size_t> bitrev_;
  // Forward twiddles, packed by stage (m = 2, 4, ..., n): n-1 entries each.
  std::vector<float> twiddle_re_;
  std::vector<float> twiddle_im_;
};

}  // namespace phonolid::dsp
