#include "dsp/fft.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <vector>

#include "util/rng.h"

namespace phonolid::dsp {
namespace {

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(Fft(0), std::invalid_argument);
  EXPECT_THROW(Fft(1), std::invalid_argument);
  EXPECT_THROW(Fft(100), std::invalid_argument);
  EXPECT_NO_THROW(Fft(2));
  EXPECT_NO_THROW(Fft(256));
}

TEST(Fft, DeltaFunctionIsFlat) {
  Fft fft(16);
  std::vector<std::complex<float>> x(16, {0.0f, 0.0f});
  x[0] = {1.0f, 0.0f};
  fft.forward(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-5);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-5);
  }
}

TEST(Fft, PureToneLandsInOneBin) {
  const std::size_t n = 64;
  Fft fft(n);
  std::vector<std::complex<float>> x(n);
  const std::size_t bin = 5;
  for (std::size_t t = 0; t < n; ++t) {
    const double angle =
        2.0 * std::numbers::pi * static_cast<double>(bin * t) / static_cast<double>(n);
    x[t] = {static_cast<float>(std::cos(angle)), 0.0f};
  }
  fft.forward(x);
  for (std::size_t k = 0; k < n; ++k) {
    const float mag = std::abs(x[k]);
    if (k == bin || k == n - bin) {
      EXPECT_NEAR(mag, n / 2.0f, 1e-3) << k;
    } else {
      EXPECT_NEAR(mag, 0.0f, 1e-3) << k;
    }
  }
}

TEST(Fft, InverseRecoversSignal) {
  const std::size_t n = 128;
  Fft fft(n);
  util::Rng rng(5);
  std::vector<std::complex<float>> x(n), orig(n);
  for (auto& v : x) {
    v = {static_cast<float>(rng.gaussian()), static_cast<float>(rng.gaussian())};
  }
  orig = x;
  fft.forward(x);
  fft.inverse(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real(), orig[i].real(), 1e-4);
    EXPECT_NEAR(x[i].imag(), orig[i].imag(), 1e-4);
  }
}

TEST(Fft, LinearityProperty) {
  const std::size_t n = 32;
  Fft fft(n);
  util::Rng rng(9);
  std::vector<std::complex<float>> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = {static_cast<float>(rng.gaussian()), 0.0f};
    b[i] = {static_cast<float>(rng.gaussian()), 0.0f};
    sum[i] = a[i] + b[i];
  }
  fft.forward(a);
  fft.forward(b);
  fft.forward(sum);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sum[i].real(), a[i].real() + b[i].real(), 1e-3);
    EXPECT_NEAR(sum[i].imag(), a[i].imag() + b[i].imag(), 1e-3);
  }
}

TEST(Fft, ParsevalForPowerSpectrum) {
  // Sum of |x|^2 over time == mean of |X|^2 over frequency.
  const std::size_t n = 256;
  Fft fft(n);
  util::Rng rng(11);
  std::vector<float> x(n);
  double time_energy = 0.0;
  for (auto& v : x) {
    v = static_cast<float>(rng.gaussian());
    time_energy += static_cast<double>(v) * v;
  }
  std::vector<float> power(n / 2 + 1);
  std::vector<float> scratch;
  fft.power_spectrum(x, power, scratch);
  // Reassemble full-spectrum energy from the half spectrum (bins 1..n/2-1
  // appear twice in the full spectrum).
  double freq_energy = power[0] + power[n / 2];
  for (std::size_t k = 1; k < n / 2; ++k) freq_energy += 2.0 * power[k];
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              time_energy * 1e-4);
}

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, RoundTripAtEverySize) {
  const std::size_t n = GetParam();
  Fft fft(n);
  util::Rng rng(n);
  std::vector<std::complex<float>> x(n), orig;
  for (auto& v : x) v = {static_cast<float>(rng.uniform(-1, 1)), 0.0f};
  orig = x;
  fft.forward(x);
  fft.inverse(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real(), orig[i].real(), 1e-4);
  }
}

// The interleaved std::complex<float> radix-2 loop the split-array kernel
// replaced, kept verbatim as the bit-exact reference: same twiddles, same
// bit reversal, and the products as the compiler emits them for
// std::complex<float> multiplication.
class ReferenceFft {
 public:
  explicit ReferenceFft(std::size_t n) : n_(n), bitrev_(n) {
    std::size_t log2n = 0;
    while ((std::size_t{1} << log2n) < n) ++log2n;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t r = 0;
      for (std::size_t b = 0; b < log2n; ++b) r = (r << 1) | ((i >> b) & 1u);
      bitrev_[i] = r;
    }
    for (std::size_t m = 2; m <= n; m <<= 1) {
      for (std::size_t j = 0; j < m / 2; ++j) {
        const double angle = -2.0 * std::numbers::pi * static_cast<double>(j) /
                             static_cast<double>(m);
        twiddle_.emplace_back(static_cast<float>(std::cos(angle)),
                              static_cast<float>(std::sin(angle)));
      }
    }
  }

  void forward(std::vector<std::complex<float>>& data) const {
    for (std::size_t i = 0; i < n_; ++i) {
      const std::size_t j = bitrev_[i];
      if (i < j) std::swap(data[i], data[j]);
    }
    std::size_t tw_base = 0;
    for (std::size_t m = 2; m <= n_; m <<= 1) {
      const std::size_t half = m / 2;
      for (std::size_t k = 0; k < n_; k += m) {
        for (std::size_t j = 0; j < half; ++j) {
          const auto w = twiddle_[tw_base + j];
          const auto t = w * data[k + j + half];
          const auto u = data[k + j];
          data[k + j] = u + t;
          data[k + j + half] = u - t;
        }
      }
      tw_base += half;
    }
  }

  std::vector<float> power_spectrum(const std::vector<float>& in) const {
    std::vector<std::complex<float>> x(n_);
    for (std::size_t i = 0; i < n_; ++i) x[i] = {in[i], 0.0f};
    forward(x);
    std::vector<float> out(n_ / 2 + 1);
    for (std::size_t k = 0; k <= n_ / 2; ++k) out[k] = std::norm(x[k]);
    return out;
  }

 private:
  std::size_t n_;
  std::vector<std::size_t> bitrev_;
  std::vector<std::complex<float>> twiddle_;
};

::testing::AssertionResult SameBits(std::span<const float> got,
                                    std::span<const float> want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size " << got.size() << " vs "
                                         << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(got[i]) !=
        std::bit_cast<std::uint32_t>(want[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// A frame shaped like the feature front ends' input: `used` windowed
// samples at a seeded scale, zero-padded to n.
std::vector<float> random_frame(util::Rng& rng, std::size_t n,
                                std::size_t used) {
  const double scale = std::pow(10.0, rng.uniform(-4.0, 4.0));
  std::vector<float> x(n, 0.0f);
  for (std::size_t i = 0; i < used; ++i) {
    x[i] = static_cast<float>(scale * rng.gaussian());
  }
  return x;
}

TEST(FftBitIdentity, PowerSpectrumMatchesComplexLoopOnSpeechFrames) {
  const std::size_t n = 256;
  const Fft fft(n);
  const ReferenceFft reference(n);
  util::Rng rng(20090704);
  std::vector<float> power(n / 2 + 1);
  std::vector<float> scratch;
  for (int frame = 0; frame < 1000; ++frame) {
    // Mostly 25 ms frames at 8 kHz (200 samples, zero-padded); some full.
    const std::size_t used = frame % 4 == 0 ? n : 200;
    const auto x = random_frame(rng, n, used);
    fft.power_spectrum(x, power, scratch);
    ASSERT_TRUE(SameBits(power, reference.power_spectrum(x)))
        << "frame " << frame;
  }
}

TEST_P(FftSizeTest, PowerSpectrumAndForwardMatchComplexLoop) {
  const std::size_t n = GetParam();
  const Fft fft(n);
  const ReferenceFft reference(n);
  util::Rng rng(7 * n + 1);
  std::vector<float> power(n / 2 + 1);
  std::vector<float> scratch;
  for (int trial = 0; trial < 20; ++trial) {
    const auto x = random_frame(rng, n, n);
    fft.power_spectrum(x, power, scratch);
    ASSERT_TRUE(SameBits(power, reference.power_spectrum(x)))
        << "trial " << trial;

    std::vector<std::complex<float>> got(n);
    for (auto& v : got) {
      v = {static_cast<float>(rng.gaussian()),
           static_cast<float>(rng.gaussian())};
    }
    auto want = got;
    fft.forward(got);
    reference.forward(want);
    const std::span<const float> got_floats(
        reinterpret_cast<const float*>(got.data()), 2 * n);
    const std::span<const float> want_floats(
        reinterpret_cast<const float*>(want.data()), 2 * n);
    ASSERT_TRUE(SameBits(got_floats, want_floats)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256, 512,
                                           1024));

}  // namespace
}  // namespace phonolid::dsp
