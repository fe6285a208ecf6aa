#include "dsp/filterbank.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace phonolid::dsp {
namespace {

TEST(MelScale, KnownAnchors) {
  EXPECT_NEAR(hz_to_mel(0.0), 0.0, 1e-9);
  EXPECT_NEAR(hz_to_mel(1000.0), 999.99, 1.0);  // 1000 Hz ~ 1000 mel
}

TEST(MelScale, RoundTrip) {
  for (double hz : {50.0, 300.0, 1000.0, 2500.0, 3999.0}) {
    EXPECT_NEAR(mel_to_hz(hz_to_mel(hz)), hz, 1e-6) << hz;
  }
}

TEST(MelScale, Monotone) {
  double prev = -1.0;
  for (double hz = 0.0; hz <= 4000.0; hz += 100.0) {
    const double mel = hz_to_mel(hz);
    EXPECT_GT(mel, prev);
    prev = mel;
  }
}

TEST(BarkScale, MonotoneAndBounded) {
  double prev = hz_to_bark(0.0);
  for (double hz = 100.0; hz <= 4000.0; hz += 100.0) {
    const double bark = hz_to_bark(hz);
    EXPECT_GT(bark, prev);
    prev = bark;
  }
  EXPECT_LT(hz_to_bark(4000.0), 18.0);
}

TEST(Filterbank, FiltersAreTriangularAndNonNegative) {
  Filterbank fb(10, 129, 8000.0, 100.0, 3800.0);
  for (std::size_t f = 0; f < fb.num_filters(); ++f) {
    auto w = fb.filter(f);
    double sum = 0.0;
    for (float v : w) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f + 1e-6);
      sum += v;
    }
    EXPECT_GT(sum, 0.0) << "filter " << f << " is empty";
  }
}

TEST(Filterbank, NeighbourFiltersOverlap) {
  Filterbank fb(8, 129, 8000.0, 100.0, 3800.0);
  for (std::size_t f = 0; f + 1 < fb.num_filters(); ++f) {
    auto a = fb.filter(f);
    auto b = fb.filter(f + 1);
    double overlap = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k) {
      overlap += static_cast<double>(a[k]) * b[k];
    }
    EXPECT_GT(overlap, 0.0) << "filters " << f << "," << f + 1;
  }
}

TEST(Filterbank, AppliesAsWeightedSum) {
  Filterbank fb(4, 65, 8000.0, 100.0, 3800.0);
  std::vector<float> power(65, 1.0f);
  std::vector<float> out(4);
  fb.apply(power, out);
  for (std::size_t f = 0; f < 4; ++f) {
    auto w = fb.filter(f);
    float expected = 0.0f;
    for (float v : w) expected += v;
    EXPECT_NEAR(out[f], expected, 1e-4);
  }
}

// apply() sums each filter over its nonzero bins only; on a power spectrum
// (non-negative) that must equal the dense sum over every bin bit for bit.
void ExpectBandedApplyMatchesDenseSum(const Filterbank& fb,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> power(fb.num_bins());
  std::vector<float> out(fb.num_filters());
  for (int trial = 0; trial < 200; ++trial) {
    const double scale = std::pow(10.0, rng.uniform(-6.0, 6.0));
    for (auto& p : power) {
      const double g = rng.gaussian();
      p = trial % 5 == 0 && rng.uniform() < 0.3
              ? 0.0f
              : static_cast<float>(scale * g * g);
    }
    fb.apply(power, out);
    for (std::size_t f = 0; f < fb.num_filters(); ++f) {
      const auto w = fb.filter(f);
      float dense = 0.0f;
      for (std::size_t b = 0; b < fb.num_bins(); ++b) dense += w[b] * power[b];
      ASSERT_EQ(std::bit_cast<std::uint32_t>(out[f]),
                std::bit_cast<std::uint32_t>(dense))
          << "trial " << trial << " filter " << f;
    }
  }
}

TEST(Filterbank, BandedApplyMatchesDenseSumForMelAndBark) {
  // The MFCC and PLP front ends' default banks, and a wider 16 kHz one.
  ExpectBandedApplyMatchesDenseSum(
      Filterbank(23, 129, 8000.0, 100.0, 3800.0, FilterbankScale::kMel), 1);
  ExpectBandedApplyMatchesDenseSum(
      Filterbank(21, 129, 8000.0, 100.0, 3800.0, FilterbankScale::kBark), 2);
  ExpectBandedApplyMatchesDenseSum(
      Filterbank(40, 513, 16000.0, 0.0, 8000.0, FilterbankScale::kMel), 3);
}

TEST(Filterbank, BandedApplyMatchesDenseSumWithEmptyFilters) {
  // 40 filters over 17 bins of 250 Hz: the low filters are narrower than a
  // bin, so some cover no bin centre and have an empty range.
  for (const auto scale : {FilterbankScale::kMel, FilterbankScale::kBark}) {
    const Filterbank fb(40, 17, 8000.0, 0.0, 4000.0, scale);
    std::size_t empty = 0;
    for (std::size_t f = 0; f < fb.num_filters(); ++f) {
      const auto w = fb.filter(f);
      if (std::all_of(w.begin(), w.end(), [](float v) { return v == 0.0f; })) {
        ++empty;
      }
    }
    ASSERT_GT(empty, 0u);
    ExpectBandedApplyMatchesDenseSum(fb, 4);
  }
}

TEST(Filterbank, RejectsBadRanges) {
  EXPECT_THROW(Filterbank(10, 129, 8000.0, 3800.0, 100.0),
               std::invalid_argument);
  EXPECT_THROW(Filterbank(10, 129, 8000.0, 100.0, 5000.0),
               std::invalid_argument);
  EXPECT_THROW(Filterbank(0, 129, 8000.0, 100.0, 3800.0),
               std::invalid_argument);
}

TEST(Dct, OrthonormalRows) {
  Dct dct(16, 16);
  // Apply to each basis vector and reassemble the matrix; D D^T must be I.
  std::vector<std::vector<float>> rows(16, std::vector<float>(16));
  std::vector<float> e(16, 0.0f), out(16);
  for (std::size_t n = 0; n < 16; ++n) {
    std::fill(e.begin(), e.end(), 0.0f);
    e[n] = 1.0f;
    dct.apply(e, out);
    for (std::size_t k = 0; k < 16; ++k) rows[k][n] = out[k];
  }
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      double d = 0.0;
      for (std::size_t n = 0; n < 16; ++n) {
        d += static_cast<double>(rows[i][n]) * rows[j][n];
      }
      EXPECT_NEAR(d, i == j ? 1.0 : 0.0, 1e-5) << i << "," << j;
    }
  }
}

TEST(Dct, ConstantInputActivatesOnlyC0) {
  Dct dct(20, 13);
  std::vector<float> in(20, 2.0f), out(13);
  dct.apply(in, out);
  EXPECT_GT(std::abs(out[0]), 1.0f);
  for (std::size_t k = 1; k < 13; ++k) EXPECT_NEAR(out[k], 0.0f, 1e-5);
}

TEST(Dct, RejectsBadShapes) {
  EXPECT_THROW(Dct(0, 1), std::invalid_argument);
  EXPECT_THROW(Dct(4, 5), std::invalid_argument);
}

}  // namespace
}  // namespace phonolid::dsp
