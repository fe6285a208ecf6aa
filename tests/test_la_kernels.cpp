#include "la/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "la/batched_gaussian.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace phonolid::la {
namespace {

// Odd, unaligned and degenerate shapes: every size class the blocked
// kernels special-case (empty, sub-tile, one-past-lane, multi-tile).
constexpr std::size_t kShapes[] = {0, 1, 3, 17, 129};

util::Matrix random_matrix(std::size_t rows, std::size_t cols,
                           util::Rng& rng) {
  util::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
  }
  return m;
}

void expect_matrix_near(const util::Matrix& got, const util::Matrix& want,
                        float tol) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      EXPECT_NEAR(got(i, j), want(i, j), tol)
          << "at (" << i << ", " << j << ")";
    }
  }
}

float shape_tolerance(std::size_t k) {
  // Reassociated float sums drift with the reduction length.
  return 1e-4f * static_cast<float>(k + 1);
}

TEST(LaKernels, GemmMatchesReference) {
  util::Rng rng(11);
  for (std::size_t m : kShapes) {
    for (std::size_t k : kShapes) {
      for (std::size_t n : kShapes) {
        const util::Matrix a = random_matrix(m, k, rng);
        const util::Matrix b = random_matrix(k, n, rng);
        util::Matrix got, want;
        gemm(a, b, got);
        ref::gemm(a, b, want);
        expect_matrix_near(got, want, shape_tolerance(k));
      }
    }
  }
}

TEST(LaKernels, GemmNtMatchesReferenceWithEpilogues) {
  util::Rng rng(12);
  for (std::size_t m : kShapes) {
    for (std::size_t k : kShapes) {
      for (std::size_t n : kShapes) {
        const util::Matrix a = random_matrix(m, k, rng);
        const util::Matrix b = random_matrix(n, k, rng);
        std::vector<float> bias(n);
        for (auto& v : bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (const Epilogue ep :
             {Epilogue::kNone, Epilogue::kBias, Epilogue::kBiasSigmoid}) {
          util::Matrix got, want;
          gemm_nt(a, b, got, bias, ep);
          ref::gemm_nt(a, b, want, bias, ep);
          expect_matrix_near(got, want, shape_tolerance(k));
        }
      }
    }
  }
}

TEST(LaKernels, GemmTnMatchesReferenceIncludingAccumulate) {
  util::Rng rng(13);
  for (std::size_t k : kShapes) {
    for (std::size_t m : kShapes) {
      for (std::size_t n : kShapes) {
        const util::Matrix a = random_matrix(k, m, rng);
        const util::Matrix b = random_matrix(k, n, rng);
        util::Matrix got, want;
        gemm_tn(a, b, got, 0.7f);
        ref::gemm_tn(a, b, want, 0.7f);
        expect_matrix_near(got, want, shape_tolerance(k));

        util::Matrix seed = random_matrix(m, n, rng);
        util::Matrix got_acc = seed, want_acc = seed;
        gemm_tn(a, b, got_acc, -0.3f, /*accumulate=*/true);
        ref::gemm_tn(a, b, want_acc, -0.3f, /*accumulate=*/true);
        expect_matrix_near(got_acc, want_acc, shape_tolerance(k));
      }
    }
  }
}

TEST(LaKernels, DotAndAxpyMatchNaive) {
  util::Rng rng(15);
  for (std::size_t n : kShapes) {
    std::vector<float> a(n), b(n), y(n);
    for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& v : y) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    double want = 0.0;
    for (std::size_t i = 0; i < n; ++i) want += a[i] * b[i];
    EXPECT_NEAR(dot(a, b), want, shape_tolerance(n));

    std::vector<float> y2 = y;
    axpy(0.5f, a, y2);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_FLOAT_EQ(y2[i], y[i] + 0.5f * a[i]);
    }
  }
}

TEST(LaKernels, SparseKernelsMatchNaive) {
  const std::vector<std::uint32_t> idx = {0, 2, 3, 7, 8, 9, 15};
  const std::vector<float> val = {1.0f, -2.0f, 0.5f, 3.0f, -0.25f, 4.0f, 2.0f};
  std::vector<float> dense(17);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    dense[i] = static_cast<float>(i) * 0.1f - 0.5f;
  }
  double want = 0.0;
  for (std::size_t i = 0; i < idx.size(); ++i) want += val[i] * dense[idx[i]];
  EXPECT_NEAR(sparse_dot(idx, val, dense), want, 1e-5);

  std::vector<float> acc = dense;
  sparse_axpy(2.0f, idx, val, acc);
  for (std::size_t i = 0; i < idx.size(); ++i) dense[idx[i]] += 2.0f * val[i];
  for (std::size_t i = 0; i < acc.size(); ++i) {
    EXPECT_FLOAT_EQ(acc[i], dense[i]);
  }
  // Empty sparse vector is a no-op / zero.
  EXPECT_EQ(sparse_dot({}, {}, dense), 0.0f);
  sparse_axpy(1.0f, {}, {}, acc);
}

TEST(LaKernels, SigmoidIsStableAtExtremes) {
  EXPECT_FLOAT_EQ(sigmoid(0.0f), 0.5f);
  EXPECT_NEAR(sigmoid(100.0f), 1.0f, 1e-6);
  EXPECT_NEAR(sigmoid(-100.0f), 0.0f, 1e-6);
  EXPECT_GT(sigmoid(-100.0f), 0.0f - 1e-30f);
}

TEST(LaKernels, BatchedGaussianMatchesScalarReference) {
  util::Rng rng(16);
  const std::size_t dim = 17;
  const std::size_t comps = 5;
  const std::size_t frames = 129;
  BatchedGaussians::Builder builder(dim, comps);
  std::vector<std::vector<float>> means(comps), vars(comps);
  std::vector<float> biases(comps);
  for (std::size_t c = 0; c < comps; ++c) {
    means[c].resize(dim);
    vars[c].resize(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      means[c][d] = static_cast<float>(rng.uniform(-1.0, 1.0));
      vars[c][d] = static_cast<float>(rng.uniform(0.1, 2.0));
    }
    biases[c] = static_cast<float>(rng.uniform(-1.0, 0.0));
    builder.add(means[c], vars[c], biases[c]);
  }
  const BatchedGaussians bg = builder.build();
  EXPECT_EQ(bg.num_components(), comps);
  EXPECT_GT(bg.flops_per_frame(), 0.0);

  const util::Matrix x = random_matrix(frames, dim, rng);
  util::Matrix scores;
  bg.score(x, scores);
  ASSERT_EQ(scores.rows(), frames);
  ASSERT_EQ(scores.cols(), comps);
  for (std::size_t t = 0; t < frames; ++t) {
    for (std::size_t c = 0; c < comps; ++c) {
      double quad = 0.0, log_det = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double diff = x(t, d) - means[c][d];
        quad += diff * diff / vars[c][d];
        log_det += std::log(static_cast<double>(vars[c][d]));
      }
      const double want =
          biases[c] -
          0.5 * (static_cast<double>(dim) * std::log(2.0 * std::numbers::pi) +
                 log_det + quad);
      EXPECT_NEAR(scores(t, c), want, 2e-3) << "t=" << t << " c=" << c;
    }
  }
}

TEST(LaKernels, LogsumexpSegmentsMatchesPerSegmentReference) {
  const std::vector<float> row = {0.0f, 1.0f, -1.0f, 2.0f, 0.5f, -0.5f};
  const std::vector<std::size_t> seg = {0, 2, 2, 6};  // includes empty segment
  std::vector<float> out(3);
  logsumexp_segments(row, seg, out);
  EXPECT_NEAR(out[0], std::log(std::exp(0.0) + std::exp(1.0)), 1e-5);
  EXPECT_EQ(out[1], -std::numeric_limits<float>::infinity());
  double s = 0.0;
  for (std::size_t i = 2; i < 6; ++i) s += std::exp(static_cast<double>(row[i]));
  EXPECT_NEAR(out[2], std::log(s), 1e-5);
}

// The determinism contract: identical bits regardless of thread count.
TEST(LaKernels, GemmBitIdenticalAcrossThreadCounts) {
  util::Rng rng(17);
  // Big enough to cross the parallelisation threshold and span many tiles.
  const util::Matrix a = random_matrix(129, 65, rng);
  const util::Matrix b = random_matrix(65, 43, rng);
  const util::Matrix bt = random_matrix(43, 65, rng);
  const util::Matrix g = random_matrix(129, 43, rng);  // same rows as a

  util::Matrix serial_nn, serial_nt, serial_tn;
  gemm(a, b, serial_nn, nullptr);
  gemm_nt(a, bt, serial_nt, {}, Epilogue::kNone, nullptr);
  gemm_tn(a, g, serial_tn, 1.0f, false, nullptr);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    util::Matrix c_nn, c_nt, c_tn;
    gemm(a, b, c_nn, &pool);
    gemm_nt(a, bt, c_nt, {}, Epilogue::kNone, &pool);
    gemm_tn(a, g, c_tn, 1.0f, false, &pool);
    for (std::size_t i = 0; i < serial_nn.rows(); ++i) {
      for (std::size_t j = 0; j < serial_nn.cols(); ++j) {
        ASSERT_EQ(c_nn(i, j), serial_nn(i, j)) << threads << " threads";
      }
    }
    for (std::size_t i = 0; i < serial_nt.rows(); ++i) {
      for (std::size_t j = 0; j < serial_nt.cols(); ++j) {
        ASSERT_EQ(c_nt(i, j), serial_nt(i, j)) << threads << " threads";
      }
    }
    for (std::size_t i = 0; i < serial_tn.rows(); ++i) {
      for (std::size_t j = 0; j < serial_tn.cols(); ++j) {
        ASSERT_EQ(c_tn(i, j), serial_tn(i, j)) << threads << " threads";
      }
    }
  }
}

TEST(LaKernels, BatchedGaussianBitIdenticalAcrossThreadCounts) {
  util::Rng rng(18);
  const std::size_t dim = 20;
  BatchedGaussians::Builder builder(dim, 8);
  std::vector<float> mean(dim), var(dim);
  for (std::size_t c = 0; c < 8; ++c) {
    for (std::size_t d = 0; d < dim; ++d) {
      mean[d] = static_cast<float>(rng.uniform(-1.0, 1.0));
      var[d] = static_cast<float>(rng.uniform(0.5, 1.5));
    }
    builder.add(mean, var);
  }
  const BatchedGaussians bg = builder.build();
  const util::Matrix x = random_matrix(300, dim, rng);
  util::Matrix serial;
  bg.score(x, serial, nullptr);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    util::Matrix scores;
    bg.score(x, scores, &pool);
    for (std::size_t t = 0; t < serial.rows(); ++t) {
      for (std::size_t c = 0; c < serial.cols(); ++c) {
        ASSERT_EQ(scores(t, c), serial(t, c)) << threads << " threads";
      }
    }
  }
}

TEST(LaKernels, ShapeMismatchThrows) {
  util::Matrix a(2, 3), b(4, 5), c;
  EXPECT_THROW(gemm(a, b, c), std::invalid_argument);
  EXPECT_THROW(gemm_nt(a, b, c), std::invalid_argument);
  EXPECT_THROW(gemm_tn(a, b, c), std::invalid_argument);
  util::Matrix b2(3, 4), wrong(7, 7);
  EXPECT_THROW(gemm_tn(a, a, wrong, 1.0f, /*accumulate=*/true),
               std::invalid_argument);
}

// ---- bit identity with the scalar tile loops ------------------------------
//
// The library's SIMD kernels promise the bits of the scalar tile loops they
// replaced: the same k order per output and the same zero skips.  These
// are those loops, kept as the reference (their row memsets written as
// fill_n, which is defined for the empty rows of a 0-column C); every
// output is compared with memcmp.
namespace scalar {

constexpr std::size_t kPanelK = 128;

void gemm_nn_tile(const util::Matrix& a, const util::Matrix& b,
                  util::Matrix& c, std::size_t r0, std::size_t r1) {
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t i = r0; i < r1; ++i) {
    float* __restrict__ ci = c.row(i).data();
    std::fill_n(ci, n, 0.0f);
    const float* __restrict__ ai = a.row(i).data();
    for (std::size_t kb = 0; kb < k; kb += kPanelK) {
      const std::size_t ke = std::min(k, kb + kPanelK);
      for (std::size_t kk = kb; kk < ke; ++kk) {
        const float aik = ai[kk];
        if (aik == 0.0f) continue;
        const float* __restrict__ bk = b.row(kk).data();
        for (std::size_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
      }
    }
  }
}

float dot8(const float* __restrict__ a, const float* __restrict__ b,
           std::size_t n) noexcept {
  float s0 = 0, s1 = 0, s2 = 0, s3 = 0, s4 = 0, s5 = 0, s6 = 0, s7 = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
    s4 += a[i + 4] * b[i + 4];
    s5 += a[i + 5] * b[i + 5];
    s6 += a[i + 6] * b[i + 6];
    s7 += a[i + 7] * b[i + 7];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
}

void apply_epilogue(float* __restrict__ row, std::size_t n,
                    const float* __restrict__ bias, Epilogue ep) {
  switch (ep) {
    case Epilogue::kNone:
      return;
    case Epilogue::kBias:
      for (std::size_t j = 0; j < n; ++j) row[j] += bias[j];
      return;
    case Epilogue::kBiasSigmoid:
      for (std::size_t j = 0; j < n; ++j) row[j] = sigmoid(row[j] + bias[j]);
      return;
  }
}

void gemm_nt_tile(const util::Matrix& a, const util::Matrix& b,
                  util::Matrix& c, std::span<const float> bias, Epilogue ep,
                  std::size_t r0, std::size_t r1) {
  const std::size_t k = a.cols();
  const std::size_t n = b.rows();
  for (std::size_t i = r0; i < r1; ++i) {
    const float* __restrict__ ai = a.row(i).data();
    float* __restrict__ ci = c.row(i).data();
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      ci[j] = dot8(ai, b.row(j).data(), k);
      ci[j + 1] = dot8(ai, b.row(j + 1).data(), k);
      ci[j + 2] = dot8(ai, b.row(j + 2).data(), k);
      ci[j + 3] = dot8(ai, b.row(j + 3).data(), k);
    }
    for (; j < n; ++j) ci[j] = dot8(ai, b.row(j).data(), k);
    apply_epilogue(ci, n, bias.data(), ep);
  }
}

void gemm_tn_tile(const util::Matrix& a, const util::Matrix& b,
                  util::Matrix& c, float alpha, bool accumulate,
                  std::size_t r0, std::size_t r1) {
  const std::size_t k = a.rows();
  const std::size_t n = b.cols();
  for (std::size_t i = r0; i < r1; ++i) {
    if (!accumulate) {
      std::fill_n(c.row(i).data(), n, 0.0f);
    }
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* __restrict__ ak = a.row(kk).data();
    const float* __restrict__ bk = b.row(kk).data();
    for (std::size_t i = r0; i < r1; ++i) {
      const float w = alpha * ak[i];
      if (w == 0.0f) continue;
      float* __restrict__ ci = c.row(i).data();
      for (std::size_t j = 0; j < n; ++j) ci[j] += w * bk[j];
    }
  }
}

// Whole-matrix wrappers.  Rows are independent, so one tile spanning all
// rows gives the bits of any tiling.
util::Matrix gemm(const util::Matrix& a, const util::Matrix& b) {
  util::Matrix c(a.rows(), b.cols());
  gemm_nn_tile(a, b, c, 0, a.rows());
  return c;
}

util::Matrix gemm_nt(const util::Matrix& a, const util::Matrix& b,
                     std::span<const float> bias, Epilogue ep) {
  util::Matrix c(a.rows(), b.rows());
  gemm_nt_tile(a, b, c, bias, ep, 0, a.rows());
  return c;
}

void gemm_tn(const util::Matrix& a, const util::Matrix& b, util::Matrix& c,
             float alpha, bool accumulate) {
  if (!accumulate) c.resize(a.cols(), b.cols());
  gemm_tn_tile(a, b, c, alpha, accumulate, 0, a.cols());
}

}  // namespace scalar

// Uniform values in [-2, 2] with a share of exact zeros (the skipped
// terms), negative zeros and denormals (whose product with alpha = 1/128
// can round to zero, another skip).
util::Matrix skip_matrix(std::size_t rows, std::size_t cols, util::Rng& rng,
                         double zero_share = 0.2) {
  util::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const double u = rng.uniform(0.0, 1.0);
      float v = static_cast<float>(rng.uniform(-2.0, 2.0));
      if (u < zero_share * 0.7) {
        v = 0.0f;
      } else if (u < zero_share * 0.85) {
        v = -0.0f;
      } else if (u < zero_share) {
        v = std::numeric_limits<float>::denorm_min() * (v < 0 ? -3.0f : 5.0f);
      }
      m(i, j) = v;
    }
  }
  return m;
}

std::string shape_name(const char* what, std::size_t m, std::size_t k,
                       std::size_t n) {
  return std::string(what) + " m=" + std::to_string(m) +
         " k=" + std::to_string(k) + " n=" + std::to_string(n);
}

void expect_same_bits(const util::Matrix& got, const util::Matrix& want,
                      const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  if (want.size() == 0 ||
      std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) == 0) {
    return;
  }
  for (std::size_t i = 0; i < want.rows(); ++i) {
    for (std::size_t j = 0; j < want.cols(); ++j) {
      const float gv = got(i, j), wv = want(i, j);
      std::uint32_t g = 0, w = 0;
      std::memcpy(&g, &gv, sizeof g);
      std::memcpy(&w, &wv, sizeof w);
      if (g != w) {
        FAIL() << what << ": first differing element (" << i << ", " << j
               << "): got " << got(i, j) << " (0x" << std::hex << g
               << "), want " << want(i, j) << " (0x" << w << ")";
      }
    }
  }
}

void check_gemm(const util::Matrix& a, const util::Matrix& b,
                const std::string& what) {
  util::Matrix got;
  gemm(a, b, got);
  expect_same_bits(got, scalar::gemm(a, b), what);
}

void check_gemm_nt(const util::Matrix& a, const util::Matrix& b,
                   util::Rng& rng, const std::string& what) {
  std::vector<float> bias(b.rows());
  for (auto& v : bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (const Epilogue ep :
       {Epilogue::kNone, Epilogue::kBias, Epilogue::kBiasSigmoid}) {
    util::Matrix got;
    gemm_nt(a, b, got, bias, ep);
    expect_same_bits(got, scalar::gemm_nt(a, b, bias, ep),
                     what + " epilogue " +
                         std::to_string(static_cast<int>(ep)));
  }
}

void check_gemm_tn(const util::Matrix& a, const util::Matrix& b,
                   util::Rng& rng, const std::string& what) {
  for (const float alpha : {1.0f, 1.0f / 128.0f, -0.3f}) {
    const std::string mode = what + " alpha=" + std::to_string(alpha);
    util::Matrix got, want;
    gemm_tn(a, b, got, alpha);
    scalar::gemm_tn(a, b, want, alpha, false);
    expect_same_bits(got, want, mode);

    util::Matrix seed = skip_matrix(a.cols(), b.cols(), rng);
    util::Matrix got_acc = seed, want_acc = seed;
    gemm_tn(a, b, got_acc, alpha, /*accumulate=*/true);
    scalar::gemm_tn(a, b, want_acc, alpha, true);
    expect_same_bits(got_acc, want_acc, mode + " accumulate");
  }
}

// Sizes around every block edge of the kernels: rows in blocks of 4 and
// tiles of kRowTile, columns in blocks of 8 (gemm, gemm_tn) or B rows in
// fours (gemm_nt), k in dot8's lanes of 8 and panels of 128.
constexpr std::size_t kTailRows[] = {0, 1, 3, 4, 5, 33, 70};
constexpr std::size_t kTailCols[] = {0, 1, 3, 7, 8, 9, 17};
constexpr std::size_t kTailInner[] = {0, 1,  2,  3,  4,   5,   6,  7,
                                      8, 9,  15, 17, 127, 130, 263};

TEST(LaKernels, SimdKernelsMatchScalarLoopsAtEveryTail) {
  util::Rng rng(19);
  for (std::size_t m : kTailRows) {
    for (std::size_t k : kTailInner) {
      for (std::size_t n : kTailCols) {
        const util::Matrix a = skip_matrix(m, k, rng);
        check_gemm(a, skip_matrix(k, n, rng), shape_name("gemm", m, k, n));
        check_gemm_nt(a, skip_matrix(n, k, rng), rng,
                      shape_name("gemm_nt", m, k, n));
        check_gemm_tn(skip_matrix(k, m, rng), skip_matrix(k, n, rng), rng,
                      shape_name("gemm_tn", m, k, n));
      }
    }
  }
}

TEST(LaKernels, DotMatchesScalarDot8Bits) {
  util::Rng rng(20);
  for (std::size_t n = 0; n <= 40; ++n) {
    const util::Matrix x = skip_matrix(2, n, rng);
    const float got = dot(x.row(0), x.row(1));
    const float want = scalar::dot8(x.row(0).data(), x.row(1).data(), n);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << "n=" << n;
  }
}

// The shapes the pipeline runs at quick scale: NN front-end training
// (batch 128, 195 stacked inputs, 32 hidden units, 48-66 states; the DNN
// has two hidden layers), the GMM-HMM scorer's [X | X^2] block against 102
// and 144 components, and GMM EM / fusion-backend statistics (a few
// columns of posteriors over thousands of frames).
TEST(LaKernels, SimdKernelsMatchScalarLoopsAtPipelineShapes) {
  util::Rng rng(21);
  const std::size_t batch = 128;
  // Forward: 128 x 195 -> 32 -> 66, and the DNN's 32 -> 32 -> 51.
  const std::size_t forward[][2] = {{195, 32}, {32, 66}, {32, 32}, {32, 51}};
  for (const auto& [in, out] : forward) {
    check_gemm_nt(skip_matrix(batch, in, rng, 0.0), skip_matrix(out, in, rng, 0.0),
                  rng, shape_name("forward", batch, in, out));
  }
  // Weight gradients: (1/128) delta^T acts, C of 32 x 195, 66 x 32,
  // 32 x 32 and 51 x 32.
  const std::size_t grads[][2] = {{32, 195}, {66, 32}, {32, 32}, {51, 32}};
  for (const auto& [out, in] : grads) {
    check_gemm_tn(skip_matrix(batch, out, rng, 0.0),
                  skip_matrix(batch, in, rng, 0.0), rng,
                  shape_name("gradient", out, batch, in));
  }
  // Backprop: delta W, 128 x 66 . 66 x 32 and the DNN's layers.
  const std::size_t backprop[][2] = {{66, 32}, {51, 32}, {32, 32}};
  for (const auto& [out, in] : backprop) {
    check_gemm(skip_matrix(batch, out, rng, 0.0), skip_matrix(out, in, rng, 0.0),
               shape_name("backprop", batch, out, in));
  }
  // Batched Gaussians: a 256-frame block of [X | X^2] (78 columns).
  for (const std::size_t comps : {102u, 144u}) {
    check_gemm_nt(skip_matrix(256, 78, rng, 0.0), skip_matrix(comps, 78, rng, 0.0),
                  rng, shape_name("gaussians", 256, 78, comps));
  }
  // GMM EM and backend statistics: gamma^T frames with m = 2..6 and K in
  // the thousands; posteriors that underflowed are exact zeros.
  for (std::size_t m = 2; m <= 6; ++m) {
    for (const std::size_t k : {1000u, 2731u}) {
      check_gemm_tn(skip_matrix(k, m, rng, 0.3), skip_matrix(k, 39, rng, 0.0),
                    rng, shape_name("statistics", m, k, 39));
    }
  }
}

// A zero weight skips its term: an inf opposite it in B must not turn the
// output into NaN, and a -0 accumulator must stay -0.
TEST(LaKernels, ZeroWeightsSkipInfinitiesAndKeepNegativeZero) {
  util::Rng rng(22);
  const float inf = std::numeric_limits<float>::infinity();
  for (const std::size_t m : {3u, 8u, 37u}) {
    for (const std::size_t k : {5u, 16u, 131u}) {
      for (const std::size_t n : {4u, 8u, 19u}) {
        // gemm: A column 1 is zero and B row 1 is +-inf.
        util::Matrix a = skip_matrix(m, k, rng);
        util::Matrix b = skip_matrix(k, n, rng);
        for (std::size_t i = 0; i < m; ++i) a(i, 1) = i % 2 ? -0.0f : 0.0f;
        for (std::size_t j = 0; j < n; ++j) b(1, j) = j % 2 ? -inf : inf;
        const util::Matrix want = scalar::gemm(a, b);
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_FALSE(std::isnan(want.data()[i]));
        }
        check_gemm(a, b, shape_name("gemm inf", m, k, n));

        // gemm_tn: A row 1 is zero opposite B's inf row; C row 0 gets only
        // zero weights, so its -0 accumulator must survive.
        util::Matrix at = skip_matrix(k, m, rng);
        for (std::size_t i = 0; i < m; ++i) at(1, i) = 0.0f;
        for (std::size_t kk = 0; kk < k; ++kk) at(kk, 0) = -0.0f;
        util::Matrix c(m, n, -0.0f), c_want(m, n, -0.0f);
        gemm_tn(at, b, c, 1.0f / 128.0f, /*accumulate=*/true);
        scalar::gemm_tn(at, b, c_want, 1.0f / 128.0f, true);
        for (std::size_t i = 0; i < c_want.size(); ++i) {
          ASSERT_FALSE(std::isnan(c_want.data()[i]));
        }
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_TRUE(std::signbit(c(0, j)) && c(0, j) == 0.0f);
        }
        expect_same_bits(c, c_want, shape_name("gemm_tn inf", m, k, n));
      }
    }
  }
}

}  // namespace
}  // namespace phonolid::la
