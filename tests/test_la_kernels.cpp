#include "la/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>
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

TEST(LaKernels, GemvMatchesNaive) {
  util::Rng rng(14);
  for (std::size_t m : kShapes) {
    for (std::size_t n : kShapes) {
      const util::Matrix a = random_matrix(m, n, rng);
      std::vector<float> x(n), y(m), out(m), out_t(n);
      for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (auto& v : y) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      gemv(a, x, out);
      for (std::size_t i = 0; i < m; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < n; ++j) acc += a(i, j) * x[j];
        EXPECT_NEAR(out[i], acc, shape_tolerance(n));
      }
      gemv_t(a, y, out_t);
      for (std::size_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::size_t i = 0; i < m; ++i) acc += a(i, j) * y[i];
        EXPECT_NEAR(out_t[j], acc, shape_tolerance(m));
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

}  // namespace
}  // namespace phonolid::la
