#include "la/kernels.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/energy.h"
#include "util/thread_pool.h"

namespace phonolid::la {

namespace {

// Below this many multiply-adds a parallel dispatch costs more than it
// saves; run the tiles inline.  A fixed constant (never derived from the
// thread count), so it cannot affect results either way.
constexpr std::size_t kParallelFlopThreshold = 1 << 17;

// k-panel size for the blocked kernels: one panel of B (kPanelK rows)
// stays resident in L1/L2 while a row tile of C streams over it.
constexpr std::size_t kPanelK = 128;

void check_gemm_shapes(const util::Matrix& a, const util::Matrix& b,
                       std::size_t a_inner, std::size_t b_inner,
                       const char* who) {
  if (a_inner != b_inner) {
    throw std::invalid_argument(std::string(who) + ": inner dim mismatch");
  }
  (void)a;
  (void)b;
}

inline void apply_epilogue(float* __restrict__ row, std::size_t n,
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

// Runs body(tile_begin, tile_end) over [0, rows) in kRowTile chunks,
// in parallel when the total work is worth it.  Tile boundaries are fixed
// by kRowTile alone, and every output row belongs to exactly one tile, so
// scheduling cannot change results.
void for_each_row_tile(std::size_t rows, std::size_t flops,
                       util::ThreadPool* pool,
                       const std::function<void(std::size_t, std::size_t)>& body) {
  if (rows == 0) return;
  const std::size_t tiles = (rows + kRowTile - 1) / kRowTile;
  if (tiles == 1 || flops < kParallelFlopThreshold) {
    for (std::size_t t = 0; t < tiles; ++t) {
      body(t * kRowTile, std::min(rows, (t + 1) * kRowTile));
    }
    return;
  }
  util::ThreadPool& p = pool ? *pool : util::ThreadPool::global();
  util::parallel_for(p, 0, tiles, [&](std::size_t t) {
    body(t * kRowTile, std::min(rows, (t + 1) * kRowTile));
  });
}

// ---- blocked kernels ------------------------------------------------------

// C rows [r0, r1) of C = A * B, axpy form: streams B and C rows
// contiguously; k order fixed (0..k) regardless of tiling.
void gemm_nn_tile(const util::Matrix& a, const util::Matrix& b,
                  util::Matrix& c, std::size_t r0, std::size_t r1) {
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t i = r0; i < r1; ++i) {
    float* __restrict__ ci = c.row(i).data();
    std::memset(ci, 0, n * sizeof(float));
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

// Eight-lane dot product: explicit reassociation into independent
// accumulators lets the compiler vectorise without -ffast-math.
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

// C rows [r0, r1) of C = A * B^T: each element is a dot of two contiguous
// rows.  j is tiled by 4 so a_i stays in registers across four B rows.
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

// C rows [r0, r1) of C (+)= alpha * A^T * B, axpy form over k: for each k,
// row k of B is scaled into the C rows owned by this tile.  k order fixed.
void gemm_tn_tile(const util::Matrix& a, const util::Matrix& b,
                  util::Matrix& c, float alpha, bool accumulate,
                  std::size_t r0, std::size_t r1) {
  const std::size_t k = a.rows();
  const std::size_t n = b.cols();
  for (std::size_t i = r0; i < r1; ++i) {
    if (!accumulate) {
      std::memset(c.row(i).data(), 0, n * sizeof(float));
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

}  // namespace

float sigmoid(float x) noexcept {
  if (x >= 0.0f) {
    return 1.0f / (1.0f + std::exp(-x));
  }
  const float e = std::exp(x);
  return e / (1.0f + e);
}

float dot(std::span<const float> a, std::span<const float> b) noexcept {
  assert(a.size() == b.size());
  return dot8(a.data(), b.data(), a.size());
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) noexcept {
  assert(x.size() == y.size());
  const float* __restrict__ xp = x.data();
  float* __restrict__ yp = y.data();
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) yp[i] += alpha * xp[i];
}

void gemv(const util::Matrix& a, std::span<const float> x,
          std::span<float> out) noexcept {
  assert(x.size() == a.cols() && out.size() == a.rows());
  obs::Energy::charge_flops(2.0 * static_cast<double>(a.rows()) *
                            static_cast<double>(a.cols()));
  for (std::size_t r = 0; r < a.rows(); ++r) {
    out[r] = dot8(a.row(r).data(), x.data(), a.cols());
  }
}

void gemv_t(const util::Matrix& a, std::span<const float> x,
            std::span<float> out) noexcept {
  assert(x.size() == a.rows() && out.size() == a.cols());
  obs::Energy::charge_flops(2.0 * static_cast<double>(a.rows()) *
                            static_cast<double>(a.cols()));
  std::memset(out.data(), 0, out.size() * sizeof(float));
  for (std::size_t r = 0; r < a.rows(); ++r) {
    axpy(x[r], a.row(r), out);
  }
}

float sparse_dot(std::span<const std::uint32_t> idx, std::span<const float> val,
                 std::span<const float> dense) noexcept {
  const std::size_t nnz = idx.size();
  const std::uint32_t* __restrict__ ip = idx.data();
  const float* __restrict__ vp = val.data();
  const float* __restrict__ dp = dense.data();
  float s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= nnz; i += 4) {
    s0 += vp[i] * dp[ip[i]];
    s1 += vp[i + 1] * dp[ip[i + 1]];
    s2 += vp[i + 2] * dp[ip[i + 2]];
    s3 += vp[i + 3] * dp[ip[i + 3]];
  }
  for (; i < nnz; ++i) s0 += vp[i] * dp[ip[i]];
  return (s0 + s1) + (s2 + s3);
}

void sparse_axpy(float alpha, std::span<const std::uint32_t> idx,
                 std::span<const float> val, std::span<float> dense) noexcept {
  const std::size_t nnz = idx.size();
  const std::uint32_t* __restrict__ ip = idx.data();
  const float* __restrict__ vp = val.data();
  float* __restrict__ dp = dense.data();
  for (std::size_t i = 0; i < nnz; ++i) dp[ip[i]] += alpha * vp[i];
}

// ---- reference implementations --------------------------------------------

namespace ref {

void gemm(const util::Matrix& a, const util::Matrix& b, util::Matrix& c) {
  check_gemm_shapes(a, b, a.cols(), b.rows(), "gemm");
  c.resize(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < a.cols(); ++kk) acc += a(i, kk) * b(kk, j);
      c(i, j) = acc;
    }
  }
}

void gemm_nt(const util::Matrix& a, const util::Matrix& b, util::Matrix& c,
             std::span<const float> bias, Epilogue ep) {
  check_gemm_shapes(a, b, a.cols(), b.cols(), "gemm_nt");
  c.resize(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < a.cols(); ++kk) acc += a(i, kk) * b(j, kk);
      c(i, j) = acc;
    }
    apply_epilogue(c.row(i).data(), b.rows(), bias.data(), ep);
  }
}

void gemm_tn(const util::Matrix& a, const util::Matrix& b, util::Matrix& c,
             float alpha, bool accumulate) {
  check_gemm_shapes(a, b, a.rows(), b.rows(), "gemm_tn");
  if (!accumulate) {
    c.resize(a.cols(), b.cols());
  } else if (c.rows() != a.cols() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemm_tn: accumulate into mismatched C");
  }
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < a.rows(); ++kk) acc += a(kk, i) * b(kk, j);
      c(i, j) += alpha * acc;
    }
  }
}

}  // namespace ref

// ---- dispatchers -----------------------------------------------------------

void gemm(const util::Matrix& a, const util::Matrix& b, util::Matrix& c,
          util::ThreadPool* pool) {
  obs::Energy::charge_flops(2.0 * static_cast<double>(a.rows()) *
                            static_cast<double>(a.cols()) *
                            static_cast<double>(b.cols()));
  check_gemm_shapes(a, b, a.cols(), b.rows(), "gemm");
  c.resize(a.rows(), b.cols());
  const std::size_t flops = a.rows() * a.cols() * b.cols();
  for_each_row_tile(a.rows(), flops, pool, [&](std::size_t r0, std::size_t r1) {
    gemm_nn_tile(a, b, c, r0, r1);
  });
}

void gemm_nt(const util::Matrix& a, const util::Matrix& b, util::Matrix& c,
             std::span<const float> bias, Epilogue ep, util::ThreadPool* pool) {
  if (ep != Epilogue::kNone && bias.size() != b.rows()) {
    throw std::invalid_argument("gemm_nt: bias size mismatch");
  }
  obs::Energy::charge_flops(2.0 * static_cast<double>(a.rows()) *
                            static_cast<double>(a.cols()) *
                            static_cast<double>(b.rows()));
  check_gemm_shapes(a, b, a.cols(), b.cols(), "gemm_nt");
  c.resize(a.rows(), b.rows());
  const std::size_t flops = a.rows() * a.cols() * b.rows();
  for_each_row_tile(a.rows(), flops, pool, [&](std::size_t r0, std::size_t r1) {
    gemm_nt_tile(a, b, c, bias, ep, r0, r1);
  });
}

void gemm_tn(const util::Matrix& a, const util::Matrix& b, util::Matrix& c,
             float alpha, bool accumulate, util::ThreadPool* pool) {
  obs::Energy::charge_flops(2.0 * static_cast<double>(a.rows()) *
                            static_cast<double>(a.cols()) *
                            static_cast<double>(b.cols()));
  check_gemm_shapes(a, b, a.rows(), b.rows(), "gemm_tn");
  if (!accumulate) {
    c.resize(a.cols(), b.cols());
  } else if (c.rows() != a.cols() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemm_tn: accumulate into mismatched C");
  }
  const std::size_t flops = a.rows() * a.cols() * b.cols();
  for_each_row_tile(a.cols(), flops, pool, [&](std::size_t r0, std::size_t r1) {
    gemm_tn_tile(a, b, c, alpha, accumulate, r0, r1);
  });
}

}  // namespace phonolid::la
