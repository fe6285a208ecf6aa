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

// k-panel size for the axpy-form kernels: one panel of B (kPanelK rows)
// and the tile's packed A panel stay resident in L1/L2 while the C
// blocks stream over them.
constexpr std::size_t kPanelK = 128;

void check_gemm_shapes(std::size_t a_inner, std::size_t b_inner,
                       const char* who) {
  if (a_inner != b_inner) {
    throw std::invalid_argument(std::string(who) + ": inner dim mismatch");
  }
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

// ---- SIMD kernels ---------------------------------------------------------
//
// Four floats in one vector register (GCC vector extension; SSE on
// x86-64).  Every lane operation is the IEEE operation the scalar loop
// performs on that element, in the same order, so the kernels below
// produce the scalar loops' bits (see kernels.h).  Rows are contiguous
// but only a matrix's first row is vector-aligned, so loads and stores go
// through memcpy (movups).
using v4 = float __attribute__((vector_size(16)));

inline v4 load4(const float* p) noexcept {
  v4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, v4 v) noexcept { std::memcpy(p, &v, sizeof v); }

// Register block of the axpy form: four C rows (c, c + ldc, ...) by eight
// columns.  For kk = 0 .. kn-1 in order, row r gains w[4 kk + r] times the
// eight B values at b + kk ldb.  With kSkipZeros a zero w skips its term,
// as the scalar loop's `continue` does: a -0 sum stays -0, and an inf or
// NaN in B opposite a zero weight never reaches C.  Without it, no w may
// be zero (the caller checks), so no term is skipped either way.
template <bool kSkipZeros>
void axpy_block_4x8(const float* __restrict__ w, const float* __restrict__ b,
                    std::size_t ldb, std::size_t kn, float* __restrict__ c,
                    std::size_t ldc) noexcept {
  v4 c0l = load4(c), c0h = load4(c + 4);
  v4 c1l = load4(c + ldc), c1h = load4(c + ldc + 4);
  v4 c2l = load4(c + 2 * ldc), c2h = load4(c + 2 * ldc + 4);
  v4 c3l = load4(c + 3 * ldc), c3h = load4(c + 3 * ldc + 4);
  for (std::size_t kk = 0; kk < kn; ++kk, w += 4, b += ldb) {
    const v4 bl = load4(b), bh = load4(b + 4);
    if (!kSkipZeros || w[0] != 0.0f) { c0l += w[0] * bl; c0h += w[0] * bh; }
    if (!kSkipZeros || w[1] != 0.0f) { c1l += w[1] * bl; c1h += w[1] * bh; }
    if (!kSkipZeros || w[2] != 0.0f) { c2l += w[2] * bl; c2h += w[2] * bh; }
    if (!kSkipZeros || w[3] != 0.0f) { c3l += w[3] * bl; c3h += w[3] * bh; }
  }
  store4(c, c0l);
  store4(c + 4, c0h);
  store4(c + ldc, c1l);
  store4(c + ldc + 4, c1h);
  store4(c + 2 * ldc, c2l);
  store4(c + 2 * ldc + 4, c2h);
  store4(c + 3 * ldc, c3l);
  store4(c + 3 * ldc + 4, c3h);
}

// C rows [r0, r1) += sum over kk in [0, k) of w(i, kk) * B row kk, the
// axpy form shared by gemm (w = a[i][kk]) and gemm_tn (w = alpha *
// a[kk][i]).  Each output is summed over kk in ascending order, skipping
// zero weights, exactly as the scalar loop
//     for kk: { w = w_at(i, kk); if (w == 0) continue; c[i][:] += w * b[kk][:]; }
// does, starting from C as the caller left it (zeros, or the accumulate
// input).
// Per k-panel the tile's weights are packed four rows at a time (zero for
// rows past r1), and a B column block narrower than eight is packed with
// zero padding; a partial C block runs through a local buffer.
template <typename WeightAt>
void axpy_tile(WeightAt w_at, std::size_t k, const util::Matrix& b,
               util::Matrix& c, std::size_t r0, std::size_t r1) {
  constexpr std::size_t kBlocks = kRowTile / 4;
  const std::size_t n = b.cols();
  const std::size_t rows = r1 - r0;
  alignas(64) float wpack[kBlocks * kPanelK * 4];
  alignas(64) float bpack[kPanelK * 8];
  alignas(64) float cbuf[4 * 8];
  bool has_zero[kBlocks];
  for (std::size_t kb = 0; kb < k; kb += kPanelK) {
    const std::size_t kn = std::min(k, kb + kPanelK) - kb;
    for (std::size_t ib = 0; ib * 4 < rows; ++ib) {
      float* __restrict__ wp = wpack + ib * kPanelK * 4;
      const std::size_t live = std::min<std::size_t>(4, rows - ib * 4);
      bool zero = false;
      for (std::size_t kk = 0; kk < kn; ++kk) {
        for (std::size_t r = 0; r < 4; ++r) {
          const float w = r < live ? w_at(r0 + ib * 4 + r, kb + kk) : 0.0f;
          wp[kk * 4 + r] = w;
          zero |= r < live && w == 0.0f;
        }
      }
      has_zero[ib] = zero;
    }
    for (std::size_t j0 = 0; j0 < n; j0 += 8) {
      const std::size_t cols = std::min<std::size_t>(8, n - j0);
      const float* bp = b.row(kb).data() + j0;
      std::size_t ldb = n;
      if (cols < 8) {
        for (std::size_t kk = 0; kk < kn; ++kk) {
          for (std::size_t j = 0; j < 8; ++j) {
            bpack[kk * 8 + j] = j < cols ? bp[kk * n + j] : 0.0f;
          }
        }
        bp = bpack;
        ldb = 8;
      }
      for (std::size_t ib = 0; ib * 4 < rows; ++ib) {
        const std::size_t i0 = r0 + ib * 4;
        const std::size_t live = std::min<std::size_t>(4, r1 - i0);
        const float* wp = wpack + ib * kPanelK * 4;
        float* cp = c.row(i0).data() + j0;
        std::size_t ldc = n;
        const bool direct = live == 4 && cols == 8;
        if (!direct) {
          for (std::size_t r = 0; r < 4; ++r) {
            for (std::size_t j = 0; j < 8; ++j) {
              cbuf[r * 8 + j] = r < live && j < cols ? cp[r * n + j] : 0.0f;
            }
          }
          cp = cbuf;
          ldc = 8;
        }
        if (has_zero[ib]) {
          axpy_block_4x8<true>(wp, bp, ldb, kn, cp, ldc);
        } else {
          axpy_block_4x8<false>(wp, bp, ldb, kn, cp, ldc);
        }
        if (!direct) {
          float* out = c.row(i0).data() + j0;
          for (std::size_t r = 0; r < live; ++r) {
            std::memcpy(out + r * n, cbuf + r * 8, cols * sizeof(float));
          }
        }
      }
    }
  }
}

// Eight-lane dot product: lane l sums k = l (mod 8), the k % 8 tail goes
// into lane 0 in order, and the lanes combine pairwise in a fixed order.
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

// out[j] = dot8(a, b + j k, k) for j = 0..3: four consecutive B rows, in
// dot8's lane order.  Each (l, h) pair holds one output's lanes 0-3 and
// 4-7.  Transposing the pairs gives s_l = lane l of all four outputs, so
// the k % 8 tail adds into s0 in order and the final
// ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)) is seven vector adds.
void dot8x4(const float* __restrict__ a, const float* __restrict__ b,
            std::size_t k, float* __restrict__ out) noexcept {
  const float* __restrict__ b0 = b;
  const float* __restrict__ b1 = b + k;
  const float* __restrict__ b2 = b + 2 * k;
  const float* __restrict__ b3 = b + 3 * k;
  v4 l0 = {}, h0 = {}, l1 = {}, h1 = {}, l2 = {}, h2 = {}, l3 = {}, h3 = {};
  std::size_t i = 0;
  for (; i + 8 <= k; i += 8) {
    const v4 al = load4(a + i), ah = load4(a + i + 4);
    l0 += al * load4(b0 + i);
    h0 += ah * load4(b0 + i + 4);
    l1 += al * load4(b1 + i);
    h1 += ah * load4(b1 + i + 4);
    l2 += al * load4(b2 + i);
    h2 += ah * load4(b2 + i + 4);
    l3 += al * load4(b3 + i);
    h3 += ah * load4(b3 + i + 4);
  }
  // t_l = {x0[l], x1[l], x2[l], x3[l]}.
  const auto transpose = [](v4 x0, v4 x1, v4 x2, v4 x3, v4& t0, v4& t1,
                            v4& t2, v4& t3) {
    const v4 u0 = __builtin_shufflevector(x0, x1, 0, 4, 1, 5);
    const v4 u1 = __builtin_shufflevector(x2, x3, 0, 4, 1, 5);
    const v4 u2 = __builtin_shufflevector(x0, x1, 2, 6, 3, 7);
    const v4 u3 = __builtin_shufflevector(x2, x3, 2, 6, 3, 7);
    t0 = __builtin_shufflevector(u0, u1, 0, 1, 4, 5);
    t1 = __builtin_shufflevector(u0, u1, 2, 3, 6, 7);
    t2 = __builtin_shufflevector(u2, u3, 0, 1, 4, 5);
    t3 = __builtin_shufflevector(u2, u3, 2, 3, 6, 7);
  };
  v4 s0, s1, s2, s3, s4, s5, s6, s7;
  transpose(l0, l1, l2, l3, s0, s1, s2, s3);
  transpose(h0, h1, h2, h3, s4, s5, s6, s7);
  for (; i < k; ++i) s0 += a[i] * v4{b0[i], b1[i], b2[i], b3[i]};
  store4(out, ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)));
}

// C rows [r0, r1) of C = A * B^T: each element is dot8 of two contiguous
// rows, four B rows per pass so a_i's loads are shared.
void gemm_nt_tile(const util::Matrix& a, const util::Matrix& b,
                  util::Matrix& c, std::span<const float> bias, Epilogue ep,
                  std::size_t r0, std::size_t r1) {
  const std::size_t k = a.cols();
  const std::size_t n = b.rows();
  for (std::size_t i = r0; i < r1; ++i) {
    const float* __restrict__ ai = a.row(i).data();
    float* __restrict__ ci = c.row(i).data();
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) dot8x4(ai, b.row(j).data(), k, ci + j);
    for (; j < n; ++j) ci[j] = dot8(ai, b.row(j).data(), k);
    apply_epilogue(ci, n, bias.data(), ep);
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
  check_gemm_shapes(a.cols(), b.rows(), "gemm");
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
  check_gemm_shapes(a.cols(), b.cols(), "gemm_nt");
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
  check_gemm_shapes(a.rows(), b.rows(), "gemm_tn");
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
  check_gemm_shapes(a.cols(), b.rows(), "gemm");
  c.resize(a.rows(), b.cols());  // zero-filled: every sum starts at +0
  const std::size_t flops = a.rows() * a.cols() * b.cols();
  for_each_row_tile(a.rows(), flops, pool, [&](std::size_t r0, std::size_t r1) {
    axpy_tile([&](std::size_t i, std::size_t kk) { return a(i, kk); },
              a.cols(), b, c, r0, r1);
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
  check_gemm_shapes(a.cols(), b.cols(), "gemm_nt");
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
  check_gemm_shapes(a.rows(), b.rows(), "gemm_tn");
  if (!accumulate) {
    c.resize(a.cols(), b.cols());  // zero-filled: every sum starts at +0
  } else if (c.rows() != a.cols() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemm_tn: accumulate into mismatched C");
  }
  const std::size_t flops = a.rows() * a.cols() * b.cols();
  for_each_row_tile(a.cols(), flops, pool, [&](std::size_t r0, std::size_t r1) {
    axpy_tile([&](std::size_t i, std::size_t kk) { return alpha * a(kk, i); },
              a.rows(), b, c, r0, r1);
  });
}

}  // namespace phonolid::la
