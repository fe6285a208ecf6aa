// Batched compute kernels: the numeric substrate under every hot path.
//
// All heavy linear algebra in phonolid (MLP forward/backward, batched
// Gaussian evaluation, LDA projections, supervector products) funnels into
// the handful of kernels declared here.  Design rules:
//
//  * Deterministic and thread-count independent.  Work is tiled into
//    *fixed-size* row blocks (kRowTile) that are distributed over the
//    thread pool; each output element is produced by exactly one task with
//    a fixed reduction order over k.  No cross-thread reductions, so the
//    result is bit-identical for 1, 2 or 64 threads — and across repeated
//    runs.
//  * Explicit SIMD with the scalar loops' bits.  The three GEMM forms are
//    GCC vector-extension kernels (SSE on x86-64, no -ffast-math) that
//    perform, per output, exactly the IEEE operations of the scalar loops
//    they replaced, in the same order:
//      - gemm / gemm_tn (axpy form): c[i][j] starts at +0 (or the
//        accumulate input) and adds w * b[kk][j] for kk = 0, 1, ... in
//        order, where w = a[i][kk] (gemm) or alpha * a[kk][i] (gemm_tn).
//        A term whose w == 0 is skipped, not added: a -0 sum stays -0,
//        and an inf or NaN in B opposite a zero weight never reaches C.
//        A 4 x 8 block of C stays in registers over k.
//      - gemm_nt / dot: dot8's order.  Lane l sums k = l (mod 8) from +0,
//        the k % 8 tail adds into lane 0 in order, and the lanes combine
//        as ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)).  gemm_nt scores four B
//        rows per pass.
//    tests/test_la_kernels.cpp keeps the scalar loops and compares bits.
//    The contract holds only while no multiply-add is fused: GCC's C++
//    default is -ffp-contract=fast, so a -march with FMA (or -mfma) would
//    contract `c += w * b` and change bits.  The build selects no -march.
//  * Nested-parallelism safe.  Parallel tiles run through
//    util::parallel_for, which uses the thread pool's helping-wait: a
//    caller already running on a pool worker drains queued tiles itself
//    instead of deadlocking.
#pragma once

#include <cstdint>
#include <span>

#include "util/matrix.h"

namespace phonolid::util {
class ThreadPool;
}

namespace phonolid::la {

/// Fixed row-tile size used when parallelising over output rows.  Part of
/// the determinism contract: tile boundaries never depend on the thread
/// count.
inline constexpr std::size_t kRowTile = 32;

/// Per-row epilogue fused into gemm_nt (the MLP forward pass).
enum class Epilogue {
  kNone,        // plain product
  kBias,        // += bias[j]
  kBiasSigmoid, // sigmoid(c + bias[j])
};

/// C = A * B            (A: m x k, B: k x n, C resized to m x n).
/// C may not alias A or B.
void gemm(const util::Matrix& a, const util::Matrix& b, util::Matrix& c,
          util::ThreadPool* pool = nullptr);

/// C = A * B^T [+ bias, + sigmoid]   (A: m x k, B: n x k, C: m x n).
/// `bias` (size n) is required for Epilogue::kBias*.  This is the MLP
/// forward kernel: B holds out x in row-major weights.
void gemm_nt(const util::Matrix& a, const util::Matrix& b, util::Matrix& c,
             std::span<const float> bias = {}, Epilogue ep = Epilogue::kNone,
             util::ThreadPool* pool = nullptr);

/// C (+)= alpha * A^T * B   (A: k x m, B: k x n, C: m x n).
/// With accumulate=false C is resized and overwritten; with true it must
/// already be m x n and is added into.  This is the gradient /
/// sufficient-statistics kernel (delta^T * activations, gamma^T * frames).
void gemm_tn(const util::Matrix& a, const util::Matrix& b, util::Matrix& c,
             float alpha = 1.0f, bool accumulate = false,
             util::ThreadPool* pool = nullptr);

/// Dot product with eight independent accumulator lanes.
[[nodiscard]] float dot(std::span<const float> a,
                        std::span<const float> b) noexcept;

/// y += alpha * x.
void axpy(float alpha, std::span<const float> x, std::span<float> y) noexcept;

/// Numerically stable float sigmoid (the fused epilogue's nonlinearity).
[[nodiscard]] float sigmoid(float x) noexcept;

/// Sparse gather kernels for phonotactic supervectors: index/value pairs
/// against a dense vector indexed by feature id.
[[nodiscard]] float sparse_dot(std::span<const std::uint32_t> idx,
                               std::span<const float> val,
                               std::span<const float> dense) noexcept;
void sparse_axpy(float alpha, std::span<const std::uint32_t> idx,
                 std::span<const float> val, std::span<float> dense) noexcept;

/// Naive reference implementations; tests compare the blocked kernels
/// against these.
namespace ref {
void gemm(const util::Matrix& a, const util::Matrix& b, util::Matrix& c);
void gemm_nt(const util::Matrix& a, const util::Matrix& b, util::Matrix& c,
             std::span<const float> bias = {}, Epilogue ep = Epilogue::kNone);
void gemm_tn(const util::Matrix& a, const util::Matrix& b, util::Matrix& c,
             float alpha = 1.0f, bool accumulate = false);
}  // namespace ref

}  // namespace phonolid::la
