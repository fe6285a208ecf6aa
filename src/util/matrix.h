// Dense row-major matrix storage used throughout phonolid.
//
// Deliberately minimal: contiguous 64-byte-aligned storage and
// bounds-checked accessors in debug builds.  The BLAS is src/la/kernels.h;
// dot() and matvec() below are kept for LDA, whose fused-LLR bits depend on
// their 4-lane summation order.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <span>
#include <vector>

namespace phonolid::util {

using Vec = std::vector<float>;

/// Minimal over-aligned allocator: matrix rows handed to the src/la kernels
/// start on a cache-line boundary, so blocked GEMM tiles never straddle
/// lines and the compiler's vector loads stay aligned.
template <typename T, std::size_t Alignment>
struct AlignedAllocator {
  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0);
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Alignment));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };
  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// 64-byte-aligned float storage (one x86 cache line / AVX-512 vector).
using AlignedVec = std::vector<float, AlignedAllocator<float, 64>>;

/// Row-major dense matrix of float.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  float& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<float> row(std::size_t r) noexcept {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const float> row(std::size_t r) const noexcept {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }

  void resize(std::size_t rows, std::size_t cols, float fill = 0.0f) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
  }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  bool operator==(const Matrix& o) const noexcept {
    return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedVec data_;
};

/// Dot product with four accumulator lanes.
float dot(std::span<const float> a, std::span<const float> b) noexcept;

/// out = A * x  (A: m x n, x: n, out: m).  out may not alias x.
void matvec(const Matrix& a, std::span<const float> x, std::span<float> out) noexcept;

}  // namespace phonolid::util
