#include "util/matrix.h"

namespace phonolid::util {

float dot(std::span<const float> a, std::span<const float> b) noexcept {
  assert(a.size() == b.size());
  const std::size_t n = a.size();
  // Four accumulators break the dependency chain and let GCC vectorise.
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

void matvec(const Matrix& a, std::span<const float> x, std::span<float> out) noexcept {
  assert(x.size() == a.cols() && out.size() == a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) out[r] = dot(a.row(r), x);
}

}  // namespace phonolid::util
