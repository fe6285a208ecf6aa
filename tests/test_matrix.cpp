#include "util/matrix.h"

#include <gtest/gtest.h>

#include <cmath>

namespace phonolid::util {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_FLOAT_EQ(m(r, c), 1.5f);
  }
  m(1, 2) = -7.0f;
  EXPECT_FLOAT_EQ(m(1, 2), -7.0f);
}

TEST(Matrix, RowSpanIsContiguousView) {
  Matrix m(2, 3);
  m(1, 0) = 1.0f;
  m(1, 1) = 2.0f;
  m(1, 2) = 3.0f;
  auto row = m.row(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_FLOAT_EQ(row[0], 1.0f);
  EXPECT_FLOAT_EQ(row[2], 3.0f);
  row[0] = 9.0f;
  EXPECT_FLOAT_EQ(m(1, 0), 9.0f);
}

TEST(Matrix, ResizeResets) {
  Matrix m(2, 2, 5.0f);
  m.resize(3, 1, 2.0f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 1u);
  EXPECT_FLOAT_EQ(m(2, 0), 2.0f);
}

TEST(Matrix, EqualityOperator) {
  Matrix a(2, 2, 1.0f), b(2, 2, 1.0f), c(2, 2, 2.0f);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(Blas, DotBasic) {
  std::vector<float> a = {1, 2, 3, 4, 5};
  std::vector<float> b = {5, 4, 3, 2, 1};
  EXPECT_FLOAT_EQ(dot(a, b), 5 + 8 + 9 + 8 + 5);
}

TEST(Blas, DotEmpty) {
  std::vector<float> a, b;
  EXPECT_FLOAT_EQ(dot(a, b), 0.0f);
}

TEST(Blas, DotLongVectorMatchesNaive) {
  std::vector<float> a(1003), b(1003);
  double naive = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(std::sin(0.1 * static_cast<double>(i)));
    b[i] = static_cast<float>(std::cos(0.05 * static_cast<double>(i)));
    naive += static_cast<double>(a[i]) * b[i];
  }
  EXPECT_NEAR(dot(a, b), naive, 1e-2);
}

TEST(Blas, MatvecIdentity) {
  Matrix eye(3, 3);
  for (std::size_t i = 0; i < 3; ++i) eye(i, i) = 1.0f;
  std::vector<float> x = {1, 2, 3}, out(3);
  matvec(eye, x, out);
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[1], 2.0f);
  EXPECT_FLOAT_EQ(out[2], 3.0f);
}

TEST(Blas, MatvecRectangular) {
  Matrix a(2, 3);
  // [1 2 3; 4 5 6]
  float v = 1.0f;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = v++;
  }
  std::vector<float> x = {1, 0, -1}, out(2);
  matvec(a, x, out);
  EXPECT_FLOAT_EQ(out[0], -2.0f);
  EXPECT_FLOAT_EQ(out[1], -2.0f);
}

}  // namespace
}  // namespace phonolid::util
