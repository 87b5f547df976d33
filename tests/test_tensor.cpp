#include "nn/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace {

using agua::nn::Matrix;

Matrix random_matrix(std::size_t r, std::size_t c, agua::common::Rng& rng) {
  Matrix m(r, c);
  for (double& x : m.data()) x = rng.uniform(-2.0, 2.0);
  return m;
}

TEST(Tensor, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  m.fill(0.0);
  EXPECT_DOUBLE_EQ(m.sum(), 0.0);
}

TEST(Tensor, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::from_rows({{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Tensor, MatmulKnownValues) {
  const Matrix a = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const Matrix b = Matrix::from_rows({{5.0, 6.0}, {7.0, 8.0}});
  const Matrix c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
}

TEST(Tensor, MatmulShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(a.matmul(b), std::invalid_argument);
}

TEST(Tensor, TransposeMatmulMatchesExplicit) {
  agua::common::Rng rng(5);
  const Matrix a = random_matrix(4, 3, rng);
  const Matrix b = random_matrix(4, 5, rng);
  const Matrix fast = a.transpose_matmul(b);
  const Matrix slow = a.transposed().matmul(b);
  ASSERT_EQ(fast.rows(), slow.rows());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast.data()[i], slow.data()[i], 1e-12);
  }
}

TEST(Tensor, MatmulTransposeMatchesExplicit) {
  agua::common::Rng rng(6);
  const Matrix a = random_matrix(4, 3, rng);
  const Matrix b = random_matrix(5, 3, rng);
  const Matrix fast = a.matmul_transpose(b);
  const Matrix slow = a.matmul(b.transposed());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast.data()[i], slow.data()[i], 1e-12);
  }
}

// The scalar loops the blocked kernels replaced, kept as the bitwise
// reference: every output starts from +0.0 and adds its products in
// ascending inner index; the two i-k-j products skip a zero left factor.
Matrix reference_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        if (a.at(i, k) == 0.0) continue;
        acc += a.at(i, k) * b.at(k, j);
      }
      out.at(i, j) = acc;
    }
  }
  return out;
}

Matrix reference_transpose_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.rows(); ++k) {
        if (a.at(k, i) == 0.0) continue;
        acc += a.at(k, i) * b.at(k, j);
      }
      out.at(i, j) = acc;
    }
  }
  return out;
}

Matrix reference_matmul_transpose(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a.at(i, k) * b.at(j, k);
      out.at(i, j) = acc;
    }
  }
  return out;
}

// Shapes that reach full blocks and every tail width: the i-k-j kernels run
// 16-wide blocks, then one block each of 8, 4, 2 and 1 as the columns left
// allow (31 = 16 + 8 + 4 + 2 + 1); matmul_transpose runs 4-wide blocks.
constexpr std::size_t kRows[] = {1, 16, 17};
constexpr std::size_t kInner[] = {1, 48, 96};
constexpr std::size_t kCols[] = {1, 5, 7, 8, 9, 31, 96, 112};

/// Inner indices where the left factor is zero throughout.
bool dead_inner(std::size_t k) { return k % 5 == 2; }

/// Left factor entry at inner index k and flat position n: exact +0.0 and
/// -0.0 scattered everywhere, and nothing else at dead inner indices.
double left_entry(std::size_t k, std::size_t n, agua::common::Rng& rng) {
  const double x = rng.uniform(-2.0, 2.0);
  if (dead_inner(k) || n % 7 == 3) return n % 2 == 0 ? 0.0 : -0.0;
  return x;
}

/// Right factor entry; with `poison`, ±Inf or NaN at dead inner indices, so
/// a product that fails to skip a zero left factor turns non-finite.
double right_entry(std::size_t k, std::size_t n, bool poison, agua::common::Rng& rng) {
  const double x = rng.uniform(-2.0, 2.0);
  if (!poison || !dead_inner(k)) return x;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double values[] = {kInf, -kInf, std::numeric_limits<double>::quiet_NaN()};
  return values[n % 3];
}

void expect_bitwise_equal(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(), got.size() * sizeof(double)), 0);
}

void expect_all_finite(const Matrix& m) {
  for (double x : m.data()) ASSERT_TRUE(std::isfinite(x));
}

TEST(Tensor, MatmulIsBitwiseTheReferenceSum) {
  agua::common::Rng rng(11);
  for (std::size_t rows : kRows) {
    for (std::size_t inner : kInner) {
      for (std::size_t cols : kCols) {
        SCOPED_TRACE(testing::Message() << rows << "x" << inner << " * " << inner << "x" << cols);
        Matrix a(rows, inner);
        for (std::size_t i = 0; i < rows; ++i) {
          for (std::size_t k = 0; k < inner; ++k) a.at(i, k) = left_entry(k, i * inner + k, rng);
        }
        Matrix b(inner, cols);
        for (std::size_t k = 0; k < inner; ++k) {
          for (std::size_t j = 0; j < cols; ++j) b.at(k, j) = right_entry(k, k * cols + j, true, rng);
        }
        const Matrix got = a.matmul(b);
        expect_bitwise_equal(got, reference_matmul(a, b));
        expect_all_finite(got);
      }
    }
  }
}

TEST(Tensor, TransposeMatmulIsBitwiseTheReferenceSum) {
  agua::common::Rng rng(12);
  for (std::size_t rows : kRows) {
    for (std::size_t inner : kInner) {
      for (std::size_t cols : kCols) {
        SCOPED_TRACE(testing::Message() << inner << "x" << rows << "^T * " << inner << "x" << cols);
        Matrix a(inner, rows);
        for (std::size_t k = 0; k < inner; ++k) {
          for (std::size_t i = 0; i < rows; ++i) a.at(k, i) = left_entry(k, k * rows + i, rng);
        }
        Matrix b(inner, cols);
        for (std::size_t k = 0; k < inner; ++k) {
          for (std::size_t j = 0; j < cols; ++j) b.at(k, j) = right_entry(k, k * cols + j, true, rng);
        }
        const Matrix got = a.transpose_matmul(b);
        expect_bitwise_equal(got, reference_transpose_matmul(a, b));
        expect_all_finite(got);
      }
    }
  }
}

// matmul_transpose has no zero skip, so its right factor stays finite.
TEST(Tensor, MatmulTransposeIsBitwiseTheReferenceSum) {
  agua::common::Rng rng(13);
  for (std::size_t rows : kRows) {
    for (std::size_t inner : kInner) {
      for (std::size_t cols : kCols) {
        SCOPED_TRACE(testing::Message() << rows << "x" << inner << " * (" << cols << "x" << inner
                                        << ")^T");
        Matrix a(rows, inner);
        for (std::size_t i = 0; i < rows; ++i) {
          for (std::size_t k = 0; k < inner; ++k) a.at(i, k) = left_entry(k, i * inner + k, rng);
        }
        Matrix b(cols, inner);
        for (std::size_t j = 0; j < cols; ++j) {
          for (std::size_t k = 0; k < inner; ++k) b.at(j, k) = right_entry(k, j * inner + k, false, rng);
        }
        expect_bitwise_equal(a.matmul_transpose(b), reference_matmul_transpose(a, b));
      }
    }
  }
}

// DESIGN.md §7 rule 4: no kernel may fuse a multiply and an add into an FMA.
// x * x needs 61 significant bits, so it rounds. A kernel that fuses the
// second product into the running sum keeps those bits and returns ±2^-60;
// the sum of rounded products returns zero. The expected value rounds each
// product through a volatile, which no build can fuse, so the check holds
// at any -march and does not depend on how the test itself is compiled.
TEST(Tensor, ProductsNeverFuseMultiplyAndAdd) {
  const double x = 1.0 + std::ldexp(1.0, -30);
  volatile double product = x * x;
  volatile double negated = -x * x;
  const double expected = product + negated;
  const Matrix row = Matrix::from_rows({{x, -x}});
  const Matrix column = Matrix::from_rows({{x}, {x}});
  const Matrix column_left = Matrix::from_rows({{x}, {-x}});
  const Matrix row_right = Matrix::from_rows({{x, x}});
  const double results[] = {row.matmul(column).at(0, 0),
                            column_left.transpose_matmul(column).at(0, 0),
                            row.matmul_transpose(row_right).at(0, 0)};
  for (double got : results) {
    EXPECT_EQ(std::memcmp(&got, &expected, sizeof got), 0) << got << " != " << expected;
  }
}

TEST(Tensor, GatherRows) {
  const Matrix m = Matrix::from_rows({{1.0}, {2.0}, {3.0}});
  const Matrix g = m.gather_rows({2, 0});
  EXPECT_DOUBLE_EQ(g.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(g.at(1, 0), 1.0);
}

TEST(Tensor, ElementwiseOps) {
  Matrix a = Matrix::from_rows({{1.0, -2.0}});
  const Matrix b = Matrix::from_rows({{3.0, 4.0}});
  a.add(b);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 4.0);
  a.sub(b);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -2.0);
  a.scale(2.0);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  a.hadamard(b);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -16.0);
  a.apply([](double x) { return x * 0.0 + 1.0; });
  EXPECT_DOUBLE_EQ(a.sum(), 2.0);
}

TEST(Tensor, RowBroadcastAndColumnSums) {
  Matrix m(2, 2, 1.0);
  m.add_row_broadcast(Matrix::row_vector({1.0, 2.0}));
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 3.0);
  const Matrix sums = m.column_sums();
  EXPECT_DOUBLE_EQ(sums.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(sums.at(0, 1), 6.0);
}

TEST(Tensor, Reductions) {
  const Matrix m = Matrix::from_rows({{1.0, -2.0}, {3.0, -4.0}});
  EXPECT_DOUBLE_EQ(m.sum(), -2.0);
  EXPECT_DOUBLE_EQ(m.abs_sum(), 10.0);
  EXPECT_DOUBLE_EQ(m.squared_sum(), 30.0);
}

TEST(Tensor, XavierInitBounded) {
  agua::common::Rng rng(7);
  Matrix m(20, 30);
  m.xavier_init(rng);
  const double limit = std::sqrt(6.0 / 50.0);
  for (double x : m.data()) {
    EXPECT_GE(x, -limit);
    EXPECT_LE(x, limit);
  }
  EXPECT_GT(m.abs_sum(), 0.0);
}

TEST(Tensor, SaveLoadRoundTrip) {
  agua::common::Rng rng(8);
  const Matrix m = random_matrix(3, 4, rng);
  std::stringstream stream;
  agua::common::BinaryWriter w(stream);
  m.save(w);
  agua::common::BinaryReader r(stream);
  const Matrix loaded = Matrix::load(r);
  ASSERT_EQ(loaded.rows(), 3u);
  ASSERT_EQ(loaded.cols(), 4u);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.data()[i], m.data()[i]);
  }
}

// rows * cols = 2^64 wraps to 0, which the empty data array would match.
TEST(Tensor, LoadRejectsOverflowingShape) {
  std::stringstream stream;
  agua::common::BinaryWriter w(stream);
  w.write_u64(std::uint64_t{1} << 33);
  w.write_u64(std::uint64_t{1} << 31);
  w.write_doubles({});
  agua::common::BinaryReader r(stream);
  const Matrix loaded = Matrix::load(r);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(loaded.rows(), 0u);
  EXPECT_EQ(loaded.cols(), 0u);
}

TEST(Tensor, RowSoftmaxRowsSumToOne) {
  const Matrix logits = Matrix::from_rows({{1.0, 2.0, 3.0}, {-10.0, 0.0, 10.0}});
  const Matrix probs = agua::nn::row_softmax(logits);
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < probs.cols(); ++c) {
      total += probs.at(r, c);
      EXPECT_GE(probs.at(r, c), 0.0);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
  EXPECT_GT(probs.at(1, 2), 0.99);
}

}  // namespace
