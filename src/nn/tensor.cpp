#include "nn/tensor.hpp"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace agua::nn {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::row_vector(const std::vector<double>& values) {
  Matrix m(1, values.size());
  m.data_ = values;
  return m;
}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return {};
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != m.cols_) {
      throw std::invalid_argument("Matrix::from_rows: ragged input");
    }
    m.set_row(r, rows[r]);
  }
  return m;
}

std::vector<double> Matrix::row(std::size_t r) const {
  return {row_data(r), row_data(r) + cols_};
}

void Matrix::set_row(std::size_t r, const std::vector<double>& values) {
  assert(values.size() == cols_);
  std::copy(values.begin(), values.end(), row_data(r));
}

Matrix Matrix::gather_rows(const std::vector<std::size_t>& indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    std::copy(row_data(indices[i]), row_data(indices[i]) + cols_, out.row_data(i));
  }
  return out;
}

Matrix Matrix::slice_rows(std::size_t begin, std::size_t end) const {
  if (begin > end || end > rows_) throw std::invalid_argument("slice_rows: bad range");
  Matrix out(end - begin, cols_);
  std::copy(row_data(begin), row_data(begin) + (end - begin) * cols_, out.row_data(0));
  return out;
}

// The three products below are register-blocked: each output element is
// still the sum of its products in ascending inner index, starting from
// +0.0, so the results are bitwise identical to the plain scalar loops (kept
// as the reference in tests/test_tensor.cpp). Blocking only decides how many
// independent output sums are in flight at once (DESIGN.md §7, rule 4).
namespace {

/// o[0..W) = the sums over ascending k < inner of a[k * lda] * b[k * ldb + j],
/// skipping every k whose a-value is zero: W adjacent output columns of an
/// i-k-j product. The unroll pragma lets GCC keep the W sums in SIMD
/// registers; without it -O2 keeps them in a stack array.
template <std::size_t W>
void skip_zero_block(const double* a, std::size_t lda, const double* b, std::size_t ldb,
                     std::size_t inner, double* o) {
  double acc[W] = {};
  for (std::size_t k = 0; k < inner; ++k) {
    const double ak = a[k * lda];
    if (ak == 0.0) continue;
    const double* bk = b + k * ldb;
#pragma GCC unroll 16
    for (std::size_t j = 0; j < W; ++j) acc[j] += ak * bk[j];
  }
  for (std::size_t j = 0; j < W; ++j) o[j] = acc[j];
}

/// Output columns [j, n) of one i-k-j row: W-wide blocks while they fit,
/// then the rest in halving widths.
template <std::size_t W>
void skip_zero_row(const double* a, std::size_t lda, const double* b, std::size_t ldb,
                   std::size_t inner, std::size_t j, std::size_t n, double* o) {
  for (; j + W <= n; j += W) skip_zero_block<W>(a, lda, b + j, ldb, inner, o + j);
  if constexpr (W > 1) skip_zero_row<W / 2>(a, lda, b, ldb, inner, j, n, o);
}

}  // namespace

Matrix Matrix::matmul(const Matrix& other) const {
  if (cols_ != other.rows_) throw std::invalid_argument("matmul: shape mismatch");
  Matrix out(rows_, other.cols_);
  if (cols_ == 0) return out;  // every sum is empty: the +0.0 fill
  for (std::size_t i = 0; i < rows_; ++i) {
    skip_zero_row<16>(row_data(i), 1, other.data_.data(), other.cols_, cols_, 0, other.cols_,
                      out.row_data(i));
  }
  return out;
}

Matrix Matrix::transpose_matmul(const Matrix& other) const {
  // (this^T * other): this is (m x n), other is (m x p) -> result (n x p).
  // Output row k sums over the m rows, reading column k of this.
  if (rows_ != other.rows_) throw std::invalid_argument("transpose_matmul: shape mismatch");
  Matrix out(cols_, other.cols_);
  if (rows_ == 0) return out;  // every sum is empty: the +0.0 fill
  for (std::size_t k = 0; k < cols_; ++k) {
    skip_zero_row<16>(data_.data() + k, cols_, other.data_.data(), other.cols_, rows_, 0,
                      other.cols_, out.row_data(k));
  }
  return out;
}

Matrix Matrix::matmul_transpose(const Matrix& other) const {
  // (this * other^T): this is (m x n), other is (p x n) -> result (m x p).
  // Four dot products run as independent chains; there is no zero skip.
  if (cols_ != other.cols_) throw std::invalid_argument("matmul_transpose: shape mismatch");
  Matrix out(rows_, other.rows_);
  const std::size_t n = cols_;
  const std::size_t p = other.rows_;
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* a = row_data(i);
    double* o = out.row_data(i);
    std::size_t j = 0;
    for (; j + 4 <= p; j += 4) {
      const double* b0 = other.row_data(j);
      const double* b1 = b0 + n;
      const double* b2 = b1 + n;
      const double* b3 = b2 + n;
      double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        acc0 += a[k] * b0[k];
        acc1 += a[k] * b1[k];
        acc2 += a[k] * b2[k];
        acc3 += a[k] * b3[k];
      }
      o[j] = acc0;
      o[j + 1] = acc1;
      o[j + 2] = acc2;
      o[j + 3] = acc3;
    }
    for (; j < p; ++j) {
      const double* b = other.row_data(j);
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += a[k] * b[k];
      o[j] = acc;
    }
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) out.at(j, i) = at(i, j);
  }
  return out;
}

void Matrix::add(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::sub(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
}

void Matrix::scale(double factor) {
  for (double& x : data_) x *= factor;
}

void Matrix::hadamard(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

void Matrix::fill(double value) {
  for (double& x : data_) x = value;
}

void Matrix::apply(const std::function<double(double)>& fn) {
  for (double& x : data_) x = fn(x);
}

void Matrix::add_row_broadcast(const Matrix& row_vec) {
  assert(row_vec.rows_ == 1 && row_vec.cols_ == cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    double* r = row_data(i);
    for (std::size_t j = 0; j < cols_; ++j) r[j] += row_vec.data_[j];
  }
}

Matrix Matrix::column_sums() const {
  Matrix out(1, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* r = row_data(i);
    for (std::size_t j = 0; j < cols_; ++j) out.data_[j] += r[j];
  }
  return out;
}

double Matrix::sum() const {
  double acc = 0.0;
  for (double x : data_) acc += x;
  return acc;
}

double Matrix::abs_sum() const {
  double acc = 0.0;
  for (double x : data_) acc += std::abs(x);
  return acc;
}

double Matrix::squared_sum() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return acc;
}

void Matrix::xavier_init(common::Rng& rng) {
  const double fan_in = static_cast<double>(rows_ > 0 ? rows_ : 1);
  const double fan_out = static_cast<double>(cols_ > 0 ? cols_ : 1);
  const double limit = std::sqrt(6.0 / (fan_in + fan_out));
  for (double& x : data_) x = rng.uniform(-limit, limit);
}

void Matrix::save(common::BinaryWriter& w) const {
  w.write_u64(rows_);
  w.write_u64(cols_);
  w.write_doubles(data_);
}

Matrix Matrix::load(common::BinaryReader& r) {
  Matrix m;
  m.rows_ = r.read_u64();
  m.cols_ = r.read_u64();
  m.data_ = r.read_doubles();
  // A rows * cols that wraps could match a short data array.
  const bool overflows = m.cols_ != 0 && m.rows_ > SIZE_MAX / m.cols_;
  if (overflows || m.data_.size() != m.rows_ * m.cols_) {
    r.stream().setstate(std::ios::failbit);
    m = Matrix();
  }
  return m;
}

Matrix row_softmax(const Matrix& logits) {
  Matrix out(logits.rows(), logits.cols());
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const double* in = logits.row_data(i);
    double* o = out.row_data(i);
    double m = in[0];
    for (std::size_t j = 1; j < logits.cols(); ++j) m = std::max(m, in[j]);
    double total = 0.0;
    for (std::size_t j = 0; j < logits.cols(); ++j) {
      o[j] = std::exp(in[j] - m);
      total += o[j];
    }
    for (std::size_t j = 0; j < logits.cols(); ++j) o[j] /= total;
  }
  return out;
}

}  // namespace agua::nn
