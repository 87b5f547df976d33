// Dense row-major matrix used as the tensor type of the nn substrate.
//
// The networks in this reproduction are small 2-layer MLPs, so a simple
// double-precision row-major matrix is enough to train every controller and
// surrogate in seconds. Its three products are register-blocked yet bitwise
// identical to plain scalar loops (DESIGN.md §7, rule 4).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace agua::nn {

/// A rows x cols matrix of doubles. A single row (1 x n) doubles as a vector.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Build a 1 x n row vector from values.
  static Matrix row_vector(const std::vector<double>& values);

  /// Stack equally sized row vectors into a matrix.
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  double* row_data(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_data(std::size_t r) const { return data_.data() + r * cols_; }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /// Copy of row r as a plain vector.
  std::vector<double> row(std::size_t r) const;

  /// Set row r from a vector of matching width.
  void set_row(std::size_t r, const std::vector<double>& values);

  /// Select a subset of rows (gather), preserving order of `indices`.
  Matrix gather_rows(const std::vector<std::size_t>& indices) const;

  /// Copy of the contiguous row range [begin, end).
  Matrix slice_rows(std::size_t begin, std::size_t end) const;

  /// Matrix product this(rows x cols) * other(cols x n). Each output is the
  /// sum over ascending k from +0.0, skipping every k where this is zero.
  Matrix matmul(const Matrix& other) const;

  /// this^T * other, without materializing the transpose; sums and zero
  /// skip as in matmul.
  Matrix transpose_matmul(const Matrix& other) const;

  /// this * other^T, without materializing the transpose. Each output is the
  /// sum over ascending k from +0.0, with no zero skip.
  Matrix matmul_transpose(const Matrix& other) const;

  Matrix transposed() const;

  /// Elementwise in-place ops.
  void add(const Matrix& other);
  void sub(const Matrix& other);
  void scale(double factor);
  void hadamard(const Matrix& other);
  void fill(double value);
  void apply(const std::function<double(double)>& fn);

  /// Adds the 1 x cols row vector to every row.
  void add_row_broadcast(const Matrix& row_vec);

  /// 1 x cols vector of column sums.
  Matrix column_sums() const;

  /// Frobenius-like reductions.
  double sum() const;
  double abs_sum() const;
  double squared_sum() const;

  /// Xavier/Glorot uniform initialization for a (fan_in x fan_out) weight.
  void xavier_init(common::Rng& rng);

  void save(common::BinaryWriter& w) const;
  /// Reads what save() wrote. A shape whose element count overflows or
  /// disagrees with the data sets the reader's failbit and returns an empty
  /// matrix.
  static Matrix load(common::BinaryReader& r);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Row-wise numerically stable softmax.
Matrix row_softmax(const Matrix& logits);

}  // namespace agua::nn
