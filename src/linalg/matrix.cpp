#include "linalg/matrix.hpp"

#include <cmath>
#include <sstream>

#include "support/check.hpp"

namespace mfcp {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    MFCP_CHECK(r.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols, 0.0);
}

Matrix Matrix::ones(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols, 1.0);
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 1.0;
  }
  return m;
}

Matrix Matrix::column(std::span<const double> values) {
  Matrix m(values.size(), 1);
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

Matrix Matrix::row(std::span<const double> values) {
  Matrix m(1, values.size());
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

bool Matrix::is_vector() const noexcept {
  return rows_ <= 1 || cols_ <= 1;
}

void Matrix::fill(double value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix Matrix::reshaped(std::size_t rows, std::size_t cols) const {
  MFCP_CHECK(rows * cols == data_.size(),
             "reshape must preserve element count");
  Matrix m = *this;
  m.rows_ = rows;
  m.cols_ = cols;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

Matrix Matrix::col_vector(std::size_t c) const {
  MFCP_CHECK(c < cols_, "column index out of range");
  Matrix v(rows_, 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    v(r, 0) = (*this)(r, c);
  }
  return v;
}

void Matrix::set_col(std::size_t c, const Matrix& v) {
  MFCP_CHECK(c < cols_, "column index out of range");
  MFCP_CHECK(v.size() == rows_, "column vector has wrong length");
  for (std::size_t r = 0; r < rows_; ++r) {
    (*this)(r, c) = v[r];
  }
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  MFCP_CHECK(same_shape(rhs), "shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += rhs.data_[i];
  }
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  MFCP_CHECK(same_shape(rhs), "shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] -= rhs.data_[i];
  }
  return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
  for (auto& x : data_) {
    x *= s;
  }
  return *this;
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[[" : " [");
    for (std::size_t c = 0; c < cols_; ++c) {
      os << (*this)(r, c);
      if (c + 1 < cols_) {
        os << ", ";
      }
    }
    os << (r + 1 < rows_ ? "],\n" : "]]");
  }
  return os.str();
}

Matrix operator+(Matrix lhs, const Matrix& rhs) {
  lhs += rhs;
  return lhs;
}

Matrix operator-(Matrix lhs, const Matrix& rhs) {
  lhs -= rhs;
  return lhs;
}

Matrix operator*(Matrix m, double s) {
  m *= s;
  return m;
}

Matrix operator*(double s, Matrix m) {
  m *= s;
  return m;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  MFCP_CHECK(a.same_shape(b), "shape mismatch in hadamard");
  Matrix out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = a[i] * b[i];
  }
  return out;
}

bool approx_equal(const Matrix& a, const Matrix& b, double tol) {
  if (!a.same_shape(b)) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > tol) {
      return false;
    }
  }
  return true;
}

}  // namespace mfcp
