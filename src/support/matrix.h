#ifndef MUGI_SUPPORT_MATRIX_H_
#define MUGI_SUPPORT_MATRIX_H_

/**
 * @file
 * Minimal row-major dense matrix used across the VLP kernels, the
 * quantization substrate and the transformer model.  Deliberately
 * simple: shape + flat storage + bounds-checked element access in
 * debug builds.
 *
 * Thread-safety: externally serialized.  A Matrix is a plain value
 * with no internal locking; concurrent const access is safe, and any
 * writer requires exclusive access (the kernels hand each worker a
 * disjoint row range or a private output tile).
 */

#include <cassert>
#include <cstddef>
#include <vector>

namespace mugi {
namespace support {

/** Row-major dense matrix of T. */
template <typename T>
class Matrix {
  public:
    Matrix() = default;

    /** rows x cols matrix, value-initialized. */
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols)
    {
    }

    /** rows x cols matrix filled with @p fill. */
    Matrix(std::size_t rows, std::size_t cols, T fill)
        : rows_(rows), cols_(cols), data_(rows * cols, fill)
    {
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }

    T&
    at(std::size_t r, std::size_t c)
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    const T&
    at(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    T& operator()(std::size_t r, std::size_t c) { return at(r, c); }
    const T&
    operator()(std::size_t r, std::size_t c) const
    {
        return at(r, c);
    }

    /** Pointer to the first element of row @p r. */
    T* row_data(std::size_t r) { return data_.data() + r * cols_; }
    const T*
    row_data(std::size_t r) const
    {
        return data_.data() + r * cols_;
    }

    std::vector<T>& data() { return data_; }
    const std::vector<T>& data() const { return data_; }

    friend bool
    operator==(const Matrix& a, const Matrix& b)
    {
        return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
               a.data_ == b.data_;
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<T> data_;
};

using MatrixF = Matrix<float>;
using MatrixI = Matrix<int>;

/**
 * C = A * B with float accumulation, plain triple loop: the literal
 * reference tests hold model::linear_batched to, byte for byte.
 */
inline MatrixF
matmul(const MatrixF& a, const MatrixF& b)
{
    assert(a.cols() == b.rows());
    MatrixF c(a.rows(), b.cols(), 0.0f);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const float aik = a.at(i, k);
            if (aik == 0.0f) continue;
            const float* brow = b.row_data(k);
            float* crow = c.row_data(i);
            for (std::size_t j = 0; j < b.cols(); ++j) {
                crow[j] += aik * brow[j];
            }
        }
    }
    return c;
}

}  // namespace support
}  // namespace mugi

#endif  // MUGI_SUPPORT_MATRIX_H_
