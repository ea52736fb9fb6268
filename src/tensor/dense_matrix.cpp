#include "tensor/dense_matrix.h"

#include <cmath>
#include <cstring>

#include "common/rng.h"

namespace graphite {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), rowStride_(paddedFloats(cols)),
      storage_(rows * paddedFloats(cols))
{
}

void
DenseMatrix::resize(std::size_t rows, std::size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    rowStride_ = paddedFloats(cols);
    storage_.resize(rows * rowStride_);
}

void
DenseMatrix::reshape(std::size_t rows, std::size_t cols)
{
    const std::size_t stride = paddedFloats(cols);
    if (rows * stride > storage_.size()) {
        resize(rows, cols);
        return;
    }
    if (rows == rows_ && cols == cols_)
        return;
    // Within capacity: logical contents become unspecified, but the
    // padding tail of every row is re-zeroed so the repo-wide invariant
    // "row padding is zero" (which compressRowFrom and the full-stride
    // aggregation kernels rely on) survives the relayout. All logical
    // writers preserve it thereafter.
    rows_ = rows;
    cols_ = cols;
    rowStride_ = stride;
    if (cols < stride) {
        for (std::size_t r = 0; r < rows; ++r) {
            std::memset(row(r) + cols, 0,
                        (stride - cols) * sizeof(Feature));
        }
    }
}

double
DenseMatrix::sparsity() const
{
    if (rows_ == 0 || cols_ == 0)
        return 0.0;
    std::size_t zeros = 0;
    for (std::size_t r = 0; r < rows_; ++r) {
        const Feature *rowData = row(r);
        for (std::size_t c = 0; c < cols_; ++c)
            zeros += rowData[c] == 0.0f;
    }
    return static_cast<double>(zeros) /
           (static_cast<double>(rows_) * cols_);
}

void
DenseMatrix::fillUniform(float lo, float hi, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t r = 0; r < rows_; ++r) {
        Feature *rowData = row(r);
        for (std::size_t c = 0; c < cols_; ++c)
            rowData[c] = lo + (hi - lo) * rng.uniformFloat();
    }
}

void
DenseMatrix::sparsify(double rate, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t r = 0; r < rows_; ++r) {
        Feature *rowData = row(r);
        for (std::size_t c = 0; c < cols_; ++c) {
            if (rng.uniform() < rate)
                rowData[c] = 0.0f;
        }
    }
}

std::size_t
DenseMatrix::countNonFinite() const
{
    std::size_t bad = 0;
    for (std::size_t r = 0; r < rows_; ++r) {
        const Feature *rowData = row(r);
        for (std::size_t c = 0; c < cols_; ++c)
            bad += std::isfinite(rowData[c]) ? 0 : 1;
    }
    return bad;
}

double
DenseMatrix::maxAbsDiff(const DenseMatrix &other) const
{
    GRAPHITE_ASSERT(rows_ == other.rows_ && cols_ == other.cols_,
                    "shape mismatch");
    double maxDiff = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) {
        const Feature *a = row(r);
        const Feature *b = other.row(r);
        for (std::size_t c = 0; c < cols_; ++c) {
            const double diff = std::fabs(double{a[c]} - double{b[c]});
            if (diff > maxDiff)
                maxDiff = diff;
        }
    }
    return maxDiff;
}

} // namespace graphite
