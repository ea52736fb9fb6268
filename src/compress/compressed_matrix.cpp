#include "compress/compressed_matrix.h"

#include "common/assert.h"
#include "parallel/thread_pool.h"

namespace graphite {

CompressedMatrix::CompressedMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), rowStride_(paddedFloats(cols)),
      values_(rows * paddedFloats(cols)),
      masks_(rows * maskWordsFor(cols)), nnz_(rows)
{
}

void
CompressedMatrix::reshape(std::size_t rows, std::size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    rowStride_ = paddedFloats(cols);
    if (values_.size() < rows * rowStride_)
        values_.resize(rows * rowStride_);
    if (masks_.size() < rows * maskWordsFor(cols))
        masks_.resize(rows * maskWordsFor(cols));
    if (nnz_.size() < rows)
        nnz_.resize(rows);
}

void
CompressedMatrix::compressRowFrom(std::size_t r, const Feature *denseRow)
{
    // The padded tail of a dense row is zero, so compressing the padded
    // stride yields the same packed run as compressing just cols_ while
    // keeping every group 16-wide.
    nnz_[r] = static_cast<std::uint32_t>(
        compressRow(denseRow, rowStride_, values(r), mask(r)));
}

void
CompressedMatrix::compressFrom(const DenseMatrix &dense)
{
    GRAPHITE_ASSERT(dense.rows() == rows_ && dense.cols() == cols_,
                    "compress shape mismatch");
    GRAPHITE_ASSERT(dense.rowStride() == rowStride_, "stride mismatch");
    parallelFor(0, rows_, 256,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t r = begin; r < end; ++r)
            compressRowFrom(r, dense.row(r));
    });
}

void
CompressedMatrix::decompressRowTo(std::size_t r, Feature *denseRow) const
{
    decompressRow(values(r), mask(r), rowStride_, denseRow);
}

void
CompressedMatrix::decompressTo(DenseMatrix &dense) const
{
    GRAPHITE_ASSERT(dense.rows() == rows_ && dense.cols() == cols_,
                    "decompress shape mismatch");
    GRAPHITE_ASSERT(dense.rowStride() == rowStride_, "stride mismatch");
    parallelFor(0, rows_, 256,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t r = begin; r < end; ++r)
            decompressRowTo(r, dense.row(r));
    });
}

void
CompressedMatrix::accumulateRow(std::size_t r, Feature factor,
                                Feature *dst) const
{
    accumulateExpanded(values(r), mask(r), rowStride_, factor, dst);
}

std::size_t
CompressedMatrix::linesTouched(std::size_t r) const
{
    const std::size_t valueBytes = nnz_[r] * sizeof(Feature);
    const std::size_t valueLines =
        (valueBytes + kCacheLineBytes - 1) / kCacheLineBytes;
    // Masks for many rows share lines; charge this row's proportional
    // share, at least one line when it has any data.
    const std::size_t maskBytes =
        maskWordsPerRow() * sizeof(std::uint16_t);
    const std::size_t maskLines =
        (maskBytes + kCacheLineBytes - 1) / kCacheLineBytes;
    return valueLines + maskLines;
}

Bytes
CompressedMatrix::compressedTrafficBytes() const
{
    Bytes total = 0;
    for (std::size_t r = 0; r < rows_; ++r)
        total += nnz_[r] * sizeof(Feature);
    total += rows_ * maskWordsPerRow() * sizeof(std::uint16_t);
    return total;
}

Bytes
CompressedMatrix::denseTrafficBytes() const
{
    return static_cast<Bytes>(rows_) * rowStride_ * sizeof(Feature);
}

} // namespace graphite
