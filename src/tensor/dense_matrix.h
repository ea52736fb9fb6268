/**
 * @file
 * Row-major dense matrix with cache-line-aligned, fixed-stride rows.
 *
 * Feature matrices keep a *constant row stride* even when rows are
 * logically compressed (paper Section 4.3): compression saves bandwidth,
 * not footprint, and constant stride preserves O(1) random access to any
 * vertex's feature vector. The stride is padded to a multiple of 16 floats
 * (one cache line) so every row starts cache-line aligned — the layout the
 * aggregation descriptor's S field expresses (Figure 8/9).
 */

#pragma once

#include <span>

#include "common/aligned_buffer.h"
#include "common/types.h"

namespace graphite {

/** Dense float matrix, row-major, 64-byte aligned rows. */
class DenseMatrix
{
  public:
    DenseMatrix() = default;

    /** Allocate rows x cols, zero-initialised. */
    DenseMatrix(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Allocated floats per row (cols rounded up to 16). */
    std::size_t rowStride() const { return rowStride_; }

    /** Bytes per padded row — the descriptor S field. */
    Bytes rowBytes() const { return rowStride_ * sizeof(Feature); }

    Feature *data() { return storage_.data(); }
    const Feature *data() const { return storage_.data(); }

    Feature *
    row(std::size_t r)
    {
        GRAPHITE_DCHECK(r < rows_, "row index out of range");
        return data() + r * rowStride_;
    }

    const Feature *
    row(std::size_t r) const
    {
        GRAPHITE_DCHECK(r < rows_, "row index out of range");
        return data() + r * rowStride_;
    }

    /** Logical (unpadded) row view. */
    std::span<Feature> rowSpan(std::size_t r) { return {row(r), cols_}; }
    std::span<const Feature>
    rowSpan(std::size_t r) const
    {
        return {row(r), cols_};
    }

    Feature &
    at(std::size_t r, std::size_t c)
    {
        GRAPHITE_ASSERT(r < rows_ && c < cols_, "index out of range");
        return row(r)[c];
    }

    Feature
    at(std::size_t r, std::size_t c) const
    {
        GRAPHITE_ASSERT(r < rows_ && c < cols_, "index out of range");
        return row(r)[c];
    }

    /** Zero the whole matrix (including padding). */
    void zero() { storage_.zero(); }

    /** Reallocate to new dimensions, zero-initialised. */
    void resize(std::size_t rows, std::size_t cols);

    /**
     * Redimension without reallocating when the existing storage is
     * large enough; contents become unspecified (only the shape is
     * guaranteed). Grows (and zeroes) when capacity is short. This is
     * the workspace-reuse primitive behind allocation-free steady-state
     * training epochs: a scratch matrix reshaped to the same (or a
     * smaller) footprint keeps its data() pointer stable.
     */
    void reshape(std::size_t rows, std::size_t cols);

    /** Total allocated bytes (padding included). */
    Bytes allocatedBytes() const { return storage_.size() * sizeof(Feature); }

    /**
     * Fraction of logical elements equal to zero — feature sparsity in
     * the paper's sense (Section 2.2).
     */
    double sparsity() const;

    /** Fill with uniform values in [lo, hi) from @p seed. */
    void fillUniform(float lo, float hi, std::uint64_t seed);

    /**
     * Randomly zero each element with probability @p rate (the knob the
     * paper uses to evaluate compression at predefined sparsities).
     */
    void sparsify(double rate, std::uint64_t seed);

    /** Max absolute element-wise difference to @p other (same shape). */
    double maxAbsDiff(const DenseMatrix &other) const;

    /**
     * Count NaN/Inf elements in the logical (unpadded) region — the
     * trainer's numerics sweep for catching divergence escaping the
     * update phase. O(rows x cols); intended for opt-in debugging, not
     * the steady-state hot path.
     */
    std::size_t countNonFinite() const;

    /** True when every logical element is finite. */
    bool allFinite() const { return countNonFinite() == 0; }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t rowStride_ = 0;
    AlignedBuffer<Feature> storage_;
};

/** Floats per cache line; row strides are padded to multiples of this. */
inline constexpr std::size_t kFloatsPerLine =
    kCacheLineBytes / sizeof(Feature);

/** Row stride, in floats, of a @p cols-wide fp32 row padded to lines. */
inline constexpr std::size_t
paddedFloats(std::size_t cols)
{
    return (cols + kFloatsPerLine - 1) / kFloatsPerLine * kFloatsPerLine;
}

} // namespace graphite
