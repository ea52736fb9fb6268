/**
 * @file
 * Row sources: the one axis the aggregation, fused and delayed-halo
 * drivers are generic over (private to src/kernels).
 *
 * A row source is a feature matrix in one stored form — fp32, bf16 or
 * mask-compressed — plus what a gather needs from that form:
 *  - aggregate(): the per-vertex AGGREGATE of Algorithm 1, widened to
 *    fp32 lanes (the zmm kernel table for fp32, in-register widening
 *    for bf16, on-the-fly expansion for packed rows);
 *  - prefetch(): Algorithm 1's look-ahead over an upcoming vertex's
 *    neighbours;
 *  - rowBytes(): the stored bytes of one gathered row, which is what
 *    the bytes_gathered counters add up;
 *  - seed()/combine()/widen() (fp32 and bf16 only): the self term, one
 *    folded neighbour row and a replica copy — the three steps of the
 *    delayed-halo kernel, whose phases split a vertex's gather.
 *
 * Every driver picks its source once per call (withRowSource), so the
 * per-vertex loops are instantiated per stored form with no runtime
 * branch inside them.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/assert.h"
#include "kernels/aggregation.h"
#include "kernels/mean_gather.h"

namespace graphite {

/** dst ⊕= factor · src over @p width fp32 lanes. */
inline void
combineRow(Feature *dst, const Feature *src, Feature factor,
           std::size_t width, ReduceOp op)
{
    if (op == ReduceOp::Sum) {
        #pragma omp simd
        for (std::size_t c = 0; c < width; ++c)
            dst[c] += factor * src[c];
    } else {
        #pragma omp simd
        for (std::size_t c = 0; c < width; ++c)
            dst[c] = std::max(dst[c], factor * src[c]);
    }
}

/**
 * dst[0, width) ⊕= factor · widen(src): a bf16 row folded into fp32
 * lanes (AVX-512 widens 16 lanes per step; defined in aggregation.cpp).
 */
void combineBf16Row(const std::uint16_t *src, std::size_t width,
                    Feature factor, Feature *dst, ReduceOp reduce);

/** Full-precision rows: the zmm kernel table of aggregateVertex. */
class DenseRows
{
  public:
    static constexpr const char *kAggSpan = "agg.basic";

    explicit DenseRows(const DenseMatrix &m) : m_(m)
    {
        GRAPHITE_DCHECK(reinterpret_cast<std::uintptr_t>(m.data()) %
                                kFeatureAlignment == 0,
                        "input features must be cache-line aligned");
    }

    std::size_t rows() const { return m_.rows(); }
    std::size_t cols() const { return m_.cols(); }
    Bytes rowBytes() const { return m_.rowBytes(); }
    bool supports(ReduceOp) const { return true; }

    void
    aggregate(const CsrGraph &graph, VertexId v, const AggregationSpec &spec,
              Feature *dst) const
    {
        aggregateVertex(graph, m_, v, spec, dst);
    }

    void
    prefetch(const CsrGraph &graph, VertexId v, std::size_t lines) const
    {
        for (VertexId u : graph.neighbors(v))
            prefetchLines(m_.row(u), lines);
    }

    void
    seed(VertexId v, Feature factor, Feature *dst, std::size_t width) const
    {
        const Feature *src = m_.row(v);
        #pragma omp simd
        for (std::size_t c = 0; c < width; ++c)
            dst[c] = factor * src[c];
    }

    void
    combine(VertexId u, Feature factor, Feature *dst, std::size_t width,
            ReduceOp op) const
    {
        combineRow(dst, m_.row(u), factor, width, op);
    }

    void
    widen(VertexId u, Feature *dst, std::size_t width) const
    {
        std::memcpy(dst, m_.row(u), width * sizeof(Feature));
    }

  private:
    const DenseMatrix &m_;
};

/** Half-width rows, widened to fp32 in registers as they are gathered. */
class Bf16Rows
{
  public:
    static constexpr const char *kAggSpan = "agg.bf16";

    explicit Bf16Rows(const Bf16Matrix &m)
        : m_(m), width_(paddedFloats(m.cols()))
    {
    }

    std::size_t rows() const { return m_.rows(); }
    std::size_t cols() const { return m_.cols(); }
    /** 2 bytes per element: the halving the byte counters measure. */
    Bytes rowBytes() const { return m_.rowBytes(); }
    bool supports(ReduceOp) const { return true; }

    void
    aggregate(const CsrGraph &graph, VertexId v, const AggregationSpec &spec,
              Feature *dst) const
    {
        aggregateVertexBf16(graph, m_, v, spec, dst, width_);
    }

    /**
     * A bf16 line holds twice the lanes of an fp32 one, so @p lines
     * fp32-equivalent lines take half as many (rounded up).
     */
    void
    prefetch(const CsrGraph &graph, VertexId v, std::size_t lines) const
    {
        for (VertexId u : graph.neighbors(v))
            prefetchLines(m_.row(u), (lines + 1) / 2);
    }

    void
    seed(VertexId v, Feature factor, Feature *dst, std::size_t width) const
    {
        const std::uint16_t *src = m_.row(v);
        #pragma omp simd
        for (std::size_t c = 0; c < width; ++c)
            dst[c] = factor * bf16ToFloat(src[c]);
    }

    void
    combine(VertexId u, Feature factor, Feature *dst, std::size_t width,
            ReduceOp op) const
    {
        combineBf16Row(m_.row(u), width, factor, dst, op);
    }

    void
    widen(VertexId u, Feature *dst, std::size_t width) const
    {
        convertRowFromBf16(m_.row(u), width, dst);
    }

  private:
    const Bf16Matrix &m_;
    /** Fp32 lanes per aggregated row; never wider than the bf16 stride. */
    std::size_t width_;
};

/** Mask-compressed rows (Section 4.3), expanded while gathered. */
class PackedRows
{
  public:
    static constexpr const char *kAggSpan = "agg.compressed";

    explicit PackedRows(const CompressedMatrix &m) : m_(m) {}

    std::size_t rows() const { return m_.rows(); }
    std::size_t cols() const { return m_.cols(); }

    /**
     * Mean stored bytes of one packed row (values + mask): gathered
     * traffic depends on each row's sparsity, so the counters use the
     * matrix-wide average. O(|V|); drivers call it once per entry.
     */
    Bytes
    rowBytes() const
    {
        return m_.rows() > 0 ? m_.compressedTrafficBytes() / m_.rows() : 0;
    }

    /** Expansion accumulates, so only sum reductions are supported. */
    bool supports(ReduceOp op) const { return op == ReduceOp::Sum; }

    void
    aggregate(const CsrGraph &graph, VertexId v, const AggregationSpec &spec,
              Feature *dst) const
    {
        // Start from zero then accumulate so the expanded zeros do not
        // clobber anything.
        std::fill(dst, dst + m_.rowStride(), 0.0f);
        m_.accumulateRow(v, spec.selfFactor(v), dst);
        for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e)
            m_.accumulateRow(graph.colIdx()[e], spec.edgeFactor(e), dst);
    }

    /** The first line of each neighbour's packed values and mask. */
    void
    prefetch(const CsrGraph &graph, VertexId v, std::size_t) const
    {
        for (VertexId u : graph.neighbors(v)) {
            __builtin_prefetch(m_.values(u), 0, 3);
            __builtin_prefetch(m_.mask(u), 0, 3);
        }
    }

  private:
    const CompressedMatrix &m_;
};

/** Call @p fn with the row source matching @p in's stored form. */
template <typename Fn>
void
withRowSource(const GatherInput &in, Fn &&fn)
{
    if (in.packed != nullptr)
        fn(PackedRows(*in.packed));
    else if (in.bf16 != nullptr)
        fn(Bf16Rows(*in.bf16));
    else
        fn(DenseRows(*in.dense));
}

/**
 * Kernel-entry checks shared by every driver: the source supports the
 * reduction and the spec's factor arrays fit the graph.
 */
template <typename Source>
void
checkGather(const char *where, const Source &src, const CsrGraph &graph,
            const AggregationSpec &spec)
{
    GRAPHITE_ASSERT(src.supports(spec.reduce),
                    "compressed aggregation supports sum reduction");
    if (const char *error = validateSpec(spec, graph))
        panic("%s: %s", where, error);
}

} // namespace graphite
