/**
 * @file
 * The serving path's mean gather: one SW1 kernel (Algorithm 1's
 * vectorised gather-and-reduce with look-ahead prefetch) behind the
 * sampled SAGE-mean rows of InferenceServer::forwardBatch and the
 * full-neighborhood rows the hot-vertex cache stores.
 *
 *   dst = (self + Σ_{i < fanIn} row_i) · 1 / (1 + fanIn)
 *
 * Bitwise contract: every column is summed in the same order — the
 * self row, then the neighbor rows in list order, then one multiply by
 * the scale — in plain float with no fused multiply-add. Vectorising
 * across columns leaves each column's operation sequence untouched, so
 * the result is bitwise the scalar loop's. For a DeltaCsr the list is
 * the base row then the delta chain in insertion order, so an overlay
 * holding zero deltas produces bitwise the same row as its base
 * CsrGraph — the property the serve-layer parity tests pin.
 */

#pragma once

#include <algorithm>
#include <cstddef>

#include "common/types.h"
#include "graph/csr_graph.h"
#include "graph/delta_csr.h"
#include "tensor/dense_matrix.h"

namespace graphite {

/** Prefetch the first @p lines cache lines at @p row. */
inline void
prefetchLines(const void *row, std::size_t lines)
{
    const char *base = static_cast<const char *>(row);
    for (std::size_t l = 0; l < lines; ++l)
        __builtin_prefetch(base + l * kCacheLineBytes, 0, 3);
}

/** Neighbor rows meanGather keeps prefetched ahead of the reduction. */
inline constexpr std::size_t kMeanGatherAhead = 4;

/**
 * dst[0, width) = (self + Σ_{i < fanIn} rowAt(i)) / (1 + fanIn).
 *
 * @p rowAt(i) returns the i-th neighbor row; it is called exactly once
 * per i, in ascending order, so sequential cursors (DeltaCsr::RowView)
 * stay O(1) per row. All lines of each row are prefetched
 * kMeanGatherAhead rows before the row is summed. @p dst must not
 * alias any input row.
 */
template <typename RowAt>
inline void
meanGather(const Feature *self, std::size_t fanIn, RowAt &&rowAt,
           std::size_t width, Feature *dst)
{
    const std::size_t lines =
        (width * sizeof(Feature) + kCacheLineBytes - 1) / kCacheLineBytes;
    const Feature *ahead[kMeanGatherAhead];
    const std::size_t primed = std::min(fanIn, kMeanGatherAhead);
    for (std::size_t i = 0; i < primed; ++i) {
        ahead[i] = rowAt(i);
        prefetchLines(ahead[i], lines);
    }
    #pragma omp simd
    for (std::size_t c = 0; c < width; ++c)
        dst[c] = self[c];
    for (std::size_t i = 0; i < fanIn; ++i) {
        const std::size_t slot = i % kMeanGatherAhead;
        const Feature *row = ahead[slot];
        if (i + kMeanGatherAhead < fanIn) {
            ahead[slot] = rowAt(i + kMeanGatherAhead);
            prefetchLines(ahead[slot], lines);
        }
        #pragma omp simd
        for (std::size_t c = 0; c < width; ++c)
            dst[c] += row[c];
    }
    const float scale = 1.0f / (1.0f + static_cast<float>(fanIn));
    #pragma omp simd
    for (std::size_t c = 0; c < width; ++c)
        dst[c] *= scale;
}

/**
 * Mean-aggregate @p v's full neighborhood (self term included) from
 * @p features into @p dst (features.cols() floats).
 */
void fullMeanRow(const CsrGraph &graph, const DenseMatrix &features,
                 VertexId v, Feature *dst);

/**
 * Overlay variant: the neighbor list is the base row plus @p v's
 * published delta edges. Wait-free with respect to concurrent
 * addEdge() — the delta count is snapshotted once (acquire), so the
 * gather sees a consistent prefix of the chain.
 */
void fullMeanRow(const DeltaCsr &graph, const DenseMatrix &features,
                 VertexId v, Feature *dst);

} // namespace graphite
