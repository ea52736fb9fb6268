#include "kernels/aggregation.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/assert.h"
#include "kernels/row_source.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

#if defined(__AVX512F__)
#define GRAPHITE_AGG_AVX512 1
#include <immintrin.h>
#else
#define GRAPHITE_AGG_AVX512 0
#endif

namespace graphite {

AggregationSpec
gcnSpec(const CsrGraph &graph)
{
    const VertexId n = graph.numVertices();
    AggregationSpec spec;
    spec.selfFactors.resize(n);
    spec.edgeFactors.resize(graph.numEdges());
    std::vector<Feature> invSqrt(n);
    for (VertexId v = 0; v < n; ++v) {
        invSqrt[v] = 1.0f / std::sqrt(static_cast<Feature>(
            graph.degree(v) + 1));
    }
    for (VertexId v = 0; v < n; ++v) {
        spec.selfFactors[v] = invSqrt[v] * invSqrt[v];
        for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e)
            spec.edgeFactors[e] = invSqrt[v] * invSqrt[graph.colIdx()[e]];
    }
    return spec;
}

AggregationSpec
sageSpec(const CsrGraph &graph)
{
    const VertexId n = graph.numVertices();
    AggregationSpec spec;
    spec.selfFactors.resize(n);
    spec.edgeFactors.resize(graph.numEdges());
    for (VertexId v = 0; v < n; ++v) {
        const Feature mean = 1.0f / static_cast<Feature>(
            graph.degree(v) + 1);
        spec.selfFactors[v] = mean;
        for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e)
            spec.edgeFactors[e] = mean;
    }
    return spec;
}

AggregationSpec
ginSpec(const CsrGraph &graph, Feature epsilon)
{
    AggregationSpec spec;
    spec.selfFactors.assign(graph.numVertices(), 1.0f + epsilon);
    return spec;
}

AggregationSpec
sumSpec()
{
    return {};
}

AggregationSpec
maxSpec()
{
    AggregationSpec spec;
    spec.reduce = ReduceOp::Max;
    return spec;
}

const char *
validateSpec(const AggregationSpec &spec, const CsrGraph &graph)
{
    if (!spec.edgeFactors.empty() &&
        spec.edgeFactors.size() != graph.numEdges())
        return "edge-factor array length must equal |E|";
    if (!spec.selfFactors.empty() &&
        spec.selfFactors.size() != graph.numVertices())
        return "self-factor array length must equal |V|";
    return nullptr;
}

namespace {

#if GRAPHITE_AGG_AVX512

/**
 * Unmasked AVX-512 ops written as zero-masked ones with every lane
 * selected: the same instruction, but GCC 12's unmasked forms pass an
 * _mm512_undefined_*() operand that raises -Wmaybe-uninitialized once
 * inlined (GCC bug 105593) and so break -Werror builds.
 * @{
 */
constexpr __mmask16 kAllLanes = 0xffff;

inline __m512
maxPs(__m512 a, __m512 b)
{
    return _mm512_maskz_max_ps(kAllLanes, a, b);
}

/** 16 bf16 lanes widened to fp32 (bits shifted into the high half). */
inline __m512
widenBf16x16(const std::uint16_t *src)
{
    const __m256i raw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(src));
    return _mm512_castsi512_ps(_mm512_maskz_slli_epi32(
        kAllLanes, _mm512_maskz_cvtepu16_epi32(kAllLanes, raw), 16));
}
/** @} */

/**
 * Register-resident aggregation for feature vectors of Groups x 16
 * floats: the accumulator a_v lives entirely in zmm registers across all
 * neighbours, exactly what the paper's JIT-specialised kernels achieve
 * with layer-constant code generation. The reduction operator is a
 * template parameter so each (width, op) pair gets its own straight-line
 * kernel, like per-layer JIT output.
 */
template <int Groups, ReduceOp Op>
void
aggregateVertexZmm(const CsrGraph &graph, const DenseMatrix &in, VertexId v,
                   const AggregationSpec &spec, Feature *dst)
{
    __m512 acc[Groups];
    const Feature *self = in.row(v);
    const __m512 selfFactor = _mm512_set1_ps(spec.selfFactor(v));
    for (int g = 0; g < Groups; ++g)
        acc[g] = _mm512_mul_ps(_mm512_loadu_ps(self + g * 16), selfFactor);
    const EdgeId rowEnd = graph.rowEnd(v);
    for (EdgeId e = graph.rowBegin(v); e < rowEnd; ++e) {
        const Feature *src = in.row(graph.colIdx()[e]);
        const __m512 factor = _mm512_set1_ps(spec.edgeFactor(e));
        for (int g = 0; g < Groups; ++g) {
            const __m512 value = _mm512_loadu_ps(src + g * 16);
            if constexpr (Op == ReduceOp::Sum) {
                acc[g] = _mm512_fmadd_ps(value, factor, acc[g]);
            } else {
                acc[g] = maxPs(acc[g], _mm512_mul_ps(value, factor));
            }
        }
    }
    for (int g = 0; g < Groups; ++g)
        _mm512_storeu_ps(dst + g * 16, acc[g]);
}

using VertexKernel = void (*)(const CsrGraph &, const DenseMatrix &,
                              VertexId, const AggregationSpec &, Feature *);

/** Kernel tables indexed by Groups - 1; the JIT-dispatch analogue. */
constexpr VertexKernel kZmmSumKernels[] = {
    aggregateVertexZmm<1, ReduceOp::Sum>,
    aggregateVertexZmm<2, ReduceOp::Sum>,
    aggregateVertexZmm<3, ReduceOp::Sum>,
    aggregateVertexZmm<4, ReduceOp::Sum>,
    aggregateVertexZmm<5, ReduceOp::Sum>,
    aggregateVertexZmm<6, ReduceOp::Sum>,
    aggregateVertexZmm<7, ReduceOp::Sum>,
    aggregateVertexZmm<8, ReduceOp::Sum>,
    aggregateVertexZmm<9, ReduceOp::Sum>,
    aggregateVertexZmm<10, ReduceOp::Sum>,
    aggregateVertexZmm<11, ReduceOp::Sum>,
    aggregateVertexZmm<12, ReduceOp::Sum>,
    aggregateVertexZmm<13, ReduceOp::Sum>,
    aggregateVertexZmm<14, ReduceOp::Sum>,
    aggregateVertexZmm<15, ReduceOp::Sum>,
    aggregateVertexZmm<16, ReduceOp::Sum>,
};
constexpr VertexKernel kZmmMaxKernels[] = {
    aggregateVertexZmm<1, ReduceOp::Max>,
    aggregateVertexZmm<2, ReduceOp::Max>,
    aggregateVertexZmm<3, ReduceOp::Max>,
    aggregateVertexZmm<4, ReduceOp::Max>,
    aggregateVertexZmm<5, ReduceOp::Max>,
    aggregateVertexZmm<6, ReduceOp::Max>,
    aggregateVertexZmm<7, ReduceOp::Max>,
    aggregateVertexZmm<8, ReduceOp::Max>,
    aggregateVertexZmm<9, ReduceOp::Max>,
    aggregateVertexZmm<10, ReduceOp::Max>,
    aggregateVertexZmm<11, ReduceOp::Max>,
    aggregateVertexZmm<12, ReduceOp::Max>,
    aggregateVertexZmm<13, ReduceOp::Max>,
    aggregateVertexZmm<14, ReduceOp::Max>,
    aggregateVertexZmm<15, ReduceOp::Max>,
    aggregateVertexZmm<16, ReduceOp::Max>,
};
constexpr std::size_t kMaxZmmGroups =
    sizeof(kZmmSumKernels) / sizeof(kZmmSumKernels[0]);

#endif // GRAPHITE_AGG_AVX512

/** Generic (any width) scalar-vectorisable fallback. */
void
aggregateVertexGeneric(const CsrGraph &graph, const DenseMatrix &in,
                       VertexId v, const AggregationSpec &spec, Feature *dst)
{
    const std::size_t f = in.cols();
    const Feature *self = in.row(v);
    const Feature sw = spec.selfFactor(v);
    #pragma omp simd
    for (std::size_t c = 0; c < f; ++c)
        dst[c] = sw * self[c];
    const EdgeId rowEnd = graph.rowEnd(v);
    for (EdgeId e = graph.rowBegin(v); e < rowEnd; ++e) {
        const Feature *src = in.row(graph.colIdx()[e]);
        const Feature ew = spec.edgeFactor(e);
        if (spec.reduce == ReduceOp::Sum) {
            #pragma omp simd
            for (std::size_t c = 0; c < f; ++c)
                dst[c] += ew * src[c];
        } else {
            #pragma omp simd
            for (std::size_t c = 0; c < f; ++c)
                dst[c] = std::max(dst[c], ew * src[c]);
        }
    }
}

/**
 * Rows gathered by the vertices at order positions [begin, end): one
 * per neighbour plus the self row. Only walked when the metrics
 * registry is enabled (the aggregation loop itself stays untouched).
 */
std::uint64_t
rowsGathered(const CsrGraph &graph, std::span<const VertexId> order,
             std::size_t begin, std::size_t end)
{
    std::uint64_t rows = 0;
    for (std::size_t i = begin; i < end; ++i) {
        const VertexId v =
            order.empty() ? static_cast<VertexId>(i) : order[i];
        rows += graph.rowEnd(v) - graph.rowBegin(v) + 1;
    }
    return rows;
}

} // namespace

void
aggregateVertex(const CsrGraph &graph, const DenseMatrix &in, VertexId v,
                const AggregationSpec &spec, Feature *dst)
{
#if GRAPHITE_AGG_AVX512
    const std::size_t stride = in.rowStride();
    const std::size_t groups = stride / 16;
    if (groups >= 1 && groups <= kMaxZmmGroups && stride % 16 == 0) {
        const VertexKernel *table = spec.reduce == ReduceOp::Sum
            ? kZmmSumKernels : kZmmMaxKernels;
        table[groups - 1](graph, in, v, spec, dst);
        return;
    }
#endif
    aggregateVertexGeneric(graph, in, v, spec, dst);
}

/**
 * dst[0..f) ⊕= factor * bf16row (expanded to fp32). AVX-512 path
 * expands 16 bf16 lanes per step by a 16-bit shift into the float's
 * high half; accumulation is full fp32.
 */
void
combineBf16Row(const std::uint16_t *src, std::size_t f, Feature factor,
               Feature *dst, ReduceOp reduce)
{
#if GRAPHITE_AGG_AVX512
    if (f % 16 == 0) {
        const __m512 factorVec = _mm512_set1_ps(factor);
        for (std::size_t g = 0; g < f; g += 16) {
            const __m512 values = widenBf16x16(src + g);
            const __m512 acc = _mm512_loadu_ps(dst + g);
            if (reduce == ReduceOp::Sum) {
                _mm512_storeu_ps(dst + g,
                                 _mm512_fmadd_ps(values, factorVec,
                                                 acc));
            } else {
                _mm512_storeu_ps(
                    dst + g,
                    maxPs(acc, _mm512_mul_ps(values, factorVec)));
            }
        }
        return;
    }
#endif
    for (std::size_t c = 0; c < f; ++c) {
        const std::uint32_t bits = static_cast<std::uint32_t>(src[c])
                                   << 16;
        Feature value;
        std::memcpy(&value, &bits, sizeof(value));
        value *= factor;
        dst[c] = reduce == ReduceOp::Sum ? dst[c] + value
                                         : std::max(dst[c], value);
    }
}

void
aggregateVertexBf16(const CsrGraph &graph, const Bf16Matrix &in,
                    VertexId v, const AggregationSpec &spec, Feature *dst,
                    std::size_t width)
{
    // Seed the accumulator with the self term (Sum-combining into zeros
    // yields selfFactor * h_v for either reduce op).
    std::fill(dst, dst + width, 0.0f);
    combineBf16Row(in.row(v), width, spec.selfFactor(v), dst,
                   ReduceOp::Sum);
    for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e) {
        combineBf16Row(in.row(graph.colIdx()[e]), width,
                       spec.edgeFactor(e), dst, spec.reduce);
    }
}

namespace {

/**
 * The one whole-graph aggregation driver: Algorithm 1's dynamically
 * scheduled vertex chunks over any row source (see row_source.h).
 */
template <typename Source>
void
aggregateRows(const CsrGraph &graph, const Source &src, DenseMatrix &out,
              const AggregationSpec &spec, std::span<const VertexId> order,
              const AggregationConfig &config)
{
    const VertexId n = graph.numVertices();
    GRAPHITE_ASSERT(src.rows() == n && out.rows() == n,
                    "feature row count mismatch");
    GRAPHITE_ASSERT(src.cols() == out.cols(), "feature width mismatch");
    GRAPHITE_ASSERT(order.empty() || order.size() == n,
                    "order must cover all vertices");
    checkGather("aggregate", src, graph, spec);

    GRAPHITE_TRACE_SPAN(Source::kAggSpan);
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    static obs::Counter &bytesGathered =
        metrics.counter("agg.bytes_gathered");
    static obs::Counter &flops = metrics.counter("agg.flops");
    const Bytes rowBytes = metrics.enabled() ? src.rowBytes() : 0;

    parallelFor(0, n, config.taskSize,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        GRAPHITE_TRACE_SPAN("agg.block");
        for (std::size_t i = begin; i < end; ++i) {
            const VertexId v =
                order.empty() ? static_cast<VertexId>(i) : order[i];
            src.aggregate(graph, v, spec, out.row(v));
            if (config.prefetchDistance > 0 &&
                i + config.prefetchDistance < end) {
                const std::size_t ahead = i + config.prefetchDistance;
                const VertexId next = order.empty()
                    ? static_cast<VertexId>(ahead) : order[ahead];
                src.prefetch(graph, next, config.prefetchLines);
            }
        }
        if (metrics.enabled()) {
            const std::uint64_t rows =
                rowsGathered(graph, order, begin, end);
            bytesGathered.add(rows * rowBytes);
            flops.add(2 * rows * src.cols());
        }
    });
}

} // namespace

void
aggregate(const CsrGraph &graph, const GatherInput &in, DenseMatrix &out,
          const AggregationSpec &spec, std::span<const VertexId> order,
          const AggregationConfig &config)
{
    withRowSource(in, [&](const auto &src) {
        aggregateRows(graph, src, out, spec, order, config);
    });
}

void
aggregateBasic(const CsrGraph &graph, const DenseMatrix &in,
               DenseMatrix &out, const AggregationSpec &spec,
               std::span<const VertexId> order,
               const AggregationConfig &config)
{
    aggregateRows(graph, DenseRows(in), out, spec, order, config);
}

void
aggregateCompressed(const CsrGraph &graph, const CompressedMatrix &in,
                    DenseMatrix &out, const AggregationSpec &spec,
                    std::span<const VertexId> order,
                    const AggregationConfig &config)
{
    aggregateRows(graph, PackedRows(in), out, spec, order, config);
}

void
aggregateBf16(const CsrGraph &graph, const Bf16Matrix &in,
              DenseMatrix &out, const AggregationSpec &spec,
              std::span<const VertexId> order,
              const AggregationConfig &config)
{
    aggregateRows(graph, Bf16Rows(in), out, spec, order, config);
}

void
aggregateReference(const CsrGraph &graph, const DenseMatrix &in,
                   DenseMatrix &out, const AggregationSpec &spec)
{
    const VertexId n = graph.numVertices();
    for (VertexId v = 0; v < n; ++v) {
        Feature *dst = out.row(v);
        const Feature *self = in.row(v);
        for (std::size_t c = 0; c < in.cols(); ++c)
            dst[c] = spec.selfFactor(v) * self[c];
        for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e) {
            const Feature *src = in.row(graph.colIdx()[e]);
            for (std::size_t c = 0; c < in.cols(); ++c) {
                const Feature value = spec.edgeFactor(e) * src[c];
                dst[c] = spec.reduce == ReduceOp::Sum
                    ? dst[c] + value : std::max(dst[c], value);
            }
        }
    }
}

void
aggregateTransposedPush(const CsrGraph &graph, const DenseMatrix &in,
                        DenseMatrix &out, const AggregationSpec &spec)
{
    GRAPHITE_ASSERT(spec.reduce == ReduceOp::Sum,
                    "push-style transposed aggregation requires sum");
    if (const char *error = validateSpec(spec, graph))
        panic("aggregateTransposedPush: %s", error);
    const VertexId n = graph.numVertices();
    GRAPHITE_ASSERT(in.rows() == n && out.rows() == n, "row mismatch");
    GRAPHITE_ASSERT(in.cols() == out.cols(), "width mismatch");
    const std::size_t cols = in.cols();
    for (VertexId v = 0; v < n; ++v) {
        Feature *dst = out.row(v);
        const Feature *self = in.row(v);
        for (std::size_t c = 0; c < cols; ++c)
            dst[c] = spec.selfFactor(v) * self[c];
    }
    // Scatter pass: edge (v, u) carries factor(v, u) in the forward
    // direction, so it contributes in[v] to out[u] in the transpose.
    for (VertexId v = 0; v < n; ++v) {
        const Feature *src = in.row(v);
        for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e) {
            Feature *dst = out.row(graph.colIdx()[e]);
            const Feature factor = spec.edgeFactor(e);
            for (std::size_t c = 0; c < cols; ++c)
                dst[c] += factor * src[c];
        }
    }
}

} // namespace graphite
