/**
 * @file
 * Parallel vectorised aggregation — paper Algorithm 1.
 *
 * Each vertex v gathers the feature vectors of N(v) ∪ {v}, applies the
 * feature-processing function ψ (realised as a per-edge multiplicative
 * factor, which covers both GCN's symmetric normalisation and
 * GraphSAGE-mean's averaging — see Table 2), and reduces element-wise.
 * Output parallelism over vertex chunks needs no synchronisation; chunks
 * are scheduled dynamically to absorb power-law degree skew. The kernel
 * software-prefetches the first two cache lines of feature vectors a
 * configurable distance ahead, and the inner loop is specialised per
 * feature length the way the paper's JIT-assembled kernels are.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/compressed_matrix.h"
#include "graph/csr_graph.h"
#include "graph/reorder.h"
#include "tensor/bf16_matrix.h"
#include "tensor/dense_matrix.h"

namespace graphite {

/**
 * The element-wise reduction operator ⊕ of Algorithm 1. Sum covers GCN
 * and GraphSAGE-mean (Table 2); Max covers pooling-style aggregators.
 * Both initialise the accumulator with the (ψ-processed) self term and
 * fold neighbors in, so no explicit identity element is needed.
 */
enum class ReduceOp : std::uint8_t
{
    Sum,
    Max,
};

/**
 * The feature-processing function ψ as multiplicative factors: one per
 * edge (aligned with the CSR colIdx array) and one per vertex for the
 * self term, plus the reduction operator.
 */
struct AggregationSpec
{
    /** Per-edge factor, or empty for 1.0. */
    std::vector<Feature> edgeFactors;
    /** Per-vertex self-term factor, or empty for 1.0. */
    std::vector<Feature> selfFactors;
    /** Element-wise reduction combining the processed inputs. */
    ReduceOp reduce = ReduceOp::Sum;

    Feature
    edgeFactor(EdgeId e) const
    {
        return edgeFactors.empty() ? 1.0f : edgeFactors[e];
    }

    Feature
    selfFactor(VertexId v) const
    {
        return selfFactors.empty() ? 1.0f : selfFactors[v];
    }
};

/**
 * GCN symmetric normalisation (Table 2): factor(v,u) = 1/sqrt(Dv'·Du')
 * with D' = degree + 1 (the +1 accounts for the self edge).
 */
AggregationSpec gcnSpec(const CsrGraph &graph);

/** GraphSAGE-mean (Table 2): every term weighted by 1/(Dv + 1). */
AggregationSpec sageSpec(const CsrGraph &graph);

/**
 * GIN (Graph Isomorphism Network) aggregation: sum of neighbors plus a
 * (1 + ε)-weighted self term — the maximally-expressive sum aggregator.
 * Fits the ψ formalism with unit edge factors and a constant self
 * factor.
 */
AggregationSpec ginSpec(const CsrGraph &graph, Feature epsilon = 0.0f);

/**
 * Kernel-entry precondition on a spec's factor arrays: a non-empty
 * edge-factor array must have exactly |E| entries (aligned with colIdx)
 * and a non-empty self-factor array exactly |V| — a silently short array
 * would index out of bounds inside the gather loop.
 *
 * @return nullptr when consistent, else a static message.
 */
const char *validateSpec(const AggregationSpec &spec, const CsrGraph &graph);

/** Unweighted sum aggregation (all factors 1). */
AggregationSpec sumSpec();

/** Unweighted element-wise max over N(v) ∪ {v} (pooling aggregator). */
AggregationSpec maxSpec();

/** Tuning knobs of the aggregation kernels. */
struct AggregationConfig
{
    /** Vertices per dynamically-scheduled task (T in Algorithm 1). */
    std::size_t taskSize = 64;
    /** Prefetch distance in vertices (D in Algorithm 1); 0 disables. */
    std::size_t prefetchDistance = 4;
    /**
     * Cache lines prefetched from each upcoming feature vector. The
     * paper empirically uses 2 to avoid saturating the L1 fill buffers.
     */
    std::size_t prefetchLines = 2;
};

/**
 * The stored form a gather reads: fp32, bf16 or mask-compressed rows,
 * each widened to fp32 lanes as it is gathered. Non-owning, and
 * implicitly constructible from each matrix type, so a caller picks
 * the form once and one kernel call serves all three.
 */
struct GatherInput
{
    GatherInput(const DenseMatrix &m) : dense(&m) {}
    GatherInput(const Bf16Matrix &m) : bf16(&m) {}
    GatherInput(const CompressedMatrix &m) : packed(&m) {}

    /** Exactly one of these is set. @{ */
    const DenseMatrix *dense = nullptr;
    const Bf16Matrix *bf16 = nullptr;
    const CompressedMatrix *packed = nullptr;
    /** @} */
};

/**
 * Algorithm 1: out[v, :] = selfFactor(v)·in[v, :] +
 * Σ_{u ∈ N(v)} edgeFactor(v,u)·in[u, :], processed in @p order, with
 * rows gathered from whichever stored form @p in holds. Accumulation
 * is fp32 throughout; compressed input supports sum reduction only.
 * Feeds agg.bytes_gathered with the stored size of each gathered row
 * (4 B/element fp32, 2 bf16, the mean packed size compressed).
 *
 * @param order processing order (Section 4.4), or empty for identity.
 */
void aggregate(const CsrGraph &graph, const GatherInput &in,
               DenseMatrix &out, const AggregationSpec &spec,
               std::span<const VertexId> order = {},
               const AggregationConfig &config = {});

/** aggregate() over fp32 rows — the `basic` kernel of Figure 11. */
void aggregateBasic(const CsrGraph &graph, const DenseMatrix &in,
                    DenseMatrix &out, const AggregationSpec &spec,
                    std::span<const VertexId> order = {},
                    const AggregationConfig &config = {});

/**
 * aggregate() over mask-compressed rows (Section 4.3): each gathered
 * row is expanded on the fly from its packed form.
 */
void aggregateCompressed(const CsrGraph &graph, const CompressedMatrix &in,
                         DenseMatrix &out, const AggregationSpec &spec,
                         std::span<const VertexId> order = {},
                         const AggregationConfig &config = {});

/**
 * aggregate() over bf16 rows: halves feature traffic at reduced
 * precision — the dense-feature counterpart of mask compression (see
 * tensor/bf16_matrix.h).
 */
void aggregateBf16(const CsrGraph &graph, const Bf16Matrix &in,
                   DenseMatrix &out, const AggregationSpec &spec,
                   std::span<const VertexId> order = {},
                   const AggregationConfig &config = {});

/**
 * Serial single-vertex aggregation into @p dst (rowStride-padded):
 * the AGGREGATE building block shared by the fused kernels and the DMA
 * functional model.
 */
void aggregateVertex(const CsrGraph &graph, const DenseMatrix &in,
                     VertexId v, const AggregationSpec &spec, Feature *dst);

/**
 * Serial single-vertex aggregation from bf16 features: gathered rows
 * are widened to fp32 in registers and accumulated into @p dst[0,
 * @p width) — the bf16 counterpart of aggregateVertex, shared by
 * aggregateBf16 and the fused bf16 kernels. @p width must be a
 * multiple of the fp32 row padding (it is never wider than the bf16
 * row stride, so over-reading the source padding is safe).
 */
void aggregateVertexBf16(const CsrGraph &graph, const Bf16Matrix &in,
                         VertexId v, const AggregationSpec &spec,
                         Feature *dst, std::size_t width);

/** Reference scalar implementation used as the test oracle. */
void aggregateReference(const CsrGraph &graph, const DenseMatrix &in,
                        DenseMatrix &out, const AggregationSpec &spec);

/**
 * Push-style transposed aggregation (scatter form), serial:
 * out[u, :] = selfFactor(u)·in[u, :] + Σ_{v : u ∈ N(v)}
 * edgeFactor(v,u)·in[v, :] — i.e. out = Aggᵀ(in) computed by walking
 * the *forward* CSR and scattering each source row to its
 * destinations. This is the natural consumer of a source-blocked input
 * (the backward fusion direction, GEMM→aggregate), but scatter needs
 * write synchronisation to parallelise on a CPU, so the production
 * fused backward commutes the GEMM past the aggregation and stays
 * pull-based instead (see kernels/fused_layer.h); this entry is the
 * oracle the fused path is validated against. Sum reduction only — the
 * backward of a linear aggregation is linear.
 */
void aggregateTransposedPush(const CsrGraph &graph, const DenseMatrix &in,
                             DenseMatrix &out, const AggregationSpec &spec);

} // namespace graphite
