/**
 * @file
 * Layer fusion — paper Algorithm 2 and Figure 5.
 *
 * A GNN layer's aggregation is memory-bound and its update (an FC layer)
 * is compute-bound. Running them back-to-back over the whole graph makes
 * the phases alternate between starving the FPUs and starving the memory
 * system, and round-trips the full aggregation matrix a^k through DRAM.
 * The fused kernel instead alternates per *block* of B vertices:
 * aggregate B vertices into a cache-resident block buffer, immediately
 * update that block, move on. Threads drift out of phase naturally (no
 * barrier), so one core's aggregation overlaps another's update
 * (Figure 4), and in inference a^k is never materialised at all
 * (Figure 5c) — a single reusable buffer per thread suffices.
 */

#pragma once

#include <span>

#include "compress/compressed_matrix.h"
#include "kernels/aggregation.h"
#include "tensor/dense_matrix.h"
#include "tensor/gemm_plan.h"

namespace graphite {

/** The update phase: h = act(W·a + b) (paper Table 2's FC + ReLU). */
struct UpdateOp
{
    /** F_in x F_out weight matrix. */
    const DenseMatrix *weights = nullptr;
    /** Optional bias of length F_out. */
    std::span<const Feature> bias = {};
    /** Apply ReLU after the affine transform. */
    bool relu = true;
    /**
     * Optional NN-mode pack of @c weights (GnnLayer's epoch-cached
     * plan). When null, consumers that need the packed form pack once
     * per layer invocation themselves. A supplied plan must have been
     * packed at @c precision.
     */
    const GemmPlan *packedWeights = nullptr;
    /**
     * Precision of the per-block micro-GEMM: Bf16 rounds the weights
     * (at pack time) and the aggregated block rows (at the A pack) to
     * bf16 and accumulates in fp32.
     */
    Precision precision = Precision::Fp32;
};

/** Tuning knobs of the fused kernel (Algorithm 2's constants). */
struct FusedConfig
{
    /** Vertices per block (B): sized so B aggregation rows fit in L2. */
    std::size_t blockSize = 16;
    /** Blocks per dynamically-scheduled task (T). */
    std::size_t blocksPerTask = 4;
    /** Aggregation prefetch knobs (shared with Algorithm 1). */
    AggregationConfig agg;
};

/**
 * Side outputs of a fused forward, each written while its block is
 * still cache-resident.
 */
struct FusedOutputs
{
    /**
     * Training (Figure 5b): the whole |V| x F_in a^k is written out
     * because back-propagation needs it. Null in inference (Figure 5c),
     * where a^k lives only in a per-thread reusable block buffer.
     */
    DenseMatrix *agg = nullptr;
    /**
     * Packs each produced h^k row so the *next* layer reads packed data
     * — the write-side compression where training's ReLU/dropout
     * sparsity pays off. Must be |V| x F_out.
     */
    CompressedMatrix *compressed = nullptr;
    /**
     * Rounds each produced h^k row to bf16 — the write-side conversion
     * that feeds the next layer's bf16 gathers without an extra pass
     * over DRAM. Must be |V| x F_out.
     */
    Bf16Matrix *bf16 = nullptr;
};

/**
 * Fused aggregation + update (Algorithm 2) over any stored form of the
 * input: gathered bf16 or packed rows are widened to fp32 in registers
 * during aggregation, so they never round-trip through a DRAM scratch,
 * and the per-block micro-GEMM runs at the update op's precision.
 * Compressed input supports sum reduction only.
 *
 * @param out      |V| x F_out output features h^k.
 * @param side     optional side outputs (a^k, packed or bf16 h^k).
 * @param order    processing order or empty for identity.
 */
void fusedLayer(const CsrGraph &graph, const GatherInput &in,
                const AggregationSpec &spec, const UpdateOp &update,
                DenseMatrix &out, const FusedOutputs &side = {},
                std::span<const VertexId> order = {},
                const FusedConfig &config = {});

/** fusedLayer() over fp32 rows, persisting a^k into @p aggOut. */
void fusedLayerTraining(const CsrGraph &graph, const DenseMatrix &in,
                        const AggregationSpec &spec, const UpdateOp &update,
                        DenseMatrix &aggOut, DenseMatrix &out,
                        std::span<const VertexId> order = {},
                        const FusedConfig &config = {});

/**
 * fusedLayer() for inference over fp32, bf16 or packed rows, with the
 * named write-side conversion of h^k (see FusedOutputs).
 * @{
 */
void fusedLayerInference(const CsrGraph &graph, const DenseMatrix &in,
                         const AggregationSpec &spec, const UpdateOp &update,
                         DenseMatrix &out,
                         std::span<const VertexId> order = {},
                         const FusedConfig &config = {},
                         Bf16Matrix *outBf16 = nullptr);

void fusedLayerInferenceBf16(const CsrGraph &graph, const Bf16Matrix &in,
                             const AggregationSpec &spec,
                             const UpdateOp &update, DenseMatrix &out,
                             std::span<const VertexId> order = {},
                             const FusedConfig &config = {},
                             Bf16Matrix *outBf16 = nullptr);

void fusedLayerInferenceCompressed(const CsrGraph &graph,
                                   const CompressedMatrix &in,
                                   const AggregationSpec &spec,
                                   const UpdateOp &update, DenseMatrix &out,
                                   CompressedMatrix *outCompressed = nullptr,
                                   std::span<const VertexId> order = {},
                                   const FusedConfig &config = {});
/** @} */

/**
 * Fused backward kernel — Algorithm 2's counterpart for training's
 * second half. The backward of a layer needs dh_prev = Aggᵀ(dz·Wᵀ):
 * naively a full dAgg = dz·Wᵀ matrix is materialised in DRAM and then
 * aggregated over the transposed graph. The fusion direction is
 * reversed relative to the forward (GEMM feeds the aggregation), whose
 * literal blocked form would scatter GEMM output blocks to arbitrary
 * destination rows — parallel scatter needs atomics or striped locks
 * on a CPU (see aggregateTransposedPush, the serial scatter oracle).
 * Instead this kernel exploits that the two operators commute —
 * aggregation is a row-mixing (sparse-left) multiply, the weight GEMM a
 * column-mixing (dense-right) multiply, so Aggᵀ(dz·Wᵀ) = (Aggᵀ dz)·Wᵀ
 * — which restores the forward kernel's pull-shape: per block of B
 * vertices, aggregate dz rows over the transposed CSR into a
 * cache-resident block buffer, then run the `·Wᵀ` micro-GEMM (via the
 * prepacked NT @p weightsNT plan, gemmBlockSerial) from that buffer
 * straight into @p gradIn. The F_out-wide dz block stays L2-resident
 * between the two phases and dAgg is never materialised.
 *
 * @param transposed     transposed graph.
 * @param dz             dL/d(pre-activation), |V| x F_out.
 * @param transposedSpec factors remapped by transposeSpec(); Sum only.
 * @param weightsNT      W packed in NT mode (K=F_out, N=F_in).
 * @param gradIn         dL/dh_prev output, |V| x F_in.
 * @param order          processing order for the transposed graph.
 */
void fusedLayerBackward(const CsrGraph &transposed, const DenseMatrix &dz,
                        const AggregationSpec &transposedSpec,
                        const GemmPlan &weightsNT, DenseMatrix &gradIn,
                        std::span<const VertexId> order = {},
                        const FusedConfig &config = {});

/**
 * Bf16 fused backward: dz is gathered at half width (widened to fp32
 * in registers) and the `·Wᵀ` micro-GEMM consumes the bf16 NT plan.
 * Gradients accumulate in fp32 throughout; only the gathered operands
 * are rounded.
 */
void fusedLayerBackwardBf16(const CsrGraph &transposed,
                            const Bf16Matrix &dz,
                            const AggregationSpec &transposedSpec,
                            const GemmPlan &weightsNT, DenseMatrix &gradIn,
                            std::span<const VertexId> order = {},
                            const FusedConfig &config = {});

/**
 * Unfused reference layer: aggregateBasic over the full graph, then a
 * whole-matrix GEMM update. The `basic` configuration of Figure 11.
 */
void unfusedLayer(const CsrGraph &graph, const DenseMatrix &in,
                  const AggregationSpec &spec, const UpdateOp &update,
                  DenseMatrix &aggOut, DenseMatrix &out,
                  std::span<const VertexId> order = {},
                  const AggregationConfig &config = {});

} // namespace graphite
