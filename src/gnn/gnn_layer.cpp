#include "gnn/gnn_layer.h"

#include <cmath>

#include "common/assert.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "kernels/fused_layer.h"
#include "kernels/shard_exec.h"
#include "parallel/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"

namespace graphite {

AggregationSpec
transposeSpec(const CsrGraph &graph, const AggregationSpec &spec,
              const CsrGraph &transposed)
{
    AggregationSpec out;
    out.selfFactors = spec.selfFactors;
    if (spec.edgeFactors.empty())
        return out;
    GRAPHITE_ASSERT(spec.edgeFactors.size() == graph.numEdges(),
                    "edge factor count mismatch");
    out.edgeFactors.resize(graph.numEdges());
    // Walk original edges v->u in the same order CsrGraph::transposed()
    // emits them, so cursor positions line up with the transposed CSR.
    std::vector<EdgeId> cursor(transposed.rowPtr().begin(),
                               transposed.rowPtr().end() - 1);
    const VertexId n = graph.numVertices();
    for (VertexId v = 0; v < n; ++v) {
        for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e) {
            const VertexId u = graph.colIdx()[e];
            out.edgeFactors[cursor[u]++] = spec.edgeFactors[e];
        }
    }
    return out;
}

GnnLayer::GnnLayer(std::size_t inFeatures, std::size_t outFeatures,
                   bool relu)
    : inFeatures_(inFeatures), outFeatures_(outFeatures), relu_(relu),
      weights_(inFeatures, outFeatures), bias_(outFeatures, 0.0f),
      weightGrad_(inFeatures, outFeatures), biasGrad_(outFeatures, 0.0f)
{
}

void
GnnLayer::initWeights(std::uint64_t seed)
{
    const float limit = std::sqrt(
        6.0f / static_cast<float>(inFeatures_ + outFeatures_));
    weights_.fillUniform(-limit, limit, seed);
    std::fill(bias_.begin(), bias_.end(), 0.0f);
    ++weightsVersion_;
}

const GemmPlan &
GnnLayer::packedWeights(Precision precision) const
{
    const auto slot = static_cast<std::size_t>(precision);
    GRAPHITE_ASSERT(slot < kNumPrecisions, "unknown precision");
    MutexLock lock(planMutex_);
    if (weightsAliased_ || packedNNVersion_[slot] != weightsVersion_) {
        packedNN_[slot].pack(GemmMode::NN, weights_, precision);
        packedNNVersion_[slot] = weightsVersion_;
    }
    return packedNN_[slot];
}

const GemmPlan &
GnnLayer::packedWeightsTransposed(Precision precision) const
{
    const auto slot = static_cast<std::size_t>(precision);
    GRAPHITE_ASSERT(slot < kNumPrecisions, "unknown precision");
    MutexLock lock(planMutex_);
    if (weightsAliased_ || packedNTVersion_[slot] != weightsVersion_) {
        packedNT_[slot].pack(GemmMode::NT, weights_, precision);
        packedNTVersion_[slot] = weightsVersion_;
    }
    return packedNT_[slot];
}

namespace {

/**
 * The stored form a layer forward gathers: packed rows win when the
 * compression technique supplies them, then bf16 rows under the Bf16
 * precision technique, else fp32.
 */
GatherInput
chooseInput(const DenseMatrix &in, const CompressedMatrix *inCompressed,
            const Bf16Matrix *inBf16, const TechniqueConfig &tech)
{
    if (tech.compression && inCompressed != nullptr)
        return *inCompressed;
    if (tech.precision == Precision::Bf16 && inBf16 != nullptr)
        return *inBf16;
    return in;
}

/**
 * How a layer walks the graph. A plan with >= 2 shards replaces the
 * caller's order by its shard-major order — exact execution, bitwise
 * equal to flat because no row's result depends on which task computes
 * it. Under tech.delayedHalo the plan is also returned for the replica
 * kernel (fp32/bf16 input only; packed input stays exact).
 */
struct Schedule
{
    std::span<const VertexId> order;
    const PartitionPlan *delayedHalo = nullptr;
};

Schedule
schedule(const CsrGraph &graph, std::span<const VertexId> order,
         const PartitionPlan *plan, const GatherInput &in,
         const TechniqueConfig &tech)
{
    if (plan == nullptr || plan->numShards() < 2)
        return {order, nullptr};
    GRAPHITE_ASSERT(plan->graph == &graph,
                    "partition plan built for another graph");
    const bool delayed = tech.delayedHalo && in.packed == nullptr;
    return {plan->shardMajorOrder, delayed ? plan : nullptr};
}

/** Unfused aggregation of a^k: the replica kernel or the flat one. */
void
aggregateLayer(const CsrGraph &graph, const GatherInput &in,
               DenseMatrix &out, const AggregationSpec &spec,
               const Schedule &sched, const AggregationConfig &config)
{
    if (sched.delayedHalo != nullptr)
        aggregateDelayedHalo(*sched.delayedHalo, in, out, spec, config);
    else
        aggregate(graph, in, out, spec, sched.order, config);
}

} // namespace

void
GnnLayer::updateUnfused(const DenseMatrix &agg, Precision precision,
                        DenseMatrix &out) const
{
    gemm(GemmMode::NN, agg, packedWeights(precision), out);
    if (!bias_.empty())
        addBias(out, bias_);
    if (relu_)
        reluForward(out);
}

void
GnnLayer::forwardInference(const CsrGraph &graph,
                           const AggregationSpec &spec,
                           const DenseMatrix &in,
                           const CompressedMatrix *inCompressed,
                           const Bf16Matrix *inBf16, DenseMatrix &out,
                           CompressedMatrix *outCompressed,
                           Bf16Matrix *outBf16,
                           std::span<const VertexId> order,
                           const PartitionPlan *plan,
                           const TechniqueConfig &tech) const
{
    GRAPHITE_TRACE_SPAN("layer.forward");
    const GatherInput src = chooseInput(in, inCompressed, inBf16, tech);
    const Schedule sched = schedule(graph, order, plan, src, tech);
    // Fusion has no delayed-halo variant (the replica phase breaks the
    // per-block pipeline); delayed runs take the unfused path below.
    if (tech.fusion && sched.delayedHalo == nullptr) {
        const UpdateOp update{&weights_, bias_, relu_,
                              &packedWeights(tech.precision),
                              tech.precision};
        fusedLayer(graph, src, spec, update, out,
                   {.compressed = outCompressed, .bf16 = outBf16},
                   sched.order, tech.fused);
        return;
    }
    // Unfused path: aggregation materialises a^k, then one big GEMM.
    DenseMatrix agg(graph.numVertices(), inFeatures_);
    aggregateLayer(graph, src, agg, spec, sched, tech.agg);
    updateUnfused(agg, tech.precision, out);
    if (outCompressed)
        outCompressed->compressFrom(out);
    if (outBf16)
        outBf16->fromDense(out);
}

void
GnnLayer::forwardTraining(const CsrGraph &graph, const AggregationSpec &spec,
                          const DenseMatrix &in,
                          const CompressedMatrix *inCompressed,
                          const Bf16Matrix *inBf16, LayerContext &ctx,
                          std::span<const VertexId> order,
                          const PartitionPlan *plan,
                          const TechniqueConfig &tech) const
{
    GRAPHITE_TRACE_SPAN("layer.forward");
    const VertexId n = graph.numVertices();
    if (ctx.agg.rows() != n || ctx.agg.cols() != inFeatures_)
        ctx.agg.resize(n, inFeatures_);
    if (ctx.output.rows() != n || ctx.output.cols() != outFeatures_)
        ctx.output.resize(n, outFeatures_);
    ctx.hasCompressed = tech.compression;
    CompressedMatrix *outCompressed = nullptr;
    if (tech.compression) {
        if (ctx.outputCompressed.rows() != n ||
            ctx.outputCompressed.cols() != outFeatures_) {
            ctx.outputCompressed = CompressedMatrix(n, outFeatures_);
        }
        outCompressed = &ctx.outputCompressed;
    }

    const GatherInput src = chooseInput(in, inCompressed, inBf16, tech);
    const Schedule sched = schedule(graph, order, plan, src, tech);
    if (tech.fusion && sched.delayedHalo == nullptr) {
        const UpdateOp update{&weights_, bias_, relu_,
                              &packedWeights(tech.precision),
                              tech.precision};
        fusedLayer(graph, src, spec, update, ctx.output,
                   {.agg = &ctx.agg, .compressed = outCompressed},
                   sched.order, tech.fused);
        return;
    }
    aggregateLayer(graph, src, ctx.agg, spec, sched, tech.agg);
    updateUnfused(ctx.agg, tech.precision, ctx.output);
    if (outCompressed)
        outCompressed->compressFrom(ctx.output);
}

void
GnnLayer::backward(const CsrGraph &transposed,
                   const AggregationSpec &transposedSpec,
                   const LayerContext &ctx, DenseMatrix &gradOut,
                   DenseMatrix *gradIn, std::span<const VertexId> order,
                   const PartitionPlan *transposedPlan,
                   const TechniqueConfig &tech)
{
    GRAPHITE_TRACE_SPAN("layer.backward");
    GRAPHITE_ASSERT(gradOut.rows() == ctx.output.rows() &&
                        gradOut.cols() == outFeatures_,
                    "gradOut shape mismatch");
    // dz = dh ⊙ ReLU'(h); ctx.output is post-activation so zeros mark
    // clipped positions.
    if (relu_)
        reluBackward(ctx.output, gradOut);

    // dW = aᵀ·dz and db = colsum(dz). At bf16 both GEMM operands are
    // rounded at pack time; accumulation stays fp32.
    dwPlanScratch_.pack(GemmMode::TN, gradOut, tech.precision);
    gemm(GemmMode::TN, ctx.agg, dwPlanScratch_, weightGrad_,
         GemmAccumulate::Overwrite);
    columnSum(gradOut, biasGrad_, colSumScratch_);

    if (!gradIn)
        return;
    // dh_prev = Aggᵀ(dz·Wᵀ) over the transposed graph.
    const Schedule sched =
        schedule(transposed, order, transposedPlan, gradOut, tech);
    const GemmPlan &weightsNT = packedWeightsTransposed(tech.precision);
    gradIn->reshape(gradOut.rows(), inFeatures_);
    if (tech.fusion && sched.delayedHalo == nullptr) {
        // Fused: per-block (Aggᵀ dz)·Wᵀ, dAgg never materialised (see
        // kernels/fused_layer.h on the commuted fusion direction).
        if (tech.precision == Precision::Bf16) {
            // Round dz once; the fused kernel then gathers it at half
            // width over the transposed graph — gradients themselves
            // keep accumulating in fp32.
            dzBf16Scratch_.reshape(gradOut.rows(), outFeatures_);
            dzBf16Scratch_.fromDense(gradOut);
            fusedLayerBackwardBf16(transposed, dzBf16Scratch_,
                                   transposedSpec, weightsNT, *gradIn,
                                   sched.order, tech.fused);
        } else {
            fusedLayerBackward(transposed, gradOut, transposedSpec,
                               weightsNT, *gradIn, sched.order,
                               tech.fused);
        }
        return;
    }
    dAggScratch_.reshape(gradOut.rows(), inFeatures_);
    gemm(GemmMode::NT, gradOut, weightsNT, dAggScratch_);
    // dAgg rows stay fp32 here: converting a transient scratch to bf16
    // would add a full extra pass for no stored-traffic win.
    aggregateLayer(transposed, dAggScratch_, *gradIn, transposedSpec, sched,
                   tech.agg);
}

void
GnnLayer::sgdStep(float learningRate)
{
    GRAPHITE_TRACE_SPAN("layer.sgd");
    parallelFor(0, weights_.rows(), 64,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t r = begin; r < end; ++r) {
            Feature *w = weights_.row(r);
            const Feature *g = weightGrad_.row(r);
            #pragma omp simd
            for (std::size_t c = 0; c < outFeatures_; ++c)
                w[c] -= learningRate * g[c];
        }
    });
    for (std::size_t c = 0; c < outFeatures_; ++c)
        bias_[c] -= learningRate * biasGrad_[c];
    ++weightsVersion_;
}

} // namespace graphite
