#include "kernels/fused_layer.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/assert.h"
#include "kernels/row_source.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"

namespace graphite {

namespace {

/** Apply bias and ReLU to @p rows block rows in place. */
void
finishUpdateBlock(Feature *rows, std::size_t numRows, std::size_t stride,
                  std::size_t cols, std::span<const Feature> bias,
                  bool relu)
{
    for (std::size_t r = 0; r < numRows; ++r) {
        Feature *row = rows + r * stride;
        if (!bias.empty()) {
            #pragma omp simd
            for (std::size_t c = 0; c < cols; ++c)
                row[c] += bias[c];
        }
        if (relu) {
            #pragma omp simd
            for (std::size_t c = 0; c < cols; ++c)
                row[c] = std::max(row[c], 0.0f);
        }
        // Re-zero the padding tail: the scratch row may carry stale
        // values from an earlier, wider layer, and the block is
        // memcpy'd (and possibly compressed) at full stride.
        for (std::size_t c = cols; c < stride; ++c)
            row[c] = 0.0f;
    }
}

/**
 * Per-worker grow-only block buffers (Figure 5c's single reusable
 * buffer). Pool workers persist across layer calls and epochs, so
 * after warm-up these never allocate — part of the allocation-free
 * steady-state contract of the training loop. Two distinct functions
 * because a driver invocation needs both buffers live at once.
 * @{
 */
Feature *
aggScratch(std::size_t count)
{
    thread_local AlignedBuffer<Feature> buf;
    if (buf.size() < count)
        buf.resize(count);
    return buf.data();
}

Feature *
updScratch(std::size_t count)
{
    thread_local AlignedBuffer<Feature> buf;
    if (buf.size() < count)
        buf.resize(count);
    return buf.data();
}
/** @} */

/**
 * The one fused driver — forward (aggregate→GEMM) and backward (where
 * the commuted form restores the same shape; see fusedLayerBackward).
 * @p src supplies the per-vertex aggregation and its prefetch (see
 * row_source.h); @p weightPlan is the prepacked operand of the
 * per-block micro-GEMM; @p side (optional) receives a^k and the
 * write-side conversions of h^k.
 */
template <typename Source>
void
fusedDriver(const CsrGraph &graph, const Source &src,
            const AggregationSpec &spec, const GemmPlan &weightPlan,
            std::span<const Feature> bias, bool relu, DenseMatrix &out,
            std::span<const VertexId> order, const FusedConfig &config,
            const FusedOutputs &side)
{
    const VertexId n = graph.numVertices();
    GRAPHITE_ASSERT(order.empty() || order.size() == n,
                    "order must cover all vertices");
    // The same packed operand multiplies every vertex block (packed
    // once per layer invocation or reused from the layer's cached
    // plan) and is shared read-only by every task's micro-kernel.
    const std::size_t inCols = src.cols();
    if (const char *error = weightPlan.validateFor(inCols, out.cols()))
        panic("fused layer weight plan: %s", error);

    const std::size_t blockSize = std::max<std::size_t>(1,
                                                        config.blockSize);
    const std::size_t taskVertices =
        blockSize * std::max<std::size_t>(1, config.blocksPerTask);
    // Padded strides of the block-local buffers match the matrices so
    // rows can be memcpy'd wholesale.
    const std::size_t aggStride = paddedFloats(inCols);
    const std::size_t outStride = out.rowStride();

    // Per-block accounting (paper Fig. 13's per-phase byte/FLOP story):
    // rows gathered feed the bytes counter, aggregation + micro-GEMM
    // FLOPs feed the other. Near-no-op when the registry is disabled.
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    static obs::Counter &bytesGathered =
        metrics.counter("fused.bytes_gathered");
    static obs::Counter &flops = metrics.counter("fused.flops");
    static obs::Histogram &blockMicros =
        metrics.histogram("fused.block_us");
    const Bytes inRowBytes = metrics.enabled() ? src.rowBytes() : 0;

    parallelFor(0, n, taskVertices,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        GRAPHITE_TRACE_SPAN("fused.block");
        const bool metricsOn = metrics.enabled();
        const obs::TraceNs taskStart =
            metricsOn ? obs::TraceRecorder::now() : 0;
        std::uint64_t rowsPulled = 0;
        Feature *agg = aggScratch(blockSize * aggStride);
        Feature *upd = updScratch(blockSize * outStride);
        for (std::size_t j = begin; j < end; j += blockSize) {
            const std::size_t blockEnd = std::min(j + blockSize, end);
            const std::size_t rows = blockEnd - j;
            // Aggregation phase of the block (Algorithm 2 lines 3-7).
            for (std::size_t m = 0; m < rows; ++m) {
                const std::size_t i = j + m;
                const VertexId v =
                    order.empty() ? static_cast<VertexId>(i) : order[i];
                src.aggregate(graph, v, spec, agg + m * aggStride);
                if (metricsOn)
                    rowsPulled += graph.rowEnd(v) - graph.rowBegin(v) + 1;
                if (config.agg.prefetchDistance > 0 &&
                    i + config.agg.prefetchDistance < end) {
                    const std::size_t ahead =
                        i + config.agg.prefetchDistance;
                    src.prefetch(graph,
                                 order.empty()
                                     ? static_cast<VertexId>(ahead)
                                     : order[ahead],
                                 config.agg.prefetchLines);
                }
            }
            if (side.agg) {
                // Training keeps the whole a^k for back-propagation
                // (Figure 5b): write the block out, indexed by vertex.
                for (std::size_t m = 0; m < rows; ++m) {
                    const std::size_t i = j + m;
                    const VertexId v = order.empty()
                        ? static_cast<VertexId>(i) : order[i];
                    std::memcpy(side.agg->row(v), agg + m * aggStride,
                                aggStride * sizeof(Feature));
                }
            }
            // Update phase of the block (Algorithm 2 lines 8-10).
            gemmBlockSerial(agg, rows, aggStride, weightPlan, upd,
                            outStride, inCols);
            finishUpdateBlock(upd, rows, outStride, out.cols(), bias,
                              relu);
            for (std::size_t m = 0; m < rows; ++m) {
                const std::size_t i = j + m;
                const VertexId v =
                    order.empty() ? static_cast<VertexId>(i) : order[i];
                std::memcpy(out.row(v), upd + m * outStride,
                            outStride * sizeof(Feature));
                if (side.compressed)
                    side.compressed->compressRowFrom(v, upd + m * outStride);
                if (side.bf16)
                    convertRowToBf16(upd + m * outStride, side.bf16->cols(),
                                     side.bf16->row(v));
            }
        }
        if (metricsOn) {
            const std::uint64_t taskRows = end - begin;
            // inRowBytes is the stored size of one gathered row (4 B/elem
            // for fp32, 2 for bf16, the mean packed size for compressed),
            // so the counter reflects actual traffic rather than assuming
            // every input is fp32.
            bytesGathered.add(rowsPulled * inRowBytes);
            // Aggregation multiply-adds plus the per-block micro-GEMM.
            flops.add(2 * rowsPulled * inCols +
                      2 * taskRows * inCols * out.cols());
            blockMicros.observe(
                (obs::TraceRecorder::now() - taskStart) / 1000);
        }
    });
}

/**
 * Resolve the forward UpdateOp to a packed NN plan — the caller's
 * cached plan when present, else a local pack of W — and shape-check
 * the weights against the layer widths.
 */
const GemmPlan &
resolveForwardPlan(const UpdateOp &update, std::size_t inCols,
                   std::size_t outCols, GemmPlan &localPlan)
{
    GRAPHITE_ASSERT(update.weights != nullptr, "update weights required");
    GRAPHITE_ASSERT(update.weights->rows() == inCols,
                    "weight rows must equal input feature width");
    GRAPHITE_ASSERT(update.weights->cols() == outCols,
                    "weight cols must equal output feature width");
    if (update.packedWeights != nullptr) {
        GRAPHITE_ASSERT(update.packedWeights->precision() ==
                            update.precision,
                        "cached weight plan precision mismatch");
        return *update.packedWeights;
    }
    localPlan.pack(GemmMode::NN, *update.weights, update.precision);
    return localPlan;
}

/**
 * Backward prologue: the commuted (Aggᵀ dz)·Wᵀ pull-kernel over the
 * transposed graph, for either stored form of dz.
 */
template <typename Source>
void
fusedBackward(const CsrGraph &transposed, const Source &dz,
              const AggregationSpec &transposedSpec,
              const GemmPlan &weightsNT, DenseMatrix &gradIn,
              std::span<const VertexId> order, const FusedConfig &config)
{
    GRAPHITE_TRACE_SPAN("fused.backward");
    GRAPHITE_ASSERT(dz.rows() == transposed.numVertices(),
                    "row mismatch");
    GRAPHITE_ASSERT(gradIn.rows() == dz.rows(), "gradIn row mismatch");
    // The commutation below is only valid for a linear aggregation;
    // Max-reduce backward needs argmax state the forward never saves.
    GRAPHITE_ASSERT(transposedSpec.reduce == ReduceOp::Sum,
                    "fused backward requires a sum-reduce aggregation");
    checkGather("fusedLayerBackward", dz, transposed, transposedSpec);
    // dh_prev = Aggᵀ(dz·Wᵀ) = (Aggᵀ dz)·Wᵀ: aggregation mixes rows and
    // the weight GEMM mixes columns, so they commute. The commuted form
    // turns the reversed fusion direction (GEMM→scatter-aggregate, which
    // would need synchronised writes) back into the forward kernel's
    // pull-shape: aggregate a block of dz rows over the transposed CSR
    // into the L2-resident block buffer, then micro-GEMM it through the
    // prepacked NT plan straight into gradIn. dAgg = dz·Wᵀ never exists.
    fusedDriver(transposed, dz, transposedSpec, weightsNT, {}, false, gradIn,
                order, config, {});
}

} // namespace

void
fusedLayer(const CsrGraph &graph, const GatherInput &in,
           const AggregationSpec &spec, const UpdateOp &update,
           DenseMatrix &out, const FusedOutputs &side,
           std::span<const VertexId> order, const FusedConfig &config)
{
    GRAPHITE_TRACE_SPAN("fused.forward");
    withRowSource(in, [&](const auto &src) {
        GRAPHITE_ASSERT(src.rows() == graph.numVertices(), "row mismatch");
        GRAPHITE_ASSERT(side.agg == nullptr ||
                            (side.agg->rows() == src.rows() &&
                             side.agg->cols() == src.cols()),
                        "aggOut shape mismatch");
        GRAPHITE_ASSERT(side.compressed == nullptr ||
                            (side.compressed->rows() == out.rows() &&
                             side.compressed->cols() == out.cols()),
                        "outCompressed shape mismatch");
        GRAPHITE_ASSERT(side.bf16 == nullptr ||
                            (side.bf16->rows() == out.rows() &&
                             side.bf16->cols() == out.cols()),
                        "outBf16 shape mismatch");
        checkGather("fusedLayer", src, graph, spec);
        GemmPlan localPlan;
        const GemmPlan &plan =
            resolveForwardPlan(update, src.cols(), out.cols(), localPlan);
        fusedDriver(graph, src, spec, plan, update.bias, update.relu, out,
                    order, config, side);
    });
}

void
fusedLayerTraining(const CsrGraph &graph, const DenseMatrix &in,
                   const AggregationSpec &spec, const UpdateOp &update,
                   DenseMatrix &aggOut, DenseMatrix &out,
                   std::span<const VertexId> order,
                   const FusedConfig &config)
{
    fusedLayer(graph, in, spec, update, out, {.agg = &aggOut}, order,
               config);
}

void
fusedLayerInference(const CsrGraph &graph, const DenseMatrix &in,
                    const AggregationSpec &spec, const UpdateOp &update,
                    DenseMatrix &out, std::span<const VertexId> order,
                    const FusedConfig &config, Bf16Matrix *outBf16)
{
    fusedLayer(graph, in, spec, update, out, {.bf16 = outBf16}, order,
               config);
}

void
fusedLayerInferenceBf16(const CsrGraph &graph, const Bf16Matrix &in,
                        const AggregationSpec &spec, const UpdateOp &update,
                        DenseMatrix &out, std::span<const VertexId> order,
                        const FusedConfig &config, Bf16Matrix *outBf16)
{
    fusedLayer(graph, in, spec, update, out, {.bf16 = outBf16}, order,
               config);
}

void
fusedLayerInferenceCompressed(const CsrGraph &graph,
                              const CompressedMatrix &in,
                              const AggregationSpec &spec,
                              const UpdateOp &update, DenseMatrix &out,
                              CompressedMatrix *outCompressed,
                              std::span<const VertexId> order,
                              const FusedConfig &config)
{
    fusedLayer(graph, in, spec, update, out, {.compressed = outCompressed},
               order, config);
}

void
fusedLayerBackward(const CsrGraph &transposed, const DenseMatrix &dz,
                   const AggregationSpec &transposedSpec,
                   const GemmPlan &weightsNT, DenseMatrix &gradIn,
                   std::span<const VertexId> order,
                   const FusedConfig &config)
{
    fusedBackward(transposed, DenseRows(dz), transposedSpec, weightsNT,
                  gradIn, order, config);
}

void
fusedLayerBackwardBf16(const CsrGraph &transposed, const Bf16Matrix &dz,
                       const AggregationSpec &transposedSpec,
                       const GemmPlan &weightsNT, DenseMatrix &gradIn,
                       std::span<const VertexId> order,
                       const FusedConfig &config)
{
    // Same commuted pull-shape; only the gathered dz rows and the
    // packed W operands are bf16-rounded.
    GRAPHITE_ASSERT(weightsNT.precision() == Precision::Bf16,
                    "bf16 fused backward needs a bf16 NT plan");
    fusedBackward(transposed, Bf16Rows(dz), transposedSpec, weightsNT,
                  gradIn, order, config);
}

void
unfusedLayer(const CsrGraph &graph, const DenseMatrix &in,
             const AggregationSpec &spec, const UpdateOp &update,
             DenseMatrix &aggOut, DenseMatrix &out,
             std::span<const VertexId> order,
             const AggregationConfig &config)
{
    GRAPHITE_ASSERT(update.weights != nullptr, "update weights required");
    aggregateBasic(graph, in, aggOut, spec, order, config);
    if (update.packedWeights)
        gemm(GemmMode::NN, aggOut, *update.packedWeights, out);
    else
        gemm(GemmMode::NN, aggOut, *update.weights, out);
    if (!update.bias.empty())
        addBias(out, update.bias);
    if (update.relu)
        reluForward(out);
}

} // namespace graphite
