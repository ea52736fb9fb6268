#include "kernels/shard_exec.h"

#include "common/aligned_buffer.h"
#include "common/assert.h"
#include "kernels/row_source.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace graphite {

namespace {

/** Per-worker grow-only halo replica (the fused driver's idiom). */
Feature *
haloScratch(std::size_t count)
{
    thread_local AlignedBuffer<Feature> buf;
    if (buf.size() < count)
        buf.resize(count);
    return buf.data();
}

/**
 * Delayed-halo aggregation. Phase A folds self + intra-shard terms
 * from the local CSR, one parallel pass per shard over its owned run;
 * phase B gathers each halo row once into a shard-local replica and
 * folds the cut-edge terms from the cache-resident replica. Owned rows
 * are written only by their own shard in both phases, so no
 * synchronisation is needed.
 */
template <typename Source>
void
delayedHalo(const PartitionPlan &plan, const Source &src, DenseMatrix &out,
            const AggregationSpec &spec, const AggregationConfig &config)
{
    const std::size_t width = paddedFloats(src.cols());
    GRAPHITE_ASSERT(width <= out.rowStride(),
                    "out stride narrower than input row");
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    static obs::Counter &bytesGathered =
        metrics.counter("partition.bytes_gathered");
    static obs::Counter &haloBytes =
        metrics.counter("partition.halo_bytes");
    const Bytes rowBytes = src.rowBytes();

    for (std::size_t s = 0; s < plan.numShards(); ++s) {
        const Shard &shard = plan.shards[s];
        const std::size_t ownedBegin = plan.ownedStart[s];
        parallelFor(ownedBegin, plan.ownedStart[s + 1], config.taskSize,
                    [&](std::size_t begin, std::size_t end, std::size_t) {
            GRAPHITE_TRACE_SPAN("partition.shard");
            std::uint64_t rowsPulled = 0;
            for (std::size_t i = begin; i < end; ++i) {
                const VertexId v = plan.shardMajorOrder[i];
                const auto local = static_cast<VertexId>(i - ownedBegin);
                Feature *dst = out.row(v);
                src.seed(v, spec.selfFactor(v), dst, width);
                const EdgeId intraBegin = shard.localCsr.rowBegin(local);
                const EdgeId intraEnd = shard.cutStart[local];
                for (EdgeId idx = intraBegin; idx < intraEnd; ++idx) {
                    src.combine(shard.vertices[shard.localCsr.colIdx()[idx]],
                                spec.edgeFactor(shard.globalEdge[idx]), dst,
                                width, spec.reduce);
                }
                rowsPulled += 1 + (intraEnd - intraBegin);
            }
            if (metrics.enabled())
                bytesGathered.add(rowsPulled * rowBytes);
        });
    }

    parallelFor(0, plan.numShards(), 1,
                [&](std::size_t shardBegin, std::size_t shardEnd,
                    std::size_t) {
        for (std::size_t s = shardBegin; s < shardEnd; ++s) {
            const Shard &shard = plan.shards[s];
            const VertexId numHalo = shard.numHalo();
            if (numHalo == 0)
                continue;
            GRAPHITE_TRACE_SPAN("partition.shard");
            Feature *replica = haloScratch(numHalo * width);
            for (VertexId h = 0; h < numHalo; ++h) {
                src.widen(shard.vertices[shard.numOwned + h],
                          replica + h * width, width);
            }
            if (metrics.enabled()) {
                const std::uint64_t pulled =
                    static_cast<std::uint64_t>(numHalo) * rowBytes;
                haloBytes.add(pulled);
                bytesGathered.add(pulled);
            }
            for (VertexId r = 0; r < shard.numOwned; ++r) {
                const EdgeId rowEnd = shard.localCsr.rowEnd(r);
                if (shard.cutStart[r] == rowEnd)
                    continue;
                Feature *dst = out.row(shard.vertices[r]);
                for (EdgeId idx = shard.cutStart[r]; idx < rowEnd;
                     ++idx) {
                    const VertexId h =
                        shard.localCsr.colIdx()[idx] - shard.numOwned;
                    combineRow(dst, replica + h * width,
                               spec.edgeFactor(shard.globalEdge[idx]),
                               width, spec.reduce);
                }
            }
        }
    });
}

} // namespace

void
aggregateDelayedHalo(const PartitionPlan &plan, const GatherInput &in,
                     DenseMatrix &out, const AggregationSpec &spec,
                     const AggregationConfig &config)
{
    GRAPHITE_TRACE_SPAN("agg.delayed_halo");
    GRAPHITE_ASSERT(in.packed == nullptr,
                    "delayed-halo aggregation reads fp32 or bf16 rows");
    GRAPHITE_ASSERT(plan.graph != nullptr, "plan references no graph");
    const CsrGraph &graph = *plan.graph;
    if (plan.shardMajorOrder.size() != graph.numVertices())
        panic("aggregateDelayedHalo: plan does not cover the graph");
    auto run = [&](const auto &src) {
        if (src.rows() != graph.numVertices())
            panic("aggregateDelayedHalo: input rows differ from the "
                  "plan's graph");
        GRAPHITE_ASSERT(out.rows() == src.rows() && out.cols() == src.cols(),
                        "out shape mismatch");
        checkGather("aggregateDelayedHalo", src, graph, spec);
        delayedHalo(plan, src, out, spec, config);
    };
    if (in.bf16 != nullptr)
        run(Bf16Rows(*in.bf16));
    else
        run(DenseRows(*in.dense));
}

} // namespace graphite
