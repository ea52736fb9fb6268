#include "probes.h"

#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/timer.h"
#include "compress/compressed_matrix.h"
#include "graph/delta_csr.h"
#include "graph/reorder.h"
#include "kernels/aggregation.h"
#include "kernels/fused_layer.h"
#include "open_loop.h"
#include "parallel/thread_pool.h"
#include "sampling/neighbor_sampler.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"

namespace perfbench {

using namespace graphite;

namespace {

/** Keeps a value the optimiser would otherwise be free to drop. */
volatile float gSink = 0.0f;

/**
 * Computed bytes of one aggregation pass: every gathered row (neighbors
 * plus self) at the input row size, every output row written, the CSR
 * arrays and the per-edge and per-vertex factors.
 */
double
aggregationBytes(const CsrGraph &graph, std::size_t inRowBytes,
                 std::size_t outRowBytes)
{
    const double n = graph.numVertices();
    const double m = static_cast<double>(graph.numEdges());
    return (m + n) * static_cast<double>(inRowBytes) +
           n * static_cast<double>(outRowBytes) +
           (n + 1) * sizeof(EdgeId) + m * sizeof(VertexId) +
           (m + n) * sizeof(Feature);
}

double
gemmPeak(Precision precision, bool tiny)
{
    const std::size_t m = tiny ? 512 : 4096;
    constexpr std::size_t kDim = 256;
    DenseMatrix a(m, kDim);
    DenseMatrix b(kDim, kDim);
    DenseMatrix c(m, kDim);
    a.fillUniform(-1.0f, 1.0f, 3);
    b.fillUniform(-1.0f, 1.0f, 5);
    const GemmPlan plan(GemmMode::NN, b, precision);
    double best = 0.0;
    for (int rep = 0; rep < 12; ++rep) {
        Timer timer;
        gemm(GemmMode::NN, a, plan, c);
        best = std::max(best, 2.0 * m * kDim * kDim / timer.seconds() / 1e9);
    }
    gSink = c.row(0)[0];
    return best;
}

} // namespace

double
hostL3Mib()
{
    const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
    return bytes > 0 ? static_cast<double>(bytes) / (1024.0 * 1024.0) : 0.0;
}

Ceilings
probeCeilings(Tracer &tracer, Report &report, bool tiny)
{
    Ceilings ceilings;
    const double l3 = hostL3Mib();
    // Three arrays, together at least 4x the L3 (32 MiB assumed when the
    // C library does not know the L3).
    const double arrayMib =
        tiny ? 4.0 : std::max(l3 > 0.0 ? l3 : 32.0, 32.0) * 4.0 / 3.0;
    const auto elems = static_cast<std::size_t>(arrayMib * 1024 * 1024 /
                                                sizeof(float));
    std::vector<float> a(elems);
    std::vector<float> b(elems);
    std::vector<float> c(elems);
    parallelFor(0, elems, 1 << 16,
                [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) {
            b[i] = 1.0f;
            c[i] = 2.0f;
        }
    });
    double best = 0.0;
    for (int rep = 0; rep < 6; ++rep) {
        auto span = tracer.span("host.triad");
        Timer timer;
        parallelFor(0, elems, 1 << 16,
                    [&](std::size_t lo, std::size_t hi, std::size_t) {
            for (std::size_t i = lo; i < hi; ++i)
                a[i] = b[i] + 3.0f * c[i];
        });
        best = std::max(best, 3.0 * elems * sizeof(float) /
                                  timer.seconds() / 1e9);
    }
    gSink = a[elems / 2];
    ceilings.triadGbps = best;
    const std::string sizes = "best of 6, 3 arrays of " +
                              std::to_string(static_cast<int>(arrayMib)) +
                              " MiB vs L3 " +
                              std::to_string(static_cast<int>(l3)) + " MiB";
    report.metric("host.triad_gbps", best, "GB/s", sizes);

    {
        auto span = tracer.span("host.gemm_peak");
        ceilings.gemmFp32Gflops = gemmPeak(Precision::Fp32, tiny);
        ceilings.gemmBf16Gflops = gemmPeak(Precision::Bf16, tiny);
    }
    report.metric("host.gemm_peak_gflops_fp32", ceilings.gemmFp32Gflops,
                  "GFLOP/s", "best of 12 packed NN GEMMs, K=N=256");
    report.metric("host.gemm_peak_gflops_bf16", ceilings.gemmBf16Gflops,
                  "GFLOP/s",
                  std::string("best of 12, ") +
                      (bf16GemmIsNative() ? "native vdpbf16ps"
                                          : "emulated bf16 kernel"));
    return ceilings;
}

void
probeLayers(World &world, const Ceilings &ceilings, Tracer &tracer,
            Report &report, int reps)
{
    GnnModel &model = *world.model;
    const CsrGraph &graph = world.graph;
    const AggregationSpec &spec = model.spec();
    const DenseMatrix &features = world.task.features;
    const std::size_t n = graph.numVertices();
    const TechniqueConfig basic = TechniqueConfig::basic();
    const TechniqueConfig combined = TechniqueConfig::combined();
    const std::string repsNote = "median of " + std::to_string(reps);

    const double l3 = hostL3Mib();
    report.metric("world.input_l3_ratio",
                  l3 > 0.0 ? world.inputMib() / l3 : 0.0, "x",
                  "input feature array " +
                      std::to_string(static_cast<int>(world.inputMib())) +
                      " MiB (computed) over L3 " +
                      std::to_string(static_cast<int>(l3)) + " MiB");

    const GnnLayer &layer0 = model.layer(0);
    DenseMatrix hidden(n, layer0.outFeatures());
    layer0.forwardInference(graph, spec, features, nullptr, nullptr, hidden,
                            nullptr, nullptr, {}, nullptr, basic);
    CompressedMatrix packed(n, layer0.outFeatures());
    DenseMatrix agg(n, std::max(layer0.inFeatures(), layer0.outFeatures()));
    DenseMatrix out(n, layer0.outFeatures());

    for (std::size_t k = 0; k < model.numLayers(); ++k) {
        const GnnLayer &layer = model.layer(k);
        const DenseMatrix &in = k == 0 ? features : hidden;
        const std::string l = ".l" + std::to_string(k);
        const std::size_t inF = layer.inFeatures();
        const std::size_t outF = layer.outFeatures();
        Bf16Matrix inBf16(n, inF);
        inBf16.fromDense(in);
        agg.reshape(n, inF);
        out.reshape(n, outF);
        const UpdateOp fp32{&layer.weights(), layer.bias(), layer.hasRelu(),
                            &layer.packedWeights(Precision::Fp32),
                            Precision::Fp32};
        const UpdateOp bf16{&layer.weights(), layer.bias(), layer.hasRelu(),
                            &layer.packedWeights(Precision::Bf16),
                            Precision::Bf16};
        for (int rep = 0; rep < reps; ++rep) {
            {
                auto span = tracer.span("gnn.layer_forward" + l);
                layer.forwardInference(graph, spec, in, nullptr, nullptr, out,
                                       nullptr, nullptr, {}, nullptr, basic);
            }
            {
                // The unfused forward's steps, one public call each.
                auto parent = tracer.span("gnn.layer_decomposed" + l);
                {
                    auto span = tracer.span("tensor.alloc" + l);
                    DenseMatrix fresh(n, inF);
                    gSink = fresh.row(n - 1)[0];
                }
                {
                    auto span = tracer.span("kernels.agg" + l);
                    aggregateBasic(graph, in, agg, spec);
                }
                {
                    auto span = tracer.span("tensor.gemm" + l);
                    gemm(GemmMode::NN, agg,
                         layer.packedWeights(Precision::Fp32), out);
                }
                {
                    auto span = tracer.span("tensor.epilogue" + l);
                    if (!layer.bias().empty())
                        addBias(out, layer.bias());
                    if (layer.hasRelu())
                        reluForward(out);
                }
            }
            {
                auto span = tracer.span("kernels.agg_bf16" + l);
                aggregateBf16(graph, inBf16, agg, spec);
            }
            {
                auto span = tracer.span("tensor.gemm_bf16" + l);
                gemm(GemmMode::NN, agg, layer.packedWeights(Precision::Bf16),
                     out);
            }
            {
                auto span = tracer.span("kernels.fused" + l);
                fusedLayerInference(graph, in, spec, fp32, out);
            }
            {
                auto span = tracer.span("kernels.fused_bf16" + l);
                fusedLayerInferenceBf16(graph, inBf16, spec, bf16, out);
            }
            if (k == 1) {
                {
                    auto span = tracer.span("compress.pack.l1");
                    packed.compressFrom(hidden);
                }
                auto span = tracer.span("kernels.fused_compressed.l1");
                fusedLayerInferenceCompressed(graph, packed, spec, fp32, out);
            }
        }
        gSink = out.row(0)[0];

        const auto med = [&](const char *name) {
            return tracer.medianSeconds(name + l);
        };
        const double aggS = med("kernels.agg");
        const double aggBytes =
            aggregationBytes(graph, in.rowBytes(), agg.rowBytes());
        report.metric("kernels.agg_s" + l, aggS, "s", repsNote);
        report.metric("kernels.agg_bytes" + l, aggBytes, "B",
                      "computed from CSR and row sizes");
        report.metric("kernels.agg_triad_frac" + l,
                      aggBytes / aggS / 1e9 / ceilings.triadGbps, "frac",
                      "computed bytes / time over same-run triad");
        report.metric("kernels.agg_bf16_s" + l, med("kernels.agg_bf16"), "s",
                      repsNote);
        report.metric("kernels.agg_bf16_bytes" + l,
                      aggregationBytes(graph, inBf16.rowBytes(),
                                       agg.rowBytes()),
                      "B", "computed from CSR and row sizes");
        report.metric("kernels.fused_s" + l, med("kernels.fused"), "s",
                      repsNote);
        report.metric("kernels.fused_bf16_s" + l, med("kernels.fused_bf16"),
                      "s", repsNote);
        const double allocS = med("tensor.alloc");
        const double gemmS = med("tensor.gemm");
        const double epiS = med("tensor.epilogue");
        const double flops = 2.0 * n * inF * outF;
        report.metric("tensor.alloc_s" + l, allocS, "s",
                      "fresh |V| x F_in matrix, " + repsNote);
        report.metric("tensor.gemm_s" + l, gemmS, "s", repsNote);
        report.metric("tensor.gemm_peak_frac" + l,
                      flops / gemmS / 1e9 / ceilings.gemmFp32Gflops, "frac",
                      "GFLOP/s over same-run fp32 peak");
        report.metric("tensor.gemm_bf16_s" + l, med("tensor.gemm_bf16"), "s",
                      repsNote);
        report.metric("tensor.epilogue_s" + l, epiS, "s",
                      "addBias + reluForward, " + repsNote);
        const double forwardS = med("gnn.layer_forward");
        report.metric("gnn.layer_forward_s" + l, forwardS, "s",
                      "basic technique, " + repsNote);
        report.metric("gnn.layer_unattributed_frac" + l,
                      1.0 - (allocS + aggS + gemmS + epiS) / forwardS, "frac",
                      "forward minus alloc+agg+gemm+epilogue");
    }
    report.metric("compress.pack_s.l1", tracer.medianSeconds("compress.pack.l1"),
                  "s", repsNote);
    report.metric("compress.bytes_ratio.l1",
                  static_cast<double>(packed.compressedTrafficBytes()) /
                      static_cast<double>(packed.denseTrafficBytes()),
                  "frac", "computed packed / dense bytes of layer 0 output");
    report.metric("kernels.fused_compressed_s.l1",
                  tracer.medianSeconds("kernels.fused_compressed.l1"), "s",
                  repsNote);

    // Tracing overhead: GnnModel::inference untraced against the same
    // pass rebuilt from traced GnnLayer::forwardInference calls.
    std::vector<double> untraced;
    for (int rep = 0; rep < reps + 1; ++rep) {
        Timer timer;
        model.inference(features, combined);
        if (rep > 0) // the first call sizes the model's buffers
            untraced.push_back(timer.seconds());
    }
    DenseMatrix logits(n, model.layer(1).outFeatures());
    for (int rep = 0; rep < reps; ++rep) {
        auto parent = tracer.span("gnn.inference_traced");
        {
            auto span = tracer.span("gnn.forward.l0");
            layer0.forwardInference(graph, spec, features, nullptr, nullptr,
                                    hidden, &packed, nullptr, {}, nullptr,
                                    combined);
        }
        auto span = tracer.span("gnn.forward.l1");
        model.layer(1).forwardInference(graph, spec, hidden, &packed, nullptr,
                                        logits, nullptr, nullptr, {}, nullptr,
                                        combined);
    }
    report.metric("trace.overhead_frac",
                  tracer.medianSeconds("gnn.inference_traced") /
                          median(untraced) -
                      1.0,
                  "frac", "traced layer-by-layer pass over untraced "
                          "GnnModel::inference, combined fp32");
}

void
probeTraining(World &world, Tracer &tracer, Report &report, int reps)
{
    GnnModel &model = *world.model;
    const CsrGraph &graph = world.graph;
    const DenseMatrix &features = world.task.features;
    const std::vector<std::int32_t> &labels = world.task.labels;
    const TechniqueConfig tech = TechniqueConfig::combinedLocality();
    const std::string repsNote = "median of " + std::to_string(reps);
    constexpr float kLearningRate = 0.05f;

    TrainerConfig config;
    config.learningRate = kLearningRate;
    config.tech = tech;
    Trainer trainer(model, features, labels, config);
    trainer.trainEpoch(); // builds orders, plans and contexts
    std::vector<double> epochs;
    for (int rep = 0; rep < reps; ++rep)
        epochs.push_back(trainer.trainEpoch().seconds);

    DenseMatrix lossGrad;
    for (int rep = 0; rep < reps; ++rep) {
        auto parent = tracer.span("gnn.epoch_traced");
        const DenseMatrix *logits = nullptr;
        {
            auto span = tracer.span("gnn.train_forward");
            logits = &model.trainForward(features, tech);
        }
        {
            auto span = tracer.span("tensor.loss");
            lossGrad.reshape(logits->rows(), logits->cols());
            softmaxCrossEntropy(*logits, labels, lossGrad);
        }
        {
            auto span = tracer.span("gnn.train_backward");
            model.trainBackward(lossGrad, tech);
        }
        auto span = tracer.span("gnn.sgd");
        model.sgdStep(kLearningRate);
    }
    double parts = 0.0;
    for (const char *name :
         {"gnn.train_forward", "tensor.loss", "gnn.train_backward", "gnn.sgd"}) {
        const double s = tracer.medianSeconds(name);
        parts += s;
        std::string metric = std::string(name) + "_s";
        report.metric(metric, s, "s", repsNote + ", c-locality");
    }
    report.metric("gnn.epoch_unattributed_frac", 1.0 - parts / median(epochs),
                  "frac", "Trainer::trainEpoch minus its four steps");

    CsrGraph transposed;
    for (int rep = 0; rep < reps; ++rep) {
        {
            auto span = tracer.span("graph.locality_order");
            gSink = static_cast<float>(localityOrder(graph).front());
        }
        auto span = tracer.span("graph.transpose");
        transposed = graph.transposed();
    }
    report.metric("graph.locality_order_s",
                  tracer.medianSeconds("graph.locality_order"), "s", repsNote);
    report.metric("graph.transpose_s", tracer.medianSeconds("graph.transpose"),
                  "s", repsNote);

    const GnnLayer &top = model.layer(1);
    const AggregationSpec transposedSpec =
        transposeSpec(graph, model.spec(), transposed);
    DenseMatrix dz(graph.numVertices(), top.outFeatures());
    dz.fillUniform(-1.0f, 1.0f, 9);
    DenseMatrix gradIn(graph.numVertices(), top.inFeatures());
    const auto order = model.transposedLocalityOrderFor(tech);
    for (int rep = 0; rep < reps; ++rep) {
        auto span = tracer.span("kernels.fused_bwd.l1");
        fusedLayerBackward(transposed, dz, transposedSpec,
                           top.packedWeightsTransposed(Precision::Fp32), gradIn,
                           order);
    }
    gSink = gradIn.row(0)[0];
    report.metric("kernels.fused_bwd_s.l1",
                  tracer.medianSeconds("kernels.fused_bwd.l1"), "s", repsNote);
}

void
probeServing(World &world, Tracer &tracer, Report &report, double seconds,
             std::uint64_t seed)
{
    const CsrGraph &graph = world.graph;
    const DenseMatrix &features = world.task.features;
    const std::vector<GnnLayer *> layers = {&world.model->layer(0),
                                            &world.model->layer(1)};
    const serve::ServeConfig config = serveConfig();
    const ZipfStream zipf(graph, Traffic::kZipf);
    constexpr int kCalls = 2000;

    {
        SamplerScratch scratch(graph.numVertices());
        SampledTree tree;
        Rng draw(seed);
        for (int i = 0; i < kCalls; ++i) {
            const VertexId v = zipf.draw(draw);
            Rng rng(requestSeed(static_cast<std::uint64_t>(i)));
            auto span = tracer.span("sampling.sample_tree");
            sampleTree(graph, v, config.fanouts, rng, scratch, tree);
        }
    }
    report.metric("sampling.sample_tree_us",
                  tracer.medianSeconds("sampling.sample_tree") * 1e6, "us",
                  "median of " + std::to_string(kCalls) +
                      " Zipf-drawn seeds, fanout 10/10");

    serve::InferenceServer server(graph, features, layers, config);
    server.warmup();
    {
        std::vector<Feature> row(server.outFeatures());
        Rng draw(seed + 1);
        for (int i = 0; i < kCalls / 4; ++i) {
            const VertexId v = zipf.draw(draw);
            auto span = tracer.span("serve.service");
            server.serveOne(1'000'000'000ull + i, v, row.data());
        }
    }
    const double serviceUs = tracer.medianSeconds("serve.service") * 1e6;
    report.metric("serve.service_us", serviceUs, "us",
                  "serveOne alone, median of " + std::to_string(kCalls / 4));

    Phase low;
    Phase high;
    {
        OpenLoop loop(server, zipf, seed + 2);
        loop.run(Traffic::kHighQps, 0.1 * seconds); // fills the hot cache
        low = loop.run(Traffic::kLowQps, 0.3 * seconds);
        high = loop.run(Traffic::kHighQps, 0.2 * seconds);
    }
    report.metric("serve.wait_us.low",
                  median(withMisses(low.latencyUs)) - serviceUs, "us",
                  "p50 at the low rate minus serveOne alone");
    const auto batchMean = [](const Phase &p) {
        const auto batches = p.after.batchesServed - p.before.batchesServed;
        return batches > 0 ? static_cast<double>(p.served()) / batches : 0.0;
    };
    report.metric("serve.batch_size_mean.low", batchMean(low), "count",
                  std::to_string(low.served()) + " requests");
    report.metric("serve.batch_size_mean.high", batchMean(high), "count",
                  std::to_string(high.served()) + " requests");
    const auto hitRate = [](const Phase &p) {
        const double hits = p.after.cache.hits - p.before.cache.hits;
        const double misses = p.after.cache.misses - p.before.cache.misses;
        return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    };
    report.metric("serve.cache_hit_rate", hitRate(low), "frac",
                  "low-rate phase");
    report.metric("serve.bytes_per_request",
                  static_cast<double>(low.after.bytesGathered -
                                      low.before.bytesGathered) /
                      std::max<double>(1.0, low.served()),
                  "B", "computed gather bytes, low-rate phase");
    std::vector<double> late(low.lateUs);
    late.insert(late.end(), high.lateUs.begin(), high.lateUs.end());
    report.metric("serve.gen_late_us_p99", quantile(late, 0.99), "us",
                  "generator push minus due time, " +
                      std::to_string(late.size()) + " requests");
    report.count(low.attempted() + high.attempted(),
                 low.refused + high.refused);

    // Churn: the same traffic over a DeltaCsr copy while edges arrive.
    DeltaCsr overlay(CsrGraph(graph), Traffic::kDeltaBudget);
    serve::InferenceServer churned(overlay, features, layers, config);
    churned.warmup();
    Phase churnPhase;
    std::vector<double> insertUs;
    std::uint64_t inserts = 0;
    {
        OpenLoop loop(churned, zipf, seed + 3);
        loop.run(Traffic::kHighQps, 0.1 * seconds);
        Churner churner(churned, Traffic::kInsertRate, seed + 4);
        churnPhase = loop.run(Traffic::kLowQps, 0.3 * seconds);
        churner.stop();
        insertUs = churner.insertUs();
        inserts = insertUs.size();
        report.count(churnPhase.attempted() + inserts,
                     churnPhase.refused + churner.poolFull());
    }
    report.metric("graph.insert_us_p50", median(insertUs), "us",
                  "insertEdge, median of " + std::to_string(inserts));
    report.metric("serve.invalidations_per_insert",
                  static_cast<double>(churnPhase.after.cache.invalidations -
                                      churnPhase.before.cache.invalidations) /
                      std::max<double>(1.0, inserts),
                  "ratio", "cache invalidations over inserts");
    report.metric("serve.cache_hit_rate_churn", hitRate(churnPhase), "frac",
                  "low rate with inserts");
    {
        auto span = tracer.span("serve.compact");
        churned.compactNow();
    }
    report.metric("serve.compact_s", tracer.medianSeconds("serve.compact"),
                  "s", "compactNow of the pending deltas, 1 call");
    report.metric("serve.staleness_rel_l2",
                  staleness(churned, overlay, features, layers, churnPhase, 256),
                  "frac", "served vs compacted-graph replay, 256 requests");
}

} // namespace perfbench
