/**
 * @file
 * Tests of the aggregation kernels (paper Algorithm 1): the vectorised
 * kernel against the scalar reference across graph shapes, feature
 * widths and ψ specs; compressed-input aggregation against dense; and
 * the order-invariance property (a processing order permutes work, not
 * results); and the serving mean gather against its scalar loop.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "common/rng.h"
#include "compress/compressed_matrix.h"
#include "graph/delta_csr.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/reorder.h"
#include "kernels/aggregation.h"
#include "kernels/mean_gather.h"
#include "obs/metrics.h"

namespace graphite {
namespace {

CsrGraph
graphFor(int kind)
{
    switch (kind) {
      case 0:
        return generateRing(50, 1);
      case 1:
        return generateErdosRenyi(300, 2500, false, 11);
      default: {
        RmatParams params;
        params.scale = 9;
        params.avgDegree = 10.0;
        return generateRmat(params);
      }
    }
}

AggregationSpec
specFor(const CsrGraph &g, int kind)
{
    switch (kind) {
      case 0:
        return sumSpec();
      case 1:
        return gcnSpec(g);
      default:
        return sageSpec(g);
    }
}

class AggregationMatrix
    : public testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(AggregationMatrix, VectorKernelMatchesReference)
{
    const auto [graphKind, specKind, width] = GetParam();
    CsrGraph g = graphFor(graphKind);
    DenseMatrix h(g.numVertices(), static_cast<std::size_t>(width));
    h.fillUniform(-1.0f, 1.0f, 21);
    AggregationSpec spec = specFor(g, specKind);

    DenseMatrix out(g.numVertices(), h.cols());
    DenseMatrix expected(g.numVertices(), h.cols());
    aggregateBasic(g, h, out, spec);
    aggregateReference(g, h, expected, spec);
    EXPECT_LT(out.maxAbsDiff(expected), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AggregationMatrix,
    testing::Combine(testing::Values(0, 1, 2),   // graph shape
                     testing::Values(0, 1, 2),   // spec: sum/gcn/sage
                     testing::Values(16, 100, 256, 300)));

TEST(Aggregation, ProcessingOrderDoesNotChangeResults)
{
    CsrGraph g = graphFor(2);
    DenseMatrix h(g.numVertices(), 64);
    h.fillUniform(-1.0f, 1.0f, 22);
    AggregationSpec spec = gcnSpec(g);

    DenseMatrix identity(g.numVertices(), 64);
    DenseMatrix locality(g.numVertices(), 64);
    DenseMatrix random(g.numVertices(), 64);
    aggregateBasic(g, h, identity, spec);
    ProcessingOrder loc = localityOrder(g);
    aggregateBasic(g, h, locality, spec, loc);
    ProcessingOrder rnd = randomOrder(g, 33);
    aggregateBasic(g, h, random, spec, rnd);
    EXPECT_DOUBLE_EQ(identity.maxAbsDiff(locality), 0.0);
    EXPECT_DOUBLE_EQ(identity.maxAbsDiff(random), 0.0);
}

TEST(Aggregation, PrefetchConfigDoesNotChangeResults)
{
    CsrGraph g = graphFor(1);
    DenseMatrix h(g.numVertices(), 128);
    h.fillUniform(-1.0f, 1.0f, 23);
    AggregationSpec spec = sageSpec(g);

    DenseMatrix base(g.numVertices(), 128);
    AggregationConfig noPrefetch;
    noPrefetch.prefetchDistance = 0;
    aggregateBasic(g, h, base, spec, {}, noPrefetch);

    DenseMatrix deep(g.numVertices(), 128);
    AggregationConfig deepPrefetch;
    deepPrefetch.prefetchDistance = 16;
    deepPrefetch.prefetchLines = 4;
    aggregateBasic(g, h, deep, spec, {}, deepPrefetch);
    EXPECT_DOUBLE_EQ(base.maxAbsDiff(deep), 0.0);
}

TEST(Aggregation, IsolatedVertexAggregatesOnlyItself)
{
    GraphBuilder builder(3);
    builder.addEdge(0, 1); // vertex 2 isolated
    CsrGraph g = builder.build();
    DenseMatrix h(3, 16);
    h.at(2, 3) = 5.0f;
    DenseMatrix out(3, 16);
    aggregateBasic(g, h, out, sumSpec());
    EXPECT_FLOAT_EQ(out.at(2, 3), 5.0f);
    for (std::size_t c = 0; c < 16; ++c) {
        if (c != 3) {
            EXPECT_FLOAT_EQ(out.at(2, c), 0.0f);
        }
    }
}

TEST(Aggregation, GcnSpecNormalisesByDegreeProducts)
{
    // Two vertices connected by one undirected edge. With the self
    // term, D' = 2 for both: self factor = 1/2, edge factor = 1/2.
    GraphBuilder builder(2);
    builder.addUndirectedEdge(0, 1);
    CsrGraph g = builder.build();
    AggregationSpec spec = gcnSpec(g);
    EXPECT_NEAR(spec.selfFactor(0), 0.5f, 1e-6);
    EXPECT_NEAR(spec.edgeFactor(0), 0.5f, 1e-6);
}

TEST(Aggregation, SageSpecAveragesNeighborhood)
{
    GraphBuilder builder(3);
    builder.addEdge(0, 1);
    builder.addEdge(0, 2);
    CsrGraph g = builder.build();
    AggregationSpec spec = sageSpec(g);
    // Vertex 0 has degree 2: every term weighted 1/3.
    EXPECT_NEAR(spec.selfFactor(0), 1.0f / 3.0f, 1e-6);
    EXPECT_NEAR(spec.edgeFactor(0), 1.0f / 3.0f, 1e-6);
    EXPECT_NEAR(spec.edgeFactor(1), 1.0f / 3.0f, 1e-6);

    DenseMatrix h(3, 16);
    h.at(0, 0) = 3.0f;
    h.at(1, 0) = 6.0f;
    h.at(2, 0) = 9.0f;
    DenseMatrix out(3, 16);
    aggregateBasic(g, h, out, spec);
    EXPECT_NEAR(out.at(0, 0), (3.0f + 6.0f + 9.0f) / 3.0f, 1e-5);
}

class CompressedAggregation : public testing::TestWithParam<double>
{
};

TEST_P(CompressedAggregation, MatchesDenseAggregation)
{
    CsrGraph g = graphFor(2);
    DenseMatrix h(g.numVertices(), 128);
    h.fillUniform(0.0f, 2.0f, 24);
    h.sparsify(GetParam(), 25);
    CompressedMatrix packed(g.numVertices(), 128);
    packed.compressFrom(h);
    AggregationSpec spec = gcnSpec(g);

    DenseMatrix dense(g.numVertices(), 128);
    DenseMatrix fromPacked(g.numVertices(), 128);
    aggregateBasic(g, h, dense, spec);
    aggregateCompressed(g, packed, fromPacked, spec);
    EXPECT_LT(dense.maxAbsDiff(fromPacked), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Sparsities, CompressedAggregation,
                         testing::Values(0.0, 0.3, 0.5, 0.8, 0.95));

// Compressed gathers count their stored traffic: the mean packed row
// (values + mask) per gathered row, the same accounting as the fused
// compressed kernel — so sparse inputs report fewer bytes than dense.
TEST(Aggregation, CompressedGatherFeedsBytesGathered)
{
    CsrGraph g = graphFor(2);
    DenseMatrix h(g.numVertices(), 128);
    h.fillUniform(0.0f, 2.0f, 27);
    h.sparsify(0.7, 28);
    CompressedMatrix packed(g.numVertices(), 128);
    packed.compressFrom(h);
    DenseMatrix out(g.numVertices(), 128);
    const AggregationSpec spec = gcnSpec(g);

    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    metrics.setEnabled(true);
    metrics.reset();
    aggregateCompressed(g, packed, out, spec);
    const std::uint64_t packedBytes =
        metrics.counter("agg.bytes_gathered").value();
    metrics.reset();
    aggregateBasic(g, h, out, spec);
    const std::uint64_t denseBytes =
        metrics.counter("agg.bytes_gathered").value();
    metrics.setEnabled(false);

    const std::uint64_t rows = g.numVertices() + g.numEdges();
    EXPECT_EQ(packedBytes,
              rows * (packed.compressedTrafficBytes() / g.numVertices()));
    EXPECT_EQ(denseBytes, rows * h.rowBytes());
    EXPECT_LT(packedBytes, denseBytes);
}

TEST(Aggregation, SingleVertexKernelMatchesRowOfFullKernel)
{
    CsrGraph g = graphFor(1);
    DenseMatrix h(g.numVertices(), 256);
    h.fillUniform(-1.0f, 1.0f, 26);
    AggregationSpec spec = sageSpec(g);
    DenseMatrix full(g.numVertices(), 256);
    aggregateBasic(g, h, full, spec);

    DenseMatrix single(1, 256);
    aggregateVertex(g, h, 17, spec, single.row(0));
    for (std::size_t c = 0; c < 256; ++c)
        EXPECT_NEAR(single.at(0, c), full.at(17, c), 1e-5);
}

TEST(Aggregation, TransposeOfSymmetricGraphAggregatesIdentically)
{
    // On an undirected (symmetric) graph, transposition is the
    // identity, so the unweighted aggregation over G and Gᵀ must agree
    // exactly — a structural sanity check for the backward pass.
    CsrGraph g = generateErdosRenyi(200, 1200, /*undirected=*/true, 27);
    CsrGraph t = g.transposed();
    DenseMatrix h(g.numVertices(), 32);
    h.fillUniform(0.0f, 1.0f, 27);

    DenseMatrix fwd(g.numVertices(), 32);
    DenseMatrix bwd(g.numVertices(), 32);
    aggregateBasic(g, h, fwd, sumSpec());
    aggregateBasic(t, h, bwd, sumSpec());
    EXPECT_DOUBLE_EQ(fwd.maxAbsDiff(bwd), 0.0);
}

TEST(Aggregation, ValidateSpecCatchesFactorLengthMismatch)
{
    CsrGraph g = generateRing(20, 1);
    // Empty factor arrays mean "all ones" and are always valid.
    EXPECT_EQ(validateSpec(sumSpec(), g), nullptr);
    EXPECT_EQ(validateSpec(gcnSpec(g), g), nullptr);

    // A spec built for one graph applied to another: the factor arrays
    // no longer match |E|/|V| and every kernel entry rejects it before
    // indexing past their ends.
    CsrGraph other = generateRing(24, 1);
    AggregationSpec stale = gcnSpec(g);
    EXPECT_NE(validateSpec(stale, other), nullptr);

    AggregationSpec truncated = gcnSpec(g);
    truncated.edgeFactors.pop_back();
    EXPECT_NE(validateSpec(truncated, g), nullptr);

    AggregationSpec shortSelf = gcnSpec(g);
    shortSelf.selfFactors.pop_back();
    EXPECT_NE(validateSpec(shortSelf, g), nullptr);
}

/**
 * The scalar loop the mean gather replaced: self, then each row in
 * list order, then the scale — column by column.
 */
void
scalarMeanRow(const DenseMatrix &features, VertexId self,
              const std::vector<VertexId> &rows, Feature *dst)
{
    const std::size_t cols = features.cols();
    for (std::size_t c = 0; c < cols; ++c)
        dst[c] = features.row(self)[c];
    for (const VertexId u : rows) {
        for (std::size_t c = 0; c < cols; ++c)
            dst[c] += features.row(u)[c];
    }
    const float scale = 1.0f / (1.0f + static_cast<float>(rows.size()));
    for (std::size_t c = 0; c < cols; ++c)
        dst[c] *= scale;
}

void
expectBitwiseRow(const std::vector<Feature> &got,
                 const std::vector<Feature> &want, const char *what,
                 std::size_t width, VertexId v)
{
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          width * sizeof(Feature)),
              0)
        << what << ": width " << width << ", vertex " << v;
}

constexpr std::size_t kGatherWidths[] = {1, 16, 37, 256};

TEST(MeanGather, RowListBitwiseMatchesScalarLoop)
{
    // Fan-ins straddle the prefetch look-ahead (kMeanGatherAhead).
    for (const std::size_t width : kGatherWidths) {
        DenseMatrix features(64, width);
        features.fillUniform(-1.0f, 1.0f, 41);
        Rng rng(42);
        for (const std::size_t fanIn : {0, 1, 3, 4, 5, 9, 40}) {
            std::vector<VertexId> rows(fanIn);
            for (VertexId &u : rows)
                u = static_cast<VertexId>(rng.uniformInt(64));
            const auto self = static_cast<VertexId>(rng.uniformInt(64));
            std::vector<Feature> got(width);
            std::vector<Feature> want(width);
            meanGather(
                features.row(self), rows.size(),
                [&](std::size_t i) { return features.row(rows[i]); },
                width, got.data());
            scalarMeanRow(features, self, rows, want.data());
            expectBitwiseRow(got, want, "row list", width, self);
        }
    }
}

TEST(MeanGather, FullMeanRowBitwiseMatchesScalarLoopOnCsrAndOverlay)
{
    // Vertices 60..69 have no base edges; deltas land on a hub (three
    // chain segments after its base row), on an empty row, and on a
    // low-degree row, so overlay rows mix base and delta entries.
    const CsrGraph base = generateBarabasiAlbert(60, 4, 43);
    GraphBuilder builder(70);
    for (VertexId v = 0; v < base.numVertices(); ++v)
        for (const VertexId u : base.neighbors(v))
            builder.addEdge(v, u);
    DeltaCsr overlay(builder.build(), 64);
    const CsrGraph &csr = overlay.base();
    for (VertexId u = 40; u < 70; ++u)
        overlay.addEdge(0, u);
    overlay.addEdge(65, 1);
    overlay.addEdge(65, 2);
    overlay.addEdge(7, 69);
    ASSERT_GT(overlay.deltaDegree(0), 2 * DeltaCsr::kSegmentEdges);

    for (const std::size_t width : kGatherWidths) {
        DenseMatrix features(70, width);
        features.fillUniform(-1.0f, 1.0f, 44);
        std::vector<Feature> got(width);
        std::vector<Feature> want(width);
        for (VertexId v = 0; v < 70; ++v) {
            const auto baseRow = csr.neighbors(v);
            std::vector<VertexId> rows(baseRow.begin(), baseRow.end());
            fullMeanRow(csr, features, v, got.data());
            scalarMeanRow(features, v, rows, want.data());
            expectBitwiseRow(got, want, "CsrGraph", width, v);

            overlay.forEachDeltaNeighbor(
                v, [&](VertexId u) { rows.push_back(u); });
            fullMeanRow(overlay, features, v, got.data());
            scalarMeanRow(features, v, rows, want.data());
            expectBitwiseRow(got, want, "DeltaCsr", width, v);
        }
    }
}

} // namespace
} // namespace graphite
