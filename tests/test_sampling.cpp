/**
 * @file
 * Tests of neighborhood sampling and mini-batch construction (paper
 * Section 2.1, the Figure 2 workload).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

#include "graph/generators.h"
#include "sampling/neighbor_sampler.h"

namespace graphite {
namespace {

/** Vertex 0 points at 1..deg, ascending; every other row is empty. */
CsrGraph
starGraph(VertexId deg)
{
    std::vector<EdgeId> rowPtr(static_cast<std::size_t>(deg) + 2, deg);
    rowPtr[0] = 0;
    std::vector<VertexId> colIdx(deg);
    for (VertexId i = 0; i < deg; ++i)
        colIdx[i] = i + 1;
    return CsrGraph(std::move(rowPtr), std::move(colIdx));
}

/**
 * Chi-square-style uniformity check of sampleNeighbors at one degree:
 * over @p trials draws from the star centre, neighbor i's inclusion
 * count is Binomial(trials, p) with p = fanout/deg, so
 * X = Σ (count - trials·p)² / (trials·p·(1-p)) has mean deg. A biased
 * sampler (position-dependent inclusion) lands far above the bound.
 */
void
expectUniformInclusion(VertexId deg, VertexId fanout, std::size_t trials,
                       std::uint64_t seed)
{
    const CsrGraph star = starGraph(deg);
    std::vector<std::uint64_t> counts(deg + 1, 0);
    std::vector<VertexId> picks(fanout);
    Rng rng(seed);
    for (std::size_t t = 0; t < trials; ++t) {
        const std::size_t n =
            sampleNeighbors(star, 0, fanout, rng, picks.data());
        ASSERT_EQ(n, fanout);
        for (std::size_t j = 0; j < n; ++j)
            ++counts[picks[j]];
    }
    const double p = static_cast<double>(fanout) / deg;
    const double expected = trials * p;
    const double variance = trials * p * (1.0 - p);
    double chi2 = 0.0;
    for (VertexId u = 1; u <= deg; ++u) {
        const double d = static_cast<double>(counts[u]) - expected;
        chi2 += d * d / variance;
    }
    // Mean deg, standard deviation ~sqrt(2·deg): six sigma of headroom.
    const double bound = deg + 6.0 * std::sqrt(2.0 * deg);
    EXPECT_LT(chi2, bound) << "deg " << deg << ", fanout " << fanout;
    std::printf("inclusion chi2 deg=%u fanout=%u: %.1f (bound %.1f)\n",
                deg, fanout, chi2, bound);
}

TEST(Sampler, InclusionIsUniformJustAboveFanout)
{
    expectUniformInclusion(11, 10, 4000, 101);
}

TEST(Sampler, InclusionIsUniformOnHubRows)
{
    expectUniformInclusion(1000, 10, 20000, 102);
}

TEST(Sampler, SampleNeighborsDrawsMinDegFanoutDistinctInRowOrder)
{
    Rng rng(103);
    for (const VertexId deg : {0u, 1u, 5u, 10u, 11u, 37u, 1000u}) {
        const CsrGraph star = starGraph(deg);
        for (const VertexId fanout : {0u, 1u, 10u}) {
            std::vector<VertexId> picks(fanout);
            for (int rep = 0; rep < 20; ++rep) {
                const std::size_t n =
                    sampleNeighbors(star, 0, fanout, rng, picks.data());
                ASSERT_EQ(n, std::min(deg, fanout))
                    << "deg " << deg << ", fanout " << fanout;
                for (std::size_t j = 0; j < n; ++j) {
                    ASSERT_GE(picks[j], 1u);
                    ASSERT_LE(picks[j], deg);
                    // Strictly ascending: distinct, and resolved in row
                    // order (the star's row is sorted).
                    if (j > 0) {
                        ASSERT_LT(picks[j - 1], picks[j]);
                    }
                }
            }
        }
    }
}

TEST(Sampler, FanoutBoundsSampledDegree)
{
    CsrGraph g = generateBarabasiAlbert(500, 6, 61);
    Rng rng(1);
    std::vector<VertexId> seeds = {0, 1, 2, 3, 4};
    MiniBatch batch = sampleMiniBatch(g, seeds, {5, 5}, rng);
    ASSERT_EQ(batch.blocks.size(), 2u);
    for (const SampledBlock &block : batch.blocks) {
        for (VertexId d = 0; d < block.block.numVertices(); ++d)
            EXPECT_LE(block.block.degree(d), 5u);
    }
}

TEST(Sampler, LowDegreeVerticesKeepAllNeighbors)
{
    CsrGraph g = generateRing(32); // degree 2 everywhere
    Rng rng(2);
    MiniBatch batch = sampleMiniBatch(g, {7}, {10}, rng);
    const SampledBlock &block = batch.blocks[0];
    ASSERT_EQ(block.dstVertices.size(), 1u);
    EXPECT_EQ(block.block.degree(0), 2u);
}

TEST(Sampler, OutermostDstsAreTheSeeds)
{
    CsrGraph g = generateErdosRenyi(200, 2000, false, 62);
    Rng rng(3);
    std::vector<VertexId> seeds = {10, 20, 30};
    MiniBatch batch = sampleMiniBatch(g, seeds, {4, 4, 4}, rng);
    EXPECT_EQ(batch.blocks.back().dstVertices, seeds);
}

TEST(Sampler, LayersChainSrcToDst)
{
    CsrGraph g = generateErdosRenyi(300, 4000, false, 63);
    Rng rng(4);
    MiniBatch batch = sampleMiniBatch(g, {1, 2}, {3, 3}, rng);
    // Inner layer's destination set == outer layer's source set.
    EXPECT_EQ(batch.blocks[0].dstVertices, batch.blocks[1].srcVertices);
}

TEST(Sampler, LocalIndicesAreConsistent)
{
    CsrGraph g = generateErdosRenyi(100, 1500, false, 64);
    Rng rng(5);
    MiniBatch batch = sampleMiniBatch(g, {5, 6, 7}, {4}, rng);
    const SampledBlock &block = batch.blocks[0];
    // The block CSR has one row per *source* so local ids address it
    // directly, but only the first |dst| rows may carry edges.
    ASSERT_EQ(block.block.numVertices(), block.srcVertices.size());
    for (VertexId v = block.dstVertices.size();
         v < block.block.numVertices(); ++v)
        EXPECT_TRUE(block.block.neighbors(v).empty());
    // Every sampled edge must point at a valid local source, and the
    // global edge (dst -> src) must exist in the original graph.
    for (VertexId d = 0; d < block.dstVertices.size(); ++d) {
        const VertexId globalDst = block.dstVertices[d];
        for (VertexId localSrc : block.block.neighbors(d)) {
            ASSERT_LT(localSrc, block.srcVertices.size());
            const VertexId globalSrc = block.srcVertices[localSrc];
            auto neighbors = g.neighbors(globalDst);
            EXPECT_TRUE(std::find(neighbors.begin(), neighbors.end(),
                                  globalSrc) != neighbors.end());
        }
    }
}

TEST(Sampler, SampledNeighborsAreDistinct)
{
    CsrGraph g = generateBarabasiAlbert(200, 8, 65);
    Rng rng(6);
    MiniBatch batch = sampleMiniBatch(g, {0}, {6}, rng);
    const SampledBlock &block = batch.blocks[0];
    std::set<VertexId> seen(block.block.neighbors(0).begin(),
                            block.block.neighbors(0).end());
    EXPECT_EQ(seen.size(), block.block.neighbors(0).size());
}

TEST(Sampler, GatherBatchFeaturesCopiesRows)
{
    CsrGraph g = generateRing(16);
    DenseMatrix features(16, 32);
    features.fillUniform(-1.0f, 1.0f, 66);
    std::vector<VertexId> vertices = {3, 9, 15};
    DenseMatrix gathered = gatherBatchFeatures(features, vertices);
    ASSERT_EQ(gathered.rows(), 3u);
    for (std::size_t i = 0; i < vertices.size(); ++i) {
        for (std::size_t c = 0; c < 32; ++c)
            EXPECT_EQ(gathered.at(i, c), features.at(vertices[i], c));
    }
}

TEST(Sampler, EpochBatchesPartitionAllVertices)
{
    CsrGraph g = generateErdosRenyi(1000, 5000, false, 67);
    Rng rng(7);
    auto batches = makeEpochBatches(g, 128, rng);
    std::set<VertexId> seen;
    for (const auto &batch : batches) {
        EXPECT_LE(batch.size(), 128u);
        for (VertexId v : batch) {
            EXPECT_TRUE(seen.insert(v).second) << "duplicate " << v;
        }
    }
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(Sampler, SamplingIsSeedDeterministic)
{
    CsrGraph g = generateBarabasiAlbert(300, 5, 68);
    Rng rngA(9);
    Rng rngB(9);
    MiniBatch a = sampleMiniBatch(g, {1, 2, 3}, {4, 4}, rngA);
    MiniBatch b = sampleMiniBatch(g, {1, 2, 3}, {4, 4}, rngB);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t k = 0; k < a.blocks.size(); ++k) {
        EXPECT_EQ(a.blocks[k].srcVertices, b.blocks[k].srcVertices);
    }
}

TEST(Sampler, RequestSeedReplayReproducesTrees)
{
    // The serving contract: a request's tree is a pure function of its
    // id — Rng(requestSeed(id)) replays the exact tree later, no matter
    // what the scratch sampled in between or which scratch is used.
    CsrGraph g = generateBarabasiAlbert(400, 6, 91);
    const std::vector<VertexId> fanouts = {4, 3};
    SamplerScratch live(g.numVertices());
    SamplerScratch replay(g.numVertices());
    for (std::uint64_t id = 0; id < 16; ++id) {
        const VertexId seed = static_cast<VertexId>((id * 29) % 400);
        Rng rngLive(requestSeed(id));
        SampledTree treeLive;
        sampleTree(g, seed, fanouts, rngLive, live, treeLive);
        // Pollute the live scratch with unrelated work.
        Rng rngNoise(requestSeed(id ^ 0xabcdef));
        SampledTree noise;
        sampleTree(g, 7, fanouts, rngNoise, live, noise);
        Rng rngReplay(requestSeed(id));
        SampledTree treeReplay;
        sampleTree(g, seed, fanouts, rngReplay, replay, treeReplay);
        ASSERT_EQ(treeLive.blocks.size(), treeReplay.blocks.size());
        for (std::size_t k = 0; k < treeLive.blocks.size(); ++k) {
            EXPECT_EQ(treeLive.blocks[k].rowPtr,
                      treeReplay.blocks[k].rowPtr);
            EXPECT_EQ(treeLive.blocks[k].colIdx,
                      treeReplay.blocks[k].colIdx);
            EXPECT_EQ(treeLive.blocks[k].dstVertices,
                      treeReplay.blocks[k].dstVertices);
            EXPECT_EQ(treeLive.blocks[k].srcVertices,
                      treeReplay.blocks[k].srcVertices);
        }
    }
}

TEST(Sampler, RequestSeedDecorrelatesAdjacentIds)
{
    // Adjacent request ids must not sample correlated trees: check the
    // seeds differ in many bit positions (splitmix64 avalanche).
    int differingBits = 0;
    const std::uint64_t diff = requestSeed(100) ^ requestSeed(101);
    for (int b = 0; b < 64; ++b)
        differingBits += static_cast<int>((diff >> b) & 1u);
    EXPECT_GE(differingBits, 16);
    EXPECT_EQ(requestSeed(100), requestSeed(100));
}

} // namespace
} // namespace graphite
