/**
 * @file
 * The benchmark's workloads and the inputs ("world") each one builds from
 * its seed: a graph, input features with labels, and a two-layer GCN.
 * The graph is a fixed dataset per workload; features, labels and weights
 * come from the seed, so one seed always gives the same world.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "gnn/gnn_model.h"
#include "gnn/trainer.h"
#include "graph/csr_graph.h"

namespace perfbench {

enum class Workload
{
    /** Full-graph inference whose input is several times the L3. */
    InferDram,
    /** Full-batch training whose buffers all fit in the L3. */
    TrainCached,
    /** Open-loop serving over a DRAM-resident feature table. */
    ServeZipf,
    /** serve-zipf's traffic while edges are inserted alongside. */
    ServeChurn,
};

/** Parse "infer-dram" etc.; false for an unknown name. */
bool parseWorkload(const std::string &name, Workload &out);
const char *workloadName(Workload workload);

/** Shape of one workload's inputs. */
struct WorldSpec
{
    std::string graphLabel;
    std::size_t inputWidth = 0;
    std::size_t hiddenWidth = 0;
    std::size_t classes = 16;
    double dropout = 0.5;
};

/**
 * @param tiny shrink every input so a run takes seconds (the benchmark's
 *        own self-test); timings at this scale mean nothing.
 */
WorldSpec worldSpec(Workload workload, bool tiny);

/** The inputs of one run. The model borrows graph, so World is pinned. */
struct World
{
    WorldSpec spec;
    graphite::CsrGraph graph;
    graphite::SyntheticTask task;
    std::unique_ptr<graphite::GnnModel> model;

    World() = default;
    World(const World &) = delete;
    World &operator=(const World &) = delete;

    /** Bytes of the input feature array as stored (padded rows). */
    double inputMib() const;
};

/** Generate the world of @p workload from @p seed. */
std::unique_ptr<World> buildWorld(Workload workload, bool tiny,
                                  std::uint64_t seed);

} // namespace perfbench
