#include "kernels/mean_gather.h"

namespace graphite {

void
fullMeanRow(const CsrGraph &graph, const DenseMatrix &features,
            VertexId v, Feature *dst)
{
    const auto neighbors = graph.neighbors(v);
    meanGather(
        features.row(v), neighbors.size(),
        [&](std::size_t i) { return features.row(neighbors[i]); },
        features.cols(), dst);
}

void
fullMeanRow(const DeltaCsr &graph, const DenseMatrix &features,
            VertexId v, Feature *dst)
{
    // The view snapshots the published delta count once and walks base
    // row then delta chain; meanGather's ascending calls keep its chain
    // cursor moving forward.
    const DeltaCsr::RowView neighbors = graph.neighborsView(v);
    meanGather(
        features.row(v), neighbors.size(),
        [&](std::size_t i) { return features.row(neighbors[i]); },
        features.cols(), dst);
}

} // namespace graphite
