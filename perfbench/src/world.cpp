#include "world.h"

#include "graph/datasets.h"
#include "graph/generators.h"

namespace perfbench {

using namespace graphite;

namespace {

struct NamedWorkload
{
    const char *name;
    Workload workload;
};

constexpr NamedWorkload kWorkloads[] = {
    {"infer-dram", Workload::InferDram},
    {"train-cached", Workload::TrainCached},
    {"serve-zipf", Workload::ServeZipf},
    {"serve-churn", Workload::ServeChurn},
};

/** Papers analogue at shift 0: 262,144 vertices. */
constexpr unsigned kPapersShift = 0;
/** Products analogue at shift 3: 16,384 vertices. */
constexpr unsigned kProductsShift = 3;
/** Serving graph: R-MAT scale 18 (262,144 vertices), average degree 16. */
constexpr unsigned kServeScale = 18;
/**
 * Graph structure is a fixed dataset; the run seed draws everything else
 * (features, labels, weights and, in the workloads, every request and
 * insert). A different R-MAT per seed moves hub degrees and with them the
 * serving figures by more than the regression bounds.
 */
constexpr std::uint64_t kGraphSeed = 1;

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (const NamedWorkload &w : kWorkloads) {
        if (name == w.name) {
            out = w.workload;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload workload)
{
    for (const NamedWorkload &w : kWorkloads) {
        if (w.workload == workload)
            return w.name;
    }
    return "?";
}

WorldSpec
worldSpec(Workload workload, bool tiny)
{
    WorldSpec spec;
    switch (workload) {
      case Workload::InferDram:
        spec.graphLabel = "papers analogue";
        spec.inputWidth = tiny ? 64 : 512;
        spec.hiddenWidth = tiny ? 32 : 256;
        break;
      case Workload::TrainCached:
        spec.graphLabel = "products analogue";
        spec.inputWidth = 100;
        spec.hiddenWidth = tiny ? 32 : 256;
        break;
      case Workload::ServeZipf:
      case Workload::ServeChurn:
        spec.graphLabel = "R-MAT";
        spec.inputWidth = tiny ? 32 : 256;
        spec.hiddenWidth = tiny ? 32 : 256;
        break;
    }
    return spec;
}

double
World::inputMib() const
{
    return static_cast<double>(task.features.rows() *
                               task.features.rowBytes()) /
           (1024.0 * 1024.0);
}

std::unique_ptr<World>
buildWorld(Workload workload, bool tiny, std::uint64_t seed)
{
    auto world = std::make_unique<World>();
    world->spec = worldSpec(workload, tiny);
    switch (workload) {
      case Workload::InferDram:
        world->graph = makeDataset(DatasetId::Papers,
                                   tiny ? 8 : kPapersShift, kGraphSeed)
                           .graph;
        break;
      case Workload::TrainCached:
        world->graph = makeDataset(DatasetId::Products,
                                   tiny ? 8 : kProductsShift, kGraphSeed)
                           .graph;
        break;
      case Workload::ServeZipf:
      case Workload::ServeChurn: {
        RmatParams params;
        params.scale = tiny ? 11 : kServeScale;
        params.avgDegree = 16.0;
        params.seed = kGraphSeed;
        world->graph = generateRmat(params);
        break;
      }
    }
    const WorldSpec &spec = world->spec;
    world->task = makeSyntheticTask(world->graph, spec.classes,
                                    spec.inputWidth, 0.4, seed + 1);
    GnnModelConfig config;
    config.kind = GnnKind::Gcn;
    config.featureWidths = {spec.inputWidth, spec.hiddenWidth, spec.classes};
    config.dropoutRate = spec.dropout;
    config.seed = seed + 2;
    world->model = std::make_unique<GnnModel>(world->graph, config);
    return world;
}

} // namespace perfbench
