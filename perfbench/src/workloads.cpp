#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "graph/delta_csr.h"
#include "open_loop.h"
#include "probes.h"
#include "tracer.h"

namespace perfbench {

using namespace graphite;

namespace {

constexpr int kSetupReps = 3;

std::string
fmt(const char *format, double value)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

/**
 * Build the run's state kSetupReps times, dropping the previous one
 * first so only one is ever resident, and report the median as setup_s.
 */
template <typename State, typename Build>
std::unique_ptr<State>
setUp(Report &report, const std::string &what, Build build)
{
    std::vector<double> times;
    std::unique_ptr<State> state;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        state.reset();
        Timer timer;
        state = build();
        times.push_back(timer.seconds());
    }
    report.metric("setup_s", median(times), "s",
                  "median of " + std::to_string(kSetupReps) + " set-ups: " +
                      what);
    return state;
}

/**
 * One repeated operation: the gated figure is the median CPU time of the
 * process (all threads) per operation; wall-time p50 and p90 are printed
 * by name. Wall time on a shared virtual host moves with the other
 * tenants: a stolen virtual CPU stalls every pool thread at the next
 * barrier, and runs of the same build differed by 2x in median epoch
 * time. CPU time leaves out stolen and runnable-but-waiting time, so it
 * moves with the work the program does.
 */
void
reportOp(Report &report, const char *prefix, const std::vector<double> &ms,
         const std::vector<double> &cpuMs, const std::string &what)
{
    const std::string n = std::to_string(ms.size());
    report.metric(std::string(prefix) + "_cpu_ms", median(cpuMs), "ms",
                  "CPU time of a " + what + ", all threads, median of " + n);
    report.named(std::string(prefix) + "_p50_ms", median(ms), "ms",
                 "wall time of a " + what + ", median of " + n);
    report.named(std::string(prefix) + "_p90_ms", quantile(ms, 0.9), "ms",
                 "wall time of a " + what + ", p90 of " + n);
}

/**
 * Whole-stream p99 (refused as +inf) in microseconds, printed by name and
 * not gated, so it keeps every stall, compaction pauses included.
 */
void
reportP99(Report &report, const std::string &name,
          const std::vector<double> &latencyUs, const std::string &what)
{
    report.named(name, quantile(withMisses(latencyUs), 0.99), "us",
                 what + ", p99 of " + std::to_string(latencyUs.size()));
}

/**
 * reportOp for one open-loop phase: the gated figure is the consumer
 * thread's CPU time per request served, median over windows of
 * Traffic::kWindow requests. Due-time latency p50 and p90 (medians over
 * the same windows, refused requests as misses) are printed by name:
 * every millisecond the host takes the consumer's virtual CPU away lands
 * on them, and runs of the same build differed by 27% in median p50.
 */
void
reportStream(Report &report, const char *prefix, const Phase &phase,
             const std::string &what)
{
    report.metric(std::string(prefix) + "_cpu_ms", median(phase.cpuUs) / 1e3,
                  "ms",
                  "consumer CPU time per request " + what + ", median of " +
                      std::to_string(phase.cpuUs.size()) + " windows of " +
                      std::to_string(Traffic::kWindow));
    std::string label;
    const double p50 =
        windowedQuantile(phase.latencyUs, Traffic::kWindow, 0.5, label);
    report.named(std::string(prefix) + "_p50_ms", p50 / 1e3, "ms",
                 "request latency " + what + ", " + label);
    const double p90 =
        windowedQuantile(phase.latencyUs, Traffic::kWindow, 0.9, label);
    report.named(std::string(prefix) + "_p90_ms", p90 / 1e3, "ms",
                 "request latency " + what + ", " + label);
}

void
inferDram(const RunOptions &options, Report &report)
{
    TechniqueConfig fp32 = TechniqueConfig::combined();
    TechniqueConfig bf16 = TechniqueConfig::combined();
    bf16.precision = Precision::Bf16;

    auto world = setUp<World>(
        report, "graph, features, model, first fp32 and bf16 passes", [&] {
            auto w = buildWorld(options.workload, options.tiny, options.seed);
            w->model->inference(w->task.features, fp32);
            w->model->inference(w->task.features, bf16);
            return w;
        });
    GnnModel &model = *world->model;
    const DenseMatrix &features = world->task.features;
    const double l3 = hostL3Mib();
    std::printf("world  %s: %u vertices, %llu edges, GCN %zu-%zu-%zu; input "
                "array %.1f MiB (computed) = %.2fx the %.1f MiB L3\n",
                world->spec.graphLabel.c_str(), world->graph.numVertices(),
                static_cast<unsigned long long>(world->graph.numEdges()),
                world->spec.inputWidth, world->spec.hiddenWidth,
                world->spec.classes, world->inputMib(),
                l3 > 0.0 ? world->inputMib() / l3 : 0.0, l3);

    // fp32 and bf16 passes alternate so both see the same conditions.
    std::vector<double> fp32Ms;
    std::vector<double> bf16Ms;
    std::vector<double> fp32CpuMs;
    std::vector<double> bf16CpuMs;
    const auto pass = [&](const TechniqueConfig &tech,
                          std::vector<double> &ms, std::vector<double> &cpuMs)
        -> const DenseMatrix & {
        const double cpu = processCpuSeconds();
        Timer timer;
        const DenseMatrix &logits = model.inference(features, tech);
        ms.push_back(timer.milliseconds());
        cpuMs.push_back((processCpuSeconds() - cpu) * 1e3);
        return logits;
    };
    DenseMatrix firstFp32;
    Timer elapsed;
    while (elapsed.seconds() < options.seconds || fp32Ms.size() < 3) {
        const DenseMatrix &logits = pass(fp32, fp32Ms, fp32CpuMs);
        if (fp32Ms.size() == 1)
            firstFp32 = logits;
        pass(bf16, bf16Ms, bf16CpuMs);
    }
    reportOp(report, "op", fp32Ms, fp32CpuMs,
             "combined fp32 full-graph pass");
    reportOp(report, "alt", bf16Ms, bf16CpuMs,
             "combined bf16 full-graph pass");
    report.named("infer_s", median(fp32Ms) / 1e3, "s",
                 "wall time, median of " + std::to_string(fp32Ms.size()) +
                     " passes");
    report.named("infer_bf16_s", median(bf16Ms) / 1e3, "s",
                 "wall time, median of " + std::to_string(bf16Ms.size()) +
                     " passes");

    const DenseMatrix lastFp32 = model.inference(features, fp32);
    const DenseMatrix lastBf16 = model.inference(features, bf16);
    const DenseMatrix &basic =
        model.inference(features, TechniqueConfig::basic());
    double scale = 0.0;
    for (std::size_t r = 0; r < basic.rows(); ++r) {
        for (std::size_t c = 0; c < basic.cols(); ++c)
            scale = std::max(scale, std::fabs(double(basic.row(r)[c])));
    }
    // Tolerances relative to the largest logit: fp32 differs from basic
    // only in summation order, bf16 rounds the GEMM operands to 8 bits of
    // mantissa.
    const double fp32Diff = lastFp32.maxAbsDiff(basic);
    const double bf16Diff = lastBf16.maxAbsDiff(basic);
    report.check("logits.fp32_vs_basic", fp32Diff <= 1e-4 * scale,
                 fmt("max abs diff %.3g", fp32Diff) +
                     fmt(", tolerance 1e-4 x max |logit| %.3g", scale));
    report.check("logits.bf16_vs_basic", bf16Diff <= 5e-2 * scale,
                 fmt("max abs diff %.3g", bf16Diff) +
                     fmt(", tolerance 5e-2 x max |logit| %.3g", scale));
    report.check("logits.fp32_repeat", firstFp32.maxAbsDiff(lastFp32) == 0.0,
                 "first and last timed fp32 pass bitwise equal");
    report.count(fp32Ms.size() + bf16Ms.size() + 3, 0);
}

/** train-cached state: the trainer borrows the world's model. */
struct Training
{
    std::unique_ptr<World> world;
    std::unique_ptr<Trainer> trainer;
    std::vector<double> losses;
};

constexpr std::size_t kCheckEpochs = 12;

std::unique_ptr<Training>
makeTraining(const RunOptions &options, const TechniqueConfig &tech)
{
    auto t = std::make_unique<Training>();
    t->world = buildWorld(options.workload, options.tiny, options.seed);
    TrainerConfig config;
    config.learningRate = 0.05f;
    config.tech = tech;
    t->trainer = std::make_unique<Trainer>(
        *t->world->model, t->world->task.features, t->world->task.labels,
        config);
    return t;
}

void
trainCached(const RunOptions &options, Report &report)
{
    const TechniqueConfig tech = TechniqueConfig::combinedLocality();
    auto run = setUp<Training>(
        report, "graph, features, model, first epoch (locality order, "
                "transpose, plans)",
        [&] {
            auto t = makeTraining(options, tech);
            t->losses.push_back(t->trainer->trainEpoch().loss);
            return t;
        });
    const World &world = *run->world;
    std::printf("world  %s: %u vertices, %llu edges, GCN %zu-%zu-%zu, "
                "dropout %.1f, technique c-locality; input %.1f MiB\n",
                world.spec.graphLabel.c_str(), world.graph.numVertices(),
                static_cast<unsigned long long>(world.graph.numEdges()),
                world.spec.inputWidth, world.spec.hiddenWidth,
                world.spec.classes, world.spec.dropout, world.inputMib());

    // Epochs alternate with full-graph evaluations, as a training loop
    // that tracks accuracy would run them.
    std::vector<double> epochMs;
    std::vector<double> evalMs;
    std::vector<double> epochCpuMs;
    std::vector<double> evalCpuMs;
    std::vector<DenseMatrix> weightsAt12;
    Timer elapsed;
    while (elapsed.seconds() < options.seconds ||
           run->losses.size() < kCheckEpochs) {
        double cpu = processCpuSeconds();
        Timer timer;
        run->losses.push_back(run->trainer->trainEpoch().loss);
        epochMs.push_back(timer.milliseconds());
        epochCpuMs.push_back((processCpuSeconds() - cpu) * 1e3);
        if (run->losses.size() == kCheckEpochs) {
            const GnnModel &model = *run->world->model;
            weightsAt12 = {model.layer(0).weights(), model.layer(1).weights()};
        }
        cpu = processCpuSeconds();
        timer.reset();
        run->trainer->evaluate();
        evalMs.push_back(timer.milliseconds());
        evalCpuMs.push_back((processCpuSeconds() - cpu) * 1e3);
    }
    reportOp(report, "op", epochMs, epochCpuMs, "c-locality training epoch");
    reportOp(report, "alt", evalMs, evalCpuMs, "full-graph evaluation pass");
    report.named("epoch_s", median(epochMs) / 1e3, "s",
                 "wall time, median of " + std::to_string(epochMs.size()) +
                     " epochs");
    report.named("loss_at_epoch_12", run->losses[kCheckEpochs - 1], "nats",
                 "repeats exactly for a given seed");

    // Training must be deterministic: a fresh model of the same seed ends
    // epoch 12 with bitwise-equal weights. The reported loss is compared
    // within 1e-12 only, because softmaxCrossEntropy sums per-thread
    // partials in an order set by dynamic chunk scheduling. The basic
    // technique must follow the same loss curve within tolerance.
    const auto train12 = [&](const TechniqueConfig &t) {
        auto fresh = makeTraining(options, t);
        for (std::size_t e = 0; e < kCheckEpochs; ++e)
            fresh->losses.push_back(fresh->trainer->trainEpoch().loss);
        return fresh;
    };
    const auto repeat = train12(tech);
    bool sameWeights = true;
    for (std::size_t k = 0; k < 2; ++k) {
        const GnnModel &model = *repeat->world->model;
        sameWeights = sameWeights &&
                      model.layer(k).weights().maxAbsDiff(weightsAt12[k]) == 0.0;
    }
    const std::vector<double> basic = train12(TechniqueConfig::basic())->losses;
    double repeatDiff = 0.0;
    double basicDiff = 0.0;
    for (std::size_t e = 0; e < kCheckEpochs; ++e) {
        repeatDiff = std::max(repeatDiff,
                              std::fabs(repeat->losses[e] - run->losses[e]));
        basicDiff = std::max(basicDiff, std::fabs(basic[e] - run->losses[e]));
    }
    report.check("train.weights_repeat", sameWeights,
                 "weights after 12 epochs bitwise equal on a fresh model");
    report.check("train.loss_repeat", repeatDiff <= 1e-12,
                 fmt("max abs loss diff %.3g over 12 epochs, tolerance "
                     "1e-12",
                     repeatDiff));
    report.check("train.loss_vs_basic", basicDiff <= 1e-3,
                 fmt("max abs loss diff %.3g over 12 epochs, tolerance 1e-3",
                     basicDiff));
    report.count(epochMs.size() + evalMs.size() + 2 * kCheckEpochs, 0);
}

/** serve-* state; members are destroyed bottom-up, loop first. */
struct Serving
{
    std::unique_ptr<World> world;
    std::unique_ptr<DeltaCsr> overlay;
    std::unique_ptr<ZipfStream> zipf;
    std::unique_ptr<serve::InferenceServer> server;
    std::unique_ptr<OpenLoop> loop;

    std::vector<GnnLayer *>
    layers() const
    {
        return {&world->model->layer(0), &world->model->layer(1)};
    }
};

/** Seconds of high-rate traffic that fill the hot cache during set-up. */
constexpr double kWarmSeconds = 0.4;

std::unique_ptr<Serving>
makeServing(const RunOptions &options, bool churn)
{
    auto s = std::make_unique<Serving>();
    s->world = buildWorld(options.workload, options.tiny, options.seed);
    s->zipf = std::make_unique<ZipfStream>(s->world->graph, Traffic::kZipf);
    const DenseMatrix &features = s->world->task.features;
    if (churn) {
        s->overlay = std::make_unique<DeltaCsr>(CsrGraph(s->world->graph),
                                                Traffic::kDeltaBudget);
        s->server = std::make_unique<serve::InferenceServer>(
            *s->overlay, features, s->layers(), serveConfig());
    } else {
        s->server = std::make_unique<serve::InferenceServer>(
            s->world->graph, features, s->layers(), serveConfig());
    }
    s->server->warmup();
    s->loop = std::make_unique<OpenLoop>(*s->server, *s->zipf,
                                         options.seed + 3);
    s->loop->run(Traffic::kHighQps, kWarmSeconds);
    return s;
}

void
printServingWorld(const Serving &s)
{
    const World &w = *s.world;
    std::printf("world  %s: %u vertices, %llu edges, GCN layers %zu-%zu-%zu "
                "served with fanout 10/10, 4096-row hot cache, Zipf %.1f; "
                "feature table %.1f MiB\n",
                w.spec.graphLabel.c_str(), w.graph.numVertices(),
                static_cast<unsigned long long>(w.graph.numEdges()),
                w.spec.inputWidth, w.spec.hiddenWidth, w.spec.classes,
                Traffic::kZipf, w.inputMib());
}

void
serveZipf(const RunOptions &options, Report &report)
{
    auto s = setUp<Serving>(
        report, "graph, features, model, server warmup, 0.4 s cache fill",
        [&] { return makeServing(options, false); });
    printServingWorld(*s);
    const double sec = options.seconds;
    const Phase low = s->loop->run(Traffic::kLowQps, 0.5 * sec);
    const Phase high = s->loop->run(Traffic::kHighQps, 0.3 * sec);
    const Capacity cap =
        findCapacity(*s->loop, Traffic::kLadderStartQps,
                     Traffic::kLadderStepQps, Traffic::kSloUs, 0.02 * sec);

    const std::string lowRate = fmt("%.0f QPS", Traffic::kLowQps);
    const std::string highRate = fmt("%.0f QPS", Traffic::kHighQps);
    reportStream(report, "op", low, "at " + lowRate);
    reportStream(report, "alt", high, "at " + highRate);
    report.named("p50_us_low", median(withMisses(low.latencyUs)), "us",
                 lowRate);
    reportP99(report, "p99_us_low", low.latencyUs, lowRate);
    report.named("p50_us_high", median(withMisses(high.latencyUs)), "us",
                 highRate);
    reportP99(report, "p99_us_high", high.latencyUs, highRate);
    report.named("max_qps_slo", cap.qps, "1/s",
                 fmt("highest rate with p99 <= %.0f ms, nothing refused, "
                     "no growing backlog; ",
                     Traffic::kSloUs / 1e3) +
                     std::to_string(cap.steps) + " rungs: " + cap.trail);
    std::vector<double> late(low.lateUs);
    late.insert(late.end(), high.lateUs.begin(), high.lateUs.end());
    report.named("gen_late_us_p99", quantile(late, 0.99), "us",
                 "generator push minus due time");

    // Served embeddings (cache on) must equal the hub-exact replay.
    Rng pick(options.seed + 7);
    std::vector<Feature> replay(s->server->outFeatures());
    std::size_t mismatches = 0;
    constexpr std::size_t kSamples = 64;
    for (std::size_t k = 0; k < kSamples; ++k) {
        const auto i = static_cast<std::size_t>(pick.uniformInt(low.ids.size()));
        if (low.latencyUs[i] < 0.0)
            continue;
        s->server->serveOneHubExact(low.ids[i], low.vertices[i], replay.data());
        if (std::memcmp(replay.data(), low.results.row(i),
                        replay.size() * sizeof(Feature)) != 0)
            ++mismatches;
    }
    report.check("serve.hub_exact_replay", mismatches == 0,
                 std::to_string(kSamples) + " seeded served requests, " +
                     std::to_string(mismatches) + " differ bitwise");
    const std::uint64_t refused = low.refused + high.refused;
    report.check("serve.all_accepted_served",
                 low.served() + high.served() + refused ==
                     low.attempted() + high.attempted(),
                 "served + refused == attempted");
    report.count(low.attempted() + high.attempted(), refused);
}

void
serveChurn(const RunOptions &options, Report &report)
{
    auto s = setUp<Serving>(
        report, "graph, features, model, DeltaCsr, server warmup, 0.4 s "
                "cache fill",
        [&] { return makeServing(options, true); });
    printServingWorld(*s);
    Phase phase;
    Phase high;
    std::vector<double> insertUs;
    std::uint64_t added = 0;
    std::uint64_t poolFull = 0;
    Phase compaction;
    {
        // Steady churn first, with compaction held back: a compaction
        // flushes the hot cache and the refill stalls serving for
        // hundreds of milliseconds, which would swamp the steady-state
        // figures. Its cost is measured on its own below.
        Churner churner(*s->server, Traffic::kInsertRate, options.seed + 5);
        phase = s->loop->run(Traffic::kLowQps, 0.5 * options.seconds);
        high = s->loop->run(Traffic::kHighQps, 0.3 * options.seconds);
        s->server->requestCompaction();
        compaction = s->loop->run(Traffic::kLowQps, 0.1 * options.seconds);
        churner.stop();
        insertUs = churner.insertUs();
        added = churner.added();
        poolFull = churner.poolFull();
    }
    s->loop.reset(); // closes the queue and joins the consumer
    const serve::ServeStats stats = s->server->stats();

    const std::string lowRate = fmt("%.0f QPS", Traffic::kLowQps);
    const std::string highRate = fmt("%.0f QPS", Traffic::kHighQps);
    const std::string inserts =
        fmt(" with %.0f inserts/s", Traffic::kInsertRate);
    reportStream(report, "op", phase, "at " + lowRate + inserts);
    reportStream(report, "alt", high, "at " + highRate + inserts);
    report.named("p50_us_low", median(withMisses(phase.latencyUs)), "us",
                 lowRate + " under churn");
    reportP99(report, "p99_us_low", phase.latencyUs, lowRate + " under churn");
    report.named("insert_p50_us", median(insertUs), "us",
                 "insertEdge call, median of " +
                     std::to_string(insertUs.size()));
    reportP99(report, "insert_p99_us", insertUs, "insertEdge call");
    reportP99(report, "p99_us_compaction", compaction.latencyUs,
              lowRate + " while the overlay compacts and the hot cache "
                        "refills");
    std::printf("churn  %llu inserts accepted, %llu compactions, %llu cache "
                "invalidations\n",
                static_cast<unsigned long long>(added),
                static_cast<unsigned long long>(stats.compactions),
                static_cast<unsigned long long>(stats.cache.invalidations));

    s->server->compactNow();
    const std::vector<GnnLayer *> layers = s->layers();
    report.named("staleness_rel_l2",
                 staleness(*s->server, *s->overlay, s->world->task.features,
                           layers, phase, 256),
                 "frac", "served vs compacted-graph replay, 256 requests");
    report.check("churn.compacted_parity",
                 compactedParity(*s->server, *s->overlay,
                                 s->world->task.features, layers, 64,
                                 options.seed + 9),
                 "64 seeded requests bitwise equal on a fresh server over "
                 "the compacted graph");
    const std::uint64_t refused =
        phase.refused + high.refused + compaction.refused;
    report.check("serve.all_accepted_served",
                 phase.served() + high.served() + compaction.served() +
                         refused ==
                     phase.attempted() + high.attempted() +
                         compaction.attempted(),
                 "served + refused == attempted");
    report.count(phase.attempted() + high.attempted() +
                     compaction.attempted() + insertUs.size(),
                 refused + poolFull);
}

} // namespace

void
runEndToEnd(const RunOptions &options, Report &report)
{
    switch (options.workload) {
      case Workload::InferDram:
        inferDram(options, report);
        break;
      case Workload::TrainCached:
        trainCached(options, report);
        break;
      case Workload::ServeZipf:
        serveZipf(options, report);
        break;
      case Workload::ServeChurn:
        serveChurn(options, report);
        break;
    }
    report.metric("peak_rss_mib", peakRssMib(), "MiB",
                  "getrusage max resident set");
}

void
runTraced(const RunOptions &options, Report &report)
{
    Tracer tracer;
    // Ceilings first, so the triad arrays are gone before the world exists.
    const Ceilings ceilings = probeCeilings(tracer, report, options.tiny);
    auto world = buildWorld(options.workload, options.tiny, options.seed);
    const int reps = 3;
    probeLayers(*world, ceilings, tracer, report, reps);
    probeTraining(*world, tracer, report, reps);
    probeServing(*world, tracer, report, options.seconds, options.seed);
    std::fputs(tracer.summary().c_str(), stdout);
    std::printf("run    peak RSS %.0f MiB\n", peakRssMib());
}

} // namespace perfbench
