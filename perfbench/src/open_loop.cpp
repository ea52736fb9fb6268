#include "open_loop.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "report.h"

namespace perfbench {

using namespace graphite;
using serve::InferenceRequest;
using serve::monotonicNanos;

namespace {

/**
 * Spin (yielding) until @p dueNs. Sleeping is not an option: on a
 * virtualised host a sleep can wake milliseconds late at the 99th
 * percentile, and that lateness would be charged to the server.
 */
void
waitUntil(std::uint64_t dueNs)
{
    while (monotonicNanos() < dueNs)
        std::this_thread::yield();
}

} // namespace

serve::ServeConfig
serveConfig()
{
    serve::ServeConfig config;
    config.fanouts = {10, 10};
    config.maxBatch = 64;
    config.latencyBudgetUs = 100;
    config.queueCapacity = 4096;
    config.hotCacheCapacity = 4096;
    return config;
}

double
relL2(const Feature *a, const Feature *b, std::size_t n)
{
    double gap = 0.0;
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = static_cast<double>(a[i]) - b[i];
        gap += d * d;
        norm += static_cast<double>(b[i]) * b[i];
    }
    return norm > 0.0 ? std::sqrt(gap / norm) : std::sqrt(gap);
}

ZipfStream::ZipfStream(const CsrGraph &graph, double exponent)
    : ranked_(graph.numVertices()), cdf_(graph.numVertices())
{
    std::iota(ranked_.begin(), ranked_.end(), VertexId{0});
    std::stable_sort(ranked_.begin(), ranked_.end(),
                     [&graph](VertexId a, VertexId b) {
                         return graph.degree(a) > graph.degree(b);
                     });
    double total = 0.0;
    for (std::size_t i = 0; i < cdf_.size(); ++i) {
        total += std::pow(static_cast<double>(i + 1), -exponent);
        cdf_[i] = total;
    }
}

VertexId
ZipfStream::draw(Rng &rng) const
{
    const double z = rng.uniform() * cdf_.back();
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), z) - cdf_.begin());
    return ranked_[std::min(rank, ranked_.size() - 1)];
}

OpenLoop::OpenLoop(serve::InferenceServer &server, const ZipfStream &zipf,
                   std::uint64_t seed)
    : server_(server), zipf_(zipf), rng_(seed),
      servedAtStart_(server.stats().requestsServed),
      consumer_([&server] { server.run(); })
{
}

OpenLoop::~OpenLoop()
{
    server_.queue().close();
    consumer_.join();
}

void
OpenLoop::drain()
{
    while (server_.stats().requestsServed - servedAtStart_ < accepted_)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
}

Phase
OpenLoop::run(double qps, double seconds)
{
    Phase phase;
    // The whole arrival schedule is drawn before the first push.
    std::vector<std::uint64_t> offsetNs;
    for (double t = 0.0;;) {
        t += -std::log(1.0 - rng_.uniform()) / qps;
        if (t >= seconds)
            break;
        offsetNs.push_back(static_cast<std::uint64_t>(t * 1e9));
    }
    if (offsetNs.empty())
        offsetNs.push_back(0);
    const std::size_t n = offsetNs.size();
    for (std::size_t i = 0; i < n; ++i) {
        phase.ids.push_back(nextId_++);
        phase.vertices.push_back(zipf_.draw(rng_));
    }
    phase.latencyUs.assign(n, -1.0);
    phase.lateUs.assign(n, 0.0);
    phase.results.resize(n, server_.outFeatures());

    const auto backlog = [this] {
        return accepted_ -
               (server_.stats().requestsServed - servedAtStart_);
    };
    phase.before = server_.stats();
    double cpuMark = threadCpuSeconds(consumer_);
    std::uint64_t servedMark = phase.before.requestsServed;
    const auto sampleCpu = [&] {
        const double cpu = threadCpuSeconds(consumer_);
        const std::uint64_t served = server_.stats().requestsServed;
        if (served > servedMark) {
            phase.cpuUs.push_back((cpu - cpuMark) * 1e6 /
                                  static_cast<double>(served - servedMark));
        }
        cpuMark = cpu;
        servedMark = served;
    };
    const std::uint64_t startNs = monotonicNanos() + 100'000;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t due = startNs + offsetNs[i];
        waitUntil(due);
        if (i > 0 && i % Traffic::kWindow == 0 && n - i >= Traffic::kWindow)
            sampleCpu();
        InferenceRequest req;
        req.id = phase.ids[i];
        req.vertex = phase.vertices[i];
        req.enqueueNs = due;
        req.out = phase.results.row(i);
        req.latencyUs = &phase.latencyUs[i];
        phase.lateUs[i] =
            static_cast<double>(monotonicNanos() - due) / 1000.0;
        if (server_.queue().push(req))
            ++accepted_;
        else
            ++phase.refused;
        if (i == n / 2)
            phase.backlogMid = backlog();
    }
    phase.backlogEnd = backlog();
    drain();
    sampleCpu();
    phase.after = server_.stats();
    return phase;
}

Capacity
findCapacity(OpenLoop &loop, double startQps, double stepQps, double sloUs,
             double stepSeconds)
{
    Capacity cap;
    double passQps = 0.0;
    double passP99 = 0.0;
    for (int rung = 0; rung < 32; ++rung) {
        const double qps = startQps + rung * stepQps;
        const Phase p = loop.run(qps, stepSeconds);
        const double p99 = quantile(withMisses(p.latencyUs), 0.99);
        // Under capacity the backlog stays within a couple of batches;
        // past it, it grows for the whole rung.
        const bool growing =
            p.backlogEnd > 128 && p.backlogEnd > p.backlogMid;
        const bool ok = p.refused == 0 && p99 <= sloUs && !growing;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s%.0f:%.2fms%s",
                      cap.trail.empty() ? "" : " ", qps, p99 / 1e3,
                      ok ? "" : "(fail)");
        cap.trail += buf;
        ++cap.steps;
        if (ok) {
            passQps = qps;
            passP99 = p99;
            continue;
        }
        // Interpolate where p99 crosses the SLO, in log(p99), between the
        // last passing rung and this one; a rung that failed only on
        // refusals or backlog counts as crossing halfway.
        double f = 0.5;
        if (passQps > 0.0 && std::isfinite(p99) && p99 > sloUs)
            f = std::log(sloUs / passP99) / std::log(p99 / passP99);
        cap.qps = passQps > 0.0 ? passQps + f * (qps - passQps) : 0.0;
        return cap;
    }
    cap.qps = passQps; // never saturated within the ladder
    return cap;
}

Churner::Churner(serve::InferenceServer &server, double rate,
                 std::uint64_t seed)
    : server_(server)
{
    insertUs_.reserve(static_cast<std::size_t>(rate * 64.0));
    thread_ = std::thread([this, rate, seed] { loop(rate, seed); });
}

Churner::~Churner()
{
    stop();
}

void
Churner::stop()
{
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable())
        thread_.join();
}

void
Churner::loop(double rate, std::uint64_t seed)
{
    using Clock = std::chrono::steady_clock;
    Rng rng(seed);
    const VertexId n = server_.graph().numVertices();
    const auto gap = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / rate));
    auto next = Clock::now();
    while (!stop_.load(std::memory_order_relaxed)) {
        next += gap;
        std::this_thread::sleep_until(next);
        const auto src = static_cast<VertexId>(rng.uniformInt(n));
        const auto dst = static_cast<VertexId>(rng.uniformInt(n));
        const auto t0 = Clock::now();
        const DeltaCsr::AddEdge result = server_.insertEdge(src, dst);
        insertUs_.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
        if (result == DeltaCsr::AddEdge::Added) {
            ++added_;
        } else if (result == DeltaCsr::AddEdge::PoolFull) {
            // The consumer compacts between batches; back off meanwhile.
            ++poolFull_;
            server_.requestCompaction();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            next = Clock::now();
        } // else a duplicate or self loop, rejected by design
    }
}

double
staleness(const serve::InferenceServer &served, const DeltaCsr &overlay,
          const DenseMatrix &features, const std::vector<GnnLayer *> &layers,
          const Phase &phase, std::size_t samples)
{
    serve::ServeConfig config = serveConfig();
    config.hotCacheCapacity = 0;
    config.hotCacheMinDegree = served.hotDegreeThreshold();
    serve::InferenceServer oracle(overlay.base(), features, layers, config);
    std::vector<Feature> fresh(oracle.outFeatures());
    const std::size_t stride =
        std::max<std::size_t>(1, phase.ids.size() / std::max<std::size_t>(
                                                        samples, 1));
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < phase.ids.size() && count < samples;
         i += stride) {
        if (phase.latencyUs[i] < 0.0)
            continue; // refused: nothing was served
        oracle.serveOneHubExact(phase.ids[i], phase.vertices[i], fresh.data());
        sum += relL2(phase.results.row(i), fresh.data(), fresh.size());
        ++count;
    }
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

bool
compactedParity(serve::InferenceServer &served, const DeltaCsr &overlay,
                const DenseMatrix &features,
                const std::vector<GnnLayer *> &layers, std::size_t samples,
                std::uint64_t seed)
{
    if (overlay.deltaEdges() != 0)
        return false;
    serve::InferenceServer frozen(overlay.base(), features, layers,
                                  serveConfig());
    std::vector<Feature> a(served.outFeatures());
    std::vector<Feature> b(frozen.outFeatures());
    Rng rng(seed);
    for (std::size_t s = 0; s < samples; ++s) {
        const auto v =
            static_cast<VertexId>(rng.uniformInt(overlay.base().numVertices()));
        served.serveOne(s, v, a.data());
        frozen.serveOne(s, v, b.data());
        if (std::memcmp(a.data(), b.data(), a.size() * sizeof(Feature)) != 0)
            return false;
    }
    return true;
}

} // namespace perfbench
