/**
 * @file
 * Open-loop traffic for InferenceServer, written against its public API
 * only. Requests arrive on a Poisson schedule fixed before the phase
 * starts, so the arrival process never waits for the server. Each request
 * is stamped with the time it was *due*, not the time the generator got
 * round to pushing it, so a late generator cannot hide queueing; how late
 * it ran is recorded per request. A push the queue refuses is a failed
 * request and counts as missing every latency limit.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "serve/server.h"

namespace perfbench {

/**
 * Traffic shared by serve-zipf, serve-churn and the traced serving
 * probes. On the serving graph, on a 4-core host, the single consumer
 * serves 8-10k QPS flat out, but its p99 crosses 10 ms from about 6k QPS
 * (a hub missing the hot cache stalls every request queued behind it).
 * The gated figure is the consumer's CPU time per request, and near
 * saturation batches grow and that figure falls; on a host that hands
 * the consumer half a CPU, 3500 QPS already saturated it. So both fixed
 * rates keep the consumer under a third busy here, and the SLO sits well
 * clear of the p99 the low rate shows. At 2000 inserts/s with a
 * compaction every 4096 inserts the cache refills after each compaction
 * overload the consumer, hence the lower insert rate.
 */
struct Traffic
{
    static constexpr double kLowQps = 1000.0;
    static constexpr double kHighQps = 2000.0;
    static constexpr double kZipf = 0.9;
    /** p99 limit of the capacity search, microseconds. */
    static constexpr double kSloUs = 10000.0;
    /** Rungs of the capacity ladder. */
    static constexpr double kLadderStartQps = 4000.0;
    static constexpr double kLadderStepQps = 500.0;
    /** Requests (or inserts) per window of windowedQuantile(). */
    static constexpr std::size_t kWindow = 500;
    /** Edge inserts per second offered beside serving. */
    static constexpr double kInsertRate = 1000.0;
    static constexpr graphite::EdgeId kDeltaBudget = 65536;
};

/** Server settings: fanout 10/10, 4096-row hot cache, 100 us batching. */
graphite::serve::ServeConfig serveConfig();

/** Relative L2 distance |a - b| / |b| of two embedding rows. */
double relL2(const graphite::Feature *a, const graphite::Feature *b,
             std::size_t n);

/** Zipf popularity over degree rank: the hottest traffic hits hubs. */
class ZipfStream
{
  public:
    ZipfStream(const graphite::CsrGraph &graph, double exponent);
    graphite::VertexId draw(graphite::Rng &rng) const;

  private:
    std::vector<graphite::VertexId> ranked_;
    std::vector<double> cdf_;
};

/** One fixed-rate phase, in arrival order. */
struct Phase
{
    std::vector<std::uint64_t> ids;
    std::vector<graphite::VertexId> vertices;
    /** Due-time latency in microseconds; -1 = refused at the queue. */
    std::vector<double> latencyUs;
    /** How late the generator pushed each request, microseconds. */
    std::vector<double> lateUs;
    /** Served embeddings, one row per request. */
    graphite::DenseMatrix results;
    std::uint64_t refused = 0;
    /**
     * Consumer-thread CPU time per request served, microseconds, one
     * entry per Traffic::kWindow requests offered (the last one runs to
     * the end of the drain).
     */
    std::vector<double> cpuUs;
    /** Requests accepted but not yet served, at mid-phase and at its end. */
    std::uint64_t backlogMid = 0;
    std::uint64_t backlogEnd = 0;
    graphite::serve::ServeStats before;
    graphite::serve::ServeStats after;

    std::uint64_t attempted() const { return ids.size(); }
    std::uint64_t served() const
    {
        return after.requestsServed - before.requestsServed;
    }
};

/**
 * Drives one server for the lifetime of the object: the constructor
 * starts the consumer thread, the destructor closes the queue and joins
 * it. Request ids are unique across phases, so any served request can
 * be replayed by id.
 */
class OpenLoop
{
  public:
    OpenLoop(graphite::serve::InferenceServer &server, const ZipfStream &zipf,
             std::uint64_t seed);
    ~OpenLoop();
    OpenLoop(const OpenLoop &) = delete;
    OpenLoop &operator=(const OpenLoop &) = delete;

    /**
     * Offer @p qps for @p seconds, then wait until every accepted request
     * is served. The phase's stats deltas cover exactly its requests.
     */
    Phase run(double qps, double seconds);

  private:
    void drain();

    graphite::serve::InferenceServer &server_;
    const ZipfStream &zipf_;
    graphite::Rng rng_;
    std::uint64_t nextId_ = 0;
    std::uint64_t accepted_ = 0;
    std::uint64_t servedAtStart_ = 0;
    std::thread consumer_;
};

/** Verdict of a capacity search. */
struct Capacity
{
    double qps = 0.0;
    /** "rate:p99" per rung, in the order run. */
    std::string trail;
    std::uint64_t steps = 0;
};

/**
 * Highest offered rate whose p99 meets @p sloUs with no refused request
 * and no growing backlog. A ladder climbs from @p startQps in steps of
 * @p stepQps until a rung fails (at or past saturation); the result is
 * interpolated between the last passing rung and the failing one, so it
 * does not jump by whole rungs from run to run.
 */
Capacity findCapacity(OpenLoop &loop, double startQps, double stepQps,
                      double sloUs, double stepSeconds);

/**
 * Uniformly random edge inserts at a fixed rate from a thread of their
 * own, through InferenceServer::insertEdge, timing each call. Compaction
 * is left to the caller (the churner only asks for one if the delta pool
 * fills). Stops and joins on stop() or destruction.
 */
class Churner
{
  public:
    Churner(graphite::serve::InferenceServer &server, double rate,
            std::uint64_t seed);
    ~Churner();
    Churner(const Churner &) = delete;
    Churner &operator=(const Churner &) = delete;

    void stop();

    /** Valid after stop(). @{ */
    const std::vector<double> &insertUs() const { return insertUs_; }
    std::uint64_t added() const { return added_; }
    std::uint64_t poolFull() const { return poolFull_; }
    /** @} */

  private:
    void loop(double rate, std::uint64_t seed);

    graphite::serve::InferenceServer &server_;
    std::atomic<bool> stop_{false};
    std::vector<double> insertUs_;
    std::uint64_t added_ = 0;
    std::uint64_t poolFull_ = 0;
    std::thread thread_;
};

/**
 * Mean relative L2 distance between up to @p samples embeddings served in
 * @p phase and a replay of the same request ids on a cache-off server over
 * the overlay's base, gated at @p served's admission threshold. Call after
 * compacting, so the replay sees every insert.
 */
double staleness(const graphite::serve::InferenceServer &served,
                 const graphite::DeltaCsr &overlay,
                 const graphite::DenseMatrix &features,
                 const std::vector<graphite::GnnLayer *> &layers,
                 const Phase &phase, std::size_t samples);

/**
 * After compaction, a frozen server over the overlay's new base must
 * replay @p samples seeded requests bit for bit like @p served.
 */
bool compactedParity(graphite::serve::InferenceServer &served,
                     const graphite::DeltaCsr &overlay,
                     const graphite::DenseMatrix &features,
                     const std::vector<graphite::GnnLayer *> &layers,
                     std::size_t samples, std::uint64_t seed);

} // namespace perfbench
