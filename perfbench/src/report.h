/**
 * @file
 * Result collection for one benchmark run: the metrics of the final JSON
 * line, the human-readable lines printed before it, the output checks and
 * the operation counts, plus the order statistics every workload shares.
 */

#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/** Median of @p values (mean of the two middle values when even). */
double median(std::vector<double> values);

/**
 * Nearest-rank q-quantile: the ceil(q * n)-th smallest value, rank
 * clamped to [1, n] (the convention graphite's own exactPercentile
 * uses). Returns 0 for an empty sample.
 */
double quantile(std::vector<double> values, double q);

/**
 * Steadier quantile for long streams: split @p latencies (arrival order)
 * into consecutive windows of @p window entries, take each window's @p q
 * quantile and return their median. A single stall then moves one window,
 * not the whole figure. Refused requests (negative) enter as +inf so they
 * count as SLO misses. Below two full windows it is the plain quantile.
 * @p label gets a description of how the figure was formed.
 */
double windowedQuantile(const std::vector<double> &latencies,
                        std::size_t window, double q, std::string &label);

/** @p latencies with refused requests (negative) as +inf. */
std::vector<double> withMisses(std::vector<double> latencies);

/**
 * CPU time this process has run, all threads, in seconds. The kernel
 * leaves out time a virtual CPU was stolen by the host and time a thread
 * waited to be scheduled, so unlike wall time it does not grow when the
 * host hands the run less CPU.
 */
double processCpuSeconds();

/** CPU time one thread has run, in seconds (see processCpuSeconds). */
double threadCpuSeconds(std::thread &thread);

/** Peak resident set size of this process, in MiB. */
double peakRssMib();

/** Metrics, checks and counts of one run. */
class Report
{
  public:
    /** A metric of the final JSON line. @p note says how it was formed. */
    void metric(const std::string &name, double value,
                const std::string &unit, const std::string &note);

    /**
     * A figure printed by its descriptive name only (not in the JSON),
     * e.g. the workload-specific name of a generic end-to-end metric.
     */
    void named(const std::string &name, double value,
               const std::string &unit, const std::string &note);

    /** An output check; any failed check makes the run incorrect. */
    void check(const std::string &name, bool ok, const std::string &detail);

    /** Operations the run attempted and how many of them failed. */
    void count(std::uint64_t attempted, std::uint64_t failed);

    bool correct() const { return correct_; }

    /** The final line: {"correct", "attempted", "failed", "metrics"}. */
    std::string json() const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> metrics_;
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

} // namespace perfbench
