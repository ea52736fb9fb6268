/**
 * @file
 * The two kinds of run: untraced (end-to-end metrics, timed with tracing
 * off) and traced (per-layer metrics from the probes).
 */

#pragma once

#include <cstdint>

#include "report.h"
#include "world.h"

namespace perfbench {

struct RunOptions
{
    Workload workload = Workload::InferDram;
    std::uint64_t seed = 1;
    /** Length of the measured part of the run. */
    double seconds = 10.0;
    /** Shrunken inputs for the self-test (see worldSpec). */
    bool tiny = false;
};

/**
 * Set the workload up three times (setup_s is the median), measure for
 * options.seconds, check the outputs and report every end-to-end metric.
 */
void runEndToEnd(const RunOptions &options, Report &report);

/** Build the workload's world once and run every per-layer probe on it. */
void runTraced(const RunOptions &options, Report &report);

} // namespace perfbench
