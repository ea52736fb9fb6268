/**
 * @file
 * perfbench: the repository benchmark's measuring program. perfbench/run.py
 * builds and runs it; see BENCHMARK.json for the workloads and metrics.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--scale full|tiny]
 *
 * Human-readable lines come first; the last line of stdout is one JSON
 * object with the keys correct, attempted, failed and metrics. Exit code 0
 * when every output check passed, 1 on a mismatch, 2 on bad arguments and
 * 3 when the run itself failed.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "parallel/thread_pool.h"
#include "probes.h"
#include "report.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <infer-dram|"
                 "train-cached|serve-zipf|serve-churn> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scale full|tiny]\n",
                 message);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    bool haveWorkload = false;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            if (!parseWorkload(value, options.workload))
                return usage(("unknown workload " + value).c_str());
            haveWorkload = true;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                return usage("--seed takes a whole number");
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(options.seconds > 0.0) ||
                options.seconds > 600.0)
                return usage("--seconds takes a number in (0, 600]");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            trace = value == "1";
        } else if (arg == "--scale") {
            if (value != "full" && value != "tiny")
                return usage("--scale takes full or tiny");
            options.tiny = value == "tiny";
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!haveWorkload)
        return usage("--workload is required");

    const std::size_t threads =
        std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
    graphite::ThreadPool::setGlobalThreads(threads);
    std::printf("run    workload %s, seed %llu, %.1f s, trace %d, scale %s, "
                "%zu pool threads, L3 %.1f MiB\n",
                workloadName(options.workload),
                static_cast<unsigned long long>(options.seed), options.seconds,
                trace ? 1 : 0, options.tiny ? "tiny" : "full", threads,
                hostL3Mib());
    std::fflush(stdout);

    Report report;
    try {
        if (trace)
            runTraced(options, report);
        else
            runEndToEnd(options, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
        return 3;
    }
    std::printf("%s\n", report.json().c_str());
    return report.correct() ? 0 : 1;
}
