#include "report.h"

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    const auto n = static_cast<double>(values.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     values.end());
    return values[rank - 1];
}

std::vector<double>
withMisses(std::vector<double> latencies)
{
    for (double &v : latencies) {
        if (v < 0.0)
            v = std::numeric_limits<double>::infinity();
    }
    return latencies;
}

double
windowedQuantile(const std::vector<double> &latencies, std::size_t window,
                 double q, std::string &label)
{
    const std::vector<double> lat = withMisses(latencies);
    const std::string pq = "p" + std::to_string(std::lround(q * 100));
    const std::size_t windows = window == 0 ? 0 : lat.size() / window;
    if (windows < 2) {
        label = pq + " of " + std::to_string(lat.size());
        return quantile(lat, q);
    }
    std::vector<double> perWindow;
    for (std::size_t w = 0; w < windows; ++w) {
        const auto first =
            lat.begin() + static_cast<std::ptrdiff_t>(w * window);
        perWindow.push_back(quantile(
            {first, first + static_cast<std::ptrdiff_t>(window)}, q));
    }
    label = "median of " + std::to_string(windows) + " window " + pq +
            "s, " + std::to_string(window) + " each";
    return median(perWindow);
}

namespace {

double
clockSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

} // namespace

double
processCpuSeconds()
{
    return clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuSeconds(std::thread &thread)
{
    clockid_t clock{};
    if (pthread_getcpuclockid(thread.native_handle(), &clock) != 0)
        return 0.0;
    return clockSeconds(clock);
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, const std::string &note)
{
    metrics_.push_back({name, value, unit});
    std::printf("metric %-34s %14.6g %-6s (%s)\n", name.c_str(), value,
                unit.c_str(), note.c_str());
    std::fflush(stdout);
}

void
Report::named(const std::string &name, double value,
              const std::string &unit, const std::string &note)
{
    std::printf("named  %-34s %14.6g %-6s (%s)\n", name.c_str(), value,
                unit.c_str(), note.c_str());
    std::fflush(stdout);
}

void
Report::check(const std::string &name, bool ok, const std::string &detail)
{
    correct_ = correct_ && ok;
    std::printf("check  %-34s %s (%s)\n", name.c_str(),
                ok ? "ok" : "MISMATCH", detail.c_str());
    std::fflush(stdout);
}

void
Report::count(std::uint64_t attempted, std::uint64_t failed)
{
    attempted_ += attempted;
    failed_ += failed;
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Entry &e = metrics_[i];
        // JSON has no infinity; a tail made infinite by refused requests
        // is reported as a huge finite latency.
        const double v = std::isfinite(e.value) ? e.value : 1e12;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + e.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
