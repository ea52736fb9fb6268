#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "report.h"

namespace perfbench {

Tracer::Span::Span(Tracer &tracer, std::string name) : tracer_(tracer)
{
    const std::size_t parent =
        tracer.open_.empty() ? kNoParent : tracer.open_.back();
    index_ = tracer.records_.size();
    tracer.records_.push_back({std::move(name), parent, Clock::now(), {}});
    tracer.open_.push_back(index_);
}

Tracer::Span::~Span()
{
    tracer_.records_[index_].end = Clock::now();
    tracer_.open_.pop_back();
}

double
Tracer::medianSeconds(const std::string &name) const
{
    std::vector<double> durations;
    for (const Record &r : records_) {
        if (r.name == name)
            durations.push_back(
                std::chrono::duration<double>(r.end - r.start).count());
    }
    return median(durations);
}

std::string
Tracer::summary() const
{
    struct Row
    {
        std::size_t order;
        std::vector<double> durations;
        double childSeconds = 0.0;
        bool hasChildren = false;
    };
    std::map<std::string, Row> rows;
    for (const Record &r : records_) {
        auto [it, fresh] = rows.try_emplace(r.name);
        if (fresh)
            it->second.order = rows.size();
        const double d =
            std::chrono::duration<double>(r.end - r.start).count();
        it->second.durations.push_back(d);
        if (r.parent != kNoParent) {
            Row &parent = rows[records_[r.parent].name];
            parent.childSeconds += d;
            parent.hasChildren = true;
        }
    }
    std::vector<std::pair<std::size_t, const std::string *>> ordered;
    for (const auto &[name, row] : rows)
        ordered.emplace_back(row.order, &name);
    std::sort(ordered.begin(), ordered.end());

    std::string out = "trace  span                                     calls"
                      "    total_ms   median_ms     self_ms  unattributed\n";
    char line[256];
    for (const auto &[order, name] : ordered) {
        const Row &row = rows.at(*name);
        double total = 0.0;
        for (double d : row.durations)
            total += d;
        const double self = total - row.childSeconds;
        char share[32] = "-";
        if (row.hasChildren && total > 0.0)
            std::snprintf(share, sizeof(share), "%.1f%%",
                          100.0 * self / total);
        std::snprintf(line, sizeof(line),
                      "trace  %-40s %6zu %11.3f %11.3f %11.3f  %s\n",
                      name->c_str(), row.durations.size(), total * 1e3,
                      median(row.durations) * 1e3, self * 1e3, share);
        out += line;
    }
    return out;
}

} // namespace perfbench
