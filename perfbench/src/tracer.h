/**
 * @file
 * Span recorder for the traced run. Spans are opened by the benchmark
 * around calls into the library's public functions, never inside the
 * library, and kept in memory until the run prints its summary.
 */

#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    /** RAII span: open on construction, closed on destruction. */
    class Span
    {
      public:
        Span(Tracer &tracer, std::string name);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &tracer_;
        std::size_t index_;
    };

    /** Open a span named @p name, child of the innermost open span. */
    Span span(std::string name) { return Span(*this, std::move(name)); }

    /** Median duration in seconds of the closed spans named @p name. */
    double medianSeconds(const std::string &name) const;

    /**
     * Per-name table: calls, total and median time, self time (total
     * minus the time its child spans cover) and, for names that have
     * children, the share of their time no child explains.
     */
    std::string summary() const;

  private:
    using Clock = std::chrono::steady_clock;
    struct Record
    {
        std::string name;
        std::size_t parent;
        Clock::time_point start;
        Clock::time_point end;
    };
    static constexpr std::size_t kNoParent = ~std::size_t{0};

    std::vector<Record> records_;
    std::vector<std::size_t> open_;
};

} // namespace perfbench
