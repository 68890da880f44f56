/**
 * @file
 * In-memory span log of the perfbench traced run.
 *
 * Spans are recorded by the benchmark around its calls into the
 * library (and, where a call returns per-frame timestamps or stage
 * times, derived from those), kept in memory, and written once at exit
 * as Chrome trace-event JSON.  A disabled log records nothing, so the
 * timed runs pay one branch per call site.  The log times its own
 * bookkeeping so the traced run can report what tracing cost.
 */
#ifndef PERFBENCH_PB_TRACE_H
#define PERFBENCH_PB_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Identifies what a span belongs to: a session frame or a sweep job. */
struct SpanIds
{
    std::int64_t session = -1;
    std::int64_t frame = -1;
    std::int64_t job = -1;
};

struct Span
{
    std::string name;
    double start_ms = 0.0;  ///< since the log's epoch
    double end_ms = 0.0;
    int parent = -1;        ///< index of the enclosing span, -1 = root
    SpanIds ids;
    bool derived = false;   ///< placed from returned timings, not timed here
};

class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

    bool enabled() const { return enabled_; }

    /** Milliseconds since the log's epoch. */
    double
    nowMs() const
    {
        return msSince(epoch_, Clock::now());
    }

    /** Open a span now; returns its index (-1 when disabled). */
    int
    open(const std::string &name, int parent = -1, SpanIds ids = {})
    {
        if (!enabled_)
            return -1;
        const Clock::time_point t0 = Clock::now();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, msSince(epoch_, t0), -1.0, parent, ids, false});
        const int id = static_cast<int>(spans_.size()) - 1;
        self_ms_ += msSince(t0, Clock::now());
        return id;
    }

    void
    close(int id)
    {
        if (!enabled_ || id < 0)
            return;
        const Clock::time_point t0 = Clock::now();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end_ms = msSince(epoch_, t0);
        self_ms_ += msSince(t0, Clock::now());
    }

    /** Record a span whose times come from values a call returned. */
    int
    derived(const std::string &name, double start_ms, double end_ms,
            int parent, SpanIds ids = {})
    {
        if (!enabled_)
            return -1;
        const Clock::time_point t0 = Clock::now();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, start_ms, end_ms, parent, ids, true});
        const int id = static_cast<int>(spans_.size()) - 1;
        self_ms_ += msSince(t0, Clock::now());
        return id;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_.size();
    }

    /** Wall time spent inside open/close/derived so far. */
    double
    selfMs() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return self_ms_;
    }

    /** Write Chrome trace-event JSON; returns false on I/O failure. */
    bool
    write(const std::string &path, const std::string &meta_json) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::lock_guard<std::mutex> lock(mutex_);
        std::fprintf(f, "{\"metadata\": %s,\n\"traceEvents\": [\n",
                     meta_json.c_str());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const double end = s.end_ms < 0.0 ? s.start_ms : s.end_ms;
            std::fprintf(f,
                         "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"id\": %zu, \"parent\": %d, "
                         "\"session\": %lld, \"frame\": %lld, "
                         "\"job\": %lld, \"derived\": %s}}%s\n",
                         s.name.c_str(),
                         static_cast<long long>(s.ids.session + 1),
                         s.start_ms * 1000.0, (end - s.start_ms) * 1000.0,
                         i, s.parent, static_cast<long long>(s.ids.session),
                         static_cast<long long>(s.ids.frame),
                         static_cast<long long>(s.ids.job),
                         s.derived ? "true" : "false",
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    static double
    msSince(Clock::time_point a, Clock::time_point b)
    {
        return std::chrono::duration<double, std::milli>(b - a).count();
    }

    const bool enabled_;
    const Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;  // guarded by mutex_
    double self_ms_ = 0.0;     // guarded by mutex_
};

/** Closes a span at scope exit. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name, int parent = -1,
               SpanIds ids = {})
        : log_(log), id_(log.open(name, parent, ids)) {}
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_PB_TRACE_H
