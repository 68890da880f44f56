/**
 * @file
 * Pure helpers of perfbench: the percentile rule and the fleet
 * outcome tally.  Kept
 * free of clocks and threads so `perfbench --selftest` can check them
 * exactly.
 */
#ifndef PERFBENCH_PB_STATS_H
#define PERFBENCH_PB_STATS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "runtime/result_table.h"
#include "serve/serve_stats.h"

namespace perfbench {

/** Samples of @p n that lie strictly beyond the @p q quantile (q in
 *  [0, 1]): n - ceil(q * n). */
inline std::size_t
samplesBeyond(std::size_t n, double q)
{
    const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
    const auto r = static_cast<std::size_t>(std::max(0.0, rank));
    return n > r ? n - r : 0;
}

/** A percentile is reported as supported only when at least ten
 *  samples lie beyond it (p75 needs >= 40 samples, p90 >= 100). */
inline bool
percentileSupported(std::size_t n, double q)
{
    return samplesBeyond(n, q) >= 10;
}

/** Percentiles of a sample, with its size. */
struct Percentiles
{
    std::size_t n = 0;
    double p50 = 0.0;
    double p75 = 0.0;
    double p90 = 0.0;
};

inline Percentiles
percentiles(std::vector<double> v)
{
    Percentiles p;
    p.n = v.size();
    if (v.empty())
        return p;
    std::sort(v.begin(), v.end());
    p.p50 = gcc3d::percentile(v, 50.0);
    p.p75 = gcc3d::percentile(v, 75.0);
    p.p90 = gcc3d::percentile(v, 90.0);
    return p;
}

/** Where every offered frame of a serving run ended up. */
struct FleetTally
{
    std::int64_t offered = 0;
    std::int64_t rendered = 0;
    std::int64_t on_time = 0;       ///< rendered within deadline
    std::int64_t full_on_time = 0;  ///< on time at the Full tier
    std::int64_t shed = 0;
    std::int64_t unserved = 0;
    std::int64_t errors = 0;        ///< frames counted zero or 2+ times

    /** Late renders, sheds and unserved frames all miss. */
    std::int64_t misses() const { return offered - on_time; }
    double
    missRate() const
    {
        return offered > 0 ? static_cast<double>(misses()) /
                                 static_cast<double>(offered)
                           : 0.0;
    }
};

/**
 * Tally @p report against the @p offered frame counts of its sessions
 * (session order).  A session's records must be frames 0..k-1 in
 * order, each either rendered or shed with a reason, and k plus its
 * unserved frames must equal what was offered; every frame that
 * breaks this is counted in errors.
 */
inline FleetTally
tallyFleet(const gcc3d::ServeReport &report,
           const std::vector<int> &offered)
{
    FleetTally t;
    for (int n : offered)
        t.offered += n;
    if (report.sessions.size() != offered.size()) {
        t.errors = t.offered;
        return t;
    }
    for (std::size_t i = 0; i < offered.size(); ++i) {
        const gcc3d::SessionStats &s = report.sessions[i];
        const auto recorded = static_cast<std::int64_t>(s.frames.size());
        const std::int64_t counted = recorded + s.frames_unserved;
        t.errors += std::abs(offered[i] - counted);
        t.unserved += s.frames_unserved;
        for (std::size_t f = 0; f < s.frames.size(); ++f) {
            const gcc3d::FrameRecord &r = s.frames[f];
            const bool shed = !r.rendered &&
                              r.shed_reason != gcc3d::ShedReason::None;
            if (r.frame != static_cast<int>(f) || r.rendered == shed) {
                ++t.errors;
                continue;
            }
            if (shed) {
                ++t.shed;
                continue;
            }
            ++t.rendered;
            if (!r.deadline_missed) {
                ++t.on_time;
                if (r.tier == gcc3d::DegradeTier::Full)
                    ++t.full_on_time;
            }
        }
    }
    return t;
}

} // namespace perfbench

#endif // PERFBENCH_PB_STATS_H
