/**
 * @file
 * perfbench — the repo benchmark.  One binary, two workloads, every
 * output checked:
 *
 *   interactive     closed loop, one client, one frame in flight:
 *                   Palace + Train (scale 0.1) trajectories, each
 *                   camera rendered by TileRenderer::render and then
 *                   GaussianWiseRenderer::render (Cmode sub-view 128),
 *                   each call on a 4-worker pool;
 *   fleet-overload  open loop: a fixed seeded Poisson arrival table of
 *                   sessions (tile/gw x palace/lego/train, scale 0.05)
 *                   at about twice the 4-worker Full-tier capacity,
 *                   served by FrameScheduler::run (EDF, drop_late,
 *                   degradation ladder).
 *
 * Both traced runs also profile the cycle models: GCC / GSCore /
 * GPU-roofline jobs of the workload's scenes through
 * SweepRunner::runJob, once on the worker pool and again one at a
 * time on the calling thread.
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   perfbench --selftest
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs the same
 * workload with spans on, then profiles the workload's frames layer by
 * layer (serial and pooled renders, cycle-model jobs) and prints the
 * per-layer metrics; spans go to .bench_out/trace-<workload>-<seed>.json.
 * Human-readable lines start with '#'; the last line of stdout is the
 * JSON result.  The exit code is non-zero when any output check fails.
 * README.md in this directory documents the workloads and metrics.
 */
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "gsmath/simd.h"
#include "render/gaussian_wise_renderer.h"
#include "render/tile_renderer.h"
#include "runtime/sweep_runner.h"
#include "runtime/thread_pool.h"
#include "scene/scene_presets.h"
#include "scene/trajectory.h"
#include "serve/fleet.h"
#include "serve/frame_scheduler.h"
#include "serve/load_gen.h"

#include "pb_stats.h"
#include "pb_trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace gcc3d;
using perfbench::Percentiles;
using perfbench::SpanIds;
using perfbench::SpanLog;

// ---- Workload constants (the offered load never depends on the host) ----

constexpr int kMaxWorkers = 4;   ///< load comes from at most 4 threads
constexpr int kSetupReps = 11;   ///< setup_s is the median of these
constexpr int kSubview = 128;    ///< Gaussian-wise Cmode sub-view side

constexpr float kInteractiveScale = 0.1f;
constexpr int kInteractiveFrames = 4;    ///< trajectory frames per scene

constexpr float kFleetScale = 0.05f;
constexpr int kFleetFrames = 5;          ///< frames per session
constexpr float kFleetFps = 1.25f;       ///< per-session FPS target
/** Trajectory arc: per-step camera moves small enough for warp. */
constexpr float kFleetArc = 0.0006f;
/** Session arrival rate: ~2x the 4-worker Full capacity. */
constexpr double kOverloadSessionsPerS = 4.0;

/** Calling-thread simulator calls per probe job. */
constexpr int kSimReps = 5;

// ---- Options ----

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Test hook: perturb the n-th checked output (1-based). */
    long corrupt = 0;
    bool selftest = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "interactive|fleet-overload "
                 "--seed N --seconds S --trace 0|1\n"
                 "       perfbench --selftest\n",
                 msg);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--selftest") {
            o.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = v;
            else if (flag == "--seed")
                o.seed = std::stoull(v);
            else if (flag == "--seconds")
                o.seconds = std::stod(v);
            else if (flag == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (flag == "--corrupt")
                o.corrupt = std::stol(v);
            else
                usage(("unknown flag " + flag).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (!o.selftest && !(o.seconds > 0.0 && o.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return o;
}

int
workerCount()
{
    return std::max(1, std::min(kMaxWorkers, ThreadPool::hardwareWorkers()));
}

double
median(std::vector<double> v)
{
    return perfbench::percentiles(std::move(v)).p50;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---- Results: metrics, output checks, printing ----

class Results
{
  public:
    explicit Results(const Options &o) : opt_(o) {}

    /** End-to-end metric: printed in the JSON only without --trace. */
    void
    e2e(const std::string &name, double value, const std::string &unit,
        const std::string &note = "")
    {
        add(e2e_, name, value, unit, note);
    }

    /** Per-layer metric: printed in the JSON only with --trace 1. */
    void
    layer(const std::string &name, double value, const std::string &unit,
          const std::string &note = "")
    {
        add(layer_, name, value, unit, note);
    }

    /** A line of context for the human-readable block. */
    void
    note(const std::string &line)
    {
        std::printf("# %s\n", line.c_str());
    }

    /** One operation attempted (a frame or a job). */
    void attempt(std::int64_t n = 1) { attempted_ += n; }

    /** Output check; a failure counts one failed operation. */
    void
    check(bool ok, const std::string &what)
    {
        if (ok)
            return;
        ++failed_;
        if (failed_ <= 20)
            std::printf("# CHECK FAILED: %s\n", what.c_str());
    }

    /**
     * A checksum under test.  The --corrupt test hook perturbs the
     * n-th value passed through here, so the checks downstream of it
     * must fail the run.
     */
    double
    checked(double checksum)
    {
        ++checked_;
        return checked_ == opt_.corrupt ? checksum + 1.0 : checksum;
    }

    bool correct() const { return failed_ == 0 && attempted_ > 0; }

    /** Print the metric block and the final JSON line. */
    void
    finish()
    {
        const std::vector<Metric> &shown = opt_.trace ? layer_ : e2e_;
        for (const Metric &m : opt_.trace ? e2e_ : layer_)
            std::printf("# %-44s %16.6g %-7s %s\n", m.name.c_str(),
                        m.value, m.unit.c_str(), m.note.c_str());
        std::printf("# ---- %s metrics ----\n",
                    opt_.trace ? "per-layer" : "end-to-end");
        for (const Metric &m : shown)
            std::printf("# %-44s %16.6g %-7s %s\n", m.name.c_str(),
                        m.value, m.unit.c_str(), m.note.c_str());
        std::printf("# attempted %lld, failed %lld\n",
                    static_cast<long long>(attempted_),
                    static_cast<long long>(failed_));
        std::string json = "{\"correct\": ";
        json += correct() ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(attempted_);
        json += ", \"failed\": " + std::to_string(failed_);
        json += ", \"metrics\": {";
        for (std::size_t i = 0; i < shown.size(); ++i) {
            char value[64];
            std::snprintf(value, sizeof value, "%.17g", shown[i].value);
            json += (i ? ", \"" : "\"") + shown[i].name +
                    "\": {\"value\": " + value + ", \"unit\": \"" +
                    shown[i].unit + "\"}";
        }
        json += "}}";
        std::printf("%s\n", json.c_str());
        std::fflush(stdout);
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
        std::string note;
    };

    void
    add(std::vector<Metric> &into, const std::string &name, double value,
        const std::string &unit, const std::string &note)
    {
        check(std::isfinite(value), "metric " + name + " is not finite");
        into.push_back({name, std::isfinite(value) ? value : 0.0, unit, note});
    }

    const Options &opt_;
    std::vector<Metric> e2e_;
    std::vector<Metric> layer_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
    long checked_ = 0;
};

/**
 * "n=45; 11 beyond p75; p90 512.3 (4 beyond, unsupported)" — the
 * sample note every percentile carries.  The metrics report p50 and
 * p75: p75 is the highest percentile with at least ten samples beyond
 * it in every workload's timed run; p90 is printed for reference.
 */
std::string
sampleNote(const Percentiles &p)
{
    auto beyond = [&](double q) {
        return std::to_string(perfbench::samplesBeyond(p.n, q)) + " beyond" +
               (perfbench::percentileSupported(p.n, q) ? "" : ", unsupported");
    };
    char p90[32];
    std::snprintf(p90, sizeof p90, "%.4g", p.p90);
    return "n=" + std::to_string(p.n) + "; p75: " + beyond(0.75) + "; p90 " +
           p90 + " (" + beyond(0.9) + ")";
}

void
percentileMetrics(Results &res, const std::string &prefix,
                  const std::vector<double> &samples)
{
    const Percentiles p = perfbench::percentiles(samples);
    res.check(p.n > 0, prefix + " has no samples");
    res.e2e(prefix + "_p50", p.p50, "ms", sampleNote(p));
    res.e2e(prefix + "_p75", p.p75, "ms", sampleNote(p));
}

// ---- Dispatch-layer statistics (serve.* metrics) ----

void
addStages(StageTimes &into, const StageTimes &s)
{
    into.preprocess_ms += s.preprocess_ms;
    into.binning_ms += s.binning_ms;
    into.raster_ms += s.raster_ms;
    into.warp_ms += s.warp_ms;
}

/**
 * What the workload's dispatcher did: the FrameScheduler on
 * fleet-overload, the benchmark's own closed-loop client on
 * interactive.
 */
struct DispatchStats
{
    std::vector<double> queue_wait_ms;  ///< due -> dispatch, per frame
    std::vector<double> depth;          ///< admissible count per dispatch
    double busy_ms = 0.0;               ///< summed service time
    double wall_ms = 0.0;
    int slots = 1;                      ///< concurrent dispatch slots
    StageTimes stage;                   ///< summed over served frames
    std::int64_t staged = 0;            ///< frames with a stage breakdown
    std::int64_t served = 0;            ///< frames/jobs delivered
    int tiers[kDegradeTierCount] = {};
    int sheds[kShedReasonCount] = {};
    MissAttribution misses;
    double slo_miss_rate = 0.0;
    double degraded_share = 0.0;

    void
    addStage(const StageTimes &s)
    {
        addStages(stage, s);
        ++staged;
    }

    void
    emit(Results &res) const
    {
        const Percentiles q = perfbench::percentiles(queue_wait_ms);
        res.layer("serve.queue_wait_ms_p50", q.p50, "ms", sampleNote(q));
        res.layer("serve.queue_wait_ms_p75", q.p75, "ms", sampleNote(q));
        res.layer("serve.queue_depth_mean",
                  ratio(std::accumulate(depth.begin(), depth.end(), 0.0),
                        static_cast<double>(depth.size())),
                  "count");
        const double n = static_cast<double>(std::max<std::int64_t>(1, staged));
        res.layer("serve.stage.pre_ms", stage.preprocess_ms / n, "ms");
        res.layer("serve.stage.bin_ms", stage.binning_ms / n, "ms");
        res.layer("serve.stage.raster_ms", stage.raster_ms / n, "ms");
        res.note("serve.stage.warp_ms " + std::to_string(stage.warp_ms / n) +
                 " ms per served frame");
        res.layer("serve.worker_busy_share",
                  ratio(busy_ms, wall_ms * slots), "share");
        const double rendered = static_cast<double>(
            std::max<std::int64_t>(1, served));
        res.layer("serve.tier.full_share",
                  tiers[static_cast<int>(DegradeTier::Full)] / rendered,
                  "share");
        res.layer("serve.tier.warp_share",
                  tiers[static_cast<int>(DegradeTier::Warp)] / rendered,
                  "share");
        res.layer("serve.tier.half_res_share",
                  tiers[static_cast<int>(DegradeTier::HalfRes)] / rendered,
                  "share");
        res.layer("serve.shed.late",
                  sheds[static_cast<int>(ShedReason::Late)], "count");
        res.layer("serve.shed.admission",
                  sheds[static_cast<int>(ShedReason::Admission)], "count");
        res.layer("serve.shed.fairness",
                  sheds[static_cast<int>(ShedReason::Fairness)], "count");
        res.layer("serve.shed.degrade",
                  sheds[static_cast<int>(ShedReason::Degrade)], "count");
        const char *names[] = {"queue", "pre", "bin", "raster", "warp"};
        for (int c = 0; c < 5; ++c)
            res.layer(std::string("serve.miss.") + names[c],
                      static_cast<double>(
                          misses.counts[static_cast<std::size_t>(c)]),
                      "count");
        res.layer("serve.slo_miss_rate", slo_miss_rate, "share");
        res.layer("serve.degraded_share", degraded_share, "share");
    }
};

// ---- Rendering one frame, and the render-layer probe ----

enum class Kind
{
    Tile = 0,
    Gw = 1,
};

const char *
kindName(Kind k)
{
    return k == Kind::Tile ? "tile" : "gw";
}

/** One camera rendered by one renderer configuration. */
struct RenderItem
{
    std::string scene;
    int frame = 0;
    Kind kind = Kind::Tile;
    const GaussianCloud *cloud = nullptr;
    const Camera *cam = nullptr;
    TileRendererConfig tile;
    GaussianWiseConfig gw;
};

/** Exact work counts of one frame (compared across repeats), indexed
 *  by TileCount or GwCount. */
using WorkCounts = std::array<std::int64_t, 8>;
enum TileCount
{
    kKvPairs,
    kTileFetches,
    kFetchedGaussians,
    kTileRendered,
    kProjected,
    kTileAlphaEvals,
    kTileBlendOps,
    kGaussians,
};
enum GwCount
{
    kStage2,
    kSurvivors,
    kShSkips,
    kTerminationSkips,
    kGwAlphaEvals,
    kGwBlendOps,
};

struct Rendered
{
    double checksum = 0.0;
    double ms = 0.0;
    StageTimes stage;
    StandardFlowStats tile;
    GaussianWiseStats gw;

    WorkCounts
    counts(Kind k) const
    {
        if (k == Kind::Tile)
            return {tile.kv_pairs, tile.tile_fetches, tile.fetched_gaussians,
                    tile.rendered_gaussians,
                    static_cast<std::int64_t>(tile.pre.projected),
                    tile.alpha_evals, tile.blend_ops,
                    static_cast<std::int64_t>(tile.pre.total)};
        return {gw.stage2_invocations, gw.survivor_invocations,
                gw.sh_skip_invocations, gw.termination_skip_invocations,
                gw.alpha_evals, gw.blend_ops, gw.total,
                gw.rendered_gaussians};
    }
};

Rendered
renderItem(const RenderItem &it, ThreadPool *pool)
{
    Rendered r;
    const perfbench::Clock::time_point t0 = perfbench::Clock::now();
    Image image;
    if (it.kind == Kind::Tile) {
        image = TileRenderer(it.tile).render(*it.cloud, *it.cam, r.tile, pool);
        r.stage = r.tile.stage;
    } else {
        image = GaussianWiseRenderer(it.gw).render(*it.cloud, *it.cam, r.gw,
                                                   pool);
        r.stage = r.gw.stage;
    }
    r.ms = std::chrono::duration<double, std::milli>(
               perfbench::Clock::now() - t0)
               .count();
    r.gw.group_trace.clear();
    r.gw.group_trace.shrink_to_fit();
    r.checksum = imageChecksum(image);
    return r;
}

/** Serial renders of @p items, four at a time on @p pool. */
std::vector<Rendered>
renderSerialParallel(const std::vector<RenderItem> &items, ThreadPool &pool)
{
    std::vector<std::future<Rendered>> futures;
    for (const RenderItem &it : items)
        futures.push_back(
            pool.submit([&it] { return renderItem(it, nullptr); }));
    std::vector<Rendered> out;
    for (auto &f : futures)
        out.push_back(f.get());
    return out;
}

/**
 * The render-layer profile of a workload's frames: every item
 * rendered serially on the calling thread (unit costs, the serial
 * side of the 4-worker speedups, exact work counts), then with the
 * pool (stage ms).  Returns the serial renders, which double as the
 * serial references of the output checks.
 */
std::vector<Rendered>
renderProbe(const std::vector<RenderItem> &items, ThreadPool &pool,
            Results &res, SpanLog &log, int parent)
{
    std::vector<Rendered> serial, pooled;
    const int probe = log.open("probe.render", parent);
    for (std::size_t i = 0; i < items.size(); ++i) {
        perfbench::ScopedSpan s(log, std::string("render.serial.") +
                                         kindName(items[i].kind),
                                probe, {0, items[i].frame, -1});
        serial.push_back(renderItem(items[i], nullptr));
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
        perfbench::ScopedSpan s(log, std::string("render.pooled.") +
                                         kindName(items[i].kind),
                                probe, {0, items[i].frame, -1});
        pooled.push_back(renderItem(items[i], &pool));
    }
    log.close(probe);

    struct Acc
    {
        int n = 0;
        StageTimes ser, poo;
        double ser_ms = 0.0, poo_ms = 0.0;
        std::array<double, 8> c{};
    } acc[2];
    for (std::size_t i = 0; i < items.size(); ++i) {
        Acc &a = acc[static_cast<int>(items[i].kind)];
        ++a.n;
        a.ser_ms += serial[i].ms;
        a.poo_ms += pooled[i].ms;
        addStages(a.ser, serial[i].stage);
        addStages(a.poo, pooled[i].stage);
        const WorkCounts c = serial[i].counts(items[i].kind);
        for (std::size_t j = 0; j < c.size(); ++j)
            a.c[j] += static_cast<double>(c[j]);
        res.check(serial[i].checksum == pooled[i].checksum &&
                      c == pooled[i].counts(items[i].kind),
                  items[i].scene + " frame " + std::to_string(items[i].frame) +
                      " " + kindName(items[i].kind) +
                      ": pooled render differs from serial");
    }
    const Acc &t = acc[0];
    const Acc &g = acc[1];
    res.check(t.n > 0 && g.n > 0, "render probe needs tile and gw frames");
    const double tn = std::max(1, t.n), gn = std::max(1, g.n);
    res.layer("render.tile.preprocess_ms", t.poo.preprocess_ms / tn, "ms",
              "4 workers, per frame");
    res.layer("render.tile.binning_ms", t.poo.binning_ms / tn, "ms");
    res.layer("render.tile.raster_ms", t.poo.raster_ms / tn, "ms");
    res.layer("render.gw.preprocess_ms", g.poo.preprocess_ms / gn, "ms");
    res.layer("render.gw.binning_ms", g.poo.binning_ms / gn, "ms");
    res.layer("render.gw.raster_ms", g.poo.raster_ms / gn, "ms");
    // Unit costs: serial stage time over the work it did.
    res.layer("render.tile.preprocess_ns_per_gaussian",
              ratio(t.ser.preprocess_ms * 1e6, t.c[kGaussians]), "ns",
              "serial");
    res.layer("render.tile.binning_ns_per_kv",
              ratio(t.ser.binning_ms * 1e6, t.c[kKvPairs]), "ns");
    res.layer("render.tile.raster_ns_per_blend",
              ratio(t.ser.raster_ms * 1e6, t.c[kTileBlendOps]), "ns");
    res.layer("render.tile.raster_ns_per_fetch",
              ratio(t.ser.raster_ms * 1e6, t.c[kTileFetches]), "ns");
    res.layer("render.gw.raster_ns_per_blend",
              ratio(g.ser.raster_ms * 1e6, g.c[kGwBlendOps]), "ns");
    res.layer("render.gw.raster_ns_per_alpha_eval",
              ratio(g.ser.raster_ms * 1e6, g.c[kGwAlphaEvals]), "ns");
    // Exact work per frame and the paper's useful-work ratios.
    res.layer("render.tile.kv_pairs", t.c[kKvPairs] / tn, "count",
              "per frame");
    res.layer("render.tile.blend_ops", t.c[kTileBlendOps] / tn, "count");
    res.layer("render.tile.alpha_evals", t.c[kTileAlphaEvals] / tn, "count");
    res.layer("render.tile.rendered_per_projected",
              ratio(t.c[kTileRendered], t.c[kProjected]), "ratio");
    res.layer("render.tile.loads_per_rendered",
              ratio(t.c[kTileFetches], t.c[kFetchedGaussians]), "ratio");
    res.layer("render.tile.blend_per_alpha_eval",
              ratio(t.c[kTileBlendOps], t.c[kTileAlphaEvals]), "ratio");
    res.layer("render.gw.stage2_invocations", g.c[kStage2] / gn, "count");
    res.layer("render.gw.blend_ops", g.c[kGwBlendOps] / gn, "count");
    res.layer("render.gw.preprocess_skip_share",
              ratio(g.c[kShSkips] + g.c[kTerminationSkips], g.c[kSurvivors]),
              "share");
    res.layer("render.gw.blend_per_alpha_eval",
              ratio(g.c[kGwBlendOps], g.c[kGwAlphaEvals]), "ratio");
    // Intra-frame scaling: serial over pooled time.
    res.layer("render.tile.speedup_4w", ratio(t.ser_ms, t.poo_ms), "x");
    res.layer("render.gw.speedup_4w", ratio(g.ser_ms, g.poo_ms), "x");
    res.layer("render.tile.preprocess_speedup_4w",
              ratio(t.ser.preprocess_ms, t.poo.preprocess_ms), "x");
    res.layer("render.tile.binning_speedup_4w",
              ratio(t.ser.binning_ms, t.poo.binning_ms), "x");
    res.layer("render.tile.raster_speedup_4w",
              ratio(t.ser.raster_ms, t.poo.raster_ms), "x");
    return serial;
}

// ---- Cycle models ----

/** The functional render a simulator job performs, done bare. */
RenderItem
bareRenderOf(const SimJob &job, const JobResult &r, const SceneData &scene)
{
    RenderItem it;
    it.scene = job.spec.name;
    it.frame = job.frame;
    it.cloud = &scene.cloud;
    it.cam = &scene.trajectory.frame(static_cast<std::size_t>(job.frame));
    if (job.backend == Backend::Gscore) {
        it.kind = Kind::Tile;
        it.tile.tile_size = job.variant.gscore.tile_size;
        it.tile.bounding = job.variant.gscore.bounding;
    } else {
        // GccSim's functional configuration (core/gcc_sim.cc).
        const GccConfig &c = job.variant.gcc;
        it.kind = Kind::Gw;
        it.gw.group_capacity = c.group_capacity;
        it.gw.block_size = c.block_size;
        it.gw.termination_t = c.termination_t;
        it.gw.depth_pivot = c.depth_pivot;
        it.gw.conditional = c.mode == GccMode::GaussianWiseCC;
        it.gw.subview_size = job.backend == Backend::Gcc ? r.subview_size : 0;
    }
    return it;
}

/** Simulated (exact) outputs, averaged over @p results' frames. */
void
simExactMetrics(const std::vector<JobResult> &results, Results &res)
{
    struct Acc
    {
        double cycles = 0, dram = 0, energy = 0;
        int n = 0;
    } acc[3];
    std::map<std::pair<std::string, int>, const JobResult *> gcc, gscore;
    for (const JobResult &r : results) {
        if (!r.ok)
            continue;
        Acc &a = acc[static_cast<int>(r.backend)];
        a.cycles += static_cast<double>(r.cycles);
        a.dram += static_cast<double>(r.dram_bytes) / 1e6;
        a.energy += r.energy_mj;
        ++a.n;
        if (r.backend == Backend::Gcc)
            gcc[{r.scene, r.frame}] = &r;
        if (r.backend == Backend::Gscore)
            gscore[{r.scene, r.frame}] = &r;
    }
    double log_speedup = 0.0, log_eff = 0.0;
    int pairs = 0;
    for (const auto &[key, g] : gcc) {
        const auto it = gscore.find(key);
        if (it == gscore.end() || g->frame_ms <= 0.0 || g->energy_mj <= 0.0)
            continue;
        log_speedup += std::log(it->second->frame_ms / g->frame_ms);
        log_eff += std::log(it->second->energy_mj / g->energy_mj);
        ++pairs;
    }
    res.check(pairs > 0, "no GCC/GSCore frame pairs to compare");
    const std::string sim_note = "simulated; scale-dependent, unvalidated";
    res.layer("sim.gcc.cycles_per_frame", ratio(acc[0].cycles, acc[0].n),
              "cycles", sim_note);
    res.layer("sim.gscore.cycles_per_frame", ratio(acc[1].cycles, acc[1].n),
              "cycles", sim_note);
    res.layer("sim.gcc.dram_mb_per_frame", ratio(acc[0].dram, acc[0].n), "MB",
              sim_note);
    res.layer("sim.gscore.dram_mb_per_frame", ratio(acc[1].dram, acc[1].n),
              "MB", sim_note);
    res.layer("sim.gcc.energy_mj_per_frame", ratio(acc[0].energy, acc[0].n),
              "mJ", sim_note);
    res.layer("sim.gcc_vs_gscore.speedup_geomean",
              pairs ? std::exp(log_speedup / pairs) : 0.0, "x",
              "paper: 5.24x; " + sim_note);
    res.layer("sim.gcc_vs_gscore.energy_eff_geomean",
              pairs ? std::exp(log_eff / pairs) : 0.0, "x",
              "paper: 3.35x; " + sim_note);
}

/** One simulator job, with a thrown error reported as a failed job. */
JobResult
runSimJob(const SimJob &job, const SceneData &scene, SpanLog &log,
          int parent)
{
    perfbench::ScopedSpan s(log, "sim." + backendName(job.backend), parent,
                            {-1, job.frame, job.id});
    try {
        return SweepRunner::runJob(job, scene);
    } catch (const std::exception &e) {
        JobResult r;
        r.ok = false;
        r.error = e.what();
        return r;
    }
}

/**
 * The cycle-model and runtime layers, profiled on a workload's scenes.
 * @p jobs first run as one sweep pass through SweepRunner::runJob on
 * every worker of @p pool (runtime.sweep.*; no job may fail).  Then
 * each job runs kSimReps more times on the calling thread:
 * sim.*.host_ms is the median call.  Every rerun must give
 * sameSimOutput with the sweep pass, and the sweep pass's image must
 * equal a bare functional render of the same frame.  The sweep pass's
 * simulated outputs give the exact sim.* metrics.
 */
void
simProbe(const std::vector<std::pair<SimJob, const SceneData *>> &jobs,
         ThreadPool &pool, Results &res, SpanLog &log, int parent)
{
    const std::size_t n = jobs.size();
    std::vector<JobResult> swept(n);
    const int pass = log.open("probe.sim.sweep", parent);
    const double p0 = log.nowMs();
    std::atomic<std::size_t> next{0};
    std::vector<std::future<void>> loops;
    for (int w = 0; w < pool.workerCount(); ++w)
        loops.push_back(pool.submit([&] {
            for (std::size_t k = next.fetch_add(1); k < n;
                 k = next.fetch_add(1))
                swept[k] = runSimJob(jobs[k].first, *jobs[k].second, log, pass);
        }));
    for (auto &f : loops)
        f.get();
    const double pass_ms = log.nowMs() - p0;
    log.close(pass);
    double job_ms = 0.0;
    int failed = 0;
    for (std::size_t k = 0; k < n; ++k) {
        res.attempt();
        res.check(swept[k].ok, "probe job " + std::to_string(k) +
                                   " failed: " + swept[k].error);
        job_ms += swept[k].wall_ms;
        failed += swept[k].ok ? 0 : 1;
    }
    res.layer("runtime.sweep.jobs_in_flight", ratio(job_ms, pass_ms), "count",
              std::to_string(n) + " jobs on " +
                  std::to_string(pool.workerCount()) + " workers");
    res.layer("runtime.sweep.failed_jobs", failed, "count");

    std::vector<double> host[3];
    const int serial = log.open("probe.sim.serial", parent);
    for (std::size_t k = 0; k < n; ++k) {
        const auto &[job, scene] = jobs[k];
        std::vector<double> sim_ms;
        for (int rep = 0; rep < kSimReps; ++rep) {
            const double t0 = log.nowMs();
            const JobResult r = runSimJob(job, *scene, log, serial);
            sim_ms.push_back(log.nowMs() - t0);
            res.attempt();
            res.check(sameSimOutput(r, swept[k]),
                      "probe job " + std::to_string(k) +
                          ": calling-thread rerun differs from the sweep");
        }
        host[static_cast<int>(job.backend)].push_back(median(sim_ms));
        if (!swept[k].ok || job.backend == Backend::Gpu)
            continue;
        perfbench::ScopedSpan s(log, "sim.bare_render", serial,
                                {-1, job.frame, job.id});
        const Rendered bare =
            renderItem(bareRenderOf(job, swept[k], *scene), nullptr);
        res.check(res.checked(bare.checksum) == swept[k].image_checksum,
                  "probe job " + std::to_string(k) +
                      ": simulator image differs from its bare render");
    }
    log.close(serial);
    const char *names[] = {"gcc", "gscore", "gpu"};
    for (int b = 0; b < 3; ++b)
        res.layer(std::string("sim.") + names[b] + ".host_ms_per_frame",
                  ratio(std::accumulate(host[b].begin(), host[b].end(), 0.0),
                        static_cast<double>(host[b].size())),
                  "ms", "serial, median of " + std::to_string(kSimReps));
    simExactMetrics(swept, res);
}

/** Probe jobs: frame 0 of each scene on every backend. */
std::vector<std::pair<SimJob, const SceneData *>>
probeJobs(const std::vector<std::pair<SceneSpec, const SceneData *>> &scenes,
          float scale)
{
    std::vector<std::pair<SimJob, const SceneData *>> jobs;
    for (const auto &[spec, data] : scenes)
        for (Backend b : {Backend::Gcc, Backend::Gscore, Backend::Gpu}) {
            SimJob job;
            job.id = static_cast<int>(jobs.size());
            job.spec = spec;
            job.scale = scale;
            job.frame = 0;
            job.frame_count = static_cast<int>(data->trajectory.frameCount());
            job.backend = b;
            jobs.emplace_back(job, data);
        }
    return jobs;
}

void
sceneMetrics(Results &res, const std::vector<double> &gen_ms,
             double gaussians)
{
    const double ms = median(gen_ms);
    res.layer("scene.generate_ms", ms, "ms", "all scenes, median setup");
    res.layer("scene.generate_ns_per_gaussian", ratio(ms * 1e6, gaussians),
              "ns");
}

void
traceOverhead(Results &res, const SpanLog &log, double timed_ms)
{
    res.layer("trace.overhead_share", ratio(log.selfMs(), timed_ms), "share",
              std::to_string(log.size()) + " spans");
}

// ---- interactive ----

void
runInteractive(const Options &o, Results &res, SpanLog &log, int root)
{
    const int workers = workerCount();
    struct Entry
    {
        SceneSpec spec;
        SceneData data;
    };
    std::vector<Entry> scenes;
    std::unique_ptr<ThreadPool> pool;
    std::vector<double> setup_s, gen_ms;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        scenes.clear();
        pool.reset();
        const double t0 = log.nowMs();
        double gen = 0.0;
        for (SceneId id : {SceneId::Palace, SceneId::Train}) {
            const double g0 = log.nowMs();
            Entry e;
            e.spec = scenePreset(id);
            e.data.cloud = generateScene(e.spec, kInteractiveScale);
            e.data.trajectory =
                Trajectory::forScene(e.spec, kInteractiveFrames);
            gen += log.nowMs() - g0;
            scenes.push_back(std::move(e));
        }
        pool = std::make_unique<ThreadPool>(workers);
        setup_s.push_back((log.nowMs() - t0) / 1000.0);
        gen_ms.push_back(gen);
    }
    res.e2e("setup_s", median(setup_s), "s",
            "median of " + std::to_string(kSetupReps));

    // One round: every camera of both trajectories, tile then gw.
    std::vector<RenderItem> items;
    for (const Entry &e : scenes)
        for (int f = 0; f < kInteractiveFrames; ++f)
            for (Kind k : {Kind::Tile, Kind::Gw}) {
                RenderItem it;
                it.scene = e.spec.name;
                it.frame = f;
                it.kind = k;
                it.cloud = &e.data.cloud;
                it.cam = &e.data.trajectory.frame(static_cast<std::size_t>(f));
                it.gw.subview_size = kSubview;
                items.push_back(it);
            }
    res.note("interactive: closed loop, 1 client, 1 frame in flight, " +
             std::to_string(workers) + "-worker pool per render; round = " +
             std::to_string(items.size()) + " frames (Palace+Train x " +
             std::to_string(kInteractiveFrames) + " cameras x tile,gw)");

    // Timed: whole rounds while the next one fits in --seconds.
    std::vector<double> tile_ms, gw_ms, latency_ms;
    std::vector<std::vector<double>> sums(items.size());
    std::vector<WorkCounts> counts(items.size());
    DispatchStats ds;
    const double budget_ms = o.seconds * 1000.0;
    const double start = log.nowMs();
    double last_round = 0.0;
    int rounds = 0;
    while (rounds == 0 || (log.nowMs() - start) + last_round <= budget_ms) {
        const double r0 = log.nowMs();
        const int round_span = log.open("round", root, {0, rounds, -1});
        double due = r0;
        for (std::size_t i = 0; i < items.size(); ++i) {
            const double dispatch = log.nowMs();
            const int span = log.open(std::string("frame.") +
                                          kindName(items[i].kind),
                                      round_span, {0, items[i].frame, -1});
            const Rendered r = renderItem(items[i], pool.get());
            log.close(span);
            const double done = log.nowMs();
            if (log.enabled()) {
                double at = dispatch;
                const double stage[3] = {r.stage.preprocess_ms,
                                         r.stage.binning_ms,
                                         r.stage.raster_ms};
                const char *names[3] = {"preprocess", "binning", "raster"};
                for (int s = 0; s < 3; ++s) {
                    log.derived(names[s], at, at + stage[s], span,
                                {0, items[i].frame, -1});
                    at += stage[s];
                }
            }
            (items[i].kind == Kind::Tile ? tile_ms : gw_ms).push_back(r.ms);
            latency_ms.push_back(done - due);
            ds.queue_wait_ms.push_back(dispatch - due);
            ds.depth.push_back(1.0);
            ds.busy_ms += done - dispatch;
            ds.addStage(r.stage);
            ++ds.served;
            ++ds.tiers[static_cast<int>(DegradeTier::Full)];
            sums[i].push_back(res.checked(r.checksum));
            const WorkCounts c = r.counts(items[i].kind);
            if (rounds == 0)
                counts[i] = c;
            res.check(c == counts[i], items[i].scene + " frame " +
                                          std::to_string(items[i].frame) +
                                          ": work counts changed between rounds");
            res.attempt();
            due = log.nowMs();
        }
        log.close(round_span);
        last_round = log.nowMs() - r0;
        ++rounds;
    }
    const double timed_ms = log.nowMs() - start;
    ds.wall_ms = timed_ms;
    const double frames = static_cast<double>(latency_ms.size());

    percentileMetrics(res, "tile_frame_ms", tile_ms);
    percentileMetrics(res, "gw_frame_ms", gw_ms);
    percentileMetrics(res, "latency_ms", latency_ms);
    res.e2e("goodput_fps", frames / (timed_ms / 1000.0), "1/s",
            std::to_string(rounds) + " rounds; no deadlines, every frame counts");
    res.e2e("on_time_share", 1.0, "share", "closed loop: nothing shed");

    // Checks: serial references, and renderReference for frame 0.
    const int check_span = log.open("checks", root);
    std::vector<Rendered> serial;
    if (o.trace)
        serial = renderProbe(items, *pool, res, log, check_span);
    else
        serial = renderSerialParallel(items, *pool);
    for (std::size_t i = 0; i < items.size(); ++i)
        for (double s : sums[i])
            res.check(s == serial[i].checksum,
                      items[i].scene + " frame " +
                          std::to_string(items[i].frame) + " " +
                          kindName(items[i].kind) +
                          ": timed frame differs from serial render");
    {
        StandardFlowStats ts;
        GaussianWiseStats gs;
        auto tref = pool->submit([&] {
            return imageChecksum(TileRenderer(items[0].tile).renderReference(
                *items[0].cloud, *items[0].cam, ts));
        });
        auto gref = pool->submit([&] {
            return imageChecksum(GaussianWiseRenderer(items[1].gw)
                                     .renderReference(*items[1].cloud,
                                                      *items[1].cam, gs));
        });
        res.attempt(2);
        res.check(tref.get() == serial[0].checksum,
                  "tile frame 0 differs from renderReference");
        res.check(gref.get() == serial[1].checksum,
                  "gw frame 0 differs from renderReference");
    }
    log.close(check_span);

    if (!o.trace)
        return;
    ds.emit(res);
    std::vector<std::pair<SceneSpec, const SceneData *>> sim_scenes;
    double gaussians = 0.0;
    for (const Entry &e : scenes) {
        sim_scenes.emplace_back(e.spec, &e.data);
        gaussians += static_cast<double>(e.data.cloud.size());
    }
    simProbe(probeJobs(sim_scenes, kInteractiveScale), *pool, res, log, root);
    sceneMetrics(res, gen_ms, gaussians);
    traceOverhead(res, log, timed_ms);
}

// ---- fleet-overload ----

/**
 * The fleet's open-loop arrival table: the library's seeded Poisson
 * process at a fixed rate, conditioned on offering the expected number
 * of sessions, rate x @p window_ms.  The first n+1 arrivals are scaled
 * so the (n+1)-th falls at the end of the window; the first n of them
 * are then distributed as a Poisson process with exactly n arrivals in
 * the window (n sorted uniform points), so the seed moves the bursts
 * but not the offered count.  Every session is kFleetFrames long.
 * Built from constants and the seed only, so both sides of a
 * comparison get the identical table.
 */
std::vector<serve::SessionArrival>
fleetArrivals(std::uint64_t seed, double window_ms)
{
    const auto n = static_cast<std::size_t>(
        std::max(1L, std::lround(kOverloadSessionsPerS * window_ms / 1000.0)));
    serve::LoadGenConfig cfg;
    cfg.seed = seed;
    cfg.base_rate_hz = kOverloadSessionsPerS;
    cfg.duration_ms = std::numeric_limits<double>::max();
    cfg.max_sessions = n + 1;
    cfg.frames_min = kFleetFrames;
    cfg.frames_max = kFleetFrames;
    cfg.fps_target = kFleetFps;
    std::vector<serve::SessionArrival> table = serve::generateArrivals(cfg);
    const double scale = window_ms / table.back().start_ms;
    table.pop_back();
    for (serve::SessionArrival &a : table)
        a.start_ms *= scale;
    return table;
}

void
runFleet(const Options &o, Results &res, SpanLog &log, int root)
{
    const int workers = workerCount();
    const double session_ms = 1000.0 * kFleetFrames / kFleetFps;
    const double window_ms = std::max(1000.0, o.seconds * 1000.0 - session_ms);
    std::vector<SceneSpec> specs = {scenePreset(SceneId::Palace),
                                    scenePreset(SceneId::Lego),
                                    scenePreset(SceneId::Train)};
    FleetSpec fleet;
    fleet.scale = kFleetScale;
    fleet.scenes = specs;
    fleet.renderers = {SessionRenderer::Tile, SessionRenderer::GaussianWise};
    fleet.gw.subview_size = kSubview;
    fleet.temporal = 1;       // tile sessions: exact incremental frames
    fleet.traj_arc = kFleetArc;
    fleet.degrade = true;     // ladder on (keeps a warp source)

    std::unique_ptr<SceneRegistry> registry;
    std::vector<serve::SessionArrival> arrivals;
    std::vector<Session> sessions;
    std::unique_ptr<ThreadPool> pool;
    std::vector<double> setup_s, gen_ms;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        sessions.clear();
        registry.reset();
        pool.reset();
        const double t0 = log.nowMs();
        registry = std::make_unique<SceneRegistry>();
        arrivals = fleetArrivals(o.seed, window_ms);
        double gen = 0.0;
        for (const SceneSpec &spec : specs) {
            const double g0 = log.nowMs();
            registry->acquire(spec, kFleetScale, kFleetFrames, kFleetArc);
            gen += log.nowMs() - g0;
        }
        sessions = buildOpenLoopFleet(fleet, arrivals, *registry);
        pool = std::make_unique<ThreadPool>(workers);
        setup_s.push_back((log.nowMs() - t0) / 1000.0);
        gen_ms.push_back(gen);
    }
    res.e2e("setup_s", median(setup_s), "s",
            "median of " + std::to_string(kSetupReps));
    std::vector<int> offered;
    for (const Session &s : sessions)
        offered.push_back(s.frameCount());
    const std::int64_t offered_frames = std::accumulate(
        offered.begin(), offered.end(), std::int64_t{0});
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s: %zu sessions x %d frames at %.2f fps over a %.0f ms "
                  "window (Poisson rate %.2f sessions/s = %.2f frames/s "
                  "offered, seed %llu), %d workers, EDF + drop_late + ladder",
                  o.workload.c_str(), sessions.size(), kFleetFrames,
                  static_cast<double>(kFleetFps), window_ms,
                  kOverloadSessionsPerS, kOverloadSessionsPerS * kFleetFrames,
                  static_cast<unsigned long long>(o.seed), workers);
    res.note(line);

    SchedulerOptions opt;
    opt.policy = SchedulerPolicy::Edf;
    opt.workers = workers;
    opt.drop_late = true;
    opt.degrade.enabled = true;
    FrameScheduler scheduler(opt);
    const int run_span = log.open("serve.run", root);
    const double run0 = log.nowMs();
    const ServeReport report = scheduler.run(sessions, *pool);
    const double timed_ms = log.nowMs() - run0;
    log.close(run_span);
    res.attempt(offered_frames);

    // Every offered frame exactly once: rendered, shed or unserved.
    const perfbench::FleetTally tally = perfbench::tallyFleet(report, offered);
    for (std::int64_t e = 0; e < tally.errors; ++e)
        res.check(false, "frame accounting: offered frame not counted once");

    std::vector<double> tile_ms, gw_ms, latency_ms, lateness_ms;
    DispatchStats ds;
    ds.slots = report.workers;
    ds.wall_ms = report.wall_ms;
    ds.depth.push_back(report.queue_depth.mean);
    for (std::size_t i = 0; i < report.sessions.size(); ++i) {
        const Session &s = sessions[i];
        const bool tile = s.config().renderer == SessionRenderer::Tile;
        for (const FrameRecord &r : report.sessions[i].frames) {
            const double due = s.config().start_ms + s.periodMs() * r.frame;
            if (log.enabled()) {
                const SpanIds ids{s.id(), r.frame, -1};
                const int f = log.derived(
                    r.rendered ? "frame" : "frame.shed", run0 + due,
                    run0 + due + (r.rendered ? r.latency_ms : 0.0), run_span,
                    ids);
                if (r.rendered) {
                    const double dispatch = due + r.latency_ms - r.render_ms;
                    log.derived("queue", run0 + due, run0 + dispatch, f, ids);
                    log.derived(std::string("render.") +
                                    degradeTierName(r.tier),
                                run0 + dispatch, run0 + dispatch + r.render_ms,
                                f, ids);
                }
            }
            if (!r.rendered)
                continue;
            latency_ms.push_back(r.latency_ms);
            lateness_ms.push_back(r.latency_ms - r.render_ms);
            ds.queue_wait_ms.push_back(r.queue_wait_ms);
            ds.busy_ms += r.render_ms;
            ds.addStage({r.cost.pre_ms, r.cost.bin_ms, r.cost.raster_ms,
                         r.cost.warp_ms});
            if (r.tier == DegradeTier::Full)
                (tile ? tile_ms : gw_ms).push_back(r.render_ms);
        }
    }
    ds.served = tally.rendered;
    report.tierTotals(ds.tiers);
    report.shedTotals(ds.sheds);
    ds.misses = report.missAttribution();
    ds.slo_miss_rate = tally.missRate();
    ds.degraded_share =
        1.0 - ratio(static_cast<double>(tally.full_on_time),
                    static_cast<double>(tally.on_time));

    percentileMetrics(res, "tile_frame_ms", tile_ms);
    percentileMetrics(res, "gw_frame_ms", gw_ms);
    percentileMetrics(res, "latency_ms", latency_ms);
    res.e2e("goodput_fps",
            static_cast<double>(tally.on_time) / (report.wall_ms / 1000.0),
            "1/s", "on-time frames over " +
                       std::to_string(report.wall_ms / 1000.0) +
                       " s serving wall");
    res.e2e("on_time_share",
            ratio(static_cast<double>(tally.on_time),
                  static_cast<double>(tally.offered)),
            "share",
            "slo_miss_rate = " + std::to_string(tally.missRate()) + " (" +
                std::to_string(tally.misses()) + " of " +
                std::to_string(tally.offered) + ": late " +
                std::to_string(tally.rendered - tally.on_time) + ", shed " +
                std::to_string(tally.shed) + ", unserved " +
                std::to_string(tally.unserved) + ")");
    res.note("degraded_share " + std::to_string(ds.degraded_share) +
             " of on-time frames served below the Full tier");
    const Percentiles late = perfbench::percentiles(lateness_ms);
    res.note("generator lateness (due -> dispatch, rendered frames): p50 " +
             std::to_string(late.p50) + " ms, p90 " +
             std::to_string(late.p90) + " ms, n=" + std::to_string(late.n));

    // Full-tier frames must match a cold Session::renderFrame; frames
    // of one (scene, renderer, index) are identical across sessions.
    const int check_span = log.open("checks", root);
    std::map<std::string, std::shared_future<double>> cold;
    auto key = [&](std::size_t i, int frame) {
        return sessions[i].config().spec.name + "/" +
               sessionRendererName(sessions[i].config().renderer) + "/" +
               std::to_string(frame);
    };
    for (std::size_t i = 0; i < report.sessions.size(); ++i)
        for (const FrameRecord &r : report.sessions[i].frames) {
            if (!r.rendered || r.tier != DegradeTier::Full ||
                cold.count(key(i, r.frame)))
                continue;
            const Session *s = &sessions[i];
            const int frame = r.frame;
            cold[key(i, r.frame)] = pool->submit([s, frame] {
                                        Session fresh(s->config(), s->scene());
                                        return fresh.renderFrame(frame);
                                    }).share();
        }
    for (std::size_t i = 0; i < report.sessions.size(); ++i)
        for (const FrameRecord &r : report.sessions[i].frames)
            if (r.rendered && r.tier == DegradeTier::Full)
                res.check(res.checked(r.checksum) ==
                              cold[key(i, r.frame)].get(),
                          "session " + std::to_string(i) + " frame " +
                              std::to_string(r.frame) +
                              ": Full frame differs from a cold render");
    log.close(check_span);

    if (!o.trace)
        return;
    ds.emit(res);
    // Layer profile of the fleet's frames: the first and last frame of
    // each (scene, renderer), with the sessions' renderer configs.
    std::vector<RenderItem> items;
    std::map<std::string, bool> seen;
    for (const Session &s : sessions) {
        const std::string k =
            s.config().spec.name + sessionRendererName(s.config().renderer);
        if (seen[k])
            continue;
        seen[k] = true;
        for (int f : {0, kFleetFrames - 1}) {
            RenderItem it;
            it.scene = s.config().spec.name;
            it.frame = f;
            it.kind = s.config().renderer == SessionRenderer::Tile ? Kind::Tile
                                                                   : Kind::Gw;
            it.cloud = s.scene().cloud.get();
            it.cam = &s.scene().trajectory->frame(static_cast<std::size_t>(f));
            it.tile = s.config().tile;
            it.gw = s.config().gw;
            items.push_back(it);
        }
    }
    renderProbe(items, *pool, res, log, root);
    std::vector<SceneData> copies;
    copies.reserve(specs.size());
    double gaussians = 0.0;
    for (const SceneSpec &spec : specs) {
        const SceneHandle h =
            registry->acquire(spec, kFleetScale, kFleetFrames, kFleetArc);
        copies.push_back({*h.cloud, *h.trajectory});
        gaussians += static_cast<double>(h.cloud->size());
    }
    std::vector<std::pair<SceneSpec, const SceneData *>> sim_scenes;
    for (std::size_t i = 0; i < specs.size(); ++i)
        sim_scenes.emplace_back(specs[i], &copies[i]);
    simProbe(probeJobs(sim_scenes, kFleetScale), *pool, res, log, root);
    sceneMetrics(res, gen_ms, gaussians);
    traceOverhead(res, log, timed_ms);
}

// ---- selftest ----

int
selftest()
{
    int failures = 0;
    auto expect = [&](bool ok, const char *what) {
        if (!ok) {
            std::printf("FAIL: %s\n", what);
            ++failures;
        }
    };
    // Percentile rule: ten samples beyond (p75 at 40, p90 at 100).
    expect(perfbench::samplesBeyond(100, 0.9) == 10, "100 samples: 10 beyond p90");
    expect(perfbench::percentileSupported(40, 0.75), "p75 supported at n=40");
    expect(!perfbench::percentileSupported(39, 0.75), "p75 unsupported at n=39");
    expect(perfbench::percentileSupported(100, 0.9), "p90 supported at n=100");
    expect(!perfbench::percentileSupported(99, 0.9), "p90 unsupported at n=99");
    expect(perfbench::percentileSupported(20, 0.5), "p50 supported at n=20");
    expect(!perfbench::percentileSupported(19, 0.5), "p50 unsupported at n=19");
    expect(perfbench::percentileSupported(1000, 0.99), "p99 supported at n=1000");
    const Percentiles p = perfbench::percentiles({4, 1, 3, 2, 5});
    expect(p.n == 5 && p.p50 == 3.0 && p.p75 == 4.0 &&
               std::fabs(p.p90 - 4.6) < 1e-12,
           "percentiles interpolate linearly");

    // Arrival tables: a pure function of (constants, seed).
    const auto a = fleetArrivals(7, 11000.0);
    const auto b = fleetArrivals(7, 11000.0);
    const auto c = fleetArrivals(8, 11000.0);
    bool same = a.size() == b.size() && !a.empty();
    for (std::size_t i = 0; same && i < a.size(); ++i)
        same = a[i].start_ms == b[i].start_ms && a[i].frames == b[i].frames &&
               a[i].scene_slot == b[i].scene_slot &&
               a[i].fps_target == b[i].fps_target;
    expect(same, "one seed gives one arrival table");
    bool moved = false, sorted = true;
    for (std::size_t i = 0; i < a.size(); ++i) {
        moved = moved || a[i].start_ms != c[i].start_ms;
        sorted = sorted && (i == 0 || a[i - 1].start_ms <= a[i].start_ms) &&
                 a[i].start_ms >= 0.0 && a[i].start_ms < 11000.0 &&
                 a[i].frames == kFleetFrames;
    }
    expect(moved && a.size() == c.size() && a.size() == 44,
           "the seed moves arrival times, not the session count");
    expect(sorted, "arrivals sorted inside the window, fixed session length");

    // Miss accounting: late, shed and unserved frames all miss.
    ServeReport r;
    r.sessions.resize(2);
    auto rec = [](int frame, bool rendered, bool late, ShedReason why,
                  DegradeTier tier) {
        FrameRecord f;
        f.frame = frame;
        f.rendered = rendered;
        f.deadline_missed = late;
        f.shed_reason = why;
        f.tier = tier;
        return f;
    };
    r.sessions[0].frames = {
        rec(0, true, false, ShedReason::None, DegradeTier::Full),
        rec(1, true, false, ShedReason::None, DegradeTier::Warp),
        rec(2, true, true, ShedReason::None, DegradeTier::Full),
        rec(3, false, true, ShedReason::Late, DegradeTier::Drop)};
    r.sessions[1].frames = {
        rec(0, false, true, ShedReason::Degrade, DegradeTier::Drop)};
    r.sessions[1].frames_unserved = 2;
    const perfbench::FleetTally t = perfbench::tallyFleet(r, {4, 3});
    expect(t.offered == 7 && t.rendered == 3 && t.on_time == 2 &&
               t.full_on_time == 1 && t.shed == 2 && t.unserved == 2 &&
               t.errors == 0,
           "tally counts every frame once");
    expect(t.misses() == 5 && std::fabs(t.missRate() - 5.0 / 7.0) < 1e-12,
           "late + shed + unserved frames are misses");
    // A frame counted twice or not at all is an accounting error.
    r.sessions[1].frames_unserved = 3;
    expect(perfbench::tallyFleet(r, {4, 3}).errors == 1,
           "over-counted frame is an error");
    r.sessions[1].frames_unserved = 2;
    r.sessions[0].frames[1].frame = 5;
    expect(perfbench::tallyFleet(r, {4, 3}).errors == 1,
           "out-of-order frame is an error");
    r.sessions[0].frames[1].frame = 1;
    r.sessions[0].frames[1].rendered = false;  // neither rendered nor shed
    expect(perfbench::tallyFleet(r, {4, 3}).errors == 1,
           "a frame neither rendered nor shed is an error");

    std::printf("selftest: %s (%d failures)\n", failures ? "FAIL" : "ok",
                failures);
    return failures ? 1 : 0;
}

std::string
metaJson(const Options &o)
{
    const char *commit = std::getenv("PERFBENCH_COMMIT");
    char buf[768];
    std::snprintf(
        buf, sizeof buf,
        "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"nproc\": %d, \"workers\": %d, \"simd\": \"%s\", "
        "\"simd_width\": %d, \"build_type\": \"%s\", \"compiler\": \"%s\", "
        "\"commit\": \"%s\"}",
        o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
        o.trace ? 1 : 0, ThreadPool::hardwareWorkers(), workerCount(),
        simd::backendName(), simd::kWidth, PERFBENCH_BUILD_TYPE,
        PERFBENCH_COMPILER, commit != nullptr ? commit : "unknown");
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    if (o.selftest)
        return selftest();

    using Runner = std::function<void(const Options &, Results &, SpanLog &,
                                      int)>;
    const std::map<std::string, Runner> workloads = {
        {"interactive", runInteractive},
        {"fleet-overload", runFleet},
    };
    const auto it = workloads.find(o.workload);
    if (it == workloads.end())
        usage(("unknown workload '" + o.workload + "'").c_str());

    const std::string meta = metaJson(o);
    std::printf("# perfbench %s\n", meta.c_str());
    Results res(o);
    SpanLog log(o.trace);
    try {
        const int root = log.open("workload." + o.workload);
        it->second(o, res, log, root);
        log.close(root);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (o.trace) {
        std::filesystem::create_directories(".bench_out");
        const std::string path = ".bench_out/trace-" + o.workload + "-" +
                                 std::to_string(o.seed) + ".json";
        res.check(log.write(path, meta), "could not write " + path);
        res.note("trace: " + path);
    }
    res.finish();
    return res.correct() ? 0 : 1;
}
