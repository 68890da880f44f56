/** @file Property-based sweeps across the rendering stack: invariants
 * that must hold for whole families of configurations, not just the
 * paper's design point. */

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/accelerator.h"
#include "gsmath/fixed_point.h"
#include "render/gaussian_wise_renderer.h"
#include "render/metrics.h"
#include "render/splat_soa.h"
#include "render/tile_renderer.h"
#include "test_util.h"

namespace gcc3d {
namespace {

// ---------------------------------------------------------------------
// Renderer-equivalence across opacity regimes.
// ---------------------------------------------------------------------

class OpacityRegime : public ::testing::TestWithParam<float>
{
};

/**
 * For any opacity mix — translucent haze through opaque shells — the
 * Gaussian-wise pipeline must match the tile-wise pipeline.  Opacity
 * is the variable the omega-sigma law and the T-mask react to, so
 * this is where the two pipelines could plausibly diverge.
 */
TEST_P(OpacityRegime, PipelinesAgree)
{
    SceneSpec spec = test::tinySpec(61, 1800);
    spec.high_opacity_fraction = GetParam();
    GaussianCloud cloud = generateScene(spec, 1.0f);
    Camera cam = makeCamera(spec);

    TileRendererConfig tcfg;
    tcfg.bounding = BoundingMode::OmegaSigma;
    StandardFlowStats ts;
    Image ref = TileRenderer(tcfg).render(cloud, cam, ts);

    GaussianWiseStats gs;
    Image img = GaussianWiseRenderer().render(cloud, cam, gs);

    EXPECT_GT(psnr(ref, img), 42.0) << "high-opacity fraction "
                                    << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Mixes, OpacityRegime,
                         ::testing::Values(0.0f, 0.25f, 0.5f, 0.75f,
                                           0.95f));

// ---------------------------------------------------------------------
// Early-termination threshold monotonicity.
// ---------------------------------------------------------------------

class TerminationSweep : public ::testing::TestWithParam<float>
{
};

/**
 * A stricter (larger) termination threshold can only reduce blending
 * work and rendered population, and looser thresholds converge to
 * the exact volume-rendering result.
 */
TEST_P(TerminationSweep, WorkMonotoneInThreshold)
{
    SceneSpec spec = test::tinyRoomSpec(62, 3000);
    GaussianCloud cloud = generateScene(spec, 1.0f);
    Camera cam = makeCamera(spec);

    float t = GetParam();
    GaussianWiseConfig strict;
    strict.termination_t = t;
    GaussianWiseConfig loose;
    loose.termination_t = t * 0.01f;

    GaussianWiseStats ss, ls;
    GaussianWiseRenderer(strict).render(cloud, cam, ss);
    GaussianWiseRenderer(loose).render(cloud, cam, ls);

    EXPECT_LE(ss.blend_ops, ls.blend_ops);
    EXPECT_LE(ss.rendered_gaussians, ls.rendered_gaussians);
    EXPECT_GE(ss.sh_skipped + ss.skipped_by_termination,
              ls.sh_skipped + ls.skipped_by_termination);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, TerminationSweep,
                         ::testing::Values(1e-2f, 1e-3f, 1e-4f));

// ---------------------------------------------------------------------
// Group-capacity invariance.
// ---------------------------------------------------------------------

class GroupCapacitySweep : public ::testing::TestWithParam<int>
{
};

/**
 * The depth-group capacity N is a scheduling knob: it bounds on-chip
 * working sets but must never change the image (global depth order is
 * preserved regardless of the chunking).
 */
TEST_P(GroupCapacitySweep, ImageInvariantUnderN)
{
    SceneSpec spec = test::tinySpec(63, 2000);
    GaussianCloud cloud = generateScene(spec, 1.0f);
    Camera cam = makeCamera(spec);

    GaussianWiseConfig ref_cfg;
    ref_cfg.group_capacity = 256;
    GaussianWiseStats rs;
    Image ref = GaussianWiseRenderer(ref_cfg).render(cloud, cam, rs);

    GaussianWiseConfig cfg;
    cfg.group_capacity = GetParam();
    GaussianWiseStats st;
    Image img = GaussianWiseRenderer(cfg).render(cloud, cam, st);

    EXPECT_DOUBLE_EQ(mse(ref, img), 0.0) << "N=" << GetParam();
    // Group count scales inversely with capacity.
    EXPECT_GE(st.groups, rs.groups * 256 / GetParam() / 2);
}

INSTANTIATE_TEST_SUITE_P(Capacities, GroupCapacitySweep,
                         ::testing::Values(16, 64, 512));

// ---------------------------------------------------------------------
// Footprint-compensation coverage invariance.
// ---------------------------------------------------------------------

class ScaleSweep : public ::testing::TestWithParam<float>
{
};

/**
 * generateScene's footprint compensation is designed to keep total
 * screen coverage (population x per-Gaussian effective pixels)
 * roughly constant across population scales, so reduced-scale bench
 * runs preserve the paper's occlusion statistics.
 */
TEST_P(ScaleSweep, CoverageApproximatelyScaleInvariant)
{
    SceneSpec spec = test::tinySpec(64, 6000);
    auto coverage = [&](float scale) {
        GaussianCloud cloud = generateScene(spec, scale);
        Camera cam = makeCamera(spec);
        StandardFlowStats st;
        TileRendererConfig cfg;
        cfg.termination_t = 1e-12f;  // count all work, no termination
        TileRenderer(cfg).render(cloud, cam, st);
        return static_cast<double>(st.blend_ops);
    };
    double full = coverage(1.0f);
    double reduced = coverage(GetParam());
    EXPECT_GT(reduced, 0.35 * full);
    EXPECT_LT(reduced, 3.0 * full);
}

INSTANTIATE_TEST_SUITE_P(Scales, ScaleSweep,
                         ::testing::Values(0.25f, 0.5f));

// ---------------------------------------------------------------------
// Blending math invariants on random splat stacks.
// ---------------------------------------------------------------------

TEST(BlendingInvariants, TransmittanceNeverIncreasesAndColorBounded)
{
    std::mt19937 rng(65);
    std::uniform_real_distribution<float> ua(0.0f, 0.99f);
    std::uniform_real_distribution<float> uc(0.0f, 1.0f);
    for (int trial = 0; trial < 50; ++trial) {
        float t = 1.0f;
        Vec3 color;
        float max_channel = 0.0f;
        for (int i = 0; i < 60; ++i) {
            float a = ua(rng);
            Vec3 c(uc(rng), uc(rng), uc(rng));
            float t_next = t * (1.0f - a);
            EXPECT_LE(t_next, t);
            color += c * (a * t);
            t = t_next;
            max_channel = std::max(max_channel, std::max(c.x,
                                   std::max(c.y, c.z)));
        }
        // Blended color is a convex-ish combination: bounded by the
        // largest source channel value.
        EXPECT_LE(color.x, max_channel + 1e-4f);
        EXPECT_LE(color.y, max_channel + 1e-4f);
        EXPECT_LE(color.z, max_channel + 1e-4f);
        EXPECT_GE(t, 0.0f);
    }
}

// ---------------------------------------------------------------------
// The tile kernel's skip bounds hold under the one alpha function.
// ---------------------------------------------------------------------

/**
 * The tile renderer skips alphaFromQ for pixels with q > q_skip and
 * never walks pixels outside the cutoff-safe rect; both skips are
 * sound only if no such pixel could reach alpha >= alpha_cutoff.
 * Over seeded random splats (anisotropic, rotated, opacities from
 * just above the cutoff to above the 0.99 clamp, two cutoffs), every
 * skipped pixel must stay below the cutoff.
 */
TEST(AlphaSkipBounds, NoSkippedPixelReachesTheCutoff)
{
    constexpr int kW = 160, kH = 128;
    std::mt19937 rng(67);
    std::uniform_real_distribution<float> upos(20.0f, 140.0f);
    std::uniform_real_distribution<float> ulog_var(-1.0f, 5.0f);
    std::uniform_real_distribution<float> uangle(0.0f, 3.14159265f);
    std::uniform_real_distribution<float> uomega(0.0f, 1.0f);
    std::int64_t tested = 0, near_cutoff = 0;
    for (float cutoff : {kAlphaMin, 1e-6f}) {
        for (int trial = 0; trial < 300; ++trial) {
            const float l1 = std::exp(ulog_var(rng));
            const float l2 = std::exp(ulog_var(rng));
            const float th = uangle(rng);
            const float c = std::cos(th), sn = std::sin(th);
            const Mat2 cov(c * c * l1 + sn * sn * l2, c * sn * (l1 - l2),
                           c * sn * (l1 - l2), sn * sn * l1 + c * c * l2);
            Splat sp;
            sp.ellipse =
                Ellipse::fromCovariance(Vec2(upos(rng), upos(rng)), cov);
            // Opacity spans [cutoff, 1.2]: near-cutoff splats have the
            // thinnest margin, > 0.99 exercises the clamp.
            sp.opacity = cutoff + uomega(rng) * (1.2f - cutoff);
            sp.radius_3sigma = radius3Sigma(sp.ellipse.eig);
            sp.radius_omega = radiusOmegaSigma(sp.ellipse.eig, sp.opacity);
            SplatSoA soa = SplatSoA::build({sp}, BoundingMode::Obb3Sigma,
                                           16, cutoff, kW, kH);
            const SplatSoA::Blend &b = soa.blend[0];
            for (int y = 0; y < kH; ++y) {
                for (int x = 0; x < kW; ++x) {
                    // The kernel's q (same op order as the lanes).
                    const float dx = (static_cast<float>(x) + 0.5f) - b.cx;
                    const float dy = (static_cast<float>(y) + 0.5f) - b.cy;
                    const float q = dx * (b.c00 * dx + b.c01 * dy) +
                                    dy * (b.c10 * dx + b.c11 * dy);
                    const bool outside_rect =
                        x < b.it_x0 || x > b.it_x1 || y < b.it_y0 ||
                        y > b.it_y1;
                    if (q <= b.q_skip && !outside_rect)
                        continue;
                    ++tested;
                    const float a = alphaFromQ(q, b.opacity);
                    if (a >= 0.5f * cutoff)
                        ++near_cutoff;
                    ASSERT_LT(a, cutoff)
                        << "trial " << trial << " pixel (" << x << ", "
                        << y << ") q " << q << " q_skip " << b.q_skip;
                    // The reference evaluates the same pixel through
                    // Ellipse::alphaAt: identical value.
                    EXPECT_EQ(sp.ellipse.alphaAt(
                                  Vec2(static_cast<float>(x) + 0.5f,
                                       static_cast<float>(y) + 0.5f),
                                  sp.opacity),
                              a);
                }
            }
        }
    }
    EXPECT_GT(tested, 1000000);
    // The margins are exercised, not vacuous: some skipped pixels sit
    // within a factor of two of the cutoff.
    EXPECT_GT(near_cutoff, 0);
}

// ---------------------------------------------------------------------
// Cycle-model sanity across random design points.
// ---------------------------------------------------------------------

TEST(DesignPoints, AreaAndPowerPositiveAcrossRandomPoints)
{
    std::mt19937 rng(66);
    std::uniform_int_distribution<int> pes(4, 128);
    std::uniform_int_distribution<int> ways(1, 8);
    std::uniform_real_distribution<double> kb(16.0, 8192.0);
    for (int i = 0; i < 40; ++i) {
        GccDesignPoint dp;
        dp.alpha_pes = pes(rng);
        dp.blend_pes = pes(rng);
        dp.projection_ways = ways(rng);
        dp.sh_ways = ways(rng);
        dp.image_buffer_kb = kb(rng);
        ChipModel chip = gccChipModel(dp);
        EXPECT_GT(chip.totalArea(), 0.0);
        EXPECT_GT(chip.computePowerMw(), 0.0);
        EXPECT_GT(chip.bufferCapacityKb(), dp.image_buffer_kb - 1.0);
    }
}

TEST(DesignPoints, FpsFiniteAcrossRandomPoints)
{
    SceneSpec spec = test::tinySpec(67, 1200);
    GaussianCloud cloud = generateScene(spec, 1.0f);
    Camera cam = makeCamera(spec);
    std::mt19937 rng(68);
    std::uniform_int_distribution<int> pes_pow(2, 6);
    std::uniform_real_distribution<double> kb(16.0, 1024.0);
    for (int i = 0; i < 6; ++i) {
        GccConfig cfg;
        cfg.alpha_pes = 1 << pes_pow(rng);
        cfg.blend_pes = cfg.alpha_pes;
        cfg.image_buffer_kb = kb(rng);
        GccSim sim(cfg);
        GccFrameResult r = sim.renderFrame(cloud, cam);
        EXPECT_TRUE(std::isfinite(r.fps));
        EXPECT_GT(r.fps, 0.0);
        EXPECT_GT(r.total_cycles, 0u);
    }
}

// ---------------------------------------------------------------------
// Fixed-point arithmetic properties.
// ---------------------------------------------------------------------

TEST(FixedPointProperties, AdditionCommutesAndQuantizesConsistently)
{
    std::mt19937 rng(69);
    // Keep sums and products inside the Q4.20 range (~±8).
    std::uniform_real_distribution<float> u(-2.0f, 2.0f);
    for (int i = 0; i < 200; ++i) {
        float a = u(rng), b = u(rng);
        AlphaFixed fa = AlphaFixed::fromFloat(a);
        AlphaFixed fb = AlphaFixed::fromFloat(b);
        EXPECT_EQ((fa + fb).raw(), (fb + fa).raw());
        EXPECT_EQ((fa * fb).raw(), (fb * fa).raw());
        EXPECT_NEAR((fa + fb).toFloat(), a + b, 2e-5f);
        EXPECT_NEAR((fa * fb).toFloat(), a * b, 2e-4f);
    }
}

} // namespace
} // namespace gcc3d
