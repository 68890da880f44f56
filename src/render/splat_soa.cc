#include "render/splat_soa.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gcc3d {

PixelRect
splatBounds(const Splat &s, BoundingMode mode)
{
    switch (mode) {
      case BoundingMode::Aabb3Sigma:
        return aabbFromRadius(s.ellipse.center, s.radius_3sigma);
      case BoundingMode::Obb3Sigma:
        // The OBB itself is oriented; its tile coverage is bounded by
        // the axis-aligned extent of the oriented box.
        return aabbFromCovariance(s.ellipse.center, s.ellipse.cov, 9.0f);
      case BoundingMode::OmegaSigma:
        return aabbFromRadius(s.ellipse.center, s.radius_omega);
      case BoundingMode::Conservative: {
        int r = std::max(s.radius_3sigma, s.radius_omega);
        return aabbFromRadius(s.ellipse.center, (r * 5 + 3) / 4);
      }
    }
    return {};
}

TileRange
tileRangeFor(const Splat &s, BoundingMode mode, int tile, int width,
             int height)
{
    PixelRect box = splatBounds(s, mode).clipped(width, height);
    TileRange r;
    if (box.empty())
        return r;
    r.bx0 = box.x0 / tile;
    r.by0 = box.y0 / tile;
    r.bx1 = box.x1 / tile;
    r.by1 = box.y1 / tile;
    return r;
}

ObbParams
obbParamsFor(const Splat &s)
{
    ObbParams o;
    o.cx = s.ellipse.center.x;
    o.cy = s.ellipse.center.y;
    o.ca = std::cos(s.ellipse.eig.angle);
    o.sa = std::sin(s.ellipse.eig.angle);
    o.ha = 3.0f * std::sqrt(s.ellipse.eig.l1);
    o.hb = 3.0f * std::sqrt(s.ellipse.eig.l2);
    return o;
}

bool
obbOverlapsTile(const ObbParams &o, float tx0, float ty0, float tx1,
                float ty1)
{
    // Tile corners relative to the splat center, projected onto the
    // box axes; the tile misses the box iff all corners fall beyond
    // one face (separating axis among the box axes).  The image-axis
    // separation is already handled by the AABB sweep.
    float min_u = 1e30f, max_u = -1e30f;
    float min_v = 1e30f, max_v = -1e30f;
    const float xs[2] = {tx0, tx1};
    const float ys[2] = {ty0, ty1};
    for (float x : xs) {
        for (float y : ys) {
            float dx = x - o.cx;
            float dy = y - o.cy;
            float u = dx * o.ca + dy * o.sa;
            float v = -dx * o.sa + dy * o.ca;
            min_u = std::min(min_u, u);
            max_u = std::max(max_u, u);
            min_v = std::min(min_v, v);
            max_v = std::max(max_v, v);
        }
    }
    return min_u <= o.ha && max_u >= -o.ha && min_v <= o.hb &&
           max_v >= -o.hb;
}

namespace {

/**
 * Radius beyond which a splat's alpha provably falls below
 * @p alpha_cutoff: the conic's quadratic form satisfies
 * q >= |d|^2 / max(l1, l2), so alpha = omega * exp(-q/2) < cutoff
 * once |d|^2 > 2 * max(l1, l2) * ln(omega / cutoff).  A 5% slack on
 * the squared radius plus a 3-pixel guard absorbs the rounding of the
 * conic/eigen computations and of alphaFromQ's exponential
 * (simdExpScalar, relative error < 3e-7, worth less than 1e-6 in q),
 * keeping the skip exact in practice (the equivalence suite verifies
 * bit-identical images; tests/test_properties.cc checks the bound
 * over random splats).
 *
 * Returns a negative sentinel when no finite radius can be proven
 * safe (non-positive cutoff, or a footprint so large the bound
 * exceeds @p max_dim); the caller must then iterate the full image.
 */
int
cutoffRadius(const Splat &s, float alpha_cutoff, int max_dim)
{
    if (!(alpha_cutoff > 0.0f))
        return -1;  // no cutoff: nothing can be skipped
    double lam = std::max(s.ellipse.eig.l1, s.ellipse.eig.l2);
    double headroom = std::log(static_cast<double>(s.opacity)) -
                      std::log(static_cast<double>(alpha_cutoff));
    if (!(headroom > 0.0))
        return 2;  // opacity at/below cutoff: only near-center ties
    double r = std::sqrt(2.0 * lam * headroom * 1.05);
    if (!(r < static_cast<double>(max_dim)))
        return -1;  // a capped radius would not be conservative
    return static_cast<int>(r) + 3;
}

/**
 * Quadratic-form value at which alpha crosses @p alpha_cutoff, plus a
 * margin: alpha = omega * exp(-q/2) < cutoff whenever
 * q > 2 ln(omega / cutoff).  The 0.2 margin (alpha a further ~10%
 * below the cutoff) dwarfs the error of alphaFromQ's exponential
 * (simdExpScalar, relative error < 3e-7) and the rounding of the
 * float quadratic form, so skipping alpha for q above the threshold
 * can never flip a pass/fail decision the reference path makes
 * (tests/test_properties.cc checks this over random splats).
 */
float
qSkipThreshold(float opacity, float alpha_cutoff)
{
    if (!(alpha_cutoff > 0.0f))
        return std::numeric_limits<float>::infinity();
    double headroom = std::log(static_cast<double>(opacity)) -
                      std::log(static_cast<double>(alpha_cutoff));
    if (!(headroom > 0.0))
        return 0.2f;  // opacity at/below cutoff: alpha<cutoff for q>~0
    return static_cast<float>(2.0 * headroom + 0.2);
}

} // namespace

SplatSoA
SplatSoA::build(const std::vector<Splat> &splats, BoundingMode mode,
                int tile_size, float alpha_cutoff, int width, int height)
{
    SplatSoA soa;
    const std::size_t n = splats.size();
    soa.blend.reserve(n);
    soa.range.reserve(n);
    soa.obb_refine = mode == BoundingMode::Obb3Sigma;
    if (soa.obb_refine)
        soa.obb.reserve(n);
    const int max_dim = width + height;
    std::vector<float> depths;
    depths.reserve(n);

    for (const Splat &s : splats) {
        Blend b;
        b.cx = s.ellipse.center.x;
        b.cy = s.ellipse.center.y;
        b.c00 = s.ellipse.conic(0, 0);
        b.c01 = s.ellipse.conic(0, 1);
        b.c10 = s.ellipse.conic(1, 0);
        b.c11 = s.ellipse.conic(1, 1);
        b.opacity = s.opacity;
        b.r = s.color.x;
        b.g = s.color.y;
        b.b = s.color.z;
        b.q_skip = qSkipThreshold(s.opacity, alpha_cutoff);

        const int cutoff_r = cutoffRadius(s, alpha_cutoff, max_dim);
        PixelRect it;
        if (cutoff_r < 0) {
            // No provable bound: iterate everything on screen.
            it.x0 = 0;
            it.y0 = 0;
            it.x1 = width - 1;
            it.y1 = height - 1;
        } else {
            it = aabbFromRadius(s.ellipse.center, cutoff_r)
                     .clipped(width, height);
        }
        b.it_x0 = it.x0;
        b.it_y0 = it.y0;
        b.it_x1 = it.x1;
        b.it_y1 = it.y1;

        PixelRect sb =
            aabbFromRadius(s.ellipse.center,
                           std::max(s.radius_3sigma, s.radius_omega))
                .clipped(width, height);
        b.sb_x0 = sb.x0;
        b.sb_y0 = sb.y0;
        b.sb_x1 = sb.x1;
        b.sb_y1 = sb.y1;

        soa.blend.push_back(b);
        depths.push_back(s.depth);
        soa.range.push_back(
            tileRangeFor(s, mode, tile_size, width, height));
        if (soa.obb_refine)
            soa.obb.push_back(obbParamsFor(s));
    }
    // Depth keys in one vectorized pass over the gathered depths
    // (integer bit manipulation; bit-identical to the scalar
    // orderedKeyFromFloat per element).
    soa.depth_key.resize(n);
    orderedKeysFromFloats(depths.data(), soa.depth_key.data(), n);
    return soa;
}

} // namespace gcc3d
