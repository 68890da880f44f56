/**
 * @file
 * Tile- and view-local SoA accumulation planes shared by the vector
 * blend kernels of both renderers.
 *
 * A kernel blends kWidth pixels of one row per step into
 * transmittance and colour planes (row-major with a caller-chosen
 * stride), then adds the colour planes into its zero image region
 * once.  Each plane is padded by kWidth floats, so a lane group that
 * starts at the last pixel of the last row still loads and stores in
 * bounds; lanes outside the blend mask store back what they loaded.
 */

#ifndef GCC3D_RENDER_BLEND_PLANES_H
#define GCC3D_RENDER_BLEND_PLANES_H

#include <cstddef>
#include <vector>

#include "gsmath/simd.h"
#include "render/image.h"

namespace gcc3d {

struct BlendPlanes
{
    std::vector<float> t;        ///< transmittance
    std::vector<float> r, g, b;  ///< accumulated colour

    /** T = 1 and colour = 0 over @p pixels (plus the lane padding). */
    void
    reset(std::size_t pixels)
    {
        const std::size_t n = pixels + simd::kWidth;
        t.assign(n, 1.0f);
        r.assign(n, 0.0f);
        g.assign(n, 0.0f);
        b.assign(n, 0.0f);
    }

    /**
     * One front-to-back blend step on the lanes of @p m at plane
     * offset @p p: colour += c * (a * T), T *= 1 - a — the scalar
     * reference's op order, so every blended lane is bit-identical
     * to it.  @p tv is T at @p p as loaded by the caller.  Returns
     * the updated T of every lane (meaningful on the lanes of @p m).
     */
    simd::FloatV
    blend(std::size_t p, const simd::MaskV &m, const simd::FloatV &a,
          const simd::FloatV &tv, const simd::FloatV &cr,
          const simd::FloatV &cg, const simd::FloatV &cb)
    {
        const simd::FloatV at = a * tv;
        const simd::FloatV r0 = simd::FloatV::load(r.data() + p);
        const simd::FloatV g0 = simd::FloatV::load(g.data() + p);
        const simd::FloatV b0 = simd::FloatV::load(b.data() + p);
        simd::select(m, r0 + cr * at, r0).store(r.data() + p);
        simd::select(m, g0 + cg * at, g0).store(g.data() + p);
        simd::select(m, b0 + cb * at, b0).store(b.data() + p);
        const simd::FloatV t_new = tv * (simd::FloatV(1.0f) - a);
        simd::select(m, t_new, tv).store(t.data() + p);
        return t_new;
    }

    /**
     * Add the @p w x @p h colour region (row stride @p stride) into
     * @p image at (@p x0, @p y0).  The image region is zero, so the
     * image receives exactly the accumulated values.
     */
    void
    addInto(Image &image, int x0, int y0, int w, int h,
            std::size_t stride) const
    {
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                const std::size_t p = static_cast<std::size_t>(y) * stride +
                                      static_cast<std::size_t>(x);
                image.at(x0 + x, y0 + y) += Vec3(r[p], g[p], b[p]);
            }
        }
    }
};

} // namespace gcc3d

#endif // GCC3D_RENDER_BLEND_PLANES_H
