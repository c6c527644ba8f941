/**
 * @file
 * Temporal reprojection rendering: serve a camera-stream frame by
 * forward-warping the session's previous frame into the requested view
 * and ray-marching only the tiles the warp could not reconstruct.
 *
 * This flips the serving layer's degrade ladder into an *accelerate*
 * ladder (ROADMAP item 1, the MetaVRain > 97 %-overlap observation):
 * for consecutive stream requests the full render becomes the
 * fallback, not the default. The target image is classified into fixed
 * square tiles; a tile is re-rendered when
 *
 *   - warp coverage dropped below tileCoverageMin (disocclusions,
 *     content entering at the image border, large motion),
 *   - its depth-conflict fraction exceeded tileConflictMax (occlusion
 *     boundaries where nearest-surface splatting papered over a
 *     disocclusion), or
 *   - it aged past maxTileAge frames since it was last truly rendered
 *     (staggered refresh, so nearest-neighbour resampling error cannot
 *     accumulate across a long warp chain).
 *
 * Valid tiles keep their warped pixels; invalid tiles are ray-marched
 * through the batched tile renderer and composited back. When too few
 * tiles survive (or a fault is injected into the tile pass — chaos
 * coverage), the frame degrades to a full render. When a caller's ray
 * budget cannot afford the re-render, the warp is served alone: the
 * serving layer's warp-degrade rung.
 */

#ifndef FUSION3D_SERVE_REPROJECT_H_
#define FUSION3D_SERVE_REPROJECT_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/thread_pool.h"
#include "nerf/image_warp.h"
#include "nerf/nerf_model.h"
#include "nerf/occupancy_grid.h"
#include "nerf/parallel_render.h"
#include "serve/session.h"

namespace fusion3d::serve
{

/** Tunables of the reprojection renderer. */
struct ReprojectConfig
{
    /** Square invalidation-tile edge in pixels. */
    int tileSize = 16;
    /** A tile is valid only when its warp coverage is >= this; the
     *  default 1.0 re-renders any tile with even one uncovered pixel,
     *  so a served frame can never contain a hole. */
    double tileCoverageMin = 1.0;
    /** ... and its depth-conflict fraction is <= this. */
    double tileConflictMax = 0.02;
    /** ... and it is younger than this many frames since its last true
     *  render. Old tiles re-render round-robin, bounding the warp-chain
     *  length any pixel can accumulate error over. */
    int maxTileAge = 8;
    /** Below this valid-tile fraction reprojection is not worth the
     *  warp: fall back to a full render. */
    double minValidFraction = 0.3;
    /** Depth tolerance of the warp's occlusion-boundary test
     *  (WarpOptions::depthTolerance). */
    float depthTolerance = 0.1f;
};

/** What one reprojection attempt did, for stats and benches. */
struct ReprojectStats
{
    /** True when the frame was served by warp + partial re-render;
     *  false when it fell back to a full render. */
    bool reprojected = false;
    /** True when the ray budget could not afford the re-render: the
     *  frame is the warp alone, holes painted background. */
    bool warpOnly = false;
    /** Why the fallback happened ("" when reprojected). */
    const char *fallback = "";
    int tilesTotal = 0;
    int tilesRerendered = 0;
    /** Pixels actually ray-marched (all of them on fallback). */
    std::uint64_t raysRendered = 0;
    /** Pixels served from the warp instead of the ray-marcher. */
    std::uint64_t raysSaved = 0;
    /** Global warp coverage (0 on fallback before the warp ran). */
    double warpCoverage = 0.0;
    /** Measured cost of the warp pass / the tile render pass. */
    double warpSeconds = 0.0;
    double renderSeconds = 0.0;
};

/** A reprojection result: the frame plus the session's next tile ages. */
struct ReprojectOutput
{
    nerf::DepthFrame frame;
    /** Tile age grid to carry into the session store (0 where
     *  re-rendered, previous age + 1 where warped); empty for a
     *  warp-only frame, which is never a session's keyframe. */
    std::vector<std::uint16_t> tileAge;
    ReprojectStats stats;
};

/**
 * Age grid of a freshly full-rendered frame for @p camera, shaped for
 * @p tile_size tiles. Birth ages are staggered over
 * [0, @p max_tile_age) in a fixed spatial pattern so the staggered
 * refresh re-renders ~1/maxTileAge of the tiles per frame instead of
 * the whole grid expiring at once (which would degrade every
 * maxTileAge-th frame of a stream to a full render).
 */
std::vector<std::uint16_t> freshTileAges(const nerf::Camera &camera,
                                         int tile_size, int max_tile_age);

/**
 * Render @p camera's view of @p model, reusing @p prev (the session's
 * last frame) wherever the warp holds up; fall back to a full render
 * otherwise. Pixel-exact contract: with jitter disabled, every
 * ray-marched pixel (and the whole frame on fallback) is bit-identical
 * to a full renderDepthFrameTiled() of the same configuration.
 *
 * When more than @p ray_budget pixels would be ray-marched, the frame
 * is the warp alone (ReprojectStats::warpOnly); without a budget the
 * renderer never degrades below full fidelity.
 *
 * The "serve.reproject.tiles" fault point (chaos testing) fails the
 * tile pass and exercises the full-render fallback.
 */
ReprojectOutput reprojectRender(
    const nerf::ServeableField &model, const nerf::OccupancyGrid *grid,
    const nerf::Camera &camera, const SessionFrame &prev,
    const nerf::TiledRenderConfig &render_cfg, const ReprojectConfig &cfg,
    ThreadPool *pool,
    std::uint64_t ray_budget = std::numeric_limits<std::uint64_t>::max());

} // namespace fusion3d::serve

#endif // FUSION3D_SERVE_REPROJECT_H_
