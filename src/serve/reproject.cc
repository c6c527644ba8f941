#include "serve/reproject.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace fusion3d::serve
{

namespace
{

using SteadyClock = std::chrono::steady_clock;

double
secondsSince(SteadyClock::time_point t0)
{
    return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/** Full-render fallback shared by every bail-out path. */
ReprojectOutput
fullRender(const nerf::ServeableField &model, const nerf::OccupancyGrid *grid,
           const nerf::Camera &camera, const nerf::TiledRenderConfig &render_cfg,
           const ReprojectConfig &cfg, ThreadPool *pool, const char *why,
           ReprojectStats partial)
{
    F3D_TRACE_SPAN("serve", "reproject_fallback");
    const auto t0 = SteadyClock::now();
    ReprojectOutput out;
    out.frame = nerf::renderDepthFrameTiled(model, grid, camera, render_cfg, pool);
    out.tileAge = freshTileAges(camera, cfg.tileSize, cfg.maxTileAge);
    out.stats = partial;
    out.stats.reprojected = false;
    out.stats.fallback = why;
    out.stats.raysRendered =
        static_cast<std::uint64_t>(camera.width()) * camera.height();
    out.stats.raysSaved = 0;
    out.stats.renderSeconds += secondsSince(t0);
    return out;
}

} // namespace

std::vector<std::uint16_t>
freshTileAges(const nerf::Camera &camera, int tile_size, int max_tile_age)
{
    const int tiles_x = (camera.width() + tile_size - 1) / tile_size;
    const int tiles_y = (camera.height() + tile_size - 1) / tile_size;
    std::vector<std::uint16_t> ages(static_cast<std::size_t>(tiles_x) * tiles_y,
                                    0);
    // Stagger the birth ages so tiles do not all reach maxTileAge on
    // the same frame: with all-equal ages the whole grid would expire
    // at once and every maxTileAge-th frame would degrade to a full
    // render instead of refreshing ~1/maxTileAge of the tiles per
    // frame, round-robin.
    if (max_tile_age > 1) {
        for (int ty = 0; ty < tiles_y; ++ty)
            for (int tx = 0; tx < tiles_x; ++tx)
                ages[static_cast<std::size_t>(ty) * tiles_x + tx] =
                    static_cast<std::uint16_t>((tx * 7 + ty * 13) %
                                               max_tile_age);
    }
    return ages;
}

ReprojectOutput
reprojectRender(const nerf::ServeableField &model, const nerf::OccupancyGrid *grid,
                const nerf::Camera &camera, const SessionFrame &prev,
                const nerf::TiledRenderConfig &render_cfg,
                const ReprojectConfig &cfg, ThreadPool *pool,
                std::uint64_t ray_budget)
{
    F3D_TRACE_SPAN("serve", "reproject");
    ReprojectStats stats;
    const std::uint64_t total_pixels =
        static_cast<std::uint64_t>(camera.width()) * camera.height();

    if (cfg.tileSize < 1)
        fatal("reprojectRender: tile size must be positive, got %d",
              cfg.tileSize);
    if (!prev.frame || prev.frame->color.empty())
        return fullRender(model, grid, camera, render_cfg, cfg, pool,
                          "no_frame", stats);
    // The cached age grid must describe this request's tiling; a
    // resolution or tile-size change re-seeds the session instead of
    // guessing how old the reused pixels are.
    const int tiles_x = (camera.width() + cfg.tileSize - 1) / cfg.tileSize;
    const int tiles_y = (camera.height() + cfg.tileSize - 1) / cfg.tileSize;
    const bool same_tiling =
        prev.tileSize == cfg.tileSize &&
        prev.tileAge.size() == static_cast<std::size_t>(tiles_x) * tiles_y;
    if (!same_tiling && total_pixels <= ray_budget)
        return fullRender(model, grid, camera, render_cfg, cfg, pool, "shape",
                          stats);

    // Warp the session's previous frame into the requested view.
    const auto t_warp = SteadyClock::now();
    nerf::WarpOptions wopt;
    wopt.depthTolerance = cfg.depthTolerance;
    nerf::WarpResult warped;
    {
        F3D_TRACE_SPAN("serve", "reproject_warp");
        warped = nerf::forwardWarp(*prev.frame, camera, wopt);
    }
    const nerf::WarpTileStats tiles = nerf::warpTileStats(warped, cfg.tileSize);
    stats.warpSeconds = secondsSince(t_warp);
    stats.warpCoverage = warped.coverage;
    stats.tilesTotal = tiles.tiles();

    // Classify: which tiles survive as warped pixels? Under another
    // tiling's age grid every tile counts as expired.
    std::vector<nerf::TileRect> invalid;
    std::vector<std::uint16_t> age(prev.tileAge.size(), 0);
    std::uint64_t invalid_pixels = 0;
    for (int ty = 0; ty < tiles.tilesY; ++ty) {
        for (int tx = 0; tx < tiles.tilesX; ++tx) {
            const std::size_t t =
                static_cast<std::size_t>(ty) * tiles.tilesX + tx;
            const int next_age = same_tiling
                                     ? static_cast<int>(prev.tileAge[t]) + 1
                                     : cfg.maxTileAge;
            const bool valid = tiles.coverage[t] >= cfg.tileCoverageMin &&
                               tiles.conflict[t] <= cfg.tileConflictMax &&
                               next_age < cfg.maxTileAge;
            if (valid) {
                age[t] = static_cast<std::uint16_t>(next_age);
                continue;
            }
            nerf::TileRect rect;
            rect.x0 = tx * cfg.tileSize;
            rect.y0 = ty * cfg.tileSize;
            rect.x1 = std::min(rect.x0 + cfg.tileSize, camera.width());
            rect.y1 = std::min(rect.y0 + cfg.tileSize, camera.height());
            invalid.push_back(rect);
            invalid_pixels += rect.pixels();
        }
    }
    stats.tilesRerendered = static_cast<int>(invalid.size());

    const double valid_fraction =
        stats.tilesTotal
            ? 1.0 - static_cast<double>(invalid.size()) / stats.tilesTotal
            : 0.0;
    const char *fallback = !same_tiling ? "shape"
                           : valid_fraction < cfg.minValidFraction ? "coverage"
                                                                   : nullptr;
    // A fallback would ray-march the whole frame. When the budget cannot
    // afford what this frame would ray-march, the warp is served alone.
    const bool warp_only =
        (fallback ? total_pixels : invalid_pixels) > ray_budget;
    if (fallback && !warp_only)
        return fullRender(model, grid, camera, render_cfg, cfg, pool, fallback,
                          stats);

    ReprojectOutput out;
    out.frame.camera = camera;
    out.frame.color = std::move(warped.image);
    out.frame.depth = std::move(warped.depth);

    // Holes survive where the warp is served alone, or where
    // tileCoverageMin < 1 let a partly covered tile through; paint them
    // background so the served frame is still complete. The tile pass
    // below repaints every pixel of a re-rendered tile.
    if (warp_only || cfg.tileCoverageMin < 1.0) {
        std::size_t idx = 0;
        for (int y = 0; y < camera.height(); ++y) {
            for (int x = 0; x < camera.width(); ++x, ++idx) {
                if (!warped.covered[idx]) {
                    out.frame.color.at(x, y) = render_cfg.render.background;
                    out.frame.depth[idx] = render_cfg.farDepth;
                }
            }
        }
    }
    stats.reprojected = true;
    if (warp_only) {
        stats.warpOnly = true;
        stats.tilesRerendered = 0;
        stats.raysSaved = total_pixels;
        out.stats = stats;
        return out;
    }

    // Patch the invalid tiles through the batched tile renderer. Any
    // failure here (including the injected chaos fault) degrades to a
    // full render: a served frame never contains a hole.
    const auto t_render = SteadyClock::now();
    try {
        if (F3D_FAULT_POINT("serve.reproject.tiles"))
            throw std::runtime_error(
                "injected tile-render fault (serve.reproject.tiles)");
        F3D_TRACE_SPAN_ARG("serve", "reproject_tiles", invalid.size());
        stats.raysRendered =
            nerf::renderTilesInto(model, grid, camera, render_cfg, invalid,
                                  pool, out.frame.color, out.frame.depth.data());
    } catch (const std::exception &e) {
        warn("reprojectRender: tile pass failed (%s); degrading to full render",
             e.what());
        stats.renderSeconds = secondsSince(t_render);
        return fullRender(model, grid, camera, render_cfg, cfg, pool,
                          "tile_fault", stats);
    }
    stats.renderSeconds = secondsSince(t_render);
    stats.raysSaved = total_pixels - stats.raysRendered;
    out.tileAge = std::move(age);
    out.stats = stats;
    return out;
}

} // namespace fusion3d::serve
