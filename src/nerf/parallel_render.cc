#include "nerf/parallel_render.h"

#include <optional>
#include <vector>

#include "common/logging.h"
#include "nerf/batch_evaluator.h"
#include "obs/trace.h"

namespace fusion3d::nerf
{

namespace
{

/**
 * Render the pixel rectangle [x0, x1) x [y0, y1) into @p color (and
 * @p depth when non-null) as one ray batch through RayBatchEvaluator,
 * with one ServeableField::evalBatch as its forward and no pool (the
 * rect already runs inside the tile parallelFor). Jitter stays per-row,
 * so tiling cannot change the streams; but a rect with x0 > 0 starts
 * its rows' streams at a different offset than a full-width render, so
 * only jitterless renders (the inference default) are
 * sub-rect-invariant.
 */
void
renderRect(const ServeableField &field, const OccupancyGrid *grid,
           const Camera &camera, const TiledRenderConfig &cfg, int x0, int x1,
           int y0, int y1, Image &color, float *depth)
{
    F3D_TRACE_SPAN_ARG("parallel_render", "row_tile", y0);
    const std::size_t width = static_cast<std::size_t>(x1 - x0);
    std::vector<Ray> rays;
    rays.reserve(width * static_cast<std::size_t>(y1 - y0));
    std::vector<Pcg32> row_rngs;
    for (int y = y0; y < y1; ++y) {
        row_rngs.emplace_back(cfg.seed + static_cast<std::uint64_t>(y),
                              kRowJitterStream);
        for (int x = x0; x < x1; ++x)
            rays.push_back(camera.rayForPixel(x, y));
    }

    std::vector<RayEval> evals(rays.size());
    RayBatchEvaluator eval("renderRect");
    eval.traceRays(
        RaySampler(cfg.sampler), grid, cfg.render, rays,
        [&](std::size_t r) -> Pcg32 & { return row_rngs[r / width]; },
        /*record=*/false, evals, /*workload=*/nullptr, /*pool=*/nullptr,
        depth ? std::optional(cfg.farDepth) : std::nullopt,
        [&](SampleBatch &batch) {
            field.evalBatch(batch.positions, batch.dirs, batch.sigmas, batch.rgbs);
        });

    std::size_t r = 0;
    for (int y = y0; y < y1; ++y) {
        for (int x = x0; x < x1; ++x, ++r) {
            color.at(x, y) = clamp(evals[r].color, 0.0f, 1.0f);
            if (depth)
                depth[static_cast<std::size_t>(y) * camera.width() + x] =
                    evals[r].depth;
        }
    }
}

void
renderTiled(const ServeableField &field, const OccupancyGrid *grid,
            const Camera &camera, const TiledRenderConfig &cfg, ThreadPool *pool,
            Image &color, float *depth)
{
    const auto body = [&](int y0, int y1) {
        renderRect(field, grid, camera, cfg, 0, camera.width(), y0, y1, color,
                   depth);
    };
    if (pool) {
        pool->parallelFor(0, camera.height(), body, cfg.rowsPerTile);
    } else {
        body(0, camera.height());
    }
}

} // namespace

Image
renderImageTiled(const ServeableField &field, const OccupancyGrid *grid,
                 const Camera &camera, const TiledRenderConfig &cfg,
                 ThreadPool *pool)
{
    Image out(camera.width(), camera.height());
    renderTiled(field, grid, camera, cfg, pool, out, nullptr);
    return out;
}

DepthFrame
renderDepthFrameTiled(const ServeableField &field, const OccupancyGrid *grid,
                      const Camera &camera, const TiledRenderConfig &cfg,
                      ThreadPool *pool)
{
    DepthFrame frame;
    frame.camera = camera;
    frame.color = Image(camera.width(), camera.height());
    frame.depth.assign(
        static_cast<std::size_t>(camera.width()) * camera.height(), 0.0f);
    renderTiled(field, grid, camera, cfg, pool, frame.color, frame.depth.data());
    return frame;
}

std::uint64_t
renderTilesInto(const ServeableField &field, const OccupancyGrid *grid,
                const Camera &camera, const TiledRenderConfig &cfg,
                std::span<const TileRect> tiles, ThreadPool *pool, Image &color,
                float *depth)
{
    std::uint64_t pixels = 0;
    for (const TileRect &t : tiles) {
        if (t.x0 < 0 || t.y0 < 0 || t.x1 > camera.width() ||
            t.y1 > camera.height() || t.x0 >= t.x1 || t.y0 >= t.y1)
            fatal("renderTilesInto: tile [%d,%d)x[%d,%d) outside %dx%d image",
                  t.x0, t.x1, t.y0, t.y1, camera.width(), camera.height());
        pixels += t.pixels();
    }

    const auto body = [&](int i0, int i1) {
        for (int i = i0; i < i1; ++i) {
            const TileRect &t = tiles[static_cast<std::size_t>(i)];
            renderRect(field, grid, camera, cfg, t.x0, t.x1, t.y0, t.y1, color,
                       depth);
        }
    };
    if (pool) {
        pool->parallelFor(0, static_cast<int>(tiles.size()), body, /*grain=*/1);
    } else {
        body(0, static_cast<int>(tiles.size()));
    }
    return pixels;
}

} // namespace fusion3d::nerf
