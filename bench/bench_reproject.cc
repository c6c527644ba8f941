/**
 * @file
 * Temporal-reprojection serving bench: renders an orbiting-camera
 * session trace twice — once frame-by-frame through the full tiled
 * renderer, once through serve::reprojectRender chained on its own
 * output, exactly as the session store feeds it — and compares rays
 * marched, frame rate, and PSNR against the full-render truth.
 *
 * Prints the usual table plus one machine-readable JSON summary line
 * (prefixed "JSON:") and exits non-zero when the acceptance gates of
 * the reprojection mode fail: the reprojected chain must ray-march
 * <= 30 % of the full-render rays at a minimum PSNR >= 30 dB. The warp
 * overhead is *measured* (warp seconds vs full-render seconds), not
 * modeled; both the measured ratio and the resulting speedup are
 * reported.
 *
 * Usage: bench_reproject [--quick] [size]
 *
 *  --quick  smaller frames and a shorter trace for CI smoke runs (the
 *           gates, not the absolute rates, are what CI enforces).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/simd.h"
#include "nerf/parallel_render.h"
#include "serve/model_registry.h"
#include "serve/reproject.h"

using namespace fusion3d;

namespace
{

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

nerf::Camera
orbitFrame(int i, float delta_deg, int size)
{
    return nerf::Camera::orbit({0.5f, 0.5f, 0.5f}, 1.4f, 35.0f + delta_deg * i,
                               20.0f, 45.0f, size, size);
}

} // namespace

int
main(int argc, char **argv)
{
    int size = 128;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::atoi(argv[i]) > 0)
            size = std::atoi(argv[i]);
        else
            fatal("usage: %s [--quick] [size]", argv[0]);
    }
    if (quick)
        size = std::min(size, 96);
    const int frames = quick ? 8 : 16;
    const float delta_deg = 0.5f;

    bench::banner("Temporal reprojection serving (orbit session trace)");
    std::printf("frame size %dx%d, %d frames, %.1f deg/frame orbit\n\n", size,
                size, frames, static_cast<double>(delta_deg));

    serve::ModelRegistry registry;
    registry.add("bench", std::make_unique<nerf::NerfModel>(
                              bench::defaultPipeline().model, 2024));
    const serve::ModelEntry *entry = registry.find("bench");

    nerf::TiledRenderConfig rc;
    rc.sampler.maxSamplesPerRay = 32;
    const serve::ReprojectConfig cfg;
    const std::uint64_t pixels = static_cast<std::uint64_t>(size) * size;

    // Full-render truth chain (also the PSNR reference).
    std::vector<nerf::DepthFrame> truth;
    truth.reserve(static_cast<std::size_t>(frames) + 1);
    const auto t_full = std::chrono::steady_clock::now();
    for (int i = 0; i <= frames; ++i)
        truth.push_back(nerf::renderDepthFrameTiled(
            *entry->model, &entry->grid, orbitFrame(i, delta_deg, size), rc));
    const double full_s = secondsSince(t_full);
    const double full_frame_s = full_s / (frames + 1);

    // Reprojection chain: frame 0 is the session seed (a full render,
    // already counted in neither chain's gated totals); each further
    // frame warps the previous *served* frame, as the server does.
    serve::SessionFrame session;
    session.frame = std::make_shared<const nerf::DepthFrame>(truth[0]);
    session.model = "bench";
    session.epoch = entry->epoch;
    session.tileSize = cfg.tileSize;
    session.tileAge =
        serve::freshTileAges(truth[0].camera, cfg.tileSize, cfg.maxTileAge);

    std::printf("%-7s %14s %12s %12s %11s\n", "frame", "rays marched",
                "tiles", "PSNR (dB)", "warp (ms)");
    bench::rule(62);

    std::uint64_t rays_reproject = 0;
    double min_psnr = 1e9, warp_s = 0.0, reproject_s = 0.0;
    int fallbacks = 0;
    for (int i = 1; i <= frames; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        serve::ReprojectOutput out = serve::reprojectRender(
            *entry->model, &entry->grid, orbitFrame(i, delta_deg, size),
            session, rc, cfg, nullptr);
        reproject_s += secondsSince(t0);

        rays_reproject += out.stats.raysRendered;
        warp_s += out.stats.warpSeconds;
        fallbacks += out.stats.reprojected ? 0 : 1;
        const double db =
            psnr(out.frame.color, truth[static_cast<std::size_t>(i)].color);
        min_psnr = std::min(min_psnr, db);
        std::printf("%-7d %14llu %6d/%-5d %12.1f %11.2f\n", i,
                    static_cast<unsigned long long>(out.stats.raysRendered),
                    out.stats.tilesRerendered, out.stats.tilesTotal, db,
                    out.stats.warpSeconds * 1e3);

        session.frame =
            std::make_shared<const nerf::DepthFrame>(std::move(out.frame));
        session.tileAge = std::move(out.tileAge);
    }
    bench::rule(62);

    const std::uint64_t rays_full = pixels * static_cast<std::uint64_t>(frames);
    const double ray_fraction = static_cast<double>(rays_reproject) /
                                static_cast<double>(rays_full);
    const double fps_full = (frames + 1) / full_s;
    const double fps_reproject = frames / reproject_s;
    // Measured warp overhead: the warp pass's cost as a fraction of one
    // full render — the ratio warpAssistSpeedup() models as 5 % by
    // default. Feed the measurement back so the reported speedup is
    // empirical, not assumed.
    const double warp_overhead = (warp_s / frames) / full_frame_s;
    const double speedup_measured =
        nerf::warpAssistSpeedup(1.0 - ray_fraction, warp_overhead);

    std::printf("rays: %llu of %llu (%.1f%%), min PSNR %.1f dB, "
                "%d fallback(s)\n",
                static_cast<unsigned long long>(rays_reproject),
                static_cast<unsigned long long>(rays_full),
                ray_fraction * 100.0, min_psnr, fallbacks);
    std::printf("frames/s: full %.2f, reprojected %.2f  |  measured warp "
                "overhead %.1f%% of a full render -> %.2fx speedup\n",
                fps_full, fps_reproject, warp_overhead * 100.0,
                speedup_measured);

    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"bench\":\"reproject\",\"dispatch\":\"%s\",\"quick\":%s,\"size\":%d,"
        "\"frames\":%d,"
        "\"rays_full\":%llu,\"rays_reproject\":%llu,\"ray_fraction\":%.4f,"
        "\"min_psnr_db\":%.2f,\"fallbacks\":%d,\"fps_full\":%.3f,"
        "\"fps_reproject\":%.3f,\"warp_overhead_measured\":%.4f,"
        "\"speedup_measured\":%.3f}",
        simd::dispatchName(), quick ? "true" : "false", size, frames,
        static_cast<unsigned long long>(rays_full),
        static_cast<unsigned long long>(rays_reproject), ray_fraction, min_psnr,
        fallbacks, fps_full, fps_reproject, warp_overhead, speedup_measured);
    std::printf("JSON: %s\n", buf);

    bool fail = false;
    if (ray_fraction > 0.30) {
        std::fprintf(stderr,
                     "FAIL: reprojection marched %.1f%% of full-render rays "
                     "(gate: <= 30%%)\n",
                     ray_fraction * 100.0);
        fail = true;
    }
    if (min_psnr < 30.0) {
        std::fprintf(stderr,
                     "FAIL: min PSNR %.1f dB vs full render (gate: >= 30 dB)\n",
                     min_psnr);
        fail = true;
    }
    return fail ? 1 : 0;
}
