/**
 * @file
 * Image-warping ablation (the MetaVRain [13] technique, Table III
 * footnote 1): quantify when previous-frame reuse sustains real-time
 * rates and when it does not. Renders a frame with the NeRF pipeline,
 * extracts the composited depth map, warps it across increasing camera
 * motion, and reports coverage, warp quality, and the effective FPS of
 * warp-assisted rendering against the Fusion-3D full re-render.
 */

#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "chip/chip.h"
#include "nerf/image_warp.h"
#include "nerf/renderer.h"

using namespace fusion3d;

namespace
{

/** Render a frame and its depth map with the functional pipeline. */
nerf::DepthFrame
renderDepthFrame(nerf::NerfPipeline &pipe, const nerf::Camera &cam, Pcg32 &rng)
{
    nerf::DepthFrame frame;
    frame.camera = cam;
    frame.color = Image(cam.width(), cam.height());
    frame.depth.assign(static_cast<std::size_t>(cam.width()) * cam.height(), 0.0f);

    std::vector<Ray> rays;
    std::vector<nerf::RayEval> evals(static_cast<std::size_t>(cam.width()));
    for (int y = 0; y < cam.height(); ++y) {
        // One ray batch per row through the batched core.
        rays.clear();
        for (int x = 0; x < cam.width(); ++x)
            rays.push_back(cam.rayForPixel(x, y));
        pipe.traceRays(rays, rng, /*record=*/false, evals);
        for (int x = 0; x < cam.width(); ++x) {
            const nerf::RayEval &ev = evals[static_cast<std::size_t>(x)];
            frame.color.at(x, y) = clamp(ev.color, 0.0f, 1.0f);
            // Depth proxy: firstHitT blended with the far bound by the
            // remaining transmittance.
            const float t_hit = std::isfinite(ev.firstHitT) ? ev.firstHitT : 2.5f;
            frame.depth[static_cast<std::size_t>(y) * cam.width() + x] =
                t_hit * (1.0f - ev.transmittance) + 2.5f * ev.transmittance;
        }
    }
    return frame;
}

} // namespace

int
main(int argc, char **argv)
{
    const int size = argc > 1 ? std::atoi(argv[1]) : 96;
    bench::banner("Image-warping ablation (MetaVRain-style frame reuse)");

    const auto scene = scenes::makeSyntheticScene("chair");
    auto pipe = bench::pipelineForScene(*scene);
    Pcg32 rng(8, 8);

    const Vec3f center{0.5f, 0.45f, 0.5f};
    const nerf::Camera cam0 =
        nerf::Camera::orbit(center, 1.4f, 30.0f, 22.0f, 45.0f, size, size);
    const auto t_render = std::chrono::steady_clock::now();
    const nerf::DepthFrame frame = renderDepthFrame(*pipe, cam0, rng);
    const double render_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_render)
            .count();

    // The full-render reference FPS of the chip (motion-independent).
    const chip::Chip chip_model(chip::ChipConfig::scaledUp());
    const nerf::Camera big =
        nerf::Camera::orbit(center, 1.4f, 30.0f, 22.0f, 45.0f, 800, 800);
    const double full_fps = chip_model.evaluateInference(*pipe, big, 1024).fps;

    std::printf("%-18s %10s %12s %14s %16s\n", "camera motion", "overlap %",
                "warp PSNR", "assist FPS", "full render FPS");
    bench::rule(76);
    double warp_overhead_sum = 0.0;
    int warp_overhead_n = 0;
    for (const float delta_deg : {0.5f, 1.0f, 2.0f, 5.0f, 10.0f, 20.0f, 45.0f}) {
        const nerf::Camera cam1 = nerf::Camera::orbit(center, 1.4f, 30.0f + delta_deg,
                                                      22.0f, 45.0f, size, size);
        // Time the warp pass itself: its cost as a fraction of the full
        // render is the overhead term of warpAssistSpeedup(), measured
        // here instead of the 5 % modeling default.
        const auto t_warp = std::chrono::steady_clock::now();
        const nerf::WarpResult warped = nerf::forwardWarp(frame, cam1);
        const double warp_overhead =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t_warp)
                .count() /
            render_s;
        warp_overhead_sum += warp_overhead;
        ++warp_overhead_n;

        // Quality of the warped pixels against a true render.
        const nerf::DepthFrame truth = renderDepthFrame(*pipe, cam1, rng);
        double err = 0.0;
        std::size_t n = 0;
        for (int y = 0; y < size; ++y) {
            for (int x = 0; x < size; ++x) {
                if (!warped.covered[static_cast<std::size_t>(y) * size + x])
                    continue;
                const Vec3f d = warped.image.at(x, y) - truth.color.at(x, y);
                err += dot(d, d);
                n += 3;
            }
        }
        const double warp_psnr = n ? psnrFromMse(err / static_cast<double>(n)) : 0.0;
        const double assist_fps =
            full_fps * nerf::warpAssistSpeedup(warped.coverage, warp_overhead);

        std::printf("%14.1f deg %9.1f%% %9.1f dB %11.0f FPS %13.0f FPS\n",
                    delta_deg, warped.coverage * 100.0, warp_psnr, assist_fps,
                    full_fps);
        std::fflush(stdout);
    }
    bench::rule(76);
    std::printf("measured warp overhead: %.1f%% of a full render (mean over %d "
                "warps)\n",
                100.0 * warp_overhead_sum / warp_overhead_n, warp_overhead_n);
    std::printf("MetaVRain needs >97%% overlap for real-time operation; warping "
                "degrades with motion while the end-to-end accelerator's full "
                "re-render rate (%.0f FPS) is motion-independent.\n", full_fps);
    return 0;
}
