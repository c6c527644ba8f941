/**
 * @file
 * Example: reconstruct a large (NeRF-360-style) scene with the
 * Mixture-of-Experts model and evaluate it on the four-chip system —
 * the paper's large-scale-scene scenario. Trains the MoE briefly,
 * renders a novel view, writes an expert-specialization map (Fig. 8),
 * and reports per-chip balance and chip-to-chip communication.
 *
 * Usage: multichip_large_scene [scene] [train_iters] [experts]
 */

#include <cstdio>
#include <string>

#include "common/logging.h"
#include "multichip/system.h"
#include "nerf/moe.h"
#include "nerf/trainer.h"
#include "scenes/dataset_gen.h"
#include "scenes/factory.h"

using namespace fusion3d;

int
main(int argc, char **argv)
{
    const std::string scene_name = argc > 1 ? argv[1] : "room";
    const int train_iters = argc > 2 ? std::atoi(argv[2]) : 200;
    const int experts = argc > 3 ? std::atoi(argv[3]) : 4;

    const auto scene = scenes::makeNerf360Scene(scene_name);
    inform("large scene '%s': fill %.1f%%", scene_name.c_str(),
           scene->occupiedFraction() * 100.0);

    scenes::DatasetConfig dc = scenes::nerf360Rig(32);
    dc.reference.steps = 128;
    const nerf::Dataset data = scenes::makeDataset(*scene, dc);

    nerf::MoeConfig mc;
    mc.numExperts = experts;
    mc.expert.model.grid.levels = 8;
    mc.expert.model.grid.log2TableSize = 14; // small experts (Fig. 13a)
    mc.expert.sampler.maxSamplesPerRay = 48;
    nerf::MoeNerf moe(mc);
    inform("MoE: %d experts, %zu parameters total", experts, moe.paramCount());

    nerf::TrainerConfig tc;
    tc.iterations = train_iters;
    tc.raysPerBatch = 128;
    tc.occupancyWarmup = std::max(train_iters / 3, 1);
    tc.occupancyUpdateEvery = 48;
    nerf::Trainer trainer(moe, data, tc);
    inform("training %d iterations ...", train_iters);
    const nerf::TrainResult tr = trainer.run();
    inform("functional PSNR: %.2f dB", tr.finalPsnr);

    // Expert-specialization map (Fig. 8): color each pixel by the
    // expert contributing the most light.
    const nerf::Camera cam = data.test.empty() ? data.train[0].camera
                                               : data.test[0].camera;
    Image expert_map(cam.width(), cam.height());
    const Vec3f palette[8] = {{1, 0.2f, 0.2f}, {0.2f, 1, 0.2f}, {0.2f, 0.4f, 1},
                              {1, 1, 0.2f},    {1, 0.2f, 1},    {0.2f, 1, 1},
                              {1, 0.6f, 0.2f}, {0.7f, 0.7f, 0.7f}};
    Pcg32 rng(5, 9);
    for (int y = 0; y < cam.height(); ++y) {
        for (int x = 0; x < cam.width(); ++x) {
            const Ray ray = cam.rayForPixel(x, y);
            nerf::RayEval fused;
            moe.traceRays({&ray, 1}, rng, false, {&fused, 1});
            int best = -1;
            float best_lum = 1e-4f;
            for (int k = 0; k < moe.numExperts(); ++k) {
                const Vec3f c = moe.partial(0, k).color;
                const float lum = c.x + c.y + c.z;
                if (lum > best_lum) {
                    best_lum = lum;
                    best = k;
                }
            }
            expert_map.at(x, y) = best >= 0 ? palette[best % 8] : Vec3f(0.0f);
        }
    }
    expert_map.writePpm("expert_map.ppm");
    inform("wrote expert_map.ppm (Fig. 8-style specialization map)");

    // Multi-chip evaluation.
    multichip::SystemConfig sc;
    sc.numChips = experts;
    const multichip::MultiChipSystem sys(sc);
    const nerf::Camera big = nerf::Camera::orbit({0.5f, 0.4f, 0.5f}, 0.38f, 45.0f,
                                                 12.0f, 70.0f, 800, 800);
    const auto result = sys.evaluateInference(moe, big, 1024);
    inform("--- %d-chip system on an 800x800 frame ---", experts);
    inform("frame time %.2f ms (%.1f FPS), %.1f W, %.1f mm^2",
           result.seconds * 1e3, 1.0 / result.seconds, sys.totalPowerW(),
           sys.totalAreaMm2());
    inform("workload balance (slowest/mean): %.3f", result.imbalance);
    for (int k = 0; k < experts; ++k) {
        inform("  chip %d: %8llu samples, %.2f ms", k,
               static_cast<unsigned long long>(
                   result.chips[static_cast<std::size_t>(k)].workload.validPoints),
               result.chips[static_cast<std::size_t>(k)].perf.seconds * 1e3);
    }
    inform("chip-to-chip traffic: %.2f MB (layer-split would need %.1f MB; saving "
           "%.1f%%)",
           result.moeCommBytes / 1e6, result.layerSplitCommBytes / 1e6,
           result.commSavingFraction() * 100.0);
    return 0;
}
