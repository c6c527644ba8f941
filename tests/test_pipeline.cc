/** @file Integration tests: the full pipeline trains on a toy scene,
 *  MoE partitions space, and the trainer's quantization hook bites. */

#include <gtest/gtest.h>

#include "nerf/freq_nerf.h"
#include "nerf/moe.h"
#include "nerf/pipeline.h"
#include "nerf/trainer.h"
#include "scenes/dataset_gen.h"
#include "scenes/factory.h"

namespace fusion3d::nerf
{
namespace
{

PipelineConfig
tinyPipeline()
{
    PipelineConfig pc;
    pc.model.grid.levels = 6;
    pc.model.grid.log2TableSize = 12;
    pc.model.grid.baseResolution = 8;
    pc.model.grid.maxResolution = 64;
    pc.model.densityHidden = 24;
    pc.model.colorHidden = 24;
    pc.model.geoFeatures = 7;
    pc.model.shDegree = 2;
    pc.sampler.maxSamplesPerRay = 32;
    pc.occupancyResolution = 24;
    return pc;
}

Dataset
tinyDataset(const std::string &scene_name = "mic", int size = 24)
{
    const auto scene = scenes::makeSyntheticScene(scene_name);
    scenes::DatasetConfig dc = scenes::syntheticRig(size);
    dc.trainViews = 6;
    dc.testViews = 1;
    dc.reference.steps = 96;
    return scenes::makeDataset(*scene, dc);
}

TEST(Pipeline, TraceRayDeterministicWithoutJitter)
{
    PipelineConfig pc = tinyPipeline();
    pc.sampler.jitter = false;
    NerfPipeline pipe(pc);
    Pcg32 rng(1);
    const Ray ray({0.5f, 0.5f, -1.0f}, {0.0f, 0.0f, 1.0f});
    const RayEval a = pipe.traceRay(ray, rng, false);
    const RayEval b = pipe.traceRay(ray, rng, false);
    EXPECT_EQ(a.color, b.color);
    EXPECT_EQ(a.samples, b.samples);
}

TEST(Pipeline, BackwardRequiresRecordedRay)
{
    NerfPipeline pipe(tinyPipeline());
    EXPECT_DEATH(pipe.backwardLastRay({1.0f, 0.0f, 0.0f}), "without a recorded");
}

/**
 * The batched entry point is bit-exact with the scalar forwardPoint
 * oracle behind traceRay: sampling draws jitter in the same ray order,
 * and the SoA forward evaluates every sample with scalar-identical
 * arithmetic. A recorded batch must also accept its gradient batch.
 */
template <class PipelineT>
void
expectTraceRaysMatchesPerRayLoop(const typename PipelineT::Config &cfg)
{
    PipelineT batched(cfg);
    PipelineT scalar(cfg); // same seed -> identical weights

    std::vector<Ray> rays;
    for (int i = 0; i < 6; ++i)
        rays.emplace_back(Vec3f{0.2f + 0.12f * static_cast<float>(i), 0.45f, -1.0f},
                          Vec3f{0.0f, 0.05f, 1.0f});

    Pcg32 rng_a(7), rng_b(7);
    std::vector<RayEval> evals(rays.size());
    RayWorkload wl_a;
    batched.traceRays(rays, rng_a, /*record=*/true, evals, &wl_a);

    std::uint64_t candidates_b = 0;
    for (std::size_t r = 0; r < rays.size(); ++r) {
        RayWorkload wl;
        const RayEval ref = scalar.traceRay(rays[r], rng_b, false, &wl);
        candidates_b += static_cast<std::uint64_t>(wl.totalCandidates);
        EXPECT_EQ(evals[r].color, ref.color) << "ray " << r;
        EXPECT_EQ(evals[r].samples, ref.samples);
        EXPECT_EQ(evals[r].composited, ref.composited);
        EXPECT_EQ(evals[r].transmittance, ref.transmittance);
        EXPECT_EQ(evals[r].firstHitT, ref.firstHitT);
    }
    EXPECT_EQ(static_cast<std::uint64_t>(wl_a.totalCandidates), candidates_b);

    const std::vector<Vec3f> dcolors(rays.size(), Vec3f{0.1f, 0.1f, 0.1f});
    batched.backwardRays(dcolors);
    batched.optimizerStep();
}

TEST(Pipeline, TraceRaysMatchesPerRayLoop)
{
    expectTraceRaysMatchesPerRayLoop<NerfPipeline>(tinyPipeline());

    FreqPipelineConfig fc;
    fc.model.posFrequencies = 4;
    fc.model.hidden = 16;
    fc.model.trunkLayers = 2;
    fc.model.geoFeatures = 7;
    fc.model.colorHidden = 16;
    fc.model.shDegree = 2;
    fc.occupancyResolution = 16;
    expectTraceRaysMatchesPerRayLoop<FreqPipeline>(fc);
}

/**
 * One recorded traceRays + backwardRays accumulates the same model
 * gradients as the scalar backwardPoint oracle behind backwardLastRay,
 * ray by ray (up to reassociation of the cross-ray gradient sums).
 */
TEST(Pipeline, BackwardRaysMatchesPerRayBackward)
{
    const PipelineConfig pc = tinyPipeline();
    NerfPipeline batched(pc);
    NerfPipeline scalar(pc);

    std::vector<Ray> rays;
    for (int i = 0; i < 4; ++i)
        rays.emplace_back(Vec3f{0.3f + 0.1f * static_cast<float>(i), 0.5f, -1.0f},
                          Vec3f{0.0f, 0.0f, 1.0f});
    const std::vector<Vec3f> dcolors{{0.5f, -0.25f, 0.125f},
                                     {-0.3f, 0.6f, 0.1f},
                                     {0.2f, 0.2f, -0.4f},
                                     {-0.1f, 0.05f, 0.3f}};

    Pcg32 rng_a(9);
    std::vector<RayEval> evals(rays.size());
    batched.model().zeroGrads();
    batched.traceRays(rays, rng_a, /*record=*/true, evals);
    batched.backwardRays(dcolors);

    Pcg32 rng_b(9);
    scalar.model().zeroGrads();
    for (std::size_t r = 0; r < rays.size(); ++r) {
        scalar.traceRay(rays[r], rng_b, /*record=*/true);
        scalar.backwardLastRay(dcolors[r]);
    }

    const auto check = [](std::span<float> got, std::span<float> want,
                          const char *what) {
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_NEAR(got[i], want[i], 1e-5f + 1e-4f * std::fabs(want[i]))
                << what << " grad " << i;
    };
    check(batched.model().densityNet().grads(), scalar.model().densityNet().grads(),
          "density");
    check(batched.model().colorNet().grads(), scalar.model().colorNet().grads(),
          "color");
    check(batched.model().encoding().grads(), scalar.model().encoding().grads(),
          "encoding");
}

TEST(Pipeline, TrainingImprovesPsnr)
{
    const Dataset data = tinyDataset();
    NerfPipeline pipe(tinyPipeline());
    TrainerConfig tc;
    tc.iterations = 120;
    tc.raysPerBatch = 128;
    tc.occupancyWarmup = 40;
    tc.occupancyUpdateEvery = 40;
    Trainer trainer(pipe, data, tc);

    const double before = trainer.evalPsnr();
    const TrainResult result = trainer.run();
    EXPECT_GT(result.finalPsnr, before + 5.0);
    EXPECT_GT(result.finalPsnr, 18.0);
    EXPECT_EQ(result.iterationsRun, 120);
    EXPECT_EQ(result.totalRays, 120u * 128u);
    EXPECT_GT(result.totalSamples, 0u);
    EXPECT_GE(result.totalCandidates, result.totalSamples);
}

TEST(Pipeline, OccupancyUpdateShrinksWorkload)
{
    const Dataset data = tinyDataset("mic");
    PipelineConfig pc = tinyPipeline();
    // A higher gate threshold: empty space needs fewer iterations to
    // fall below it (sigma ~= 1 at init under the exp activation).
    pc.occupancyThreshold = 1.0f;
    NerfPipeline pipe(pc);
    TrainerConfig tc;
    tc.iterations = 160;
    tc.raysPerBatch = 96;
    tc.occupancyWarmup = 60;
    tc.occupancyUpdateEvery = 25;
    Trainer trainer(pipe, data, tc);
    trainer.run();
    // After training a sparse scene, the gate must be far below full.
    EXPECT_LT(pipe.grid().occupiedFraction(), 0.6);
    EXPECT_GT(pipe.grid().occupiedFraction(), 0.0);
}

TEST(Pipeline, QuantizedTrainingDegrades)
{
    const Dataset data = tinyDataset("lego");

    TrainerConfig tc;
    tc.iterations = 140;
    tc.raysPerBatch = 96;

    NerfPipeline full(tinyPipeline());
    Trainer full_trainer(full, data, tc);
    const double full_psnr = full_trainer.run().finalPsnr;

    TrainerConfig tq = tc;
    tq.quantizeEvery = 1; // quantize every iteration: must hurt badly
    NerfPipeline quant(tinyPipeline());
    Trainer quant_trainer(quant, data, tq);
    const double quant_psnr = quant_trainer.run().finalPsnr;

    EXPECT_GT(full_psnr, quant_psnr + 2.0);
}

TEST(Moe, RegionsPartitionSpace)
{
    MoeConfig mc;
    mc.numExperts = 4;
    mc.expert = tinyPipeline();
    MoeNerf moe(mc);

    Pcg32 rng(5);
    int counts[4] = {};
    for (int i = 0; i < 4000; ++i) {
        const int r = moe.regionOf(rng.nextVec3());
        ASSERT_GE(r, 0);
        ASSERT_LT(r, 4);
        ++counts[r];
    }
    for (int k = 0; k < 4; ++k)
        EXPECT_GT(counts[k], 400); // roughly balanced wedges
}

TEST(Moe, ExpertGatesAreDisjoint)
{
    MoeConfig mc;
    mc.numExperts = 4;
    mc.expert = tinyPipeline();
    MoeNerf moe(mc);

    Pcg32 rng(6);
    for (int i = 0; i < 500; ++i) {
        const Vec3f p = rng.nextVec3();
        int owners = 0;
        for (int k = 0; k < 4; ++k)
            owners += moe.expert(k).grid().occupiedAt(p) ? 1 : 0;
        EXPECT_LE(owners, 1) << "point owned by multiple experts";
    }
}

TEST(Moe, TraceFusesWeightedExpertPartials)
{
    MoeConfig mc;
    mc.numExperts = 2;
    mc.expert = tinyPipeline();
    mc.expert.sampler.jitter = false;
    MoeNerf moe(mc);
    Pcg32 rng(7);
    const Ray ray({0.5f, 0.5f, -1.0f}, {0.0f, 0.0f, 1.0f});
    const RayEval total = moe.traceRay(ray, rng, false);
    Vec3f fused(0.0f);
    int samples = 0;
    float tprod = 1.0f;
    for (int k = 0; k < moe.numExperts(); ++k) {
        const RayEval &p = moe.lastPartials()[static_cast<std::size_t>(k)];
        fused += p.color * moe.lastFusionWeights()[static_cast<std::size_t>(k)];
        samples += p.samples;
        tprod *= p.transmittance;
    }
    EXPECT_NEAR(total.color.x, fused.x, 1e-5f);
    EXPECT_NEAR(total.color.y, fused.y, 1e-5f);
    EXPECT_EQ(total.samples, samples);
    EXPECT_NEAR(total.transmittance, tprod, 1e-5f);
    // The depth-first expert carries weight 1; the later one is
    // attenuated by the first's transmittance.
    const auto &w = moe.lastFusionWeights();
    EXPECT_FLOAT_EQ(std::max(w[0], w[1]), 1.0f);
}

/**
 * MoE batches expert-major (each expert traces the whole ray batch),
 * so with jitter disabled — no RNG consumption — the fused result
 * matches the per-ray path exactly.
 */
TEST(Moe, TraceRaysMatchesPerRayWithoutJitter)
{
    MoeConfig mc;
    mc.numExperts = 2;
    mc.expert = tinyPipeline();
    mc.expert.sampler.jitter = false;

    MoeNerf batched(mc);
    MoeNerf scalar(mc);
    std::vector<Ray> rays;
    for (int i = 0; i < 5; ++i)
        rays.emplace_back(Vec3f{0.15f + 0.15f * static_cast<float>(i), 0.5f, -1.0f},
                          Vec3f{0.0f, 0.0f, 1.0f});

    Pcg32 rng_a(17), rng_b(17);
    std::vector<RayEval> evals(rays.size());
    batched.traceRays(rays, rng_a, false, evals);
    for (std::size_t r = 0; r < rays.size(); ++r) {
        const RayEval ref = scalar.traceRay(rays[r], rng_b, false);
        EXPECT_EQ(evals[r].color, ref.color) << "ray " << r;
        EXPECT_EQ(evals[r].samples, ref.samples);
        EXPECT_EQ(evals[r].firstHitT, ref.firstHitT);
    }
}

TEST(Moe, TrainsOnToyScene)
{
    const Dataset data = tinyDataset("lego");
    MoeConfig mc;
    mc.numExperts = 2;
    mc.expert = tinyPipeline();
    mc.expert.model.grid.log2TableSize = 11; // smaller experts
    MoeNerf moe(mc);

    TrainerConfig tc;
    tc.iterations = 120;
    tc.raysPerBatch = 96;
    tc.occupancyWarmup = 60;
    tc.occupancyUpdateEvery = 30;
    Trainer trainer(moe, data, tc);
    const double before = trainer.evalPsnr();
    const TrainResult result = trainer.run();
    EXPECT_GT(result.finalPsnr, before + 3.0);
}

} // namespace
} // namespace fusion3d::nerf
