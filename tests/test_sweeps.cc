/** @file Final cross-cutting property sweeps: sampler density invariants
 *  across step counts, chip throughput monotonicity across resource
 *  scaling, scene-dataset pipelines across every scene name, and the
 *  MoE/pipeline equivalence at one expert. */

#include <gtest/gtest.h>

#include "chip/chip.h"
#include "nerf/moe.h"
#include "nerf/trainer.h"
#include "ray_oracle.h"
#include "scenes/dataset_gen.h"
#include "scenes/factory.h"

namespace fusion3d
{
namespace
{

// ---------------------------------------------------------------------------
// Sampler invariants across step counts.
// ---------------------------------------------------------------------------

class SamplerSteps : public ::testing::TestWithParam<int>
{
};

TEST_P(SamplerSteps, CandidateCountTracksStepBudget)
{
    const int steps = GetParam();
    nerf::SamplerConfig cfg;
    cfg.maxSamplesPerRay = steps;
    cfg.jitter = false;
    const nerf::RaySampler sampler(cfg);
    Pcg32 rng(1);
    std::vector<nerf::RaySample> out;
    nerf::RayWorkload wl;
    // Straight through the cube: path length 1 of a sqrt(3) diagonal
    // budget -> about steps/sqrt(3) candidates.
    const Ray ray({0.5f, 0.5f, -1.0f}, {0.0f, 0.0f, 1.0f});
    sampler.sample(ray, nullptr, rng, out, &wl);
    const double expected = steps / 1.7320508;
    EXPECT_NEAR(wl.totalCandidates, expected, expected * 0.15 + 2.0);
    // Sample spacing equals the configured dt.
    for (std::size_t i = 1; i < out.size(); ++i)
        EXPECT_NEAR(out[i].t - out[i - 1].t, 1.7320508f / steps, 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(StepBudgets, SamplerSteps,
                         ::testing::Values(8, 16, 32, 64, 128, 256));

// ---------------------------------------------------------------------------
// Chip throughput scales with provisioned resources.
// ---------------------------------------------------------------------------

TEST(ChipScaling, MoreInterpCoresMoreThroughput)
{
    chip::WorkloadProfile wl;
    wl.rays = 10000;
    wl.candidates = wl.rays * 40;
    wl.validPoints = wl.rays * 16;
    wl.compositedPoints = wl.rays * 10;
    wl.levels = 8;
    wl.macsPerPoint = 2400;
    wl.avgGroupCycles = 1.0;
    chip::SamplingRunStats s1;
    s1.raysProcessed = wl.rays;
    s1.totalCycles = wl.candidates / 13;

    double prev = 0.0;
    for (int cores : {2, 5, 10, 20}) {
        chip::ChipConfig cfg = chip::ChipConfig::scaledUp();
        cfg.interpCores = cores;
        const chip::TechModel tech(cfg);
        const chip::PerfModel pm(cfg, tech);
        const double tput = pm.inference(wl, s1).throughputPointsPerSec;
        EXPECT_GE(tput, prev);
        prev = tput;
    }
}

TEST(ChipScaling, PrototypeSlowerThanScaledUp)
{
    nerf::PipelineConfig pc;
    pc.model.grid.levels = 6;
    pc.model.grid.log2TableSize = 12;
    nerf::NerfPipeline pipe(pc);
    const nerf::Camera cam =
        nerf::Camera::orbit({0.5f, 0.5f, 0.5f}, 1.4f, 15.0f, 20.0f, 45.0f, 128, 128);

    const auto proto =
        chip::Chip(chip::ChipConfig::prototype()).evaluateInference(pipe, cam, 256);
    const auto scaled =
        chip::Chip(chip::ChipConfig::scaledUp()).evaluateInference(pipe, cam, 256);
    EXPECT_GT(scaled.perf.throughputPointsPerSec, proto.perf.throughputPointsPerSec);
}

// ---------------------------------------------------------------------------
// Every scene builds a dataset the trainer accepts.
// ---------------------------------------------------------------------------

class AllScenes : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AllScenes, DatasetPipelineRoundTrip)
{
    const std::string name = GetParam();
    const bool is360 =
        std::find(scenes::nerf360SceneNames().begin(), scenes::nerf360SceneNames().end(),
                  name) != scenes::nerf360SceneNames().end();
    const auto scene =
        is360 ? scenes::makeNerf360Scene(name) : scenes::makeSyntheticScene(name);

    scenes::DatasetConfig dc = is360 ? scenes::nerf360Rig(12) : scenes::syntheticRig(12);
    dc.trainViews = 3;
    dc.testViews = 1;
    dc.reference.steps = 32;
    const nerf::Dataset ds = scenes::makeDataset(*scene, dc);
    ASSERT_GE(ds.train.size(), 3u);
    ASSERT_EQ(ds.test.size(), 1u);

    // One training iteration must run without tripping any invariant.
    nerf::PipelineConfig pc;
    pc.model.grid.levels = 4;
    pc.model.grid.log2TableSize = 10;
    pc.model.densityHidden = 8;
    pc.model.colorHidden = 8;
    pc.model.geoFeatures = 7;
    pc.model.shDegree = 2;
    pc.sampler.maxSamplesPerRay = 12;
    pc.occupancyResolution = 8;
    nerf::NerfPipeline pipe(pc);
    nerf::TrainerConfig tc;
    tc.iterations = 1;
    tc.raysPerBatch = 16;
    nerf::Trainer trainer(pipe, ds, tc);
    trainer.trainIteration();
    EXPECT_EQ(trainer.iteration(), 1);
}

INSTANTIATE_TEST_SUITE_P(Synthetic, AllScenes,
                         ::testing::Values("chair", "drums", "ficus", "hotdog", "lego",
                                           "materials", "mic", "ship", "tractor"));
INSTANTIATE_TEST_SUITE_P(Nerf360, AllScenes,
                         ::testing::Values("bicycle", "bonsai", "counter", "garden",
                                           "kitchen", "room", "stump"));

// ---------------------------------------------------------------------------
// A one-expert MoE degenerates to the plain pipeline.
// ---------------------------------------------------------------------------

TEST(MoeDegenerate, SingleExpertMatchesPlainPipeline)
{
    nerf::PipelineConfig pc;
    pc.model.grid.levels = 4;
    pc.model.grid.log2TableSize = 10;
    pc.model.densityHidden = 8;
    pc.model.colorHidden = 8;
    pc.model.geoFeatures = 7;
    pc.model.shDegree = 2;
    pc.sampler.maxSamplesPerRay = 16;
    pc.sampler.jitter = false;
    pc.occupancyResolution = 8;
    pc.render.background = Vec3f(0.0f);

    nerf::MoeConfig mc;
    mc.numExperts = 1;
    mc.expert = pc;
    mc.seed = pc.seed; // expert k=0 gets seed + 0: identical init
    nerf::MoeNerf moe(mc);
    nerf::NerfPipeline plain(pc);

    Pcg32 rng_a(5), rng_b(5);
    for (int i = 0; i < 50; ++i) {
        const Ray ray({0.2f + 0.01f * static_cast<float>(i), 0.4f, -1.0f},
                      {0.0f, 0.1f, 1.0f});
        nerf::RayEval a;
        moe.traceRays({&ray, 1}, rng_a, false, {&a, 1});
        const nerf::RayEval b = nerf::oracle::oracleTraceRay(plain, ray, rng_b);
        EXPECT_EQ(a.samples, b.samples);
        EXPECT_NEAR(a.color.x, b.color.x, 1e-5f);
        EXPECT_NEAR(a.transmittance, b.transmittance, 1e-5f);
    }
}

} // namespace
} // namespace fusion3d
