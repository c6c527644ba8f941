/** @file Integration tests: the full pipeline trains on a toy scene,
 *  MoE partitions space, and the trainer's quantization hook bites. */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nerf/freq_nerf.h"
#include "nerf/moe.h"
#include "nerf/pipeline.h"
#include "nerf/tensorf.h"
#include "nerf/trainer.h"
#include "ray_oracle.h"
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

FreqPipelineConfig
tinyFreqPipeline()
{
    FreqPipelineConfig fc;
    fc.model.posFrequencies = 4;
    fc.model.hidden = 16;
    fc.model.trunkLayers = 2;
    fc.model.geoFeatures = 7;
    fc.model.colorHidden = 16;
    fc.model.shDegree = 2;
    fc.occupancyResolution = 16;
    return fc;
}

TensorfPipelineConfig
tinyTensorfPipeline()
{
    TensorfPipelineConfig tc;
    tc.model.densityRank = 6;
    tc.model.appearanceRank = 8;
    tc.model.lineResolution = 48;
    tc.model.appearanceDim = 8;
    tc.model.colorHidden = 16;
    tc.sampler.maxSamplesPerRay = 24;
    tc.occupancyResolution = 16;
    return tc;
}

/** Gate inputs of the oracle tests: the fresh grid (every cell
 *  occupied), or a sphere of radius 0.3 around the cube centre, so
 *  the sampler drops a good share of each ray's candidates. */
enum class Gate
{
    full,
    sphere,
};

void
applyGate(OccupancyGrid &grid, Gate gate)
{
    if (gate == Gate::sphere)
        grid.maskRegion([](const Vec3f &p) {
            const Vec3f d = p - Vec3f{0.5f, 0.5f, 0.5f};
            return dot(d, d) < 0.09f;
        });
}

/** True when the gate dropped some candidates of some ray. */
bool
someRayGated(std::span<const RayEval> evals)
{
    return std::any_of(evals.begin(), evals.end(), [](const RayEval &e) {
        return e.samples < e.candidates;
    });
}

TEST(Pipeline, TraceRaysDeterministicWithoutJitter)
{
    PipelineConfig pc = tinyPipeline();
    pc.sampler.jitter = false;
    NerfPipeline pipe(pc);
    Pcg32 rng(1);
    const Ray ray({0.5f, 0.5f, -1.0f}, {0.0f, 0.0f, 1.0f});
    RayEval a, b;
    pipe.traceRays({&ray, 1}, rng, false, {&a, 1});
    pipe.traceRays({&ray, 1}, rng, false, {&b, 1});
    EXPECT_EQ(a.color, b.color);
    EXPECT_EQ(a.samples, b.samples);
}

/** backwardRays dies without a recorded traceRays batch: on a fresh
 *  pipeline, and once a recorded batch's tape has been consumed. */
TEST(Pipeline, BackwardRaysRequiresRecordedBatch)
{
    NerfPipeline pipe(tinyPipeline());
    const Ray ray({0.5f, 0.5f, -1.0f}, {0.0f, 0.0f, 1.0f});
    const Vec3f dcolor{1.0f, 0.0f, 0.0f};
    EXPECT_DEATH(pipe.backwardRays({&dcolor, 1}), "without a recorded");

    Pcg32 rng(2);
    RayEval ev;
    pipe.traceRays({&ray, 1}, rng, /*record=*/true, {&ev, 1});
    pipe.backwardRays({&dcolor, 1});
    EXPECT_DEATH(pipe.backwardRays({&dcolor, 1}), "without a recorded");
}

/**
 * The batched entry point is bit-exact with the scalar oracle
 * (tests/ray_oracle.h: forwardPoint per sample): sampling draws jitter
 * in the same ray order, and the SoA forward evaluates every sample
 * with scalar-identical arithmetic, whether or not the gate drops
 * samples. A recorded batch must also accept its gradient batch.
 */
template <class PipelineT>
void
expectTraceRaysMatchesPerRayLoop(const typename PipelineT::Config &cfg, Gate gate)
{
    SCOPED_TRACE(gate == Gate::full ? "full gate" : "sphere gate");
    PipelineT batched(cfg);
    PipelineT scalar(cfg); // same seed -> identical weights
    applyGate(batched.grid(), gate);
    applyGate(scalar.grid(), gate);

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
        const RayEval ref = oracle::oracleTraceRay(scalar, rays[r], rng_b, &wl);
        candidates_b += static_cast<std::uint64_t>(wl.totalCandidates);
        EXPECT_EQ(evals[r].color, ref.color) << "ray " << r;
        EXPECT_EQ(evals[r].samples, ref.samples);
        EXPECT_EQ(evals[r].composited, ref.composited);
        EXPECT_EQ(evals[r].transmittance, ref.transmittance);
        EXPECT_EQ(evals[r].firstHitT, ref.firstHitT);
    }
    EXPECT_EQ(static_cast<std::uint64_t>(wl_a.totalCandidates), candidates_b);
    // Both paths consumed the identical jitter stream.
    EXPECT_EQ(rng_a.nextUint(), rng_b.nextUint());
    if (gate == Gate::sphere) {
        EXPECT_TRUE(someRayGated(evals));
    }

    const std::vector<Vec3f> dcolors(rays.size(), Vec3f{0.1f, 0.1f, 0.1f});
    batched.backwardRays(dcolors);
    batched.optimizerStep();
}

TEST(Pipeline, TraceRaysMatchesPerRayLoop)
{
    for (const Gate gate : {Gate::full, Gate::sphere}) {
        expectTraceRaysMatchesPerRayLoop<NerfPipeline>(tinyPipeline(), gate);
        expectTraceRaysMatchesPerRayLoop<FreqPipeline>(tinyFreqPipeline(), gate);
        expectTraceRaysMatchesPerRayLoop<TensorfPipeline>(tinyTensorfPipeline(), gate);
    }
}

/** Every gradient block of a model, named, for the backward oracle. */
using GradBlocks = std::vector<std::pair<const char *, std::span<const float>>>;

GradBlocks
gradBlocks(NerfModel &m)
{
    return {{"density", m.densityNet().grads()},
            {"color", m.colorNet().grads()},
            {"encoding", m.encoding().grads()}};
}

GradBlocks
gradBlocks(FreqNerfModel &m)
{
    return {{"trunk", m.trunk().grads()}, {"color", m.colorNet().grads()}};
}

GradBlocks
gradBlocks(TensorfModel &m)
{
    return {{"factor", m.factorGrads()}, {"color", m.colorNet().grads()}};
}

/**
 * One recorded traceRays + backwardRays accumulates the same model
 * gradients as the scalar oracle (compositeBackward + backwardPoint,
 * tests/ray_oracle.h), ray by ray (up to reassociation of the
 * cross-ray gradient sums), under a full and a partial gate.
 */
template <class PipelineT>
void
expectBackwardRaysMatchesPerRayBackward(const typename PipelineT::Config &cfg,
                                        Gate gate)
{
    SCOPED_TRACE(gate == Gate::full ? "full gate" : "sphere gate");
    PipelineT batched(cfg);
    PipelineT scalar(cfg); // same seed -> identical weights
    applyGate(batched.grid(), gate);
    applyGate(scalar.grid(), gate);

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
    RayWorkload wl;
    batched.model().zeroGrads();
    batched.traceRays(rays, rng_a, /*record=*/true, evals, &wl);
    batched.backwardRays(dcolors);
    if (gate == Gate::sphere) {
        EXPECT_TRUE(someRayGated(evals));
    }

    Pcg32 rng_b(9);
    scalar.model().zeroGrads();
    for (std::size_t r = 0; r < rays.size(); ++r)
        oracle::oracleBackwardRay(scalar, rays[r], rng_b, dcolors[r]);

    const GradBlocks got = gradBlocks(batched.model());
    const GradBlocks want = gradBlocks(scalar.model());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t b = 0; b < got.size(); ++b) {
        const auto [what, g] = got[b];
        const std::span<const float> w = want[b].second;
        ASSERT_EQ(g.size(), w.size()) << what;
        float max_abs = 0.0f;
        for (std::size_t i = 0; i < g.size(); ++i) {
            ASSERT_NEAR(g[i], w[i], 1e-5f + 1e-4f * std::fabs(w[i]))
                << what << " grad " << i;
            max_abs = std::max(max_abs, std::fabs(w[i]));
        }
        EXPECT_GT(max_abs, 0.0f) << what << " received no gradient";
    }
}

TEST(Pipeline, BackwardRaysMatchesPerRayBackward)
{
    for (const Gate gate : {Gate::full, Gate::sphere}) {
        expectBackwardRaysMatchesPerRayBackward<NerfPipeline>(tinyPipeline(), gate);
        expectBackwardRaysMatchesPerRayBackward<FreqPipeline>(tinyFreqPipeline(), gate);
        expectBackwardRaysMatchesPerRayBackward<TensorfPipeline>(tinyTensorfPipeline(),
                                                                 gate);
    }
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

TEST(Pipeline, GateThresholdsOpticalThickness)
{
    const PipelineConfig pc = tinyPipeline();
    NerfPipeline pipe(pc);
    OccupancyGrid &grid = pipe.grid();
    const float dt = pc.sampler.latticeStep();
    // Optical thickness σ·Δt just below and just above the threshold,
    // plus thick cells that lift the grid mean over it so the mean cap
    // stays idle. Every σ here exceeds the threshold as a raw density.
    const float thickness[3] = {0.9f, 1.1f, 3.0f};
    std::vector<float> sigma(grid.cellCount());
    for (std::size_t i = 0; i < sigma.size(); ++i)
        sigma[i] = thickness[i % 3] * pc.occupancyThreshold / dt;
    grid.applyDensities(sigma, 0.0f);
    for (std::size_t i = 0; i < sigma.size(); ++i)
        EXPECT_EQ(grid.occupiedCell(i), sigma[i] * dt > pc.occupancyThreshold) << i;
    EXPECT_NEAR(grid.occupiedFraction(), 2.0 / 3.0, 1e-4);
}

TEST(Pipeline, OccupancyUpdateShrinksWorkload)
{
    const Dataset data = tinyDataset("mic");
    NerfPipeline pipe(tinyPipeline());
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
    std::vector<Ray> rays;
    for (int i = 0; i < 3; ++i)
        rays.emplace_back(Vec3f{0.4f + 0.1f * static_cast<float>(i), 0.5f, -1.0f},
                          Vec3f{0.0f, 0.0f, 1.0f});
    std::vector<RayEval> totals(rays.size());
    moe.traceRays(rays, rng, false, totals);
    for (std::size_t r = 0; r < rays.size(); ++r) {
        Vec3f fused(0.0f);
        int samples = 0;
        float tprod = 1.0f;
        for (int k = 0; k < moe.numExperts(); ++k) {
            const RayEval &p = moe.partial(r, k);
            fused += p.color * moe.fusionWeight(r, k);
            samples += p.samples;
            tprod *= p.transmittance;
        }
        const RayEval &total = totals[r];
        EXPECT_NEAR(total.color.x, fused.x, 1e-5f) << "ray " << r;
        EXPECT_NEAR(total.color.y, fused.y, 1e-5f) << "ray " << r;
        EXPECT_EQ(total.samples, samples) << "ray " << r;
        EXPECT_NEAR(total.transmittance, tprod, 1e-5f) << "ray " << r;
        // The depth-first expert carries weight 1; the later one is
        // attenuated by the first's transmittance.
        EXPECT_FLOAT_EQ(std::max(moe.fusionWeight(r, 0), moe.fusionWeight(r, 1)), 1.0f)
            << "ray " << r;
    }
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
        RayEval ref;
        scalar.traceRays({&rays[r], 1}, rng_b, false, {&ref, 1});
        EXPECT_EQ(evals[r].color, ref.color) << "ray " << r;
        EXPECT_EQ(evals[r].samples, ref.samples);
        EXPECT_EQ(evals[r].firstHitT, ref.firstHitT);
    }
}

TEST(Moe, InferenceRenderBetweenTraceAndBackwardLeavesTheTape)
{
    // trace(record) -> renderView -> backward -> step must train exactly
    // as trace(record) -> backward -> step: the render's record=false
    // traces may not replace the recorded fusion weights.
    MoeConfig mc;
    mc.numExperts = 2;
    mc.expert = tinyPipeline();
    const Camera cam = Camera::orbit({0.5f, 0.5f, 0.5f}, 1.4f, 35.0f, 20.0f, 45.0f, 16, 16);
    std::vector<Ray> rays;
    for (int i = 0; i < 12; ++i)
        rays.push_back(cam.rayForPixel(i, 3 + i / 2));

    const auto trainStep = [&](bool render_between) {
        MoeNerf moe(mc);
        Pcg32 rng(23);
        std::vector<RayEval> evals(rays.size());
        moe.zeroGrads();
        moe.traceRays(rays, rng, /*record=*/true, evals);
        std::vector<Vec3f> dcolors(rays.size());
        for (std::size_t r = 0; r < rays.size(); ++r)
            dcolors[r] = evals[r].color - Vec3f(0.25f, 0.5f, 0.75f);
        if (render_between) {
            Image img;
            moe.renderView(cam, /*seed=*/9, img);
        }
        moe.backwardRays(dcolors);
        moe.optimizerStep();
        std::vector<float> weights;
        for (int k = 0; k < moe.numExperts(); ++k) {
            const NerfModel &m = moe.expert(k).model();
            for (const std::span<const float> block :
                 {m.encoding().params(), m.densityNet().params(), m.colorNet().params()})
                weights.insert(weights.end(), block.begin(), block.end());
        }
        return weights;
    };

    const std::vector<float> plain = trainStep(false);
    const std::vector<float> rendered = trainStep(true);
    ASSERT_EQ(plain.size(), rendered.size());
    for (std::size_t i = 0; i < plain.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(plain[i]),
                  std::bit_cast<std::uint32_t>(rendered[i]))
            << "weight " << i;
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
