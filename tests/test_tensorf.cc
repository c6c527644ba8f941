/** @file Tests of the TensoRF (CP-factorized) substrate and its MoE
 *  instantiation — the Sec. VI-C adaptation targets. */

#include <gtest/gtest.h>

#include "chip/hw_cost.h"
#include "nerf/moe.h"
#include "nerf/tensorf.h"
#include "nerf/trainer.h"
#include "ray_oracle.h"
#include "scenes/dataset_gen.h"
#include "scenes/factory.h"

namespace fusion3d::nerf
{
namespace
{

TensorfPipelineConfig
tinyConfig()
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

TEST(TensorfModel, OutputRanges)
{
    TensorfModel model(tinyConfig().model);
    Pcg32 rng(1);
    for (int i = 0; i < 100; ++i) {
        const PointEval pe = model.forwardPoint(rng.nextVec3(), rng.nextUnitVector());
        EXPECT_GE(pe.sigma, 0.0f); // softplus
        EXPECT_TRUE(std::isfinite(pe.sigma));
        for (int c = 0; c < 3; ++c) {
            EXPECT_GE(pe.rgb[c], 0.0f);
            EXPECT_LE(pe.rgb[c], 1.0f);
        }
    }
}

TEST(TensorfModel, DensityIsViewIndependent)
{
    TensorfModel model(tinyConfig().model);
    const Vec3f p{0.3f, 0.6f, 0.4f};
    const PointEval a = model.forwardPoint(p, {0.0f, 0.0f, 1.0f});
    const PointEval b = model.forwardPoint(p, {1.0f, 0.0f, 0.0f});
    EXPECT_FLOAT_EQ(a.sigma, b.sigma);
    EXPECT_FLOAT_EQ(model.queryDensity(p), a.sigma);
}

TEST(TensorfModel, GradientCheckFactors)
{
    TensorfModelConfig cfg = tinyConfig().model;
    TensorfModel model(cfg, 77);
    const Vec3f pos{0.37f, 0.61f, 0.22f};
    const Vec3f dir = normalize(Vec3f{0.2f, -0.6f, 0.77f});
    const float dsigma = 0.35f;
    const Vec3f drgb{0.8f, -0.4f, 0.2f};

    const auto loss = [&]() {
        const PointEval pe = model.forwardPoint(pos, dir);
        return pe.sigma * dsigma + dot(pe.rgb, drgb);
    };

    model.zeroGrads();
    model.backwardPoint(pos, dir, dsigma, drgb);

    // Central-difference check on a spread of touched factor/basis
    // parameters.
    int checked = 0;
    for (std::size_t i = 0; i < model.factorParams().size(); i += 11) {
        const float g = model.factorGrads()[i];
        if (g == 0.0f)
            continue; // untouched support
        const float eps = 1e-3f;
        float &p = model.factorParams()[i];
        const float orig = p;
        p = orig + eps;
        const float lp = loss();
        p = orig - eps;
        const float lm = loss();
        p = orig;
        EXPECT_NEAR(g, (lp - lm) / (2.0f * eps), 0.05f * (1.0f + std::fabs(g)))
            << "factor param " << i;
        ++checked;
    }
    EXPECT_GT(checked, 5);

    // And a directional-derivative sanity check: one optimizer step
    // along the accumulated gradients reduces the loss.
    const float before = loss();
    model.optimizerStep(1e-3f, 1e-3f);
    EXPECT_LT(loss(), before);
}

TEST(TensorfPipeline, TrainsOnToyScene)
{
    const auto scene = scenes::makeSyntheticScene("lego");
    scenes::DatasetConfig dc = scenes::syntheticRig(24);
    dc.trainViews = 6;
    dc.testViews = 1;
    dc.reference.steps = 96;
    const Dataset data = scenes::makeDataset(*scene, dc);

    TensorfPipeline pipe(tinyConfig());
    TrainerConfig tc;
    tc.iterations = 150;
    tc.raysPerBatch = 96;
    tc.occupancyWarmup = 60;
    tc.occupancyUpdateEvery = 40;
    Trainer trainer(pipe, data, tc);
    const double before = trainer.evalPsnr();
    const TrainResult result = trainer.run();
    EXPECT_GT(result.finalPsnr, before + 3.0);
    EXPECT_GT(result.finalPsnr, 15.0);
}

TEST(TensorfPipeline, QuantizeAndOccupancyHooksWork)
{
    TensorfPipeline pipe(tinyConfig());
    Pcg32 rng(3);
    pipe.updateOccupancy(rng);
    EXPECT_GE(pipe.grid().occupiedFraction(), 0.0);
    const std::size_t params = pipe.paramCount();
    pipe.quantizeWeights(); // must not crash or change the param count
    EXPECT_EQ(pipe.paramCount(), params);
}

std::vector<Ray>
cameraRays(int size = 12)
{
    const Camera cam = Camera::orbit({0.5f, 0.5f, 0.5f}, 1.2f, 30.0f, 15.0f,
                                     45.0f, size, size);
    std::vector<Ray> rays;
    for (int y = 0; y < cam.height(); ++y)
        for (int x = 0; x < cam.width(); ++x)
            rays.push_back(cam.rayForPixel(x, y));
    return rays;
}

/** The batch-native traceRays override is bit-exact with the scalar
 *  per-ray oracle (tests/ray_oracle.h): level-major factor gathers
 *  change the memory access pattern, never a sample's arithmetic. */
TEST(TensorfPipeline, TraceRaysMatchesScalarOracleBitExact)
{
    TensorfPipeline batched(tinyConfig());
    TensorfPipeline scalar(tinyConfig()); // same seed -> same weights

    const std::vector<Ray> rays = cameraRays();
    Pcg32 rng_a(5, 1), rng_b(5, 1);
    std::vector<RayEval> evals(rays.size());
    batched.traceRays(rays, rng_a, /*record=*/false, evals);

    for (std::size_t r = 0; r < rays.size(); ++r) {
        const RayEval ref = oracle::oracleTraceRay(scalar, rays[r], rng_b);
        EXPECT_EQ(evals[r].color, ref.color) << "ray " << r;
        EXPECT_EQ(evals[r].transmittance, ref.transmittance) << "ray " << r;
        EXPECT_EQ(evals[r].samples, ref.samples) << "ray " << r;
    }
    EXPECT_EQ(rng_a.nextUint(), rng_b.nextUint());
}

/** A recorded batch tape dies loudly after zeroGrads dropped it —
 *  never a silent re-trace against a cleared accumulator state. */
TEST(TensorfPipeline, StaleTapeAfterZeroGradsFailsLoudly)
{
    TensorfPipeline pipe(tinyConfig());
    const std::vector<Ray> rays = cameraRays(4);
    Pcg32 rng(9, 2);
    std::vector<RayEval> evals(rays.size());
    pipe.traceRays(rays, rng, /*record=*/true, evals);
    pipe.zeroGrads();
    const std::vector<Vec3f> dcolors(rays.size(), Vec3f{0.1f, 0.1f, 0.1f});
    EXPECT_DEATH(pipe.backwardRays(dcolors), "without a recorded");
}

TEST(TensorfMoe, BuildsAndTraces)
{
    MoeConfigT<TensorfPipeline> mc;
    mc.numExperts = 2;
    mc.expert = tinyConfig();
    MoeField<TensorfPipeline> moe(mc);
    EXPECT_EQ(moe.numExperts(), 2);

    Pcg32 rng(4);
    const Ray ray({0.5f, 0.5f, -1.0f}, {0.0f, 0.0f, 1.0f});
    RayEval ev;
    moe.traceRays({&ray, 1}, rng, true, {&ev, 1});
    EXPECT_TRUE(std::isfinite(ev.color.x));
    const Vec3f dcolor{0.1f, 0.1f, 0.1f};
    moe.backwardRays({&dcolor, 1});
    moe.optimizerStep();
}

TEST(TensorfAdaptationModel, MatchesPaperRegime)
{
    const chip::TensorfAdaptation a = chip::tensorfAdaptation();
    // Paper: 11% area, 39% power reduction vs RT-NeRF.
    EXPECT_GT(a.areaSaving(), 0.05);
    EXPECT_LT(a.areaSaving(), 0.25);
    EXPECT_GT(a.powerSaving(), 0.30);
    EXPECT_LT(a.powerSaving(), 0.60);
    // Power saves proportionally more than area (dividers switch hard).
    EXPECT_GT(a.powerSaving(), a.areaSaving());
}

} // namespace
} // namespace fusion3d::nerf
