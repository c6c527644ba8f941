/** @file Tests of the frequency-encoded (vanilla/MetaVRain-style) NeRF. */

#include <cmath>

#include <gtest/gtest.h>

#include "nerf/freq_nerf.h"
#include "nerf/trainer.h"
#include "ray_oracle.h"
#include "scenes/dataset_gen.h"
#include "scenes/factory.h"

namespace fusion3d::nerf
{
namespace
{

TEST(FreqEncode, DimsAndIdentityPrefix)
{
    FreqNerfConfig cfg;
    cfg.posFrequencies = 4;
    std::vector<float> out(static_cast<std::size_t>(cfg.posDims()));
    const Vec3f p{0.25f, 0.5f, 0.75f};
    freqEncode(p, cfg.posFrequencies, out);
    EXPECT_EQ(cfg.posDims(), 3 + 3 * 2 * 4);
    EXPECT_FLOAT_EQ(out[0], 0.25f);
    EXPECT_FLOAT_EQ(out[1], 0.5f);
    EXPECT_FLOAT_EQ(out[2], 0.75f);
}

TEST(FreqEncode, SinCosPairsAreConsistent)
{
    std::vector<float> out(3 + 3 * 2 * 6);
    const Vec3f p{0.37f, 0.61f, 0.12f};
    freqEncode(p, 6, out);
    // Every (sin, cos) pair satisfies sin^2 + cos^2 = 1.
    for (std::size_t i = 3; i + 1 < out.size(); i += 2) {
        EXPECT_NEAR(out[i] * out[i] + out[i + 1] * out[i + 1], 1.0f, 1e-5f);
    }
    // Octave 0 of axis x is sin(pi x), cos(pi x).
    EXPECT_NEAR(out[3], std::sin(3.14159265f * 0.37f), 1e-5f);
    EXPECT_NEAR(out[4], std::cos(3.14159265f * 0.37f), 1e-5f);
}

TEST(FreqEncode, HighOctavesDistinguishNearbyPoints)
{
    std::vector<float> a(3 + 3 * 2 * 8), b(3 + 3 * 2 * 8);
    freqEncode({0.500f, 0.5f, 0.5f}, 8, a);
    freqEncode({0.505f, 0.5f, 0.5f}, 8, b);
    // The identity prefix barely moves but the top octave swings.
    EXPECT_NEAR(a[0], b[0], 0.01f);
    float top_delta = 0.0f;
    for (std::size_t i = a.size() - 6; i < a.size(); ++i)
        top_delta = std::max(top_delta, std::fabs(a[i] - b[i]));
    EXPECT_GT(top_delta, 0.5f);
}

FreqNerfConfig
tinyConfig()
{
    FreqNerfConfig cfg;
    cfg.posFrequencies = 4;
    cfg.hidden = 24;
    cfg.trunkLayers = 2;
    cfg.geoFeatures = 7;
    cfg.colorHidden = 16;
    return cfg;
}

TEST(FreqNerfModel, OutputRangesAndDeterminism)
{
    FreqNerfModel model(tinyConfig());
    Pcg32 rng(1);
    for (int i = 0; i < 100; ++i) {
        const Vec3f p = rng.nextVec3();
        const Vec3f d = rng.nextUnitVector();
        const PointEval a = model.forwardPoint(p, d);
        const PointEval b = model.forwardPoint(p, d);
        EXPECT_GT(a.sigma, 0.0f);
        EXPECT_FLOAT_EQ(a.sigma, b.sigma);
        EXPECT_EQ(a.rgb, b.rgb);
        EXPECT_GE(minComp(a.rgb), 0.0f);
        EXPECT_LE(maxComp(a.rgb), 1.0f);
    }
}

TEST(FreqNerfModel, MacCostDwarfsHashGrid)
{
    FreqNerfConfig cfg; // defaults: 64-wide, 3 trunk layers
    FreqNerfModel model(cfg);
    // Table III context: the MLP field costs several times the
    // hash-grid pipeline's ~2k MACs/point.
    EXPECT_GT(model.macsPerPoint(), 6000u);
}

TEST(FreqNerfModel, GradientStepReducesLoss)
{
    FreqNerfModel model(tinyConfig(), 99);
    const Vec3f pos{0.4f, 0.3f, 0.7f};
    const Vec3f dir = normalize(Vec3f{0.1f, 0.9f, 0.3f});
    const auto loss = [&]() {
        const PointEval pe = model.forwardPoint(pos, dir);
        return pe.sigma * 0.4f + dot(pe.rgb, Vec3f{1.0f, -0.5f, 0.25f});
    };
    const float before = loss();
    model.zeroGrads();
    model.backwardPoint(pos, dir, 0.4f, {1.0f, -0.5f, 0.25f});
    model.optimizerStep(1e-3f, 1e-3f);
    EXPECT_LT(loss(), before);
}

TEST(FreqPipeline, TrainsOnToyScene)
{
    const auto scene = scenes::makeSyntheticScene("lego");
    scenes::DatasetConfig dc = scenes::syntheticRig(20);
    dc.trainViews = 6;
    dc.testViews = 1;
    dc.reference.steps = 64;
    const Dataset data = scenes::makeDataset(*scene, dc);

    FreqPipelineConfig fc;
    fc.model = tinyConfig();
    fc.lrFactors = 2e-3f;
    fc.sampler.maxSamplesPerRay = 20;
    fc.occupancyResolution = 12;
    FreqPipeline pipe(fc);

    TrainerConfig tc;
    tc.iterations = 150;
    tc.raysPerBatch = 96;
    Trainer trainer(pipe, data, tc);
    const double before = trainer.evalPsnr();
    const TrainResult r = trainer.run();
    EXPECT_GT(r.finalPsnr, before + 2.0);
}

TEST(FreqPipeline, QuantizeHookWorks)
{
    FreqPipelineConfig fc;
    fc.model = tinyConfig();
    FreqPipeline pipe(fc);
    const std::size_t n = pipe.paramCount();
    pipe.quantizeWeights();
    EXPECT_EQ(pipe.paramCount(), n);
}

FreqPipelineConfig
tinyPipelineConfig()
{
    FreqPipelineConfig fc;
    fc.model = tinyConfig();
    fc.sampler.maxSamplesPerRay = 16;
    fc.occupancyResolution = 12;
    return fc;
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
 *  per-ray oracle (tests/ray_oracle.h): the CSR batch draws jitter in
 *  the same ray order and every sample's arithmetic is batch-invariant. */
TEST(FreqPipeline, TraceRaysMatchesScalarOracleBitExact)
{
    FreqPipeline batched(tinyPipelineConfig());
    FreqPipeline scalar(tinyPipelineConfig()); // same seed -> same weights

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
    // Both paths consumed the identical jitter stream.
    EXPECT_EQ(rng_a.nextUint(), rng_b.nextUint());
}

/** A recorded batch tape dies loudly after the optimizer moved the
 *  weights — never a silent re-trace against the updated model. */
TEST(FreqPipeline, StaleTapeAfterStepFailsLoudly)
{
    FreqPipeline pipe(tinyPipelineConfig());
    const std::vector<Ray> rays = cameraRays(4);
    Pcg32 rng(9, 2);
    std::vector<RayEval> evals(rays.size());
    pipe.traceRays(rays, rng, /*record=*/true, evals);
    pipe.optimizerStep();
    const std::vector<Vec3f> dcolors(rays.size(), Vec3f{0.1f, 0.1f, 0.1f});
    EXPECT_DEATH(pipe.backwardRays(dcolors), "without a recorded");
}

} // namespace
} // namespace fusion3d::nerf
