/** @file Tests for the extension modules: DDA occupancy traversal,
 *  composited depth, camera projection, image warping, serialization. */

#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/aabb.h"
#include "nerf/freq_nerf.h"
#include "nerf/image_warp.h"
#include "nerf/occupancy_grid.h"
#include "nerf/renderer.h"
#include "nerf/serialize.h"
#include "nerf/tensorf.h"

namespace fusion3d::nerf
{
namespace
{

// ---------------------------------------------------------------------------
// DDA traversal
// ---------------------------------------------------------------------------

TEST(OccupancyTraverse, EmptyGridYieldsNoIntervals)
{
    OccupancyGrid grid(8);
    grid.clearAll();
    std::vector<OccupancyGrid::Interval> out;
    const Ray ray({0.5f, 0.5f, -1.0f}, {0.0f, 0.0f, 1.0f});
    EXPECT_EQ(grid.traverse(ray, 1.0f, 2.0f, out), 0);
}

TEST(OccupancyTraverse, FullGridYieldsOneSpan)
{
    OccupancyGrid grid(8);
    grid.markAll();
    std::vector<OccupancyGrid::Interval> out;
    const Ray ray({0.5f, 0.5f, -1.0f}, {0.0f, 0.0f, 1.0f});
    ASSERT_EQ(grid.traverse(ray, 1.0f, 2.0f, out), 1);
    EXPECT_NEAR(out[0].t0, 1.0f, 1e-3f);
    EXPECT_NEAR(out[0].t1, 2.0f, 1e-3f);
}

TEST(OccupancyTraverse, HalfSpaceSplitsCorrectly)
{
    OccupancyGrid grid(16);
    grid.markAll();
    grid.maskRegion([](const Vec3f &p) { return p.z > 0.5f; });
    std::vector<OccupancyGrid::Interval> out;
    const Ray ray({0.5f, 0.5f, -1.0f}, {0.0f, 0.0f, 1.0f});
    ASSERT_EQ(grid.traverse(ray, 1.0f, 2.0f, out), 1);
    // Occupied space is z in (0.5, 1): t in (1.5, 2).
    EXPECT_NEAR(out[0].t0, 1.5f, 0.1f);
    EXPECT_NEAR(out[0].t1, 2.0f, 0.05f);
}

/** Property: DDA intervals agree with dense per-sample probing. */
TEST(OccupancyTraverse, AgreesWithPointProbes)
{
    OccupancyGrid grid(12);
    Pcg32 seed_rng(5);
    grid.update(
        [](const Vec3f &p) {
            return (length(p - Vec3f(0.4f, 0.5f, 0.6f)) < 0.25f ||
                    length(p - Vec3f(0.75f, 0.3f, 0.3f)) < 0.15f)
                       ? 10.0f
                       : 0.0f;
        },
        seed_rng);

    Pcg32 rng(6);
    std::vector<OccupancyGrid::Interval> intervals;
    int disagreements = 0;
    int probes = 0;
    for (int trial = 0; trial < 60; ++trial) {
        const Vec3f o{rng.nextRange(-0.5f, 1.5f), rng.nextRange(-0.5f, 1.5f), -1.0f};
        const Ray ray(o, normalize(Vec3f{rng.nextRange(-0.4f, 0.4f),
                                         rng.nextRange(-0.4f, 0.4f), 1.0f}));
        const auto span = Aabb::intersectUnitCube(ray);
        if (!span || span->t1 <= std::max(span->t0, 0.0f))
            continue;
        const float t0 = std::max(span->t0, 0.0f);
        grid.traverse(ray, t0, span->t1, intervals);

        // Dense probing: every probe's occupancy must match interval
        // membership, away from cell boundaries.
        for (float t = t0 + 1e-3f; t < span->t1; t += 0.013f) {
            const Vec3f p = clamp(ray.at(t), 0.0f, 1.0f - 1e-5f);
            const bool probe = grid.occupiedAt(p);
            bool inside = false;
            for (const auto &iv : intervals) {
                if (t >= iv.t0 - 2e-3f && t <= iv.t1 + 2e-3f) {
                    inside = true;
                    break;
                }
            }
            ++probes;
            if (probe && !inside)
                ++disagreements; // missed occupied space: hard error
            // (inside && !probe near boundaries is tolerated above.)
        }
    }
    EXPECT_GT(probes, 1000);
    EXPECT_EQ(disagreements, 0);
}

// ---------------------------------------------------------------------------
// Composited depth
// ---------------------------------------------------------------------------

TEST(CompositeDepth, OpaqueSampleSetsDepth)
{
    RenderParams params;
    const std::vector<float> sigmas{1e5f};
    const std::vector<Vec3f> rgbs(1, Vec3f(0.5f));
    const std::vector<float> dts{0.1f};
    const std::vector<float> ts{1.25f};
    EXPECT_NEAR(composite(sigmas, rgbs, dts, params, ts, 3.0f).depth, 1.25f, 1e-3f);
}

TEST(CompositeDepth, EmptyRayReturnsFar)
{
    RenderParams params;
    EXPECT_FLOAT_EQ(composite({}, {}, {}, params, {}, 2.5f).depth, 2.5f);
}

TEST(CompositeDepth, SemiTransparentBlends)
{
    RenderParams params;
    const std::vector<float> sigmas{7.0f}; // alpha ~ 0.5 at dt 0.1
    const std::vector<Vec3f> rgbs(1, Vec3f(0.5f));
    const std::vector<float> dts{0.1f};
    const std::vector<float> ts{1.0f};
    const float d = composite(sigmas, rgbs, dts, params, ts, 2.0f).depth;
    EXPECT_GT(d, 1.0f);
    EXPECT_LT(d, 2.0f);
}

// ---------------------------------------------------------------------------
// Camera projection
// ---------------------------------------------------------------------------

TEST(CameraProject, RoundTripsRayForPixel)
{
    const Camera cam = Camera::orbit({0.5f, 0.5f, 0.5f}, 1.4f, 33.0f, 21.0f, 45.0f,
                                     64, 48);
    Pcg32 rng(7);
    for (int i = 0; i < 200; ++i) {
        const int x = static_cast<int>(rng.nextBounded(64));
        const int y = static_cast<int>(rng.nextBounded(48));
        const Ray ray = cam.rayForPixel(x, y);
        const Vec3f world = ray.at(rng.nextRange(0.5f, 2.0f));
        float px, py, depth;
        ASSERT_TRUE(cam.project(world, px, py, depth));
        EXPECT_NEAR(px, static_cast<float>(x) + 0.5f, 0.02f);
        EXPECT_NEAR(py, static_cast<float>(y) + 0.5f, 0.02f);
        EXPECT_GT(depth, 0.0f);
    }
}

TEST(CameraProject, RejectsBehindCamera)
{
    const Camera cam({0.5f, 0.5f, -2.0f}, {0.5f, 0.5f, 0.5f}, {0, 1, 0}, 45.0f, 32,
                     32);
    float px, py, depth;
    EXPECT_FALSE(cam.project({0.5f, 0.5f, -3.0f}, px, py, depth));
}

// ---------------------------------------------------------------------------
// Image warping
// ---------------------------------------------------------------------------

DepthFrame
flatFrame(const Camera &cam, float depth, const Vec3f &color)
{
    DepthFrame f;
    f.camera = cam;
    f.color = Image(cam.width(), cam.height(), color);
    f.depth.assign(static_cast<std::size_t>(cam.width()) * cam.height(), depth);
    return f;
}

TEST(ImageWarp, IdentityWarpCoversEverything)
{
    const Camera cam = Camera::orbit({0.5f, 0.5f, 0.5f}, 1.4f, 10.0f, 15.0f, 45.0f,
                                     32, 32);
    const DepthFrame frame = flatFrame(cam, 1.4f, {0.3f, 0.6f, 0.9f});
    const WarpResult r = forwardWarp(frame, cam);
    EXPECT_GT(r.coverage, 0.95);
    EXPECT_EQ(r.image.at(16, 16), Vec3f(0.3f, 0.6f, 0.9f));
}

TEST(ImageWarp, CoverageDropsWithMotion)
{
    const Vec3f c{0.5f, 0.5f, 0.5f};
    const Camera cam0 = Camera::orbit(c, 1.4f, 0.0f, 15.0f, 45.0f, 32, 32);
    const DepthFrame frame = flatFrame(cam0, 1.4f, Vec3f(0.5f));
    double prev = 1.1;
    for (float delta : {1.0f, 10.0f, 40.0f, 90.0f}) {
        const Camera cam1 = Camera::orbit(c, 1.4f, delta, 15.0f, 45.0f, 32, 32);
        const double cov = forwardWarp(frame, cam1).coverage;
        EXPECT_LE(cov, prev + 0.05);
        prev = cov;
    }
    EXPECT_LT(prev, 0.6); // 90 degrees of orbit leaves large holes
}

TEST(ImageWarp, SpeedupFormula)
{
    EXPECT_NEAR(warpAssistSpeedup(1.0, 0.05), 20.0, 1e-9);
    EXPECT_NEAR(warpAssistSpeedup(0.5, 0.0), 2.0, 1e-9);
    EXPECT_GT(warpAssistSpeedup(0.97), warpAssistSpeedup(0.5));
}

TEST(ImageWarp, MismatchedDepthIsFatal)
{
    const Camera cam({0.5f, 0.5f, -2.0f}, {0.5f, 0.5f, 0.5f}, {0, 1, 0}, 45.0f, 8, 8);
    DepthFrame bad;
    bad.camera = cam;
    bad.color = Image(8, 8);
    bad.depth.assign(3, 1.0f); // wrong size
    EXPECT_DEATH({ (void)forwardWarp(bad, cam); }, "depth map");
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

NerfModelConfig
tinyModel()
{
    NerfModelConfig cfg;
    cfg.grid.levels = 3;
    cfg.grid.log2TableSize = 9;
    cfg.grid.baseResolution = 4;
    cfg.grid.maxResolution = 16;
    cfg.geoFeatures = 7;
    cfg.densityHidden = 8;
    cfg.colorHidden = 8;
    cfg.shDegree = 2;
    return cfg;
}

TEST(Serialize, RoundTripPreservesOutputs)
{
    NerfModel model(tinyModel(), 123);
    // Perturb weights so the round trip is non-trivial.
    Pcg32 rng(9);
    for (float &p : model.encoding().params())
        p = rng.nextRange(-1.0f, 1.0f);

    const std::string path = ::testing::TempDir() + "/f3d_model.bin";
    ASSERT_TRUE(saveModel(model, path));

    const auto field = loadField(path);
    const auto *hash_field = dynamic_cast<const HashGridServeField *>(field.get());
    ASSERT_NE(hash_field, nullptr);
    const NerfModel &loaded = hash_field->model();
    EXPECT_EQ(loaded.paramCount(), model.paramCount());

    PointWorkspace wa = model.makeWorkspace();
    PointWorkspace wb = loaded.makeWorkspace();
    for (int i = 0; i < 50; ++i) {
        const Vec3f p = rng.nextVec3();
        const Vec3f d = rng.nextUnitVector();
        const PointEval a = model.forwardPoint(p, d, wa);
        const PointEval b = loaded.forwardPoint(p, d, wb);
        EXPECT_FLOAT_EQ(a.sigma, b.sigma);
        EXPECT_EQ(a.rgb, b.rgb);
    }
}

TEST(Serialize, RejectsGarbageFiles)
{
    const std::string path = ::testing::TempDir() + "/f3d_garbage.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a model", f);
    std::fclose(f);
    EXPECT_EQ(loadField(path), nullptr);
    EXPECT_EQ(loadField("/nonexistent/path/model.bin"), nullptr);
}

/** Saves @p model and checks its footprint against the bytes on disk. */
template <class ModelT>
void
expectFootprintIsFileSize(const ModelT &model, const std::string &name)
{
    SCOPED_TRACE(name);
    const std::string path = ::testing::TempDir() + "/f3d_footprint_" + name + ".f3dm";
    ASSERT_TRUE(saveModel(model, path));
    EXPECT_EQ(modelFootprintBytes(model), std::filesystem::file_size(path));
    EXPECT_GT(modelFootprintBytes(model), model.paramCount() * sizeof(float));
    std::remove(path.c_str());
}

TEST(Serialize, FootprintMatchesParamCount)
{
    for (const QuantMode mode : {QuantMode::fp32, QuantMode::fp16, QuantMode::int8}) {
        NerfModel model(tinyModel());
        if (mode != QuantMode::fp32)
            model.setInferenceQuant(mode);
        expectFootprintIsFileSize(model, std::string("hash_grid_") + quantModeName(mode));
    }
    FreqNerfConfig freq;
    freq.posFrequencies = 3;
    freq.hidden = 8;
    freq.trunkLayers = 2;
    freq.geoFeatures = 5;
    freq.colorHidden = 8;
    expectFootprintIsFileSize(FreqNerfModel(freq), "freq_nerf");
    TensorfModelConfig tensorf;
    tensorf.densityRank = 4;
    tensorf.appearanceRank = 4;
    tensorf.lineResolution = 16;
    tensorf.appearanceDim = 4;
    tensorf.colorHidden = 8;
    expectFootprintIsFileSize(TensorfModel(tensorf), "tensorf");
}

} // namespace
} // namespace fusion3d::nerf
