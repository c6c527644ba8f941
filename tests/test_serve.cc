/** @file Tests of the serving subsystem: bit-exact parallel tiled
 *  rendering (against the single-threaded tiled path, a traceRays row
 *  loop and Trainer::renderView), the model registry, admission
 *  control, deadline shedding, the warp-degrade rung, and the
 *  drain/stats contract. Expected to pass under
 *  -DFUSION3D_SANITIZE=thread. */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "nerf/parallel_render.h"
#include "nerf/pipeline.h"
#include "nerf/serialize.h"
#include "nerf/tensorf.h"
#include "nerf/trainer.h"
#include "scenes/dataset_gen.h"
#include "scenes/factory.h"
#include "ray_oracle.h"
#include "serve/model_registry.h"
#include "serve/reproject.h"
#include "serve/scheduler.h"

namespace fusion3d::serve
{
namespace
{

nerf::NerfModelConfig
tinyModelConfig()
{
    nerf::NerfModelConfig cfg;
    cfg.grid.levels = 4;
    cfg.grid.featuresPerLevel = 2;
    cfg.grid.log2TableSize = 9;
    cfg.grid.baseResolution = 4;
    cfg.grid.maxResolution = 32;
    cfg.geoFeatures = 7;
    cfg.densityHidden = 16;
    cfg.colorHidden = 16;
    cfg.shDegree = 2;
    return cfg;
}

nerf::Camera
testCamera(int size = 32)
{
    return nerf::Camera::orbit({0.5f, 0.5f, 0.5f}, 1.4f, 35.0f, 20.0f, 45.0f,
                               size, size);
}

void
expectImagesIdentical(const Image &a, const Image &b)
{
    ASSERT_EQ(a.width(), b.width());
    ASSERT_EQ(a.height(), b.height());
    for (int y = 0; y < a.height(); ++y) {
        for (int x = 0; x < a.width(); ++x) {
            const Vec3f pa = a.at(x, y);
            const Vec3f pb = b.at(x, y);
            ASSERT_EQ(pa.x, pb.x) << "(" << x << "," << y << ")";
            ASSERT_EQ(pa.y, pb.y) << "(" << x << "," << y << ")";
            ASSERT_EQ(pa.z, pb.z) << "(" << x << "," << y << ")";
        }
    }
}

TEST(ParallelRender, TiledIsBitIdenticalToSingleThread)
{
    const nerf::NerfModel model(tinyModelConfig(), /*seed=*/21);
    const nerf::OccupancyGrid grid(12); // fresh grid: everything occupied
    const nerf::Camera cam = testCamera();

    nerf::TiledRenderConfig rc;
    rc.sampler.maxSamplesPerRay = 16;
    rc.rowsPerTile = 3;

    const Image serial = nerf::renderImageTiled(nerf::HashGridServeField(model), &grid, cam, rc, nullptr);
    ThreadPool pool(3);
    const Image parallel = nerf::renderImageTiled(nerf::HashGridServeField(model), &grid, cam, rc, &pool);
    expectImagesIdentical(serial, parallel);
}

TEST(ParallelRender, ReusedWorkspaceIsBitExactAcrossModelConfigs)
{
    // A render thread reuses one batch workspace per backend and
    // rebuilds it only for a model of another config: interleaving a
    // small and a larger model on one thread must render each exactly
    // as a thread that has seen only that model.
    nerf::NerfModelConfig wide = tinyModelConfig();
    wide.grid.levels = 6;
    wide.densityHidden = 24;
    const nerf::NerfModel small_model(tinyModelConfig(), /*seed=*/23);
    const nerf::NerfModel wide_model(wide, /*seed=*/24);
    const nerf::NerfModel small_twin(tinyModelConfig(), /*seed=*/25);
    const nerf::Camera cam = testCamera(20);
    nerf::TiledRenderConfig rc;
    rc.sampler.maxSamplesPerRay = 16;

    const auto render = [&](const nerf::NerfModel &m) {
        return nerf::renderImageTiled(nerf::HashGridServeField(m), nullptr, cam, rc, nullptr);
    };
    const auto renderOnFreshThread = [&](const nerf::NerfModel &m) {
        Image out;
        std::thread([&] { out = render(m); }).join();
        return out;
    };

    const Image small_ref = renderOnFreshThread(small_model);
    const Image wide_ref = renderOnFreshThread(wide_model);
    const Image twin_ref = renderOnFreshThread(small_twin);
    expectImagesIdentical(render(small_model), small_ref);
    expectImagesIdentical(render(wide_model), wide_ref);
    expectImagesIdentical(render(small_twin), twin_ref);
    expectImagesIdentical(render(small_model), small_ref);
}

TEST(ParallelRender, JitteredTilesAreThreadCountInvariant)
{
    const nerf::NerfModel model(tinyModelConfig(), /*seed=*/22);
    const nerf::Camera cam = testCamera();

    nerf::TiledRenderConfig rc;
    rc.sampler.maxSamplesPerRay = 16;
    rc.sampler.jitter = true; // per-row streams keep this deterministic
    rc.seed = 5;
    rc.rowsPerTile = 1;

    const Image serial = nerf::renderImageTiled(nerf::HashGridServeField(model), nullptr, cam, rc, nullptr);
    ThreadPool pool(4);
    const Image parallel = nerf::renderImageTiled(nerf::HashGridServeField(model), nullptr, cam, rc, &pool);
    expectImagesIdentical(serial, parallel);
}

/** The training path's render: a pipeline's traceRays, one ray batch
 *  per image row, row y drawing jitter from
 *  Pcg32(seed + y, kRowJitterStream). */
Image
traceRowLoop(nerf::NerfPipeline &pipe, const nerf::Camera &cam, std::uint64_t seed)
{
    Image out(cam.width(), cam.height());
    std::vector<Ray> rays(static_cast<std::size_t>(cam.width()));
    std::vector<nerf::RayEval> evals(rays.size());
    for (int y = 0; y < cam.height(); ++y) {
        Pcg32 row_rng(seed + static_cast<std::uint64_t>(y), nerf::kRowJitterStream);
        for (int x = 0; x < cam.width(); ++x)
            rays[static_cast<std::size_t>(x)] = cam.rayForPixel(x, y);
        pipe.traceRays(rays, row_rng, /*record=*/false, evals);
        for (int x = 0; x < cam.width(); ++x)
            out.at(x, y) = clamp(evals[static_cast<std::size_t>(x)].color, 0.0f, 1.0f);
    }
    return out;
}

TEST(ParallelRender, MatchesTraceRaysAndTrainerRenderView)
{
    // The reference is the training path's traceRays row loop. Jitter
    // off makes the comparison exact, both for a tiled render on a pool
    // and for the Trainer's eval render without one.
    nerf::PipelineConfig pc;
    pc.model = tinyModelConfig();
    pc.sampler.maxSamplesPerRay = 16;
    pc.sampler.jitter = false;
    pc.occupancyResolution = 12;
    nerf::NerfPipeline pipe(pc);

    const nerf::Camera cam = testCamera();
    const Image reference = traceRowLoop(pipe, cam, /*seed=*/0);

    nerf::TiledRenderConfig rc;
    rc.sampler = pc.sampler;
    rc.render = pc.render;
    ThreadPool pool(3);
    const Image tiled =
        nerf::renderImageTiled(nerf::HashGridServeField(pipe.model()), &pipe.grid(), cam, rc, &pool);
    expectImagesIdentical(reference, tiled);

    nerf::Dataset data;
    data.train.push_back({cam, Image(cam.width(), cam.height())});
    nerf::Trainer trainer(pipe, data, nerf::TrainerConfig{});
    expectImagesIdentical(reference, trainer.renderView(cam));

    // Jitter on: row y of a full-width tiled render draws from the same
    // per-row stream as row y of the traceRays loop, whatever the
    // tiling and pool.
    pc.sampler.jitter = true;
    nerf::NerfPipeline jittered(pc); // same seed -> same weights
    constexpr std::uint64_t kSeed = 9;
    rc.sampler = pc.sampler;
    rc.seed = kSeed;
    expectImagesIdentical(traceRowLoop(jittered, cam, kSeed),
                          nerf::renderImageTiled(nerf::HashGridServeField(jittered.model()),
                                                 &jittered.grid(), cam, rc, &pool));
}

/** renderDepthFrameTiled's depth map, pixel by pixel, against the
 *  scalar oracle's sum_i w_i * t_i + T * t_far. */
template <class FieldT, class PipelineT>
void
expectDepthFrameMatchesOracle(PipelineT &pipe)
{
    const nerf::Camera cam = testCamera();
    nerf::TiledRenderConfig rc;
    rc.sampler = pipe.config().sampler;
    rc.sampler.jitter = false;
    rc.render = pipe.config().render;
    ThreadPool pool(3);
    const nerf::DepthFrame frame =
        nerf::renderDepthFrameTiled(FieldT(pipe.model()), &pipe.grid(), cam, rc, &pool);

    Pcg32 rng(0);
    int surface_pixels = 0;
    for (int y = 0; y < cam.height(); ++y) {
        for (int x = 0; x < cam.width(); ++x) {
            const nerf::oracle::TracedRay tr =
                nerf::oracle::oracleForward(pipe, cam.rayForPixel(x, y), rng);
            const float ref = nerf::oracle::oracleDepth(tr, rc.render, rc.farDepth);
            ASSERT_EQ(frame.depth[static_cast<std::size_t>(y) * cam.width() + x], ref)
                << "(" << x << "," << y << ")";
            if (ref < rc.farDepth - 0.1f)
                ++surface_pixels;
        }
    }
    // The map is not the trivial all-far one.
    EXPECT_GT(surface_pixels, 0);
}

TEST(ParallelRender, DepthFrameMatchesScalarOracleHashGrid)
{
    nerf::PipelineConfig pc;
    pc.model = tinyModelConfig();
    pc.sampler.maxSamplesPerRay = 16;
    pc.sampler.jitter = false;
    pc.occupancyResolution = 12;
    nerf::NerfPipeline pipe(pc);
    expectDepthFrameMatchesOracle<nerf::HashGridServeField>(pipe);
}

TEST(ParallelRender, DepthFrameMatchesScalarOracleTensorf)
{
    nerf::TensorfPipelineConfig tc;
    tc.model.densityRank = 6;
    tc.model.appearanceRank = 8;
    tc.model.lineResolution = 48;
    tc.model.appearanceDim = 8;
    tc.model.colorHidden = 16;
    tc.sampler.maxSamplesPerRay = 24;
    tc.sampler.jitter = false;
    tc.occupancyResolution = 16;
    nerf::TensorfPipeline pipe(tc);
    expectDepthFrameMatchesOracle<nerf::TensorfServeField>(pipe);
}

TEST(ModelRegistry, DeploysFromArtifactFile)
{
    nerf::NerfModel model(tinyModelConfig(), /*seed=*/77);
    model.occupancy() = nerf::OccupancyGrid(8);
    const std::string path = testing::TempDir() + "registry_model.f3dm";
    ASSERT_TRUE(nerf::saveModel(model, path));

    ModelRegistry registry;
    EXPECT_EQ(registry.addFromFile("hotdog", path), nerf::LoadStatus::ok);
    EXPECT_EQ(registry.size(), 1u);

    const ModelEntry *entry = registry.find("hotdog");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->model->paramCount(), model.paramCount());
    EXPECT_EQ(entry->grid.resolution(), 8);
    EXPECT_EQ(registry.find("missing"), nullptr);

    EXPECT_EQ(registry.addFromFile("broken", testing::TempDir() + "nope.f3dm"),
              nerf::LoadStatus::ioError);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(ModelRegistry, ServesTheGateTheModelTrained)
{
    // Train a small pipeline, then prune part of its gate, so it is a
    // gate no density pass over the weights would rebuild. Every deploy
    // path must serve exactly that gate, and so render exactly what the
    // pipeline renders.
    const auto scene = scenes::makeSyntheticScene("mic");
    scenes::DatasetConfig dc = scenes::syntheticRig(12);
    dc.trainViews = 4;
    dc.testViews = 1;
    dc.reference.steps = 48;
    const nerf::Dataset data = scenes::makeDataset(*scene, dc);

    nerf::PipelineConfig pc;
    pc.model = tinyModelConfig();
    pc.sampler.maxSamplesPerRay = 16;
    pc.occupancyResolution = 12;
    nerf::NerfPipeline pipe(pc);
    nerf::TrainerConfig tc;
    tc.iterations = 8;
    tc.raysPerBatch = 64;
    tc.occupancyWarmup = 2;
    tc.occupancyUpdateEvery = 2;
    nerf::Trainer trainer(pipe, data, tc);
    trainer.run();
    pipe.grid().maskRegion([](const Vec3f &p) { return p.y >= 0.45f; });
    ASSERT_GT(pipe.grid().occupiedFraction(), 0.0);
    ASSERT_LT(pipe.grid().occupiedFraction(), 1.0);

    const std::string path = testing::TempDir() + "trained_gate.f3dm";
    ASSERT_TRUE(nerf::saveModel(pipe.model(), path));
    ModelRegistry registry;
    ASSERT_EQ(registry.addFromFile("file", path), nerf::LoadStatus::ok);
    registry.add("field", nerf::loadField(path));
    auto copy = std::make_unique<nerf::NerfModel>(tinyModelConfig(), /*seed=*/1);
    ASSERT_TRUE(nerf::loadInto(*copy, pipe.model()));
    registry.add("model", std::move(copy));

    const std::uint64_t seed = 3;
    const nerf::Camera cam = testCamera(24);
    Image want;
    pipe.renderView(cam, seed, want);
    nerf::TiledRenderConfig rc;
    rc.sampler = pc.sampler;
    rc.sampler.jitter = false;
    rc.render = pc.render;
    rc.seed = seed;
    ThreadPool pool(2);
    // The pruned cells matter: an all-occupied gate renders differently.
    const nerf::OccupancyGrid all_occupied(12);
    const Image ungated = nerf::renderImageTiled(nerf::HashGridServeField(pipe.model()),
                                                 &all_occupied, cam, rc, &pool);
    ASSERT_NE(mse(want, ungated), 0.0);

    for (const char *name : {"file", "field", "model"}) {
        SCOPED_TRACE(name);
        const ModelEntry *entry = registry.find(name);
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(entry->grid.resolution(), 12);
        EXPECT_EQ(entry->grid.packedBits(), pipe.grid().packedBits());
        expectImagesIdentical(
            nerf::renderImageTiled(*entry->model, &entry->grid, cam, rc, &pool), want);
    }

    // A quantized entry packs its weights but keeps the gate the fp32
    // model learned.
    for (const QuantMode mode : {QuantMode::fp16, QuantMode::int8}) {
        RegistryConfig qc;
        qc.quantMode = mode;
        ModelRegistry quantized(qc);
        ASSERT_EQ(quantized.addFromFile("q", path), nerf::LoadStatus::ok);
        const ModelEntry *entry = quantized.find("q");
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(entry->quant, mode);
        EXPECT_EQ(entry->grid.packedBits(), pipe.grid().packedBits());
    }
}

TEST(RenderServer, ServesFullResolutionBitExact)
{
    ModelRegistry registry;
    registry.add("m", std::make_unique<nerf::NerfModel>(tinyModelConfig(), 5));
    const ModelEntry *entry = registry.find("m");

    ServeConfig sc;
    sc.renderThreads = 2;
    sc.render.sampler.maxSamplesPerRay = 16;

    RenderServer server(registry, sc);
    RenderRequest req;
    req.model = "m";
    req.camera = testCamera();
    auto future = server.submit(req);
    const RenderResponse resp = future.get();

    EXPECT_EQ(resp.outcome, Outcome::renderedFull);
    EXPECT_GT(resp.id, 0u);
    EXPECT_GE(resp.latencyMs, 0.0);

    // End-to-end determinism: the served frame equals a direct tiled
    // render with the same configuration.
    const Image direct = nerf::renderImageTiled(*entry->model, &entry->grid,
                                                req.camera, sc.render, nullptr);
    expectImagesIdentical(resp.image, direct);

    server.shutdown();
    EXPECT_EQ(server.stats().count(Outcome::renderedFull), 1u);
    EXPECT_EQ(server.stats().completed(), server.stats().submitted());
}

TEST(RenderServer, RequestIdsAreUniqueAcrossServers)
{
    // Request ids key trace trees, flight-recorder entries and SLO
    // windows, so two live servers in one process must never hand out
    // the same id.
    ModelRegistry registry;
    registry.add("m", std::make_unique<nerf::NerfModel>(tinyModelConfig(), 5));
    ServeConfig sc;
    sc.renderThreads = 1;
    sc.render.sampler.maxSamplesPerRay = 8;
    RenderServer first(registry, sc);
    RenderServer second(registry, sc);

    RenderRequest req;
    req.model = "m";
    req.camera = testCamera(8);
    std::vector<std::future<RenderResponse>> futures;
    for (int i = 0; i < 4; ++i) {
        futures.push_back(first.submit(req));
        futures.push_back(second.submit(req));
    }
    std::set<std::uint64_t> ids;
    for (auto &future : futures) {
        const RenderResponse resp = future.get();
        EXPECT_TRUE(ids.insert(resp.id).second) << "duplicate request id " << resp.id;
    }
    EXPECT_EQ(ids.size(), futures.size());
    first.shutdown();
    second.shutdown();
}

TEST(RenderServer, ServesTensorfArtifactEndToEnd)
{
    // Backend polymorphism through the whole serve path: a TensoRF
    // model saved as an artifact deploys through the registry and
    // serves bit-exactly against a direct tiled render of the original.
    nerf::TensorfModelConfig mc;
    mc.densityRank = 6;
    mc.appearanceRank = 8;
    mc.lineResolution = 48;
    mc.appearanceDim = 8;
    mc.colorHidden = 16;
    const nerf::TensorfModel model(mc, /*seed=*/33);
    const std::string path = testing::TempDir() + "serve_tensorf.f3dm";
    ASSERT_TRUE(nerf::saveModel(model, path));

    ModelRegistry registry;
    ASSERT_EQ(registry.addFromFile("vt", path), nerf::LoadStatus::ok);
    const ModelEntry *entry = registry.find("vt");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->model->kind(), nerf::BackendKind::tensorf);
    EXPECT_EQ(entry->model->paramCount(), model.paramCount());

    ServeConfig sc;
    sc.renderThreads = 2;
    sc.render.sampler.maxSamplesPerRay = 16;
    RenderServer server(registry, sc);
    RenderRequest req;
    req.model = "vt";
    req.camera = testCamera();
    const RenderResponse resp = server.submit(req).get();
    ASSERT_EQ(resp.outcome, Outcome::renderedFull);

    const Image direct = nerf::renderImageTiled(*entry->model, &entry->grid,
                                                req.camera, sc.render, nullptr);
    expectImagesIdentical(resp.image, direct);
    server.shutdown();
}

TEST(RenderServer, RejectsUnknownModel)
{
    ModelRegistry registry;
    RenderServer server(registry, ServeConfig{});
    RenderRequest req;
    req.model = "ghost";
    req.camera = testCamera(8);
    EXPECT_EQ(server.submit(req).get().outcome, Outcome::rejectedUnknownModel);
}

TEST(RenderServer, ExpiredDeadlineIsShedNotBlocked)
{
    ModelRegistry registry;
    registry.add("m", std::make_unique<nerf::NerfModel>(tinyModelConfig(), 5));

    ServeConfig sc;
    sc.renderThreads = 1;
    sc.render.sampler.maxSamplesPerRay = 16;
    RenderServer server(registry, sc);

    RenderRequest req;
    req.model = "m";
    req.camera = testCamera();
    req.deadline = Clock::now() - std::chrono::milliseconds(1);
    const RenderResponse resp = server.submit(req).get();
    EXPECT_EQ(resp.outcome, Outcome::rejectedDeadline);
    EXPECT_TRUE(resp.image.empty());
    EXPECT_EQ(server.stats().shed(), 1u);
}

/** A server whose cost estimate, once the first frame has set it,
 *  affords no ray-marched pixel before any finite deadline: stateless
 *  requests and session misses are shed, and session hits reach the
 *  warp-degrade rung. */
ServeConfig
warpRungConfig()
{
    ServeConfig sc;
    sc.renderThreads = 1;
    sc.render.sampler.maxSamplesPerRay = 16;
    sc.estimateHeadroom = 1e12;
    return sc;
}

RenderRequest
deadlineRequest(const std::string &model, float azim,
                const std::string &session = "")
{
    RenderRequest req;
    req.model = model;
    req.camera = nerf::Camera::orbit({0.5f, 0.5f, 0.5f}, 1.4f, azim, 20.0f, 45.0f,
                                     32, 32);
    req.deadline = Clock::now() + std::chrono::seconds(60);
    req.session = session;
    return req;
}

TEST(RenderServer, WarpRungServesSameEpochFrame)
{
    ModelRegistry registry;
    registry.add("m", std::make_unique<nerf::NerfModel>(tinyModelConfig(), 5));
    RenderServer server(registry, warpRungConfig());

    // No estimate yet: the first frame renders full and becomes the
    // session's keyframe.
    EXPECT_EQ(server.submit(deadlineRequest("m", 35.0f, "viewer")).get().outcome,
              Outcome::renderedFull);
    ASSERT_GT(server.estimatedSecondsPerPixel(), 0.0);

    const RenderResponse warped =
        server.submit(deadlineRequest("m", 36.0f, "viewer")).get();
    EXPECT_EQ(warped.outcome, Outcome::renderedWarp);
    EXPECT_EQ(warped.image.width(), 32);
    EXPECT_EQ(warped.image.height(), 32);
    server.shutdown();
    EXPECT_EQ(server.stats().count(Outcome::renderedWarp), 1u);
}

TEST(RenderServer, WarpRungNeverServesReplacedModel)
{
    ModelRegistry registry;
    registry.add("m", std::make_unique<nerf::NerfModel>(tinyModelConfig(), 5));
    RenderServer server(registry, warpRungConfig());
    EXPECT_EQ(server.submit(deadlineRequest("m", 35.0f, "viewer")).get().outcome,
              Outcome::renderedFull);

    // Hot-swap: the cached frame shows the replaced model. With no
    // rung left that fits the budget, the request is shed rather than
    // served from the old model's frame.
    registry.add("m", std::make_unique<nerf::NerfModel>(tinyModelConfig(), 99));
    ASSERT_EQ(registry.epoch("m"), 2u);
    const RenderResponse after =
        server.submit(deadlineRequest("m", 36.0f, "viewer")).get();
    EXPECT_EQ(after.outcome, Outcome::rejectedDeadline);
    EXPECT_TRUE(after.image.empty());
    server.shutdown();
    EXPECT_EQ(server.stats().count(Outcome::renderedWarp), 0u);
}

TEST(RenderServer, WarpRungNeverServesStatelessRequest)
{
    ModelRegistry registry;
    registry.add("m", std::make_unique<nerf::NerfModel>(tinyModelConfig(), 5));
    RenderServer server(registry, warpRungConfig());
    EXPECT_EQ(server.submit(deadlineRequest("m", 35.0f)).get().outcome,
              Outcome::renderedFull);

    // A stateless request has no keyframe of its own; a frame rendered
    // for another request of the same model is never warped into it.
    const RenderResponse after = server.submit(deadlineRequest("m", 36.0f)).get();
    EXPECT_EQ(after.outcome, Outcome::rejectedDeadline);
    EXPECT_TRUE(after.image.empty());
    server.shutdown();
    EXPECT_EQ(server.stats().count(Outcome::renderedWarp), 0u);
}

TEST(RenderServer, WarpRungServesUnaffordableFallbackAsWarp)
{
    ModelRegistry registry;
    registry.add("m", std::make_unique<nerf::NerfModel>(tinyModelConfig(), 5));
    const ModelEntry *entry = registry.find("m");
    const ServeConfig sc = warpRungConfig();
    RenderServer server(registry, sc);
    EXPECT_EQ(server.submit(deadlineRequest("m", 35.0f, "viewer")).get().outcome,
              Outcome::renderedFull);

    // A 90 degree turn leaves too few tiles to reproject: without a
    // deadline this frame would fall back to a full render.
    const RenderRequest req = deadlineRequest("m", 125.0f, "viewer");
    const nerf::DepthFrame keyframe = nerf::renderDepthFrameTiled(
        *entry->model, &entry->grid, testCamera(), sc.render, nullptr);
    SessionFrame prev;
    prev.frame = std::make_shared<const nerf::DepthFrame>(keyframe);
    prev.tileSize = sc.reproject.tileSize;
    prev.tileAge = freshTileAges(req.camera, sc.reproject.tileSize,
                                 sc.reproject.maxTileAge);
    const ReprojectOutput unconstrained =
        reprojectRender(*entry->model, &entry->grid, req.camera, prev,
                        sc.render, sc.reproject, nullptr);
    ASSERT_FALSE(unconstrained.stats.reprojected);
    ASSERT_STREQ(unconstrained.stats.fallback, "coverage");

    // The deadline cannot afford that render, so the keyframe's warp is
    // served alone at full resolution, holes painted background.
    const RenderResponse warped = server.submit(req).get();
    EXPECT_EQ(warped.outcome, Outcome::renderedWarp);
    nerf::WarpOptions wopt;
    wopt.depthTolerance = sc.reproject.depthTolerance;
    nerf::WarpResult expected = nerf::forwardWarp(keyframe, req.camera, wopt);
    ASSERT_LT(expected.coverage, 1.0);
    for (int y = 0; y < 32; ++y)
        for (int x = 0; x < 32; ++x)
            if (!expected.covered[static_cast<std::size_t>(y) * 32 + x])
                expected.image.at(x, y) = sc.render.render.background;
    expectImagesIdentical(warped.image, expected.image);
    server.shutdown();
    EXPECT_EQ(server.stats().count(Outcome::renderedWarp), 1u);
    EXPECT_EQ(server.stats().count(Outcome::renderedFull), 1u);
}

TEST(RenderServer, OverloadShedsAtAdmissionAndDrainsClean)
{
    ModelRegistry registry;
    registry.add("m", std::make_unique<nerf::NerfModel>(tinyModelConfig(), 5));

    ServeConfig sc;
    sc.renderThreads = 1;
    sc.queueCapacity = 2;
    sc.maxInFlight = 1;
    sc.render.sampler.maxSamplesPerRay = 16;
    RenderServer server(registry, sc);

    constexpr int kRequests = 24;
    std::vector<std::future<RenderResponse>> futures;
    for (int i = 0; i < kRequests; ++i) {
        RenderRequest req;
        req.model = "m";
        req.camera = testCamera();
        futures.push_back(server.submit(req));
    }

    int queue_full = 0, rendered = 0;
    for (auto &f : futures) {
        const RenderResponse r = f.get();
        queue_full += r.outcome == Outcome::rejectedQueueFull ? 1 : 0;
        rendered += isRejected(r.outcome) ? 0 : 1;
    }
    EXPECT_GT(queue_full, 0) << "a 2-deep queue must reject a 24-burst";
    EXPECT_GT(rendered, 0);

    server.drain();
    EXPECT_EQ(server.stats().completed(), server.stats().submitted());
    EXPECT_EQ(server.stats().count(Outcome::rejectedQueueFull),
              static_cast<std::uint64_t>(queue_full));
    EXPECT_EQ(server.queueDepth(), 0u);

    std::ostringstream os;
    server.drainAndPrintStats(os);
    EXPECT_NE(os.str().find("serve.rejected_queue_full"), std::string::npos);
    EXPECT_NE(os.str().find("serve.latency_ms"), std::string::npos);
}

TEST(RenderServer, RemoveDuringTrafficDrainsClean)
{
    // Unload-during-traffic lifecycle: a model is removed from the
    // registry while a client is mid-burst. In-flight renders hold
    // their pinned entry and complete; requests resolved after the
    // removal come back rejectedUnknownModel; nothing crashes, hangs,
    // or trips TSan.
    ModelRegistry registry;
    registry.add("doomed",
                 std::make_unique<nerf::NerfModel>(tinyModelConfig(), 5));
    registry.add("stays",
                 std::make_unique<nerf::NerfModel>(tinyModelConfig(), 6));

    ServeConfig sc;
    sc.renderThreads = 2;
    sc.render.sampler.maxSamplesPerRay = 8;
    RenderServer server(registry, sc);

    constexpr int kRequests = 16;
    std::vector<std::future<RenderResponse>> futures;
    for (int i = 0; i < kRequests; ++i) {
        RenderRequest req;
        req.model = i % 2 == 0 ? "doomed" : "stays";
        req.camera = testCamera(16);
        futures.push_back(server.submit(req));
        if (i == kRequests / 2) {
            EXPECT_TRUE(registry.removeModel("doomed"));
        }
    }

    int rendered = 0, unknown = 0;
    for (auto &f : futures) {
        const RenderResponse r = f.get();
        ASSERT_TRUE(!isRejected(r.outcome) ||
                    r.outcome == Outcome::rejectedUnknownModel)
            << outcomeName(r.outcome);
        rendered += isRejected(r.outcome) ? 0 : 1;
        unknown += r.outcome == Outcome::rejectedUnknownModel ? 1 : 0;
    }
    // The surviving model must have served its whole half.
    EXPECT_GE(rendered, kRequests / 2);
    EXPECT_EQ(rendered + unknown, kRequests);

    // Removed for good: no artifact path remembered, so a new request
    // is an unknown model, not a reload.
    RenderRequest req;
    req.model = "doomed";
    req.camera = testCamera(16);
    EXPECT_EQ(server.submit(req).get().outcome, Outcome::rejectedUnknownModel);

    server.drain();
    EXPECT_EQ(server.stats().completed(), server.stats().submitted());
    EXPECT_FALSE(registry.removeModel("never-registered"));
}

TEST(RenderServer, PriorityOrdersTheQueue)
{
    RequestQueue queue(8);
    for (int i = 0; i < 4; ++i) {
        QueuedRequest qr;
        qr.request.model = "m";
        qr.request.priority = i; // ascending: later pushes more urgent
        qr.id = static_cast<std::uint64_t>(i);
        ASSERT_EQ(queue.push(std::move(qr)), PushResult::ok);
    }
    std::vector<QueuedRequest> batch;
    ASSERT_TRUE(queue.popBatch(batch, 8));
    ASSERT_EQ(batch.size(), 4u);
    EXPECT_EQ(batch.front().request.priority, 3); // highest first
    EXPECT_EQ(batch.back().request.priority, 0);
}

TEST(RenderServer, QueueBatchesOnlyCompatibleRequests)
{
    RequestQueue queue(8);
    const char *models[] = {"a", "b", "a", "a", "b"};
    for (const char *m : models) {
        QueuedRequest qr;
        qr.request.model = m;
        ASSERT_EQ(queue.push(std::move(qr)), PushResult::ok);
    }
    std::vector<QueuedRequest> batch;
    ASSERT_TRUE(queue.popBatch(batch, 8));
    ASSERT_EQ(batch.size(), 3u); // the three 'a's, batched together
    for (const QueuedRequest &qr : batch)
        EXPECT_EQ(qr.request.model, "a");
    ASSERT_TRUE(queue.popBatch(batch, 8));
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(queue.depth(), 0u);
}

} // namespace
} // namespace fusion3d::serve
