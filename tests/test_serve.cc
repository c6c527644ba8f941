/** @file Tests of the serving subsystem: bit-exact parallel tiled
 *  rendering (against both the single-threaded tiled path and the
 *  existing Trainer::renderView), the model registry, admission
 *  control, deadline shedding, and the drain/stats contract. Expected
 *  to pass under -DFUSION3D_SANITIZE=thread. */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <sstream>
#include <vector>

#include "common/thread_pool.h"
#include "nerf/parallel_render.h"
#include "nerf/pipeline.h"
#include "nerf/serialize.h"
#include "nerf/tensorf.h"
#include "nerf/trainer.h"
#include "serve/model_registry.h"
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

TEST(ParallelRender, MatchesTrainerRenderView)
{
    // The legacy single-threaded path: a pipeline rendered through the
    // Trainer. Jitter off on both sides makes the comparison exact.
    nerf::PipelineConfig pc;
    pc.model = tinyModelConfig();
    pc.sampler.maxSamplesPerRay = 16;
    pc.sampler.jitter = false;
    pc.occupancyResolution = 12;
    nerf::NerfPipeline pipe(pc);

    const nerf::Camera cam = testCamera();
    nerf::Dataset data;
    data.train.push_back({cam, Image(cam.width(), cam.height())});
    nerf::Trainer trainer(pipe, data, nerf::TrainerConfig{});
    const Image reference = trainer.renderView(cam);

    nerf::TiledRenderConfig rc;
    rc.sampler = pc.sampler;
    rc.render = pc.render;
    ThreadPool pool(3);
    const Image tiled =
        nerf::renderImageTiled(nerf::HashGridServeField(pipe.model()), &pipe.grid(), cam, rc, &pool);
    expectImagesIdentical(reference, tiled);
}

TEST(ModelRegistry, DeploysFromArtifactFile)
{
    const nerf::NerfModel model(tinyModelConfig(), /*seed=*/77);
    const std::string path = testing::TempDir() + "registry_model.f3dm";
    ASSERT_TRUE(nerf::saveModel(model, path));

    ModelRegistry registry(/*occupancy_resolution=*/8);
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

TEST(RenderServer, ServesFullResolutionBitExact)
{
    ModelRegistry registry(8);
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

TEST(RenderServer, ServesTensorfV3ArtifactEndToEnd)
{
    // Backend polymorphism through the whole serve path: a TensoRF
    // model saved as a v3 artifact deploys through the registry and
    // serves bit-exactly against a direct tiled render of the original.
    nerf::TensorfModelConfig mc;
    mc.densityRank = 6;
    mc.appearanceRank = 8;
    mc.lineResolution = 48;
    mc.appearanceDim = 8;
    mc.colorHidden = 16;
    const nerf::TensorfModel model(mc, /*seed=*/33);
    const nerf::TensorfServeField field(model);
    const std::string path = testing::TempDir() + "serve_tensorf.f3dm";
    ASSERT_TRUE(nerf::saveField(field, path));

    ModelRegistry registry(/*occupancy_resolution=*/8);
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
    ModelRegistry registry(8);
    RenderServer server(registry, ServeConfig{});
    RenderRequest req;
    req.model = "ghost";
    req.camera = testCamera(8);
    EXPECT_EQ(server.submit(req).get().outcome, Outcome::rejectedUnknownModel);
}

TEST(RenderServer, ExpiredDeadlineIsShedNotBlocked)
{
    ModelRegistry registry(8);
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

TEST(RenderServer, OverloadShedsAtAdmissionAndDrainsClean)
{
    ModelRegistry registry(8);
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
    ModelRegistry registry(8);
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
