/** @file Tests of the temporal reprojection render cache: per-tile warp
 *  statistics and the depth-consistency signal, tile invalidation
 *  correctness, the PSNR and rays-saved bounds of reprojected frames on
 *  an orbiting trace, session-store TTL/LRU eviction, stale-epoch
 *  invalidation across a model hot-swap, cold-cache bit-exactness, and
 *  the chaos fallback (a faulted tile pass degrades to a full render,
 *  never a hole). Expected to pass under -DFUSION3D_SANITIZE=thread. */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "nerf/image_warp.h"
#include "nerf/parallel_render.h"
#include "serve/model_registry.h"
#include "serve/reproject.h"
#include "serve/scheduler.h"
#include "serve/session.h"

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
orbitCamera(float azim_deg, int size)
{
    return nerf::Camera::orbit({0.5f, 0.5f, 0.5f}, 1.4f, azim_deg, 20.0f, 45.0f,
                               size, size);
}

/** A flat-depth synthetic frame whose colors encode pixel position. */
nerf::DepthFrame
syntheticFrame(const nerf::Camera &cam, float depth = 1.4f)
{
    nerf::DepthFrame frame;
    frame.camera = cam;
    frame.color = Image(cam.width(), cam.height());
    frame.depth.assign(
        static_cast<std::size_t>(cam.width()) * cam.height(), depth);
    for (int y = 0; y < cam.height(); ++y)
        for (int x = 0; x < cam.width(); ++x)
            frame.color.at(x, y) =
                Vec3f(static_cast<float>(x) / cam.width(),
                      static_cast<float>(y) / cam.height(), 0.5f);
    return frame;
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

SessionFrame
sessionFrameOf(nerf::DepthFrame frame, std::vector<std::uint16_t> ages,
               int tile_size, const std::string &model = "m",
               std::uint64_t epoch = 1)
{
    SessionFrame sf;
    sf.frame = std::make_shared<const nerf::DepthFrame>(std::move(frame));
    sf.model = model;
    sf.epoch = epoch;
    sf.tileSize = tile_size;
    sf.tileAge = std::move(ages);
    return sf;
}

// ---------------------------------------------------------------------------
// image_warp: per-tile coverage and the depth-consistency signal.

TEST(WarpTileStats, IdentityWarpCoversEveryTile)
{
    const nerf::Camera cam = orbitCamera(30.0f, 64);
    const nerf::DepthFrame frame = syntheticFrame(cam);
    const nerf::WarpResult warped = nerf::forwardWarp(frame, cam);
    EXPECT_DOUBLE_EQ(warped.coverage, 1.0);

    const nerf::WarpTileStats tiles = nerf::warpTileStats(warped, 16);
    EXPECT_EQ(tiles.tilesX, 4);
    EXPECT_EQ(tiles.tilesY, 4);
    ASSERT_EQ(tiles.coverage.size(), 16u);
    for (const double c : tiles.coverage)
        EXPECT_DOUBLE_EQ(c, 1.0);
    for (const double c : tiles.conflict)
        EXPECT_DOUBLE_EQ(c, 0.0);

    // The identity warp reproduces the frame and its depth map: the
    // warped frame is itself a valid DepthFrame source.
    for (int y = 1; y < cam.height() - 1; ++y) {
        for (int x = 1; x < cam.width() - 1; ++x) {
            const std::size_t idx =
                static_cast<std::size_t>(y) * cam.width() + x;
            ASSERT_TRUE(warped.covered[idx]);
            EXPECT_NEAR(warped.depth[idx], 1.4f, 1e-3f);
        }
    }
}

TEST(WarpTileStats, MotionUncoversBorderTilesOnly)
{
    const int size = 64;
    const nerf::Camera cam0 = orbitCamera(30.0f, size);
    const nerf::Camera cam1 = orbitCamera(33.0f, size);
    const nerf::DepthFrame frame = syntheticFrame(cam0);
    const nerf::WarpResult warped = nerf::forwardWarp(frame, cam1);

    EXPECT_LT(warped.coverage, 1.0);
    EXPECT_GT(warped.coverage, 0.8);

    const nerf::WarpTileStats tiles = nerf::warpTileStats(warped, 16);
    // Global coverage is the pixel-weighted mean of the per-tile
    // coverages (all tiles are full 16x16 here).
    double mean = 0.0;
    for (const double c : tiles.coverage)
        mean += c;
    mean /= tiles.tiles();
    EXPECT_NEAR(mean, warped.coverage, 1e-9);

    // Interior tiles stay fully covered; the uncovered strip is at the
    // image border in the direction the content moved from.
    int partial = 0;
    for (int ty = 0; ty < tiles.tilesY; ++ty) {
        for (int tx = 0; tx < tiles.tilesX; ++tx) {
            const double c =
                tiles.coverage[static_cast<std::size_t>(ty) * tiles.tilesX + tx];
            if (c < 1.0) {
                ++partial;
                EXPECT_TRUE(tx == 0 || tx == tiles.tilesX - 1 || ty == 0 ||
                            ty == tiles.tilesY - 1)
                    << "interior tile (" << tx << "," << ty << ") uncovered";
            }
        }
    }
    EXPECT_GT(partial, 0);
    EXPECT_LT(partial, tiles.tiles());
}

TEST(WarpTileStats, DepthToleranceFlagsOcclusionFolds)
{
    // Two depth layers seen by a translating camera: parallax slides
    // the near layer across the far one, so splats from well-separated
    // source columns collide at the boundary — a fold the tolerance
    // must flag. The same frame warped to its own camera has only
    // adjacent-pixel collisions (surface gradient), which must not.
    const int size = 32;
    const nerf::Camera cam0({0.5f, 0.5f, -0.5f}, {0.5f, 0.5f, 0.5f},
                            {0.0f, 1.0f, 0.0f}, 45.0f, size, size);
    nerf::DepthFrame frame = syntheticFrame(cam0, 1.0f);
    for (int y = 0; y < size; ++y)
        for (int x = size / 2; x < size; ++x)
            frame.depth[static_cast<std::size_t>(y) * size + x] = 2.0f;

    nerf::WarpOptions tight;
    tight.depthTolerance = 0.1f;

    const nerf::WarpResult still = nerf::forwardWarp(frame, cam0, tight);
    for (const bool c : still.depthConflict)
        EXPECT_FALSE(c) << "a depth step alone is not an occlusion";

    const nerf::Camera cam1({0.65f, 0.5f, -0.5f}, {0.65f, 0.5f, 0.5f},
                            {0.0f, 1.0f, 0.0f}, 45.0f, size, size);
    const nerf::WarpResult moved = nerf::forwardWarp(frame, cam1, tight);
    std::size_t conflicts = 0;
    for (const bool c : moved.depthConflict)
        conflicts += c ? 1 : 0;
    EXPECT_GT(conflicts, 0u) << "the parallax fold must raise conflicts";

    nerf::WarpOptions loose;
    loose.depthTolerance = 10.0f;
    const nerf::WarpResult lax = nerf::forwardWarp(frame, cam1, loose);
    for (const bool c : lax.depthConflict)
        EXPECT_FALSE(c);
}

// ---------------------------------------------------------------------------
// reprojectRender: invalidation, bit-exact patches, PSNR + rays bounds.

class ReprojectRenderTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FaultInjector::instance().reset();
        registry_ = std::make_unique<ModelRegistry>();
        registry_->add("m",
                       std::make_unique<nerf::NerfModel>(tinyModelConfig(), 5));
        entry_ = registry_->find("m");
        rc_.sampler.maxSamplesPerRay = 16;
        cfg_.tileSize = 16;
    }

    void TearDown() override { FaultInjector::instance().reset(); }

    nerf::DepthFrame
    fullRender(const nerf::Camera &cam)
    {
        return nerf::renderDepthFrameTiled(*entry_->model, &entry_->grid, cam,
                                           rc_, nullptr);
    }

    std::unique_ptr<ModelRegistry> registry_;
    const ModelEntry *entry_ = nullptr;
    nerf::TiledRenderConfig rc_;
    ReprojectConfig cfg_;
};

TEST_F(ReprojectRenderTest, OrbitTraceMeetsPsnrAndRayBounds)
{
    const int size = 96;
    const std::uint64_t pixels = static_cast<std::uint64_t>(size) * size;
    nerf::DepthFrame prev = fullRender(orbitCamera(35.0f, size));
    std::vector<std::uint16_t> ages =
        freshTileAges(prev.camera, cfg_.tileSize, cfg_.maxTileAge);

    for (int i = 1; i <= 4; ++i) {
        const nerf::Camera cam = orbitCamera(35.0f + 0.5f * i, size);
        const nerf::DepthFrame truth = fullRender(cam);
        ReprojectOutput out = reprojectRender(
            *entry_->model, &entry_->grid, cam,
            sessionFrameOf(std::move(prev), std::move(ages), cfg_.tileSize),
            rc_, cfg_, nullptr);

        ASSERT_TRUE(out.stats.reprojected) << "frame " << i;
        EXPECT_GT(out.stats.tilesRerendered, 0);
        EXPECT_LT(out.stats.tilesRerendered, out.stats.tilesTotal);
        // Acceptance bound: each reprojected frame marches <= 30 % of
        // the rays a full render would.
        EXPECT_LE(out.stats.raysRendered, pixels * 3 / 10) << "frame " << i;
        EXPECT_EQ(out.stats.raysRendered + out.stats.raysSaved, pixels);
        // ... at >= 30 dB against the full render.
        const double db = psnr(out.frame.color, truth.color);
        EXPECT_GE(db, 30.0) << "frame " << i;

        // Re-rendered tiles are bit-identical to the full render.
        const int tiles_x = (size + cfg_.tileSize - 1) / cfg_.tileSize;
        for (std::size_t t = 0; t < out.tileAge.size(); ++t) {
            if (out.tileAge[t] != 0)
                continue;
            const int tx = static_cast<int>(t) % tiles_x;
            const int ty = static_cast<int>(t) / tiles_x;
            for (int y = ty * cfg_.tileSize;
                 y < std::min((ty + 1) * cfg_.tileSize, size); ++y) {
                for (int x = tx * cfg_.tileSize;
                     x < std::min((tx + 1) * cfg_.tileSize, size); ++x) {
                    const Vec3f a = out.frame.color.at(x, y);
                    const Vec3f b = truth.color.at(x, y);
                    ASSERT_EQ(a.x, b.x) << "(" << x << "," << y << ")";
                    ASSERT_EQ(a.y, b.y);
                    ASSERT_EQ(a.z, b.z);
                }
            }
        }

        prev = std::move(out.frame);
        ages = std::move(out.tileAge);
    }
}

TEST_F(ReprojectRenderTest, AgedTilesAreRefreshedRoundRobin)
{
    const int size = 64;
    const nerf::Camera cam = orbitCamera(35.0f, size);
    nerf::DepthFrame prev = fullRender(cam);
    cfg_.maxTileAge = 3;

    // Same camera every frame: no motion, so the *only* invalidation
    // left is age. Every tile must be re-rendered within maxTileAge
    // frames, and ages never reach the cap.
    std::vector<std::uint16_t> ages =
        freshTileAges(cam, cfg_.tileSize, cfg_.maxTileAge);
    int refreshed_total = 0;
    for (int i = 0; i < 4; ++i) {
        ReprojectOutput out = reprojectRender(
            *entry_->model, &entry_->grid, cam,
            sessionFrameOf(std::move(prev), std::move(ages), cfg_.tileSize),
            rc_, cfg_, nullptr);
        ASSERT_TRUE(out.stats.reprojected);
        for (const std::uint16_t age : out.tileAge)
            EXPECT_LT(age, cfg_.maxTileAge);
        refreshed_total += out.stats.tilesRerendered;
        prev = std::move(out.frame);
        ages = std::move(out.tileAge);
    }
    EXPECT_GT(refreshed_total, 0);
}

TEST_F(ReprojectRenderTest, ShapeMismatchFallsBackToFullRender)
{
    const int size = 64;
    const nerf::Camera cam = orbitCamera(35.0f, size);
    nerf::DepthFrame seed = fullRender(orbitCamera(34.5f, size));
    // Age grid deliberately shaped for a different tile size.
    ReprojectOutput out = reprojectRender(
        *entry_->model, &entry_->grid, cam,
        sessionFrameOf(std::move(seed), std::vector<std::uint16_t>(4, 0),
                       /*tile_size=*/32),
        rc_, cfg_, nullptr);
    EXPECT_FALSE(out.stats.reprojected);
    EXPECT_STREQ(out.stats.fallback, "shape");
    expectImagesIdentical(out.frame.color, fullRender(cam).color);
}

TEST_F(ReprojectRenderTest, UnaffordableRerenderServesWarpAlone)
{
    const int size = 64;
    const std::uint64_t pixels = static_cast<std::uint64_t>(size) * size;
    const nerf::DepthFrame seed = fullRender(orbitCamera(35.0f, size));
    const nerf::Camera cam = orbitCamera(40.0f, size);
    nerf::WarpOptions wopt;
    wopt.depthTolerance = cfg_.depthTolerance;
    const nerf::WarpResult warped = nerf::forwardWarp(seed, cam, wopt);
    ASSERT_LT(warped.coverage, 1.0);

    // Inputs: invalid tiles the budget cannot afford, and an age grid
    // of another tiling, whose full-render fallback it cannot afford.
    struct Case
    {
        const char *name;
        std::vector<std::uint16_t> ages;
        int tileSize;
        std::uint64_t budget;
    };
    const Case cases[] = {
        {"tiles", freshTileAges(cam, cfg_.tileSize, cfg_.maxTileAge),
         cfg_.tileSize, 0},
        {"shape", std::vector<std::uint16_t>(4, 0), 32, pixels - 1},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        ReprojectOutput out = reprojectRender(
            *entry_->model, &entry_->grid, cam,
            sessionFrameOf(seed, c.ages, c.tileSize), rc_, cfg_, nullptr,
            c.budget);
        EXPECT_TRUE(out.stats.reprojected);
        EXPECT_TRUE(out.stats.warpOnly);
        EXPECT_EQ(out.stats.raysRendered, 0u);
        EXPECT_EQ(out.stats.raysSaved, pixels);
        EXPECT_TRUE(out.tileAge.empty());

        // The frame is the warp, uncovered pixels painted background.
        for (int y = 0, idx = 0; y < size; ++y) {
            for (int x = 0; x < size; ++x, ++idx) {
                const bool hole = !warped.covered[idx];
                const Vec3f want =
                    hole ? rc_.render.background : warped.image.at(x, y);
                const Vec3f got = out.frame.color.at(x, y);
                ASSERT_EQ(got.x, want.x) << "(" << x << "," << y << ")";
                ASSERT_EQ(got.y, want.y);
                ASSERT_EQ(got.z, want.z);
                ASSERT_EQ(out.frame.depth[idx],
                          hole ? rc_.farDepth : warped.depth[idx]);
            }
        }
    }
}

TEST_F(ReprojectRenderTest, ChaosTileFaultDegradesToFullRenderNotHoles)
{
    const int size = 64;
    ASSERT_TRUE(FaultInjector::instance().configureFromSpec(
        "serve.reproject.tiles=always"));

    const nerf::Camera cam = orbitCamera(35.5f, size);
    nerf::DepthFrame seed = fullRender(orbitCamera(35.0f, size));
    ReprojectOutput out = reprojectRender(
        *entry_->model, &entry_->grid, cam,
        sessionFrameOf(std::move(seed),
                       freshTileAges(cam, cfg_.tileSize, cfg_.maxTileAge),
                       cfg_.tileSize),
        rc_, cfg_, nullptr);

    // The faulted tile pass must degrade to a bit-exact full render —
    // never serve the warped frame with unpatched holes.
    EXPECT_FALSE(out.stats.reprojected);
    EXPECT_STREQ(out.stats.fallback, "tile_fault");
    EXPECT_EQ(out.stats.raysRendered,
              static_cast<std::uint64_t>(size) * size);
    expectImagesIdentical(out.frame.color, fullRender(cam).color);
}

// ---------------------------------------------------------------------------
// SessionStore: TTL, LRU memory budget, classified misses.

TEST(SessionStore, EvictsLeastRecentlyUsedUnderMemoryBudget)
{
    const nerf::Camera cam = orbitCamera(30.0f, 32);
    SessionFrame a = sessionFrameOf(syntheticFrame(cam), {}, 16);
    const std::size_t per_frame = SessionStore::frameBytes(a);

    SessionStoreConfig cfg;
    cfg.maxBytes = per_frame * 2; // room for two frames, not three
    SessionStore store(cfg);

    const auto t0 = SessionStore::Clock::now();
    store.put("a", std::move(a), t0);
    store.put("b", sessionFrameOf(syntheticFrame(cam), {}, 16), t0);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_LE(store.bytes(), cfg.maxBytes);

    // Touch "a" so "b" is the LRU victim of the third insert.
    EXPECT_TRUE(store.get("a", "m", 1, t0).has_value());
    store.put("c", sessionFrameOf(syntheticFrame(cam), {}, 16), t0);

    EXPECT_EQ(store.size(), 2u);
    EXPECT_LE(store.bytes(), cfg.maxBytes);
    EXPECT_EQ(store.evictions(), 1u);
    EXPECT_TRUE(store.get("a", "m", 1, t0).has_value());
    EXPECT_TRUE(store.get("c", "m", 1, t0).has_value());
    EXPECT_FALSE(store.get("b", "m", 1, t0).has_value());
    EXPECT_EQ(store.missesAbsent(), 1u);
}

TEST(SessionStore, TtlExpiresIdleSessions)
{
    SessionStoreConfig cfg;
    cfg.ttlSeconds = 1.0;
    SessionStore store(cfg);

    const nerf::Camera cam = orbitCamera(30.0f, 16);
    const auto t0 = SessionStore::Clock::now();
    store.put("s", sessionFrameOf(syntheticFrame(cam), {}, 16), t0);

    const auto fresh = t0 + std::chrono::milliseconds(500);
    EXPECT_TRUE(store.get("s", "m", 1, fresh).has_value());

    const auto late = t0 + std::chrono::milliseconds(1600);
    EXPECT_FALSE(store.get("s", "m", 1, late).has_value());
    EXPECT_EQ(store.missesExpired(), 1u);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.bytes(), 0u);
}

TEST(SessionStore, MismatchedProvenanceIsAStaleMiss)
{
    SessionStore store(SessionStoreConfig{});
    const nerf::Camera cam = orbitCamera(30.0f, 16);
    const auto t0 = SessionStore::Clock::now();
    store.put("s", sessionFrameOf(syntheticFrame(cam), {}, 16, "m", 1), t0);

    // Same model, newer epoch: a hot-swap happened.
    EXPECT_FALSE(store.get("s", "m", 2, t0).has_value());
    EXPECT_EQ(store.missesStale(), 1u);
    // The stale entry was dropped, so the next lookup is an absent miss.
    EXPECT_FALSE(store.get("s", "m", 2, t0).has_value());
    EXPECT_EQ(store.missesAbsent(), 1u);
}

// ---------------------------------------------------------------------------
// RenderServer integration: cold-cache bit-exactness, the accelerate
// rung, and stale-epoch invalidation across a hot-swap.

class ReprojectServerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FaultInjector::instance().reset();
        registry_ = std::make_unique<ModelRegistry>();
        registry_->add("m",
                       std::make_unique<nerf::NerfModel>(tinyModelConfig(), 5));
        sc_.renderThreads = 2;
        sc_.render.sampler.maxSamplesPerRay = 16;
    }

    void TearDown() override { FaultInjector::instance().reset(); }

    RenderResponse
    ask(RenderServer &server, float azim, const std::string &session,
        int size = 64, Clock::time_point deadline = Clock::time_point::max())
    {
        RenderRequest req;
        req.model = "m";
        req.camera = orbitCamera(azim, size);
        req.session = session;
        req.deadline = deadline;
        return server.submit(req).get();
    }

    std::unique_ptr<ModelRegistry> registry_;
    ServeConfig sc_;
};

TEST_F(ReprojectServerTest, ColdCacheIsBitIdenticalToFullRender)
{
    RenderServer server(*registry_, sc_);
    const ModelEntry *entry = registry_->find("m");

    // Session-less requests skip reprojection outright: every one
    // full-renders, bit-identical to a direct render, and nothing
    // enters the session store.
    EXPECT_EQ(ask(server, 35.0f, "").outcome, Outcome::renderedFull);
    const RenderResponse stateless = ask(server, 35.5f, "");
    EXPECT_EQ(stateless.outcome, Outcome::renderedFull);
    expectImagesIdentical(stateless.image,
                          nerf::renderImageTiled(*entry->model, &entry->grid,
                                                 orbitCamera(35.5f, 64), sc_.render,
                                                 nullptr));
    EXPECT_EQ(server.sessions().size(), 0u);

    const RenderResponse r = ask(server, 35.0f, "stream-1");
    EXPECT_EQ(r.outcome, Outcome::renderedFull);

    const Image direct = nerf::renderImageTiled(
        *entry->model, &entry->grid, orbitCamera(35.0f, 64), sc_.render, nullptr);
    expectImagesIdentical(r.image, direct);
    EXPECT_EQ(server.stats().sessionMisses(), 1u);
    EXPECT_EQ(server.sessions().size(), 1u);
}

TEST_F(ReprojectServerTest, WarmSessionServesByReprojection)
{
    RenderServer server(*registry_, sc_);
    EXPECT_EQ(ask(server, 35.0f, "s").outcome, Outcome::renderedFull);

    const RenderResponse r = ask(server, 35.5f, "s");
    EXPECT_EQ(r.outcome, Outcome::renderedReproject);
    EXPECT_EQ(server.stats().sessionHits(), 1u);
    EXPECT_GT(server.stats().raysSaved(), 0u);
    EXPECT_EQ(server.stats().count(Outcome::renderedReproject), 1u);

    // Distinct sessions do not share frames.
    EXPECT_EQ(ask(server, 35.5f, "other").outcome, Outcome::renderedFull);
    EXPECT_EQ(server.sessions().size(), 2u);
}

TEST_F(ReprojectServerTest, HotSwapInvalidatesSessionsViaEpoch)
{
    RenderServer server(*registry_, sc_);
    EXPECT_EQ(ask(server, 35.0f, "s").outcome, Outcome::renderedFull);
    EXPECT_EQ(ask(server, 35.5f, "s").outcome, Outcome::renderedReproject);

    // Hot-swap: a new model replaces "m". The cached session frame
    // shows the *old* scene; the epoch mismatch must force a full
    // render, never a warp of stale content.
    registry_->add("m", std::make_unique<nerf::NerfModel>(tinyModelConfig(), 99));
    const RenderResponse after = ask(server, 36.0f, "s");
    EXPECT_EQ(after.outcome, Outcome::renderedFull);
    EXPECT_GE(server.sessions().missesStale(), 1u);

    const ModelEntry *entry = registry_->find("m");
    ASSERT_EQ(entry->epoch, 2u);
    const Image direct = nerf::renderImageTiled(
        *entry->model, &entry->grid, orbitCamera(36.0f, 64), sc_.render, nullptr);
    expectImagesIdentical(after.image, direct);

    // The stream recovers: the re-seeded session reprojects again.
    EXPECT_EQ(ask(server, 36.5f, "s").outcome, Outcome::renderedReproject);
}

TEST_F(ReprojectServerTest, WarpOnlyFrameLeavesKeyframeUnchanged)
{
    // Once the first frame sets the cost estimate, no finite deadline
    // affords a ray-marched pixel.
    sc_.estimateHeadroom = 1e12;
    RenderServer server(*registry_, sc_);
    const ModelEntry *entry = registry_->find("m");
    EXPECT_EQ(ask(server, 35.0f, "s").outcome, Outcome::renderedFull);
    EXPECT_EQ(ask(server, 35.5f, "s", 64,
                  Clock::now() + std::chrono::seconds(60))
                  .outcome,
              Outcome::renderedWarp);

    // The warp-only frame did not replace the keyframe: the next
    // unconstrained frame reprojects the last *rendered* frame.
    const RenderResponse next = ask(server, 36.0f, "s");
    EXPECT_EQ(next.outcome, Outcome::renderedReproject);
    const nerf::Camera cam = orbitCamera(36.0f, 64);
    const ReprojectOutput expected = reprojectRender(
        *entry->model, &entry->grid, cam,
        sessionFrameOf(nerf::renderDepthFrameTiled(*entry->model, &entry->grid,
                                                   orbitCamera(35.0f, 64),
                                                   sc_.render, nullptr),
                       freshTileAges(cam, sc_.reproject.tileSize,
                                     sc_.reproject.maxTileAge),
                       sc_.reproject.tileSize),
        sc_.render, sc_.reproject, nullptr);
    ASSERT_TRUE(expected.stats.reprojected);
    expectImagesIdentical(next.image, expected.frame.color);
}

TEST_F(ReprojectServerTest, ChaosTileFaultServesFullFrameThroughServer)
{
    RenderServer server(*registry_, sc_);
    EXPECT_EQ(ask(server, 35.0f, "s").outcome, Outcome::renderedFull);

    ASSERT_TRUE(FaultInjector::instance().configureFromSpec(
        "serve.reproject.tiles=always"));
    const RenderResponse r = ask(server, 35.5f, "s");
    // The session hit was taken, the tile pass faulted, and the request
    // still terminated with a complete full-fidelity frame.
    EXPECT_EQ(r.outcome, Outcome::renderedFull);
    EXPECT_EQ(server.stats().sessionHits(), 1u);
    EXPECT_EQ(server.stats().reprojectFallbacks(), 1u);

    const ModelEntry *entry = registry_->find("m");
    const Image direct = nerf::renderImageTiled(
        *entry->model, &entry->grid, orbitCamera(35.5f, 64), sc_.render, nullptr);
    expectImagesIdentical(r.image, direct);
}

} // namespace
} // namespace fusion3d::serve
