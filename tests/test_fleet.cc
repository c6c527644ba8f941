/**
 * @file
 * Property-style invariant suite for the model-fleet mechanics
 * (ISSUE 8): registry memory accounting never exceeds the budget after
 * any add/evict/reload/swap/remove interleaving (seeded random op
 * sequences), an evicted-then-reloaded model renders bit-identically,
 * hot-swap mid-traffic never yields a torn read (every request is
 * all-old or all-new), and per-tenant QoS honours in-flight caps,
 * queue-share quotas, and aging-based anti-starvation. Expected to
 * pass under -DFUSION3D_SANITIZE=thread.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "nerf/nerf_model.h"
#include "nerf/parallel_render.h"
#include "nerf/serialize.h"
#include "nerf/tensorf.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "serve/request_queue.h"
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
testCamera(int size = 16)
{
    return nerf::Camera::orbit({0.5f, 0.5f, 0.5f}, 1.4f, 35.0f, 20.0f, 45.0f,
                               size, size);
}

/** Save a tiny model artifact (weights from @p seed), return its path. */
std::string
savedArtifact(const std::string &filename, std::uint64_t seed)
{
    const nerf::NerfModel model(tinyModelConfig(), seed);
    const std::string path = testing::TempDir() + filename;
    EXPECT_TRUE(nerf::saveModel(model, path));
    return path;
}

bool
imagesIdentical(const Image &a, const Image &b)
{
    if (a.width() != b.width() || a.height() != b.height())
        return false;
    for (int y = 0; y < a.height(); ++y) {
        for (int x = 0; x < a.width(); ++x) {
            const Vec3f pa = a.at(x, y);
            const Vec3f pb = b.at(x, y);
            if (pa.x != pb.x || pa.y != pb.y || pa.z != pb.z)
                return false;
        }
    }
    return true;
}

RegistryConfig
fleetRegistryConfig(std::size_t budget_bytes)
{
    RegistryConfig rc;
    rc.backoffInitialMs = 0.1;
    rc.backoffMaxMs = 1.0;
    rc.memoryBudgetBytes = budget_bytes;
    return rc;
}

/** Bytes one tiny-model entry costs, measured on a probe registry (all
 *  fleet models here share the config, so all entries weigh this). */
std::size_t
measuredEntryBytes(const std::string &path)
{
    ModelRegistry probe(fleetRegistryConfig(0));
    EXPECT_EQ(probe.addFromFile("probe000", path), nerf::LoadStatus::ok);
    return probe.residentBytes();
}

// ---------------------------------------------------------------------------
// Property 1: memory accounting vs the budget, under seeded random
// add / acquire / reload / swap / remove interleavings.
// ---------------------------------------------------------------------------

TEST(FleetBudget, AccountingNeverExceedsBudgetAcrossRandomOps)
{
    // All names are the same length, so every entry weighs the same.
    constexpr int kModels = 6;
    std::vector<std::string> paths;
    for (int i = 0; i < kModels; ++i)
        paths.push_back(savedArtifact(strprintf("fleet_ops_%d.f3dm", i),
                                      /*seed=*/100 + i));
    const std::size_t entry_bytes = measuredEntryBytes(paths[0]);
    ASSERT_GT(entry_bytes, 0u);
    // Budget fits 3 of 6 models (plus slack for the path string the
    // probe didn't have).
    const std::size_t budget = 3 * entry_bytes + 4096;

    for (const std::uint64_t seed : {7ull, 8ull, 9ull}) {
        SCOPED_TRACE(seed);
        ModelRegistry registry(fleetRegistryConfig(budget));
        Pcg32 rng(seed, 17);
        std::vector<ModelHandle> held; // pins some entries past eviction
        std::set<std::string> registered;

        auto name = [&](int i) { return strprintf("fleet%d", i); };

        for (int step = 0; step < 200; ++step) {
            const int pick = static_cast<int>(rng.nextUint() % kModels);
            switch (rng.nextUint() % 6) {
              case 0: // deploy / re-deploy from artifact
                ASSERT_EQ(registry.addFromFile(name(pick), paths[pick]),
                          nerf::LoadStatus::ok);
                registered.insert(name(pick));
                break;
              case 1: // pin via acquireOrReload (reloads if evicted)
                if (registered.count(name(pick))) {
                    const AcquireResult r =
                        registry.acquireOrReload(name(pick));
                    ASSERT_NE(r.entry, nullptr);
                    ASSERT_EQ(r.entry->name, name(pick));
                    held.push_back(r.entry);
                } else {
                    ASSERT_EQ(registry.acquireOrReload(name(pick)).entry,
                              nullptr);
                }
                break;
              case 2: // hot-swap onto a different artifact
                if (registered.count(name(pick))) {
                    ASSERT_EQ(registry.swap(name(pick),
                                            paths[(pick + 1) % kModels]),
                              nerf::LoadStatus::ok);
                } else {
                    // Never-registered names refuse to swap.
                    ASSERT_EQ(registry.swap(name(pick), paths[pick]),
                              nerf::LoadStatus::ioError);
                }
                break;
              case 3: // unload entirely
                EXPECT_EQ(registry.removeModel(name(pick)),
                          registered.count(name(pick)) > 0);
                registered.erase(name(pick));
                break;
              case 4: // drop a random pin
                if (!held.empty()) {
                    const std::size_t victim =
                        rng.nextUint() % held.size();
                    held.erase(held.begin() +
                               static_cast<std::ptrdiff_t>(victim));
                }
                break;
              case 5: // plain pin of a resident entry
                if (const ModelHandle h = registry.acquire(name(pick)))
                    held.push_back(h);
                break;
            }

            // Exact accounting: residentBytes is the sum of resident
            // entries' self-reported bytes, no drift across any op mix.
            std::size_t sum = 0;
            for (const std::string &n : registry.names()) {
                const ModelEntry *e = registry.find(n);
                ASSERT_NE(e, nullptr);
                sum += e->bytes;
            }
            ASSERT_EQ(registry.residentBytes(), sum);

            // Budget invariant: overshoot is bounded by the pinned
            // entries, which eviction must never touch.
            std::size_t pinned = 0;
            for (const ModelHandle &h : held)
                pinned += h->bytes;
            ASSERT_LE(registry.residentBytes(), budget + pinned);
        }

        // With every pin dropped, the next deploy settles the registry
        // back under its budget.
        held.clear();
        ASSERT_EQ(registry.addFromFile(name(0), paths[0]),
                  nerf::LoadStatus::ok);
        EXPECT_LE(registry.residentBytes(), budget);
        EXPECT_GT(registry.evictions(), 0u);
    }
}

// ---------------------------------------------------------------------------
// Property 2: an evicted-then-reloaded model renders bit-identically.
// ---------------------------------------------------------------------------

TEST(FleetBudget, EvictedThenReloadedModelRendersBitIdentically)
{
    const std::string path = savedArtifact("fleet_reload.f3dm", /*seed=*/41);
    const std::string path2 = savedArtifact("fleet_filler1.f3dm", /*seed=*/42);
    const std::string path3 = savedArtifact("fleet_filler2.f3dm", /*seed=*/43);
    const std::size_t entry_bytes = measuredEntryBytes(path);
    // Room for two entries: loading the two fillers evicts the idle
    // first model.
    ModelRegistry registry(fleetRegistryConfig(2 * entry_bytes + 4096));

    nerf::TiledRenderConfig rc;
    rc.sampler.maxSamplesPerRay = 8;
    const nerf::Camera cam = testCamera();

    ASSERT_EQ(registry.addFromFile("target00", path), nerf::LoadStatus::ok);
    Image before;
    {
        const ModelHandle h = registry.acquire("target00");
        ASSERT_NE(h, nullptr);
        before = nerf::renderImageTiled(*h->model, &h->grid, cam, rc, nullptr);
    } // pin dropped: target00 is evictable again
    const std::uint64_t epoch_before = registry.epoch("target00");

    ASSERT_EQ(registry.addFromFile("filler01", path2), nerf::LoadStatus::ok);
    ASSERT_EQ(registry.addFromFile("filler02", path3), nerf::LoadStatus::ok);
    EXPECT_GT(registry.evictions(), 0u);
    EXPECT_EQ(registry.find("target00"), nullptr) << "target00 must be evicted";
    // Eviction bumped the epoch: reprojection sessions keyed on the old
    // epoch stale-miss instead of warping a ghost frame.
    EXPECT_GT(registry.epoch("target00"), epoch_before);

    const AcquireResult r = registry.acquireOrReload("target00");
    ASSERT_NE(r.entry, nullptr);
    EXPECT_TRUE(r.reloaded);
    EXPECT_EQ(registry.reloads(), 1u);
    const Image after =
        nerf::renderImageTiled(*r.entry->model, &r.entry->grid, cam, rc, nullptr);
    EXPECT_TRUE(imagesIdentical(before, after))
        << "reload-from-artifact must reproduce the original render bit "
           "for bit (weights and occupancy gate CRC-checked from the "
           "artifact)";
}

/** Save a tiny TensoRF artifact (weights from @p seed). */
std::string
savedTensorfArtifact(const std::string &filename, std::uint64_t seed)
{
    nerf::TensorfModelConfig mc;
    mc.densityRank = 6;
    mc.appearanceRank = 8;
    mc.lineResolution = 48;
    mc.appearanceDim = 8;
    mc.colorHidden = 16;
    const nerf::TensorfModel model(mc, seed);
    const std::string path = testing::TempDir() + filename;
    EXPECT_TRUE(nerf::saveModel(model, path));
    return path;
}

TEST(FleetBudget, TensorfSurvivesEvictReloadAndHotSwapInAMixedFleet)
{
    // The full backend-polymorphic lifecycle: a TensoRF artifact
    // deploys next to hash-grid entries, hot-swaps onto a second
    // TensoRF version, is evicted by hash-grid fillers under budget
    // pressure, and reloads bit-identically.
    const std::string path_t1 = savedTensorfArtifact("fleet_t1.f3dm", 71);
    const std::string path_t2 = savedTensorfArtifact("fleet_t2.f3dm", 72);
    const std::string filler1 = savedArtifact("fleet_mix1.f3dm", 73);
    const std::string filler2 = savedArtifact("fleet_mix2.f3dm", 74);

    nerf::TiledRenderConfig rc;
    rc.sampler.maxSamplesPerRay = 8;
    const nerf::Camera cam = testCamera();

    // Budget sized to the *hash-grid* entry: the tiny TensoRF model is
    // far smaller, so two hash-grid fillers still evict it once idle.
    const std::size_t entry_bytes = measuredEntryBytes(filler1);
    ModelRegistry registry(fleetRegistryConfig(2 * entry_bytes + 4096));

    ASSERT_EQ(registry.addFromFile("tensorf0", path_t1), nerf::LoadStatus::ok);
    const ModelEntry *entry = registry.find("tensorf0");
    ASSERT_NE(entry, nullptr);
    ASSERT_EQ(entry->model->kind(), nerf::BackendKind::tensorf);
    const Image v1 =
        nerf::renderImageTiled(*entry->model, &entry->grid, cam, rc, nullptr);

    // Hot-swap onto the second version, then back: frames must track
    // the artifact exactly.
    ASSERT_EQ(registry.swap("tensorf0", path_t2), nerf::LoadStatus::ok);
    entry = registry.find("tensorf0");
    const Image v2 =
        nerf::renderImageTiled(*entry->model, &entry->grid, cam, rc, nullptr);
    ASSERT_FALSE(imagesIdentical(v1, v2));
    ASSERT_EQ(registry.swap("tensorf0", path_t1), nerf::LoadStatus::ok);
    entry = registry.find("tensorf0");
    ASSERT_TRUE(imagesIdentical(
        v1, nerf::renderImageTiled(*entry->model, &entry->grid, cam, rc,
                                   nullptr)));

    // Budget pressure from hash-grid fillers evicts the idle TensoRF
    // entry; acquireOrReload brings it back from its artifact.
    ASSERT_EQ(registry.addFromFile("filler01", filler1), nerf::LoadStatus::ok);
    ASSERT_EQ(registry.addFromFile("filler02", filler2), nerf::LoadStatus::ok);
    ASSERT_EQ(registry.find("tensorf0"), nullptr)
        << "the idle TensoRF entry must be evicted";

    const AcquireResult r = registry.acquireOrReload("tensorf0");
    ASSERT_NE(r.entry, nullptr);
    EXPECT_TRUE(r.reloaded);
    EXPECT_EQ(r.entry->model->kind(), nerf::BackendKind::tensorf);
    const Image after =
        nerf::renderImageTiled(*r.entry->model, &r.entry->grid, cam, rc, nullptr);
    EXPECT_TRUE(imagesIdentical(v1, after))
        << "a reloaded TensoRF artifact must reproduce the original "
           "render bit for bit";
}

// ---------------------------------------------------------------------------
// Property 3: hot-swap mid-traffic never yields a torn read.
// ---------------------------------------------------------------------------

TEST(FleetSwap, HotSwapMidTrafficIsNeverTorn)
{
    const std::string path_a = savedArtifact("fleet_swap_a.f3dm", /*seed=*/101);
    const std::string path_b = savedArtifact("fleet_swap_b.f3dm", /*seed=*/202);

    ServeConfig sc;
    sc.renderThreads = 2;
    sc.render.sampler.maxSamplesPerRay = 8;
    const nerf::Camera cam = testCamera();

    // Expected frames per version, from a reference registry (the gate
    // rebuild is deterministic, so entries rebuilt elsewhere render
    // identically) — and the two versions must actually differ for the
    // all-old-or-all-new check to mean anything.
    Image img_a, img_b;
    {
        ModelRegistry reference(fleetRegistryConfig(0));
        ASSERT_EQ(reference.addFromFile("va", path_a), nerf::LoadStatus::ok);
        ASSERT_EQ(reference.addFromFile("vb", path_b), nerf::LoadStatus::ok);
        const ModelEntry *ea = reference.find("va");
        const ModelEntry *eb = reference.find("vb");
        img_a = nerf::renderImageTiled(*ea->model, &ea->grid, cam, sc.render,
                                       nullptr);
        img_b = nerf::renderImageTiled(*eb->model, &eb->grid, cam, sc.render,
                                       nullptr);
        ASSERT_FALSE(imagesIdentical(img_a, img_b));
    }

    ModelRegistry registry(fleetRegistryConfig(0));
    ASSERT_EQ(registry.addFromFile("live", path_a), nerf::LoadStatus::ok);
    RenderServer server(registry, sc);

    constexpr int kRequests = 24;
    std::vector<std::future<RenderResponse>> futures;
    std::thread client([&]() {
        for (int i = 0; i < kRequests; ++i) {
            RenderRequest req;
            req.model = "live";
            req.camera = cam;
            futures.push_back(server.submit(req));
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });

    // Swap back and forth underneath the traffic.
    const char *versions[] = {path_b.c_str(), path_a.c_str()};
    for (int s = 0; s < 6; ++s) {
        ASSERT_EQ(registry.swap("live", versions[s % 2]), nerf::LoadStatus::ok);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    client.join();
    EXPECT_EQ(registry.swaps(), 6u);

    int from_a = 0, from_b = 0;
    for (auto &f : futures) {
        const RenderResponse r = f.get();
        ASSERT_EQ(r.outcome, Outcome::renderedFull);
        if (imagesIdentical(r.image, img_a))
            ++from_a;
        else if (imagesIdentical(r.image, img_b))
            ++from_b;
        else
            FAIL() << "torn read: request " << r.id
                   << " matches neither model version exactly";
    }
    EXPECT_EQ(from_a + from_b, kRequests);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Property 4: per-tenant quotas — in-flight caps, queue share, aging.
// ---------------------------------------------------------------------------

TEST(FleetQos, InFlightCapHoldsRequestsBackUntilRelease)
{
    QueueConfig qc;
    qc.capacity = 16;
    qc.qos.maxInFlightPerTenant = 2;
    RequestQueue queue(qc);

    for (int i = 0; i < 6; ++i) {
        QueuedRequest qr;
        qr.request.model = "m";
        qr.request.tenant = "hog";
        qr.id = static_cast<std::uint64_t>(i + 1);
        ASSERT_EQ(queue.push(std::move(qr)), PushResult::ok);
    }
    EXPECT_EQ(queue.tenantQueued("hog"), 6u);

    // A same-model batch of 8 still only takes 2: the tenant's cap.
    std::vector<QueuedRequest> batch;
    ASSERT_TRUE(queue.popBatch(batch, 8));
    EXPECT_EQ(batch.size(), 2u);
    EXPECT_EQ(queue.tenantInFlight("hog"), 2u);
    EXPECT_EQ(queue.tenantQueued("hog"), 4u);
    for (const QueuedRequest &qr : batch)
        EXPECT_TRUE(qr.tenantSlot);

    // One release frees exactly one slot.
    queue.release("hog");
    ASSERT_TRUE(queue.popBatch(batch, 8));
    EXPECT_EQ(batch.size(), 1u);
    EXPECT_EQ(queue.tenantInFlight("hog"), 2u);

    // An under-cap tenant dispatches even while "hog" is pinned at its
    // cap — the isolation property.
    QueuedRequest other;
    other.request.model = "m";
    other.request.tenant = "small";
    ASSERT_EQ(queue.push(std::move(other)), PushResult::ok);
    ASSERT_TRUE(queue.popBatch(batch, 8));
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch.front().request.tenant, "small");
}

TEST(FleetQos, QueueShareRejectsOnlyTheOverSubscribedTenant)
{
    QueueConfig qc;
    qc.capacity = 8;
    qc.qos.maxQueueShare = 0.25; // 2 of 8 slots per tenant
    RequestQueue queue(qc);

    auto pushFor = [&](const char *tenant) {
        QueuedRequest qr;
        qr.request.model = "m";
        qr.request.tenant = tenant;
        return queue.push(std::move(qr));
    };
    EXPECT_EQ(pushFor("hog"), PushResult::ok);
    EXPECT_EQ(pushFor("hog"), PushResult::ok);
    EXPECT_EQ(pushFor("hog"), PushResult::tenantQuota);
    EXPECT_EQ(queue.tenantQueued("hog"), 2u);
    // Other tenants are untouched by hog's quota.
    EXPECT_EQ(pushFor("small"), PushResult::ok);
    EXPECT_EQ(queue.depth(), 3u);
}

TEST(FleetQos, AgingGuaranteesEventualDispatchOfLowestPriorityTenant)
{
    QueueConfig qc;
    qc.capacity = 16;
    qc.qos.agingPriorityPerSecond = 1000.0;
    RequestQueue queue(qc);

    // enqueued is normally stamped by RenderServer::submit; direct
    // queue pushes must stamp it themselves for aging to measure wait.
    QueuedRequest starved;
    starved.request.model = "mSlow";
    starved.request.tenant = "patient";
    starved.request.priority = 0;
    starved.enqueued = Clock::now();
    starved.id = 1;
    ASSERT_EQ(queue.push(std::move(starved)), PushResult::ok);

    // Let the starved request accrue an aging bonus that overtakes the
    // fresh high-priority stream (>= 25 ms * 1000/s = +25 effective).
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    for (int i = 0; i < 4; ++i) {
        QueuedRequest fresh;
        fresh.request.model = "mFast";
        fresh.request.tenant = "heavy";
        fresh.request.priority = 5;
        fresh.enqueued = Clock::now();
        fresh.id = static_cast<std::uint64_t>(10 + i);
        ASSERT_EQ(queue.push(std::move(fresh)), PushResult::ok);
    }

    std::vector<QueuedRequest> batch;
    ASSERT_TRUE(queue.popBatch(batch, 8));
    EXPECT_EQ(batch.front().request.tenant, "patient")
        << "aging must let the longest-waiting low-priority request "
           "overtake a fresh priority-5 stream";

    // Without aging, strict static priority would have dispatched the
    // heavy tenant first — pin that contrast down.
    RequestQueue strict(QueueConfig{16, {}});
    QueuedRequest again;
    again.request.model = "mSlow";
    again.request.priority = 0;
    ASSERT_EQ(strict.push(std::move(again)), PushResult::ok);
    QueuedRequest vip;
    vip.request.model = "mFast";
    vip.request.priority = 5;
    ASSERT_EQ(strict.push(std::move(vip)), PushResult::ok);
    ASSERT_TRUE(strict.popBatch(batch, 1));
    EXPECT_EQ(batch.front().request.model, "mFast");
}

TEST(FleetQos, ServerEnforcesQuotaAndExportsTenantStats)
{
    ModelRegistry registry(fleetRegistryConfig(0));
    registry.add("m", std::make_unique<nerf::NerfModel>(tinyModelConfig(), 5));

    ServeConfig sc;
    sc.renderThreads = 1;
    sc.maxInFlight = 1;
    sc.queueCapacity = 4;
    sc.qos.maxQueueShare = 0.25; // 1 of 4 queue slots per tenant
    sc.qos.maxInFlightPerTenant = 1;
    sc.render.sampler.maxSamplesPerRay = 8;
    RenderServer server(registry, sc);

    std::vector<std::future<RenderResponse>> futures;
    for (int i = 0; i < 8; ++i) {
        RenderRequest req;
        req.model = "m";
        req.camera = testCamera();
        req.tenant = "hog";
        futures.push_back(server.submit(req));
    }
    RenderRequest other;
    other.model = "m";
    other.camera = testCamera();
    other.tenant = "small";
    auto small_future = server.submit(other);

    int quota = 0, rendered = 0;
    for (auto &f : futures) {
        const RenderResponse r = f.get();
        quota += r.outcome == Outcome::rejectedTenantQuota ? 1 : 0;
        rendered += isRejected(r.outcome) ? 0 : 1;
    }
    EXPECT_GT(quota, 0) << "an 8-burst into a 1-slot share must trip the quota";
    EXPECT_GT(rendered, 0);
    // The under-quota tenant suffered no collateral rejection.
    EXPECT_FALSE(isRejected(small_future.get().outcome));

    server.drain();
    EXPECT_EQ(server.stats().tenantQuotaRejected("hog"),
              static_cast<std::uint64_t>(quota));
    EXPECT_EQ(server.stats().tenantCompleted("hog"), 8u);
    EXPECT_EQ(server.stats().tenantCompleted("small"), 1u);
    EXPECT_EQ(server.stats().tenantShed("small"), 0u);
    EXPECT_GT(server.stats().tenantLatencyQuantileMs("hog", 0.99), 0.0);
    const std::vector<std::string> names = server.stats().tenantNames();
    EXPECT_EQ(names.size(), 2u);

    // serve.tenant.* lands in the process-wide metrics export.
    std::ostringstream os;
    obs::MetricsRegistry::global().exportJsonLine(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("serve.tenant.hog.quota_rejected"), std::string::npos)
        << json;
    EXPECT_NE(json.find("serve.tenant.small.completed"), std::string::npos)
        << json;
}

} // namespace
} // namespace fusion3d::serve
