/**
 * @file
 * Tests of the request-scoped observability layer: trace-context
 * propagation across ThreadPool boundaries (including nested
 * parallelFor and restore-after-task), span parent linkage, the
 * flush-at-thread-exit guarantee (a joined thread's spans survive into
 * the dump), the FlightRecorder ring (wrap, dump files, dump-storm
 * cap, fault/exception/SLO triggers), the SloMonitor burn-rate
 * arithmetic on a deterministic clock, and an end-to-end check that a
 * traced RenderServer run attributes >= 90 % of each request's
 * latency to child spans — the same invariant tools/f3d_trace gates
 * in CI. Expected to pass under -DFUSION3D_SANITIZE=thread.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "nerf/nerf_model.h"
#include "obs/flight_recorder.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/scheduler.h"

using namespace fusion3d;

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

/** Spans with @p name from a snapshot. */
std::vector<obs::TraceEvent>
spansNamed(const std::vector<obs::TraceEvent> &events, const char *name)
{
    std::vector<obs::TraceEvent> out;
    for (const obs::TraceEvent &ev : events)
        if (std::string(ev.name) == name)
            out.push_back(ev);
    return out;
}

/**
 * The tracer, flight recorder and fault injector are process-wide;
 * every test starts from a clean slate and leaves one behind.
 */
class FlightRecorderTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::Tracer::instance().setEnabled(false);
        obs::Tracer::instance().clear();
        obs::FlightRecorder::instance().setEnabled(true);
        obs::FlightRecorder::instance().setDumpDir("");
        obs::FlightRecorder::instance().reset();
        FaultInjector::instance().reset();
    }

    void
    TearDown() override
    {
        FaultInjector::instance().reset();
        obs::Tracer::instance().setEnabled(false);
        obs::Tracer::instance().clear();
        obs::FlightRecorder::instance().setDumpDir("");
        obs::FlightRecorder::instance().reset();
    }

    /** A scratch directory under the build tree, wiped per call. */
    static std::string
    scratchDir(const char *name)
    {
        const std::filesystem::path dir =
            std::filesystem::temp_directory_path() /
            (std::string("f3d_flight_test_") + name);
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        return dir.string();
    }
};

// --- Trace-context propagation ------------------------------------------

TEST_F(FlightRecorderTest, ContextPropagatesThroughPool)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.setEnabled(true);
    ThreadPool pool(2);
    {
        obs::ScopedTraceContext ctx(obs::TraceContext{42, 0});
        pool.parallelFor(0, 8, [](int b, int e) {
            for (int i = b; i < e; ++i)
                F3D_TRACE_SPAN("test", "tile");
        });
    }
    const auto tiles = spansNamed(tracer.snapshot(), "tile");
    ASSERT_EQ(tiles.size(), 8u);
    for (const obs::TraceEvent &ev : tiles)
        EXPECT_EQ(ev.requestId, 42u) << "tile span lost its request id";
}

TEST_F(FlightRecorderTest, ContextRestoredAfterTask)
{
    // A worker that ran a request-tagged task must NOT leak that
    // context into the next, untagged task.
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.setEnabled(true);
    ThreadPool pool(1);
    {
        obs::ScopedTraceContext ctx(obs::TraceContext{7, 0});
        pool.submit([] { F3D_TRACE_SPAN("test", "tagged"); }).wait();
    }
    pool.submit([] { F3D_TRACE_SPAN("test", "untagged"); }).wait();

    const auto events = tracer.snapshot();
    const auto tagged = spansNamed(events, "tagged");
    const auto untagged = spansNamed(events, "untagged");
    ASSERT_EQ(tagged.size(), 1u);
    ASSERT_EQ(untagged.size(), 1u);
    EXPECT_EQ(tagged[0].requestId, 7u);
    EXPECT_EQ(untagged[0].requestId, 0u) << "context leaked across tasks";
}

TEST_F(FlightRecorderTest, NestedParallelForKeepsContext)
{
    // The serve path: a request task fans out into row tiles on the
    // same pool. Tiles stolen by other workers must stay attributed.
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.setEnabled(true);
    ThreadPool pool(2);
    {
        obs::ScopedTraceContext ctx(obs::TraceContext{9, 0});
        pool.waitHelping(*std::make_unique<std::future<void>>(
            pool.submit([&pool] {
                F3D_TRACE_SPAN("test", "outer_task");
                pool.parallelFor(0, 6, [](int b, int e) {
                    for (int i = b; i < e; ++i)
                        F3D_TRACE_SPAN("test", "inner_tile");
                });
            })));
    }
    const auto tiles = spansNamed(tracer.snapshot(), "inner_tile");
    ASSERT_EQ(tiles.size(), 6u);
    for (const obs::TraceEvent &ev : tiles)
        EXPECT_EQ(ev.requestId, 9u);
}

TEST_F(FlightRecorderTest, ScopedSpansLinkParentChild)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.setEnabled(true);
    {
        F3D_TRACE_SPAN("test", "outer");
        F3D_TRACE_SPAN("test", "inner");
    }
    const auto events = tracer.snapshot();
    const auto outer = spansNamed(events, "outer");
    const auto inner = spansNamed(events, "inner");
    ASSERT_EQ(outer.size(), 1u);
    ASSERT_EQ(inner.size(), 1u);
    EXPECT_NE(outer[0].spanId, 0u);
    EXPECT_EQ(inner[0].parentId, outer[0].spanId);
    EXPECT_EQ(outer[0].parentId, 0u);
}

TEST_F(FlightRecorderTest, JoinedThreadSpansSurviveIntoDump)
{
    // Flush-at-thread-exit audit: a worker records spans and exits
    // *before* the dump is taken; its buffer must still be serialized.
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.setEnabled(true);
    std::thread worker([] { F3D_TRACE_SPAN("test", "ephemeral_thread"); });
    worker.join();

    ASSERT_EQ(spansNamed(tracer.snapshot(), "ephemeral_thread").size(), 1u);
    std::ostringstream os;
    tracer.writeChromeTrace(os);
    EXPECT_NE(os.str().find("ephemeral_thread"), std::string::npos)
        << "joined thread's spans missing from the Chrome dump";
}

// --- FlightRecorder ring -------------------------------------------------

TEST_F(FlightRecorderTest, RingWrapsKeepingRecentHistory)
{
    obs::FlightRecorder &flight = obs::FlightRecorder::instance();
    obs::Tracer &tracer = obs::Tracer::instance();
    // Tracer bit off: events reach only the flight ring.
    const std::size_t n = obs::FlightRecorder::kRingCapacity + 500;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t t = tracer.nowNs();
        tracer.recordArg("wrap", "ev", t, t, i);
    }
    EXPECT_GE(flight.recorded(), static_cast<std::uint64_t>(n));

    std::ostringstream os;
    flight.snapshotJson(os, "wrap_test");
    const std::string json = os.str();
    // The newest event survives; the oldest was overwritten.
    EXPECT_NE(json.find("\"value\":" + std::to_string(n - 1)),
              std::string::npos);
    EXPECT_EQ(json.find("\"value\":0,"), std::string::npos);
    // At most one ring's worth of this thread's events is retained.
    std::size_t count = 0;
    for (std::size_t at = json.find("\"cat\":\"wrap\"");
         at != std::string::npos; at = json.find("\"cat\":\"wrap\"", at + 1))
        ++count;
    EXPECT_LE(count, obs::FlightRecorder::kRingCapacity);
    EXPECT_GT(count, 0u);
}

TEST_F(FlightRecorderTest, DumpWritesFileAndCapsStorm)
{
    obs::FlightRecorder &flight = obs::FlightRecorder::instance();
    const std::string dir = scratchDir("dumpcap");
    flight.setDumpDir(dir);

    const std::uint64_t t = obs::Tracer::instance().nowNs();
    obs::Tracer::instance().recordArg("boom", "precrash", t, t, 13);
    flight.triggerDump("unit test!"); // token-sanitized filename
    EXPECT_EQ(flight.dumps(), 1u);
    EXPECT_EQ(flight.lastReason(), "unit test!");
    EXPECT_NE(flight.lastSnapshot().find("precrash"), std::string::npos);

    bool found = false;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.path().filename().string().rfind("flight_1_", 0) == 0)
            found = true;
    EXPECT_TRUE(found) << "no flight_1_* dump file in " << dir;

    // A dump storm is capped: the black box must not flood the disk.
    for (int i = 0; i < 20; ++i)
        flight.triggerDump("storm");
    EXPECT_EQ(flight.dumps(), 8u);
    EXPECT_EQ(flight.suppressedDumps(), 13u);
}

TEST_F(FlightRecorderTest, RecorderDisabledRecordsNothing)
{
    obs::FlightRecorder &flight = obs::FlightRecorder::instance();
    flight.setEnabled(false);
    const std::uint64_t before = flight.recorded();
    const std::uint64_t t = obs::Tracer::instance().nowNs();
    obs::Tracer::instance().record("off", "ev", t, t);
    EXPECT_EQ(flight.recorded(), before);
    flight.setEnabled(true);
}

// --- SloMonitor (deterministic clock) ------------------------------------

TEST_F(FlightRecorderTest, SloLatencyBurnBreaches)
{
    obs::SloConfig cfg;
    cfg.enabled = true;
    cfg.targetP99Ms = 10.0;
    cfg.latencyBudget = 0.01;
    cfg.windowSeconds = 1.0;
    cfg.burnThreshold = 2.0;
    cfg.minWindowRequests = 5;
    std::vector<obs::SloWindowReport> reports;
    obs::SloMonitor monitor(
        cfg, [&reports](const obs::SloWindowReport &r) { reports.push_back(r); });

    // 10 requests in the window, 5 over target: over-fraction 0.5,
    // burn 0.5 / 0.01 = 50 >> 2.
    const std::uint64_t giga = 1000000000ull;
    for (int i = 0; i < 10; ++i) {
        const bool slow = i % 2 == 0;
        monitor.recordAt(static_cast<std::uint64_t>(i) * giga / 20,
                         slow ? 100.0 : 1.0, false,
                         static_cast<std::uint64_t>(i + 1));
    }
    // First sample past the window edge closes it.
    monitor.recordAt(giga + giga / 10, 1.0, false, 99);
    ASSERT_EQ(monitor.windowsClosed(), 1u);
    EXPECT_EQ(monitor.breaches(), 1u);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_TRUE(reports[0].breached);
    EXPECT_EQ(reports[0].requests, 10u);
    EXPECT_EQ(reports[0].overTarget, 5u);
    EXPECT_GE(reports[0].latencyBurn, 2.0);
    EXPECT_EQ(reports[0].worstRequestId, 9u); // latest of the tied maxima
    EXPECT_DOUBLE_EQ(reports[0].worstLatencyMs, 100.0);
    EXPECT_GE(reports[0].p99Ms, 90.0);
}

TEST_F(FlightRecorderTest, SloErrorBurnBreaches)
{
    obs::SloConfig cfg;
    cfg.enabled = true;
    cfg.targetP99Ms = 1000.0; // latency never over target
    cfg.errorBudget = 0.01;
    cfg.windowSeconds = 1.0;
    cfg.minWindowRequests = 5;
    std::vector<obs::SloWindowReport> reports;
    obs::SloMonitor monitor(
        cfg, [&reports](const obs::SloWindowReport &r) { reports.push_back(r); });

    const std::uint64_t giga = 1000000000ull;
    for (int i = 0; i < 10; ++i)
        monitor.recordAt(static_cast<std::uint64_t>(i) * giga / 20, 1.0,
                         /*error=*/i < 3, static_cast<std::uint64_t>(i + 1));
    monitor.closeWindow();
    ASSERT_EQ(monitor.windowsClosed(), 1u);
    EXPECT_EQ(monitor.breaches(), 1u);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].errors, 3u);
    EXPECT_GE(reports[0].errorBurn, 2.0);
}

TEST_F(FlightRecorderTest, SloSmallWindowNeverBreaches)
{
    obs::SloConfig cfg;
    cfg.enabled = true;
    cfg.targetP99Ms = 0.001; // everything over target...
    cfg.minWindowRequests = 20;
    int breaches = 0;
    obs::SloMonitor monitor(
        cfg, [&breaches](const obs::SloWindowReport &) { ++breaches; });
    for (int i = 0; i < 5; ++i) // ...but only 5 requests
        monitor.recordAt(static_cast<std::uint64_t>(i), 100.0, true);
    monitor.closeWindow();
    EXPECT_EQ(monitor.windowsClosed(), 1u);
    EXPECT_EQ(monitor.breaches(), 0u);
    EXPECT_EQ(breaches, 0);
}

TEST_F(FlightRecorderTest, SloHealthyWindowNoBreach)
{
    obs::SloConfig cfg;
    cfg.enabled = true;
    cfg.targetP99Ms = 50.0;
    cfg.minWindowRequests = 5;
    obs::SloMonitor monitor(cfg, nullptr);
    for (int i = 0; i < 100; ++i)
        monitor.recordAt(static_cast<std::uint64_t>(i) * 1000000ull, 5.0,
                         false);
    monitor.closeWindow();
    EXPECT_EQ(monitor.windowsClosed(), 1u);
    EXPECT_EQ(monitor.breaches(), 0u);
    EXPECT_EQ(monitor.lastWindow().overTarget, 0u);
}

// --- Server integration ---------------------------------------------------

TEST_F(FlightRecorderTest, WorkerExceptionTriggersDumpWithRequestSpans)
{
    const std::string dir = scratchDir("chaos");
    obs::FlightRecorder::instance().setDumpDir(dir);
    ASSERT_TRUE(FaultInjector::instance().configureFromSpec(
        "serve.dispatch.throw=once"));

    serve::ModelRegistry registry;
    registry.add("m", std::make_unique<nerf::NerfModel>(tinyModelConfig(), 7));
    serve::ServeConfig sc;
    sc.renderThreads = 1;
    serve::RenderServer server(registry, sc);

    serve::RenderRequest req;
    req.model = "m";
    req.camera = testCamera();
    const serve::RenderResponse r = server.submit(req).get();
    server.shutdown();

    EXPECT_EQ(r.outcome, serve::Outcome::failedInternal);
    // Both the fault fire and the worker catch trigger the black box.
    EXPECT_GE(obs::FlightRecorder::instance().dumps(), 1u);
    const std::string snap = obs::FlightRecorder::instance().lastSnapshot();
    EXPECT_NE(snap.find("\"req\":1"), std::string::npos)
        << "dump lacks the offending request's spans";
    bool wrote_file = false;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.file_size() > 0)
            wrote_file = true;
    EXPECT_TRUE(wrote_file);
}

TEST_F(FlightRecorderTest, ForcedSloBreachDumpsFlightRecorder)
{
    serve::ModelRegistry registry;
    registry.add("m", std::make_unique<nerf::NerfModel>(tinyModelConfig(), 7));
    serve::ServeConfig sc;
    sc.renderThreads = 1;
    sc.slo.enabled = true;
    sc.slo.targetP99Ms = 0.0001; // every render is over target
    sc.slo.windowSeconds = 0.02;
    sc.slo.minWindowRequests = 1;
    serve::RenderServer server(registry, sc);

    for (int i = 0; i < 6; ++i) {
        serve::RenderRequest req;
        req.model = "m";
        req.camera = testCamera();
        ASSERT_EQ(server.submit(req).get().outcome,
                  serve::Outcome::renderedFull);
    }
    server.drain();
    ASSERT_NE(server.slo(), nullptr);
    server.shutdown(); // closes the final partial window
    EXPECT_GE(server.slo()->windowsClosed(), 1u);
    EXPECT_GE(server.slo()->breaches(), 1u);
    EXPECT_GE(obs::FlightRecorder::instance().dumps(), 1u);
    EXPECT_EQ(obs::FlightRecorder::instance().lastReason(), "slo_breach");
    EXPECT_NE(obs::FlightRecorder::instance().lastSnapshot().find("\"req\":"),
              std::string::npos);
}

TEST_F(FlightRecorderTest, TracedServerRequestsReassembleWithCoverage)
{
    // The in-process version of the `f3d_trace --check` CI gate: every
    // completed request forms one tree rooted at the "request" span,
    // and its direct children account for >= 90 % of the latency.
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.setEnabled(true);

    serve::ModelRegistry registry;
    registry.add("m", std::make_unique<nerf::NerfModel>(tinyModelConfig(), 7));
    serve::ServeConfig sc;
    sc.renderThreads = 2;
    serve::RenderServer server(registry, sc);

    constexpr int kRequests = 6;
    std::vector<std::future<serve::RenderResponse>> futures;
    for (int i = 0; i < kRequests; ++i) {
        serve::RenderRequest req;
        req.model = "m";
        req.camera = testCamera();
        futures.push_back(server.submit(req));
    }
    for (auto &f : futures)
        EXPECT_FALSE(serve::isRejected(f.get().outcome));
    server.shutdown();

    // Reassemble per-request trees from the snapshot.
    std::map<std::uint64_t, std::vector<obs::TraceEvent>> by_request;
    for (const obs::TraceEvent &ev : tracer.snapshot())
        if (ev.requestId != 0)
            by_request[ev.requestId].push_back(ev);
    ASSERT_EQ(by_request.size(), static_cast<std::size_t>(kRequests));

    for (const auto &[req_id, events] : by_request) {
        const obs::TraceEvent *root = nullptr;
        int roots = 0;
        for (const obs::TraceEvent &ev : events) {
            if (std::string(ev.name) == "request") {
                ++roots;
                root = &ev;
            }
        }
        ASSERT_EQ(roots, 1) << "request " << req_id
                            << " must have exactly one root span";
        ASSERT_NE(root, nullptr);
        EXPECT_EQ(root->parentId, 0u);
        const double duration =
            static_cast<double>(root->t1Ns - root->t0Ns);
        ASSERT_GT(duration, 0.0);

        // Union of the root's direct children, clipped to the root.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
        for (const obs::TraceEvent &ev : events) {
            if (ev.parentId != root->spanId)
                continue;
            const std::uint64_t b = std::max(ev.t0Ns, root->t0Ns);
            const std::uint64_t e = std::min(ev.t1Ns, root->t1Ns);
            if (e > b)
                intervals.emplace_back(b, e);
        }
        std::sort(intervals.begin(), intervals.end());
        double covered = 0.0;
        std::uint64_t hi = 0;
        for (const auto &[b, e] : intervals) {
            if (e <= hi)
                continue;
            covered += static_cast<double>(e - std::max(b, hi));
            hi = e;
        }
        EXPECT_GE(covered / duration, 0.9)
            << "request " << req_id << " attributes only "
            << 100.0 * covered / duration << "% of its latency";
    }
}

} // namespace
