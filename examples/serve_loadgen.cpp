/**
 * @file
 * Example: a closed-loop load generator against the render-serving
 * subsystem (`fusion3d::serve`). Two phases:
 *
 *  1. Scaling — the same frame stream served with 1, 2, and 4 render
 *     threads; closed-loop clients keep the queue primed so the
 *     work-sharing pool is the bottleneck. Each configuration is timed
 *     over a steady window after [frames_per_config] untimed warm-up
 *     frames. On a machine with >= 4 hardware threads, 4 workers must
 *     deliver >= 2x the frame rate of 1 worker.
 *  2. Overload — tight deadlines and a deliberately undersized queue
 *     push the server down its degrade ladder (half-resolution for
 *     stateless frames, the warp of the session keyframe for a camera
 *     stream) and into admission-control shedding. The run must
 *     terminate cleanly with nonzero degrade/shed counters.
 *
 * A third mode replaces both phases with a *session trace*:
 *
 *  --orbit         N concurrent camera streams (default 4, see
 *                  --sessions), each a client thread orbiting its own
 *                  camera in small steps and tagging its requests with
 *                  a session id — the workload the temporal
 *                  reprojection cache accelerates. Prints per-stream
 *                  outcomes plus one machine-readable "JSON:" summary
 *                  line with the session cache hit rate and the mean
 *                  rays actually marched per frame.
 *
 * A fourth mode exercises the *model fleet*:
 *
 *  --fleet N       deploy N distinct models from `.f3dm` artifacts and
 *                  drive zipf-distributed traffic at them from
 *                  concurrent tenants (closed loop, [frames] requests
 *                  per tenant). With --budget M the registry only fits
 *                  M models resident, so the popularity tail is LRU-
 *                  evicted and reloaded on demand. Prints per-tenant
 *                  outcome counts and latency quantiles plus a "JSON:"
 *                  line with the eviction hit rate, reloads/s, and
 *                  per-tenant p99.
 *
 * Usage: serve_loadgen [frames_per_config] [resolution]
 *            [--orbit] [--sessions N] [--tensorf]
 *            [--fleet N] [--zipf S] [--tenants T] [--budget M]
 *            [--trace FILE] [--metrics FILE] [--faults SPEC]
 *            [--slo TARGET_MS] [--flight-dump DIR] [--metrics-prefix P]
 *
 *  --orbit         run the session-trace mode described above;
 *  --tensorf       deploy the demo model as a TensoRF (CP-factorized)
 *                  backend from a `.f3dm` artifact instead of the
 *                  in-memory hash-grid model; the serve path is
 *                  backend-polymorphic, so the scaling/overload/orbit
 *                  phases run unchanged against it;
 *  --sessions N    number of concurrent streams in --orbit mode;
 *  --fleet N       run the fleet mode described above with N models;
 *  --zipf S        zipf exponent of the fleet's popularity curve
 *                  (default 1.1);
 *  --tenants T     concurrent tenants in --fleet mode (default 4);
 *  --budget M      registry memory budget in models (--fleet mode);
 *                  0 = unlimited, the default;
 *  --trace FILE    enable the span tracer and write a Chrome
 *                  trace-event JSON (load in Perfetto) of the run;
 *  --metrics FILE  write a Prometheus text snapshot of the overload
 *                  phase's metrics;
 *  --faults SPEC   arm the fault injector with a FaultPlan spec (e.g.
 *                  "serve.dispatch.slow=p0.2;serve.dispatch.throw=p0.05;
 *                  seed=7") and run both phases under it. With faults
 *                  armed, worker failures are tolerated (counted, not
 *                  fatal); the every-request-terminates and
 *                  stats-reconciliation checks still apply;
 *  --slo TARGET_MS enable the SLO watchdog with the given p99 latency
 *                  target (1 s windows); a breaching window dumps the
 *                  flight recorder;
 *  --flight-dump DIR
 *                  write flight-recorder dumps (SLO breaches, faults,
 *                  worker throws) as JSON files under DIR, plus one
 *                  unconditional snapshot at exit;
 *  --metrics-prefix P
 *                  prefix Prometheus metric names with P (default
 *                  "fusion3d_").
 *
 * Every numeric flag and positional must parse whole and lie in range
 * (at most 256 sessions or tenants, one client thread each); anything
 * else prints the usage line and exits non-zero.
 *
 * Besides the mode-specific "JSON:" line, every run prints one
 * "LATENCY_JSON:" line: p50/p99/p99.9 latency, per-outcome latency
 * quantiles, the worst request's id (feed it to f3d_trace --request),
 * and SLO window/breach counts when --slo is on.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include <filesystem>

#include "common/fault.h"
#include "common/logging.h"
#include "common/rng.h"
#include "nerf/nerf_model.h"
#include "nerf/serialize.h"
#include "nerf/tensorf.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/scheduler.h"

using namespace fusion3d;

namespace
{

nerf::NerfModelConfig
demoModelConfig()
{
    nerf::NerfModelConfig cfg;
    cfg.grid.levels = 6;
    cfg.grid.featuresPerLevel = 2;
    cfg.grid.log2TableSize = 12;
    cfg.grid.baseResolution = 8;
    cfg.grid.maxResolution = 64;
    cfg.geoFeatures = 7;
    cfg.densityHidden = 16;
    cfg.colorHidden = 16;
    cfg.shDegree = 2;
    return cfg;
}

/** The demo scene as a TensoRF backend (--tensorf), serve-sized like
 *  demoModelConfig(). */
nerf::TensorfModelConfig
demoTensorfConfig()
{
    nerf::TensorfModelConfig cfg;
    cfg.densityRank = 6;
    cfg.appearanceRank = 8;
    cfg.lineResolution = 48;
    cfg.appearanceDim = 8;
    cfg.colorHidden = 16;
    return cfg;
}

/** --slo TARGET_MS; 0 leaves the watchdog off. */
double g_slo_target_ms = 0.0;

serve::ServeConfig
baseConfig(int threads)
{
    serve::ServeConfig sc;
    sc.renderThreads = threads;
    sc.render.sampler.maxSamplesPerRay = 24;
    if (g_slo_target_ms > 0.0) {
        sc.slo.enabled = true;
        sc.slo.targetP99Ms = g_slo_target_ms;
        sc.slo.windowSeconds = 1.0;
        sc.slo.minWindowRequests = 8;
    }
    return sc;
}

/**
 * The shared latency summary: overall p50/p99/p99.9, latency quantiles
 * per outcome that actually occurred, the worst request's id (the one
 * to look up with `f3d_trace --request`), and the SLO window/breach
 * counts when the watchdog is on.
 */
std::string
latencySummaryJson(const serve::ServerStats &stats,
                   const obs::SloMonitor *slo)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"p999_ms\":%.3f,"
                  "\"worst_latency_ms\":%.3f,\"worst_request_id\":%llu",
                  stats.p50LatencyMs(), stats.p99LatencyMs(),
                  stats.p999LatencyMs(), stats.worstLatencyMs(),
                  static_cast<unsigned long long>(
                      stats.worstLatencyRequestId()));
    std::string json = buf;
    json += ",\"outcomes\":{";
    bool first = true;
    for (int i = 0; i < serve::kOutcomeCount; ++i) {
        const auto outcome = static_cast<serve::Outcome>(i);
        const std::uint64_t n = stats.count(outcome);
        if (n == 0)
            continue;
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\":{\"count\":%llu,\"p50_ms\":%.3f,"
                      "\"p99_ms\":%.3f}",
                      first ? "" : ",", serve::outcomeName(outcome),
                      static_cast<unsigned long long>(n),
                      stats.outcomeLatencyQuantileMs(outcome, 0.50),
                      stats.outcomeLatencyQuantileMs(outcome, 0.99));
        json += buf;
        first = false;
    }
    json += "}";
    if (slo) {
        std::snprintf(buf, sizeof(buf),
                      ",\"slo\":{\"target_p99_ms\":%.1f,\"windows\":%llu,"
                      "\"breaches\":%llu}",
                      slo->config().targetP99Ms,
                      static_cast<unsigned long long>(slo->windowsClosed()),
                      static_cast<unsigned long long>(slo->breaches()));
        json += buf;
    }
    json += "}";
    return json;
}

/** Orbit camera for frame @p i of the stream. */
nerf::Camera
orbitFrame(int i, int size)
{
    return nerf::Camera::orbit({0.5f, 0.5f, 0.5f}, 1.4f, 35.0f, 20.0f,
                               static_cast<float>(i * 7 % 360), size, size);
}

/** Frame @p i of session @p s's smooth orbit (0.5 deg/frame — the
 *  small-motion stream the reprojection cache accelerates). */
nerf::Camera
sessionFrame(int s, int i, int size)
{
    return nerf::Camera::orbit({0.5f, 0.5f, 0.5f}, 1.4f,
                               35.0f + 90.0f * s + 0.5f * i, 20.0f, 45.0f,
                               size, size);
}

/**
 * Session-trace mode (--orbit): @p sessions concurrent streams of
 * @p frames small-motion frames each, every request tagged with its
 * stream's session id so the server can serve it by temporal
 * reprojection. Returns the process exit code.
 */
int
runOrbitTrace(serve::ModelRegistry &registry, int frames, int size,
              int sessions, const std::string &metrics_path,
              const std::string &trace_path)
{
    inform("orbit mode: %d session(s) x %d frames of %dx%d", sessions, frames,
           size, size);
    serve::ServeConfig sc = baseConfig(2);
    serve::RenderServer server(registry, sc);

    std::atomic<std::uint64_t> rejected{0};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(sessions));
    for (int s = 0; s < sessions; ++s) {
        threads.emplace_back([&server, &rejected, s, frames, size]() {
            const std::string session = "orbit-" + std::to_string(s);
            for (int i = 0; i < frames; ++i) {
                serve::RenderRequest req;
                req.model = "demo";
                req.camera = sessionFrame(s, i, size);
                req.session = session;
                const serve::RenderResponse r = server.submit(req).get();
                if (serve::isRejected(r.outcome)) {
                    rejected.fetch_add(1);
                    if (!FaultInjector::instance().active())
                        fatal("unloaded server rejected frame %d of %s (%s)",
                              i, session.c_str(),
                              serve::outcomeName(r.outcome));
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    server.drainAndPrintStats(std::cout);

    const auto &stats = server.stats();
    const std::uint64_t total = static_cast<std::uint64_t>(sessions) * frames;
    const std::uint64_t lookups = stats.sessionHits() + stats.sessionMisses();
    const double hit_rate =
        lookups ? static_cast<double>(stats.sessionHits()) / lookups : 0.0;
    const std::uint64_t completed_frames =
        std::max<std::uint64_t>(1, total - rejected.load());
    const double rays_per_frame =
        static_cast<double>(stats.raysMarched()) / completed_frames;
    const double rays_saved_frac =
        stats.raysMarched() + stats.raysSaved()
            ? static_cast<double>(stats.raysSaved()) /
                  (stats.raysMarched() + stats.raysSaved())
            : 0.0;

    inform("orbit summary: %.2f frames/s, session hit rate %.0f%%, "
           "%llu reprojected / %llu full, mean %.0f rays/frame "
           "(%.0f%% served from the warp), mean warp %.2f ms",
           total / seconds, hit_rate * 100.0,
           static_cast<unsigned long long>(
               stats.count(serve::Outcome::renderedReproject)),
           static_cast<unsigned long long>(
               stats.count(serve::Outcome::renderedFull)),
           rays_per_frame, rays_saved_frac * 100.0, stats.meanWarpMs());

    char json[512];
    std::snprintf(
        json, sizeof(json),
        "{\"bench\":\"serve_orbit\",\"sessions\":%d,\"frames_per_session\":%d,"
        "\"size\":%d,\"fps\":%.3f,\"hit_rate\":%.4f,\"reproject_frames\":%llu,"
        "\"full_frames\":%llu,\"reproject_fallbacks\":%llu,"
        "\"rays_per_frame\":%.1f,\"rays_saved_fraction\":%.4f,"
        "\"mean_warp_ms\":%.3f}",
        sessions, frames, size, total / seconds, hit_rate,
        static_cast<unsigned long long>(
            stats.count(serve::Outcome::renderedReproject)),
        static_cast<unsigned long long>(
            stats.count(serve::Outcome::renderedFull)),
        static_cast<unsigned long long>(stats.reprojectFallbacks()),
        rays_per_frame, rays_saved_frac, stats.meanWarpMs());
    std::printf("JSON: %s\n", json);

    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        if (!out)
            fatal("cannot open metrics file '%s'", metrics_path.c_str());
        obs::MetricsRegistry::global().exportPrometheus(out);
        inform("wrote metrics snapshot to %s", metrics_path.c_str());
    }
    server.shutdown();
    std::printf("LATENCY_JSON: %s\n",
                latencySummaryJson(stats, server.slo()).c_str());
    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (!out)
            fatal("cannot open trace file '%s'", trace_path.c_str());
        obs::Tracer::instance().writeChromeTrace(out);
        inform("wrote %zu trace spans to %s (%llu dropped)",
               obs::Tracer::instance().eventCount(), trace_path.c_str(),
               static_cast<unsigned long long>(
                   obs::Tracer::instance().dropped()));
    }

    bool ok = stats.completed() == stats.submitted();
    if (!ok)
        warn("drain left %llu requests unaccounted",
             static_cast<unsigned long long>(stats.submitted() -
                                             stats.completed()));
    // Fault-free, a warm small-motion stream must actually exercise the
    // accelerate rung: every frame after each session's first is a
    // cache hit, and most of them serve by reprojection.
    if (!FaultInjector::instance().active()) {
        if (stats.sessionHits() <
            static_cast<std::uint64_t>(sessions) * (frames - 1)) {
            warn("expected %d warm frames per session to hit the cache",
                 frames - 1);
            ok = false;
        }
        if (stats.count(serve::Outcome::renderedReproject) == 0) {
            warn("expected reprojected frames on a small-motion stream");
            ok = false;
        }
    }
    inform(ok ? "serve_loadgen: all checks passed"
              : "serve_loadgen: CHECKS FAILED");
    return ok ? 0 : 1;
}

/** Zipf(@p s) cumulative distribution over ranks [0, n). */
std::vector<double>
zipfCdf(int n, double s)
{
    std::vector<double> cdf(static_cast<std::size_t>(n));
    double sum = 0.0;
    for (int k = 0; k < n; ++k) {
        sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf[static_cast<std::size_t>(k)] = sum;
    }
    for (double &c : cdf)
        c /= sum;
    return cdf;
}

/**
 * Fleet mode (--fleet): deploy @p fleet_n models from artifacts, give
 * the registry a budget of @p budget_models resident models (0 =
 * unlimited), and replay zipf(@p zipf_s) traffic from @p tenants_n
 * closed-loop tenants, @p frames requests each. Returns the process
 * exit code.
 */
int
runFleetTrace(int frames, int size, int fleet_n, double zipf_s, int tenants_n,
              int budget_models, const std::string &metrics_path,
              const std::string &trace_path)
{
    inform("fleet mode: %d models, zipf(%.2f), %d tenant(s) x %d requests of "
           "%dx%d, budget %s",
           fleet_n, zipf_s, tenants_n, frames, size, size,
           budget_models > 0
               ? strprintf("%d model(s)", budget_models).c_str()
               : "unlimited");

    // Save the fleet's artifacts (distinct weights per model).
    const std::string dir = std::filesystem::temp_directory_path().string();
    std::vector<std::string> paths;
    paths.reserve(static_cast<std::size_t>(fleet_n));
    for (int i = 0; i < fleet_n; ++i) {
        const nerf::NerfModel model(demoModelConfig(),
                                    3000 + static_cast<std::uint64_t>(i));
        std::string path = dir + strprintf("/f3d_loadgen_fleet_%03d.f3dm", i);
        if (!nerf::saveModel(model, path))
            fatal("cannot write fleet artifact %s", path.c_str());
        paths.push_back(std::move(path));
    }
    const auto name = [](int i) { return strprintf("fleet%03d", i); };

    serve::RegistryConfig rc;
    if (budget_models > 0) {
        // Size the budget off one probe entry; all fleet models share a
        // config, so every entry weighs the same.
        serve::ModelRegistry probe(rc);
        if (probe.addFromFile(name(0), paths[0]) != nerf::LoadStatus::ok)
            fatal("probe deploy failed");
        rc.memoryBudgetBytes =
            static_cast<std::size_t>(budget_models) * probe.residentBytes() +
            probe.residentBytes() / 2;
    }
    serve::ModelRegistry registry(rc);
    for (int i = 0; i < fleet_n; ++i)
        if (registry.addFromFile(name(i), paths[static_cast<std::size_t>(i)]) !=
            nerf::LoadStatus::ok)
            fatal("failed to deploy fleet model %d", i);

    serve::RenderServer server(registry, baseConfig(2));
    const std::vector<double> cdf = zipfCdf(fleet_n, zipf_s);
    const std::uint64_t hits0 = registry.acquireHits();
    const std::uint64_t reloads0 = registry.reloads();

    std::atomic<std::uint64_t> failed{0};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(tenants_n));
    for (int t = 0; t < tenants_n; ++t) {
        threads.emplace_back([&, t]() {
            Pcg32 rng(0xf1ee7ULL, 100 + static_cast<std::uint64_t>(t));
            for (int i = 0; i < frames; ++i) {
                serve::RenderRequest req;
                const double u = static_cast<double>(rng.nextFloat());
                const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
                req.model = name(static_cast<int>(it - cdf.begin()));
                req.tenant = strprintf("tenant%d", t);
                req.camera = orbitFrame(i, size);
                const serve::RenderResponse r = server.submit(req).get();
                if (r.outcome != serve::Outcome::renderedFull &&
                    r.outcome != serve::Outcome::renderedHalf) {
                    failed.fetch_add(1);
                    if (!FaultInjector::instance().active())
                        fatal("unloaded fleet rejected request %d of tenant%d "
                              "(%s)",
                              i, t, serve::outcomeName(r.outcome));
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    server.drainAndPrintStats(std::cout);
    const auto &stats = server.stats();
    const std::uint64_t hits = registry.acquireHits() - hits0;
    const std::uint64_t reloads = registry.reloads() - reloads0;
    const double hit_rate =
        hits + reloads > 0
            ? static_cast<double>(hits) / static_cast<double>(hits + reloads)
            : 1.0;
    const double fps =
        static_cast<double>(tenants_n) * static_cast<double>(frames) / seconds;

    std::printf("%-12s %10s %8s %10s %10s %10s\n", "tenant", "completed",
                "shed", "quota rej", "p50 (ms)", "p99 (ms)");
    std::string tenants_json;
    for (const std::string &id : stats.tenantNames()) {
        std::printf("%-12s %10llu %8llu %10llu %10.2f %10.2f\n", id.c_str(),
                    static_cast<unsigned long long>(stats.tenantCompleted(id)),
                    static_cast<unsigned long long>(stats.tenantShed(id)),
                    static_cast<unsigned long long>(
                        stats.tenantQuotaRejected(id)),
                    stats.tenantLatencyQuantileMs(id, 0.50),
                    stats.tenantLatencyQuantileMs(id, 0.99));
        tenants_json += strprintf(
            "%s\"%s\":{\"completed\":%llu,\"shed\":%llu,\"p99_ms\":%.3f}",
            tenants_json.empty() ? "" : ",", id.c_str(),
            static_cast<unsigned long long>(stats.tenantCompleted(id)),
            static_cast<unsigned long long>(stats.tenantShed(id)),
            stats.tenantLatencyQuantileMs(id, 0.99));
    }
    inform("fleet summary: %.2f frames/s, hit rate %.3f, %llu reloads "
           "(%.2f/s), %llu evictions, %llu swaps",
           fps, hit_rate, static_cast<unsigned long long>(reloads),
           static_cast<double>(reloads) / seconds,
           static_cast<unsigned long long>(registry.evictions()),
           static_cast<unsigned long long>(registry.swaps()));

    std::printf(
        "JSON: {\"bench\":\"serve_fleet\",\"models\":%d,\"zipf\":%.2f,"
        "\"tenants\":%d,\"requests_per_tenant\":%d,\"budget_models\":%d,"
        "\"fps\":%.3f,\"hit_rate\":%.4f,\"reloads\":%llu,"
        "\"reloads_per_s\":%.3f,\"evictions\":%llu,\"tenant_p99\":{%s}}\n",
        fleet_n, zipf_s, tenants_n, frames, budget_models, fps, hit_rate,
        static_cast<unsigned long long>(reloads),
        static_cast<double>(reloads) / seconds,
        static_cast<unsigned long long>(registry.evictions()),
        tenants_json.c_str());

    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        if (!out)
            fatal("cannot open metrics file '%s'", metrics_path.c_str());
        obs::MetricsRegistry::global().exportPrometheus(out);
        inform("wrote metrics snapshot to %s", metrics_path.c_str());
    }
    server.shutdown();
    std::printf("LATENCY_JSON: %s\n",
                latencySummaryJson(stats, server.slo()).c_str());
    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (!out)
            fatal("cannot open trace file '%s'", trace_path.c_str());
        obs::Tracer::instance().writeChromeTrace(out);
        inform("wrote %zu trace spans to %s (%llu dropped)",
               obs::Tracer::instance().eventCount(), trace_path.c_str(),
               static_cast<unsigned long long>(
                   obs::Tracer::instance().dropped()));
    }
    for (const std::string &p : paths)
        std::remove(p.c_str());

    bool ok = stats.completed() == stats.submitted();
    if (!ok)
        warn("drain left %llu requests unaccounted",
             static_cast<unsigned long long>(stats.submitted() -
                                             stats.completed()));
    if (!FaultInjector::instance().active() && failed.load() > 0)
        ok = false;
    inform(ok ? "serve_loadgen: all checks passed"
              : "serve_loadgen: CHECKS FAILED");
    return ok ? 0 : 1;
}

/** Phase 1's timed window per configuration: long enough that the
 *  4-vs-1 ratio is steady at any resolution. */
constexpr double kScalingWindowS = 0.5;

/**
 * Closed-loop throughput: @p clients client threads, each submitting
 * its next frame only after the previous one completed. The first
 * @p frames frames warm the render workers up untimed; then frames/s is
 * the completions over a window of at least kScalingWindowS and at
 * least @p frames frames, measured with every client still busy.
 */
double
closedLoopFps(serve::RenderServer &server, int frames, int clients, int size)
{
    std::atomic<int> next{0};
    std::atomic<int> done{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&server, &next, &done, &stop, size]() {
            while (!stop.load()) {
                const int i = next.fetch_add(1);
                serve::RenderRequest req;
                req.model = "demo";
                req.camera = orbitFrame(i, size);
                const serve::RenderResponse r = server.submit(req).get();
                // Under an armed fault plan rejections are the point of
                // the exercise; unloaded and fault-free they are a bug.
                if (serve::isRejected(r.outcome) &&
                    !FaultInjector::instance().active())
                    fatal("unloaded server rejected frame %d (%s)", i,
                          serve::outcomeName(r.outcome));
                done.fetch_add(1);
            }
        });
    }
    using Clock = std::chrono::steady_clock;
    const auto poll = std::chrono::milliseconds(1);
    while (done.load() < frames)
        std::this_thread::sleep_for(poll);
    const int done0 = done.load();
    const Clock::time_point t0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(kScalingWindowS));
    while (done.load() - done0 < frames)
        std::this_thread::sleep_for(poll);
    const int timed = done.load() - done0;
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    stop.store(true);
    for (std::thread &t : threads)
        t.join();
    return static_cast<double>(timed) / seconds;
}

/** Cap on --sessions and --tenants: each is one client thread. */
constexpr int kMaxClients = 256;

[[noreturn]] void
usage(const char *argv0)
{
    fatal("usage: %s [frames] [resolution] [--orbit] [--sessions N] "
          "[--tensorf] "
          "[--fleet N] [--zipf S] [--tenants T] [--budget M] "
          "[--trace FILE] [--metrics FILE] [--faults SPEC] "
          "[--slo TARGET_MS] [--flight-dump DIR] "
          "[--metrics-prefix P]",
          argv0);
}

/** All of @p text as an integer in [@p lo, @p hi]; anything else
 *  (trailing junk, overflow, out of range) is a usage error. */
int
parseInt(const char *text, int lo, int hi, const char *argv0)
{
    const char *end = text + std::strlen(text);
    int value = 0;
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end || value < lo || value > hi) {
        warn("bad integer '%s' (expected %d..%d)", text, lo, hi);
        usage(argv0);
    }
    return value;
}

/** All of @p text as a finite number in [@p lo, @p hi]. */
double
parseDouble(const char *text, double lo, double hi, const char *argv0)
{
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(value) || value < lo || value > hi) {
        warn("bad number '%s' (expected %g..%g)", text, lo, hi);
        usage(argv0);
    }
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    int frames = 24;
    int size = 48;
    bool orbit = false;
    bool tensorf = false;
    int sessions = 4;
    int fleet_n = 0;
    double zipf_s = 1.1;
    int tenants_n = 4;
    int budget_models = 0;
    std::string trace_path;
    std::string metrics_path;
    std::string fault_spec;
    std::string flight_dir;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
            fault_spec = argv[++i];
        } else if (std::strcmp(argv[i], "--orbit") == 0) {
            orbit = true;
        } else if (std::strcmp(argv[i], "--tensorf") == 0) {
            tensorf = true;
        } else if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
            sessions = parseInt(argv[++i], 1, kMaxClients, argv[0]);
        } else if (std::strcmp(argv[i], "--fleet") == 0 && i + 1 < argc) {
            fleet_n = parseInt(argv[++i], 1, 4096, argv[0]);
        } else if (std::strcmp(argv[i], "--zipf") == 0 && i + 1 < argc) {
            zipf_s = parseDouble(argv[++i], 0.0, 100.0, argv[0]);
        } else if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
            tenants_n = parseInt(argv[++i], 1, kMaxClients, argv[0]);
        } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
            budget_models = parseInt(argv[++i], 0, 4096, argv[0]);
        } else if (std::strcmp(argv[i], "--slo") == 0 && i + 1 < argc) {
            g_slo_target_ms = parseDouble(argv[++i], 1e-3, 1e9, argv[0]);
        } else if (std::strcmp(argv[i], "--flight-dump") == 0 &&
                   i + 1 < argc) {
            flight_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics-prefix") == 0 &&
                   i + 1 < argc) {
            obs::MetricsRegistry::global().setPrometheusPrefix(argv[++i]);
        } else if (argv[i][0] != '-' && positional == 0) {
            frames = parseInt(argv[i], 1, 1000000, argv[0]);
            ++positional;
        } else if (argv[i][0] != '-' && positional == 1) {
            size = parseInt(argv[i], 8, 4096, argv[0]);
            ++positional;
        } else {
            usage(argv[0]);
        }
    }

    if (!trace_path.empty())
        obs::Tracer::instance().setEnabled(true);
    if (!flight_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(flight_dir, ec);
        if (ec)
            fatal("cannot create flight-dump dir '%s': %s", flight_dir.c_str(),
                  ec.message().c_str());
        obs::FlightRecorder::instance().setDumpDir(flight_dir);
        inform("flight-recorder dumps -> %s", flight_dir.c_str());
    }
    // One unconditional snapshot on the way out (any return path), so a
    // clean run still leaves a black-box file to inspect.
    struct FlightExitDump
    {
        bool armed = false;
        ~FlightExitDump()
        {
            if (armed)
                obs::FlightRecorder::instance().triggerDump("loadgen_exit");
        }
    } flight_exit;
    flight_exit.armed = !flight_dir.empty();

    if (!fault_spec.empty()) {
        std::string why;
        if (!FaultInjector::instance().configureFromSpec(fault_spec, &why))
            fatal("bad --faults spec: %s", why.c_str());
        inform("fault plan armed: %s", fault_spec.c_str());
    }

    if (fleet_n > 0)
        return runFleetTrace(frames, size, fleet_n, zipf_s, tenants_n,
                             budget_models, metrics_path, trace_path);

    serve::ModelRegistry registry;
    std::string tensorf_path;
    if (tensorf) {
        // Deploy through the real artifact path: write a `.f3dm`
        // TensoRF artifact, then addFromFile() — exactly what a
        // production deploy does. Everything downstream (batching,
        // degrade ladder, sessions) is backend-agnostic.
        const nerf::TensorfModel model(demoTensorfConfig(), 2024);
        tensorf_path = (std::filesystem::temp_directory_path() /
                        "serve_loadgen_tensorf.f3dm")
                           .string();
        if (!nerf::saveModelAtomic(model, tensorf_path))
            fatal("cannot write TensoRF artifact %s", tensorf_path.c_str());
        if (registry.addFromFile("demo", tensorf_path) !=
            nerf::LoadStatus::ok)
            fatal("failed to deploy TensoRF artifact %s",
                  tensorf_path.c_str());
        inform("demo model: TensoRF backend from artifact %s",
               tensorf_path.c_str());
    } else {
        registry.add("demo", std::make_unique<nerf::NerfModel>(
                                 demoModelConfig(), 2024));
    }
    // Keep the artifact until exit: the registry remembers its path
    // for reload-on-demand.
    struct ArtifactCleanup
    {
        std::string path;
        ~ArtifactCleanup()
        {
            if (!path.empty())
                std::remove(path.c_str());
        }
    } artifact_cleanup{tensorf_path};

    if (orbit)
        return runOrbitTrace(registry, frames, size, sessions, metrics_path,
                             trace_path);

    // --- Phase 1: throughput scaling across render threads ---
    inform("phase 1: closed-loop throughput at %dx%d, %d warm-up frames then "
           "a %.1f s window per config",
           size, size, frames, kScalingWindowS);
    double fps1 = 0.0, fps4 = 0.0;
    for (const int threads : {1, 2, 4}) {
        serve::RenderServer server(registry, baseConfig(threads));
        const double fps = closedLoopFps(server, frames, /*clients=*/4, size);
        server.shutdown();
        inform("  %d render thread(s): %6.2f frames/s", threads, fps);
        if (threads == 1)
            fps1 = fps;
        if (threads == 4)
            fps4 = fps;
    }

    const unsigned hw = std::thread::hardware_concurrency();
    bool scaling_ok = true;
    if (hw >= 4) {
        scaling_ok = fps4 >= 2.0 * fps1;
        inform("  speedup 4 vs 1 threads: %.2fx (%s)", fps4 / fps1,
               scaling_ok ? "ok, >= 2x" : "FAILED, expected >= 2x");
    } else {
        inform("  speedup 4 vs 1 threads: %.2fx (not asserted: only %u "
               "hardware thread(s))",
               fps4 / fps1, hw);
    }

    // --- Phase 2: overload — degrade ladder and admission shedding ---
    inform("phase 2: overload (queue capacity 4, deadline pressure)");
    serve::ServeConfig sc = baseConfig(2);
    sc.queueCapacity = 4;
    sc.maxInFlight = 1;
    serve::RenderServer server(registry, sc);

    // Warm up: one unconstrained frame seeds the cost model and the
    // keyframe of the phase's camera stream.
    const std::string stream = "overload";
    {
        serve::RenderRequest req;
        req.model = "demo";
        req.camera = orbitFrame(0, size);
        req.session = stream;
        server.submit(req).get();
    }
    const double est_full = server.estimatedSecondsPerPixel() * size * size *
                            sc.estimateHeadroom;

    // Tight-deadline frames, submitted serially so the queue wait does
    // not eat the budget. Stateless frames get half the full-frame
    // estimate, which forces the half-resolution step; stream frames
    // get a tenth, which cannot afford re-rendering the tiles the warp
    // of the keyframe misses, so they take the warp-degrade rung.
    for (int i = 1; i <= 8; ++i) {
        serve::RenderRequest req;
        req.model = "demo";
        req.camera = orbitFrame(i, size);
        if (i % 2 == 0)
            req.session = stream;
        const double budget = (i % 2 != 0) ? est_full * 0.5 : est_full * 0.1;
        req.deadline = serve::Clock::now() +
                       std::chrono::duration_cast<serve::Clock::duration>(
                           std::chrono::duration<double>(budget));
        const serve::RenderResponse r = server.submit(req).get();
        inform("  frame %2d, budget %5.1f ms -> %s", i, budget * 1e3,
               serve::outcomeName(r.outcome));
    }

    // Open-loop burst into the 4-deep queue: admission control must
    // shed the overflow instead of blocking.
    std::vector<std::future<serve::RenderResponse>> burst;
    for (int i = 0; i < 24; ++i) {
        serve::RenderRequest req;
        req.model = "demo";
        req.camera = orbitFrame(i, size);
        burst.push_back(server.submit(req));
    }
    for (auto &f : burst)
        f.get();

    server.drainAndPrintStats(std::cout);
    server.shutdown();

    const auto &stats = server.stats();
    std::printf("LATENCY_JSON: %s\n",
                latencySummaryJson(stats, server.slo()).c_str());
    inform("overload summary: %llu submitted, %llu degraded, %llu shed; "
           "latency p50 %.2f ms, p95 %.2f ms, p99 %.2f ms",
           static_cast<unsigned long long>(stats.submitted()),
           static_cast<unsigned long long>(stats.degraded()),
           static_cast<unsigned long long>(stats.shed()),
           stats.p50LatencyMs(), stats.p95LatencyMs(), stats.p99LatencyMs());

    // Export while `server` is alive: its ServerStats unregisters from
    // the global registry on destruction.
    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        if (!out)
            fatal("cannot open metrics file '%s'", metrics_path.c_str());
        obs::MetricsRegistry::global().exportPrometheus(out);
        inform("wrote metrics snapshot to %s", metrics_path.c_str());
    }
    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (!out)
            fatal("cannot open trace file '%s'", trace_path.c_str());
        obs::Tracer::instance().writeChromeTrace(out);
        inform("wrote %zu trace spans to %s (%llu dropped)",
               obs::Tracer::instance().eventCount(), trace_path.c_str(),
               static_cast<unsigned long long>(
                   obs::Tracer::instance().dropped()));
    }

    FaultInjector &faults = FaultInjector::instance();
    if (faults.active()) {
        inform("fault summary: %llu total fires",
               static_cast<unsigned long long>(faults.totalFires()));
        for (const std::string &point : faults.activePoints())
            inform("  %-28s %6llu fires / %6llu checks", point.c_str(),
                   static_cast<unsigned long long>(faults.fires(point)),
                   static_cast<unsigned long long>(faults.checks(point)));
        inform("  worker failures served as terminal outcomes: %llu",
               static_cast<unsigned long long>(stats.failed()));
    }

    bool ok = scaling_ok;
    // With faults armed the degrade/shed mix is whatever the plan made
    // of it; the invariant that must always hold is that every request
    // was accounted for. Fault-free, the overload phase must also have
    // exercised the ladder and admission control.
    if (!faults.active()) {
        if (stats.degraded() == 0) {
            warn("expected nonzero degraded count under deadline pressure");
            ok = false;
        }
        if (stats.count(serve::Outcome::rejectedQueueFull) == 0) {
            warn("expected admission-control shedding under the burst");
            ok = false;
        }
    }
    if (stats.completed() != stats.submitted()) {
        warn("drain left %llu requests unaccounted",
             static_cast<unsigned long long>(stats.submitted() -
                                             stats.completed()));
        ok = false;
    }
    inform(ok ? "serve_loadgen: all checks passed"
              : "serve_loadgen: CHECKS FAILED");
    return ok ? 0 : 1;
}
