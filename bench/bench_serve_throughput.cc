/**
 * @file
 * Serving-layer throughput bench: closed-loop frame throughput of the
 * RenderServer across render-thread counts, on the Sec. VI-D style
 * deployment path (deserialized model -> registry -> tiled render).
 * Prints the usual table plus one machine-readable JSON summary line
 * (prefixed "JSON:") for scripted harvesting, now including tail
 * latency (p50/p95/p99 from the log2-bucket quantile estimator) and
 * per-outcome counts.
 *
 * Usage: bench_serve_throughput [frames_per_config] [resolution]
 *            [--trace FILE] [--metrics FILE] [--overhead-check]
 *
 *  --trace FILE    enable the span tracer and write a Chrome
 *                  trace-event JSON (Perfetto / chrome://tracing) with
 *                  spans from the serve, thread_pool and
 *                  parallel_render layers;
 *  --metrics FILE  write a Prometheus text-exposition snapshot of the
 *                  obs::MetricsRegistry after the run;
 *  --overhead-check
 *                  replace the thread sweep with an instrumentation
 *                  cost gate: best-of-3 closed-loop fps with tracing
 *                  off vs fully on (same workload), printed as a JSON
 *                  line; exits 1 if full tracing costs more than 5%
 *                  throughput.
 */

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/simd.h"
#include "nerf/nerf_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/scheduler.h"

using namespace fusion3d;

namespace
{

struct ThroughputPoint
{
    int threads;
    double fps;
    double meanLatencyMs;
    double meanBatchSize;
    double p50Ms;
    double p95Ms;
    double p99Ms;
    std::uint64_t outcomes[serve::kOutcomeCount];
};

nerf::Camera
orbitFrame(int i, int size)
{
    return nerf::Camera::orbit({0.5f, 0.5f, 0.5f}, 1.4f, 35.0f, 20.0f,
                               static_cast<float>(i * 7 % 360), size, size);
}

/**
 * Measure one thread-count configuration. When @p metrics_out is
 * non-null it receives a Prometheus snapshot taken before the server
 * (whose ServerStats unregisters on destruction) goes away.
 */
ThroughputPoint
measure(serve::ModelRegistry &registry, int threads, int frames, int size,
        std::string *metrics_out = nullptr)
{
    serve::ServeConfig sc;
    sc.renderThreads = threads;
    sc.render.sampler.maxSamplesPerRay = 24;
    serve::RenderServer server(registry, sc);

    // Closed loop: four clients, each submitting its next frame only
    // after the previous one returned.
    std::atomic<int> next{0};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&server, &next, frames, size]() {
            for (int i = next.fetch_add(1); i < frames; i = next.fetch_add(1)) {
                serve::RenderRequest req;
                req.model = "bench";
                req.camera = orbitFrame(i, size);
                if (serve::isRejected(server.submit(req).get().outcome))
                    fatal("unloaded server rejected frame %d", i);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    server.shutdown();

    ThroughputPoint p{};
    p.threads = threads;
    p.fps = static_cast<double>(frames) / seconds;
    p.meanLatencyMs = server.stats().meanLatencyMs();
    p.meanBatchSize = server.stats().meanBatchSize();
    p.p50Ms = server.stats().p50LatencyMs();
    p.p95Ms = server.stats().p95LatencyMs();
    p.p99Ms = server.stats().p99LatencyMs();
    for (int i = 0; i < serve::kOutcomeCount; ++i)
        p.outcomes[i] =
            server.stats().count(static_cast<serve::Outcome>(i));
    if (metrics_out) {
        std::ostringstream os;
        obs::MetricsRegistry::global().exportPrometheus(os);
        *metrics_out = os.str();
    }
    return p;
}

/**
 * The tracing-overhead gate (--overhead-check): best-of-3 fps with the
 * tracer off vs fully on, identical workload. Returns the process exit
 * code: 1 when full tracing costs more than @p max_overhead_pct.
 */
int
runOverheadCheck(serve::ModelRegistry &registry, int frames, int size,
                 double max_overhead_pct)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    bench::banner("Tracing overhead: closed-loop fps, tracer off vs on");
    auto best_of_3 = [&](bool traced) {
        double best = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            tracer.clear(); // keep span buffers from growing across reps
            tracer.setEnabled(traced);
            const ThroughputPoint p = measure(registry, 2, frames, size);
            best = std::max(best, p.fps);
        }
        tracer.setEnabled(false);
        return best;
    };
    // Warm-up run: touches every code path once so neither arm pays
    // first-run costs (page faults, lazy statics).
    measure(registry, 2, std::max(frames / 4, 4), size);
    const double fps_off = best_of_3(false);
    const double fps_on = best_of_3(true);
    const double overhead_pct =
        fps_on > 0.0 ? 100.0 * (fps_off - fps_on) / fps_off : 100.0;
    const bool ok = overhead_pct <= max_overhead_pct;
    std::printf("  tracer off: %8.2f frames/s (best of 3)\n", fps_off);
    std::printf("  tracer on:  %8.2f frames/s (best of 3)\n", fps_on);
    std::printf("  overhead:   %8.2f %% (max %.1f %%) -> %s\n", overhead_pct,
                max_overhead_pct, ok ? "ok" : "FAILED");
    bench::rule();
    std::printf("JSON: {\"bench\":\"serve_trace_overhead\",\"dispatch\":\"%s\","
                "\"resolution\":%d,"
                "\"frames\":%d,\"fps_off\":%.3f,\"fps_on\":%.3f,"
                "\"overhead_pct\":%.3f,\"max_overhead_pct\":%.1f,"
                "\"ok\":%s}\n",
                simd::dispatchName(), size, frames, fps_off, fps_on,
                overhead_pct, max_overhead_pct, ok ? "true" : "false");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    int frames = 24;
    int size = 48;
    std::string trace_path;
    std::string metrics_path;
    bool overhead_check = false;
    int positional = 0;
    const auto usage = [&]() {
        fatal("usage: %s [frames] [resolution] [--trace FILE] "
              "[--metrics FILE] [--overhead-check] (frames and resolution are "
              "positive integers)",
              argv[0]);
    };
    // A positional must be a whole positive number: "--quick" or "0"
    // would otherwise render nothing and report a NaN speedup.
    const auto positive = [&](const char *arg) {
        char *end = nullptr;
        errno = 0;
        const long v = std::strtol(arg, &end, 10);
        if (end == arg || *end != '\0' || errno != 0 || v <= 0 || v > 1000000)
            usage();
        return static_cast<int>(v);
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (std::strcmp(argv[i], "--overhead-check") == 0) {
            overhead_check = true;
        } else if (positional == 0) {
            frames = positive(argv[i]);
            ++positional;
        } else if (positional == 1) {
            size = positive(argv[i]);
            ++positional;
        } else {
            usage();
        }
    }

    if (!trace_path.empty())
        obs::Tracer::instance().setEnabled(true);

    nerf::NerfModelConfig mc;
    mc.grid.levels = 6;
    mc.grid.featuresPerLevel = 2;
    mc.grid.log2TableSize = 12;
    mc.grid.baseResolution = 8;
    mc.grid.maxResolution = 64;
    mc.geoFeatures = 7;
    mc.densityHidden = 16;
    mc.colorHidden = 16;
    mc.shDegree = 2;

    serve::ModelRegistry registry(/*occupancy_resolution=*/16);
    registry.add("bench", std::make_unique<nerf::NerfModel>(mc, 2024));

    if (overhead_check)
        return runOverheadCheck(registry, frames, size,
                                /*max_overhead_pct=*/5.0);

    bench::banner("Serving throughput: closed-loop frames/s vs render threads");
    std::printf("%-16s %12s %15s %11s %11s %11s %12s\n", "render threads",
                "frames/s", "mean lat (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)",
                "mean batch");

    std::string metrics_text;
    std::vector<ThroughputPoint> points;
    for (const int threads : {1, 2, 4}) {
        points.push_back(measure(registry, threads, frames, size,
                                 threads == 4 && !metrics_path.empty()
                                     ? &metrics_text
                                     : nullptr));
        const ThroughputPoint &p = points.back();
        std::printf("%-16d %12.2f %15.2f %11.2f %11.2f %11.2f %12.2f\n",
                    p.threads, p.fps, p.meanLatencyMs, p.p50Ms, p.p95Ms,
                    p.p99Ms, p.meanBatchSize);
    }
    bench::rule();

    std::string json = "{\"bench\":\"serve_throughput\",\"dispatch\":\"" +
                       std::string(simd::dispatchName()) +
                       "\",\"resolution\":" + std::to_string(size) +
                       ",\"frames\":" + std::to_string(frames) + ",\"points\":[";
    char buf[256];
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ThroughputPoint &p = points[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"threads\":%d,\"fps\":%.3f,\"mean_latency_ms\":%.3f,"
                      "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,"
                      "\"outcomes\":{",
                      i ? "," : "", p.threads, p.fps, p.meanLatencyMs, p.p50Ms,
                      p.p95Ms, p.p99Ms);
        json += buf;
        for (int o = 0; o < serve::kOutcomeCount; ++o) {
            std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", o ? "," : "",
                          serve::outcomeName(static_cast<serve::Outcome>(o)),
                          static_cast<unsigned long long>(p.outcomes[o]));
            json += buf;
        }
        json += "}}";
    }
    const double speedup = points.back().fps / points.front().fps;
    if (!std::isfinite(speedup))
        fatal("non-finite 4-vs-1 speedup (%g / %g frames/s)", points.back().fps,
              points.front().fps);
    std::snprintf(buf, sizeof(buf), "],\"speedup_4v1\":%.3f}", speedup);
    json += buf;
    std::printf("JSON: %s\n", json.c_str());

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
    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        if (!out)
            fatal("cannot open metrics file '%s'", metrics_path.c_str());
        out << metrics_text;
        inform("wrote metrics snapshot to %s", metrics_path.c_str());
    }
    return 0;
}
