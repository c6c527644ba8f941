/**
 * @file
 * Batched-vs-scalar field-evaluation bench across every backend, with
 * SIMD-dispatch and quantization axes: samples/sec of the scalar
 * forwardPoint loop against the batched SoA core at batch sizes
 * 1/32/256/2048. Covers the hash-grid NerfModel, the
 * frequency-encoded FreqNerfModel, and the CP-factorized TensorfModel
 * (forwardPointBatch). The hash-grid backend additionally runs the
 * quantized inference modes (fp16/int8 packed weight images) and an
 * end-to-end traceRays section that shows the sampler's occupancy-gate
 * win (fewer MLP-visible samples per ray) rather than hiding it behind
 * per-sample metrics.
 *
 * Prints the usual table per configuration plus one machine-readable
 * JSON summary line (prefixed "JSON:", kept as the BENCH_backends.json
 * CI artifact) whose entries each record the SIMD `dispatch`, `quant`
 * mode, and batched `sps`. Exits non-zero when a gate fails:
 *  - any fp32 batched path slower than scalar at batch 256;
 *  - SIMD-dispatch fp32 < 1.5x the forced-scalar-dispatch batched
 *    baseline at batch 256 on the hash-grid backend (skipped when the
 *    host has no SIMD dispatch to measure);
 *  - the end-to-end sampler-gated arm not reducing MLP-visible samples
 *    below candidates, or running no faster than the ungated baseline.
 *
 * Usage: bench_batch_eval [--quick] [--backend nerf|freq|tensorf|all]
 *                         [--quant fp32|fp16|int8|all] [--simd on|off|both]
 *                         [samples_per_config]
 *
 *  --quick    reduce the per-configuration sample budget for CI smoke
 *             runs (the speedup, not the absolute rate, is the gate).
 *  --backend  which backend(s) to measure (default all).
 *  --quant    which hash-grid inference weight format(s) (default all).
 *  --simd     dispatch arms to measure; "both" (default) measures the
 *             hardware dispatch and the forced-scalar fallback so the
 *             SIMD speedup gate has both sides.
 */

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/quant.h"
#include "common/rng.h"
#include "common/simd.h"
#include "nerf/freq_nerf.h"
#include "nerf/nerf_model.h"
#include "nerf/tensorf.h"

using namespace fusion3d;

namespace
{

struct EvalPoint
{
    std::size_t batch;
    double scalarSps;
    double batchedSps;
    double speedup;
};

struct ConfigResult
{
    std::string backend;
    std::string dispatch;
    std::string quant;
    std::vector<EvalPoint> points;
    double speedup256 = 0.0;
    double batchedSps256 = 0.0;
};

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

void
fillInputs(std::size_t batch, std::vector<Vec3f> &pos, std::vector<Vec3f> &dirs)
{
    Pcg32 rng(2026);
    pos.resize(batch);
    dirs.resize(batch);
    for (std::size_t j = 0; j < batch; ++j) {
        pos[j] = clamp(rng.nextVec3(), 0.01f, 0.99f);
        dirs[j] = rng.nextUnitVector();
    }
}

EvalPoint
finishPoint(std::size_t batch, std::size_t reps, double scalar_s,
            double batched_s)
{
    EvalPoint p{};
    p.batch = batch;
    const double samples = static_cast<double>(reps * batch);
    p.scalarSps = samples / scalar_s;
    p.batchedSps = samples / batched_s;
    p.speedup = p.batchedSps / p.scalarSps;
    return p;
}

EvalPoint
measureNerf(const nerf::NerfModel &model, std::size_t batch, std::size_t budget)
{
    std::vector<Vec3f> pos, dirs;
    fillInputs(batch, pos, dirs);
    const std::size_t reps = std::max<std::size_t>(1, budget / batch);
    std::vector<float> sigmas(batch);
    std::vector<Vec3f> rgbs(batch);

    // Checksum keeps the optimizer from discarding the work; the fp32
    // paths are bit-exact, so it doubles as a cheap equivalence check.
    double sum_scalar = 0.0, sum_batched = 0.0;

    nerf::PointWorkspace pws = model.makeWorkspace();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep)
        for (std::size_t j = 0; j < batch; ++j)
            sum_scalar += model.forwardPoint(pos[j], dirs[j], pws).sigma;
    const double scalar_s = secondsSince(t0);

    nerf::NerfBatchWorkspace bws = model.makeBatchWorkspace(batch);
    const auto t1 = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
        model.forwardPointBatch(pos, dirs, bws, sigmas, rgbs);
        sum_batched += sigmas[rep % batch];
    }
    const double batched_s = secondsSince(t1);
    if (sum_scalar < 0.0 && sum_batched < 0.0) // sigmas are positive
        fatal("impossible checksum");
    return finishPoint(batch, reps, scalar_s, batched_s);
}

/** The point-model backends (FreqNeRF, TensoRF) share the batched
 *  contract, so one template measures both. */
template <class ModelT>
EvalPoint
measurePointModel(ModelT &model, std::size_t batch, std::size_t budget)
{
    std::vector<Vec3f> pos, dirs;
    fillInputs(batch, pos, dirs);
    const std::size_t reps = std::max<std::size_t>(1, budget / batch);
    std::vector<float> sigmas(batch);
    std::vector<Vec3f> rgbs(batch);

    double sum_scalar = 0.0, sum_batched = 0.0;

    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep)
        for (std::size_t j = 0; j < batch; ++j)
            sum_scalar += model.forwardPoint(pos[j], dirs[j]).sigma;
    const double scalar_s = secondsSince(t0);

    typename ModelT::BatchWorkspace ws = model.makeBatchWorkspace();
    const auto t1 = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
        model.forwardPointBatch(pos, dirs, ws, sigmas, rgbs);
        sum_batched += sigmas[rep % batch];
    }
    const double batched_s = secondsSince(t1);
    if (sum_scalar < 0.0 && sum_batched < 0.0) // sigmas are positive
        fatal("impossible checksum");
    return finishPoint(batch, reps, scalar_s, batched_s);
}

constexpr std::size_t kBatches[] = {1, 32, 256, 2048};

template <class MeasureFn>
ConfigResult
runConfig(const char *backend, const char *quant, std::size_t budget,
          MeasureFn &&measure)
{
    bench::banner((std::string("Batched SoA field evaluation [") + backend +
                   " dispatch=" + simd::dispatchName() + " quant=" + quant +
                   "]: samples/s vs batch size")
                      .c_str());
    std::printf("%-12s %16s %16s %10s\n", "batch", "scalar (sm/s)",
                "batched (sm/s)", "speedup");

    ConfigResult r;
    r.backend = backend;
    r.dispatch = simd::dispatchName();
    r.quant = quant;
    for (const std::size_t batch : kBatches) {
        r.points.push_back(measure(batch, budget));
        const EvalPoint &p = r.points.back();
        if (p.batch == 256) {
            r.speedup256 = p.speedup;
            r.batchedSps256 = p.batchedSps;
        }
        std::printf("%-12zu %16.0f %16.0f %9.2fx\n", p.batch, p.scalarSps,
                    p.batchedSps, p.speedup);
    }
    bench::rule();
    return r;
}

// --- End-to-end traceRays: the occupancy-gate section --------------------

struct ArmResult
{
    double sps = 0.0;             ///< candidate samples/s over the timed reps
    std::uint64_t candidates = 0; ///< sum of RayWorkload::totalCandidates
    std::uint64_t mlpSamples = 0; ///< sum of RayEval::samples
};

struct E2eResult
{
    bool ran = false;
    ArmResult ungated; ///< all-occupied gate
    ArmResult gated;   ///< sampler-gated
};

/** Trace @p rays through @p pipe: one untimed warm-up pass, so the arm
 *  order cannot decide the rate, then @p reps timed passes. */
ArmResult
traceArm(nerf::NerfPipeline &pipe, std::span<const Ray> rays, std::size_t reps)
{
    std::vector<nerf::RayEval> evals(rays.size());
    {
        Pcg32 rng(777, 0);
        pipe.traceRays(rays, rng, /*record=*/false, evals);
    }
    ArmResult r;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
        // Identical streams across arms: the jitter draws (one per ray)
        // then decide the same candidate ts everywhere.
        Pcg32 rng(777, rep);
        nerf::RayWorkload wl;
        pipe.traceRays(rays, rng, /*record=*/false, evals, &wl);
        r.candidates += static_cast<std::uint64_t>(wl.totalCandidates);
        for (const nerf::RayEval &e : evals)
            r.mlpSamples += static_cast<std::uint64_t>(e.samples);
    }
    r.sps = static_cast<double>(r.candidates) / secondsSince(t0);
    return r;
}

/**
 * Trace the same ray set two ways on the demo scene: through an
 * all-occupied gate (every candidate reaches the MLP) and through the
 * sampler's occupancy gate. The rate unit is *candidate* samples/s —
 * equal work per arm — so skipping empty space shows up as throughput
 * instead of vanishing into a per-sample metric.
 */
E2eResult
measureE2e(std::size_t budget)
{
    const auto scene = scenes::makeSyntheticScene("lego");
    const nerf::Camera cam = nerf::Camera::orbit(
        {0.5f, 0.45f, 0.5f}, 1.4f, 25.0f, 20.0f, 45.0f, 128, 128);
    std::vector<Ray> rays;
    for (int y = 0; y < 128; y += 4)
        for (int x = 0; x < 128; ++x)
            rays.push_back(cam.rayForPixel(x, y));
    const std::size_t reps = std::max<std::size_t>(
        1, budget / (rays.size() * 64)); // ~maxSamplesPerRay candidates/ray

    // All-occupied gate (a grid never updated keeps every cell on):
    // every candidate hits the MLP.
    nerf::NerfPipeline ungated(bench::defaultPipeline());
    const auto gated = bench::pipelineForScene(*scene);

    E2eResult r;
    r.ran = true;
    r.ungated = traceArm(ungated, rays, reps);
    r.gated = traceArm(*gated, rays, reps);
    const ArmResult &g = r.gated;

    bench::banner("End-to-end traceRays [hash_grid, lego]: candidate samples/s");
    std::printf("%-28s %18s\n", "arm", "candidates (sm/s)");
    std::printf("%-28s %18.0f\n", "ungated (all to MLP)", r.ungated.sps);
    std::printf("%-28s %18.0f\n", "sampler-gated", g.sps);
    std::printf("sampler-gated: %llu candidates, %llu MLP-visible (%.1f%%)\n",
                static_cast<unsigned long long>(g.candidates),
                static_cast<unsigned long long>(g.mlpSamples),
                g.candidates ? 100.0 * static_cast<double>(g.mlpSamples) /
                                   static_cast<double>(g.candidates)
                             : 0.0);
    bench::rule();
    return r;
}

/** A positive decimal count that spans the whole of @p arg. */
bool
parseCount(const char *arg, std::size_t *out)
{
    const char *end = arg + std::strlen(arg);
    std::size_t v = 0;
    const auto [ptr, ec] = std::from_chars(arg, end, v);
    if (ec != std::errc() || ptr != end || v == 0)
        return false;
    *out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t budget = 1u << 19;
    bool quick = false;
    std::string backend = "all";
    std::string quant = "all";
    std::string simd_arg = "both";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc)
            backend = argv[++i];
        else if (std::strcmp(argv[i], "--quant") == 0 && i + 1 < argc)
            quant = argv[++i];
        else if (std::strcmp(argv[i], "--simd") == 0 && i + 1 < argc)
            simd_arg = argv[++i];
        else if (!parseCount(argv[i], &budget))
            fatal("usage: %s [--quick] [--backend nerf|freq|tensorf|all] "
                  "[--quant fp32|fp16|int8|all] [--simd on|off|both] "
                  "[samples_per_config]",
                  argv[0]);
    }
    if (backend != "all" && backend != "nerf" && backend != "freq" &&
        backend != "tensorf")
        fatal("unknown --backend '%s' (want nerf|freq|tensorf|all)",
              backend.c_str());
    QuantMode only_quant = QuantMode::fp32;
    if (quant != "all" && !parseQuantMode(quant.c_str(), &only_quant))
        fatal("unknown --quant '%s' (want fp32|fp16|int8|all)", quant.c_str());
    if (simd_arg != "on" && simd_arg != "off" && simd_arg != "both")
        fatal("unknown --simd '%s' (want on|off|both)", simd_arg.c_str());
    if (quick)
        budget = std::min<std::size_t>(budget, 1u << 16);

    std::vector<QuantMode> quants;
    if (quant == "all")
        quants = {QuantMode::fp32, QuantMode::fp16, QuantMode::int8};
    else
        quants = {only_quant};

    std::vector<bool> force_arms; // false = hardware dispatch, true = scalar
    if (simd_arg == "both")
        force_arms = {false, true};
    else
        force_arms = {simd_arg == "off"};

    std::vector<ConfigResult> results;
    for (const bool force : force_arms) {
        simd::forceScalar(force);
        for (const QuantMode qm : quants) {
            // The quantized image rides the same kernels on both arms;
            // measuring it once (hardware arm) keeps the run short.
            if (qm != QuantMode::fp32 && force && force_arms.size() > 1)
                continue;
            if (backend == "all" || backend == "nerf") {
                const nerf::NerfModelConfig mc = bench::defaultPipeline().model;
                nerf::NerfModel model(mc, 2024);
                if (qm != QuantMode::fp32) // keep fp32 for the scalar oracle
                    model.setInferenceQuant(qm, /*dropFp32=*/false);
                results.push_back(runConfig(
                    "hash_grid", quantModeName(qm), budget,
                    [&](std::size_t batch, std::size_t bgt) {
                        return measureNerf(model, batch, bgt);
                    }));
            }
            if (qm != QuantMode::fp32)
                continue; // the point backends have no packed image yet
            if (backend == "all" || backend == "freq") {
                nerf::FreqNerfModel model(nerf::FreqNerfConfig{}, 2024);
                results.push_back(runConfig(
                    "freq_nerf", quantModeName(qm), budget,
                    [&](std::size_t batch, std::size_t bgt) {
                        return measurePointModel(model, batch, bgt);
                    }));
            }
            if (backend == "all" || backend == "tensorf") {
                nerf::TensorfModel model(nerf::TensorfModelConfig{}, 2024);
                results.push_back(runConfig(
                    "tensorf", quantModeName(qm), budget,
                    [&](std::size_t batch, std::size_t bgt) {
                        return measurePointModel(model, batch, bgt);
                    }));
            }
        }
    }
    simd::forceScalar(false);

    // SIMD-vs-scalar speedup of the batched fp32 path at batch 256, per
    // backend, when both dispatch arms were measured.
    const bool both_arms = force_arms.size() > 1;
    const bool simd_available =
        std::strcmp(simd::dispatchName(), "scalar") != 0;
    struct SimdSpeedup
    {
        std::string backend;
        double speedup = 0.0;
    };
    std::vector<SimdSpeedup> simd_speedups;
    if (both_arms && simd_available) {
        for (const ConfigResult &on : results) {
            if (on.quant != "fp32" || on.dispatch == "scalar")
                continue;
            for (const ConfigResult &off : results) {
                if (off.backend == on.backend && off.quant == "fp32" &&
                    off.dispatch == "scalar" && off.batchedSps256 > 0.0)
                    simd_speedups.push_back(
                        {on.backend, on.batchedSps256 / off.batchedSps256});
            }
        }
        bench::banner("SIMD dispatch vs forced-scalar: batched fp32 at batch 256");
        for (const SimdSpeedup &s : simd_speedups)
            std::printf("%-12s %9.2fx\n", s.backend.c_str(), s.speedup);
        bench::rule();
    }

    E2eResult e2e;
    if (backend == "all" || backend == "nerf")
        e2e = measureE2e(budget);

    std::string json = "{\"bench\":\"batch_eval\",\"quick\":" +
                       std::string(quick ? "true" : "false") +
                       ",\"samples_per_config\":" + std::to_string(budget) +
                       ",\"dispatch\":\"" + simd::dispatchName() +
                       "\",\"backends\":[";
    char buf[256];
    for (std::size_t b = 0; b < results.size(); ++b) {
        const ConfigResult &r = results[b];
        json += std::string(b ? "," : "") + "{\"backend\":\"" + r.backend +
                "\",\"dispatch\":\"" + r.dispatch + "\",\"quant\":\"" +
                r.quant + "\",\"points\":[";
        for (std::size_t i = 0; i < r.points.size(); ++i) {
            const EvalPoint &p = r.points[i];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"batch\":%zu,\"scalar_sps\":%.0f,"
                          "\"batched_sps\":%.0f,\"sps\":%.0f,\"speedup\":%.3f}",
                          i ? "," : "", p.batch, p.scalarSps, p.batchedSps,
                          p.batchedSps, p.speedup);
            json += buf;
        }
        std::snprintf(buf, sizeof(buf), "],\"speedup_256\":%.3f}", r.speedup256);
        json += buf;
    }
    json += "]";
    for (const SimdSpeedup &s : simd_speedups) {
        std::snprintf(buf, sizeof(buf),
                      "%s{\"backend\":\"%s\",\"speedup_256\":%.3f}",
                      &s == &simd_speedups.front() ? ",\"simd_speedup\":[" : ",",
                      s.backend.c_str(), s.speedup);
        json += buf;
    }
    if (!simd_speedups.empty())
        json += "]";
    if (e2e.ran) {
        std::snprintf(buf, sizeof(buf),
                      ",\"e2e\":{\"ungated_sps\":%.0f,\"gated_sps\":%.0f,"
                      "\"gated_candidates\":%llu,\"gated_mlp_samples\":%llu}",
                      e2e.ungated.sps, e2e.gated.sps,
                      static_cast<unsigned long long>(e2e.gated.candidates),
                      static_cast<unsigned long long>(e2e.gated.mlpSamples));
        json += buf;
    }
    json += "}";
    std::printf("JSON: %s\n", json.c_str());

    bool failed = false;
    for (const ConfigResult &r : results) {
        if (r.quant == "fp32" && r.speedup256 < 1.0) {
            std::fprintf(stderr,
                         "FAIL: [%s dispatch=%s] batched path slower than "
                         "scalar at batch 256 (speedup %.3fx < 1.0x)\n",
                         r.backend.c_str(), r.dispatch.c_str(), r.speedup256);
            failed = true;
        }
    }
    if (both_arms) {
        if (!simd_available) {
            std::printf("SKIP: SIMD speedup gate (no SIMD dispatch on this "
                        "host/build)\n");
        } else {
            for (const SimdSpeedup &s : simd_speedups) {
                if (s.backend == "hash_grid" && s.speedup < 1.5) {
                    std::fprintf(stderr,
                                 "FAIL: [hash_grid] SIMD fp32 batched only "
                                 "%.3fx the scalar-dispatch baseline at batch "
                                 "256 (gate 1.5x)\n",
                                 s.speedup);
                    failed = true;
                }
            }
        }
    }
    if (e2e.ran) {
        const ArmResult &g = e2e.gated;
        if (g.mlpSamples >= g.candidates) {
            std::fprintf(stderr,
                         "FAIL: e2e sampler gate did not reduce MLP-visible "
                         "samples (%llu of %llu candidates)\n",
                         static_cast<unsigned long long>(g.mlpSamples),
                         static_cast<unsigned long long>(g.candidates));
            failed = true;
        }
        if (g.sps <= e2e.ungated.sps) {
            std::fprintf(stderr,
                         "FAIL: e2e sampler-gated (%.0f sm/s) not faster than "
                         "the ungated baseline (%.0f sm/s)\n",
                         g.sps, e2e.ungated.sps);
            failed = true;
        }
    }
    return failed ? 1 : 0;
}
