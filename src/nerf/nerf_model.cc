#include "nerf/nerf_model.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/logging.h"
#include "common/quant.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fusion3d::nerf
{

namespace
{

/** Process-wide batch-occupancy counters behind the nerf.batch.* metrics. */
struct BatchStats
{
    std::atomic<std::uint64_t> samples{0};
    std::atomic<std::uint64_t> calls{0};

    BatchStats()
    {
        obs::MetricsRegistry::global().registerCollector(
            "nerf.batch", [this](obs::MetricSink &sink) {
                const double s =
                    static_cast<double>(samples.load(std::memory_order_relaxed));
                const double c =
                    static_cast<double>(calls.load(std::memory_order_relaxed));
                sink.counter("nerf.batch.samples", s);
                sink.counter("nerf.batch.calls", c);
                sink.gauge("nerf.batch.avg_batch", c > 0.0 ? s / c : 0.0);
            });
    }
};

BatchStats &
batchStats()
{
    static BatchStats stats;
    return stats;
}

AdamConfig
adamFor(bool sparse)
{
    AdamConfig cfg;
    cfg.beta1 = 0.9f;
    cfg.beta2 = 0.99f;
    cfg.epsilon = 1e-15f;
    cfg.skipZeroGrad = sparse;
    return cfg;
}

/**
 * Merge per-shard MLP gradient buffers with a serial pairwise tree:
 * (0+1), (2+3), ... then (0+2), ... and add the result into @p grads.
 * The combination order depends only on the shard count, so a given
 * shard partition always produces the same floating-point sums
 * regardless of thread count or scheduling.
 */
void
treeReduceInto(std::span<NerfModel::GradArena> arenas,
               std::vector<float> NerfModel::GradArena::*member, std::span<float> grads)
{
    const std::size_t count = arenas.size();
    for (std::size_t stride = 1; stride < count; stride *= 2) {
        for (std::size_t i = 0; i + stride < count; i += 2 * stride) {
            std::vector<float> &dst = arenas[i].*member;
            const std::vector<float> &src = arenas[i + stride].*member;
            for (std::size_t k = 0; k < dst.size(); ++k)
                dst[k] += src[k];
        }
    }
    const std::vector<float> &sum = arenas[0].*member;
    for (std::size_t k = 0; k < grads.size(); ++k)
        grads[k] += sum[k];
}

} // namespace

NerfModel::NerfModel(const NerfModelConfig &cfg, std::uint64_t seed)
    : cfg_(cfg)
{
    if (cfg.geoFeatures < 1)
        fatal("NerfModel needs at least one geometry feature");
    encoding_ = std::make_unique<HashGridEncoding>(cfg.grid, seed);
    density_net_ = std::make_unique<Mlp>(
        std::vector<int>{cfg.grid.encodedDims(), cfg.densityHidden, 1 + cfg.geoFeatures},
        seed + 1);
    color_net_ = std::make_unique<Mlp>(
        std::vector<int>{cfg.geoFeatures + cfg.shDims(), cfg.colorHidden, 3}, seed + 2);
    point_ws_ = makeWorkspace();
}

PointWorkspace
NerfModel::makeWorkspace() const
{
    PointWorkspace ws;
    ws.encoding.resize(static_cast<std::size_t>(cfg_.grid.encodedDims()));
    ws.sh.resize(static_cast<std::size_t>(cfg_.shDims()));
    ws.colorIn.resize(static_cast<std::size_t>(cfg_.geoFeatures + cfg_.shDims()));
    ws.dDensityOut.resize(static_cast<std::size_t>(1 + cfg_.geoFeatures));
    ws.dColorOut.resize(3);
    ws.densityWs = density_net_->makeWorkspace();
    ws.colorWs = color_net_->makeWorkspace();
    return ws;
}

NerfBatchWorkspace
NerfModel::makeBatchWorkspace(std::size_t capacity) const
{
    NerfBatchWorkspace ws;
    ws.sh.resize(static_cast<std::size_t>(cfg_.shDims()));
    ws.densityWs = density_net_->makeBatchWorkspace(capacity);
    ws.colorWs = color_net_->makeBatchWorkspace(capacity);
    if (capacity > 0) {
        ws.encoding.resize(static_cast<std::size_t>(cfg_.grid.encodedDims()) * capacity);
        ws.colorIn.resize(
            static_cast<std::size_t>(cfg_.geoFeatures + cfg_.shDims()) * capacity);
        ws.rawSigma.resize(capacity);
        ws.dDensityOut.resize(static_cast<std::size_t>(1 + cfg_.geoFeatures) * capacity);
        ws.dColorOut.resize(3 * capacity);
        ws.fwdSigmas.resize(capacity);
        ws.fwdRgbs.resize(capacity);
        ws.capacity = capacity;
    }
    return ws;
}

void
NerfModel::forwardBatch(std::span<const Vec3f> pos, std::span<const Vec3f> dirs,
                        NerfBatchWorkspace &ws, std::span<float> sigmas,
                        std::span<Vec3f> rgbs, VertexVisitor *visitor) const
{
    const std::size_t n = pos.size();
    if (n == 0)
        return;
    if (dirs.size() < n || sigmas.size() < n || rgbs.size() < n)
        panic("NerfModel::forwardPointBatch span sizes inconsistent with batch %zu", n);

    F3D_TRACE_SPAN_ARG("nerf", "forward_batch", n);
    BatchStats &stats = batchStats();
    stats.samples.fetch_add(n, std::memory_order_relaxed);
    stats.calls.fetch_add(1, std::memory_order_relaxed);

    if (n > ws.capacity) {
        ws.encoding.resize(static_cast<std::size_t>(cfg_.grid.encodedDims()) * n);
        ws.colorIn.resize(static_cast<std::size_t>(cfg_.geoFeatures + cfg_.shDims()) * n);
        ws.rawSigma.resize(n);
        ws.dDensityOut.resize(static_cast<std::size_t>(1 + cfg_.geoFeatures) * n);
        ws.dColorOut.resize(3 * n);
        ws.fwdSigmas.resize(n);
        ws.fwdRgbs.resize(n);
        ws.capacity = n;
    }
    ws.sh.resize(static_cast<std::size_t>(cfg_.shDims()));

    // Stage II: level-major batched hash gather.
    encoding_->encodeBatch(pos, ws.encoding, visitor);

    // Stage III, density: one GEMM over the whole batch.
    const std::span<const float> enc{ws.encoding.data(),
                                     static_cast<std::size_t>(cfg_.grid.encodedDims()) * n};
    const std::span<const float> dens_out =
        density_net_->forwardBatch(enc, n, ws.densityWs);

    for (std::size_t j = 0; j < n; ++j) {
        ws.rawSigma[j] = dens_out[j];
        sigmas[j] = densityActivation(dens_out[j]);
    }

    // Color-net input: geometry feature rows are contiguous in the
    // feature-major density output (rows 1..geoFeatures), so they copy
    // in one block; SH rows scatter per sample.
    const std::size_t geo = static_cast<std::size_t>(cfg_.geoFeatures);
    std::copy_n(dens_out.begin() + n, geo * n, ws.colorIn.begin());
    const int sh_dims = cfg_.shDims();
    for (std::size_t j = 0; j < n; ++j) {
        shEncode(dirs[j], cfg_.shDegree, ws.sh);
        for (int i = 0; i < sh_dims; ++i)
            ws.colorIn[(geo + static_cast<std::size_t>(i)) * n + j] = ws.sh[i];
    }

    const std::span<const float> col_in{
        ws.colorIn.data(), (geo + static_cast<std::size_t>(sh_dims)) * n};
    const std::span<const float> col_out = color_net_->forwardBatch(col_in, n, ws.colorWs);

    for (std::size_t j = 0; j < n; ++j) {
        for (int i = 0; i < 3; ++i) {
            const float r = col_out[static_cast<std::size_t>(i) * n + j];
            // Numerically safe logistic sigmoid, as in forwardPoint.
            rgbs[j].at(i) = r >= 0.0f ? 1.0f / (1.0f + std::exp(-r))
                                      : std::exp(r) / (1.0f + std::exp(r));
        }
    }
}

void
NerfModel::backwardPointBatchInto(std::span<const Vec3f> pos, std::span<const Vec3f> dirs,
                                  std::span<const float> dsigmas,
                                  std::span<const Vec3f> drgbs, NerfBatchWorkspace &ws,
                                  GradArena &arena) const
{
    const std::size_t n = pos.size();
    if (dirs.size() < n || dsigmas.size() < n || drgbs.size() < n)
        panic("NerfModel::backwardPointBatchInto span sizes inconsistent with batch %zu",
              n);

    // Private MLP gradient buffers start at zero every call; assign()
    // on an already-sized vector reuses storage, so steady state is
    // allocation-free.
    arena.densityGrads.assign(density_net_->paramCount(), 0.0f);
    arena.colorGrads.assign(color_net_->paramCount(), 0.0f);
    if (n == 0)
        return;

    // Recompute the batched forward to refresh the activation caches
    // (recompute-in-backward; never visited). Size the recompute
    // buffers before taking spans: the forward's capacity growth would
    // reallocate them under a live span.
    if (ws.fwdSigmas.size() < n)
        ws.fwdSigmas.resize(n);
    if (ws.fwdRgbs.size() < n)
        ws.fwdRgbs.resize(n);
    forwardBatch(pos, dirs, ws, {ws.fwdSigmas.data(), n}, {ws.fwdRgbs.data(), n},
                 nullptr);

    // Color net: dL/draw = drgb * sigmoid'(raw).
    for (std::size_t j = 0; j < n; ++j) {
        for (int i = 0; i < 3; ++i) {
            const float s = ws.fwdRgbs[j][i];
            ws.dColorOut[static_cast<std::size_t>(i) * n + j] =
                drgbs[j][i] * s * (1.0f - s);
        }
    }
    color_net_->backwardBatchInto({ws.dColorOut.data(), 3 * n}, n, ws.colorWs,
                                  arena.colorGrads);

    // Density net: raw-sigma row fused with the activation gradient,
    // geometry-feature rows come straight from the color net's input
    // gradient (contiguous rows 0..geoFeatures-1 of colorWs.dinput).
    for (std::size_t j = 0; j < n; ++j)
        ws.dDensityOut[j] =
            dsigmas[j] * densityActivationGrad(ws.rawSigma[j], ws.fwdSigmas[j]);
    const std::size_t geo = static_cast<std::size_t>(cfg_.geoFeatures);
    std::copy_n(ws.colorWs.dinput.begin(), geo * n, ws.dDensityOut.begin() + n);
    density_net_->backwardBatchInto({ws.dDensityOut.data(), (1 + geo) * n}, n,
                                    ws.densityWs, arena.densityGrads);

    // Encoding backward: level-major batched scatter into the shard's
    // sparse accumulator.
    encoding_->backwardBatchInto(
        pos,
        {ws.densityWs.dinput.data(), static_cast<std::size_t>(cfg_.grid.encodedDims()) * n},
        arena.encodingGrads);
}

void
NerfModel::mergeGradients(std::span<GradArena> arenas)
{
    if (arenas.empty())
        return;
    treeReduceInto(arenas, &GradArena::densityGrads, density_net_->grads());
    treeReduceInto(arenas, &GradArena::colorGrads, color_net_->grads());
    merge_ptrs_.resize(arenas.size());
    for (std::size_t s = 0; s < arenas.size(); ++s)
        merge_ptrs_[s] = &arenas[s].encodingGrads;
    encoding_->mergeGradShards(merge_ptrs_);
}

void
NerfModel::backwardPointBatch(std::span<const Vec3f> pos, std::span<const Vec3f> dirs,
                              std::span<const float> dsigmas,
                              std::span<const Vec3f> drgbs, NerfBatchWorkspace &ws)
{
    GradArena arena;
    backwardPointBatchInto(pos, dirs, dsigmas, drgbs, ws, arena);
    mergeGradients({&arena, 1});
}

void
NerfModel::queryDensityBatch(std::span<const Vec3f> pos, NerfBatchWorkspace &ws,
                             std::span<float> sigmas) const
{
    const std::size_t n = pos.size();
    if (n == 0)
        return;
    if (sigmas.size() < n)
        panic("NerfModel::queryDensityBatch output span too small");

    const std::size_t enc_dims = static_cast<std::size_t>(cfg_.grid.encodedDims());
    if (ws.encoding.size() < enc_dims * n)
        ws.encoding.resize(enc_dims * n);
    encoding_->encodeBatch(pos, ws.encoding);
    const std::span<const float> out = density_net_->forwardBatch(
        {ws.encoding.data(), enc_dims * n}, n, ws.densityWs);
    for (std::size_t j = 0; j < n; ++j)
        sigmas[j] = densityActivation(out[j]);
}

float
NerfModel::densityActivation(float raw)
{
    // Exponential activation as in Instant-NGP, clamped for stability.
    return std::exp(std::clamp(raw, -15.0f, 10.0f));
}

float
NerfModel::densityActivationGrad(float raw, float sigma)
{
    // d/draw exp(raw) = exp(raw); zero outside the clamp range.
    if (raw <= -15.0f || raw >= 10.0f)
        return 0.0f;
    return sigma;
}

PointEval
NerfModel::forwardPoint(const Vec3f &pos, const Vec3f &dir, PointWorkspace &ws,
                        VertexVisitor *visitor) const
{
    encoding_->encode(pos, ws.encoding, visitor);
    const std::span<const float> dens_out = density_net_->forward(ws.encoding, ws.densityWs);

    ws.rawSigma = dens_out[0];
    PointEval pe;
    pe.sigma = densityActivation(ws.rawSigma);

    shEncode(dir, cfg_.shDegree, ws.sh);
    for (int i = 0; i < cfg_.geoFeatures; ++i)
        ws.colorIn[static_cast<std::size_t>(i)] = dens_out[static_cast<std::size_t>(i) + 1];
    for (int i = 0; i < cfg_.shDims(); ++i)
        ws.colorIn[static_cast<std::size_t>(cfg_.geoFeatures + i)] = ws.sh[i];

    const std::span<const float> col_out = color_net_->forward(ws.colorIn, ws.colorWs);
    for (int i = 0; i < 3; ++i) {
        ws.rawRgb[i] = col_out[static_cast<std::size_t>(i)];
        // Numerically safe logistic sigmoid.
        const float r = col_out[static_cast<std::size_t>(i)];
        pe.rgb.at(i) = r >= 0.0f ? 1.0f / (1.0f + std::exp(-r))
                                 : std::exp(r) / (1.0f + std::exp(r));
    }
    return pe;
}

float
NerfModel::queryDensity(const Vec3f &pos, PointWorkspace &ws) const
{
    encoding_->encode(pos, ws.encoding);
    const std::span<const float> out = density_net_->forward(ws.encoding, ws.densityWs);
    return densityActivation(out[0]);
}

void
NerfModel::backwardPoint(const Vec3f &pos, const Vec3f &dir, float dsigma,
                         const Vec3f &drgb, PointWorkspace &ws)
{
    // Recompute the forward pass to refresh the activation caches.
    const PointEval pe = forwardPoint(pos, dir, ws);

    // Color net backward: dL/draw = drgb * sigmoid'(raw).
    for (int i = 0; i < 3; ++i) {
        const float s = pe.rgb[i];
        ws.dColorOut[static_cast<std::size_t>(i)] = drgb[i] * s * (1.0f - s);
    }
    color_net_->backward(ws.dColorOut, ws.colorWs);

    // Density net backward: raw-sigma grad fused with the activation,
    // geometry features receive the color net's input gradient.
    ws.dDensityOut[0] = dsigma * densityActivationGrad(ws.rawSigma, pe.sigma);
    for (int i = 0; i < cfg_.geoFeatures; ++i)
        ws.dDensityOut[static_cast<std::size_t>(i) + 1] =
            ws.colorWs.dinput[static_cast<std::size_t>(i)];
    density_net_->backward(ws.dDensityOut, ws.densityWs);

    // Encoding backward: scatter into the hash tables.
    encoding_->backward(pos, ws.densityWs.dinput);
}

void
NerfModel::zeroGrads()
{
    encoding_->zeroGrads();
    density_net_->zeroGrads();
    color_net_->zeroGrads();
}

void
NerfModel::optimizerStep(float lr_table, float lr_net, ThreadPool *pool)
{
    if (adam_.empty()) {
        adam_.emplace_back(encoding_->paramCount(), adamFor(/*sparse=*/true));
        adam_.emplace_back(density_net_->paramCount(), adamFor(false));
        adam_.emplace_back(color_net_->paramCount(), adamFor(false));
    }
    adam_[0].setLearningRate(lr_table);
    adam_[1].setLearningRate(lr_net);
    adam_[2].setLearningRate(lr_net);
    adam_[0].step(encoding_->params(), encoding_->grads(), pool);
    adam_[1].step(density_net_->params(), density_net_->grads(), pool);
    adam_[2].step(color_net_->params(), color_net_->grads(), pool);
}

void
NerfModel::quantizeWeights()
{
    fakeQuantizeInPlace(encoding_->params());
    fakeQuantizeInPlace(density_net_->params());
    fakeQuantizeInPlace(color_net_->params());
}

std::size_t
NerfModel::paramCount() const
{
    return encoding_->paramCount() + density_net_->paramCount() + color_net_->paramCount();
}

std::uint64_t
NerfModel::macsPerPoint() const
{
    return density_net_->forwardMacs() + color_net_->forwardMacs();
}

void
NerfModel::setInferenceQuant(QuantMode mode, bool dropFp32)
{
    encoding_->buildQuantized(mode);
    density_net_->buildQuantized(mode);
    color_net_->buildQuantized(mode);
    if (dropFp32 && mode != QuantMode::fp32) {
        encoding_->dropFp32Weights();
        density_net_->dropFp32Weights();
        color_net_->dropFp32Weights();
    }
}

std::size_t
NerfModel::residentParamBytes() const
{
    return encoding_->residentParamBytes() +
           density_net_->residentParamBytes() +
           color_net_->residentParamBytes();
}

} // namespace fusion3d::nerf
