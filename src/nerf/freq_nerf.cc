#include "nerf/freq_nerf.h"

#include <cmath>

#include "common/logging.h"
#include "common/quant.h"
#include "nerf/sh_encoding.h"

namespace fusion3d::nerf
{

namespace
{

constexpr float kPi = 3.14159265358979323846f;

AdamConfig
adamFor(float lr)
{
    AdamConfig cfg;
    cfg.lr = lr;
    cfg.beta1 = 0.9f;
    cfg.beta2 = 0.99f;
    cfg.epsilon = 1e-15f;
    return cfg;
}

} // namespace

void
freqEncode(const Vec3f &p, int frequencies, std::span<float> out)
{
    const std::size_t need = 3 + 3 * 2 * static_cast<std::size_t>(frequencies);
    if (out.size() < need)
        panic("freqEncode: output span too small");
    out[0] = p.x;
    out[1] = p.y;
    out[2] = p.z;
    std::size_t at = 3;
    float scale = kPi;
    for (int k = 0; k < frequencies; ++k) {
        for (int axis = 0; axis < 3; ++axis) {
            const float v = p[axis] * scale;
            out[at++] = std::sin(v);
            out[at++] = std::cos(v);
        }
        scale *= 2.0f;
    }
}

std::vector<int>
FreqNerfConfig::trunkLayerSizes() const
{
    std::vector<int> sizes(static_cast<std::size_t>(trunkLayers) + 2, hidden);
    sizes.front() = posDims();
    sizes.back() = 1 + geoFeatures;
    return sizes;
}

const char *
FreqNerfConfig::invalidReason() const
{
    if (posFrequencies < 1 || posFrequencies > 16)
        return "positional encoding needs 1..16 frequencies";
    if (trunkLayers < 1 || trunkLayers > 16)
        return "density trunk needs 1..16 hidden layers";
    if (hidden < 1 || hidden > 4096 || colorHidden < 1 || colorHidden > 4096)
        return "MLP hidden widths must be in 1..4096";
    if (geoFeatures < 1 || geoFeatures > 256)
        return "model needs 1..256 geometry features";
    if (shDegree < 1 || shDegree > 4)
        return "spherical-harmonics degree must be in 1..4";
    return nullptr;
}

std::size_t
FreqNerfConfig::paramCount() const
{
    return Mlp::paramCountFor(trunkLayerSizes()) + Mlp::paramCountFor(colorLayers());
}

FreqNerfModel::FreqNerfModel(const FreqNerfConfig &cfg, std::uint64_t seed)
    : cfg_(cfg),
      adam_trunk_(),
      adam_color_()
{
    if (const char *why = cfg.invalidReason())
        fatal("FreqNerfModel: %s", why);

    trunk_ = std::make_unique<Mlp>(cfg.trunkLayerSizes(), seed);
    color_net_ = std::make_unique<Mlp>(cfg.colorLayers(), seed + 3);

    adam_trunk_ = Adam(trunk_->paramCount(), adamFor(2e-3f));
    adam_color_ = Adam(color_net_->paramCount(), adamFor(2e-3f));

    encoded_.resize(static_cast<std::size_t>(cfg.posDims()));
    sh_.resize(static_cast<std::size_t>(cfg.shDims()));
    color_in_.resize(static_cast<std::size_t>(cfg.geoFeatures + cfg.shDims()));
    dtrunk_out_.resize(static_cast<std::size_t>(1 + cfg.geoFeatures));
    dcolor_out_.resize(3);
    trunk_ws_ = trunk_->makeWorkspace();
    color_ws_ = color_net_->makeWorkspace();
}

float
FreqNerfModel::queryDensity(const Vec3f &pos)
{
    freqEncode(pos, cfg_.posFrequencies, encoded_);
    const std::span<const float> out = trunk_->forward(encoded_, trunk_ws_);
    raw_sigma_ = out[0];
    return NerfModel::densityActivation(raw_sigma_);
}

PointEval
FreqNerfModel::forwardPoint(const Vec3f &pos, const Vec3f &dir)
{
    PointEval pe;
    pe.sigma = queryDensity(pos);

    const std::span<const float> trunk_out = trunk_ws_.activations.back();
    for (int i = 0; i < cfg_.geoFeatures; ++i)
        color_in_[static_cast<std::size_t>(i)] =
            trunk_out[static_cast<std::size_t>(i) + 1];
    shEncode(dir, cfg_.shDegree, sh_);
    for (int i = 0; i < cfg_.shDims(); ++i)
        color_in_[static_cast<std::size_t>(cfg_.geoFeatures + i)] =
            sh_[static_cast<std::size_t>(i)];

    const std::span<const float> out = color_net_->forward(color_in_, color_ws_);
    for (int i = 0; i < 3; ++i) {
        const float r = out[static_cast<std::size_t>(i)];
        pe.rgb.at(i) = r >= 0.0f ? 1.0f / (1.0f + std::exp(-r))
                                 : std::exp(r) / (1.0f + std::exp(r));
    }
    return pe;
}

void
FreqNerfModel::backwardPoint(const Vec3f &pos, const Vec3f &dir, float dsigma,
                             const Vec3f &drgb)
{
    const PointEval pe = forwardPoint(pos, dir); // refresh caches

    for (int i = 0; i < 3; ++i) {
        const float s = pe.rgb[i];
        dcolor_out_[static_cast<std::size_t>(i)] = drgb[i] * s * (1.0f - s);
    }
    color_net_->backward(dcolor_out_, color_ws_);

    dtrunk_out_[0] = dsigma * NerfModel::densityActivationGrad(raw_sigma_, pe.sigma);
    for (int i = 0; i < cfg_.geoFeatures; ++i)
        dtrunk_out_[static_cast<std::size_t>(i) + 1] =
            color_ws_.dinput[static_cast<std::size_t>(i)];
    trunk_->backward(dtrunk_out_, trunk_ws_);
    // The positional encoding has no parameters; gradients stop here.
}

void
FreqNerfModel::queryDensityBatch(std::span<const Vec3f> pos, BatchWorkspace &ws,
                                 std::span<float> sigmas) const
{
    const std::size_t n = pos.size();
    if (sigmas.size() < n)
        panic("FreqNerfModel::queryDensityBatch: output span too small");
    const std::size_t pd = static_cast<std::size_t>(cfg_.posDims());

    // Feature-major frequency encode: same per-value arithmetic as
    // freqEncode(), laid out [posDims][N] for the batched GEMM.
    if (ws.encoded.size() < pd * n)
        ws.encoded.resize(pd * n);
    for (std::size_t s = 0; s < n; ++s) {
        ws.encoded[0 * n + s] = pos[s].x;
        ws.encoded[1 * n + s] = pos[s].y;
        ws.encoded[2 * n + s] = pos[s].z;
        std::size_t f = 3;
        float scale = kPi;
        for (int k = 0; k < cfg_.posFrequencies; ++k) {
            for (int axis = 0; axis < 3; ++axis) {
                const float v = pos[s][axis] * scale;
                ws.encoded[f++ * n + s] = std::sin(v);
                ws.encoded[f++ * n + s] = std::cos(v);
            }
            scale *= 2.0f;
        }
    }

    const std::span<const float> out =
        trunk_->forwardBatch({ws.encoded.data(), pd * n}, n, ws.trunkWs);
    if (ws.rawSigma.size() < n)
        ws.rawSigma.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
        ws.rawSigma[s] = out[s]; // trunk output row 0
        sigmas[s] = NerfModel::densityActivation(ws.rawSigma[s]);
    }
}

void
FreqNerfModel::forwardPointBatch(std::span<const Vec3f> pos,
                                 std::span<const Vec3f> dirs, BatchWorkspace &ws,
                                 std::span<float> sigmas, std::span<Vec3f> rgbs) const
{
    const std::size_t n = pos.size();
    if (dirs.size() < n || sigmas.size() < n || rgbs.size() < n)
        panic("FreqNerfModel::forwardPointBatch: span size mismatch");

    queryDensityBatch(pos, ws, sigmas);
    const std::span<const float> trunk_out = ws.trunkWs.activations.back();

    const std::size_t geo = static_cast<std::size_t>(cfg_.geoFeatures);
    const std::size_t shd = static_cast<std::size_t>(cfg_.shDims());
    if (ws.colorIn.size() < (geo + shd) * n)
        ws.colorIn.resize((geo + shd) * n);
    if (ws.sh.size() < shd)
        ws.sh.resize(shd);
    for (std::size_t i = 0; i < geo; ++i)
        for (std::size_t s = 0; s < n; ++s)
            ws.colorIn[i * n + s] = trunk_out[(i + 1) * n + s];
    for (std::size_t s = 0; s < n; ++s) {
        shEncode(dirs[s], cfg_.shDegree, ws.sh);
        for (std::size_t i = 0; i < shd; ++i)
            ws.colorIn[(geo + i) * n + s] = ws.sh[i];
    }

    const std::span<const float> out = color_net_->forwardBatch(
        {ws.colorIn.data(), (geo + shd) * n}, n, ws.colorWs);
    for (std::size_t s = 0; s < n; ++s) {
        for (int i = 0; i < 3; ++i) {
            const float r = out[static_cast<std::size_t>(i) * n + s];
            rgbs[s].at(i) = r >= 0.0f ? 1.0f / (1.0f + std::exp(-r))
                                      : std::exp(r) / (1.0f + std::exp(r));
        }
    }
}

namespace
{

/** Fill the two batched output-gradient matrices from the recomputed
 *  forward activations. */
void
freqBackwardDeltas(const FreqNerfConfig &cfg, std::span<const float> dsigmas,
                   std::span<const Vec3f> drgbs, std::size_t n,
                   FreqNerfBatchWorkspace &ws)
{
    if (ws.dColorOut.size() < 3 * n)
        ws.dColorOut.resize(3 * n);
    for (std::size_t s = 0; s < n; ++s) {
        for (int i = 0; i < 3; ++i) {
            const float sv = ws.fwdRgbs[s][i];
            ws.dColorOut[static_cast<std::size_t>(i) * n + s] =
                drgbs[s][i] * sv * (1.0f - sv);
        }
    }
    const std::size_t geo = static_cast<std::size_t>(cfg.geoFeatures);
    if (ws.dTrunkOut.size() < (1 + geo) * n)
        ws.dTrunkOut.resize((1 + geo) * n);
    for (std::size_t s = 0; s < n; ++s)
        ws.dTrunkOut[s] = dsigmas[s] * NerfModel::densityActivationGrad(
                                           ws.rawSigma[s], ws.fwdSigmas[s]);
    // Rows 1.. come from the color net's input gradient (filled by the
    // caller after its color backward pass).
}

} // namespace

void
FreqNerfModel::backwardPointBatchInto(std::span<const Vec3f> pos,
                                      std::span<const Vec3f> dirs,
                                      std::span<const float> dsigmas,
                                      std::span<const Vec3f> drgbs,
                                      BatchWorkspace &ws, GradArena &grads) const
{
    const std::size_t n = pos.size();
    grads.assign(paramCount(), 0.0f);
    if (ws.fwdSigmas.size() < n)
        ws.fwdSigmas.resize(n);
    if (ws.fwdRgbs.size() < n)
        ws.fwdRgbs.resize(n);
    forwardPointBatch(pos, dirs, ws, ws.fwdSigmas, ws.fwdRgbs);
    freqBackwardDeltas(cfg_, dsigmas, drgbs, n, ws);

    const std::span<float> out(grads);
    const std::size_t trunk_params = trunk_->paramCount();
    color_net_->backwardBatchInto({ws.dColorOut.data(), 3 * n}, n, ws.colorWs,
                                  out.subspan(trunk_params));
    const std::size_t geo = static_cast<std::size_t>(cfg_.geoFeatures);
    for (std::size_t i = 0; i < geo; ++i)
        for (std::size_t s = 0; s < n; ++s)
            ws.dTrunkOut[(i + 1) * n + s] = ws.colorWs.dinput[i * n + s];
    trunk_->backwardBatchInto({ws.dTrunkOut.data(), (1 + geo) * n}, n, ws.trunkWs,
                              out.first(trunk_params));
}

void
FreqNerfModel::mergeGradients(std::span<GradArena> arenas)
{
    const std::span<float> tg = trunk_->grads();
    const std::span<float> cg = color_net_->grads();
    for (const GradArena &grads : arenas) {
        for (std::size_t i = 0; i < tg.size(); ++i)
            tg[i] += grads[i];
        for (std::size_t i = 0; i < cg.size(); ++i)
            cg[i] += grads[tg.size() + i];
    }
}

void
FreqNerfModel::zeroGrads()
{
    trunk_->zeroGrads();
    color_net_->zeroGrads();
}

void
FreqNerfModel::optimizerStep(float lr_trunk, float lr_color, ThreadPool *pool)
{
    adam_trunk_.setLearningRate(lr_trunk);
    adam_color_.setLearningRate(lr_color);
    adam_trunk_.step(trunk_->params(), trunk_->grads(), pool);
    adam_color_.step(color_net_->params(), color_net_->grads(), pool);
}

void
FreqNerfModel::quantizeWeights()
{
    fakeQuantizeInPlace(trunk_->params());
    fakeQuantizeInPlace(color_net_->params());
}

std::size_t
FreqNerfModel::paramCount() const
{
    return trunk_->paramCount() + color_net_->paramCount();
}

std::uint64_t
FreqNerfModel::macsPerPoint() const
{
    return trunk_->forwardMacs() + color_net_->forwardMacs();
}

} // namespace fusion3d::nerf
