/** @file Equivalence tests of the batched SoA evaluation core against
 *  the scalar reference oracle (forwardPoint/backwardPoint) for all
 *  three backends (hash-grid, FreqNeRF, TensoRF), plus the
 *  nerf.batch.* metrics and the compositeBackward scratch overload. */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nerf/freq_nerf.h"
#include "nerf/nerf_model.h"
#include "nerf/renderer.h"
#include "nerf/tensorf.h"
#include "obs/metrics.h"

namespace fusion3d::nerf
{
namespace
{

NerfModelConfig
tinyModel()
{
    NerfModelConfig mc;
    mc.grid.levels = 6;
    mc.grid.featuresPerLevel = 2;
    mc.grid.log2TableSize = 12;
    mc.grid.baseResolution = 8;
    mc.grid.maxResolution = 64;
    mc.geoFeatures = 7;
    mc.densityHidden = 16;
    mc.colorHidden = 16;
    mc.shDegree = 2;
    return mc;
}

void
randomBatch(std::size_t n, std::uint64_t seed, std::vector<Vec3f> &pos,
            std::vector<Vec3f> &dirs)
{
    Pcg32 rng(seed);
    pos.resize(n);
    dirs.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
        pos[j] = clamp(rng.nextVec3(), 0.01f, 0.99f);
        dirs[j] = rng.nextUnitVector();
    }
}

/**
 * forwardPointBatch is bit-exact with forwardPoint: same encoding gather
 * order, same MLP accumulation order, same activations — only the
 * loop nest differs. n = 70 crosses the MLP's 64-sample block.
 */
TEST(BatchEval, ForwardBatchMatchesForwardPointBitExact)
{
    NerfModel model(tinyModel(), 101);
    PointWorkspace pws = model.makeWorkspace();
    NerfBatchWorkspace bws = model.makeBatchWorkspace();

    const std::size_t n = 70;
    std::vector<Vec3f> pos, dirs;
    randomBatch(n, 102, pos, dirs);

    std::vector<float> sigmas(n);
    std::vector<Vec3f> rgbs(n);
    model.forwardPointBatch(pos, dirs, bws, sigmas, rgbs);

    for (std::size_t j = 0; j < n; ++j) {
        const PointEval ref = model.forwardPoint(pos[j], dirs[j], pws);
        EXPECT_EQ(sigmas[j], ref.sigma) << "sample " << j;
        EXPECT_EQ(rgbs[j], ref.rgb) << "sample " << j;
    }
}

/**
 * backwardPointBatch accumulates the same parameter gradients as per-point
 * backwardPoint; tolerance covers the cross-sample reassociation of
 * the batch reduction (within a sample the order is identical).
 */
TEST(BatchEval, BackwardBatchMatchesBackwardPoint)
{
    NerfModel batched(tinyModel(), 111);
    NerfModel scalar(tinyModel(), 111); // same seed -> identical params

    const std::size_t n = 23;
    std::vector<Vec3f> pos, dirs;
    randomBatch(n, 112, pos, dirs);

    Pcg32 rng(113);
    std::vector<float> dsigmas(n);
    std::vector<Vec3f> drgbs(n);
    for (std::size_t j = 0; j < n; ++j) {
        dsigmas[j] = rng.nextRange(-1.0f, 1.0f);
        drgbs[j] = {rng.nextRange(-1.0f, 1.0f), rng.nextRange(-1.0f, 1.0f),
                    rng.nextRange(-1.0f, 1.0f)};
    }

    PointWorkspace pws = scalar.makeWorkspace();
    scalar.zeroGrads();
    for (std::size_t j = 0; j < n; ++j)
        scalar.backwardPoint(pos[j], dirs[j], dsigmas[j], drgbs[j], pws);

    NerfBatchWorkspace bws = batched.makeBatchWorkspace();
    batched.zeroGrads();
    batched.backwardPointBatch(pos, dirs, dsigmas, drgbs, bws);

    const auto check = [](std::span<float> got, std::span<float> want,
                          const char *what) {
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_NEAR(got[i], want[i], 1e-5f + 1e-4f * std::fabs(want[i]))
                << what << " grad " << i;
    };
    check(batched.densityNet().grads(), scalar.densityNet().grads(), "density");
    check(batched.colorNet().grads(), scalar.colorNet().grads(), "color");
    check(batched.encoding().grads(), scalar.encoding().grads(), "encoding");
}

/**
 * Central-difference gradient check of backwardPointBatch through the whole
 * model: L = sum_j dsigma_j * sigma_j + dot(drgb_j, rgb_j).
 */
TEST(BatchEval, BackwardBatchMatchesFiniteDifference)
{
    NerfModel model(tinyModel(), 121);
    NerfBatchWorkspace bws = model.makeBatchWorkspace();

    const std::size_t n = 9;
    std::vector<Vec3f> pos, dirs;
    randomBatch(n, 122, pos, dirs);

    Pcg32 rng(123);
    std::vector<float> dsigmas(n);
    std::vector<Vec3f> drgbs(n);
    for (std::size_t j = 0; j < n; ++j) {
        // Keep the sigma term small: sigma = exp(raw) amplifies eps.
        dsigmas[j] = rng.nextRange(-0.1f, 0.1f);
        drgbs[j] = {rng.nextRange(-1.0f, 1.0f), rng.nextRange(-1.0f, 1.0f),
                    rng.nextRange(-1.0f, 1.0f)};
    }

    std::vector<float> sigmas(n);
    std::vector<Vec3f> rgbs(n);
    const auto loss = [&]() {
        model.forwardPointBatch(pos, dirs, bws, sigmas, rgbs);
        double acc = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            acc += static_cast<double>(dsigmas[j]) * sigmas[j] +
                   static_cast<double>(dot(drgbs[j], rgbs[j]));
        return acc;
    };

    model.zeroGrads();
    model.backwardPointBatch(pos, dirs, dsigmas, drgbs, bws);

    // Sample parameters from both MLPs (the encoding's FD coverage
    // lives in test_hash_encoding's BackwardMatchesFiniteDifference).
    const auto fd_check = [&](Mlp &net, const char *what) {
        int checked = 0;
        for (std::size_t i = 0; i < net.paramCount(); i += 11) {
            const float g = net.grads()[i];
            const float eps = 1e-3f;
            const float orig = net.params()[i];
            net.params()[i] = orig + eps;
            const double lp = loss();
            net.params()[i] = orig - eps;
            const double lm = loss();
            net.params()[i] = orig;
            const double fd = (lp - lm) / (2.0 * eps);
            EXPECT_NEAR(g, fd, 5e-2 + 1e-2 * std::fabs(fd)) << what << " param " << i;
            ++checked;
        }
        EXPECT_GT(checked, 10) << what;
    };
    fd_check(model.densityNet(), "density");
    fd_check(model.colorNet(), "color");
}

/** The nerf.batch.samples counter advances by the batch size. */
TEST(BatchEval, SamplesMetricCountsBatchedWork)
{
    NerfModel model(tinyModel(), 131);
    NerfBatchWorkspace bws = model.makeBatchWorkspace();

    const std::size_t n = 25;
    std::vector<Vec3f> pos, dirs;
    randomBatch(n, 132, pos, dirs);
    std::vector<float> sigmas(n);
    std::vector<Vec3f> rgbs(n);

    const auto read = [](const char *name) {
        for (const obs::MetricSample &s : obs::MetricsRegistry::global().snapshot())
            if (s.name == name)
                return s.value;
        return -1.0;
    };

    // First call registers the collector; read, run again, re-read.
    model.forwardPointBatch(pos, dirs, bws, sigmas, rgbs);
    const double before = read("nerf.batch.samples");
    ASSERT_GE(before, static_cast<double>(n));
    model.forwardPointBatch(pos, dirs, bws, sigmas, rgbs);
    EXPECT_EQ(read("nerf.batch.samples"), before + static_cast<double>(n));
}

// ---------------------------------------------------------------------------
// Point-model backends (FreqNeRF, TensoRF): the same batched-vs-scalar
// contract through the forwardPointBatch/backwardPointBatch kernels.
// ---------------------------------------------------------------------------

FreqNerfConfig
tinyFreqConfig()
{
    FreqNerfConfig cfg;
    cfg.posFrequencies = 4;
    cfg.hidden = 24;
    cfg.trunkLayers = 2;
    cfg.geoFeatures = 7;
    cfg.colorHidden = 16;
    return cfg;
}

TensorfModelConfig
tinyTensorfConfig()
{
    TensorfModelConfig cfg;
    cfg.densityRank = 6;
    cfg.appearanceRank = 8;
    cfg.lineResolution = 48;
    cfg.appearanceDim = 8;
    cfg.colorHidden = 16;
    return cfg;
}

/** Batched forward + density query are bit-exact with the scalar
 *  oracles per sample. n = 70 crosses the 64-sample factor/MLP block
 *  boundary, so both the blocked and the tail path are covered. */
template <class ModelT>
void
expectPointBatchBitExact(ModelT &model, std::uint64_t seed)
{
    const std::size_t n = 70;
    std::vector<Vec3f> pos, dirs;
    randomBatch(n, seed, pos, dirs);

    typename ModelT::BatchWorkspace ws = model.makeBatchWorkspace();
    std::vector<float> sigmas(n), densities(n);
    std::vector<Vec3f> rgbs(n);
    model.forwardPointBatch(pos, dirs, ws, sigmas, rgbs);
    model.queryDensityBatch(pos, ws, densities);

    for (std::size_t j = 0; j < n; ++j) {
        const PointEval ref = model.forwardPoint(pos[j], dirs[j]);
        EXPECT_EQ(sigmas[j], ref.sigma) << "sample " << j;
        EXPECT_EQ(rgbs[j], ref.rgb) << "sample " << j;
        EXPECT_EQ(densities[j], model.queryDensity(pos[j])) << "sample " << j;
    }
}

TEST(BatchEval, FreqForwardBatchMatchesForwardPointBitExact)
{
    FreqNerfModel model(tinyFreqConfig(), 201);
    expectPointBatchBitExact(model, 202);
}

TEST(BatchEval, TensorfForwardBatchMatchesForwardPointBitExact)
{
    TensorfModel model(tinyTensorfConfig(), 211);
    expectPointBatchBitExact(model, 212);
}

void
randomAdjoints(std::size_t n, std::uint64_t seed, std::vector<float> &dsigmas,
               std::vector<Vec3f> &drgbs, float sigma_scale = 1.0f)
{
    Pcg32 rng(seed);
    dsigmas.resize(n);
    drgbs.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
        dsigmas[j] = rng.nextRange(-sigma_scale, sigma_scale);
        drgbs[j] = {rng.nextRange(-1.0f, 1.0f), rng.nextRange(-1.0f, 1.0f),
                    rng.nextRange(-1.0f, 1.0f)};
    }
}

void
expectGradsClose(std::span<const float> got, std::span<const float> want,
                 const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_NEAR(got[i], want[i], 1e-5f + 1e-4f * std::fabs(want[i]))
            << what << " grad " << i;
}

/** backwardPointBatch accumulates the same gradients as the per-point
 *  backwardPoint loop (tolerance covers cross-sample reassociation of
 *  the basis/net reductions; within a sample the order is identical). */
TEST(BatchEval, FreqBackwardBatchMatchesBackwardPoint)
{
    FreqNerfModel batched(tinyFreqConfig(), 221);
    FreqNerfModel scalar(tinyFreqConfig(), 221); // same seed

    const std::size_t n = 23;
    std::vector<Vec3f> pos, dirs;
    randomBatch(n, 222, pos, dirs);
    std::vector<float> dsigmas;
    std::vector<Vec3f> drgbs;
    randomAdjoints(n, 223, dsigmas, drgbs);

    scalar.zeroGrads();
    for (std::size_t j = 0; j < n; ++j)
        scalar.backwardPoint(pos[j], dirs[j], dsigmas[j], drgbs[j]);

    typename FreqNerfModel::BatchWorkspace ws = batched.makeBatchWorkspace();
    batched.zeroGrads();
    batched.backwardPointBatch(pos, dirs, dsigmas, drgbs, ws);

    expectGradsClose(batched.trunk().grads(), scalar.trunk().grads(), "trunk");
    expectGradsClose(batched.colorNet().grads(), scalar.colorNet().grads(),
                     "color");
}

TEST(BatchEval, TensorfBackwardBatchMatchesBackwardPoint)
{
    TensorfModel batched(tinyTensorfConfig(), 231);
    TensorfModel scalar(tinyTensorfConfig(), 231); // same seed

    const std::size_t n = 23;
    std::vector<Vec3f> pos, dirs;
    randomBatch(n, 232, pos, dirs);
    std::vector<float> dsigmas;
    std::vector<Vec3f> drgbs;
    randomAdjoints(n, 233, dsigmas, drgbs);

    scalar.zeroGrads();
    for (std::size_t j = 0; j < n; ++j)
        scalar.backwardPoint(pos[j], dirs[j], dsigmas[j], drgbs[j]);

    typename TensorfModel::BatchWorkspace ws = batched.makeBatchWorkspace();
    batched.zeroGrads();
    batched.backwardPointBatch(pos, dirs, dsigmas, drgbs, ws);

    expectGradsClose(batched.factorGrads(), scalar.factorGrads(), "factor");
    expectGradsClose(batched.colorNet().grads(), scalar.colorNet().grads(),
                     "color");
}

/** Central-difference gradient check of the batched backward through
 *  the whole model: L = sum_j dsigma_j * sigma_j + dot(drgb_j, rgb_j). */
template <class ModelT>
double
batchLoss(ModelT &model, typename ModelT::BatchWorkspace &ws,
          const std::vector<Vec3f> &pos, const std::vector<Vec3f> &dirs,
          const std::vector<float> &dsigmas, const std::vector<Vec3f> &drgbs)
{
    const std::size_t n = pos.size();
    std::vector<float> sigmas(n);
    std::vector<Vec3f> rgbs(n);
    model.forwardPointBatch(pos, dirs, ws, sigmas, rgbs);
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j)
        acc += static_cast<double>(dsigmas[j]) * sigmas[j] +
               static_cast<double>(dot(drgbs[j], rgbs[j]));
    return acc;
}

TEST(BatchEval, FreqBackwardBatchMatchesFiniteDifference)
{
    FreqNerfModel model(tinyFreqConfig(), 241);
    typename FreqNerfModel::BatchWorkspace ws = model.makeBatchWorkspace();

    const std::size_t n = 9;
    std::vector<Vec3f> pos, dirs;
    randomBatch(n, 242, pos, dirs);
    std::vector<float> dsigmas;
    std::vector<Vec3f> drgbs;
    // Keep the sigma term small: the density activation amplifies eps.
    randomAdjoints(n, 243, dsigmas, drgbs, /*sigma_scale=*/0.1f);

    model.zeroGrads();
    model.backwardPointBatch(pos, dirs, dsigmas, drgbs, ws);

    const auto fd_check = [&](Mlp &net, const char *what) {
        int checked = 0;
        for (std::size_t i = 0; i < net.paramCount(); i += 11) {
            const float g = net.grads()[i];
            const float eps = 1e-3f;
            const float orig = net.params()[i];
            net.params()[i] = orig + eps;
            const double lp = batchLoss(model, ws, pos, dirs, dsigmas, drgbs);
            net.params()[i] = orig - eps;
            const double lm = batchLoss(model, ws, pos, dirs, dsigmas, drgbs);
            net.params()[i] = orig;
            const double fd = (lp - lm) / (2.0 * eps);
            EXPECT_NEAR(g, fd, 5e-2 + 1e-2 * std::fabs(fd))
                << what << " param " << i;
            ++checked;
        }
        EXPECT_GT(checked, 10) << what;
    };
    fd_check(model.trunk(), "trunk");
    fd_check(model.colorNet(), "color");
}

TEST(BatchEval, TensorfBackwardBatchMatchesFiniteDifference)
{
    TensorfModel model(tinyTensorfConfig(), 251);
    typename TensorfModel::BatchWorkspace ws = model.makeBatchWorkspace();

    const std::size_t n = 9;
    std::vector<Vec3f> pos, dirs;
    randomBatch(n, 252, pos, dirs);
    std::vector<float> dsigmas;
    std::vector<Vec3f> drgbs;
    randomAdjoints(n, 253, dsigmas, drgbs, /*sigma_scale=*/0.1f);

    model.zeroGrads();
    model.backwardPointBatch(pos, dirs, dsigmas, drgbs, ws);

    int checked = 0;
    for (std::size_t i = 0; i < model.factorParams().size(); i += 11) {
        const float g = model.factorGrads()[i];
        if (g == 0.0f)
            continue; // untouched line support
        const float eps = 1e-3f;
        const float orig = model.factorParams()[i];
        model.factorParams()[i] = orig + eps;
        const double lp = batchLoss(model, ws, pos, dirs, dsigmas, drgbs);
        model.factorParams()[i] = orig - eps;
        const double lm = batchLoss(model, ws, pos, dirs, dsigmas, drgbs);
        model.factorParams()[i] = orig;
        const double fd = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(g, fd, 5e-2 + 1e-2 * std::fabs(fd)) << "factor param " << i;
        ++checked;
    }
    EXPECT_GT(checked, 5);
}

/** The scratch overload of compositeBackward matches the legacy
 *  allocating overload exactly, including scratch reuse across rays
 *  of different lengths. */
TEST(BatchEval, CompositeBackwardScratchMatchesLegacy)
{
    Pcg32 rng(141);
    RenderParams params;
    CompositeBackwardScratch scratch;

    for (const std::size_t n : {std::size_t{16}, std::size_t{5}, std::size_t{32}}) {
        std::vector<float> sigmas(n), dts(n);
        std::vector<Vec3f> rgbs(n);
        for (std::size_t i = 0; i < n; ++i) {
            sigmas[i] = rng.nextRange(0.0f, 8.0f);
            dts[i] = rng.nextRange(0.01f, 0.05f);
            rgbs[i] = rng.nextVec3();
        }
        const CompositeResult fwd = composite(sigmas, rgbs, dts, params);
        const Vec3f dcolor{0.4f, -0.2f, 0.7f};

        std::vector<float> ds_a(n), ds_b(n);
        std::vector<Vec3f> dr_a(n), dr_b(n);
        compositeBackward(sigmas, rgbs, dts, params, fwd, dcolor, ds_a, dr_a);
        compositeBackward(sigmas, rgbs, dts, params, fwd, dcolor, ds_b, dr_b,
                          scratch);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(ds_a[i], ds_b[i]) << "n " << n << " sample " << i;
            EXPECT_EQ(dr_a[i], dr_b[i]) << "n " << n << " sample " << i;
        }
    }
}

} // namespace
} // namespace fusion3d::nerf
