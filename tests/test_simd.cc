/** @file Bit-exactness contracts of the SIMD dispatch layer: hardware
 *  kernels vs forced-scalar for the MLP GEMM, the hash-grid encode, and
 *  the whole-model forward; the packed fp16/INT8 inference path vs a
 *  dequantize-then-fp32 oracle; and the quantized artifact
 *  round-trip. */

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/half.h"
#include "common/rng.h"
#include "common/simd.h"
#include "nerf/mlp.h"
#include "nerf/nerf_model.h"
#include "nerf/serialize.h"

namespace fusion3d::nerf
{
namespace
{

/** Restores the dispatch pin on scope exit so a failing test cannot
 *  leak forced-scalar state into later tests. */
struct ScopedForceScalar
{
    explicit ScopedForceScalar(bool on) { simd::forceScalar(on); }
    ~ScopedForceScalar() { simd::forceScalar(false); }
};

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

std::uint32_t
floatBits(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

/** Batch sizes crossing the gather block (64) and MLP tile boundaries,
 *  including ragged tails. */
const std::size_t kBatches[] = {1, 7, 32, 256, 333};

/**
 * The table-driven half decode agrees with the arithmetic Half class
 * on every one of the 65536 bit patterns (NaNs compared as NaN-ness:
 * payload propagation through a float widen is value-identical here,
 * but keep the comparison robust).
 */
TEST(Simd, HalfBitsToFloatMatchesHalfExhaustive)
{
    for (std::uint32_t b = 0; b < 0x10000u; ++b) {
        const std::uint16_t bits = static_cast<std::uint16_t>(b);
        const float got = simd::halfBitsToFloat(bits);
        const float want = Half::fromBits(bits).toFloat();
        if (std::isnan(want))
            EXPECT_TRUE(std::isnan(got)) << "bits " << b;
        else
            EXPECT_EQ(floatBits(got), floatBits(want)) << "bits " << b;
    }
}

TEST(Simd, ForceScalarPinsDispatch)
{
    ASSERT_NE(simd::dispatchName(), nullptr);
    {
        ScopedForceScalar pin(true);
        EXPECT_EQ(simd::activeDispatch(), simd::Dispatch::scalar);
        EXPECT_STREQ(simd::dispatchName(), "scalar");
    }
    // The env var keeps the pin latched regardless of forceScalar(false).
    if (std::getenv("FUSION3D_SIMD_DISABLED") == nullptr)
        EXPECT_FALSE(simd::scalarForced());
    else
        EXPECT_TRUE(simd::scalarForced());
}

/**
 * The dispatched GEMM microkernel is bit-exact with the scalar batched
 * loop at every batch size, including ragged SIMD tails: lanes map to
 * samples, so each sample's fan-in accumulation order is unchanged.
 */
TEST(Simd, MlpForwardBatchBitExactAcrossDispatch)
{
    Mlp mlp({30, 32, 16}, 41);
    MlpBatchWorkspace ws_hw = mlp.makeBatchWorkspace();
    MlpBatchWorkspace ws_sc = mlp.makeBatchWorkspace();

    for (const std::size_t n : kBatches) {
        Pcg32 rng(1000 + n);
        std::vector<float> input(static_cast<std::size_t>(mlp.inputDim()) * n);
        for (float &v : input)
            v = rng.nextFloat() * 2.0f - 1.0f;

        std::vector<float> out_hw, out_sc;
        {
            ScopedForceScalar pin(false);
            const auto out = mlp.forwardBatch(input, n, ws_hw);
            out_hw.assign(out.begin(), out.end());
        }
        {
            ScopedForceScalar pin(true);
            const auto out = mlp.forwardBatch(input, n, ws_sc);
            out_sc.assign(out.begin(), out.end());
        }
        ASSERT_EQ(out_hw.size(), out_sc.size());
        for (std::size_t i = 0; i < out_hw.size(); ++i)
            EXPECT_EQ(floatBits(out_hw[i]), floatBits(out_sc[i]))
                << "batch " << n << " element " << i;
    }
}

/**
 * The dispatched gather/interpolate (and the AVX2 corner staging that
 * feeds it) is bit-exact with the scalar encode at every batch size.
 */
TEST(Simd, EncodeBatchBitExactAcrossDispatch)
{
    const NerfModelConfig mc = tinyModel();
    HashGridEncoding enc(mc.grid, 42);
    const std::size_t dims = static_cast<std::size_t>(mc.grid.encodedDims());

    for (const std::size_t n : kBatches) {
        std::vector<Vec3f> pos, dirs;
        randomBatch(n, 2000 + n, pos, dirs);
        std::vector<float> out_hw(dims * n), out_sc(dims * n);
        {
            ScopedForceScalar pin(false);
            enc.encodeBatch(pos, out_hw);
        }
        {
            ScopedForceScalar pin(true);
            enc.encodeBatch(pos, out_sc);
        }
        for (std::size_t i = 0; i < out_hw.size(); ++i)
            EXPECT_EQ(floatBits(out_hw[i]), floatBits(out_sc[i]))
                << "batch " << n << " element " << i;
    }
}

TEST(Simd, NerfModelForwardBatchBitExactAcrossDispatch)
{
    NerfModel model(tinyModel(), 43);
    NerfBatchWorkspace ws_hw = model.makeBatchWorkspace();
    NerfBatchWorkspace ws_sc = model.makeBatchWorkspace();

    for (const std::size_t n : kBatches) {
        std::vector<Vec3f> pos, dirs;
        randomBatch(n, 3000 + n, pos, dirs);
        std::vector<float> sig_hw(n), sig_sc(n);
        std::vector<Vec3f> rgb_hw(n), rgb_sc(n);
        {
            ScopedForceScalar pin(false);
            model.forwardPointBatch(pos, dirs, ws_hw, sig_hw, rgb_hw);
        }
        {
            ScopedForceScalar pin(true);
            model.forwardPointBatch(pos, dirs, ws_sc, sig_sc, rgb_sc);
        }
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(floatBits(sig_hw[j]), floatBits(sig_sc[j]))
                << "batch " << n << " sample " << j;
            EXPECT_EQ(rgb_hw[j], rgb_sc[j]) << "batch " << n << " sample " << j;
        }
    }
}

/**
 * The packed-weight inference path is bitwise identical to an fp32
 * model whose masters hold the dequantized values: the quantized
 * forward dequantizes into the same fp32 arithmetic, it never computes
 * in reduced precision.
 */
TEST(Simd, QuantizedForwardMatchesDequantizedOracle)
{
    for (const QuantMode mode : {QuantMode::fp16, QuantMode::int8}) {
        NerfModel quant(tinyModel(), 44);
        quant.setInferenceQuant(mode, /*dropFp32=*/false);

        NerfModel oracle(tinyModel(), 44);
        const std::vector<float> enc_w = quant.encoding().dequantizedParams();
        const std::vector<float> den_w = quant.densityNet().dequantizedParams();
        const std::vector<float> col_w = quant.colorNet().dequantizedParams();
        std::copy(enc_w.begin(), enc_w.end(), oracle.encoding().params().begin());
        std::copy(den_w.begin(), den_w.end(), oracle.densityNet().params().begin());
        std::copy(col_w.begin(), col_w.end(), oracle.colorNet().params().begin());

        NerfBatchWorkspace ws_q = quant.makeBatchWorkspace();
        NerfBatchWorkspace ws_o = oracle.makeBatchWorkspace();
        const std::size_t n = 97;
        std::vector<Vec3f> pos, dirs;
        randomBatch(n, 45, pos, dirs);
        std::vector<float> sig_q(n), sig_o(n);
        std::vector<Vec3f> rgb_q(n), rgb_o(n);
        quant.forwardPointBatch(pos, dirs, ws_q, sig_q, rgb_q);
        oracle.forwardPointBatch(pos, dirs, ws_o, sig_o, rgb_o);
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(floatBits(sig_q[j]), floatBits(sig_o[j]))
                << "mode " << static_cast<int>(mode) << " sample " << j;
            EXPECT_EQ(rgb_q[j], rgb_o[j])
                << "mode " << static_cast<int>(mode) << " sample " << j;
        }
    }
}

/** Dropping the fp32 masters frees memory without changing the packed
 *  inference result, and the quantized path stays scalar-consistent. */
TEST(Simd, DropFp32WeightsKeepsQuantizedForward)
{
    NerfModel kept(tinyModel(), 46);
    kept.setInferenceQuant(QuantMode::int8, /*dropFp32=*/false);
    NerfModel dropped(tinyModel(), 46);
    dropped.setInferenceQuant(QuantMode::int8, /*dropFp32=*/true);
    EXPECT_TRUE(kept.encoding().hasFp32Weights());
    EXPECT_FALSE(dropped.encoding().hasFp32Weights());
    EXPECT_FALSE(dropped.densityNet().hasFp32Weights());

    NerfBatchWorkspace ws_k = kept.makeBatchWorkspace();
    NerfBatchWorkspace ws_d = dropped.makeBatchWorkspace();
    const std::size_t n = 70;
    std::vector<Vec3f> pos, dirs;
    randomBatch(n, 47, pos, dirs);
    std::vector<float> sig_k(n), sig_d(n);
    std::vector<Vec3f> rgb_k(n), rgb_d(n);
    kept.forwardPointBatch(pos, dirs, ws_k, sig_k, rgb_k);
    dropped.forwardPointBatch(pos, dirs, ws_d, sig_d, rgb_d);
    for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(floatBits(sig_k[j]), floatBits(sig_d[j])) << "sample " << j;
        EXPECT_EQ(rgb_k[j], rgb_d[j]) << "sample " << j;
    }

    // The quantized arms must also agree across dispatch.
    {
        ScopedForceScalar pin(true);
        std::vector<float> sig_s(n);
        std::vector<Vec3f> rgb_s(n);
        kept.forwardPointBatch(pos, dirs, ws_k, sig_s, rgb_s);
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(floatBits(sig_s[j]), floatBits(sig_k[j]));
            EXPECT_EQ(rgb_s[j], rgb_k[j]);
        }
    }
}

/**
 * A model saved with a non-fp32 inference image round-trips through
 * its artifact: the loaded model carries the same QuantMode and
 * produces bit-identical forwards, because the dequantized values
 * requantize to the same packed image (the max-abs element pins the
 * recomputed scale).
 */
TEST(Simd, QuantizedSerializeRoundTripBitExact)
{
    for (const QuantMode mode : {QuantMode::fp16, QuantMode::int8}) {
        NerfModel model(tinyModel(), 48);
        model.setInferenceQuant(mode, /*dropFp32=*/false);

        const std::string path =
            testing::TempDir() + "quant_roundtrip_" +
            std::to_string(static_cast<int>(mode)) + ".f3dm";
        ASSERT_TRUE(saveModel(model, path));
        const std::unique_ptr<ServeableField> field = loadField(path);
        const auto *hash_field = dynamic_cast<const HashGridServeField *>(field.get());
        ASSERT_NE(hash_field, nullptr);
        const NerfModel *loaded = &hash_field->model();
        EXPECT_EQ(loaded->inferenceQuantMode(), mode);

        NerfBatchWorkspace ws_a = model.makeBatchWorkspace();
        NerfBatchWorkspace ws_b = loaded->makeBatchWorkspace();
        const std::size_t n = 64;
        std::vector<Vec3f> pos, dirs;
        randomBatch(n, 49, pos, dirs);
        std::vector<float> sig_a(n), sig_b(n);
        std::vector<Vec3f> rgb_a(n), rgb_b(n);
        model.forwardPointBatch(pos, dirs, ws_a, sig_a, rgb_a);
        loaded->forwardPointBatch(pos, dirs, ws_b, sig_b, rgb_b);
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(floatBits(sig_a[j]), floatBits(sig_b[j]))
                << "mode " << static_cast<int>(mode) << " sample " << j;
            EXPECT_EQ(rgb_a[j], rgb_b[j])
                << "mode " << static_cast<int>(mode) << " sample " << j;
        }
        std::remove(path.c_str());
    }
}

} // namespace
} // namespace fusion3d::nerf
