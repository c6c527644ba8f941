/** @file Robustness tests of the .f3dm model artifact reader/writer:
 *  bit-exact round trips for every backend and quant mode, a seeded
 *  mutation sweep (header bit flips, payload bit flips, truncations)
 *  that must always end in a diagnosable LoadStatus, crafted headers
 *  that must not crash or allocate, injected I/O faults, and the
 *  crash-safety of the atomic checkpoint writer. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "nerf/field.h"
#include "nerf/freq_nerf.h"
#include "nerf/nerf_model.h"
#include "nerf/occupancy_grid.h"
#include "nerf/serialize.h"
#include "nerf/tensorf.h"

namespace fusion3d::nerf
{
namespace
{

// Offsets of the fixed fields of the v6 layout (serialize.h).
constexpr std::size_t kVersionOffset = 4;
constexpr std::size_t kKindOffset = 8;
constexpr std::size_t kQuantOffset = 12;
constexpr std::size_t kWordCountOffset = 16;
constexpr std::size_t kWordsOffset = 20;

NerfModelConfig
tinyConfig()
{
    NerfModelConfig cfg;
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

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + name;
}

std::vector<unsigned char>
readAll(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<unsigned char> bytes;
    unsigned char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

void
writeAll(const std::string &path, const std::vector<unsigned char> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    // An empty vector's data() may be null, which fwrite must not see.
    if (!bytes.empty())
        EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

/** Writes @p bytes to @p path and loads them back. */
LoadStatus
loadBytes(const std::string &path, const std::vector<unsigned char> &bytes)
{
    writeAll(path, bytes);
    return loadFieldVerbose(path).status;
}

std::uint32_t
u32At(const std::vector<unsigned char> &bytes, std::size_t offset)
{
    std::uint32_t v;
    std::memcpy(&v, bytes.data() + offset, sizeof(v));
    return v;
}

void
setU32At(std::vector<unsigned char> &bytes, std::size_t offset, std::uint32_t v)
{
    std::memcpy(bytes.data() + offset, &v, sizeof(v));
}

/** Header bytes of a v6 artifact, read from its own word/block counts. */
std::size_t
headerBytes(const std::vector<unsigned char> &bytes)
{
    const std::size_t words = u32At(bytes, kWordCountOffset);
    const std::size_t blocks_at = kWordsOffset + 4 * words;
    return blocks_at + 4 + 8 * u32At(bytes, blocks_at) + 4 + 4;
}

/** Offset of the gate-resolution word: the last word before the CRC. */
std::size_t
gateResolutionOffset(const std::vector<unsigned char> &bytes)
{
    return headerBytes(bytes) - 8;
}

/** Bytes of the gate bitfield, the artifact's last block. */
std::size_t
gateBlockBytes(const std::vector<unsigned char> &bytes)
{
    const std::size_t res = u32At(bytes, gateResolutionOffset(bytes));
    return (res * res * res + 7) / 8;
}

/** A 12^3 gate with the x < 0.4 slab pruned, as training would leave it. */
OccupancyGrid
prunedGate()
{
    OccupancyGrid gate(12);
    gate.maskRegion([](const Vec3f &p) { return p.x >= 0.4f; });
    return gate;
}

void
expectSameGate(const OccupancyGrid &want, const OccupancyGrid &got)
{
    EXPECT_EQ(want.resolution(), got.resolution());
    EXPECT_EQ(want.packedBits(), got.packedBits());
}

void
expectSpansEqual(std::span<const float> a, std::span<const float> b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "param " << i;
}

/** The two fields evaluate bit-identically on a random batch — the
 *  round-trip equality check that matters to the serve layer. */
void
expectFieldsEvalIdentical(const ServeableField &a, const ServeableField &b)
{
    const std::size_t n = 40;
    Pcg32 rng(404);
    std::vector<Vec3f> pos(n), dirs(n);
    for (std::size_t j = 0; j < n; ++j) {
        pos[j] = clamp(rng.nextVec3(), 0.01f, 0.99f);
        dirs[j] = rng.nextUnitVector();
    }
    std::vector<float> sig_a(n), sig_b(n), den_a(n), den_b(n);
    std::vector<Vec3f> rgb_a(n), rgb_b(n);
    a.evalBatch(pos, dirs, sig_a, rgb_a);
    b.evalBatch(pos, dirs, sig_b, rgb_b);
    a.evalDensityBatch(pos, den_a);
    b.evalDensityBatch(pos, den_b);
    for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(sig_a[j], sig_b[j]) << "sample " << j;
        ASSERT_EQ(rgb_a[j], rgb_b[j]) << "sample " << j;
        ASSERT_EQ(den_a[j], den_b[j]) << "sample " << j;
    }
}

/** A model's parameter blocks in artifact order, as the weights it
 *  evaluates (a quantized hash grid's packed image, dequantized). */
using ParamBlocks = std::vector<std::vector<float>>;

ParamBlocks
paramBlocks(const NerfModel &m)
{
    return {m.encoding().dequantizedParams(), m.densityNet().dequantizedParams(),
            m.colorNet().dequantizedParams()};
}

ParamBlocks
paramBlocks(const FreqNerfModel &m)
{
    return {m.trunk().dequantizedParams(), m.colorNet().dequantizedParams()};
}

ParamBlocks
paramBlocks(const TensorfModel &m)
{
    const std::span<const float> factors = m.factorParams();
    return {{factors.begin(), factors.end()}, m.colorNet().dequantizedParams()};
}

/** One backend and quant mode the codec must carry. */
struct Backend
{
    std::string name;
    /** A field owning a fresh model with weights from the seed and
     *  prunedGate() as its occupancy gate. */
    std::function<std::unique_ptr<ServeableField>(std::uint64_t)> make;
    /** saveModel (or saveModelAtomic) of the field's model. */
    std::function<bool(const ServeableField &, const std::string &, bool)> save;
    /** paramBlocks of the field's model. */
    std::function<ParamBlocks(const ServeableField &)> params;
};

void
PrintTo(const Backend &b, std::ostream *os)
{
    *os << b.name;
}

template <class ModelT>
Backend
backend(std::string name, typename ModelT::Config cfg,
        QuantMode mode = QuantMode::fp32)
{
    Backend b;
    b.name = std::move(name);
    b.make = [cfg, mode](std::uint64_t seed) -> std::unique_ptr<ServeableField> {
        auto model = std::make_unique<ModelT>(cfg, seed);
        model->occupancy() = prunedGate();
        auto field = std::make_unique<PointServeField<ModelT>>(std::move(model));
        if (mode != QuantMode::fp32) {
            EXPECT_TRUE(field->applyQuantMode(mode));
        }
        return field;
    };
    b.save = [](const ServeableField &field, const std::string &path, bool atomic) {
        const ModelT &model = static_cast<const PointServeField<ModelT> &>(field).model();
        return atomic ? saveModelAtomic(model, path) : saveModel(model, path);
    };
    b.params = [](const ServeableField &field) {
        return paramBlocks(static_cast<const PointServeField<ModelT> &>(field).model());
    };
    return b;
}

/** Every parameter of every block and every gate bit matches, and the
 *  two fields evaluate identically. */
void
expectSameModel(const Backend &b, const ServeableField &want, const ServeableField &got)
{
    const ParamBlocks want_blocks = b.params(want);
    const ParamBlocks got_blocks = b.params(got);
    ASSERT_EQ(want_blocks.size(), got_blocks.size());
    for (std::size_t i = 0; i < want_blocks.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "block " << i);
        expectSpansEqual(want_blocks[i], got_blocks[i]);
    }
    expectSameGate(want.occupancy(), got.occupancy());
    expectFieldsEvalIdentical(want, got);
}

const std::vector<Backend> &
allBackends()
{
    static const std::vector<Backend> backends = {
        backend<NerfModel>("hash_grid_fp32", tinyConfig()),
        backend<NerfModel>("hash_grid_fp16", tinyConfig(), QuantMode::fp16),
        backend<NerfModel>("hash_grid_int8", tinyConfig(), QuantMode::int8),
        backend<FreqNerfModel>("freq_nerf", tinyFreqConfig()),
        backend<TensorfModel>("tensorf", tinyTensorfConfig()),
    };
    return backends;
}

std::string
backendName(const testing::TestParamInfo<Backend> &info)
{
    return info.param.name;
}

/** Every backend; the injector is disarmed around each test. */
class Artifact : public testing::TestWithParam<Backend>
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }

    /** The saved bytes of a fresh model with weights from @p seed. */
    std::vector<unsigned char>
    savedBytes(std::uint64_t seed, const std::string &path)
    {
        const auto field = GetParam().make(seed);
        EXPECT_TRUE(GetParam().save(*field, path, /*atomic=*/false));
        return readAll(path);
    }
};

TEST_P(Artifact, RoundTripIsBitExact)
{
    const Backend &b = GetParam();
    const auto field = b.make(99);
    const std::string path = tmpPath("roundtrip_" + b.name + ".f3dm");
    ASSERT_TRUE(b.save(*field, path, /*atomic=*/false));

    const LoadResult r = loadFieldVerbose(path);
    ASSERT_TRUE(static_cast<bool>(r)) << r.message;
    EXPECT_TRUE(r.message.empty());
    EXPECT_EQ(r.field->kind(), field->kind());
    EXPECT_EQ(r.field->quantMode(), field->quantMode());
    EXPECT_EQ(r.field->paramCount(), field->paramCount());
    EXPECT_EQ(r.field->residentBytes(), field->residentBytes());
    expectSameModel(b, *field, *r.field);
}

TEST_P(Artifact, MutationSweepAlwaysEndsInADiagnosis)
{
    const std::string path = tmpPath("sweep_" + GetParam().name + ".f3dm");
    const std::vector<unsigned char> whole = savedBytes(71, path);
    const std::size_t header = headerBytes(whole);
    ASSERT_LT(header, whole.size());
    ASSERT_EQ(loadBytes(path, whole), LoadStatus::ok);

    // Every single-bit flip in the header. The fixed fields map to
    // their own statuses; everything else (architecture words, counts,
    // quant mode) must at least fail to load.
    for (std::size_t bit = 0; bit < header * 8; ++bit) {
        std::vector<unsigned char> bytes = whole;
        const std::size_t at = bit / 8;
        bytes[at] ^= static_cast<unsigned char>(1u << (bit % 8));
        const LoadStatus st = loadBytes(path, bytes);
        SCOPED_TRACE(testing::Message() << "header bit " << bit << ": "
                                        << loadStatusName(st));
        if (at < kVersionOffset)
            EXPECT_EQ(st, LoadStatus::badMagic);
        else if (at < kKindOffset)
            EXPECT_EQ(st, LoadStatus::badVersion);
        else if (at < kQuantOffset)
            EXPECT_TRUE(st == LoadStatus::badBackend || st == LoadStatus::headerMismatch);
        else if (at >= header - 4)
            EXPECT_EQ(st, LoadStatus::badChecksum);
        else
            EXPECT_NE(st, LoadStatus::ok);
    }

    // Bit flips in 256 seeded payload bytes: the sizes stay consistent,
    // so only the CRC can catch them.
    Pcg32 rng(0xf3d5, 1);
    const auto payload = static_cast<std::uint32_t>(whole.size() - header);
    for (int i = 0; i < 256; ++i) {
        std::vector<unsigned char> bytes = whole;
        const std::size_t at = header + rng.nextBounded(payload);
        bytes[at] ^= static_cast<unsigned char>(1u << rng.nextBounded(8));
        EXPECT_EQ(loadBytes(path, bytes), LoadStatus::badChecksum) << "payload byte " << at;
    }

    // The gate block closes the file: a flip in every one of its bytes
    // is a checksum failure, and every cut inside it is a truncation.
    const std::size_t gate = gateBlockBytes(whole);
    ASSERT_EQ(gate, prunedGate().bitfieldBytes());
    const std::size_t gate_at = whole.size() - gate;
    for (std::size_t at = gate_at; at < whole.size(); ++at) {
        std::vector<unsigned char> bytes = whole;
        bytes[at] ^= static_cast<unsigned char>(1u << (at % 8));
        EXPECT_EQ(loadBytes(path, bytes), LoadStatus::badChecksum) << "gate byte " << at;
        const std::vector<unsigned char> cut(whole.begin(),
                                             whole.begin() + static_cast<std::ptrdiff_t>(at));
        EXPECT_EQ(loadBytes(path, cut), LoadStatus::truncated) << "cut at " << at;
    }

    // Every truncation inside the header, then 64 seeded payload cuts.
    for (std::size_t cut = 0; cut < header; ++cut) {
        const std::vector<unsigned char> bytes(whole.begin(), whole.begin() + cut);
        EXPECT_EQ(loadBytes(path, bytes), LoadStatus::truncated) << "cut at " << cut;
    }
    for (int i = 0; i < 64; ++i) {
        const std::size_t cut = header + rng.nextBounded(payload);
        const std::vector<unsigned char> bytes(whole.begin(), whole.begin() + cut);
        EXPECT_EQ(loadBytes(path, bytes), LoadStatus::truncated) << "cut at " << cut;
    }
}

TEST_P(Artifact, CrcCoversEveryArchitectureWord)
{
    // A flipped low bit can leave the configuration valid and the
    // parameter count unchanged (a TensoRF density scale, a hash-grid
    // resolution when every level is hashed): only the CRC sees it.
    const std::string path = tmpPath("archword_" + GetParam().name + ".f3dm");
    const std::vector<unsigned char> whole = savedBytes(72, path);
    const std::uint32_t words = u32At(whole, kWordCountOffset);
    ASSERT_GT(words, 0u);
    for (std::uint32_t w = 0; w < words; ++w) {
        std::vector<unsigned char> bytes = whole;
        bytes[kWordsOffset + 4 * w] ^= 0x01;
        EXPECT_NE(loadBytes(path, bytes), LoadStatus::ok) << "word " << w;
    }
}

TEST_P(Artifact, AtomicSaveRoundTripsAndLeavesNoTempFile)
{
    const Backend &b = GetParam();
    const auto field = b.make(17);
    const std::string path = tmpPath("atomic_" + b.name + ".f3dm");
    ASSERT_TRUE(b.save(*field, path, /*atomic=*/true));

    const LoadResult r = loadFieldVerbose(path);
    ASSERT_EQ(r.status, LoadStatus::ok) << r.message;
    expectSameModel(b, *field, *r.field);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp")); // no temp debris
}

TEST_P(Artifact, CrashDuringCheckpointNeverYieldsALoadableFile)
{
    // First checkpoint lands; a crash during the second must leave the
    // destination exactly as the first wrote it, and whatever partial
    // temp file the crash left must never load.
    const Backend &b = GetParam();
    const auto good = b.make(18);
    const std::string path = tmpPath("crashsafe_" + b.name + ".f3dm");
    ASSERT_TRUE(b.save(*good, path, /*atomic=*/true));

    const auto newer = b.make(19);
    ASSERT_TRUE(FaultInjector::instance().configureFromSpec("trainer.ckpt.write=once"));
    EXPECT_FALSE(b.save(*newer, path, /*atomic=*/true));

    // Destination: still the *first* model, bit-exact.
    const LoadResult r = loadFieldVerbose(path);
    ASSERT_EQ(r.status, LoadStatus::ok) << r.message;
    expectSameModel(b, *good, *r.field);

    // The simulated crash cut the temp file mid-payload: loading it
    // diagnoses truncation instead of accepting half a model.
    EXPECT_EQ(loadFieldVerbose(path + ".tmp").status, LoadStatus::truncated);

    // An injected open failure also leaves the destination intact.
    ASSERT_TRUE(FaultInjector::instance().configureFromSpec("trainer.ckpt.open=once"));
    EXPECT_FALSE(b.save(*newer, path, /*atomic=*/true));
    EXPECT_EQ(loadFieldVerbose(path).status, LoadStatus::ok);
}

INSTANTIATE_TEST_SUITE_P(EveryBackend, Artifact, testing::ValuesIn(allBackends()),
                         backendName);

TEST(Serialize, V6PrefixIsPinnedAndOlderVersionsAreBadVersion)
{
    // Golden-format guard on the fixed prefix of the layout.
    NerfModel model(tinyConfig(), /*seed=*/31);
    model.occupancy() = prunedGate();
    const std::string path = tmpPath("v6prefix.f3dm");
    ASSERT_TRUE(saveModel(model, path));
    const std::vector<unsigned char> whole = readAll(path);
    ASSERT_EQ(whole.size(), modelFootprintBytes(model));
    const unsigned char prefix[] = {
        'F', '3', 'D', 'M', //
        6, 0, 0, 0,         // version
        0, 0, 0, 0,         // BackendKind::hashGrid
        0, 0, 0, 0,         // QuantMode::fp32
        9, 0, 0, 0,         // nine architecture words
    };
    ASSERT_GE(whole.size(), sizeof(prefix));
    for (std::size_t i = 0; i < sizeof(prefix); ++i)
        EXPECT_EQ(whole[i], prefix[i]) << "byte " << i;
    EXPECT_EQ(u32At(whole, kWordsOffset + 4 * 9), 3u); // three blocks
    // The gate block: its resolution is the header's last word before
    // the CRC, and its bitfield ends the file.
    EXPECT_EQ(u32At(whole, gateResolutionOffset(whole)), 12u);
    const std::vector<std::uint8_t> bits = prunedGate().packedBits();
    EXPECT_TRUE(std::equal(bits.begin(), bits.end(), whole.end() - bits.size()));

    // Artifacts of the retired layouts (v5 had no gate block) are
    // refused by version, and the message names the version found.
    for (const std::uint32_t old : {2u, 3u, 4u, 5u}) {
        std::vector<unsigned char> bytes = whole;
        setU32At(bytes, kVersionOffset, old);
        writeAll(path, bytes);
        const LoadResult r = loadFieldVerbose(path);
        EXPECT_EQ(r.status, LoadStatus::badVersion);
        EXPECT_EQ(r.field, nullptr);
        EXPECT_NE(r.message.find("version " + std::to_string(old)), std::string::npos)
            << r.message;
    }
}

TEST(Serialize, CraftedHeadersEndInAStatusNotACrash)
{
    const NerfModel model(tinyConfig(), /*seed=*/32);
    const std::string path = tmpPath("crafted.f3dm");
    ASSERT_TRUE(saveModel(model, path));
    const std::vector<unsigned char> whole = readAll(path);
    const auto word = [](int i) { return kWordsOffset + 4 * static_cast<std::size_t>(i); };

    // featuresPerLevel beyond what HashGridEncoding supports: the
    // constructor's own rule rejects it before anything is built.
    for (std::uint32_t fpl = 9; fpl <= 16; ++fpl) {
        std::vector<unsigned char> bytes = whole;
        setU32At(bytes, word(1), fpl);
        LoadStatus st = LoadStatus::ok;
        EXPECT_NO_THROW(st = loadBytes(path, bytes));
        EXPECT_EQ(st, LoadStatus::headerMismatch) << "featuresPerLevel " << fpl;
    }

    // In-range dimensions that imply gigabytes of parameters, in a
    // 200-byte file: rejected before the model is allocated.
    {
        std::vector<unsigned char> bytes = whole;
        setU32At(bytes, word(0), 64);    // levels
        setU32At(bytes, word(1), 8);     // featuresPerLevel
        setU32At(bytes, word(2), 28);    // log2TableSize
        setU32At(bytes, word(4), 65536); // maxResolution
        bytes.resize(200);
        LoadStatus st = LoadStatus::ok;
        EXPECT_NO_THROW(st = loadBytes(path, bytes));
        EXPECT_TRUE(st == LoadStatus::truncated || st == LoadStatus::headerMismatch)
            << loadStatusName(st);
    }

    // The gate block: a zero resolution is a header mismatch; a
    // resolution whose bitfield outgrows the file (up to one whose cube
    // overflows 64 bits) and a cut bitfield are truncations. None of
    // them allocates the bitfield.
    const std::size_t gate_res_at = gateResolutionOffset(whole);
    {
        std::vector<unsigned char> bytes = whole;
        setU32At(bytes, gate_res_at, 0);
        LoadStatus st = LoadStatus::ok;
        EXPECT_NO_THROW(st = loadBytes(path, bytes));
        EXPECT_EQ(st, LoadStatus::headerMismatch);
    }
    for (const std::uint32_t res : {400u, 65536u, 1u << 21, (1u << 21) + 1, 0xffffffffu}) {
        std::vector<unsigned char> bytes = whole;
        setU32At(bytes, gate_res_at, res);
        LoadStatus st = LoadStatus::ok;
        EXPECT_NO_THROW(st = loadBytes(path, bytes));
        EXPECT_EQ(st, LoadStatus::truncated) << "gate resolution " << res;
    }
    {
        const std::size_t gate = gateBlockBytes(whole);
        ASSERT_GT(gate, 1u);
        const std::vector<unsigned char> bytes(
            whole.begin(), whole.end() - static_cast<std::ptrdiff_t>(gate / 2));
        EXPECT_EQ(loadBytes(path, bytes), LoadStatus::truncated);
    }

    // A quant tag on a backend without quantization is a header
    // mismatch, not a silently fp32 model.
    const FreqNerfModel freq(tinyFreqConfig(), /*seed=*/33);
    ASSERT_TRUE(saveModel(freq, path));
    std::vector<unsigned char> bytes = readAll(path);
    setU32At(bytes, kQuantOffset, static_cast<std::uint32_t>(QuantMode::int8));
    EXPECT_EQ(loadBytes(path, bytes), LoadStatus::headerMismatch);
}

TEST(Serialize, MissingFileIsIoError)
{
    const LoadResult r = loadFieldVerbose(tmpPath("does_not_exist.f3dm"));
    EXPECT_EQ(r.status, LoadStatus::ioError);
    EXPECT_EQ(r.field, nullptr);
    EXPECT_FALSE(r.message.empty());
    EXPECT_EQ(loadField(tmpPath("does_not_exist.f3dm")), nullptr);
}

TEST(Serialize, LoadStatusNamesAreStable)
{
    EXPECT_STREQ(loadStatusName(LoadStatus::ok), "ok");
    EXPECT_STREQ(loadStatusName(LoadStatus::badMagic), "bad magic");
    EXPECT_STREQ(loadStatusName(LoadStatus::truncated), "truncated");
    EXPECT_STREQ(loadStatusName(LoadStatus::badChecksum), "checksum mismatch");
    EXPECT_STREQ(loadStatusName(LoadStatus::badBackend), "unknown backend");
}

/** Injected-fault serialize tests leave the injector disarmed. */
class SerializeFaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

TEST_F(SerializeFaultTest, InjectedLoadFaultsMapToTheirStatuses)
{
    const NerfModel model(tinyConfig(), /*seed=*/13);
    const std::string path = tmpPath("loadfaults.f3dm");
    ASSERT_TRUE(saveModel(model, path));

    ASSERT_TRUE(
        FaultInjector::instance().configureFromSpec("nerf.load.open=once"));
    EXPECT_EQ(loadFieldVerbose(path).status, LoadStatus::ioError);

    ASSERT_TRUE(
        FaultInjector::instance().configureFromSpec("nerf.load.read=once"));
    EXPECT_EQ(loadFieldVerbose(path).status, LoadStatus::truncated);

    ASSERT_TRUE(
        FaultInjector::instance().configureFromSpec("nerf.load.crc=once"));
    EXPECT_EQ(loadFieldVerbose(path).status, LoadStatus::badChecksum);

    // Each was a one-shot: the same artifact now loads clean, armed
    // or not.
    EXPECT_EQ(loadFieldVerbose(path).status, LoadStatus::ok);
    FaultInjector::instance().reset();
    EXPECT_EQ(loadFieldVerbose(path).status, LoadStatus::ok);
}

TEST_F(SerializeFaultTest, InjectedLoadIntoFaultLeavesDstUntouched)
{
    const NerfModel src(tinyConfig(), /*seed=*/14);
    NerfModel dst(tinyConfig(), /*seed=*/15);
    const float before = dst.encoding().params()[0];

    ASSERT_TRUE(
        FaultInjector::instance().configureFromSpec("nerf.loadinto=once"));
    EXPECT_FALSE(loadInto(dst, src));
    EXPECT_EQ(dst.encoding().params()[0], before);
    EXPECT_TRUE(loadInto(dst, src)); // one-shot: the retry works
}

TEST_F(SerializeFaultTest, InjectedSaveWriteFaultFailsCleanly)
{
    const NerfModel model(tinyConfig(), /*seed=*/16);
    const std::string path = tmpPath("savefault.f3dm");

    ASSERT_TRUE(
        FaultInjector::instance().configureFromSpec("nerf.save.write=once"));
    EXPECT_FALSE(saveModel(model, path));
    FaultInjector::instance().reset();
    EXPECT_TRUE(saveModel(model, path));
    EXPECT_EQ(loadFieldVerbose(path).status, LoadStatus::ok);
}

TEST_F(SerializeFaultTest, SimulatedCrashLeavesTheSaveFaultArmed)
{
    // The checkpoint crash is not a save attempt: a one-shot save fault
    // armed next to it still fires on the next real save.
    const NerfModel model(tinyConfig(), /*seed=*/16);
    const std::string path = tmpPath("crashkeepsfault.f3dm");

    ASSERT_TRUE(FaultInjector::instance().configureFromSpec(
        "trainer.ckpt.write=once;nerf.save.write=once"));
    EXPECT_FALSE(saveModelAtomic(model, path));
    EXPECT_EQ(loadFieldVerbose(path + ".tmp").status, LoadStatus::truncated);
    EXPECT_FALSE(saveModel(model, path));
    EXPECT_TRUE(saveModel(model, path));
}

TEST(LoadInto, CopiesAllParameterBlocks)
{
    const NerfModel src(tinyConfig(), /*seed=*/7);
    NerfModel dst(tinyConfig(), /*seed=*/8);
    ASSERT_NE(src.encoding().params()[0], dst.encoding().params()[0]);

    ASSERT_TRUE(loadInto(dst, src));
    expectSpansEqual(src.encoding().params(), dst.encoding().params());
    expectSpansEqual(src.densityNet().params(), dst.densityNet().params());
    expectSpansEqual(src.colorNet().params(), dst.colorNet().params());
}

TEST(LoadInto, CopiesTheOccupancyGate)
{
    NerfModel src(tinyConfig(), /*seed=*/7);
    src.occupancy() = prunedGate();
    NerfModel dst(tinyConfig(), /*seed=*/8);
    ASSERT_NE(dst.occupancy().packedBits(), src.occupancy().packedBits());

    ASSERT_TRUE(loadInto(dst, src));
    expectSameGate(src.occupancy(), dst.occupancy());
}

TEST(LoadInto, RejectsMismatchedArchitectures)
{
    const NerfModel src(tinyConfig());
    NerfModelConfig other = tinyConfig();
    other.densityHidden = 24;
    NerfModel dst(other, /*seed=*/3);
    const float before = dst.densityNet().params()[0];

    EXPECT_FALSE(loadInto(dst, src));
    EXPECT_EQ(dst.densityNet().params()[0], before); // nothing copied
}

} // namespace
} // namespace fusion3d::nerf
