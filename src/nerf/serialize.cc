#include "nerf/serialize.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "common/fault.h"
#include "common/logging.h"
#include "nerf/freq_nerf.h"
#include "nerf/tensorf.h"

namespace fusion3d::nerf
{

namespace
{

constexpr char kMagic[4] = {'F', '3', 'D', 'M'};
constexpr std::uint32_t kVersion = 6;
/** Magic, version, backend tag and quant mode. */
constexpr std::size_t kPrefixBytes = 16;

/** CRC-32 (IEEE 802.3, reflected 0xEDB88320), incremental. */
std::uint32_t
crc32Update(std::uint32_t crc, const void *data, std::size_t size)
{
    static const auto table = []() {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    const auto *p = static_cast<const unsigned char *>(data);
    crc = ~crc;
    for (std::size_t i = 0; i < size; ++i)
        crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
    return ~crc;
}

/**
 * What the codec knows about one backend: its architecture fields in
 * file order (each stored as one 4-byte word, read back into a Config
 * that Config::invalidReason() then validates), and its parameter
 * blocks in file order.
 */
template <class ModelT>
struct Layout;

template <>
struct Layout<NerfModel>
{
    static auto
    fields(NerfModelConfig &c)
    {
        return std::tie(c.grid.levels, c.grid.featuresPerLevel, c.grid.log2TableSize,
                        c.grid.baseResolution, c.grid.maxResolution, c.geoFeatures,
                        c.densityHidden, c.colorHidden, c.shDegree);
    }
    template <class M>
    static auto
    blocks(M &m)
    {
        return std::array{m.encoding().params(), m.densityNet().params(),
                          m.colorNet().params()};
    }
    /** The blocks a quantized model evaluates, widened to fp32. */
    static auto
    dequantized(const NerfModel &m)
    {
        return std::array{m.encoding().dequantizedParams(),
                          m.densityNet().dequantizedParams(),
                          m.colorNet().dequantizedParams()};
    }
};

template <>
struct Layout<FreqNerfModel>
{
    static auto
    fields(FreqNerfConfig &c)
    {
        return std::tie(c.posFrequencies, c.hidden, c.trunkLayers, c.geoFeatures,
                        c.colorHidden, c.shDegree);
    }
    template <class M>
    static auto
    blocks(M &m)
    {
        return std::array{m.trunk().params(), m.colorNet().params()};
    }
};

template <>
struct Layout<TensorfModel>
{
    static auto
    fields(TensorfModelConfig &c)
    {
        return std::tie(c.densityRank, c.appearanceRank, c.lineResolution,
                        c.appearanceDim, c.colorHidden, c.shDegree, c.densityShift,
                        c.densityScale);
    }
    template <class M>
    static auto
    blocks(M &m)
    {
        return std::array{m.factorParams(), m.colorNet().params()};
    }
};

template <class ModelT>
using Words = std::array<std::uint32_t,
                         std::tuple_size_v<decltype(Layout<ModelT>::fields(
                             std::declval<typename ModelT::Config &>()))>>;

template <class ModelT>
constexpr std::size_t kBlocks = std::tuple_size_v<decltype(Layout<ModelT>::blocks(
    std::declval<const ModelT &>()))>;

/** Bytes before the payload: prefix, both counted arrays, the gate
 *  resolution and the CRC. */
template <class ModelT>
constexpr std::size_t kHeaderBytes =
    kPrefixBytes + 4 + 4 * std::tuple_size_v<Words<ModelT>> + 4 + 8 * kBlocks<ModelT> + 4 + 4;

/** Bitfield bytes of a gate of @p resolution cells per axis; saturates
 *  for resolutions no file could hold (the cube would overflow). */
std::uint64_t
gateBytes(std::uint64_t resolution)
{
    if (resolution > (std::uint64_t{1} << 21))
        return UINT64_MAX;
    return (resolution * resolution * resolution + 7) / 8;
}

template <class ModelT>
Words<ModelT>
toWords(typename ModelT::Config cfg)
{
    Words<ModelT> words{};
    std::apply(
        [&words](auto &...field) {
            std::size_t i = 0;
            ((words[i++] = std::bit_cast<std::uint32_t>(field)), ...);
        },
        Layout<ModelT>::fields(cfg));
    return words;
}

template <class ModelT>
typename ModelT::Config
fromWords(const Words<ModelT> &words)
{
    typename ModelT::Config cfg;
    std::apply(
        [&words](auto &...field) {
            std::size_t i = 0;
            ((field = std::bit_cast<std::remove_reference_t<decltype(field)>>(words[i++])),
             ...);
        },
        Layout<ModelT>::fields(cfg));
    return cfg;
}

template <class T>
void
append(std::vector<unsigned char> &out, const T &value)
{
    const auto *p = reinterpret_cast<const unsigned char *>(&value);
    out.insert(out.end(), p, p + sizeof(T));
}

/** The T at @p p; advances @p p past it. */
template <class T>
T
take(const unsigned char *&p)
{
    T value;
    std::memcpy(&value, p, sizeof(T));
    p += sizeof(T);
    return value;
}

/**
 * The whole artifact of @p model to an open stream. A @p torn write
 * stops halfway through the first block, as a crash mid-write would.
 */
template <class ModelT>
bool
writeArtifact(std::FILE *f, const ModelT &model, bool torn)
{
    auto blocks = Layout<ModelT>::blocks(model);
    QuantMode mode = QuantMode::fp32;
    std::array<std::vector<float>, kBlocks<ModelT>> dequantized;
    if constexpr (QuantizableModel<ModelT>) {
        mode = model.inferenceQuantMode();
        if (mode != QuantMode::fp32) {
            dequantized = Layout<ModelT>::dequantized(model);
            std::copy(dequantized.begin(), dequantized.end(), blocks.begin());
        }
    }

    std::vector<unsigned char> head;
    append(head, kMagic);
    append(head, kVersion);
    append(head, static_cast<std::uint32_t>(ModelT::kBackendKind));
    append(head, static_cast<std::uint32_t>(mode));
    const Words<ModelT> words = toWords<ModelT>(model.config());
    append(head, static_cast<std::uint32_t>(words.size()));
    append(head, words);
    append(head, static_cast<std::uint32_t>(blocks.size()));
    for (const auto block : blocks)
        append(head, static_cast<std::uint64_t>(block.size()));
    const std::vector<std::uint8_t> gate = model.occupancy().packedBits();
    append(head, static_cast<std::uint32_t>(model.occupancy().resolution()));
    std::uint32_t crc = crc32Update(0, head.data() + 8, head.size() - 8);
    for (const auto block : blocks)
        crc = crc32Update(crc, block.data(), block.size_bytes());
    crc = crc32Update(crc, gate.data(), gate.size());
    append(head, crc);

    bool ok = std::fwrite(head.data(), 1, head.size(), f) == head.size();
    // A simulated crash is not a save: it leaves that fault's schedule alone.
    ok = ok && (torn || !F3D_FAULT_POINT("nerf.save.write"));
    for (const auto block : blocks) {
        const std::size_t n = torn ? block.size() / 2 : block.size();
        ok = ok && std::fwrite(block.data(), sizeof(float), n, f) == n;
        if (torn)
            return false;
    }
    return ok && std::fwrite(gate.data(), 1, gate.size(), f) == gate.size();
}

/** The rest of an artifact whose @p prefix names ModelT's backend. */
template <class ModelT>
LoadResult
readArtifact(std::FILE *f, std::uint64_t file_size,
             const std::array<unsigned char, kPrefixBytes> &prefix, std::uint32_t quant,
             const std::string &path)
{
    const char *backend = backendKindName(ModelT::kBackendKind);
    std::array<unsigned char, kHeaderBytes<ModelT> - kPrefixBytes> rest;
    if (std::fread(rest.data(), 1, rest.size(), f) != rest.size())
        return {nullptr, LoadStatus::truncated,
                strprintf("'%s' ends inside its %s header", path.c_str(), backend)};

    const unsigned char *p = rest.data();
    const std::uint32_t word_count = take<std::uint32_t>(p);
    Words<ModelT> words;
    for (std::uint32_t &w : words)
        w = take<std::uint32_t>(p);
    const std::uint32_t block_count = take<std::uint32_t>(p);
    std::array<std::uint64_t, kBlocks<ModelT>> lengths;
    for (std::uint64_t &n : lengths)
        n = take<std::uint64_t>(p);
    const std::uint32_t gate_res = take<std::uint32_t>(p);
    const std::uint32_t stored_crc = take<std::uint32_t>(p);

    if (word_count != words.size() || block_count != lengths.size() ||
        quant > static_cast<std::uint32_t>(QuantMode::int8) ||
        (quant != 0 && !QuantizableModel<ModelT>))
        return {nullptr, LoadStatus::headerMismatch,
                strprintf("'%s' has %u words, %u blocks and quant mode %u; no %s "
                          "artifact does",
                          path.c_str(), word_count, block_count, quant, backend)};
    const typename ModelT::Config cfg = fromWords<ModelT>(words);
    if (const char *why = cfg.invalidReason())
        return {nullptr, LoadStatus::headerMismatch,
                strprintf("'%s' declares an invalid %s: %s", path.c_str(), backend, why)};
    if (gate_res == 0)
        return {nullptr, LoadStatus::headerMismatch,
                strprintf("'%s' declares an occupancy gate of resolution 0", path.c_str())};
    // Every allocation is bounded by the file: a header may not imply
    // more parameters and gate bits than its payload holds.
    const std::uint64_t payload_bytes =
        file_size > kHeaderBytes<ModelT> ? file_size - kHeaderBytes<ModelT> : 0;
    const std::uint64_t gate_bytes = gateBytes(gate_res);
    if (cfg.paramCount() > payload_bytes / sizeof(float) ||
        gate_bytes > payload_bytes - cfg.paramCount() * sizeof(float))
        return {nullptr, LoadStatus::truncated,
                strprintf("'%s' declares %zu parameters and a %u^3 occupancy gate in "
                          "%llu payload bytes",
                          path.c_str(), cfg.paramCount(), gate_res,
                          static_cast<unsigned long long>(payload_bytes))};

    auto model = std::make_unique<ModelT>(cfg);
    const auto blocks = Layout<ModelT>::blocks(*model);
    for (std::size_t i = 0; i < blocks.size(); ++i)
        if (blocks[i].size() != lengths[i])
            return {nullptr, LoadStatus::headerMismatch,
                    strprintf("block lengths in '%s' do not match its architecture",
                              path.c_str())};

    bool ok = !F3D_FAULT_POINT("nerf.load.read");
    for (const auto block : blocks)
        ok = ok && std::fread(block.data(), sizeof(float), block.size(), f) == block.size();
    std::vector<std::uint8_t> gate(static_cast<std::size_t>(gate_bytes));
    ok = ok && std::fread(gate.data(), 1, gate.size(), f) == gate.size();
    if (!ok)
        return {nullptr, LoadStatus::truncated,
                strprintf("'%s' ends before its parameter blocks and occupancy gate do",
                          path.c_str())};

    // The payload arrived whole; now prove the artifact arrived intact.
    std::uint32_t crc = crc32Update(0, prefix.data() + 8, kPrefixBytes - 8);
    crc = crc32Update(crc, rest.data(), rest.size() - sizeof(stored_crc));
    for (const auto block : blocks)
        crc = crc32Update(crc, block.data(), block.size_bytes());
    crc = crc32Update(crc, gate.data(), gate.size());
    if (crc != stored_crc || F3D_FAULT_POINT("nerf.load.crc"))
        return {nullptr, LoadStatus::badChecksum,
                strprintf("'%s' fails its CRC-32", path.c_str())};
    model->occupancy() = OccupancyGrid::fromPackedBits(static_cast<int>(gate_res), gate);

    // Rebuild the packed image the saver held (the stored dequantized
    // values requantize to the same bits and scales), then drop the
    // fp32 masters again.
    if constexpr (QuantizableModel<ModelT>) {
        if (quant != 0)
            model->setInferenceQuant(static_cast<QuantMode>(quant));
    }
    return {std::make_unique<PointServeField<ModelT>>(std::move(model)), LoadStatus::ok, {}};
}

} // namespace

template <class ModelT>
bool
saveModel(const ModelT &model, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool ok = writeArtifact(f, model, /*torn=*/false);
    std::fclose(f);
    return ok;
}

template <class ModelT>
bool
saveModelAtomic(const ModelT &model, const std::string &path)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f =
        F3D_FAULT_POINT("trainer.ckpt.open") ? nullptr : std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("saveModelAtomic: cannot open '%s'", tmp.c_str());
        return false;
    }

    if (F3D_FAULT_POINT("trainer.ckpt.write")) {
        // Simulated crash mid-write: a torn temp file stays behind, and
        // nothing is renamed over the destination.
        (void)writeArtifact(f, model, /*torn=*/true);
        std::fclose(f);
        warn("saveModelAtomic: injected crash while writing '%s'", tmp.c_str());
        return false;
    }

    bool ok = writeArtifact(f, model, /*torn=*/false);
    ok = ok && std::fflush(f) == 0;
    // fsync before the rename: otherwise a real crash could leave the
    // new name pointing at not-yet-durable data.
    ok = ok && fsync(fileno(f)) == 0;
    std::fclose(f);
    if (!ok) {
        std::remove(tmp.c_str());
        warn("saveModelAtomic: write to '%s' failed", tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        warn("saveModelAtomic: cannot rename '%s' to '%s'", tmp.c_str(),
             path.c_str());
        return false;
    }
    return true;
}

template <class ModelT>
std::size_t
modelFootprintBytes(const ModelT &model)
{
    return kHeaderBytes<ModelT> + model.paramCount() * sizeof(float) +
           model.occupancy().bitfieldBytes();
}

template bool saveModel(const NerfModel &, const std::string &);
template bool saveModel(const FreqNerfModel &, const std::string &);
template bool saveModel(const TensorfModel &, const std::string &);
template bool saveModelAtomic(const NerfModel &, const std::string &);
template bool saveModelAtomic(const FreqNerfModel &, const std::string &);
template bool saveModelAtomic(const TensorfModel &, const std::string &);
template std::size_t modelFootprintBytes(const NerfModel &);
template std::size_t modelFootprintBytes(const FreqNerfModel &);
template std::size_t modelFootprintBytes(const TensorfModel &);

const char *
loadStatusName(LoadStatus status)
{
    static constexpr const char *kNames[] = {
        "ok",        "I/O error",         "bad magic",      "bad version", "header mismatch",
        "truncated", "checksum mismatch", "unknown backend"};
    const auto i = static_cast<std::size_t>(status);
    return i < std::size(kNames) ? kNames[i] : "?";
}

LoadResult
loadFieldVerbose(const std::string &path)
{
    const std::unique_ptr<std::FILE, int (*)(std::FILE *)> file(
        F3D_FAULT_POINT("nerf.load.open") ? nullptr : std::fopen(path.c_str(), "rb"),
        &std::fclose);
    struct stat st{};
    if (!file || fstat(fileno(file.get()), &st) != 0)
        return {nullptr, LoadStatus::ioError, strprintf("cannot open '%s'", path.c_str())};
    std::array<unsigned char, kPrefixBytes> prefix{};
    const std::size_t got = std::fread(prefix.data(), 1, prefix.size(), file.get());
    if (got < 8)
        return {nullptr, LoadStatus::truncated,
                strprintf("'%s' is shorter than the 8-byte prefix", path.c_str())};
    if (std::memcmp(prefix.data(), kMagic, sizeof(kMagic)) != 0)
        return {nullptr, LoadStatus::badMagic,
                strprintf("'%s' is not an F3DM artifact", path.c_str())};
    const unsigned char *p = prefix.data() + 4;
    const std::uint32_t version = take<std::uint32_t>(p);
    if (version != kVersion)
        return {nullptr, LoadStatus::badVersion,
                strprintf("'%s' has format version %u; this build reads only %u",
                          path.c_str(), version, kVersion)};
    if (got < prefix.size())
        return {nullptr, LoadStatus::truncated,
                strprintf("'%s' ends inside its 16-byte prefix", path.c_str())};

    const std::uint32_t kind = take<std::uint32_t>(p);
    const std::uint32_t quant = take<std::uint32_t>(p);
    const auto size = static_cast<std::uint64_t>(st.st_size);
    switch (static_cast<BackendKind>(kind)) {
      case BackendKind::hashGrid:
        return readArtifact<NerfModel>(file.get(), size, prefix, quant, path);
      case BackendKind::freqNerf:
        return readArtifact<FreqNerfModel>(file.get(), size, prefix, quant, path);
      case BackendKind::tensorf:
        return readArtifact<TensorfModel>(file.get(), size, prefix, quant, path);
    }
    return {nullptr, LoadStatus::badBackend,
            strprintf("'%s' declares unknown backend kind %u", path.c_str(), kind)};
}

std::unique_ptr<ServeableField>
loadField(const std::string &path)
{
    LoadResult r = loadFieldVerbose(path);
    if (!r)
        warn("loadField: %s: %s", loadStatusName(r.status), r.message.c_str());
    return std::move(r.field);
}

bool
loadInto(NerfModel &dst, const NerfModel &src)
{
    if (F3D_FAULT_POINT("nerf.loadinto")) {
        warn("loadInto: injected fault (nerf.loadinto)");
        return false;
    }
    if (!src.hasFp32Weights() || !dst.hasFp32Weights()) {
        warn("loadInto: quantized model without fp32 masters");
        return false;
    }
    const auto from = Layout<NerfModel>::blocks(src);
    const auto to = Layout<NerfModel>::blocks(dst);
    for (std::size_t i = 0; i < from.size(); ++i) {
        if (from[i].size() != to[i].size()) {
            warn("loadInto: parameter-block sizes differ (dst %zu params, src %zu)",
                 dst.paramCount(), src.paramCount());
            return false;
        }
    }
    for (std::size_t i = 0; i < from.size(); ++i)
        std::copy(from[i].begin(), from[i].end(), to[i].begin());
    dst.occupancy() = src.occupancy();
    return true;
}

} // namespace fusion3d::nerf
