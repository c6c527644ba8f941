/**
 * @file
 * Binary model serialization. The paper's deployment story leans on the
 * small NeRF footprint (~10 MB) for transmission over the bandwidth-
 * constrained edge link; this is the writer/reader for that artifact.
 *
 * One layout (v6, little-endian) serves every backend and quant mode:
 *
 *   "F3DM" | u32 version = 6 | u32 BackendKind | u32 QuantMode |
 *   u32 word count | 4-byte architecture words |
 *   u32 block count | u64 block lengths (floats) |
 *   u32 gate resolution | u32 CRC-32 | fp32 parameter blocks |
 *   gate bitfield
 *
 * The gate block is the model's occupancy gate (OccupancyGated), the one
 * training learned: its resolution R in the header and R^3 occupancy
 * bits after the parameters, packed as OccupancyGrid::packedBits() does
 * ((R^3 + 7) / 8 bytes). The reader restores the bits only, not the
 * density estimates behind them, so a served model renders through
 * exactly the gate it was trained with.
 *
 * The CRC covers every byte from the backend tag up to the CRC field,
 * then the payload, so a flipped architecture word is caught even when
 * it leaves the parameter count unchanged. Quantized models store their
 * dequantized blocks (every value is exactly representable in the
 * packed format) and the reader requantizes them bit-identically.
 *
 * Checkpointing uses saveModelAtomic(): write to "<path>.tmp", fsync,
 * then rename over the destination — a crash mid-write (exercised by
 * the "trainer.ckpt.write" fault point) can orphan a temp file but can
 * never leave a partial artifact at the final path.
 */

#ifndef FUSION3D_NERF_SERIALIZE_H_
#define FUSION3D_NERF_SERIALIZE_H_

#include <memory>
#include <string>

#include "nerf/field.h"
#include "nerf/nerf_model.h"

namespace fusion3d::nerf
{

/**
 * Serialize @p model to @p path. ModelT is NerfModel, FreqNerfModel or
 * TensorfModel. @return true on success.
 */
template <class ModelT>
bool saveModel(const ModelT &model, const std::string &path);

/**
 * Crash-safe save: write to "<path>.tmp", flush + fsync, then atomically
 * rename onto @p path. On any failure (including an injected crash via
 * the "trainer.ckpt.write" fault point) the destination is untouched:
 * it either keeps its previous complete artifact or stays absent.
 * @return true when @p path holds the new artifact.
 */
template <class ModelT>
bool saveModelAtomic(const ModelT &model, const std::string &path);

/** Size in bytes of the artifact saveModel() writes for @p model. */
template <class ModelT>
std::size_t modelFootprintBytes(const ModelT &model);

/** Why a load failed (LoadStatus::ok means it did not). */
enum class LoadStatus
{
    ok,
    /** The file could not be opened. */
    ioError,
    /** The magic bytes are not "F3DM". */
    badMagic,
    /** The format version is not one this build reads. */
    badVersion,
    /** The header is self-inconsistent (an invalid architecture, or
     *  block lengths that do not match it). */
    headerMismatch,
    /** The file ends before the header or the parameter blocks do. */
    truncated,
    /** The artifact does not match its CRC-32. */
    badChecksum,
    /** The artifact declares a backend kind this build does not know. */
    badBackend,
};

/** Human-readable name of @p status. */
const char *loadStatusName(LoadStatus status);

/** Outcome of loadFieldVerbose(): a field, or a diagnosable failure. */
struct LoadResult
{
    std::unique_ptr<ServeableField> field;
    LoadStatus status = LoadStatus::ioError;
    /** One-line diagnosis, empty on success. */
    std::string message;

    explicit operator bool() const { return status == LoadStatus::ok; }
};

/**
 * Load any .f3dm artifact as a ServeableField of the backend its tag
 * names, reporting *why* a failure happened. Every input ends in a
 * LoadStatus: the header is validated with each model's own config
 * rule, and a header that implies more parameters or gate bits than the
 * file holds is rejected before anything is allocated.
 */
LoadResult loadFieldVerbose(const std::string &path);

/**
 * Load any .f3dm artifact as a ServeableField.
 * @return nullptr on any failure (the reason is logged via warn();
 *         use loadFieldVerbose() to inspect it programmatically).
 */
std::unique_ptr<ServeableField> loadField(const std::string &path);

/**
 * Copy all parameters of @p src into @p dst (encoding and both MLPs),
 * and its occupancy gate. The deployment example uses this to install a
 * deserialized model into a live pipeline.
 * @return false (and copy nothing) if any parameter-block size differs.
 */
bool loadInto(NerfModel &dst, const NerfModel &src);

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_SERIALIZE_H_
