/**
 * @file
 * Multiresolution hash-grid encoding (Instant-NGP, Mueller et al. 2022),
 * the Stage-II workload of the Fusion-3D pipeline. Each query point is
 * trilinearly interpolated from the eight nearest vertices of every
 * level; coarse levels index densely, fine levels through the spatial
 * hash with primes (1, 2654435761, 805459861).
 *
 * Two properties of this addressing are load-bearing for the paper's
 * Technique T4 and are asserted by tests:
 *  - vertices that differ by +1 in x map to addresses of opposite parity
 *    (all non-x primes are odd and the x stride is 1);
 *  - the four YZ-offset pairs of a corner group land far apart in the
 *    table (large y/z multipliers).
 */

#ifndef FUSION3D_NERF_HASH_ENCODING_H_
#define FUSION3D_NERF_HASH_ENCODING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/quant.h"
#include "common/vec.h"

namespace fusion3d::nerf
{

/** Static configuration of the multiresolution hash grid. */
struct HashGridConfig
{
    /** Number of resolution levels (paper/NGP default 16; we default 8). */
    int levels = 8;
    /** Feature channels per level (NGP default 2). */
    int featuresPerLevel = 2;
    /** log2 of the per-level hash-table entry count. */
    int log2TableSize = 14;
    /** Coarsest grid resolution. */
    int baseResolution = 16;
    /** Finest grid resolution. */
    int maxResolution = 128;

    int encodedDims() const { return levels * featuresPerLevel; }
    std::uint32_t tableSize() const { return 1u << log2TableSize; }

    /** Why no grid can be built from this config, or nullptr: the
     *  constructor's rule, which artifact readers apply too. */
    const char *invalidReason() const;
    /** Parameter count of a grid built from this (valid) config. */
    std::size_t paramCount() const;
    bool operator==(const HashGridConfig &) const = default;
};

/**
 * Observer of the per-corner memory accesses performed by one encode()
 * call. The chip model implements this to drive the banked-SRAM and
 * hash-tiling simulations from real access traces.
 */
class VertexVisitor
{
  public:
    virtual ~VertexVisitor() = default;

    /**
     * One vertex-feature access.
     * @param level  Grid level.
     * @param corner Corner index 0..7; bit0 = +x, bit1 = +y, bit2 = +z.
     * @param coord  Integer vertex coordinate at this level.
     * @param index  Table entry index within the level (pre-feature-dim).
     * @param dense  True if the level indexes densely (no hashing).
     */
    virtual void visit(int level, int corner, const Vec3i &coord,
                       std::uint32_t index, bool dense) = 0;
};

/**
 * Per-shard sparse gradient accumulator for parallel training. Each
 * worker scatters its shard's hash-grid gradients here instead of into
 * the shared gradient vector: a dense zero-initialized scratch the size
 * of the parameter vector plus, per level, the list of table entries the
 * shard actually touched (in first-touch order). Shards are then merged
 * into the real gradients in a fixed level-major, shard-ascending order
 * (HashGridEncoding::mergeGradShards), which keeps training bitwise
 * reproducible at any thread count — the property atomics cannot give,
 * since atomic float adds commit in scheduling order. Buffers are
 * allocated once and reused; merging re-zeroes only the touched entries.
 */
class HashGradAccumulator
{
  public:
    /** True if nothing has been accumulated since the last merge. */
    bool empty() const { return total_touched_ == 0; }

    /** Entries touched since the last merge (across all levels). */
    std::size_t touchedEntries() const { return total_touched_; }

  private:
    friend class HashGridEncoding;
    /** Dense [paramCount] scratch; all-zero outside touched entries. */
    std::vector<float> acc_;
    /** One first-touch flag per table entry (all levels concatenated). */
    std::vector<std::uint8_t> seen_;
    /** Per level: touched entry indices, in first-touch order. */
    std::vector<std::vector<std::uint32_t>> touched_;
    std::size_t total_touched_ = 0;
};

/** Trainable multiresolution hash grid. */
class HashGridEncoding
{
  public:
    explicit HashGridEncoding(const HashGridConfig &cfg, std::uint64_t seed = 1);

    const HashGridConfig &config() const { return cfg_; }

    /** Grid resolution of @p level. */
    int resolution(int level) const { return resolutions_[level]; }

    /** True if @p level stores a dense grid rather than a hash table. */
    bool isDense(int level) const { return dense_[level]; }

    /** Number of feature entries (not floats) stored for @p level. */
    std::uint32_t levelEntries(int level) const { return entries_[level]; }

    /**
     * The Instant-NGP spatial hash of a vertex coordinate.
     * @param c     Vertex coordinate.
     * @param mask  tableSize-1 (table size must be a power of two).
     */
    static std::uint32_t
    hashCoords(const Vec3i &c, std::uint32_t mask)
    {
        const std::uint32_t x = static_cast<std::uint32_t>(c.x);
        const std::uint32_t y = static_cast<std::uint32_t>(c.y);
        const std::uint32_t z = static_cast<std::uint32_t>(c.z);
        return (x * kPrimeX ^ y * kPrimeY ^ z * kPrimeZ) & mask;
    }

    /** Table-entry index of vertex @p c at @p level (dense or hashed). */
    std::uint32_t vertexIndex(int level, const Vec3i &c) const;

    /**
     * Encode a point in the unit cube.
     * @param pos     Query position, clamped into [0,1]^3.
     * @param out     Receives levels*featuresPerLevel values.
     * @param visitor Optional access-trace observer.
     */
    void encode(const Vec3f &pos, std::span<float> out,
                VertexVisitor *visitor = nullptr) const;

    /**
     * Accumulate parameter gradients for a point previously encoded at
     * @p pos given dL/d(encoding) @p dout. Recomputes the interpolation
     * weights (cheap) rather than caching them.
     */
    void backward(const Vec3f &pos, std::span<const float> dout);

    /**
     * Encode a batch of points in level-major order: one pass over the
     * whole batch per level, so every pass touches a single level's
     * table (cache-friendly) instead of striding through all levels per
     * point. Each point's interpolation accumulates corners in the same
     * order as encode(), so every column is bit-exact with the scalar
     * path.
     *
     * @param pos     Query positions, clamped into [0,1]^3.
     * @param out     Feature-major [encodedDims][pos.size()] matrix:
     *                feature d of point j lands at out[d*n + j].
     * @param visitor Optional access-trace observer; visits arrive
     *                level-major but each point's 8 corners stay
     *                contiguous and in corner order.
     */
    void encodeBatch(std::span<const Vec3f> pos, std::span<float> out,
                     VertexVisitor *visitor = nullptr) const;

    /**
     * Batched backward scatter, level-major like encodeBatch.
     * @param pos  The batch previously encoded.
     * @param dout Feature-major [encodedDims][pos.size()] gradients.
     */
    void backwardBatch(std::span<const Vec3f> pos, std::span<const float> dout);

    /**
     * backwardBatch variant scattering into a per-shard sparse
     * accumulator instead of the shared gradient vector; const, so any
     * number of shards can run concurrently against one encoding. The
     * arithmetic per sample is identical to backwardBatch; only where
     * the partial sums land differs.
     */
    void backwardBatchInto(std::span<const Vec3f> pos, std::span<const float> dout,
                           HashGradAccumulator &acc) const;

    /**
     * Merge shard accumulators into grads() and reset them for reuse.
     * The merge runs level-major (all shards' level-0 contributions,
     * then level 1, ...) and shard-ascending within a level, with each
     * shard's touched entries applied in first-touch order — an order
     * that depends only on the shard partition, never on thread count
     * or scheduling, so training stays bitwise reproducible.
     */
    void mergeGradShards(std::span<HashGradAccumulator *const> shards);

    /** Flat parameter vector (levels concatenated, feature-major). */
    std::span<float> params() { return params_; }
    std::span<const float> params() const { return params_; }

    /** Flat gradient vector matching params(). */
    std::span<float> grads() { return grads_; }

    /** Zero the gradient vector. */
    void zeroGrads();

    /** Total parameter count. */
    std::size_t paramCount() const { return param_count_; }

    /** Parameter bytes at a given precision (for bandwidth accounting). */
    std::size_t paramBytes(int bytes_per_param = 2) const
    {
        return param_count_ * static_cast<std::size_t>(bytes_per_param);
    }

    /**
     * Build the packed inference table for @p mode from the fp32 master
     * table (binary16 for fp16; per-level symmetric INT8 + scale for
     * int8). Afterwards encodeBatch() dequantizes each corner feature
     * on the fly (float(q) * scale / exact binary16 widening) inside
     * the gather kernels — arithmetic identical to interpolating a
     * pre-dequantized fp32 table. The scalar encode(), the visitor
     * path, and every backward entry point keep using the fp32 master
     * table. fp32 discards the packed table.
     */
    void buildQuantized(QuantMode mode);

    /** Numeric format encodeBatch reads table entries in. */
    QuantMode quantMode() const { return quant_mode_; }

    /**
     * Release the fp32 master table and gradients. Requires a packed
     * table (quantMode() != fp32); afterwards encode(), the visitor
     * path and the backward entry points panic.
     */
    void dropFp32Weights();

    /** True until dropFp32Weights(). */
    bool hasFp32Weights() const { return has_fp32_; }

    /** Bytes of resident table storage (fp32 master + packed image). */
    std::size_t residentParamBytes() const;

    /**
     * The params()-layout table the batched encode evaluates: a copy of
     * params() in fp32 mode, otherwise the packed table dequantized
     * (what a dequantize-then-fp32 oracle would interpolate).
     */
    std::vector<float> dequantizedParams() const;

    static constexpr std::uint32_t kPrimeX = 1u;
    static constexpr std::uint32_t kPrimeY = 2654435761u;
    static constexpr std::uint32_t kPrimeZ = 805459861u;

  private:
    struct CornerSet
    {
        Vec3i coords[8];
        std::uint32_t indices[8];
        float weights[8];
    };

    /** Compute corners/weights/indices of @p pos at @p level. */
    void gatherCorners(int level, const Vec3f &pos, CornerSet &cs) const;

    HashGridConfig cfg_;
    std::vector<int> resolutions_;
    std::vector<bool> dense_;
    std::vector<std::uint32_t> entries_;
    /** Offset of each level's first float in params_. */
    std::vector<std::size_t> offsets_;
    std::vector<float> params_;
    std::vector<float> grads_;

    /** Logical parameter count (stable across dropFp32Weights). */
    std::size_t param_count_ = 0;
    QuantMode quant_mode_ = QuantMode::fp32;
    bool has_fp32_ = true;
    /** Packed tables, same element layout/offsets as params_. The int8
     *  table carries 4 trailing pad bytes: the AVX2 variant fetches
     *  entries with 32-bit gathers at byte stride 2. */
    std::vector<std::uint16_t> qtab_fp16_;
    std::vector<std::int8_t> qtab_int8_;
    /** Per-level symmetric int8 scales. */
    std::vector<QuantScale> qlevel_scales_;
};

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_HASH_ENCODING_H_
