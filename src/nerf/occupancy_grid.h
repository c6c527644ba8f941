/**
 * @file
 * Occupancy grid over the normalized unit cube. Stage I filters sampled
 * points through this grid so only points in non-empty space reach
 * Stages II/III; the paper additionally uses it as the built-in MoE
 * gating function of the multi-chip design (Sec. II-A, Sec. V-A).
 */

#ifndef FUSION3D_NERF_OCCUPANCY_GRID_H_
#define FUSION3D_NERF_OCCUPANCY_GRID_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/ray.h"
#include "common/rng.h"
#include "common/vec.h"

namespace fusion3d::nerf
{

/**
 * A cubic occupancy grid: a bitfield plus the EMA density estimates that
 * drive it. The estimates are allocated by the first update, so a fresh
 * grid, or one read back from an artifact, holds its bits only.
 */
class OccupancyGrid
{
  public:
    /**
     * @param resolution Cells per axis.
     * @param threshold  Density σ (per unit of normalized length) above
     *                   which a cell counts as occupied, capped at the
     *                   grid's mean density by applyDensities.
     *                   PointPipeline passes its optical-thickness
     *                   threshold divided by Stage I's lattice step.
     */
    explicit OccupancyGrid(int resolution = 64, float threshold = 0.01f);

    /**
     * A grid holding @p packed bits only (the layout of packedBits()).
     * @p packed must hold at least bitfieldBytes() of the result.
     */
    static OccupancyGrid fromPackedBits(int resolution, std::span<const std::uint8_t> packed);

    int resolution() const { return res_; }
    float threshold() const { return threshold_; }
    std::size_t cellCount() const { return occupied_.size(); }

    /** Linear index of the cell containing @p pos (pos in [0,1]^3). */
    std::size_t cellIndex(const Vec3f &pos) const;

    /** Cell-center position of linear cell @p idx. */
    Vec3f cellCenter(std::size_t idx) const;

    bool occupiedCell(std::size_t idx) const { return occupied_[idx]; }
    bool occupiedAt(const Vec3f &pos) const { return occupied_[cellIndex(pos)]; }

    /**
     * EMA update from a density oracle (the NeRF model during training,
     * or an analytic scene). Each cell is probed at its jittered center;
     * the stored estimate decays toward the fresh sample as in
     * Instant-NGP's grid update. Runs collectProbePositions, the oracle
     * once per probe in cell order, then applyDensities.
     *
     * @param density Density oracle over normalized coordinates.
     * @param rng     Jitter source.
     * @param decay   EMA decay of the old estimate.
     */
    void update(const std::function<float(const Vec3f &)> &density, Pcg32 &rng,
                float decay = 0.95f);

    /**
     * Phase one of an update: the jittered probe position of every
     * cell, in cell order, drawing three jitters per cell. Callers with
     * a batched density oracle (the pipelines) evaluate the probes as
     * one parallel batch between this and applyDensities; update() is
     * the same two phases around a scalar oracle.
     *
     * @param rng Jitter source.
     * @param out Resized to cellCount(), clamped into [0,1]^3.
     */
    void collectProbePositions(Pcg32 &rng, std::vector<Vec3f> &out) const;

    /**
     * Phase two of an update: fold per-cell fresh density samples
     * (cell order, cellCount() values) into the EMA and refresh the
     * occupancy bits. A cell is occupied when its estimate exceeds
     * min(threshold(), mean estimate over the grid), strictly: the cap
     * keeps the cells above the mean even when no cell reaches the
     * threshold, and a grid of equal estimates below it clears.
     */
    void applyDensities(std::span<const float> fresh, float decay = 0.95f);

    /** Mark every cell occupied (the state before any update). */
    void markAll();

    /** Clear every cell. */
    void clearAll();

    /**
     * Keep only cells for which @p keep is true (MoE Level-1 tiling:
     * restrict an expert's gate to its spatial region).
     */
    void maskRegion(const std::function<bool(const Vec3f &)> &keep);

    /** Fraction of cells currently occupied. */
    double occupiedFraction() const;

    /** Occupancy bitfield size in bytes (1 bit per cell). */
    std::size_t bitfieldBytes() const { return (cellCount() + 7) / 8; }

    /** Bytes this grid keeps resident: the bitfield, plus the density
     *  estimates once an update has allocated them. */
    std::size_t
    residentBytes() const
    {
        return bitfieldBytes() + density_.size() * sizeof(float);
    }

    /** The bitfield packed LSB-first: cell i is bit i % 8 of byte i / 8,
     *  and the padding bits of the last byte are zero. */
    std::vector<std::uint8_t> packedBits() const;

    /** One contiguous occupied interval along a traversed ray. */
    struct Interval
    {
        float t0 = 0.0f;
        float t1 = 0.0f;
    };

    /**
     * 3D-DDA traversal: walk the grid cells pierced by @p ray between
     * @p t_min and @p t_max and return the merged parametric intervals
     * that lie in occupied cells. This is how the sampling hardware
     * skips empty space in whole-cell steps instead of probing the
     * bitfield per sample.
     *
     * @param out   Receives the merged occupied intervals (cleared first).
     * @param steps If non-null, receives the number of grid cells the
     *              DDA visited (the hardware's skip cost).
     * @return Number of intervals produced.
     */
    int traverse(const Ray &ray, float t_min, float t_max,
                 std::vector<Interval> &out, int *steps = nullptr) const;

  private:
    int res_;
    float threshold_;
    /** EMA estimates; empty until the first applyDensities. */
    std::vector<float> density_;
    std::vector<bool> occupied_;
};

/**
 * The occupancy gate a point model carries with its weights. PointPipeline
 * trains it, saveModel writes it into the model's artifact, and the serve
 * layer renders through it, so a deployed model skips the space it learned
 * was empty. NerfModel, FreqNerfModel and TensorfModel all inherit it.
 */
class OccupancyGated
{
  public:
    OccupancyGrid &occupancy() { return occupancy_; }
    const OccupancyGrid &occupancy() const { return occupancy_; }

  private:
    OccupancyGrid occupancy_;
};

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_OCCUPANCY_GRID_H_
