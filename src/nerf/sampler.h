/**
 * @file
 * Stage I of the NeRF pipeline: per-ray point sampling inside the
 * normalized model cube, with the two techniques of Sec. IV-A modeled
 * explicitly:
 *
 *  - T1-1 Model Normalization & Partitioning: rays intersect the fixed
 *    unit cube (3 MUL + 3 MAC per bound instead of the 18-division
 *    generic path), then the eight half-size octants; only ray-octant
 *    pairs with a valid overlap produce sampling work.
 *  - Occupancy filtering: uniform candidates inside the span are kept
 *    only where the occupancy grid is non-empty.
 *
 * The sampler also emits the workload trace (candidates, valid points,
 * per-octant pair list) the sampling-module hardware model replays.
 */

#ifndef FUSION3D_NERF_SAMPLER_H_
#define FUSION3D_NERF_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "common/aabb.h"
#include "common/op_counter.h"
#include "common/ray.h"
#include "common/rng.h"
#include "nerf/occupancy_grid.h"

namespace fusion3d::nerf
{

/** One sampled point on a ray. */
struct RaySample
{
    Vec3f pos;
    float t = 0.0f;
    float dt = 0.0f;
};

/** One valid ray-octant pair and the sampling work it produced. */
struct RayCubePair
{
    /** Octant index 0..7 (Technique T1-1 partitioning). */
    int octant = 0;
    /** Candidate points marched inside this octant's span. */
    int candidates = 0;
    /** Candidates that survived the occupancy filter. */
    int valid = 0;
};

/** Per-ray Stage-I workload summary consumed by the chip model. */
struct RayWorkload
{
    std::vector<RayCubePair> pairs;
    int totalCandidates = 0;
    int totalValid = 0;
    /** Grid cells stepped by the DDA walk (ddaSkip mode only). */
    int ddaSteps = 0;
    /** Arithmetic spent on intersection tests for this ray. */
    OpCounter intersectionOps;

    /** Accumulate another ray's workload (batch-trace aggregation). */
    void
    mergeFrom(const RayWorkload &o)
    {
        pairs.insert(pairs.end(), o.pairs.begin(), o.pairs.end());
        totalCandidates += o.totalCandidates;
        totalValid += o.totalValid;
        ddaSteps += o.ddaSteps;
        intersectionOps += o.intersectionOps;
    }
};

/** Sampling configuration. */
struct SamplerConfig
{
    /** Uniform marching steps across the full cube diagonal. */
    int maxSamplesPerRay = 64;
    /** Jitter the first sample within a step (training uses true). */
    bool jitter = true;
    /**
     * Use the normalized fast-path intersection (Technique T1-1). When
     * false the generic 18-division path is charged, for the ablation.
     */
    bool normalized = true;
    /** Partition into eight octant sub-cubes (Technique T1-1). */
    bool partition = true;
    /**
     * Skip empty space with a DDA walk of the occupancy grid instead of
     * probing the bitfield at every lattice step: marching work only
     * accrues inside occupied intervals, at the cost of one grid-cell
     * step per crossed cell (counted in RayWorkload::ddaSteps).
     */
    bool ddaSkip = false;

    /** Stage I's lattice step Δt: the cube diagonal √3 over
     *  maxSamplesPerRay. Every sample's dt, and the unit the pipeline's
     *  optical-thickness gate threshold is divided by. */
    float
    latticeStep() const
    {
        return 1.7320508075688772f / static_cast<float>(maxSamplesPerRay);
    }
};

/** Stage-I sampler over the normalized unit cube. */
class RaySampler
{
  public:
    explicit RaySampler(const SamplerConfig &cfg = {}) : cfg_(cfg) {}

    const SamplerConfig &config() const { return cfg_; }

    /**
     * Sample one ray.
     * @param ray       Ray in normalized coordinates.
     * @param grid      Occupancy gate; nullptr keeps every candidate.
     * @param rng       Jitter source.
     * @param out       Receives the surviving samples (cleared first).
     * @param workload  Optional Stage-I trace for the hardware model.
     * @return Number of surviving samples.
     */
    int sample(const Ray &ray, const OccupancyGrid *grid, Pcg32 &rng,
               std::vector<RaySample> &out, RayWorkload *workload = nullptr) const;

  private:
    SamplerConfig cfg_;
};

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_SAMPLER_H_
