/**
 * @file
 * Abstract trainable radiance field. The single-model pipeline
 * (PointPipeline<ModelT>, one chip) and the Mixture-of-Experts model
 * (multi-chip, Technique T3) implement this interface, so the Trainer
 * and the evaluation harness are agnostic to which one they drive.
 * The interface is batch-only: traceRays/backwardRays are the one way
 * to trace and differentiate rays.
 */

#ifndef FUSION3D_NERF_RADIANCE_FIELD_H_
#define FUSION3D_NERF_RADIANCE_FIELD_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "common/ray.h"
#include "common/rng.h"
#include "common/vec.h"
#include "nerf/sampler.h"

namespace fusion3d
{
class Image;
class ThreadPool;
}

namespace fusion3d::nerf
{

class Camera;

/** Result of tracing one ray through a radiance field. */
struct RayEval
{
    Vec3f color;
    /** Valid (occupancy-surviving) samples evaluated. */
    int samples = 0;
    /** Candidate samples before occupancy filtering. */
    int candidates = 0;
    /** Samples actually composited before early termination. */
    int composited = 0;
    /** Remaining transmittance behind the last sample. */
    float transmittance = 1.0f;
    /** Ray parameter of the first valid sample (+inf if none). The
     *  multi-chip I/O module orders expert partials by this depth. */
    float firstHitT = std::numeric_limits<float>::infinity();
    /** Composited depth (see composite); 0 unless the trace asked. */
    float depth = 0.0f;
};

/** A differentiable, trainable radiance field. */
class RadianceField
{
  public:
    virtual ~RadianceField() = default;

    /**
     * Render a batch of rays as one flattened SoA evaluation, consuming
     * @p rng ray by ray in order, so a batch draws the same jitter as
     * the same rays traced one at a time. This is the only way to trace
     * a ray: training, evaluation and the chip models (a batch of one)
     * all ride the GEMM-shaped batch core.
     *
     * @param rays     Rays in normalized model coordinates.
     * @param rng      Source of sampling jitter, consumed ray by ray.
     * @param record   Keep the evaluation tape so backwardRays() works.
     * @param out      Receives one RayEval per ray (size >= rays.size()).
     * @param workload Optional aggregate Stage-I trace over the batch.
     */
    virtual void traceRays(std::span<const Ray> rays, Pcg32 &rng, bool record,
                           std::span<RayEval> out, RayWorkload *workload = nullptr) = 0;

    /**
     * Backpropagate per-ray dL/d(color) for the batch recorded by the
     * last traceRays(record=true).
     */
    virtual void backwardRays(std::span<const Vec3f> dcolors) = 0;

    /**
     * Zero all accumulated parameter gradients. Non-virtual template
     * method: first invalidates every recorded evaluation tape (a tape
     * recorded against the pre-step weights must not silently replay),
     * then dispatches to zeroGradsImpl().
     */
    void
    zeroGrads()
    {
        invalidateTapes();
        zeroGradsImpl();
    }

    /**
     * Apply one optimizer step using the accumulated gradients. Also
     * invalidates recorded tapes: a backwardRays() after the weights
     * moved would re-trace against the updated model and produce
     * silently wrong gradients, so it fails loudly instead.
     */
    void
    optimizerStep()
    {
        invalidateTapes();
        optimizerStepImpl();
    }

    /** Refresh the occupancy gate(s) from the current density field. */
    virtual void updateOccupancy(Pcg32 &rng) = 0;

    /** Fake-quantize all weights through INT8 (Table II experiment). */
    virtual void quantizeWeights() = 0;

    /** Total trainable parameter count. */
    virtual std::size_t paramCount() const = 0;

    /**
     * Attach a thread pool the field may use to parallelize batched
     * work (traceRays/backwardRays sharding, optimizerStep,
     * updateOccupancy, renderView tiles). Null detaches and runs the
     * same work inline; the pool must outlive the field's use of it.
     * Results are reproducible for a given seed with any pool size or
     * none — the shard partition and gradient reduction order are
     * fixed by batch size alone.
     */
    virtual void setThreadPool(ThreadPool *pool) { pool_ = pool; }
    ThreadPool *threadPool() const { return pool_; }

    /**
     * Render @p camera's evaluation view into @p out. Row y draws its
     * jitter from Pcg32(seed + y, kRowJitterStream), never from a
     * training stream. PointPipeline renders jitter-free row tiles on
     * the attached pool; MoeField traces a batch per row.
     */
    virtual void renderView(const Camera &camera, std::uint64_t seed, Image &out) = 0;

  protected:
    /** Zero all accumulated parameter gradients. */
    virtual void zeroGradsImpl() = 0;

    /** Apply one optimizer step using the accumulated gradients. */
    virtual void optimizerStepImpl() = 0;

    /**
     * Drop every recorded evaluation tape so a stale backwardRays()
     * panics instead of replaying against updated weights.
     */
    virtual void invalidateTapes() = 0;

    /** Pool attached via setThreadPool (null = serial). */
    ThreadPool *pool_ = nullptr;
};

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_RADIANCE_FIELD_H_
