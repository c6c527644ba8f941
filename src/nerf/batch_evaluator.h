/**
 * @file
 * The one Stage I -> III driver of training and rendering: CSR
 * SampleBatch build through the occupancy gate (each ray draws jitter
 * from the stream its caller names), one injected batched forward
 * (PointPipeline's shard engine, or the tiled renderer's
 * ServeableField::evalBatch), one composite pass per CSR range that
 * returns color and, when asked, depth, and the recompute-in-backward
 * composite tape.
 */

#ifndef FUSION3D_NERF_BATCH_EVALUATOR_H_
#define FUSION3D_NERF_BATCH_EVALUATOR_H_

#include <optional>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "nerf/occupancy_grid.h"
#include "nerf/radiance_field.h"
#include "nerf/renderer.h"
#include "nerf/sample_batch.h"
#include "nerf/sampler.h"

namespace fusion3d::nerf
{

/** Rays per compositing chunk in the pool-parallel loops. */
inline constexpr int kRayCompositeGrain = 64;

/** Feed the nerf.train.* shard-engine counters: one sharded model call
 *  over @p samples split into @p shards, and one gradient reduction. */
void noteShardedCall(std::size_t samples, std::size_t shards);
void noteGradientReduce();

/**
 * Owns the batch tape and scratch of one pipeline's traceRays /
 * backwardRays pair. The owner name parameterizes the panic messages so
 * diagnostics keep naming the concrete pipeline.
 */
class RayBatchEvaluator
{
  public:
    explicit RayBatchEvaluator(const char *owner) : owner_(owner) {}

    void invalidateTape() { tape_valid_ = false; }

    /**
     * Batch-native traceRays: Stage I samples every ray, in order,
     * through the occupancy gate @p grid (the one place empty samples
     * are dropped; null = every cell occupied) into one flat SoA
     * batch, @p forward fills batch.sigmas/batch.rgbs
     * (after prepareOutputs), then each ray composites over its CSR
     * range — pool-parallel, bit-exact with the serial loop because
     * rays touch disjoint ranges. record=true keeps the batch as the
     * tape for backwardRays().
     *
     * @param rng_for Pcg32 &(std::size_t ray), called once per ray in
     *                order: the stream that ray's jitter draws from.
     * @param t_far   When set, RayEval::depth gets each ray's depth.
     * @param forward void(SampleBatch &batch): the backend's batched
     *                model evaluation over the flattened samples.
     */
    template <class RngFn, class ForwardFn>
    void
    traceRays(const RaySampler &sampler, const OccupancyGrid *grid,
              const RenderParams &render, std::span<const Ray> rays,
              RngFn &&rng_for, bool record, std::span<RayEval> out,
              RayWorkload *workload, ThreadPool *pool, std::optional<float> t_far,
              ForwardFn &&forward)
    {
        if (out.size() < rays.size())
            panic("%s::traceRays: output span too small (%zu < %zu)", owner_,
                  out.size(), rays.size());
        if (workload) {
            workload->pairs.clear();
            workload->totalCandidates = 0;
            workload->totalValid = 0;
            workload->ddaSteps = 0;
            workload->intersectionOps.reset();
        }

        SampleBatch &batch = record ? tape_batch_ : scratch_batch_;
        batch.clear();

        // Stage I: sample every ray, in order, into one flat SoA batch.
        // Each ray consumes its own stream exactly as a one-ray trace
        // would, so jitter is batch-size invariant.
        for (std::size_t r = 0; r < rays.size(); ++r) {
            sampler.sample(rays[r], grid, rng_for(r), scratch_samples_,
                           workload ? &scratch_workload_ : nullptr);
            batch.appendRay(normalize(rays[r].dir), scratch_samples_);
            out[r] = RayEval{};
            out[r].samples = static_cast<int>(scratch_samples_.size());
            out[r].candidates =
                workload ? scratch_workload_.totalCandidates : out[r].samples;
            if (workload)
                workload->mergeFrom(scratch_workload_);
        }

        // Stages II+III: the backend's batched forward.
        batch.prepareOutputs();
        forward(batch);

        // Composite per ray through its CSR range. Each ray reads and
        // writes only its own range/slots, so the parallel split is
        // bit-exact with the serial loop.
        if (record)
            tape_results_.resize(rays.size());
        const auto composite_ray = [&](std::size_t r) {
            const std::size_t begin = batch.rayBegin(static_cast<int>(r));
            const std::size_t count = batch.raySampleCount(static_cast<int>(r));
            const CompositeResult cr =
                composite({batch.sigmas.data() + begin, count},
                          {batch.rgbs.data() + begin, count},
                          {batch.dts.data() + begin, count}, render,
                          {batch.ts.data() + begin, count}, t_far);
            if (record)
                tape_results_[r] = cr;
            out[r].color = cr.color;
            out[r].transmittance = cr.transmittance;
            out[r].composited = cr.used;
            out[r].depth = cr.depth;
            if (count > 0)
                out[r].firstHitT = batch.ts[begin];
        };
        if (pool) {
            pool->parallelFor(
                0, static_cast<int>(rays.size()),
                [&](int b, int e) {
                    for (int r = b; r < e; ++r)
                        composite_ray(static_cast<std::size_t>(r));
                },
                kRayCompositeGrain);
        } else {
            for (std::size_t r = 0; r < rays.size(); ++r)
                composite_ray(r);
        }

        if (record)
            tape_valid_ = true;
    }

    /**
     * Composite-backward per ray into the batch-wide per-sample
     * gradient arrays (entries past each ray's used count are zeroed),
     * then one call into @p backward for the backend's batched model
     * backward. Consumes the tape.
     *
     * @param backward void(const SampleBatch &batch,
     *                      std::span<const float> dsigmas,
     *                      std::span<const Vec3f> drgbs).
     */
    template <class BackwardFn>
    void
    backwardRays(const RenderParams &render, std::span<const Vec3f> dcolors,
                 ThreadPool *pool, BackwardFn &&backward)
    {
        if (!tape_valid_)
            panic("%s::backwardRays without a recorded traceRays", owner_);
        const std::size_t num_rays = static_cast<std::size_t>(tape_batch_.numRays());
        if (dcolors.size() < num_rays)
            panic("%s::backwardRays: gradient span too small (%zu < %zu)", owner_,
                  dcolors.size(), num_rays);

        // Rays write disjoint ranges; the only shared state is the
        // scratch buffer, so the parallel split binds one scratch per
        // chunk index.
        tape_dsigmas_.resize(tape_batch_.size());
        tape_drgbs_.resize(tape_batch_.size());
        const auto backward_ray = [&](std::size_t r,
                                      CompositeBackwardScratch &scratch) {
            const std::size_t begin = tape_batch_.rayBegin(static_cast<int>(r));
            const std::size_t count = tape_batch_.raySampleCount(static_cast<int>(r));
            compositeBackward({tape_batch_.sigmas.data() + begin, count},
                              {tape_batch_.rgbs.data() + begin, count},
                              {tape_batch_.dts.data() + begin, count}, render,
                              tape_results_[r], dcolors[r],
                              {tape_dsigmas_.data() + begin, count},
                              {tape_drgbs_.data() + begin, count}, scratch);
        };
        if (pool) {
            const std::size_t num_chunks =
                (num_rays + static_cast<std::size_t>(kRayCompositeGrain) - 1) /
                static_cast<std::size_t>(kRayCompositeGrain);
            if (composite_scratches_.size() < num_chunks)
                composite_scratches_.resize(num_chunks);
            pool->parallelForChunks(
                0, static_cast<int>(num_rays),
                [&](int chunk, int b, int e) {
                    CompositeBackwardScratch &scratch =
                        composite_scratches_[static_cast<std::size_t>(chunk)];
                    for (int r = b; r < e; ++r)
                        backward_ray(static_cast<std::size_t>(r), scratch);
                },
                kRayCompositeGrain);
        } else {
            for (std::size_t r = 0; r < num_rays; ++r)
                backward_ray(r, composite_scratch_);
        }

        backward(tape_batch_, tape_dsigmas_, tape_drgbs_);
        tape_valid_ = false;
    }

  private:
    const char *owner_;

    // Batch tape of the last recorded traceRays.
    SampleBatch tape_batch_;
    std::vector<CompositeResult> tape_results_;
    std::vector<float> tape_dsigmas_;
    std::vector<Vec3f> tape_drgbs_;
    bool tape_valid_ = false;

    // record=false scratch, so inference never disturbs the tape.
    SampleBatch scratch_batch_;
    std::vector<RaySample> scratch_samples_;
    RayWorkload scratch_workload_;
    CompositeBackwardScratch composite_scratch_;
    std::vector<CompositeBackwardScratch> composite_scratches_;
};

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_BATCH_EVALUATOR_H_
