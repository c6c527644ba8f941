/**
 * @file
 * The Stage I/III machinery of PointPipeline, for every backend: CSR
 * SampleBatch build through the occupancy gate (rng consumed per ray,
 * so jitter streams are batch-size invariant), batched compositing over
 * per-ray CSR ranges (pool-parallel with a fixed grain), and the
 * recompute-in-backward composite tape. The model evaluation itself is
 * injected as a functor, which PointPipeline routes through its shard
 * engine.
 */

#ifndef FUSION3D_NERF_BATCH_EVALUATOR_H_
#define FUSION3D_NERF_BATCH_EVALUATOR_H_

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

/** Feed the nerf.batch.compaction.* metrics (batch_evaluator.cc). */
void noteCompactionMetrics(std::size_t batch_samples, std::size_t mlp_samples);

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

    bool tapeValid() const { return tape_valid_; }
    void invalidateTape() { tape_valid_ = false; }
    const SampleBatch &tapeBatch() const { return tape_batch_; }

    /** Sample accounting of the last traceRays on this evaluator. */
    struct CompactionStats
    {
        /** Samples in the composited batch (all candidates). */
        std::size_t batchSamples = 0;
        /** Samples the model actually evaluated. */
        std::size_t mlpSamples = 0;
    };

    /**
     * Enable occupancy-driven sample compaction: Stage I keeps every
     * lattice candidate (the sampler runs ungated, consuming the same
     * one-jitter-per-ray rng stream), the gate is probed once per
     * sample at batch build, and only occupied samples reach the model;
     * their outputs scatter back into the full batch, whose empty slots
     * keep sigma 0 — an exact compositing no-op, so composited colors
     * (and, through the tape, parameter gradients) are bit-identical
     * to the gated path. RayEval::samples counts MLP-visible samples
     * and firstHitT is the first occupied sample's t, exactly as in
     * the gated path; RayEval::composited may differ (empty candidates
     * participate in early termination counting). No-op while the
     * caller passes a null grid.
     */
    void setCompaction(bool on) { compaction_ = on; }
    bool compaction() const { return compaction_; }
    const CompactionStats &lastCompaction() const { return last_compaction_; }

    /**
     * Batch-native traceRays: Stage I samples every ray, in order, into
     * one flat SoA batch, @p forward fills batch.sigmas/batch.rgbs
     * (after prepareOutputs), then each ray composites over its CSR
     * range — pool-parallel, bit-exact with the serial loop because
     * rays touch disjoint ranges. record=true keeps the batch as the
     * tape for backwardRays().
     *
     * @param forward void(SampleBatch &batch): the backend's batched
     *                model evaluation over the flattened samples.
     */
    template <class ForwardFn>
    void
    traceRays(const RaySampler &sampler, const OccupancyGrid *grid,
              const RenderParams &render, std::span<const Ray> rays, Pcg32 &rng,
              bool record, std::span<RayEval> out, RayWorkload *workload,
              ThreadPool *pool, ForwardFn &&forward)
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

        const bool compact = compaction_ && grid != nullptr;
        SampleBatch &batch = record ? tape_batch_ : scratch_batch_;
        batch.clear();

        // Stage I: sample every ray, in order, into one flat SoA batch.
        // The rng is consumed per ray exactly as the scalar loop did,
        // so jitter streams are batch-size invariant. Under compaction
        // the sampler runs ungated (one jitter draw per ray either
        // way, so the stream is identical) and the gate moves to the
        // batch-build probe below.
        for (std::size_t r = 0; r < rays.size(); ++r) {
            sampler.sample(rays[r], compact ? nullptr : grid, rng,
                           scratch_samples_,
                           workload ? &scratch_workload_ : nullptr);
            batch.appendRay(normalize(rays[r].dir), scratch_samples_);
            out[r] = RayEval{};
            out[r].samples = static_cast<int>(scratch_samples_.size());
            out[r].candidates =
                workload ? scratch_workload_.totalCandidates : out[r].samples;
            if (workload)
                workload->mergeFrom(scratch_workload_);
        }

        // Stages II+III: the backend's batched forward. Under
        // compaction only gate-occupied samples reach the model; their
        // outputs scatter back while empty slots keep the zeros
        // prepareOutputs() left (exact compositing no-ops).
        batch.prepareOutputs();
        if (compact) {
            SampleBatch &cb =
                record ? tape_compact_batch_ : scratch_compact_batch_;
            std::vector<std::size_t> &cidx =
                record ? tape_compact_index_ : scratch_compact_index_;
            cb.clear();
            cidx.clear();
            for (int r = 0; r < batch.numRays(); ++r) {
                const std::size_t begin = batch.rayBegin(r);
                const std::size_t count = batch.raySampleCount(r);
                int kept = 0;
                for (std::size_t s = begin; s < begin + count; ++s) {
                    if (!grid->occupiedAt(batch.positions[s]))
                        continue;
                    cb.positions.push_back(batch.positions[s]);
                    cb.dirs.push_back(batch.dirs[s]);
                    cb.ts.push_back(batch.ts[s]);
                    cb.dts.push_back(batch.dts[s]);
                    cidx.push_back(s);
                    if (kept == 0)
                        out[static_cast<std::size_t>(r)].firstHitT =
                            batch.ts[s];
                    ++kept;
                }
                out[static_cast<std::size_t>(r)].samples = kept;
            }
            cb.rayOffsets.push_back(cb.positions.size());
            cb.prepareOutputs();
            forward(cb);
            for (std::size_t k = 0; k < cidx.size(); ++k) {
                batch.sigmas[cidx[k]] = cb.sigmas[k];
                batch.rgbs[cidx[k]] = cb.rgbs[k];
            }
            last_compaction_ = {batch.size(), cb.size()};
            noteCompactionMetrics(batch.size(), cb.size());
        } else {
            forward(batch);
            last_compaction_ = {batch.size(), batch.size()};
        }

        // Composite per ray through its CSR range. Each ray reads and
        // writes only its own range/slots, so the parallel split is
        // bit-exact with the serial loop.
        std::vector<CompositeResult> &results =
            record ? tape_results_ : scratch_results_;
        results.resize(rays.size());
        const auto composite_ray = [&](std::size_t r) {
            const std::size_t begin = batch.rayBegin(static_cast<int>(r));
            const std::size_t count = batch.raySampleCount(static_cast<int>(r));
            const CompositeResult cr =
                composite({batch.sigmas.data() + begin, count},
                          {batch.rgbs.data() + begin, count},
                          {batch.dts.data() + begin, count}, render);
            results[r] = cr;
            out[r].color = cr.color;
            out[r].transmittance = cr.transmittance;
            out[r].composited = cr.used;
            // Under compaction firstHitT was already pinned to the
            // first *occupied* sample during the gate probe (matching
            // the gated path); the CSR begin here is the first
            // candidate, occupied or not.
            if (!compact && count > 0)
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

        if (record) {
            tape_valid_ = true;
            tape_compacted_ = compact;
        }
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

        if (tape_compacted_) {
            // The model only saw the occupied samples; gather their
            // composite gradients from the full-batch arrays. Empty
            // samples never reached the model, so whatever gradient
            // compositing assigned them is dropped — exactly the gated
            // path's behaviour.
            compact_dsigmas_.resize(tape_compact_index_.size());
            compact_drgbs_.resize(tape_compact_index_.size());
            for (std::size_t k = 0; k < tape_compact_index_.size(); ++k) {
                compact_dsigmas_[k] = tape_dsigmas_[tape_compact_index_[k]];
                compact_drgbs_[k] = tape_drgbs_[tape_compact_index_[k]];
            }
            backward(static_cast<const SampleBatch &>(tape_compact_batch_),
                     std::span<const float>(compact_dsigmas_),
                     std::span<const Vec3f>(compact_drgbs_));
        } else {
            backward(static_cast<const SampleBatch &>(tape_batch_),
                     std::span<const float>(tape_dsigmas_),
                     std::span<const Vec3f>(tape_drgbs_));
        }
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
    std::vector<CompositeResult> scratch_results_;
    std::vector<RaySample> scratch_samples_;
    RayWorkload scratch_workload_;
    CompositeBackwardScratch composite_scratch_;
    std::vector<CompositeBackwardScratch> composite_scratches_;

    // Occupancy-compaction state: the compact batch the model sees and
    // the full-batch index of each compact sample, per tape/scratch.
    bool compaction_ = false;
    bool tape_compacted_ = false;
    CompactionStats last_compaction_;
    SampleBatch tape_compact_batch_;
    std::vector<std::size_t> tape_compact_index_;
    SampleBatch scratch_compact_batch_;
    std::vector<std::size_t> scratch_compact_index_;
    std::vector<float> compact_dsigmas_;
    std::vector<Vec3f> compact_drgbs_;
};

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_BATCH_EVALUATOR_H_
