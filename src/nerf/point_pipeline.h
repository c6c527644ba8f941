/**
 * @file
 * The end-to-end pipeline over a self-contained point model: Stage I
 * sampling through the occupancy gate, batched model evaluation through
 * one shard engine, Stage III compositing, and the training tape. Every
 * backend instantiates it: the hash-grid NerfModel (NerfPipeline, the
 * workload one Fusion-3D chip executes), TensoRF, and the frequency-
 * encoded (vanilla/MetaVRain-style) NeRF.
 *
 * A ModelT must provide (the "batched point model" contract):
 *   using Config = ...;
 *   using BatchWorkspace = ...;                       // batched scratch
 *   using GradArena = ...;                            // one shard's gradients
 *   static constexpr BackendKind kBackendKind = ...;
 *   static constexpr float kLrFactors, kLrNet;        // config defaults
 *   static constexpr std::uint64_t kPipelineSeed;     // config default
 *   ModelT(const Config &, std::uint64_t seed);
 *   // Scalar oracle (bit-exactness reference):
 *   PointEval forwardPoint(const Vec3f &pos, const Vec3f &dir);
 *   float queryDensity(const Vec3f &pos);
 *   void backwardPoint(const Vec3f &, const Vec3f &, float, const Vec3f &);
 *   // Batched kernels (const => shard-concurrent with private ws):
 *   BatchWorkspace makeBatchWorkspace() const;
 *   void forwardPointBatch(pos, dirs, ws, sigmas, rgbs) const;  // bit-exact/sample
 *   void queryDensityBatch(pos, ws, sigmas) const;              // bit-exact/sample
 *   void backwardPointBatchInto(pos, dirs, dsigmas, drgbs, ws, arena) const;
 *                                                     // overwrites the arena
 *   void mergeGradients(std::span<GradArena> arenas); // all shards, fixed order
 *   // Training plumbing:
 *   void zeroGrads();
 *   void optimizerStep(float lr_factors, float lr_net, ThreadPool *pool);
 *   void quantizeWeights();
 *   std::size_t paramCount() const;
 *
 * Optional capability: `VertexVisitor *vertexVisitor() const` (the hash
 * grid's Stage-II access trace). While it returns non-null, forward
 * batches run as one unsharded call on the calling thread.
 */

#ifndef FUSION3D_NERF_POINT_PIPELINE_H_
#define FUSION3D_NERF_POINT_PIPELINE_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "nerf/batch_evaluator.h"
#include "nerf/field.h"
#include "nerf/occupancy_grid.h"
#include "nerf/parallel_render.h"
#include "nerf/radiance_field.h"
#include "nerf/renderer.h"
#include "nerf/sampler.h"
#include "obs/trace.h"

namespace fusion3d::nerf
{

/** Pipeline configuration over a model type. */
template <class ModelT>
struct PointPipelineConfig
{
    typename ModelT::Config model;
    SamplerConfig sampler;
    RenderParams render;
    int occupancyResolution = 48;
    float occupancyThreshold = 0.01f;
    /** Compact occupancy-empty samples out of the batch before the
     *  model forward (RayBatchEvaluator::setCompaction). Composited
     *  colors stay bit-identical to the gated path. */
    bool occupancyCompaction = false;
    /** Learning rate of the model's field parameters (hash table, line
     *  factors, or MLP trunk). */
    float lrFactors = ModelT::kLrFactors;
    /** Learning rate of the model's network parameters. */
    float lrNet = ModelT::kLrNet;
    std::uint64_t seed = ModelT::kPipelineSeed;
};

/** The batch-native pipeline over any point model. */
template <class ModelT>
class PointPipeline : public RadianceField
{
  public:
    using Config = PointPipelineConfig<ModelT>;

    /** Samples per shard and shard cap of the shard engine. The
     *  partition depends on batch size alone, so results are identical
     *  at any pool size, or with none. */
    static constexpr std::size_t kShardGrain = 256;
    static constexpr std::size_t kMaxShards = 16;

    explicit PointPipeline(const Config &cfg)
        : cfg_(cfg),
          model_(std::make_unique<ModelT>(cfg.model, cfg.seed)),
          grid_(cfg.occupancyResolution, cfg.occupancyThreshold),
          sampler_(cfg.sampler)
    {
        eval_.setCompaction(cfg.occupancyCompaction);
    }

    const Config &config() const { return cfg_; }
    ModelT &model() { return *model_; }
    const ModelT &model() const { return *model_; }
    OccupancyGrid &grid() { return grid_; }
    const OccupancyGrid &grid() const { return grid_; }

    /** Toggle occupancy-driven sample compaction at runtime. */
    void setOccupancyCompaction(bool on) { eval_.setCompaction(on); }
    bool occupancyCompaction() const { return eval_.compaction(); }
    /** Batch-vs-model sample counts of the last traceRays call. */
    RayBatchEvaluator::CompactionStats lastCompaction() const
    {
        return eval_.lastCompaction();
    }

    /**
     * Scalar reference path: per-point forwardPoint loop with its own
     * scalar tape. Kept (rather than delegating to a batch of one) as
     * the independent oracle the batch-vs-scalar bit-exactness tests
     * compare traceRays against.
     */
    RayEval
    traceRay(const Ray &ray, Pcg32 &rng, bool record,
             RayWorkload *workload = nullptr) override
    {
        std::vector<RaySample> &samples = record ? tape_samples_ : scratch_samples_;
        sampler_.sample(ray, &grid_, rng, samples, workload);

        RayEval ev;
        ev.samples = static_cast<int>(samples.size());
        ev.candidates = workload ? workload->totalCandidates : ev.samples;

        tape_sigmas_.resize(samples.size());
        tape_rgbs_.resize(samples.size());
        tape_dts_.resize(samples.size());
        const Vec3f dir = normalize(ray.dir);
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const PointEval pe = model_->forwardPoint(samples[i].pos, dir);
            tape_sigmas_[i] = pe.sigma;
            tape_rgbs_[i] = pe.rgb;
            tape_dts_[i] = samples[i].dt;
        }

        const CompositeResult cr =
            composite(tape_sigmas_, tape_rgbs_, tape_dts_, cfg_.render);
        ev.color = cr.color;
        ev.transmittance = cr.transmittance;
        ev.composited = cr.used;
        if (!samples.empty())
            ev.firstHitT = samples.front().t;

        if (record) {
            tape_dir_ = dir;
            tape_result_ = cr;
            tape_valid_ = true;
        }
        return ev;
    }

    void
    backwardLastRay(const Vec3f &dcolor) override
    {
        if (!tape_valid_)
            panic("PointPipeline::backwardLastRay without a recorded ray");

        tape_dsigmas_.resize(tape_sigmas_.size());
        tape_drgbs_.resize(tape_rgbs_.size());
        compositeBackward(tape_sigmas_, tape_rgbs_, tape_dts_, cfg_.render,
                          tape_result_, dcolor, tape_dsigmas_, tape_drgbs_,
                          composite_scratch_);

        for (int i = 0; i < tape_result_.used; ++i) {
            model_->backwardPoint(tape_samples_[static_cast<std::size_t>(i)].pos,
                                  tape_dir_,
                                  tape_dsigmas_[static_cast<std::size_t>(i)],
                                  tape_drgbs_[static_cast<std::size_t>(i)]);
        }
        tape_valid_ = false;
    }

    /**
     * Batch-native override: Stage I samples every ray into one CSR
     * SampleBatch, the model's batched forward evaluates the flattened
     * samples through the shard engine (bit-exact at any pool size
     * because every sample's arithmetic is batch-invariant), and each
     * ray composites over its offset range. record=true keeps the batch
     * as the backwardRays tape.
     */
    void
    traceRays(std::span<const Ray> rays, Pcg32 &rng, bool record,
              std::span<RayEval> out, RayWorkload *workload = nullptr) override
    {
        eval_.traceRays(sampler_, &grid_, cfg_.render, rays, rng, record, out,
                        workload, pool_, [&](SampleBatch &batch) {
                            forwardSharded(batch.positions, batch.dirs, batch.sigmas,
                                           batch.rgbs);
                        });
    }

    /**
     * Composite-backward per ray, then one batched model backward
     * through the shard engine: per-shard gradient arenas merged by the
     * model in fixed shard order, so trained weights are bit-identical
     * at any pool size, or with none.
     */
    void
    backwardRays(std::span<const Vec3f> dcolors) override
    {
        eval_.backwardRays(cfg_.render, dcolors, pool_,
                           [&](const SampleBatch &batch,
                               std::span<const float> dsigmas,
                               std::span<const Vec3f> drgbs) {
                               backwardSharded(batch.positions, batch.dirs, dsigmas,
                                               drgbs);
                           });
    }

    /**
     * Split occupancy update: the jitter draws happen serially in cell
     * order (the rng stream of OccupancyGrid::update), then the probes
     * run as one sharded density batch — bit-exact per sample with the
     * scalar queryDensity path.
     */
    void
    updateOccupancy(Pcg32 &rng) override
    {
        grid_.collectProbePositions(rng, occ_positions_);
        occ_densities_.resize(occ_positions_.size());
        queryDensitySharded(occ_positions_, occ_densities_);
        grid_.applyDensities(occ_densities_);
    }

    void quantizeWeights() override { model_->quantizeWeights(); }

    std::size_t paramCount() const override { return model_->paramCount(); }

    /**
     * Tiled inference render through the backend's ServeableField
     * wrapper (parallel_render row tiling, jitter off); bit-identical
     * at any thread count. Always available here.
     */
    bool
    renderViewTiled(const Camera &camera, ThreadPool &pool, Image &out) override
    {
        TiledRenderConfig tcfg;
        tcfg.sampler = cfg_.sampler;
        tcfg.sampler.jitter = false; // inference render
        tcfg.render = cfg_.render;
        tcfg.seed = cfg_.seed;
        const PointServeField<ModelT> field(*model_);
        out = renderImageTiled(field, &grid_, camera, tcfg, &pool);
        return true;
    }

  protected:
    void zeroGradsImpl() override { model_->zeroGrads(); }

    void
    optimizerStepImpl() override
    {
        model_->optimizerStep(cfg_.lrFactors, cfg_.lrNet, pool_);
    }

    void
    invalidateTapes() override
    {
        eval_.invalidateTape();
        tape_valid_ = false;
    }

  private:
    static std::size_t
    shardCount(std::size_t n)
    {
        return std::min(kMaxShards, (n + kShardGrain - 1) / kShardGrain);
    }

    /** True while the model traces Stage-II accesses (hash grid only). */
    bool
    visitorAttached() const
    {
        if constexpr (requires(const ModelT &m) { m.vertexVisitor(); })
            return model_->vertexVisitor() != nullptr;
        else
            return false;
    }

    /**
     * The shard engine: run fn(s, lo, hi) for each of @p shards fixed
     * contiguous shards [s*n/S, (s+1)*n/S) of an n-sample batch — on
     * the pool when one is attached, inline in shard order otherwise.
     * Each shard owns workspace shard_ws_[s].
     */
    template <class Fn>
    void
    forEachShard(std::size_t n, std::size_t shards, Fn &&fn)
    {
        while (shard_ws_.size() < shards)
            shard_ws_.push_back(model_->makeBatchWorkspace());
        const auto run = [&](std::size_t s) {
            fn(s, s * n / shards, (s + 1) * n / shards);
        };
        if (pool_ && shards > 1) {
            pool_->parallelFor(
                0, static_cast<int>(shards),
                [&](int b, int e) {
                    for (int s = b; s < e; ++s)
                        run(static_cast<std::size_t>(s));
                },
                /*grain=*/1);
        } else {
            for (std::size_t s = 0; s < shards; ++s)
                run(s);
        }
    }

    void
    forwardSharded(std::span<const Vec3f> pos, std::span<const Vec3f> dirs,
                   std::span<float> sigmas, std::span<Vec3f> rgbs)
    {
        const std::size_t n = pos.size();
        if (n == 0)
            return;
        // An attached vertex visitor sees the whole batch as one call,
        // so the access trace keeps its level-major order.
        const std::size_t shards = visitorAttached() ? 1 : shardCount(n);
        noteShardedCall(n, shards);
        const ModelT &model = *model_;
        forEachShard(n, shards, [&](std::size_t s, std::size_t lo, std::size_t hi) {
            F3D_TRACE_SPAN_ARG("train", "shard", s);
            model.forwardPointBatch(pos.subspan(lo, hi - lo), dirs.subspan(lo, hi - lo),
                                    shard_ws_[s], sigmas.subspan(lo, hi - lo),
                                    rgbs.subspan(lo, hi - lo));
        });
    }

    void
    backwardSharded(std::span<const Vec3f> pos, std::span<const Vec3f> dirs,
                    std::span<const float> dsigmas, std::span<const Vec3f> drgbs)
    {
        const std::size_t n = pos.size();
        if (n == 0)
            return;
        F3D_TRACE_SPAN_ARG("nerf", "backward_batch", n);
        const std::size_t shards = shardCount(n);
        noteShardedCall(n, shards);
        if (shard_grads_.size() < shards)
            shard_grads_.resize(shards);
        const ModelT &model = *model_;
        forEachShard(n, shards, [&](std::size_t s, std::size_t lo, std::size_t hi) {
            F3D_TRACE_SPAN_ARG("train", "shard", s);
            model.backwardPointBatchInto(
                pos.subspan(lo, hi - lo), dirs.subspan(lo, hi - lo),
                dsigmas.subspan(lo, hi - lo), drgbs.subspan(lo, hi - lo), shard_ws_[s],
                shard_grads_[s]);
        });
        // Deterministic reduction: the model merges every arena in an
        // order fixed by the partition, never by pool size or
        // completion order.
        F3D_TRACE_SPAN_ARG("train", "reduce", shards);
        noteGradientReduce();
        model_->mergeGradients(std::span(shard_grads_).first(shards));
    }

    void
    queryDensitySharded(std::span<const Vec3f> pos, std::span<float> sigmas)
    {
        const ModelT &model = *model_;
        forEachShard(pos.size(), shardCount(pos.size()),
                     [&](std::size_t s, std::size_t lo, std::size_t hi) {
                         model.queryDensityBatch(pos.subspan(lo, hi - lo), shard_ws_[s],
                                                 sigmas.subspan(lo, hi - lo));
                     });
    }

    Config cfg_;
    std::unique_ptr<ModelT> model_;
    OccupancyGrid grid_;
    RaySampler sampler_;

    /** Stage I/III machinery: batch build, compositing, tape. */
    RayBatchEvaluator eval_{"PointPipeline"};

    // Scalar-oracle tape (traceRay/backwardLastRay).
    std::vector<RaySample> tape_samples_;
    std::vector<float> tape_sigmas_;
    std::vector<Vec3f> tape_rgbs_;
    std::vector<float> tape_dts_;
    std::vector<float> tape_dsigmas_;
    std::vector<Vec3f> tape_drgbs_;
    Vec3f tape_dir_;
    CompositeResult tape_result_;
    bool tape_valid_ = false;
    std::vector<RaySample> scratch_samples_;
    CompositeBackwardScratch composite_scratch_;

    // Shard-engine scratch: per-shard workspaces and gradient arenas.
    // Grown once, allocation-free in steady state.
    std::vector<typename ModelT::BatchWorkspace> shard_ws_;
    std::vector<typename ModelT::GradArena> shard_grads_;
    std::vector<Vec3f> occ_positions_;
    std::vector<float> occ_densities_;
};

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_POINT_PIPELINE_H_
