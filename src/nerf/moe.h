/**
 * @file
 * Mixture-of-Experts radiance fields (Technique T3, "Level 1 Tiling").
 * The model is split into K complete small models ("experts"), each
 * owning a spatial region of the normalized cube enforced through its
 * private occupancy grid — the paper's insight that the occupancy grid
 * is a built-in gating function. Expert partials are fused at the I/O
 * module from per-expert scalars only (depth-ordered attenuated sum),
 * which is what lets the multi-chip system exchange pixels instead of
 * activations.
 *
 * MoeField is generic over the expert pipeline type; the paper's two
 * instantiations are MoeNerf (Instant-NGP experts, the main system) and
 * MoeTensorf (TensoRF experts, the Sec. VI-C adaptation study).
 */

#ifndef FUSION3D_NERF_MOE_H_
#define FUSION3D_NERF_MOE_H_

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/image.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "nerf/camera.h"
#include "nerf/parallel_render.h"
#include "nerf/pipeline.h"
#include "nerf/radiance_field.h"

namespace fusion3d::nerf
{

/** MoE configuration over an expert pipeline type. */
template <class PipelineT>
struct MoeConfigT
{
    /** Number of experts (= chips in the multi-chip system). */
    int numExperts = 4;
    /** Per-expert pipeline config; hash tables are typically 4x smaller
     *  than the equivalent single large model (2^14 vs 2^16, Fig. 13a). */
    typename PipelineT::Config expert;
    /** Background color fused once at the I/O module. */
    Vec3f background{0.0f, 0.0f, 0.0f};
    std::uint64_t seed = 11;
};

/** The MoE radiance field over experts of type PipelineT. */
template <class PipelineT>
class MoeField : public RadianceField
{
  public:
    using Config = MoeConfigT<PipelineT>;

    explicit MoeField(const Config &cfg)
        : cfg_(cfg)
    {
        if (cfg.numExperts < 1)
            fatal("MoeField needs at least one expert");

        // Seeds on a circle in the XZ plane around the cube center: a
        // deterministic, evenly spread spatial partition whose Voronoi
        // wedges mirror the region specialization of Fig. 8.
        constexpr float kTau = 6.28318530717958647692f;
        seeds_.reserve(static_cast<std::size_t>(cfg.numExperts));
        for (int k = 0; k < cfg.numExperts; ++k) {
            if (cfg.numExperts == 1) {
                seeds_.push_back(Vec3f{0.5f, 0.5f, 0.5f});
                break;
            }
            const float a =
                kTau * static_cast<float>(k) / static_cast<float>(cfg.numExperts);
            seeds_.push_back(
                Vec3f{0.5f + 0.25f * std::cos(a), 0.5f, 0.5f + 0.25f * std::sin(a)});
        }

        experts_.reserve(static_cast<std::size_t>(cfg.numExperts));
        for (int k = 0; k < cfg.numExperts; ++k) {
            typename PipelineT::Config pc = cfg.expert;
            // Experts composite against a black background; the fused
            // background term is added once below (the I/O module).
            pc.render.background = Vec3f(0.0f);
            pc.seed = cfg.seed + static_cast<std::uint64_t>(k) * 101;
            experts_.push_back(std::make_unique<PipelineT>(pc));
        }
        expert_workloads_.resize(static_cast<std::size_t>(cfg.numExperts));
        applyRegionMasks();
    }

    int numExperts() const { return static_cast<int>(experts_.size()); }
    PipelineT &expert(int k) { return *experts_[static_cast<std::size_t>(k)]; }
    const PipelineT &expert(int k) const { return *experts_[static_cast<std::size_t>(k)]; }

    /** Voronoi seed point of expert @p k's region. */
    const Vec3f &seedPoint(int k) const { return seeds_[static_cast<std::size_t>(k)]; }

    /** Region (expert) owning point @p p: nearest seed. */
    int
    regionOf(const Vec3f &p) const
    {
        int best = 0;
        float best_d = lengthSquared(p - seeds_[0]);
        for (int k = 1; k < numExperts(); ++k) {
            const float d = lengthSquared(p - seeds_[static_cast<std::size_t>(k)]);
            if (d < best_d) {
                best_d = d;
                best = k;
            }
        }
        return best;
    }

    /**
     * Expert @p expert's partial result for ray @p ray of the last
     * traceRays batch. Used for the expert-specialization visualization
     * (Fig. 8) and the chip-load accounting of the multi-chip
     * simulator. Valid until the next traceRays.
     */
    const RayEval &
    partial(std::size_t ray, int expert) const
    {
        return lastBatch().evals[static_cast<std::size_t>(expert)][ray];
    }

    /**
     * Expert @p expert's fusion weight for ray @p ray of the last
     * traceRays batch: the transmittance of all experts whose content
     * the ray crossed earlier. The fused pixel is sum_k weight_k *
     * partial_k, computed from per-expert scalars only — the I/O module
     * never sees per-sample data. Valid until the next traceRays,
     * zeroGrads or optimizerStep.
     */
    float
    fusionWeight(std::size_t ray, int expert) const
    {
        return lastBatch().weights[ray * experts_.size() + static_cast<std::size_t>(expert)];
    }

    /**
     * Batch-native override: every expert traces the whole ray batch
     * through its own batched pipeline (expert-major, so each expert's
     * flattened SampleBatch spans all rays), then partials fuse per ray
     * at the I/O module. record=true keeps the fusion weights as the
     * backwardRays tape; record=false works in separate scratch, so an
     * inference render between a recorded trace and its backward leaves
     * the tape intact (each expert pipeline keeps its own tape the same
     * way).
     */
    void
    traceRays(std::span<const Ray> rays, Pcg32 &rng, bool record,
              std::span<RayEval> out, RayWorkload *workload = nullptr) override
    {
        const std::size_t n = rays.size();
        if (out.size() < n)
            fatal("MoeField::traceRays: output span too small");

        if (workload) {
            workload->pairs.clear();
            workload->totalCandidates = 0;
            workload->totalValid = 0;
            workload->intersectionOps.reset();
        }
        if (n == 0)
            return;

        last_recorded_ = record;
        FusedBatch &batch = record ? tape_ : scratch_;
        batch.evals.resize(static_cast<std::size_t>(numExperts()));
        for (int k = 0; k < numExperts(); ++k) {
            auto &evals = batch.evals[static_cast<std::size_t>(k)];
            evals.resize(n);
            RayWorkload &wl = expert_workloads_[static_cast<std::size_t>(k)];
            experts_[static_cast<std::size_t>(k)]->traceRays(rays, rng, record, evals,
                                                             &wl);
            if (workload) {
                workload->totalCandidates += wl.totalCandidates;
                workload->totalValid += wl.totalValid;
                workload->intersectionOps += wl.intersectionOps;
            }
        }

        // The I/O module's fusion, per ray: expert partials are summed
        // after each is attenuated by the transmittance of the experts
        // the ray crossed earlier (the spatial regions are disjoint, so
        // depth order is well defined per ray). Only per-expert scalars
        // are used, preserving the Level-1 tiling's communication
        // profile.
        batch.weights.resize(n * static_cast<std::size_t>(numExperts()));
        for (std::size_t r = 0; r < n; ++r) {
            RayEval total;
            total.color = Vec3f(0.0f);
            float trans_product = 1.0f;
            for (int k = 0; k < numExperts(); ++k) {
                const RayEval &ev = partial(r, k);
                total.samples += ev.samples;
                total.candidates += ev.candidates;
                total.composited += ev.composited;
                total.firstHitT = std::min(total.firstHitT, ev.firstHitT);
                trans_product *= ev.transmittance;
            }

            fusion_order_.resize(static_cast<std::size_t>(numExperts()));
            for (int k = 0; k < numExperts(); ++k)
                fusion_order_[static_cast<std::size_t>(k)] = k;
            std::sort(fusion_order_.begin(), fusion_order_.end(),
                      [this, r](int a, int b) {
                          return partial(r, a).firstHitT < partial(r, b).firstHitT;
                      });
            float prefix = 1.0f;
            for (int idx : fusion_order_) {
                const RayEval &p = partial(r, idx);
                batch.weights[r * static_cast<std::size_t>(numExperts()) +
                              static_cast<std::size_t>(idx)] = prefix;
                total.color += p.color * prefix;
                prefix *= p.transmittance;
            }

            // One background term behind the joint transmittance.
            total.color += cfg_.background * trans_product;
            total.transmittance = trans_product;
            out[r] = total;
        }
    }

    /**
     * Jittered eval render: one traceRays batch per image row, row y
     * drawing from Pcg32(seed + y, kRowJitterStream).
     */
    void
    renderView(const Camera &camera, std::uint64_t seed, Image &out) override
    {
        out = Image(camera.width(), camera.height());
        std::vector<Ray> rays(static_cast<std::size_t>(camera.width()));
        std::vector<RayEval> evals(rays.size());
        for (int y = 0; y < camera.height(); ++y) {
            Pcg32 row_rng(seed + static_cast<std::uint64_t>(y), kRowJitterStream);
            for (int x = 0; x < camera.width(); ++x)
                rays[static_cast<std::size_t>(x)] = camera.rayForPixel(x, y);
            traceRays(rays, row_rng, /*record=*/false, evals);
            for (int x = 0; x < camera.width(); ++x)
                out.at(x, y) =
                    clamp(evals[static_cast<std::size_t>(x)].color, 0.0f, 1.0f);
        }
    }

    /**
     * Attach a pool to the MoE and every expert. Forward stays serial
     * over experts (the jitter rng is consumed expert by expert) while
     * each expert shards internally; backward runs expert-major in
     * parallel, each expert accumulating into its own pipeline — so
     * expert gradients stay thread-local by construction.
     */
    void
    setThreadPool(ThreadPool *pool) override
    {
        RadianceField::setThreadPool(pool);
        for (auto &e : experts_)
            e->setThreadPool(pool);
    }

    /**
     * Batched backward: d(total)/d(expert color) = that expert's fusion
     * weight per ray. The weights' own dependence on earlier
     * transmittances is treated as constant (stop-gradient), as is the
     * background product term (MoE experiments composite on black).
     * With a pool attached the experts run in parallel, expert-major:
     * each expert writes only its own pipeline's gradient state and its
     * own dcolor buffer, so no state is shared and the per-expert
     * reductions stay deterministic.
     */
    void
    backwardRays(std::span<const Vec3f> dcolors) override
    {
        const std::size_t n = dcolors.size();
        const std::size_t experts = static_cast<std::size_t>(numExperts());
        if (tape_.weights.size() < n * experts)
            fatal("MoeField::backwardRays without a recorded traceRays batch");

        expert_dcolors_.resize(experts);
        const auto backward_expert = [&](std::size_t k) {
            std::vector<Vec3f> &dc = expert_dcolors_[k];
            dc.resize(n);
            for (std::size_t r = 0; r < n; ++r)
                dc[r] = dcolors[r] * tape_.weights[r * experts + k];
            experts_[k]->backwardRays(dc);
        };
        if (pool_ && experts > 1) {
            pool_->parallelFor(
                0, static_cast<int>(experts),
                [&](int b, int e) {
                    for (int k = b; k < e; ++k)
                        backward_expert(static_cast<std::size_t>(k));
                },
                1);
        } else {
            for (std::size_t k = 0; k < experts; ++k)
                backward_expert(k);
        }
    }

    void
    updateOccupancy(Pcg32 &rng) override
    {
        for (auto &e : experts_)
            e->updateOccupancy(rng);
        applyRegionMasks();
    }

    void
    quantizeWeights() override
    {
        for (auto &e : experts_)
            e->quantizeWeights();
    }

    std::size_t
    paramCount() const override
    {
        std::size_t n = 0;
        for (const auto &e : experts_)
            n += e->paramCount();
        return n;
    }

  protected:
    void
    zeroGradsImpl() override
    {
        // Each expert's public zeroGrads() runs the template method, so
        // expert tapes invalidate alongside the MoE batch tape.
        for (auto &e : experts_)
            e->zeroGrads();
    }

    void
    optimizerStepImpl() override
    {
        for (auto &e : experts_)
            e->optimizerStep();
    }

    void invalidateTapes() override { tape_.weights.clear(); }

  private:
    /** One traced batch: per-expert partials, [expert][ray], and fusion
     *  weights, [ray * numExperts + expert]. */
    struct FusedBatch
    {
        std::vector<std::vector<RayEval>> evals;
        std::vector<float> weights;
    };

    /** The batch of the last traceRays, recorded or not. */
    const FusedBatch &lastBatch() const { return last_recorded_ ? tape_ : scratch_; }

    /** Re-apply the region mask to every expert's occupancy gate. */
    void
    applyRegionMasks()
    {
        for (int k = 0; k < numExperts(); ++k) {
            experts_[static_cast<std::size_t>(k)]->grid().maskRegion(
                [this, k](const Vec3f &p) { return regionOf(p) == k; });
        }
    }

    Config cfg_;
    std::vector<std::unique_ptr<PipelineT>> experts_;
    std::vector<Vec3f> seeds_;
    std::vector<int> fusion_order_;
    std::vector<RayWorkload> expert_workloads_;
    /** The recorded batch backwardRays consumes. */
    FusedBatch tape_;
    /** record=false batches, kept apart from the tape. */
    FusedBatch scratch_;
    bool last_recorded_ = true;
    /** Per-expert dL/d(color) scratch for backwardRays (one buffer per
     *  expert so the expert-major parallel backward shares nothing). */
    std::vector<std::vector<Vec3f>> expert_dcolors_;
};

/** The paper's main MoE: Instant-NGP experts (the multi-chip system). */
using MoeNerf = MoeField<NerfPipeline>;
/** Configuration alias for MoeNerf. */
using MoeConfig = MoeConfigT<NerfPipeline>;

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_MOE_H_
