/** @file Test-side scalar oracle of the batched ray path. One ray at a
 *  time through the pipeline's own public pieces — RaySampler over
 *  pipe.config().sampler and pipe.grid(), the model's scalar
 *  forwardPoint/backwardPoint, and composite/compositeBackward — so it
 *  shares no code with RayBatchEvaluator or the shard engine. The
 *  bit-exactness tests compare traceRays/backwardRays and the tiled
 *  renderer's depth frames against it. */

#ifndef FUSION3D_TESTS_RAY_ORACLE_H_
#define FUSION3D_TESTS_RAY_ORACLE_H_

#include <cmath>
#include <span>
#include <vector>

#include "common/ray.h"
#include "common/rng.h"
#include "nerf/nerf_model.h"
#include "nerf/radiance_field.h"
#include "nerf/renderer.h"
#include "nerf/sampler.h"

namespace fusion3d::nerf::oracle
{

/** One ray's scalar evaluation: its samples, their model outputs and
 *  the composite, everything oracleBackwardRay replays. */
struct TracedRay
{
    std::vector<RaySample> samples;
    std::vector<float> sigmas;
    std::vector<Vec3f> rgbs;
    std::vector<float> dts;
    Vec3f dir;
    CompositeResult composite;
    RayEval eval;
};

/** Sample @p ray through @p pipe's gate (drawing jitter from @p rng
 *  exactly as traceRays does for this ray) and evaluate every sample
 *  with the model's scalar forwardPoint. */
template <class PipelineT>
TracedRay
oracleForward(PipelineT &pipe, const Ray &ray, Pcg32 &rng,
              RayWorkload *workload = nullptr)
{
    TracedRay tr;
    const RaySampler sampler(pipe.config().sampler);
    sampler.sample(ray, &pipe.grid(), rng, tr.samples, workload);

    const std::size_t n = tr.samples.size();
    tr.sigmas.resize(n);
    tr.rgbs.resize(n);
    tr.dts.resize(n);
    tr.dir = normalize(ray.dir);
    for (std::size_t i = 0; i < n; ++i) {
        const PointEval pe = pipe.model().forwardPoint(tr.samples[i].pos, tr.dir);
        tr.sigmas[i] = pe.sigma;
        tr.rgbs[i] = pe.rgb;
        tr.dts[i] = tr.samples[i].dt;
    }

    tr.composite = composite(tr.sigmas, tr.rgbs, tr.dts, pipe.config().render);
    tr.eval.color = tr.composite.color;
    tr.eval.transmittance = tr.composite.transmittance;
    tr.eval.composited = tr.composite.used;
    tr.eval.samples = static_cast<int>(n);
    tr.eval.candidates = workload ? workload->totalCandidates : tr.eval.samples;
    if (n > 0)
        tr.eval.firstHitT = tr.samples.front().t;
    return tr;
}

/** The scalar reference of a depth-frame pixel: sum_i w_i * t_i +
 *  T * t_far over @p tr's samples, stopping where composite's early
 *  termination stops. */
inline float
oracleDepth(const TracedRay &tr, const RenderParams &params, float t_far)
{
    float depth = 0.0f;
    float trans = 1.0f;
    for (std::size_t i = 0; i < tr.samples.size(); ++i) {
        const float alpha = 1.0f - std::exp(-tr.sigmas[i] * tr.dts[i]);
        depth += trans * alpha * tr.samples[i].t;
        trans *= 1.0f - alpha;
        if (trans < params.terminationThreshold)
            break;
    }
    return depth + trans * t_far;
}

/** The scalar reference of traceRays for one ray. */
template <class PipelineT>
RayEval
oracleTraceRay(PipelineT &pipe, const Ray &ray, Pcg32 &rng,
               RayWorkload *workload = nullptr)
{
    return oracleForward(pipe, ray, rng, workload).eval;
}

/** The scalar reference of a one-ray traceRays(record) + backwardRays:
 *  trace @p ray, then accumulate dL/d(color) = @p dcolor into the
 *  model's gradients through compositeBackward and backwardPoint. */
template <class PipelineT>
RayEval
oracleBackwardRay(PipelineT &pipe, const Ray &ray, Pcg32 &rng, const Vec3f &dcolor)
{
    const TracedRay tr = oracleForward(pipe, ray, rng);
    std::vector<float> dsigmas(tr.sigmas.size());
    std::vector<Vec3f> drgbs(tr.rgbs.size());
    CompositeBackwardScratch scratch;
    compositeBackward(tr.sigmas, tr.rgbs, tr.dts, pipe.config().render, tr.composite,
                      dcolor, dsigmas, drgbs, scratch);
    for (std::size_t i = 0; i < static_cast<std::size_t>(tr.composite.used); ++i)
        pipe.model().backwardPoint(tr.samples[i].pos, tr.dir, dsigmas[i], drgbs[i]);
    return tr.eval;
}

/** A serial batched model backward: one gradient arena, then the
 *  model's merge — what the pipeline's shard engine does with one
 *  shard. */
template <class ModelT>
void
backwardPointBatch(ModelT &model, std::span<const Vec3f> pos,
                   std::span<const Vec3f> dirs, std::span<const float> dsigmas,
                   std::span<const Vec3f> drgbs, typename ModelT::BatchWorkspace &ws)
{
    typename ModelT::GradArena arena;
    model.backwardPointBatchInto(pos, dirs, dsigmas, drgbs, ws, arena);
    model.mergeGradients({&arena, 1});
}

} // namespace fusion3d::nerf::oracle

#endif // FUSION3D_TESTS_RAY_ORACLE_H_
