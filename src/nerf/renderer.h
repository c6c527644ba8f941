/**
 * @file
 * Stage III volumetric rendering: alpha compositing of per-sample
 * densities and colors along a ray, with the exact backward pass needed
 * for training. Early termination at low transmittance matches what the
 * post-processing hardware module does.
 */

#ifndef FUSION3D_NERF_RENDERER_H_
#define FUSION3D_NERF_RENDERER_H_

#include <optional>
#include <span>
#include <vector>

#include "common/vec.h"

namespace fusion3d::nerf
{

/** Compositing parameters. */
struct RenderParams
{
    /** Stop integrating once transmittance falls below this. */
    float terminationThreshold = 1e-4f;
    /** Background color added behind the remaining transmittance. */
    Vec3f background{0.0f, 0.0f, 0.0f};
};

/** Result of compositing one ray. */
struct CompositeResult
{
    Vec3f color;
    /** Transmittance remaining after the last used sample. */
    float transmittance = 1.0f;
    /** Samples actually consumed before early termination. */
    int used = 0;
    /** Expected termination depth (see composite); 0 unless asked for. */
    float depth = 0.0f;
};

/**
 * Forward compositing:
 *   alpha_i = 1 - exp(-sigma_i * dt_i)
 *   T_i     = prod_{j<i} (1 - alpha_j)
 *   C       = sum_i T_i * alpha_i * c_i + T_end * background
 *   depth   = sum_i T_i * alpha_i * t_i + T_end * t_far
 * The depth sum (the image-warp extension's reprojection depth) runs
 * only when @p t_far is set; @p ts then holds each sample's t.
 */
CompositeResult composite(std::span<const float> sigmas, std::span<const Vec3f> rgbs,
                          std::span<const float> dts, const RenderParams &params,
                          std::span<const float> ts = {},
                          std::optional<float> t_far = std::nullopt);

/**
 * Reusable scratch for compositeBackward(); keeps the per-ray prefix
 * buffers out of the allocator on hot training paths. Grows to the
 * longest ray seen and never shrinks.
 */
struct CompositeBackwardScratch
{
    std::vector<float> t_after;
    std::vector<float> weight;
};

/**
 * Backward pass of composite(). Only the first @p fwd.used samples
 * receive gradients; later samples were never used.
 *
 * @param fwd     Result of the matching forward call.
 * @param dcolor  dL/dC.
 * @param dsigmas Receives dL/dsigma_i (first fwd.used entries written,
 *                the rest zeroed).
 * @param drgbs   Receives dL/dc_i, same convention.
 * @param scratch Caller-owned scratch reused across rays.
 */
void compositeBackward(std::span<const float> sigmas, std::span<const Vec3f> rgbs,
                       std::span<const float> dts, const RenderParams &params,
                       const CompositeResult &fwd, const Vec3f &dcolor,
                       std::span<float> dsigmas, std::span<Vec3f> drgbs,
                       CompositeBackwardScratch &scratch);

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_RENDERER_H_
