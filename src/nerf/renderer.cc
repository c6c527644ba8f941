#include "nerf/renderer.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"

namespace fusion3d::nerf
{

CompositeResult
composite(std::span<const float> sigmas, std::span<const Vec3f> rgbs,
          std::span<const float> dts, const RenderParams &params,
          std::span<const float> ts, std::optional<float> t_far)
{
    if (sigmas.size() != rgbs.size() || sigmas.size() != dts.size() ||
        (t_far && sigmas.size() != ts.size()))
        panic("composite: span length mismatch");

    CompositeResult r;
    r.color = Vec3f(0.0f);
    float trans = 1.0f;
    float depth = 0.0f;
    int used = 0;
    for (std::size_t i = 0; i < sigmas.size(); ++i) {
        const float alpha = 1.0f - std::exp(-sigmas[i] * dts[i]);
        const float w = trans * alpha;
        r.color += rgbs[i] * w;
        if (t_far)
            depth += w * ts[i];
        trans *= 1.0f - alpha;
        ++used;
        if (trans < params.terminationThreshold)
            break;
    }
    r.color += params.background * trans;
    r.transmittance = trans;
    r.used = used;
    if (t_far)
        r.depth = depth + trans * *t_far;
    return r;
}

void
compositeBackward(std::span<const float> sigmas, std::span<const Vec3f> rgbs,
                  std::span<const float> dts, const RenderParams &params,
                  const CompositeResult &fwd, const Vec3f &dcolor,
                  std::span<float> dsigmas, std::span<Vec3f> drgbs,
                  CompositeBackwardScratch &scratch)
{
    if (sigmas.size() != rgbs.size() || sigmas.size() != dts.size())
        panic("compositeBackward: span length mismatch");
    if (dsigmas.size() < sigmas.size() || drgbs.size() < rgbs.size())
        panic("compositeBackward: gradient spans too small");

    const int n = fwd.used;
    std::fill(dsigmas.begin(), dsigmas.end(), 0.0f);
    std::fill(drgbs.begin(), drgbs.end(), Vec3f(0.0f));

    // Recompute the forward prefix quantities (cheap, avoids caching).
    // trans_before[i] = T_i; after the loop trans == T_end.
    float trans = 1.0f;
    // Store T_{i+1} = T_i * (1 - alpha_i) per sample for the sweep below.
    if (scratch.t_after.size() < static_cast<std::size_t>(n)) {
        scratch.t_after.resize(static_cast<std::size_t>(n));
        scratch.weight.resize(static_cast<std::size_t>(n));
    }
    std::span<float> t_after{scratch.t_after.data(), static_cast<std::size_t>(n)};
    std::span<float> weight{scratch.weight.data(), static_cast<std::size_t>(n)};
    for (int i = 0; i < n; ++i) {
        const float alpha = 1.0f - std::exp(-sigmas[i] * dts[i]);
        weight[i] = trans * alpha;
        trans *= 1.0f - alpha;
        t_after[i] = trans;
    }

    // suffix = sum_{j>i} w_j c_j + T_end * background, built back-to-front.
    Vec3f suffix = params.background * trans;
    for (int i = n - 1; i >= 0; --i) {
        drgbs[i] = dcolor * weight[i];
        // dL/dsigma_i = dt_i * <dcolor, T_{i+1} c_i - suffix_{>i}>.
        const Vec3f dalpha_term = rgbs[i] * t_after[i] - suffix;
        dsigmas[i] = dts[i] * dot(dcolor, dalpha_term);
        suffix += rgbs[i] * weight[i];
    }
}

} // namespace fusion3d::nerf
