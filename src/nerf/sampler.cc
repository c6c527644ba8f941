#include "nerf/sampler.h"

#include <algorithm>
#include <cmath>

namespace fusion3d::nerf
{

int
RaySampler::sample(const Ray &ray, const OccupancyGrid *grid, Pcg32 &rng,
                   std::vector<RaySample> &out, RayWorkload *workload) const
{
    out.clear();
    if (workload) {
        workload->pairs.clear();
        workload->totalCandidates = 0;
        workload->totalValid = 0;
        workload->ddaSteps = 0;
        workload->intersectionOps.reset();
    }

    OpCounter *ops = workload ? &workload->intersectionOps : nullptr;

    // Whole-cube span first; rays that miss the model produce no work.
    std::optional<RaySpan> span;
    if (cfg_.normalized) {
        span = Aabb::intersectUnitCube(ray, ops);
    } else {
        span = Aabb::unitCube().intersectGeneric(ray, ops);
    }
    if (!span || span->t1 <= std::max(span->t0, 0.0f))
        return 0;

    const float dt = cfg_.latticeStep();
    const float jitter = cfg_.jitter ? rng.nextFloat() : 0.5f;

    // DDA skip mode: pre-compute the occupied intervals so empty space
    // never reaches the marching loop.
    std::vector<OccupancyGrid::Interval> dda_intervals;
    const bool use_dda = cfg_.ddaSkip && grid != nullptr;
    if (use_dda) {
        int steps = 0;
        grid->traverse(ray, std::max(span->t0, 0.0f), span->t1, dda_intervals,
                       &steps);
        if (workload)
            workload->ddaSteps = steps;
    }
    // The march visits t in non-decreasing order (octant spans are
    // disjoint and sorted by entry t), so a cursor into the sorted
    // interval list replaces the front-to-back rescan per sample.
    std::size_t dda_cursor = 0;
    const auto in_dda = [&dda_intervals, &dda_cursor](float t) {
        while (dda_cursor < dda_intervals.size() &&
               t > dda_intervals[dda_cursor].t1)
            ++dda_cursor;
        return dda_cursor < dda_intervals.size() &&
               t >= dda_intervals[dda_cursor].t0;
    };

    // Sampling spans, one per valid ray-cube pair when partitioning.
    struct OctSpan
    {
        int octant;
        float t0, t1;
    };
    OctSpan spans[8];
    int span_count = 0;

    if (cfg_.partition) {
        for (int oct = 0; oct < 8; ++oct) {
            std::optional<RaySpan> s;
            if (cfg_.normalized) {
                s = Aabb::intersectOctant(ray, oct, ops);
            } else {
                const Vec3f lo{(oct & 1) ? 0.5f : 0.0f, (oct & 2) ? 0.5f : 0.0f,
                               (oct & 4) ? 0.5f : 0.0f};
                const Aabb box(lo, lo + Vec3f(0.5f));
                s = box.intersectGeneric(ray, ops);
            }
            if (s && s->t1 > std::max(s->t0, 0.0f))
                spans[span_count++] = {oct, std::max(s->t0, 0.0f), s->t1};
        }
        // The ray visits octants in increasing entry order. Insertion
        // sort: at most eight entries, and it sidesteps a GCC
        // -Warray-bounds false positive with std::sort on fixed arrays.
        for (int i = 1; i < span_count; ++i) {
            const OctSpan key = spans[i];
            int j = i - 1;
            while (j >= 0 && spans[j].t0 > key.t0) {
                spans[j + 1] = spans[j];
                --j;
            }
            spans[j + 1] = key;
        }
    } else {
        spans[span_count++] = {0, std::max(span->t0, 0.0f), span->t1};
    }

    for (int s = 0; s < span_count; ++s) {
        const OctSpan &os = spans[s];
        RayCubePair pair;
        pair.octant = os.octant;

        // March on the global step lattice so partitioning does not
        // change the sample positions, only who produces them.
        const float first_k = std::ceil((os.t0 - jitter * dt) / dt - 1e-6f);
        for (float k = std::max(first_k, 0.0f);; k += 1.0f) {
            const float t = (k + jitter) * dt;
            if (t >= os.t1)
                break;
            if (t < os.t0)
                continue;
            const Vec3f p = ray.at(t);
            if (cfg_.partition) {
                // Octant spans share boundary faces; assign each lattice
                // point to exactly one owner so rays on octant faces are
                // not sampled by several cores.
                const int owner = (p.x >= 0.5f ? 1 : 0) | (p.y >= 0.5f ? 2 : 0) |
                                  (p.z >= 0.5f ? 4 : 0);
                if (owner != os.octant)
                    continue;
            }
            if (use_dda && !in_dda(t))
                continue; // skipped wholesale by the DDA walk
            ++pair.candidates;
            if (!grid || grid->occupiedAt(clamp(p, 0.0f, 1.0f))) {
                ++pair.valid;
                out.push_back({p, t, dt});
            }
        }

        if (workload && pair.candidates > 0) {
            workload->pairs.push_back(pair);
            workload->totalCandidates += pair.candidates;
            workload->totalValid += pair.valid;
        }
    }

    return static_cast<int>(out.size());
}

} // namespace fusion3d::nerf
