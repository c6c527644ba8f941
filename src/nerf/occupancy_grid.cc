#include "nerf/occupancy_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace fusion3d::nerf
{

OccupancyGrid::OccupancyGrid(int resolution, float threshold)
    : res_(resolution), threshold_(threshold)
{
    if (resolution < 1)
        fatal("OccupancyGrid resolution must be positive (got %d)", resolution);
    const std::size_t n = static_cast<std::size_t>(res_) * res_ * res_;
    occupied_.assign(n, true); // everything occupied until first update
}

OccupancyGrid
OccupancyGrid::fromPackedBits(int resolution, std::span<const std::uint8_t> packed)
{
    OccupancyGrid grid(resolution);
    if (packed.size() < grid.bitfieldBytes())
        fatal("OccupancyGrid::fromPackedBits: %zu bytes for a %zu-byte bitfield",
              packed.size(), grid.bitfieldBytes());
    for (std::size_t i = 0; i < grid.occupied_.size(); ++i)
        grid.occupied_[i] = (packed[i / 8] >> (i % 8)) & 1u;
    return grid;
}

std::vector<std::uint8_t>
OccupancyGrid::packedBits() const
{
    std::vector<std::uint8_t> packed(bitfieldBytes(), 0);
    for (std::size_t i = 0; i < occupied_.size(); ++i)
        if (occupied_[i])
            packed[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    return packed;
}

std::size_t
OccupancyGrid::cellIndex(const Vec3f &pos) const
{
    const auto clamp_axis = [this](float v) {
        const int i = static_cast<int>(v * static_cast<float>(res_));
        return static_cast<std::size_t>(std::clamp(i, 0, res_ - 1));
    };
    const std::size_t x = clamp_axis(pos.x);
    const std::size_t y = clamp_axis(pos.y);
    const std::size_t z = clamp_axis(pos.z);
    return (z * res_ + y) * res_ + x;
}

Vec3f
OccupancyGrid::cellCenter(std::size_t idx) const
{
    const std::size_t r = static_cast<std::size_t>(res_);
    const std::size_t x = idx % r;
    const std::size_t y = (idx / r) % r;
    const std::size_t z = idx / (r * r);
    const float inv = 1.0f / static_cast<float>(res_);
    return {(static_cast<float>(x) + 0.5f) * inv,
            (static_cast<float>(y) + 0.5f) * inv,
            (static_cast<float>(z) + 0.5f) * inv};
}

void
OccupancyGrid::update(const std::function<float(const Vec3f &)> &density, Pcg32 &rng,
                      float decay)
{
    std::vector<Vec3f> probes;
    collectProbePositions(rng, probes);
    std::vector<float> fresh(probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i)
        fresh[i] = density(probes[i]);
    applyDensities(fresh, decay);
}

void
OccupancyGrid::collectProbePositions(Pcg32 &rng, std::vector<Vec3f> &out) const
{
    out.resize(cellCount());
    const float inv = 1.0f / static_cast<float>(res_);
    for (std::size_t i = 0; i < out.size(); ++i) {
        Vec3f p = cellCenter(i);
        // Jitter within the cell so thin structures are found eventually.
        p.x += (rng.nextFloat() - 0.5f) * inv;
        p.y += (rng.nextFloat() - 0.5f) * inv;
        p.z += (rng.nextFloat() - 0.5f) * inv;
        out[i] = clamp(p, 0.0f, 1.0f);
    }
}

void
OccupancyGrid::applyDensities(std::span<const float> fresh, float decay)
{
    if (fresh.size() != cellCount())
        fatal("OccupancyGrid::applyDensities expects %zu samples (got %zu)",
              cellCount(), fresh.size());
    if (density_.empty())
        density_.assign(cellCount(), 0.0f);
    double sum = 0.0;
    for (std::size_t i = 0; i < density_.size(); ++i) {
        density_[i] = std::max(density_[i] * decay, fresh[i]);
        sum += density_[i];
    }
    // Instant-NGP's cap: a cell above the grid's mean density stays
    // occupied whatever the threshold, so a field that is still below
    // the threshold everywhere (early training) cannot empty the grid.
    const float cut = std::min(threshold_, static_cast<float>(sum / density_.size()));
    for (std::size_t i = 0; i < density_.size(); ++i)
        occupied_[i] = density_[i] > cut;
}

void
OccupancyGrid::markAll()
{
    std::fill(occupied_.begin(), occupied_.end(), true);
}

void
OccupancyGrid::clearAll()
{
    std::fill(occupied_.begin(), occupied_.end(), false);
    std::fill(density_.begin(), density_.end(), 0.0f);
}

void
OccupancyGrid::maskRegion(const std::function<bool(const Vec3f &)> &keep)
{
    for (std::size_t i = 0; i < occupied_.size(); ++i) {
        if (!keep(cellCenter(i))) {
            occupied_[i] = false;
            if (!density_.empty())
                density_[i] = 0.0f;
        }
    }
}

int
OccupancyGrid::traverse(const Ray &ray, float t_min, float t_max,
                        std::vector<Interval> &out, int *steps) const
{
    out.clear();
    if (steps)
        *steps = 0;
    if (t_max <= t_min)
        return 0;

    const float res = static_cast<float>(res_);
    // Start strictly inside the first cell.
    const float eps = 1e-6f;
    float t = t_min + eps;
    Vec3f p = clamp(ray.at(t), 0.0f, 1.0f - 1e-6f);
    int cx = static_cast<int>(p.x * res);
    int cy = static_cast<int>(p.y * res);
    int cz = static_cast<int>(p.z * res);

    const int step_x = ray.dir.x > 0.0f ? 1 : -1;
    const int step_y = ray.dir.y > 0.0f ? 1 : -1;
    const int step_z = ray.dir.z > 0.0f ? 1 : -1;

    // Parametric distance to the next cell boundary per axis.
    const auto next_boundary = [&](int c, int step, float o, float inv) {
        const float edge = (static_cast<float>(c + (step > 0 ? 1 : 0))) / res;
        return (edge - o) * inv;
    };

    bool in_occupied = false;
    float interval_start = 0.0f;

    while (t < t_max) {
        if (steps)
            ++*steps;
        const bool occ =
            occupied_[(static_cast<std::size_t>(cz) * res_ + cy) * res_ + cx];
        if (occ && !in_occupied) {
            in_occupied = true;
            interval_start = std::max(t - eps, t_min);
        }

        // Advance to the next cell along the smallest boundary crossing.
        float tx = std::isinf(ray.invDir.x)
                       ? std::numeric_limits<float>::infinity()
                       : next_boundary(cx, step_x, ray.origin.x, ray.invDir.x);
        float ty = std::isinf(ray.invDir.y)
                       ? std::numeric_limits<float>::infinity()
                       : next_boundary(cy, step_y, ray.origin.y, ray.invDir.y);
        float tz = std::isinf(ray.invDir.z)
                       ? std::numeric_limits<float>::infinity()
                       : next_boundary(cz, step_z, ray.origin.z, ray.invDir.z);

        float t_next;
        if (tx <= ty && tx <= tz) {
            t_next = tx;
            cx += step_x;
        } else if (ty <= tz) {
            t_next = ty;
            cy += step_y;
        } else {
            t_next = tz;
            cz += step_z;
        }
        t_next = std::max(t_next, t + eps); // guard against FP stalls

        if (!occ && in_occupied) {
            in_occupied = false;
            out.push_back({interval_start, std::min(t, t_max)});
        }

        if (cx < 0 || cy < 0 || cz < 0 || cx >= res_ || cy >= res_ || cz >= res_) {
            t = t_next;
            break;
        }
        t = t_next;
    }

    if (in_occupied)
        out.push_back({interval_start, std::min(t, t_max)});
    return static_cast<int>(out.size());
}

double
OccupancyGrid::occupiedFraction() const
{
    std::size_t n = 0;
    for (bool b : occupied_)
        n += b ? 1 : 0;
    return occupied_.empty() ? 0.0
                             : static_cast<double>(n) / static_cast<double>(occupied_.size());
}

} // namespace fusion3d::nerf
