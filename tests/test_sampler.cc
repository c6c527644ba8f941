/** @file Tests of Stage-I sampling: partitioning, occupancy filtering,
 *  and the workload traces the hardware model replays. */

#include <gtest/gtest.h>

#include "nerf/occupancy_grid.h"
#include "nerf/sampler.h"

namespace fusion3d::nerf
{
namespace
{

Ray
centerRay()
{
    return Ray({0.5f, 0.5f, -1.0f}, {0.0f, 0.0f, 1.0f});
}

TEST(Sampler, MissingRayProducesNothing)
{
    RaySampler sampler;
    Pcg32 rng(1);
    std::vector<RaySample> out;
    const Ray miss({3.0f, 3.0f, -1.0f}, {0.0f, 0.0f, 1.0f});
    EXPECT_EQ(sampler.sample(miss, nullptr, rng, out), 0);
    EXPECT_TRUE(out.empty());
}

TEST(Sampler, UnoccludedRayFillsCube)
{
    SamplerConfig cfg;
    cfg.maxSamplesPerRay = 64;
    cfg.jitter = false;
    RaySampler sampler(cfg);
    Pcg32 rng(2);
    std::vector<RaySample> out;
    const int n = sampler.sample(centerRay(), nullptr, rng, out);
    // Path length through the cube is 1.0; dt = sqrt(3)/64 -> ~36 pts.
    EXPECT_NEAR(n, 37, 3);
    for (const RaySample &s : out) {
        EXPECT_GE(s.pos.z, -1e-4f);
        EXPECT_LE(s.pos.z, 1.0f + 1e-4f);
        EXPECT_NEAR(s.pos.x, 0.5f, 1e-5f);
    }
}

TEST(Sampler, SampleStepIsTheLatticeStep)
{
    SamplerConfig cfg;
    cfg.maxSamplesPerRay = 48;
    RaySampler sampler(cfg);
    Pcg32 rng(4);
    std::vector<RaySample> out;
    ASSERT_GT(sampler.sample(centerRay(), nullptr, rng, out), 0);
    EXPECT_FLOAT_EQ(cfg.latticeStep(), 1.7320508f / 48.0f);
    for (const RaySample &s : out)
        EXPECT_EQ(s.dt, cfg.latticeStep());
}

TEST(Sampler, SamplesAreSortedByT)
{
    RaySampler sampler;
    Pcg32 rng(3);
    std::vector<RaySample> out;
    sampler.sample(Ray({-0.2f, 0.3f, -0.4f}, normalize(Vec3f{0.7f, 0.2f, 0.9f})),
                   nullptr, rng, out);
    for (std::size_t i = 1; i < out.size(); ++i)
        EXPECT_GT(out[i].t, out[i - 1].t);
}

TEST(Sampler, PartitioningDoesNotChangeSamples)
{
    SamplerConfig with;
    with.jitter = false;
    with.partition = true;
    SamplerConfig without = with;
    without.partition = false;

    Pcg32 rng_a(4), rng_b(4);
    std::vector<RaySample> a, b;
    const Ray ray({-0.3f, 0.2f, -0.5f}, normalize(Vec3f{0.8f, 0.3f, 0.9f}));
    RaySampler(with).sample(ray, nullptr, rng_a, a);
    RaySampler(without).sample(ray, nullptr, rng_b, b);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(a[i].t, b[i].t, 1e-4f);
}

TEST(Sampler, OccupancyFilterDropsEmptySpace)
{
    OccupancyGrid grid(16);
    grid.clearAll();
    RaySampler sampler;
    Pcg32 rng(5);
    std::vector<RaySample> out;
    EXPECT_EQ(sampler.sample(centerRay(), &grid, rng, out), 0);

    grid.markAll();
    EXPECT_GT(sampler.sample(centerRay(), &grid, rng, out), 10);
}

TEST(Sampler, OccupancyFilterKeepsOccupiedRegionOnly)
{
    OccupancyGrid grid(16);
    grid.clearAll();
    // Occupy only the far half (z > 0.5) via a region mask trick.
    grid.markAll();
    grid.maskRegion([](const Vec3f &p) { return p.z > 0.5f; });

    SamplerConfig cfg;
    cfg.jitter = false;
    RaySampler sampler(cfg);
    Pcg32 rng(6);
    std::vector<RaySample> out;
    sampler.sample(centerRay(), &grid, rng, out);
    ASSERT_FALSE(out.empty());
    for (const RaySample &s : out)
        EXPECT_GT(s.pos.z, 0.5f - 0.1f);
}

TEST(Sampler, WorkloadCountsConsistent)
{
    OccupancyGrid grid(8);
    grid.markAll();
    grid.maskRegion([](const Vec3f &p) { return p.x > 0.25f; });

    RaySampler sampler;
    Pcg32 rng(7);
    std::vector<RaySample> out;
    RayWorkload wl;
    const Ray ray({-0.5f, 0.4f, 0.45f}, normalize(Vec3f{1.0f, 0.05f, 0.1f}));
    const int n = sampler.sample(ray, &grid, rng, out, &wl);

    EXPECT_EQ(wl.totalValid, n);
    EXPECT_GE(wl.totalCandidates, wl.totalValid);
    int pair_candidates = 0, pair_valid = 0;
    for (const RayCubePair &p : wl.pairs) {
        EXPECT_GE(p.octant, 0);
        EXPECT_LT(p.octant, 8);
        EXPECT_GE(p.candidates, p.valid);
        pair_candidates += p.candidates;
        pair_valid += p.valid;
    }
    EXPECT_EQ(pair_candidates, wl.totalCandidates);
    EXPECT_EQ(pair_valid, wl.totalValid);
}

TEST(Sampler, DiagonalRayVisitsMultipleOctants)
{
    RaySampler sampler;
    Pcg32 rng(8);
    std::vector<RaySample> out;
    RayWorkload wl;
    const Ray diag({-0.2f, -0.2f, -0.2f}, normalize(Vec3f{1.0f, 1.0f, 1.0f}));
    sampler.sample(diag, nullptr, rng, out, &wl);
    // The main diagonal passes through octants 0 and 7 at least.
    EXPECT_GE(wl.pairs.size(), 2u);
}

TEST(Sampler, NormalizedOpsCheaperThanGeneric)
{
    SamplerConfig fast;
    fast.normalized = true;
    SamplerConfig slow;
    slow.normalized = false;

    Pcg32 rng_a(9), rng_b(9);
    std::vector<RaySample> out;
    RayWorkload wl_fast, wl_slow;
    RaySampler(fast).sample(centerRay(), nullptr, rng_a, out, &wl_fast);
    RaySampler(slow).sample(centerRay(), nullptr, rng_b, out, &wl_slow);

    EXPECT_EQ(wl_fast.intersectionOps.divs, 0u);
    EXPECT_GT(wl_slow.intersectionOps.divs, 0u);
    EXPECT_GT(wl_slow.intersectionOps.weightedCost(),
              5 * wl_fast.intersectionOps.weightedCost());
}

TEST(OccupancyGrid, IndexingRoundTrip)
{
    OccupancyGrid grid(8);
    for (std::size_t i = 0; i < grid.cellCount(); i += 17) {
        const Vec3f c = grid.cellCenter(i);
        EXPECT_EQ(grid.cellIndex(c), i);
    }
}

TEST(OccupancyGrid, UpdateFindsDenseRegion)
{
    OccupancyGrid grid(16);
    Pcg32 rng(10);
    const auto density = [](const Vec3f &p) {
        return length(p - Vec3f(0.5f, 0.5f, 0.5f)) < 0.25f ? 10.0f : 0.0f;
    };
    grid.update(density, rng);
    EXPECT_TRUE(grid.occupiedAt({0.5f, 0.5f, 0.5f}));
    EXPECT_FALSE(grid.occupiedAt({0.05f, 0.05f, 0.05f}));
    // Sphere of radius .25 in unit cube: ~6.5% fill.
    EXPECT_NEAR(grid.occupiedFraction(), 0.065, 0.05);
}

TEST(OccupancyGrid, DecayEventuallyClearsStaleCells)
{
    OccupancyGrid grid(8, 0.5f);
    Pcg32 rng(11);
    grid.update([](const Vec3f &) { return 1.0f; }, rng);
    EXPECT_DOUBLE_EQ(grid.occupiedFraction(), 1.0);
    for (int i = 0; i < 20; ++i)
        grid.update([](const Vec3f &) { return 0.0f; }, rng, 0.5f);
    EXPECT_DOUBLE_EQ(grid.occupiedFraction(), 0.0);
}

TEST(OccupancyGrid, MeanCapKeepsALowDensityGridFromEmptying)
{
    // Early training: no estimate reaches the threshold, so the cut
    // falls to the grid mean and the cells above it stay occupied.
    OccupancyGrid grid(8, 0.5f);
    std::vector<float> sigma(grid.cellCount());
    for (std::size_t i = 0; i < sigma.size(); ++i)
        sigma[i] = 0.01f * static_cast<float>(1 + i % 4); // mean 0.025
    grid.applyDensities(sigma, 0.0f);
    for (std::size_t i = 0; i < sigma.size(); ++i)
        EXPECT_EQ(grid.occupiedCell(i), sigma[i] > 0.025f) << i;
    EXPECT_DOUBLE_EQ(grid.occupiedFraction(), 0.5);
}

TEST(OccupancyGrid, BitfieldBytes)
{
    OccupancyGrid grid(32);
    EXPECT_EQ(grid.bitfieldBytes(), 32u * 32u * 32u / 8u);
}

} // namespace
} // namespace fusion3d::nerf
