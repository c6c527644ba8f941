/**
 * @file
 * Tests of parallel training (DESIGN.md §8): sharded forward/backward
 * across the ThreadPool with deterministic gradient reduction. The
 * contract under test: a given seed reproduces bit-identical weights at
 * ANY pool size, or with no pool, because the shard partition and the
 * reduction order depend only on the batch — never on thread count or
 * scheduling. The chaos test runs checkpoint faults
 * under parallel training and is part of the TSan CI job.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "nerf/freq_nerf.h"
#include "nerf/moe.h"
#include "nerf/pipeline.h"
#include "nerf/tensorf.h"
#include "nerf/trainer.h"
#include "scenes/dataset_gen.h"
#include "scenes/factory.h"

namespace fusion3d::nerf
{
namespace
{

PipelineConfig
tinyPipeline()
{
    PipelineConfig pc;
    pc.model.grid.levels = 4;
    pc.model.grid.log2TableSize = 10;
    pc.model.grid.baseResolution = 4;
    pc.model.grid.maxResolution = 32;
    pc.model.densityHidden = 16;
    pc.model.colorHidden = 16;
    pc.model.geoFeatures = 7;
    pc.model.shDegree = 2;
    pc.sampler.maxSamplesPerRay = 16;
    pc.occupancyResolution = 12;
    return pc;
}

Dataset
tinyDataset()
{
    const auto scene = scenes::makeSyntheticScene("mic");
    scenes::DatasetConfig dc = scenes::syntheticRig(12);
    dc.trainViews = 4;
    dc.testViews = 1;
    dc.reference.steps = 48;
    return scenes::makeDataset(*scene, dc);
}

std::vector<float>
allParams(NerfPipeline &pipe)
{
    std::vector<float> out;
    const auto append = [&out](std::span<const float> s) {
        out.insert(out.end(), s.begin(), s.end());
    };
    append(pipe.model().encoding().params());
    append(pipe.model().densityNet().params());
    append(pipe.model().colorNet().params());
    return out;
}

struct TrainOutcome
{
    std::vector<float> params;
    double psnr = 0.0;
};

/** Train the tiny scene with @p pool; raysPerBatch is large enough that
 *  every iteration splits into multiple shards. */
TrainOutcome
trainWithPool(ThreadPool *pool, int evalEvery = 0)
{
    const Dataset data = tinyDataset();
    NerfPipeline pipe(tinyPipeline());
    TrainerConfig tc;
    tc.iterations = 12;
    tc.raysPerBatch = 64;
    tc.occupancyWarmup = 4;
    tc.occupancyUpdateEvery = 4;
    tc.evalEvery = evalEvery;
    tc.pool = pool;
    Trainer trainer(pipe, data, tc);
    TrainOutcome o;
    o.psnr = trainer.run().finalPsnr;
    o.params = allParams(pipe);
    return o;
}

TEST(ParallelTrain, SameSeedIdenticalWeightsAcrossPoolSizes)
{
    // Reference at one worker, compared against 2 and 7 workers, a
    // zero-thread pool (parallelFor runs inline on the caller), and no
    // pool at all (the shard loop runs inline). All must agree bitwise.
    // Without a pool the Trainer evaluates through its jittered row
    // loop instead of the tiled render, so PSNR is compared only
    // between pools.
    ThreadPool pool1(1);
    const TrainOutcome ref = trainWithPool(&pool1);
    ASSERT_FALSE(ref.params.empty());

    for (const int workers : {2, 7, 0, -1}) {
        std::unique_ptr<ThreadPool> pool;
        if (workers >= 0)
            pool = std::make_unique<ThreadPool>(workers);
        const TrainOutcome got = trainWithPool(pool.get());
        ASSERT_EQ(got.params.size(), ref.params.size());
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < ref.params.size(); ++i)
            if (got.params[i] != ref.params[i])
                ++mismatches;
        EXPECT_EQ(mismatches, 0u) << "at " << workers << " workers";
        if (pool) {
            EXPECT_EQ(got.psnr, ref.psnr) << "at " << workers << " workers";
        }
    }
}

TEST(ParallelTrain, InterleavedEvalDoesNotPerturbWeights)
{
    // Mid-training evals render through different paths (legacy row
    // loop vs tiled) depending on whether a pool is configured, and
    // neither may draw from the training RNG stream: interleaving
    // evals must leave the trained weights bitwise unchanged on both
    // paths.
    const TrainOutcome plain = trainWithPool(nullptr);
    const TrainOutcome serial_eval = trainWithPool(nullptr, /*evalEvery=*/4);
    ASSERT_EQ(serial_eval.params.size(), plain.params.size());
    for (std::size_t i = 0; i < plain.params.size(); ++i)
        ASSERT_EQ(serial_eval.params[i], plain.params[i]) << "at param " << i;

    ThreadPool pool(3);
    const TrainOutcome pooled = trainWithPool(&pool);
    const TrainOutcome pooled_eval = trainWithPool(&pool, /*evalEvery=*/4);
    ASSERT_EQ(pooled_eval.params.size(), pooled.params.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < pooled.params.size(); ++i)
        if (pooled_eval.params[i] != pooled.params[i])
            ++mismatches;
    EXPECT_EQ(mismatches, 0u);
}

TEST(ParallelTrain, PoolForwardBitExactVsSerial)
{
    // Sharded forward is bit-exact with the serial no-pool path (the
    // batched GEMM is batch-size invariant per sample; compositing is
    // per-ray independent).
    NerfPipeline serial(tinyPipeline());
    NerfPipeline pooled(tinyPipeline());
    ThreadPool pool(3);
    pooled.setThreadPool(&pool);

    const Camera cam =
        Camera::orbit({0.5f, 0.5f, 0.5f}, 1.2f, 30.0f, 15.0f, 45.0f, 16, 12);
    std::vector<Ray> rays;
    for (int y = 0; y < cam.height(); ++y)
        for (int x = 0; x < cam.width(); ++x)
            rays.push_back(cam.rayForPixel(x, y));

    Pcg32 rng_a(5, 1), rng_b(5, 1);
    std::vector<RayEval> ev_a(rays.size()), ev_b(rays.size());
    serial.traceRays(rays, rng_a, /*record=*/false, ev_a);
    pooled.traceRays(rays, rng_b, /*record=*/false, ev_b);
    for (std::size_t r = 0; r < rays.size(); ++r) {
        EXPECT_EQ(ev_a[r].color.x, ev_b[r].color.x);
        EXPECT_EQ(ev_a[r].color.y, ev_b[r].color.y);
        EXPECT_EQ(ev_a[r].color.z, ev_b[r].color.z);
        EXPECT_EQ(ev_a[r].transmittance, ev_b[r].transmittance);
        EXPECT_EQ(ev_a[r].samples, ev_b[r].samples);
    }
}

TEST(ParallelTrain, OccupancyUpdateMatchesSerial)
{
    // The split update (serial jitter collection + sharded batched
    // density eval) must reproduce the serial grid update exactly and
    // consume the identical rng stream.
    NerfPipeline serial(tinyPipeline());
    NerfPipeline pooled(tinyPipeline());
    ThreadPool pool(3);
    pooled.setThreadPool(&pool);

    Pcg32 rng_a(7, 3), rng_b(7, 3);
    serial.updateOccupancy(rng_a);
    pooled.updateOccupancy(rng_b);

    ASSERT_EQ(serial.grid().cellCount(), pooled.grid().cellCount());
    for (std::size_t i = 0; i < serial.grid().cellCount(); ++i)
        ASSERT_EQ(serial.grid().occupiedCell(i), pooled.grid().occupiedCell(i));
    // Identical draw counts leave the streams in the same state.
    EXPECT_EQ(rng_a.nextUint(), rng_b.nextUint());
}

TEST(ParallelTrain, AdamPoolStepBitExact)
{
    // Big enough to exceed the parallel threshold (16384 params).
    const std::size_t n = 50000;
    std::vector<float> params_a(n), params_b(n), grads(n);
    Pcg32 rng(21, 2);
    for (std::size_t i = 0; i < n; ++i) {
        params_a[i] = rng.nextRange(-1.0f, 1.0f);
        grads[i] = rng.nextRange(-0.1f, 0.1f);
    }
    params_b = params_a;

    AdamConfig cfg;
    Adam serial(n, cfg), pooled(n, cfg);
    ThreadPool pool(4);
    for (int step = 0; step < 3; ++step) {
        serial.step(params_a, grads);
        pooled.step(params_b, grads, &pool);
    }
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(params_a[i], params_b[i]);
}

/** Pool-size determinism of the other backends: the shard partition
 *  and shard-ascending gradient merge depend only on the batch, so
 *  FreqNeRF and TensoRF training reproduces bit-identical weights at
 *  any pool size, or with none — the contract the hash-grid pipeline
 *  meets above. */
template <class PipelineT, class CollectFn>
void
expectPointTrainingPoolInvariant(const typename PipelineT::Config &cfg,
                                 CollectFn &&collect)
{
    const auto train = [&](ThreadPool *pool) {
        const Dataset data = tinyDataset();
        PipelineT pipe(cfg);
        TrainerConfig tc;
        tc.iterations = 8;
        tc.raysPerBatch = 64;
        tc.occupancyWarmup = 4;
        tc.occupancyUpdateEvery = 4;
        tc.pool = pool;
        Trainer trainer(pipe, data, tc);
        trainer.run();
        return collect(pipe.model());
    };

    ThreadPool pool1(1);
    const std::vector<float> ref = train(&pool1);
    ASSERT_FALSE(ref.empty());
    for (const int workers : {3, 0, -1}) { // -1: no pool
        std::unique_ptr<ThreadPool> pool;
        if (workers >= 0)
            pool = std::make_unique<ThreadPool>(workers);
        const std::vector<float> got = train(pool.get());
        ASSERT_EQ(got.size(), ref.size());
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < ref.size(); ++i)
            if (got[i] != ref[i])
                ++mismatches;
        EXPECT_EQ(mismatches, 0u) << "at " << workers << " workers";
    }
}

TEST(ParallelTrain, FreqDeterministicAcrossPoolSizes)
{
    FreqPipelineConfig fc;
    fc.model.posFrequencies = 4;
    fc.model.hidden = 24;
    fc.model.trunkLayers = 2;
    fc.model.geoFeatures = 7;
    fc.model.colorHidden = 16;
    fc.lrFactors = 2e-3f;
    fc.sampler.maxSamplesPerRay = 16;
    fc.occupancyResolution = 12;
    expectPointTrainingPoolInvariant<FreqPipeline>(
        fc, [](const FreqNerfModel &m) {
            std::vector<float> out(m.trunk().params().begin(),
                                   m.trunk().params().end());
            out.insert(out.end(), m.colorNet().params().begin(),
                       m.colorNet().params().end());
            return out;
        });
}

TEST(ParallelTrain, TensorfDeterministicAcrossPoolSizes)
{
    TensorfPipelineConfig tc;
    tc.model.densityRank = 6;
    tc.model.appearanceRank = 8;
    tc.model.lineResolution = 48;
    tc.model.appearanceDim = 8;
    tc.model.colorHidden = 16;
    tc.sampler.maxSamplesPerRay = 16;
    tc.occupancyResolution = 12;
    expectPointTrainingPoolInvariant<TensorfPipeline>(
        tc, [](const TensorfModel &m) {
            std::vector<float> out(m.factorParams().begin(),
                                   m.factorParams().end());
            out.insert(out.end(), m.colorNet().params().begin(),
                       m.colorNet().params().end());
            return out;
        });
}

TEST(ParallelTrain, MoeDeterministicAcrossPoolSizes)
{
    // Expert-major parallel backward: each expert's gradients stay
    // thread-local in its own pipeline, so MoE training reproduces the
    // same weights at any pool size too.
    const auto train_moe = [](ThreadPool *pool) {
        const Dataset data = tinyDataset();
        MoeConfig mc;
        mc.numExperts = 2;
        mc.expert = tinyPipeline();
        MoeNerf moe(mc);
        TrainerConfig tc;
        tc.iterations = 6;
        tc.raysPerBatch = 48;
        tc.pool = pool;
        Trainer trainer(moe, data, tc);
        trainer.run();
        std::vector<float> params;
        for (int k = 0; k < moe.numExperts(); ++k) {
            const std::vector<float> p = allParams(moe.expert(k));
            params.insert(params.end(), p.begin(), p.end());
        }
        return params;
    };

    ThreadPool pool2(2), pool7(7);
    const std::vector<float> a = train_moe(&pool2);
    for (ThreadPool *pool : {&pool7, static_cast<ThreadPool *>(nullptr)}) {
        const std::vector<float> b = train_moe(pool);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(a[i], b[i]) << (pool ? "pool of 7" : "no pool");
    }
}

/** Chaos run: checkpoint faults firing under parallel training. */
class ParallelTrainChaos : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

TEST_F(ParallelTrainChaos, CheckpointFaultsUnderParallelTraining)
{
    ASSERT_TRUE(FaultInjector::instance().configureFromSpec(
        "trainer.ckpt.write=every2;seed=9"));

    const Dataset data = tinyDataset();
    NerfPipeline pipe(tinyPipeline());
    ThreadPool pool(4);
    TrainerConfig tc;
    tc.iterations = 10;
    tc.raysPerBatch = 48;
    tc.checkpointEvery = 2;
    tc.checkpointPath = "parallel_chaos_ckpt.f3dm";
    tc.pool = &pool;
    Trainer trainer(pipe, data, tc);
    trainer.setCheckpointModel(&pipe.model());
    const TrainResult r = trainer.run();

    // 5 checkpoint attempts; every2 fails the 2nd and 4th. Training
    // survives every failure and the counters account for all attempts.
    EXPECT_EQ(trainer.checkpointsWritten() + trainer.checkpointsFailed(), 5u);
    EXPECT_EQ(trainer.checkpointsFailed(), 2u);
    EXPECT_EQ(r.iterationsRun, 10);
    EXPECT_TRUE(std::isfinite(r.finalPsnr));
}

} // namespace
} // namespace fusion3d::nerf
