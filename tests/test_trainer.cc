/** @file Tests of the training loop's bookkeeping and scheduling hooks. */

#include <gtest/gtest.h>

#include "nerf/freq_nerf.h"
#include "nerf/pipeline.h"
#include "nerf/serialize.h"
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

TEST(Trainer, CountsRaysAndIterations)
{
    const Dataset data = tinyDataset();
    NerfPipeline pipe(tinyPipeline());
    TrainerConfig tc;
    tc.iterations = 9;
    tc.raysPerBatch = 13;
    Trainer trainer(pipe, data, tc);
    const TrainResult r = trainer.run();
    EXPECT_EQ(r.iterationsRun, 9);
    EXPECT_EQ(r.totalRays, 9u * 13u);
    EXPECT_EQ(trainer.iteration(), 9);
    EXPECT_GE(r.totalCandidates, r.totalSamples);
}

TEST(Trainer, EvalHistorySchedule)
{
    const Dataset data = tinyDataset();
    NerfPipeline pipe(tinyPipeline());
    TrainerConfig tc;
    tc.iterations = 30;
    tc.raysPerBatch = 8;
    tc.evalEvery = 10;
    Trainer trainer(pipe, data, tc);
    const TrainResult r = trainer.run();
    // Evaluations at 10, 20, 30 plus the final entry.
    ASSERT_EQ(r.history.size(), 4u);
    EXPECT_EQ(r.history[0].first, 10);
    EXPECT_EQ(r.history[1].first, 20);
    EXPECT_EQ(r.history[2].first, 30);
    EXPECT_EQ(r.history[3].first, 30);
}

TEST(Trainer, ItersTo25NeverWhenUntrained)
{
    const Dataset data = tinyDataset();
    NerfPipeline pipe(tinyPipeline());
    TrainerConfig tc;
    tc.iterations = 2;
    tc.raysPerBatch = 4;
    Trainer trainer(pipe, data, tc);
    const TrainResult r = trainer.run();
    // Two iterations of a tiny model will not reach 25 dB on mic.
    EXPECT_EQ(r.itersTo25Psnr, -1);
}

TEST(Trainer, RenderViewDimensions)
{
    const Dataset data = tinyDataset();
    NerfPipeline pipe(tinyPipeline());
    Trainer trainer(pipe, data, TrainerConfig{});
    const Camera cam = Camera::orbit({0.5f, 0.5f, 0.5f}, 1.2f, 10.0f, 10.0f, 45.0f,
                                     7, 5);
    const Image img = trainer.renderView(cam);
    EXPECT_EQ(img.width(), 7);
    EXPECT_EQ(img.height(), 5);
    for (const Vec3f &p : img.pixels()) {
        EXPECT_GE(minComp(p), 0.0f);
        EXPECT_LE(maxComp(p), 1.0f);
    }
}

TEST(Trainer, QuantizeHookChangesParams)
{
    const Dataset data = tinyDataset();
    NerfPipeline pipe(tinyPipeline());

    // Train a few steps so weights leave their tiny init.
    TrainerConfig warm;
    warm.iterations = 10;
    warm.raysPerBatch = 16;
    Trainer(pipe, data, warm).run();

    const std::vector<float> before(pipe.model().densityNet().params().begin(),
                                    pipe.model().densityNet().params().end());
    pipe.quantizeWeights();
    int changed = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
        if (pipe.model().densityNet().params()[i] != before[i])
            ++changed;
    }
    EXPECT_GT(changed, 0);
}

TEST(Trainer, LossDecreasesOverTraining)
{
    const Dataset data = tinyDataset();
    NerfPipeline pipe(tinyPipeline());
    TrainerConfig tc;
    tc.iterations = 60;
    tc.raysPerBatch = 48;
    Trainer trainer(pipe, data, tc);
    const double before = trainer.evalPsnr();
    trainer.run();
    EXPECT_GT(trainer.evalPsnr(), before);
}

TEST(Trainer, EmptyDatasetIsFatal)
{
    NerfPipeline pipe(tinyPipeline());
    const Dataset empty;
    EXPECT_DEATH({ Trainer t(pipe, empty, TrainerConfig{}); }, "no training views");
}

/** Train @p pipe for 4 iterations with a checkpoint every 2, then
 *  reload the artifact and check it is @p pipe's model. */
template <class PipelineT>
void
expectCheckpointsReload(PipelineT &pipe, BackendKind kind)
{
    const Dataset data = tinyDataset();
    TrainerConfig tc;
    tc.iterations = 4;
    tc.raysPerBatch = 4;
    tc.checkpointEvery = 2;
    tc.checkpointPath = testing::TempDir() + "trainer_ckpt_" +
                        backendKindName(kind) + ".f3dm";
    Trainer trainer(pipe, data, tc);
    trainer.setCheckpointModel(&pipe.model());
    trainer.run();

    // Checkpoints at iterations 2 and 4, all atomic-renamed into place.
    EXPECT_EQ(trainer.checkpointsWritten(), 2u);
    EXPECT_EQ(trainer.checkpointsFailed(), 0u);
    const LoadResult r = loadFieldVerbose(tc.checkpointPath);
    ASSERT_EQ(r.status, LoadStatus::ok) << r.message;
    EXPECT_EQ(r.field->kind(), kind);
    EXPECT_EQ(r.field->paramCount(), pipe.model().paramCount());
}

TEST(Trainer, CheckpointScheduleWritesLoadableArtifacts)
{
    {
        SCOPED_TRACE("hash grid");
        NerfPipeline pipe(tinyPipeline());
        expectCheckpointsReload(pipe, BackendKind::hashGrid);
    }
    {
        SCOPED_TRACE("FreqNeRF");
        FreqPipelineConfig fc;
        fc.model.posFrequencies = 4;
        fc.model.hidden = 16;
        fc.model.trunkLayers = 2;
        fc.model.geoFeatures = 7;
        fc.model.colorHidden = 16;
        fc.model.shDegree = 2;
        fc.sampler.maxSamplesPerRay = 16;
        fc.occupancyResolution = 12;
        FreqPipeline pipe(fc);
        expectCheckpointsReload(pipe, BackendKind::freqNerf);
    }
    {
        SCOPED_TRACE("TensoRF");
        TensorfPipelineConfig tc;
        tc.model.densityRank = 6;
        tc.model.appearanceRank = 8;
        tc.model.lineResolution = 48;
        tc.model.appearanceDim = 8;
        tc.model.colorHidden = 16;
        tc.sampler.maxSamplesPerRay = 16;
        tc.occupancyResolution = 12;
        TensorfPipeline pipe(tc);
        expectCheckpointsReload(pipe, BackendKind::tensorf);
    }
}

TEST(Trainer, DeterministicWithSameSeed)
{
    const Dataset data = tinyDataset();
    TrainerConfig tc;
    tc.iterations = 15;
    tc.raysPerBatch = 16;
    tc.seed = 777;

    NerfPipeline a(tinyPipeline());
    NerfPipeline b(tinyPipeline());
    const double pa = Trainer(a, data, tc).run().finalPsnr;
    const double pb = Trainer(b, data, tc).run().finalPsnr;
    EXPECT_DOUBLE_EQ(pa, pb);
}

} // namespace
} // namespace fusion3d::nerf
