/** @file The occupancy gate a NeRF learns tracks the scene it was
 *  trained on: after the benchmark's training schedule, the learned fill
 *  is within 2x of the analytic scene's occupied fraction. A gate that
 *  never closes a cell (fill 1.0) skips no empty space in Stage I. */

#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "nerf/pipeline.h"
#include "nerf/trainer.h"
#include "scenes/dataset_gen.h"
#include "scenes/factory.h"

namespace fusion3d::nerf
{
namespace
{

/** The model and gate of f3d_bench's pipelineConfig(). */
PipelineConfig
benchPipeline()
{
    PipelineConfig pc;
    pc.model.grid.levels = 8;
    pc.model.grid.featuresPerLevel = 2;
    pc.model.grid.log2TableSize = 14;
    pc.model.grid.baseResolution = 16;
    pc.model.grid.maxResolution = 128;
    pc.model.densityHidden = 32;
    pc.model.colorHidden = 32;
    pc.model.geoFeatures = 15;
    pc.model.shDegree = 3;
    pc.sampler.maxSamplesPerRay = 64;
    pc.occupancyResolution = 48;
    return pc;
}

class LearnedGate : public ::testing::TestWithParam<std::string>
{};

TEST_P(LearnedGate, FillTracksSceneOccupancy)
{
    const auto scene = scenes::makeSyntheticScene(GetParam());
    const Dataset data = scenes::makeDataset(*scene, scenes::syntheticRig(64));
    NerfPipeline pipe(benchPipeline());
    ThreadPool pool(3);
    // f3d_bench's training schedule: 240 iterations of 1024 rays, with
    // the trainer's default occupancy warm-up and refresh period.
    TrainerConfig tc;
    tc.iterations = 240;
    tc.raysPerBatch = 1024;
    tc.pool = &pool;
    Trainer trainer(pipe, data, tc);
    trainer.run();

    const double learned = pipe.grid().occupiedFraction();
    const double analytic = scene->occupiedFraction(pipe.config().occupancyResolution);
    RecordProperty("learned_fill", std::to_string(learned));
    RecordProperty("analytic_fill", std::to_string(analytic));
    EXPECT_LE(learned, 2.0 * analytic) << GetParam() << ": analytic fill " << analytic;
    EXPECT_GE(learned, 0.5 * analytic) << GetParam() << ": analytic fill " << analytic;
}

INSTANTIATE_TEST_SUITE_P(Scenes, LearnedGate, ::testing::Values("lego", "mic", "ship"),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace fusion3d::nerf
