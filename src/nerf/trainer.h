/**
 * @file
 * End-to-end NeRF training loop over a RadianceField: per-iteration ray
 * batches, MSE photometric loss, periodic occupancy refresh, optional
 * periodic weight quantization (the Table-II experiment), and PSNR
 * evaluation on held-out views. The workload statistics it gathers
 * (rays, candidate and valid samples) feed the chip performance model.
 */

#ifndef FUSION3D_NERF_TRAINER_H_
#define FUSION3D_NERF_TRAINER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/image.h"
#include "nerf/dataset.h"
#include "nerf/radiance_field.h"

namespace fusion3d
{
class ThreadPool;
}

namespace fusion3d::nerf
{

class NerfModel;

/** Training-loop configuration. */
struct TrainerConfig
{
    int iterations = 1500;
    int raysPerBatch = 256;
    /** Refresh the occupancy gate every N iterations (0 disables). */
    int occupancyUpdateEvery = 48;
    /** Iterations before the first occupancy refresh. */
    int occupancyWarmup = 96;
    /** Fake-quantize all weights to INT8 every N iterations (0 = never). */
    int quantizeEvery = 0;
    /** Record PSNR every N iterations (0 = final only). */
    int evalEvery = 0;
    /** Test views used per evaluation (capped by the dataset). */
    int evalViews = 1;
    /**
     * Write an atomic checkpoint (saveModelAtomic) every N iterations
     * (0 = never). Requires setCheckpointModel(); a crash mid-write
     * never corrupts the artifact at checkpointPath.
     */
    int checkpointEvery = 0;
    /** Destination of periodic checkpoints. */
    std::string checkpointPath = "checkpoint.f3dm";
    std::uint64_t seed = 1234;
    /**
     * Thread pool for sharded forward/backward, the optimizer step, the
     * occupancy refresh, and tiled eval renders (null runs the same
     * shards inline). Must outlive the trainer. A given seed reproduces
     * bit-identical weights at ANY pool size, or with none — the shard
     * partition and gradient reduction order depend only on the batch,
     * never on thread count or scheduling.
     */
    ThreadPool *pool = nullptr;
};

/** Aggregate statistics of one training run. */
struct TrainResult
{
    /** (iteration, test PSNR) pairs, one per evaluation. */
    std::vector<std::pair<int, double>> history;
    double finalPsnr = 0.0;
    int iterationsRun = 0;
    /** Total rays traced during training (forward passes). */
    std::uint64_t totalRays = 0;
    /** Total valid samples evaluated (Stage II/III workload). */
    std::uint64_t totalSamples = 0;
    /** Total candidate samples before occupancy filtering (Stage I). */
    std::uint64_t totalCandidates = 0;
    /** First evaluated iteration whose PSNR reached 25 dB (-1 if never). */
    int itersTo25Psnr = -1;

    double
    avgSamplesPerRay() const
    {
        return totalRays ? static_cast<double>(totalSamples) /
                               static_cast<double>(totalRays)
                         : 0.0;
    }
};

/** Drives training of a RadianceField against a Dataset. */
class Trainer
{
  public:
    Trainer(RadianceField &field, const Dataset &data, const TrainerConfig &cfg);

    /** Run the configured number of iterations. */
    TrainResult run();

    /** One optimization step (one ray batch). */
    void trainIteration();

    /** Mean PSNR over up to @p max_views test views. */
    double evalPsnr(int max_views = 1);

    /** Render an arbitrary camera with the current model. */
    Image renderView(const Camera &camera);

    /**
     * Point periodic checkpointing (TrainerConfig::checkpointEvery) at
     * the model to serialize; the RadianceField interface is checkpoint-
     * agnostic, so the caller names the weights explicitly (e.g.
     * &pipeline.model()). Pass nullptr to detach. @p model must outlive
     * the trainer.
     */
    void setCheckpointModel(const NerfModel *model) { ckpt_model_ = model; }

    int iteration() const { return iter_; }
    std::uint64_t totalRays() const { return total_rays_; }
    std::uint64_t totalSamples() const { return total_samples_; }
    std::uint64_t totalCandidates() const { return total_candidates_; }
    std::uint64_t checkpointsWritten() const { return ckpts_written_; }
    std::uint64_t checkpointsFailed() const { return ckpts_failed_; }

  private:
    RadianceField &field_;
    const Dataset &data_;
    TrainerConfig cfg_;
    Pcg32 rng_;
    const NerfModel *ckpt_model_ = nullptr;
    int iter_ = 0;
    std::uint64_t total_rays_ = 0;
    std::uint64_t total_samples_ = 0;
    std::uint64_t total_candidates_ = 0;
    std::uint64_t ckpts_written_ = 0;
    std::uint64_t ckpts_failed_ = 0;

    // Minibatch scratch reused across iterations (traceRays batches).
    std::vector<Ray> batch_rays_;
    std::vector<Vec3f> batch_gts_;
    std::vector<RayEval> batch_evals_;
    std::vector<Vec3f> batch_dcolors_;
};

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_TRAINER_H_
