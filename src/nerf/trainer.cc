#include "nerf/trainer.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "nerf/camera.h"
#include "nerf/sampler.h"
#include "nerf/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fusion3d::nerf
{

namespace
{

/** Process-wide training-loop counters behind nerf.train.iterations/rays. */
struct TrainerStats
{
    std::atomic<std::uint64_t> iterations{0};
    std::atomic<std::uint64_t> rays{0};

    TrainerStats()
    {
        obs::MetricsRegistry::global().registerCollector(
            "nerf.trainer", [this](obs::MetricSink &sink) {
                sink.counter("nerf.train.iterations",
                             static_cast<double>(
                                 iterations.load(std::memory_order_relaxed)));
                sink.counter("nerf.train.rays",
                             static_cast<double>(
                                 rays.load(std::memory_order_relaxed)));
            });
    }
};

TrainerStats &
trainerStats()
{
    static TrainerStats stats;
    return stats;
}

} // namespace

Trainer::Trainer(RadianceField &field, const Dataset &data, const TrainerConfig &cfg)
    : field_(field), data_(data), cfg_(cfg), rng_(cfg.seed, 0x5851f42d4c957f2dULL)
{
    if (data.train.empty())
        fatal("Trainer: dataset has no training views");
    if (cfg_.pool)
        field_.setThreadPool(cfg_.pool);
}

void
Trainer::trainIteration()
{
    F3D_TRACE_SPAN_ARG("train", "iteration", iter_);
    field_.zeroGrads();

    RayWorkload workload;
    {
        F3D_TRACE_SPAN("train", "ray_batch");
        const std::size_t n = static_cast<std::size_t>(cfg_.raysPerBatch);
        batch_rays_.clear();
        batch_gts_.clear();
        batch_rays_.reserve(n);
        batch_gts_.reserve(n);
        for (int r = 0; r < cfg_.raysPerBatch; ++r) {
            const TrainView &view = data_.train[rng_.nextBounded(
                static_cast<std::uint32_t>(data_.train.size()))];
            const int px = static_cast<int>(rng_.nextBounded(
                static_cast<std::uint32_t>(view.image.width())));
            const int py = static_cast<int>(rng_.nextBounded(
                static_cast<std::uint32_t>(view.image.height())));
            batch_rays_.push_back(
                view.camera.rayForPixel(px, py, rng_.nextFloat(), rng_.nextFloat()));
            batch_gts_.push_back(view.image.at(px, py));
        }

        // The whole minibatch runs as ONE batched forward and ONE
        // batched backward through the field's SoA core.
        batch_evals_.resize(n);
        field_.traceRays(batch_rays_, rng_, /*record=*/true, batch_evals_, &workload);

        batch_dcolors_.resize(n);
        for (std::size_t r = 0; r < n; ++r) {
            const RayEval &ev = batch_evals_[r];
            ++total_rays_;
            total_samples_ += static_cast<std::uint64_t>(ev.samples);
            total_candidates_ += static_cast<std::uint64_t>(ev.candidates);
            batch_dcolors_[r] = ev.color - batch_gts_[r]; // d/dC of 0.5*|C-gt|^2
        }
        field_.backwardRays(batch_dcolors_);

        TrainerStats &stats = trainerStats();
        stats.iterations.fetch_add(1, std::memory_order_relaxed);
        stats.rays.fetch_add(n, std::memory_order_relaxed);
    }

    {
        F3D_TRACE_SPAN("train", "optimizer_step");
        field_.optimizerStep();
    }
    ++iter_;

    if (cfg_.occupancyUpdateEvery > 0 && iter_ >= cfg_.occupancyWarmup &&
        (iter_ - cfg_.occupancyWarmup) % cfg_.occupancyUpdateEvery == 0) {
        F3D_TRACE_SPAN("train", "occupancy_update");
        field_.updateOccupancy(rng_);
    }

    if (cfg_.quantizeEvery > 0 && iter_ % cfg_.quantizeEvery == 0) {
        F3D_TRACE_SPAN("train", "quantize_weights");
        field_.quantizeWeights();
    }

    if (cfg_.checkpointEvery > 0 && save_checkpoint_ &&
        iter_ % cfg_.checkpointEvery == 0) {
        F3D_TRACE_SPAN("train", "checkpoint");
        if (save_checkpoint_(cfg_.checkpointPath)) {
            ++ckpts_written_;
        } else {
            // The previous checkpoint (if any) is still intact at
            // checkpointPath; training continues.
            ++ckpts_failed_;
            warn("Trainer: checkpoint to '%s' failed at iteration %d",
                 cfg_.checkpointPath.c_str(), iter_);
        }
    }
}

Image
Trainer::renderView(const Camera &camera)
{
    F3D_TRACE_SPAN("train", "render_view");
    // The field seeds its own per-row streams from cfg_.seed rather
    // than drawing from rng_: evaluation must not perturb the training
    // stream, or interleaved evals would make weights depend on the
    // eval schedule.
    Image out;
    field_.renderView(camera, cfg_.seed, out);
    return out;
}

double
Trainer::evalPsnr(int max_views)
{
    F3D_TRACE_SPAN("train", "eval_psnr");
    if (data_.test.empty())
        fatal("Trainer::evalPsnr: dataset has no test views");
    const int views = std::min<int>(max_views, static_cast<int>(data_.test.size()));
    double acc = 0.0;
    for (int v = 0; v < views; ++v) {
        const Image rendered = renderView(data_.test[static_cast<std::size_t>(v)].camera);
        acc += psnr(rendered, data_.test[static_cast<std::size_t>(v)].image);
    }
    return acc / static_cast<double>(views);
}

TrainResult
Trainer::run()
{
    TrainResult result;
    for (int i = 0; i < cfg_.iterations; ++i) {
        trainIteration();
        if (cfg_.evalEvery > 0 && iter_ % cfg_.evalEvery == 0) {
            const double p = evalPsnr(cfg_.evalViews);
            result.history.emplace_back(iter_, p);
            if (result.itersTo25Psnr < 0 && p >= 25.0)
                result.itersTo25Psnr = iter_;
        }
    }
    result.finalPsnr = evalPsnr(cfg_.evalViews);
    result.history.emplace_back(iter_, result.finalPsnr);
    if (result.itersTo25Psnr < 0 && result.finalPsnr >= 25.0)
        result.itersTo25Psnr = iter_;
    result.iterationsRun = iter_;
    result.totalRays = total_rays_;
    result.totalSamples = total_samples_;
    result.totalCandidates = total_candidates_;
    return result;
}

} // namespace fusion3d::nerf
