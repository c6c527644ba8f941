/**
 * @file
 * The `train` workload: the paper's instant-reconstruction path. Each
 * rep trains the hash-grid pipeline from scratch on 1024-ray batches
 * with a pool of three workers plus the caller, evaluating test PSNR
 * every few iterations (evals are excluded from every timing) to find
 * the time to the target quality.
 *
 * The traced run drives the RadianceField calls itself, mirroring
 * Trainer::trainIteration, so each call can be timed; its final weights
 * must serialize byte-identical to an untraced Trainer run.
 */

#include <memory>

#include "bench.h"
#include "common/thread_pool.h"
#include "nerf/serialize.h"
#include "trace_rollup.h"

namespace f3dbench
{

using namespace fusion3d;

namespace
{

constexpr int kEvalViews = 2;

nerf::TrainerConfig
withPool(nerf::TrainerConfig tc, ThreadPool *pool)
{
    tc.pool = pool;
    return tc;
}

/** Everything a user builds before the first training step. */
struct TrainRig
{
    nerf::NerfPipeline pipe;
    ThreadPool pool;
    nerf::Trainer trainer;

    TrainRig(const nerf::Dataset &data, const nerf::TrainerConfig &tc)
        : pipe(pipelineConfig()), pool(kPoolWorkers), trainer(pipe, data, withPool(tc, &pool))
    {}
};

/** One training run from scratch. */
struct TrainRep
{
    double setupS = 0.0;
    double trainS = 0.0;
    /** Set-up plus training time until test PSNR reached the target;
     *  negative when it never did. */
    double toTargetS = -1.0;
    double finalPsnr = 0.0;
    std::vector<double> iterationMs;
    std::uint64_t rays = 0;
};

TrainRep
trainOnce(const Sizes &sz, const Inputs &in, const std::string *weights_path)
{
    TrainRep rep;
    const Clock::time_point t0 = Clock::now();
    auto rig = std::make_unique<TrainRig>(in.data, trainerConfig(sz, sz.trainIterations));
    rep.setupS = secondsSince(t0);
    for (int it = 1; it <= sz.trainIterations; ++it) {
        const Clock::time_point ti = Clock::now();
        rig->trainer.trainIteration();
        const double ms = msBetween(ti, Clock::now());
        rep.iterationMs.push_back(ms);
        rep.trainS += ms / 1e3;
        if (rep.toTargetS < 0.0 && it % sz.evalEvery == 0 &&
            rig->trainer.evalPsnr(kEvalViews) >= sz.targetPsnrDb)
            rep.toTargetS = rep.setupS + rep.trainS;
    }
    rep.finalPsnr = rig->trainer.evalPsnr(kEvalViews);
    rep.rays = static_cast<std::uint64_t>(sz.trainIterations) *
               static_cast<std::uint64_t>(sz.raysPerBatch);
    if (weights_path && !nerf::saveModel(rig->pipe.model(), *weights_path))
        throw std::runtime_error("cannot write " + *weights_path);
    return rep;
}

void
checkRep(Result &r, const Sizes &sz, const TrainRep &rep)
{
    r.check(rep.toTargetS > 0.0,
            "training never reached " + std::to_string(sz.targetPsnrDb) + " dB test PSNR");
}

Result
runUntraced(const Options &opt, const Sizes &sz, const Inputs &in)
{
    Result r;
    // Set-up ends when the first training step has run: construction
    // alone takes about a millisecond, where allocator and page-fault
    // luck swing it by half, while the first step also grows every
    // training arena.
    std::vector<double> setup;
    for (int k = 0; k < sz.setupReps; ++k) {
        const Clock::time_point t0 = Clock::now();
        TrainRig rig(in.data, trainerConfig(sz, sz.trainIterations));
        rig.trainer.trainIteration();
        setup.push_back(secondsSince(t0));
    }

    std::vector<TrainRep> reps;
    const Clock::time_point w0 = Clock::now();
    do {
        reps.push_back(trainOnce(sz, in, nullptr));
    } while (secondsSince(w0) < opt.seconds);

    std::vector<double> to_target, iteration_ms;
    double rays = 0.0, train_s = 0.0;
    for (const TrainRep &rep : reps) {
        checkRep(r, sz, rep);
        r.check(rep.finalPsnr == reps.front().finalPsnr,
                "training reps of one trajectory ended at different PSNRs");
        to_target.push_back(rep.toTargetS);
        iteration_ms.insert(iteration_ms.end(), rep.iterationMs.begin(), rep.iterationMs.end());
        rays += static_cast<double>(rep.rays);
        train_s += rep.trainS;
    }
    r.attempted = iteration_ms.size();
    r.set("setup_s", median(setup));
    r.set("time_to_result_s", median(to_target));
    r.set("ops_per_s", rays / train_s);
    r.set("latency_ms_p50", quantile(iteration_ms, 0.5));
    r.set("latency_ms_p95", quantile(iteration_ms, 0.95));
    r.set("psnr_db", reps.front().finalPsnr);
    return r;
}

Result
runTraced(const Sizes &sz, const Inputs &in)
{
    Result r;
    const std::string untraced_path = in.dir + "/untraced.f3dm";
    const TrainRep plain = trainOnce(sz, in, &untraced_path);
    checkRep(r, sz, plain);

    nerf::NerfPipeline pipe(pipelineConfig());
    ThreadPool pool(kPoolWorkers);
    pipe.setThreadPool(&pool);
    const nerf::TrainerConfig tc = trainerConfig(sz, sz.trainIterations);
    // Trainer's ray stream: its seed on the fixed stream id it uses.
    Pcg32 rng(tc.seed, 0x5851f42d4c957f2dULL);
    const std::size_t n = static_cast<std::size_t>(tc.raysPerBatch);
    std::vector<Ray> rays;
    std::vector<Vec3f> gts, dcolors(n);
    std::vector<nerf::RayEval> evals(n);

    double zero_ms = 0, build_ms = 0, trace_ms = 0, backward_ms = 0, step_ms = 0, occ_ms = 0;
    double samples = 0, candidates = 0;
    Windows backward_calls;
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0;
    double wall_s = 0.0;
    {
        TraceCapture cap;
        const Clock::time_point w0 = Clock::now();
        for (int iter = 0; iter < tc.iterations;) {
            const Clock::time_point t0 = Clock::now();
            pipe.zeroGrads();
            const Clock::time_point t1 = Clock::now();
            rays.clear();
            gts.clear();
            for (int k = 0; k < tc.raysPerBatch; ++k) {
                const nerf::TrainView &view = in.data.train[rng.nextBounded(
                    static_cast<std::uint32_t>(in.data.train.size()))];
                const int px = static_cast<int>(
                    rng.nextBounded(static_cast<std::uint32_t>(view.image.width())));
                const int py = static_cast<int>(
                    rng.nextBounded(static_cast<std::uint32_t>(view.image.height())));
                rays.push_back(
                    view.camera.rayForPixel(px, py, rng.nextFloat(), rng.nextFloat()));
                gts.push_back(view.image.at(px, py));
            }
            nerf::RayWorkload workload;
            const Clock::time_point t2 = Clock::now();
            pipe.traceRays(rays, rng, /*record=*/true, evals, &workload);
            const Clock::time_point t3 = Clock::now();
            for (std::size_t k = 0; k < n; ++k) {
                samples += evals[k].samples;
                candidates += evals[k].candidates;
                dcolors[k] = evals[k].color - gts[k];
            }
            const Clock::time_point t4 = Clock::now();
            pipe.backwardRays(dcolors);
            const Clock::time_point t5 = Clock::now();
            pipe.optimizerStep();
            ++iter;
            const Clock::time_point t6 = Clock::now();
            if (tc.occupancyUpdateEvery > 0 && iter >= tc.occupancyWarmup &&
                (iter - tc.occupancyWarmup) % tc.occupancyUpdateEvery == 0)
                pipe.updateOccupancy(rng);
            const Clock::time_point t7 = Clock::now();

            zero_ms += msBetween(t0, t1);
            build_ms += msBetween(t1, t2) + msBetween(t3, t4);
            trace_ms += msBetween(t2, t3);
            backward_ms += msBetween(t4, t5);
            step_ms += msBetween(t5, t6);
            occ_ms += msBetween(t6, t7);
            backward_calls.add(t4, t5);
        }
        wall_s = secondsSince(w0);
        events = cap.stop();
        dropped = cap.dropped();
    }

    const std::string traced_path = in.dir + "/traced.f3dm";
    if (!nerf::saveModel(pipe.model(), traced_path))
        throw std::runtime_error("cannot write " + traced_path);
    r.check(readFile(traced_path) == readFile(untraced_path),
            "hand-driven training loop diverged from Trainer (weights differ)");

    const double iters = tc.iterations;
    r.attempted = plain.iterationMs.size() + static_cast<std::uint64_t>(tc.iterations);
    r.set("train.batch_build_ms", build_ms / iters);
    r.set("nerf.pipeline.zero_grads_ms", zero_ms / iters);
    r.set("nerf.pipeline.trace_rays_ms", trace_ms / iters);
    r.set("nerf.pipeline.backward_rays_ms", backward_ms / iters);
    r.set("nerf.pipeline.optimizer_step_ms", step_ms / iters);
    r.set("nerf.pipeline.update_occupancy_ms", occ_ms / iters);
    const double attributed = zero_ms + build_ms + trace_ms + backward_ms + step_ms + occ_ms;
    r.set("train.coverage", attributed / (wall_s * 1e3));
    r.set("nerf.model.backward_busy_ms",
          (busyMs(events, "train", "shard", &backward_calls) -
           forwardTotals(events, &backward_calls).busyMs) /
              iters);
    r.set("nerf.model.reduce_ms", busyMs(events, "train", "reduce") / iters);
    r.set("nerf.sampler.samples_per_ray", samples / (iters * static_cast<double>(n)));
    r.set("nerf.sampler.occupied_frac", candidates > 0 ? samples / candidates : 0.0);
    setCommonLayerMetrics(r, events, iters, kPoolWorkers, wall_s, dropped);

    const double plain_rate = static_cast<double>(plain.rays) / plain.trainS;
    const double traced_rate = iters * static_cast<double>(n) / wall_s;
    r.set("trace.overhead_frac", 1.0 - traced_rate / plain_rate);
    return r;
}

} // namespace

Result
runTrain(const Options &opt, const Sizes &sz, const Inputs &in)
{
    return opt.trace ? runTraced(sz, in) : runUntraced(opt, sz, in);
}

} // namespace f3dbench
