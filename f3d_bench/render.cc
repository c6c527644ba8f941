/**
 * @file
 * The `render` workload: the paper's real-time rendering path. The
 * trained artifact is deployed through ModelRegistry::addFromFile, then
 * 128x128 frames are rendered one at a time with renderDepthFrameTiled
 * on a pool of three workers plus the caller: all of Stage I/II/III
 * inference with no queue, registry lookup or reprojection.
 *
 * Frame cost varies with the pose, so the poses come from a stratified
 * sweep: one per azimuth stratum, with elevations Latin-hypercube over
 * the rig's range, jittered from the seed. The window renders that set
 * in repeated passes, and each pose's frame time is its median over the
 * passes: a spell of host noise that slows a few seconds of the window
 * then moves no pose's time, where it would set the tail of the raw
 * frame times. Set-up is measured once per pass, so its median spans
 * the window too.
 */

#include <atomic>
#include <numeric>

#include "bench.h"
#include "common/thread_pool.h"
#include "nerf/parallel_render.h"
#include "serve/model_registry.h"
#include "trace_rollup.h"

namespace f3dbench
{

using namespace fusion3d;

namespace
{

/** Every Nth frame is re-rendered with renderImageTiled and compared
 *  bit for bit (untimed). */
constexpr std::uint64_t kCheckEvery = 32;

/** ServeableField decorator that times every evalBatch call of the
 *  field it wraps (traced runs only). */
class TimedField final : public nerf::ServeableField
{
  public:
    explicit TimedField(const nerf::ServeableField &inner) : inner_(inner) {}

    nerf::BackendKind kind() const override { return inner_.kind(); }
    std::size_t paramCount() const override { return inner_.paramCount(); }
    std::size_t residentBytes() const override { return inner_.residentBytes(); }
    QuantMode quantMode() const override { return inner_.quantMode(); }

    void
    evalBatch(std::span<const Vec3f> positions, std::span<const Vec3f> dirs,
              std::span<float> sigmas, std::span<Vec3f> rgbs) const override
    {
        const Clock::time_point t0 = Clock::now();
        inner_.evalBatch(positions, dirs, sigmas, rgbs);
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
        busyNs_.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
        samples_.fetch_add(positions.size(), std::memory_order_relaxed);
        calls_.fetch_add(1, std::memory_order_relaxed);
    }

    void
    evalDensityBatch(std::span<const Vec3f> positions,
                     std::span<float> sigmas) const override
    {
        inner_.evalDensityBatch(positions, sigmas);
    }

    double busyMs() const { return static_cast<double>(busyNs_.load()) / 1e6; }
    double samples() const { return static_cast<double>(samples_.load()); }
    double calls() const { return static_cast<double>(calls_.load()); }

  private:
    const nerf::ServeableField &inner_;
    mutable std::atomic<std::uint64_t> busyNs_{0};
    mutable std::atomic<std::uint64_t> samples_{0};
    mutable std::atomic<std::uint64_t> calls_{0};
};

/** The stratified pose set of a run. */
std::vector<nerf::Camera>
stratifiedPoses(std::uint64_t seed, int poses, int res)
{
    Pcg32 rng(seed, 1000);
    std::vector<int> elev_stratum(static_cast<std::size_t>(poses));
    std::iota(elev_stratum.begin(), elev_stratum.end(), 0);
    for (int i = poses - 1; i > 0; --i)
        std::swap(elev_stratum[static_cast<std::size_t>(i)],
                  elev_stratum[rng.nextBounded(static_cast<std::uint32_t>(i + 1))]);
    std::vector<nerf::Camera> out;
    for (int i = 0; i < poses; ++i) {
        const float az = 360.0f * (static_cast<float>(i) + rng.nextFloat()) / poses;
        const float el =
            15.0f + 20.0f *
                        (static_cast<float>(elev_stratum[static_cast<std::size_t>(i)]) +
                         rng.nextFloat()) /
                        poses;
        out.push_back(rigPose(az, el, res));
    }
    return out;
}

/** Frames rendered, and the time spent rendering them. */
struct Sweep
{
    /** Frame times of each pose, one per pass that reached it. */
    std::vector<std::vector<double>> poseMs;
    std::size_t frames = 0;
    double renderS = 0.0;
    double wallS = 0.0;

    explicit Sweep(std::size_t poses) : poseMs(poses) {}

    double fps() const { return static_cast<double>(frames) / renderS; }

    /** Each rendered pose's median frame time over the passes. */
    std::vector<double>
    poseMedians() const
    {
        std::vector<double> out;
        for (const std::vector<double> &ms : poseMs)
            if (!ms.empty())
                out.push_back(median(ms));
        return out;
    }
};

/**
 * Render @p poses through @p field into @p sweep, stopping early at
 * @p deadline. With @p r set, every kCheckEvery-th frame must match
 * renderImageTiled of the registry entry bit for bit (traced passes skip
 * the check, so its spans stay out of the rollup).
 */
void
renderPass(const std::vector<nerf::Camera> &poses, const nerf::ServeableField &field,
           const serve::ModelEntry &entry, const nerf::TiledRenderConfig &cfg,
           ThreadPool &pool, Clock::time_point deadline, Sweep &sweep, Result *r)
{
    const Clock::time_point w0 = Clock::now();
    for (std::size_t i = 0; i < poses.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        const nerf::DepthFrame frame =
            nerf::renderDepthFrameTiled(field, &entry.grid, poses[i], cfg, &pool);
        const Clock::time_point t1 = Clock::now();
        sweep.poseMs[i].push_back(msBetween(t0, t1));
        sweep.renderS += msBetween(t0, t1) / 1e3;
        ++sweep.frames;
        if (r && sweep.frames % kCheckEvery == 1) {
            const Image expect =
                nerf::renderImageTiled(*entry.model, &entry.grid, poses[i], cfg, &pool);
            r->check(sameBits(frame.color, expect),
                     "renderDepthFrameTiled differs from renderImageTiled");
        }
        if (t1 >= deadline)
            break;
    }
    sweep.wallS += secondsSince(w0);
}

} // namespace

Result
runRender(const Options &opt, const Sizes &sz, const Inputs &in)
{
    Result r;
    ThreadPool pool(kPoolWorkers);
    const nerf::TiledRenderConfig cfg;

    const std::vector<nerf::Camera> poses =
        stratifiedPoses(opt.seed, sz.posesPerPass, sz.renderRes);

    // Set-up is load + CRC check + occupancy-gate rebuild; the first
    // result adds the first frame.
    std::vector<double> setup, to_result;
    const auto deploy = [&] {
        auto registry = std::make_unique<serve::ModelRegistry>(serve::RegistryConfig{});
        const Clock::time_point t0 = Clock::now();
        if (registry->addFromFile("lego", in.artifact) != nerf::LoadStatus::ok)
            throw std::runtime_error("cannot deploy " + in.artifact);
        setup.push_back(secondsSince(t0));
        const serve::ModelHandle e = registry->acquire("lego");
        nerf::renderDepthFrameTiled(*e->model, &e->grid, rigPose(0.0f, 25.0f, sz.renderRes),
                                    cfg, &pool);
        to_result.push_back(secondsSince(t0));
        return registry;
    };
    const std::unique_ptr<serve::ModelRegistry> registry = deploy();
    const serve::ModelHandle entry = registry->acquire("lego");

    const Clock::time_point deadline = Clock::now() + fromSeconds(opt.seconds);
    if (!opt.trace) {
        // Every later pass starts with a throwaway deployment, so the
        // set-up samples spread over the window like the frames do.
        Sweep sweep(poses.size());
        for (int p = 0; Clock::now() < deadline; ++p) {
            if (p > 0)
                deploy();
            renderPass(poses, *entry->model, *entry, cfg, pool, deadline, sweep, &r);
        }
        double psnr_sum = 0.0;
        for (const nerf::TrainView &view : in.data.test)
            psnr_sum += psnr(nerf::renderImageTiled(*entry->model, &entry->grid, view.camera,
                                                    cfg, &pool),
                             view.image);
        const std::vector<double> pose_ms = sweep.poseMedians();
        r.attempted = sweep.frames;
        r.set("setup_s", median(setup));
        r.set("time_to_result_s", median(to_result));
        r.set("ops_per_s", 1e3 * static_cast<double>(pose_ms.size()) /
                               std::accumulate(pose_ms.begin(), pose_ms.end(), 0.0));
        r.set("latency_ms_p50", quantile(pose_ms, 0.5));
        r.set("latency_ms_p95", quantile(pose_ms, 0.95));
        r.set("psnr_db", psnr_sum / static_cast<double>(in.data.test.size()));
        return r;
    }

    // Traced run: each pass of poses is rendered untraced, then traced
    // through the timing decorator, so both see the same poses and the
    // same spells of host noise.
    const TimedField timed(*entry->model);
    Sweep plain(poses.size()), traced(poses.size());
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0;
    {
        TraceCapture cap;
        cap.pause();
        while (Clock::now() < deadline) {
            renderPass(poses, *entry->model, *entry, cfg, pool, deadline, plain, &r);
            cap.resume();
            renderPass(poses, timed, *entry, cfg, pool, deadline, traced, nullptr);
            cap.pause();
        }
        events = cap.stop();
        dropped = cap.dropped();
    }
    const double frames = static_cast<double>(traced.frames);
    r.attempted = plain.frames + traced.frames;
    r.set("nerf.field.eval_batch_busy_ms", timed.busyMs() / frames);
    r.set("nerf.field.samples_per_frame", timed.samples() / frames);
    r.set("nerf.field.ns_per_sample",
          timed.samples() > 0 ? timed.busyMs() * 1e6 / timed.samples() : 0.0);
    r.set("nerf.field.samples_per_call", timed.calls() > 0 ? timed.samples() / timed.calls() : 0.0);
    const double tile_ms = busyMs(events, "parallel_render", "row_tile") / frames;
    r.set("nerf.parallel_render.tile_busy_ms", tile_ms);
    r.set("nerf.parallel_render.sample_composite_busy_ms", tile_ms - timed.busyMs() / frames);
    r.set("nerf.sampler.samples_per_ray",
          timed.samples() / (frames * sz.renderRes * sz.renderRes));
    setCommonLayerMetrics(r, events, frames, kPoolWorkers, traced.wallS, dropped);
    r.set("trace.overhead_frac", 1.0 - traced.fps() / plain.fps());
    return r;
}

} // namespace f3dbench
