#include "chip/chip.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace fusion3d::chip
{

Chip::Chip(const ChipConfig &cfg, BankPolicy policy, SamplingSchedule schedule,
           bool normalized_preproc)
    : cfg_(cfg), policy_(policy), schedule_(schedule), normalized_(normalized_preproc),
      tech_(cfg), perf_(cfg, tech_)
{
}

namespace
{

/** Shared trace-capture result. */
struct Capture
{
    std::vector<nerf::RayWorkload> workloads;
    std::uint64_t candidates = 0;
    std::uint64_t valid = 0;
    std::uint64_t composited = 0;
};

} // namespace

InferenceReport
Chip::evaluateInference(nerf::NerfPipeline &pipeline, const nerf::Camera &camera,
                        int trace_rays, std::uint64_t seed) const
{
    InterpModule interp(cfg_, policy_);
    pipeline.model().setVertexVisitor(&interp);

    Pcg32 rng(seed, 0xb5297a4d3f84d5a3ULL);
    Capture cap;
    cap.workloads.reserve(static_cast<std::size_t>(trace_rays));

    // Stratified pixel picks across the frame.
    const std::uint32_t pixels =
        static_cast<std::uint32_t>(camera.width()) * camera.height();
    for (int i = 0; i < trace_rays; ++i) {
        const std::uint32_t pick = rng.nextBounded(pixels);
        const int px = static_cast<int>(pick % camera.width());
        const int py = static_cast<int>(pick / camera.width());
        const Ray ray = camera.rayForPixel(px, py);
        nerf::RayWorkload wl;
        nerf::RayEval ev;
        pipeline.traceRays({&ray, 1}, rng, /*record=*/false, {&ev, 1}, &wl);
        cap.candidates += static_cast<std::uint64_t>(ev.candidates);
        cap.valid += static_cast<std::uint64_t>(ev.samples);
        cap.composited += static_cast<std::uint64_t>(ev.composited);
        cap.workloads.push_back(std::move(wl));
    }
    pipeline.model().setVertexVisitor(nullptr);

    const SamplingModule sampling(cfg_, schedule_, normalized_);
    const SamplingRunStats s1 = sampling.run(cap.workloads);
    const InterpRunStats s2 = interp.stats();

    // Extrapolate the traced subset to the full frame.
    const double scale = static_cast<double>(pixels) /
                         std::max<double>(static_cast<double>(trace_rays), 1.0);
    WorkloadProfile wl;
    wl.rays = pixels;
    wl.candidates = static_cast<std::uint64_t>(static_cast<double>(cap.candidates) * scale);
    wl.validPoints = static_cast<std::uint64_t>(static_cast<double>(cap.valid) * scale);
    wl.compositedPoints =
        static_cast<std::uint64_t>(static_cast<double>(cap.composited) * scale);
    wl.levels = pipeline.model().config().grid.levels;
    wl.macsPerPoint = pipeline.model().macsPerPoint();
    wl.avgGroupCycles = s2.groups ? s2.meanGroupLatency : 1.0;

    InferenceReport report;
    report.stage1 = s1;
    report.stage2 = s2;
    report.workload = wl;
    report.perf = perf_.inference(wl, s1);
    report.fps = report.perf.seconds > 0.0 ? 1.0 / report.perf.seconds : 0.0;
    return report;
}

TrainingReport
Chip::evaluateTraining(nerf::NerfPipeline &pipeline, const nerf::Dataset &dataset,
                       int rays_per_batch, std::uint64_t seed) const
{
    if (dataset.train.empty())
        fatal("Chip::evaluateTraining: dataset has no training views");

    InterpModule interp(cfg_, policy_);
    pipeline.model().setVertexVisitor(&interp);

    Pcg32 rng(seed, 0x9e3779b97f4a7c15ULL);
    Capture cap;
    cap.workloads.reserve(static_cast<std::size_t>(rays_per_batch));
    for (int i = 0; i < rays_per_batch; ++i) {
        const nerf::TrainView &view = dataset.train[rng.nextBounded(
            static_cast<std::uint32_t>(dataset.train.size()))];
        const int px =
            static_cast<int>(rng.nextBounded(static_cast<std::uint32_t>(
                view.image.width())));
        const int py =
            static_cast<int>(rng.nextBounded(static_cast<std::uint32_t>(
                view.image.height())));
        const Ray ray = view.camera.rayForPixel(px, py, rng.nextFloat(), rng.nextFloat());
        nerf::RayWorkload wl;
        nerf::RayEval ev;
        pipeline.traceRays({&ray, 1}, rng, /*record=*/false, {&ev, 1}, &wl);
        cap.candidates += static_cast<std::uint64_t>(ev.candidates);
        cap.valid += static_cast<std::uint64_t>(ev.samples);
        cap.composited += static_cast<std::uint64_t>(ev.composited);
        cap.workloads.push_back(std::move(wl));
    }
    pipeline.model().setVertexVisitor(nullptr);

    const SamplingModule sampling(cfg_, schedule_, normalized_);
    const SamplingRunStats s1 = sampling.run(cap.workloads);
    const InterpRunStats s2 = interp.stats();

    WorkloadProfile wl;
    wl.rays = static_cast<std::uint64_t>(rays_per_batch);
    wl.candidates = cap.candidates;
    wl.validPoints = cap.valid;
    wl.compositedPoints = cap.composited;
    wl.levels = pipeline.model().config().grid.levels;
    wl.macsPerPoint = pipeline.model().macsPerPoint();
    wl.avgGroupCycles = s2.groups ? s2.meanGroupLatency : 1.0;

    TrainingReport report;
    report.stage1 = s1;
    report.stage2 = s2;
    report.workload = wl;
    report.perf = perf_.training(wl, s1);
    report.secondsPerIteration = report.perf.seconds;
    report.raysPerBatch = rays_per_batch;
    return report;
}

} // namespace fusion3d::chip
