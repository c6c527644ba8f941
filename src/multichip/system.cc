#include "multichip/system.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace fusion3d::multichip
{

MultiChipSystem::MultiChipSystem(const SystemConfig &cfg)
    : cfg_(cfg)
{
    if (cfg.numChips < 1)
        fatal("MultiChipSystem needs at least one chip");
}

double
MultiChipSystem::totalPowerW() const
{
    return cfg_.chip.typicalPowerW * cfg_.numChips +
           cfg_.io.powerW(cfg_.chip, cfg_.numChips);
}

double
MultiChipSystem::totalAreaMm2() const
{
    return cfg_.chip.dieAreaMm2 * cfg_.numChips + cfg_.io.areaMm2(cfg_.chip, cfg_.numChips);
}

double
MultiChipSystem::totalSramKb() const
{
    return static_cast<double>(cfg_.chip.totalSramKb()) * cfg_.numChips +
           cfg_.io.sramKb(cfg_.chip, cfg_.numChips);
}

SystemRunResult
MultiChipSystem::run(nerf::MoeNerf &moe, const std::vector<Ray> &rays, bool training,
                     std::uint64_t full_rays) const
{
    const int chips = cfg_.numChips;
    if (moe.numExperts() != chips)
        fatal("MoeNerf has %d experts but the system has %d chips", moe.numExperts(),
              chips);

    const chip::Chip chip_model(cfg_.chip);
    Pcg32 rng(321, 0x2545f4914f6cdd1dULL);

    // Per-expert trace capture: each expert's Stage-II accesses land on
    // its own chip's interpolation module.
    std::vector<std::unique_ptr<chip::InterpModule>> interps;
    std::vector<std::vector<nerf::RayWorkload>> workloads(
        static_cast<std::size_t>(chips));
    std::vector<std::uint64_t> candidates(static_cast<std::size_t>(chips), 0);
    std::vector<std::uint64_t> valid(static_cast<std::size_t>(chips), 0);
    std::vector<std::uint64_t> composited(static_cast<std::size_t>(chips), 0);

    for (int k = 0; k < chips; ++k) {
        interps.push_back(std::make_unique<chip::InterpModule>(
            cfg_.chip, chip::BankPolicy::TwoLevelTiling));
        moe.expert(k).model().setVertexVisitor(interps.back().get());
        workloads[static_cast<std::size_t>(k)].reserve(rays.size());
    }

    // Rays an expert actually contributed to (non-empty partials): only
    // these cross back to the I/O module.
    std::vector<std::uint64_t> touched(static_cast<std::size_t>(chips), 0);

    for (const Ray &ray : rays) {
        for (int k = 0; k < chips; ++k) {
            nerf::RayWorkload wl;
            nerf::RayEval ev;
            moe.expert(k).traceRays({&ray, 1}, rng, /*record=*/false, {&ev, 1}, &wl);
            candidates[static_cast<std::size_t>(k)] +=
                static_cast<std::uint64_t>(ev.candidates);
            valid[static_cast<std::size_t>(k)] += static_cast<std::uint64_t>(ev.samples);
            composited[static_cast<std::size_t>(k)] +=
                static_cast<std::uint64_t>(ev.composited);
            if (ev.samples > 0)
                ++touched[static_cast<std::size_t>(k)];
            workloads[static_cast<std::size_t>(k)].push_back(std::move(wl));
        }
    }
    for (int k = 0; k < chips; ++k)
        moe.expert(k).model().setVertexVisitor(nullptr);

    SystemRunResult result;
    const double scale =
        static_cast<double>(full_rays) / std::max<double>(1.0, static_cast<double>(rays.size()));

    double max_seconds = 0.0;
    double sum_seconds = 0.0;
    for (int k = 0; k < chips; ++k) {
        const auto idx = static_cast<std::size_t>(k);
        ChipSlice slice;
        const chip::SamplingModule sampling(cfg_.chip, chip::SamplingSchedule::Dynamic);
        slice.stage1 = sampling.run(workloads[idx]);
        slice.stage2 = interps[idx]->stats();

        chip::WorkloadProfile wl;
        wl.rays = full_rays;
        wl.candidates =
            static_cast<std::uint64_t>(static_cast<double>(candidates[idx]) * scale);
        wl.validPoints =
            static_cast<std::uint64_t>(static_cast<double>(valid[idx]) * scale);
        wl.compositedPoints =
            static_cast<std::uint64_t>(static_cast<double>(composited[idx]) * scale);
        wl.levels = moe.expert(k).model().config().grid.levels;
        wl.macsPerPoint = moe.expert(k).model().macsPerPoint();
        wl.avgGroupCycles = slice.stage2.groups ? slice.stage2.meanGroupLatency : 1.0;
        slice.workload = wl;

        slice.perf = training ? chip_model.perfModel().training(wl, slice.stage1)
                              : chip_model.perfModel().inference(wl, slice.stage1);
        max_seconds = std::max(max_seconds, slice.perf.seconds);
        sum_seconds += slice.perf.seconds;
        result.totalPoints += wl.validPoints;
        result.chips.push_back(slice);
    }

    result.computeSeconds = max_seconds;
    result.imbalance =
        sum_seconds > 0.0 ? max_seconds / (sum_seconds / chips) : 1.0;

    // --- Communication accounting (full-scale workload) ---
    // MoE: each chip owns a full Stage-I sampler, so the I/O module
    // broadcasts only the camera pose (not per-ray data) and receives
    // one tagged partial pixel (RGB+T fp16 + ray index, 10 B) per ray
    // an expert actually contributed to -- the occupancy gate makes
    // most (ray, expert) pairs empty. Training returns the 6-B pixel
    // gradient to the same touched set.
    std::uint64_t touched_full = 0;
    for (int k = 0; k < chips; ++k) {
        touched_full += static_cast<std::uint64_t>(
            static_cast<double>(touched[static_cast<std::size_t>(k)]) * scale);
    }
    std::uint64_t moe_bytes = 64 * static_cast<std::uint64_t>(chips) +
                              touched_full * 10;
    if (training)
        moe_bytes += touched_full * 6;
    result.moeCommBytes = moe_bytes;

    // Layer-split alternative: every sampled point's features cross a
    // chip boundary (fp16 features per level), twice when training
    // (gradients return).
    const int levels = moe.expert(0).model().config().grid.levels;
    const int fpl = moe.expert(0).model().config().grid.featuresPerLevel;
    const std::uint64_t act_bytes =
        static_cast<std::uint64_t>(levels) * fpl * 2 + 8;
    result.layerSplitCommBytes =
        result.totalPoints * act_bytes * (training ? 2 : 1);

    // PCB links run in parallel, one per chip; the I/O module fuses the
    // arriving partials at its own rate. Transfer and fusion overlap
    // with each other but follow compute (the final batch must land).
    const double link_bw = cfg_.chipToChipBytesPerSec * chips;
    result.commSeconds = static_cast<double>(moe_bytes) / link_bw;
    result.fusionSeconds = static_cast<double>(touched_full) / cfg_.ioFusionRate;
    result.seconds =
        result.computeSeconds + std::max(result.commSeconds, result.fusionSeconds);

    result.energyJ = totalPowerW() * result.seconds +
                     static_cast<double>(moe_bytes) * cfg_.chipToChipEnergyPerByte;
    return result;
}

SystemRunResult
MultiChipSystem::evaluateInference(nerf::MoeNerf &moe, const nerf::Camera &camera,
                                   int trace_rays, std::uint64_t seed) const
{
    Pcg32 rng(seed, 0x6c8e9cf570932bd5ULL);
    std::vector<Ray> rays;
    rays.reserve(static_cast<std::size_t>(trace_rays));
    const std::uint32_t pixels =
        static_cast<std::uint32_t>(camera.width()) * camera.height();
    for (int i = 0; i < trace_rays; ++i) {
        const std::uint32_t pick = rng.nextBounded(pixels);
        rays.push_back(camera.rayForPixel(static_cast<int>(pick % camera.width()),
                                          static_cast<int>(pick / camera.width())));
    }
    return run(moe, rays, /*training=*/false, pixels);
}

SystemRunResult
MultiChipSystem::evaluateTraining(nerf::MoeNerf &moe, const nerf::Dataset &dataset,
                                  int rays_per_batch, std::uint64_t seed) const
{
    if (dataset.train.empty())
        fatal("MultiChipSystem::evaluateTraining: no training views");
    Pcg32 rng(seed, 0x8d2f43c9a1b7e655ULL);
    std::vector<Ray> rays;
    rays.reserve(static_cast<std::size_t>(rays_per_batch));
    for (int i = 0; i < rays_per_batch; ++i) {
        const nerf::TrainView &view = dataset.train[rng.nextBounded(
            static_cast<std::uint32_t>(dataset.train.size()))];
        const int px = static_cast<int>(
            rng.nextBounded(static_cast<std::uint32_t>(view.image.width())));
        const int py = static_cast<int>(
            rng.nextBounded(static_cast<std::uint32_t>(view.image.height())));
        rays.push_back(view.camera.rayForPixel(px, py, rng.nextFloat(), rng.nextFloat()));
    }
    return run(moe, rays, /*training=*/true,
               static_cast<std::uint64_t>(rays_per_batch));
}

} // namespace fusion3d::multichip
