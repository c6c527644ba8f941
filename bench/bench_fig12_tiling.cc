/**
 * @file
 * Regenerates Fig. 12: the multi-chip/tiling ablations.
 *  (a) chip-to-chip communication saving of MoE Level-1 tiling (94%),
 *  (b) interconnect area saving from crossbar elimination,
 *  (c) feature-access latency saving of Level-2/3 tiling,
 *  (d) feature-fetch latency variance collapsing to zero,
 *  (e) the access pattern: per-bank request distribution of one group.
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "chip/interp_module.h"
#include "multichip/system.h"
#include "nerf/moe.h"

using namespace fusion3d;

int
main(int argc, char **argv)
{
    const int trace_rays = argc > 1 ? std::atoi(argv[1]) : 600;

    // ---- (a) Level-1 (MoE) communication saving ----
    bench::banner("Fig. 12(a): chip-to-chip communication, MoE vs layer-split");
    {
        const auto scene = scenes::makeNerf360Scene("room");
        nerf::MoeConfig mc;
        mc.numExperts = 4;
        mc.expert = bench::defaultPipeline();
        mc.expert.model.grid.log2TableSize = 14;
        nerf::MoeNerf moe(mc);
        bench::bootstrapMoeGates(moe, *scene);

        const multichip::MultiChipSystem sys((multichip::SystemConfig()));
        const nerf::Camera cam = nerf::Camera::orbit({0.5f, 0.4f, 0.5f}, 0.38f, 30.0f,
                                                     15.0f, 70.0f, 800, 800);
        const auto r = sys.evaluateInference(moe, cam, trace_rays);
        std::printf("MoE (Level-1 tiling) traffic:   %10.2f MB/frame\n",
                    r.moeCommBytes / 1e6);
        std::printf("Layer-split alternative:        %10.2f MB/frame\n",
                    r.layerSplitCommBytes / 1e6);
        std::printf("Communication saving:           %10.1f%%  (paper: 94%%)\n\n",
                    r.commSavingFraction() * 100.0);
    }

    // ---- (b)-(e) Level-2/3 tiling on real hash-access traces ----
    bench::banner("Fig. 12(b)-(e): Level-2/3 hash tiling vs baseline banking");
    const auto scene = scenes::makeSyntheticScene("lego");
    auto pipe = bench::pipelineForScene(*scene);

    const chip::ChipConfig cfg = chip::ChipConfig::scaledUp();
    chip::InterpModule tiled(cfg, chip::BankPolicy::TwoLevelTiling);
    chip::InterpModule baseline(cfg, chip::BankPolicy::ModuloInterleave);

    const nerf::Camera cam =
        nerf::Camera::orbit({0.5f, 0.45f, 0.5f}, 1.4f, 20.0f, 25.0f, 45.0f, 256, 256);
    Pcg32 rng(4, 4);
    for (const auto *interp : {&tiled, &baseline}) {
        pipe->model().setVertexVisitor(const_cast<chip::InterpModule *>(interp));
        for (int i = 0; i < trace_rays; ++i) {
            const std::uint32_t pick = rng.nextBounded(256u * 256u);
            const Ray ray = cam.rayForPixel(static_cast<int>(pick % 256),
                                            static_cast<int>(pick / 256));
            nerf::RayEval ev;
            pipe->traceRays({&ray, 1}, rng, false, {&ev, 1});
        }
    }
    pipe->model().setVertexVisitor(nullptr);

    const chip::InterpRunStats t = tiled.stats();
    const chip::InterpRunStats b = baseline.stats();

    std::printf("(b) Interconnect area: crossbar %.0f units -> one-to-one %.0f units "
                "(%.1fx smaller)\n",
                baseline.interconnectProfile().areaUnits,
                tiled.interconnectProfile().areaUnits,
                baseline.interconnectProfile().areaUnits /
                    tiled.interconnectProfile().areaUnits);
    std::printf("(c) Mean feature-access latency: baseline %.2f cycles -> tiled %.2f "
                "cycles (%.1f%% saving)\n",
                b.meanGroupLatency, t.meanGroupLatency,
                (1.0 - t.meanGroupLatency / b.meanGroupLatency) * 100.0);
    std::printf("(d) Latency variance: baseline %.3f -> tiled %.3f (zero => balanced "
                "chips)\n",
                b.latencyVariance, t.latencyVariance);
    std::printf("    Conflicts: baseline %llu, tiled %llu over %llu groups\n",
                static_cast<unsigned long long>(b.conflicts),
                static_cast<unsigned long long>(t.conflicts),
                static_cast<unsigned long long>(t.groups));

    std::printf("(e) Group-latency histogram (cycles : groups)\n");
    std::printf("    %-10s %12s %12s\n", "cycles", "baseline", "tiled");
    for (std::uint64_t c = 1; c <= 8; ++c) {
        std::printf("    %-10llu %12.2f%% %12.2f%%\n",
                    static_cast<unsigned long long>(c),
                    baseline.sram().latencyHistogram().fraction(c) * 100.0,
                    tiled.sram().latencyHistogram().fraction(c) * 100.0);
    }
    std::printf("\n    Per-bank load (tiled should be uniform):\n    bank:  ");
    for (std::uint32_t i = 0; i < 8; ++i)
        std::printf("%10u", i);
    std::printf("\n    tiled: ");
    for (const std::uint64_t l : tiled.sram().bankLoad())
        std::printf("%10llu", static_cast<unsigned long long>(l));
    std::printf("\n    base:  ");
    for (const std::uint64_t l : baseline.sram().bankLoad())
        std::printf("%10llu", static_cast<unsigned long long>(l));
    std::printf("\n\nPaper: variance -> 0; every access aligned to a single bank; "
                "crossbar replaced by one-to-one wires.\n");
    return 0;
}
