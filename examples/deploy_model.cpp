/**
 * @file
 * Example: the deployment round trip of Sec. VI-D — train on-device,
 * serialize the compact model artifact (the ~10 MB payload the paper's
 * edge-link story is built on), stream it over the USB-class link, and
 * reload it elsewhere for rendering.
 *
 * Usage: deploy_model [scene] [iterations]
 *
 * Exits 1 unless the receiver's render of test view 0 is bit-identical
 * to the sender's: the artifact carries the weights and the trained
 * occupancy gate, so nothing is re-derived on the receiving side.
 */

#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "multichip/host_link.h"
#include "nerf/pipeline.h"
#include "nerf/serialize.h"
#include "nerf/trainer.h"
#include "scenes/dataset_gen.h"
#include "scenes/factory.h"

using namespace fusion3d;

int
main(int argc, char **argv)
{
    const std::string scene_name = argc > 1 ? argv[1] : "hotdog";
    const int iterations = argc > 2 ? std::atoi(argv[2]) : 250;

    const auto scene = scenes::makeSyntheticScene(scene_name);
    scenes::DatasetConfig dc = scenes::syntheticRig(32);
    dc.reference.steps = 128;
    const nerf::Dataset data = scenes::makeDataset(*scene, dc);

    // --- Train ---
    nerf::PipelineConfig pc;
    pc.model.grid.levels = 8;
    pc.model.grid.log2TableSize = 14;
    pc.sampler.maxSamplesPerRay = 48;
    nerf::NerfPipeline pipeline(pc);
    nerf::TrainerConfig tc;
    tc.iterations = iterations;
    tc.raysPerBatch = 160;
    nerf::Trainer trainer(pipeline, data, tc);
    inform("training '%s' for %d iterations ...", scene_name.c_str(), iterations);
    const double trained_psnr = trainer.run().finalPsnr;
    inform("trained to %.2f dB", trained_psnr);

    // --- Serialize (atomically: write-to-temp, fsync, rename, so an
    // interrupted deploy never clobbers a previous artifact) ---
    const std::string path = "deployed_model.f3dm";
    if (!nerf::saveModelAtomic(pipeline.model(), path))
        fatal("could not write %s", path.c_str());
    const std::size_t bytes = nerf::modelFootprintBytes(pipeline.model());
    inform("saved %s: %.2f MB (paper: ~10 MB NeRF payloads)", path.c_str(),
           bytes / (1024.0 * 1024.0));

    // --- Link budget ---
    const auto plan = multichip::planTrainingSession(
        /*dataset_bytes=*/0.0, static_cast<double>(bytes), /*train_seconds=*/0.0);
    inform("streaming the model over USB 3.2 Gen 1 takes %.3f s",
           plan.modelOutSeconds);

    // --- Reload and render ---
    const auto loaded = nerf::loadField(path);
    const auto *hash_field = dynamic_cast<const nerf::HashGridServeField *>(loaded.get());
    if (!hash_field)
        fatal("could not reload %s as a hash-grid model", path.c_str());

    // Rebuild a pipeline around the loaded model: copy in its weights
    // and the occupancy gate the sender trained.
    nerf::NerfPipeline receiver(pc);
    if (!nerf::loadInto(receiver.model(), hash_field->model()))
        fatal("loaded model does not fit the receiver pipeline");

    const nerf::Camera &camera = data.test[0].camera;
    const Image sent = nerf::Trainer(pipeline, data, nerf::TrainerConfig{}).renderView(camera);
    const Image img = nerf::Trainer(receiver, data, nerf::TrainerConfig{}).renderView(camera);
    img.writePpm("deployed_render.ppm");
    inform("receiver renders the reloaded model at %.2f dB (sender: %.2f dB over "
           "the test views)",
           psnr(img, data.test[0].image), trained_psnr);
    inform("wrote deployed_render.ppm");

    // Same weights, same gate: the receiver's frame must be the sender's,
    // bit for bit.
    if (img.pixels().size() != sent.pixels().size() ||
        std::memcmp(img.pixels().data(), sent.pixels().data(),
                    img.pixels().size() * sizeof(Vec3f)) != 0) {
        warn("the receiver's render of test view 0 differs from the sender's");
        return 1;
    }
    inform("the receiver's render of test view 0 is bit-identical to the sender's");
    return 0;
}
