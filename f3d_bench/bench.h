/**
 * @file
 * Shared vocabulary of the f3d_bench workloads: run options, the sizes
 * a workload runs at (full or --smoke), the generated inputs, and the
 * result every workload returns. The metric names and units declared
 * here are the ones BENCHMARK.json lists.
 */

#ifndef F3D_BENCH_BENCH_H_
#define F3D_BENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/image.h"
#include "nerf/camera.h"
#include "nerf/dataset.h"
#include "nerf/pipeline.h"
#include "nerf/trainer.h"
#include "scenes/scene.h"

namespace f3dbench
{

/** Command-line options of one run. */
struct Options
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Problem sizes: the defaults are what the benchmark measures; smoke()
 *  runs every code path at toy sizes in a few seconds. */
struct Sizes
{
    int datasetRes = 64;
    /** Training iterations per `train` rep and for the served artifact. */
    int trainIterations = 240;
    int artifactIterations = 200;
    int raysPerBatch = 1024;
    int evalEvery = 10;
    double targetPsnrDb = 32.0;
    int setupReps = 9;
    int renderRes = 128;
    /** Poses of the stratified set `render` renders in every pass. */
    int posesPerPass = 32;
    int serveRes = 64;
    int fleetModels = 32;
    /** Registry budget in model entries: about a quarter of the
     *  requests then reload an evicted model. */
    double fleetBudgetEntries = 16.5;
    int fleetSetupReps = 3;
    /** Served frames per quality sample (every Nth), and the samples
     *  taken per stream session and from the fleet. */
    int sampleEvery = 16;
    int samplesPerSession = 8;
    int fleetSamples = 12;

    static Sizes smoke();
};

/** Inputs generated once per invocation from --seed (never timed). */
struct Inputs
{
    std::unique_ptr<fusion3d::scenes::Scene> scene;
    fusion3d::nerf::Dataset data;
    /** Scratch directory for artifacts and weight dumps; removed at
     *  exit. */
    std::string dir;
    /** Trained hash-grid artifact (render and serve workloads). */
    std::string artifact;

    Inputs() = default;
    Inputs(const Inputs &) = delete;
    Inputs &operator=(const Inputs &) = delete;
    ~Inputs();
};

/**
 * Build the dataset and scratch directory and, when @p with_artifact,
 * train and save the served model. The artifact does not depend on the
 * seed; with a non-empty @p cache_dir it is kept there, keyed by this
 * binary's contents and the sizes, and reused by later runs.
 */
void makeInputs(Inputs &in, const Sizes &sz, bool with_artifact,
                const std::string &cache_dir = "");

/** Hash-grid pipeline every workload trains and serves. */
fusion3d::nerf::PipelineConfig pipelineConfig();

/** Trainer settings of the fixed training trajectory (see README). */
fusion3d::nerf::TrainerConfig trainerConfig(const Sizes &sz, int iterations);

/** Worker threads of every workload's pool; the caller (or the
 *  server's dispatch) makes it four busy threads on a 4-core host. */
inline constexpr int kPoolWorkers = 3;
inline constexpr int kServeThreads = 4;

/** A camera on the dataset's orbit rig (radius 1.4, 45 degree fov). */
fusion3d::nerf::Camera rigPose(float azim_deg, float elev_deg, int res);

/** Bytes of @p path (weights identity checks). */
std::string readFile(const std::string &path);

/** True when two images have the same size and identical float bits. */
bool sameBits(const fusion3d::Image &a, const fusion3d::Image &b);

/** Declared metric: name and unit, as in BENCHMARK.json. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

const std::vector<MetricSpec> &endToEndMetrics();
const std::vector<MetricSpec> &perLayerMetrics();

/** What one workload run measured. */
struct Result
{
    std::vector<std::string> errors;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;

    bool correct() const { return errors.empty(); }

    /** Record a failed correctness check. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            errors.push_back(what);
    }

    void set(const std::string &name, double value) { metrics[name] = value; }
};

Result runTrain(const Options &opt, const Sizes &sz, const Inputs &in);
Result runRender(const Options &opt, const Sizes &sz, const Inputs &in);
Result runServeStream(const Options &opt, const Sizes &sz, const Inputs &in);
Result runServeFleet(const Options &opt, const Sizes &sz, const Inputs &in);

} // namespace f3dbench

#endif // F3D_BENCH_BENCH_H_
