/**
 * @file
 * f3d_bench: one benchmark for reconstruction, rendering and serving.
 *
 *   f3d_bench --workload <train|render|serve_stream|serve_fleet>
 *             [--seed N] [--seconds S] [--trace 0|1] [--reps N] [--cache DIR]
 *   f3d_bench --smoke
 *
 * A run generates its inputs from --seed, measures one workload for
 * --seconds (repeated --reps times), checks the outputs, and prints one
 * JSON result as its last line: the end-to-end metrics with --trace 0,
 * the per-layer rollup of a separate traced run with --trace 1. See
 * README.md for what each workload and metric means.
 */

#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "bench.h"
#include "common/logging.h"
#include "harness.h"

using namespace f3dbench;

namespace
{

using RunFn = Result (*)(const Options &, const Sizes &, const Inputs &);

struct Workload
{
    const char *name;
    RunFn run;
    bool needsArtifact;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"train", runTrain, false},
        {"render", runRender, true},
        {"serve_stream", runServeStream, true},
        {"serve_fleet", runServeFleet, true},
    };
    return all;
}

/** Median of each metric over the reps; every declared metric of the
 *  mode is reported (per-layer metrics a workload does not exercise
 *  read 0). */
Result
mergeReps(const std::vector<Result> &reps, bool trace)
{
    Result out;
    for (const Result &r : reps) {
        out.errors.insert(out.errors.end(), r.errors.begin(), r.errors.end());
        out.attempted += r.attempted;
        out.failed += r.failed;
    }
    for (const MetricSpec &m : trace ? perLayerMetrics() : endToEndMetrics()) {
        std::vector<double> values;
        for (const Result &r : reps) {
            const auto it = r.metrics.find(m.name);
            if (it != r.metrics.end())
                values.push_back(it->second);
            else if (trace)
                values.push_back(0.0);
            else
                throw std::logic_error(std::string("workload did not report ") + m.name);
        }
        const Summary s = summarize(values);
        out.set(m.name, s.median);
        std::printf("  %-46s %14.6g %-5s  q1 %.6g  q3 %.6g  min %.6g  max %.6g  n %zu\n",
                    m.name, s.median, m.unit, s.q1, s.q3, s.min, s.max, s.n);
    }
    return out;
}

std::string
resultJson(const Result &r, bool trace)
{
    JsonWriter w;
    w.beginObject()
        .key("correct").boolean(r.correct())
        .key("attempted").integer(std::max<std::uint64_t>(r.attempted, 1))
        .key("failed").integer(r.failed)
        .key("metrics").beginObject();
    for (const MetricSpec &m : trace ? perLayerMetrics() : endToEndMetrics()) {
        w.key(m.name).beginObject();
        w.key("value").number(r.metrics.at(m.name));
        w.key("unit").string(m.unit);
        w.endObject();
    }
    w.endObject().endObject();
    return w.str();
}

Result
runWorkload(const Workload &wl, const Options &opt, const Sizes &sz, const Inputs &in,
            int reps)
{
    std::vector<Result> results;
    for (int k = 0; k < reps; ++k)
        results.push_back(wl.run(opt, sz, in));
    Result merged = mergeReps(results, opt.trace);
    for (const std::string &e : merged.errors)
        std::fprintf(stderr, "check failed [%s]: %s\n", wl.name, e.c_str());
    return merged;
}

/** Every workload at toy sizes, untraced and traced, plus the JSON
 *  writer's refusal of non-finite numbers. */
int
runSmoke()
{
    const Sizes sz = Sizes::smoke();
    Inputs in;
    makeInputs(in, sz, true);
    bool ok = true;
    try {
        JsonWriter().number(std::numeric_limits<double>::quiet_NaN());
        std::fprintf(stderr, "smoke: JSON writer accepted NaN\n");
        ok = false;
    } catch (const std::domain_error &) {
    }
    for (const Workload &wl : workloads()) {
        for (const bool trace : {false, true}) {
            Options opt;
            opt.seconds = 0.3;
            opt.trace = trace;
            const Result r = runWorkload(wl, opt, sz, in, 1);
            ok = ok && r.correct();
            std::printf("%s\n", resultJson(r, trace).c_str());
        }
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::int64_t seed = 1;
    double seconds = 10.0;
    std::int64_t trace = 0;
    std::int64_t reps = 1;
    std::string cache;
    bool smoke = false;
    const std::vector<FlagSpec> flags = {
        {"workload", &workload, "train | render | serve_stream | serve_fleet"},
        {"seed", &seed, "input seed, >= 0 (default 1)"},
        {"seconds", &seconds, "measurement window, (0, 3600] (default 10)"},
        {"trace", &trace, "0 = end-to-end metrics, 1 = traced per-layer metrics"},
        {"reps", &reps, "repeat the measurement, report medians (default 1)"},
        {"cache", &cache, "directory that keeps the seed-independent trained artifact"},
        {"smoke", &smoke, "every workload at toy sizes, untraced and traced"},
    };
    if (!parseFlags(argc, argv, flags))
        return 2;

    const auto wl = std::find_if(workloads().begin(), workloads().end(),
                                 [&](const Workload &w) { return workload == w.name; });
    const bool valid = seed >= 0 && seconds > 0.0 && seconds <= 3600.0 &&
                       (trace == 0 || trace == 1) && reps >= 1 && reps <= 1000 &&
                       (smoke ? workload.empty() : wl != workloads().end());
    if (!valid) {
        std::fprintf(stderr, "error: need --workload (or --smoke alone) and in-range values\n");
        printUsage(argv[0], flags);
        return 2;
    }
    fusion3d::setLogLevel(fusion3d::LogLevel::warning);

    try {
        if (smoke)
            return runSmoke();
        Options opt;
        opt.seed = static_cast<std::uint64_t>(seed);
        opt.seconds = seconds;
        opt.trace = trace == 1;
        const Sizes sz;
        Inputs in;
        makeInputs(in, sz, wl->needsArtifact, cache);
        std::printf("stamp %s\n", machineStamp(opt.seed).c_str());
        const Result r = runWorkload(*wl, opt, sz, in, static_cast<int>(reps));
        std::printf("%s\n", resultJson(r, opt.trace).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "f3d_bench: %s\n", e.what());
        return 1;
    }
}
