/**
 * @file
 * The serving workloads. One generator thread drives a RenderServer
 * with four render threads:
 *
 *  - serve_stream: 8 camera sessions orbiting 0.5 degrees per frame, so
 *    the session cache turns most requests into reprojections.
 *  - serve_fleet: 32 copies of the artifact, zipf(1.1) popularity and a
 *    registry budget of 8.5 entries, so about a quarter of the requests
 *    reload an evicted model.
 *
 * A window spends half of --seconds in an open loop at the nominal
 * rate, timing each request from its *scheduled* send time (a stall
 * also charges the requests queued behind it), and half in a closed
 * loop that keeps the server saturated to measure its capacity.
 */

#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/thread_pool.h"
#include "nerf/parallel_render.h"
#include "nerf/serialize.h"
#include "scenes/reference_renderer.h"
#include "serve/model_registry.h"
#include "serve/scheduler.h"
#include "trace_rollup.h"

namespace f3dbench
{

using namespace fusion3d;

namespace
{

constexpr double kZipfExponent = 1.1;
/** Served frames of identical bits read as this PSNR, not infinity. */
constexpr double kMinMse = 1e-10;

/** One request to send: its schedule slot and what it asks for. */
struct Arrival
{
    /** Send time relative to the rung start (open loop only). */
    double atS = 0.0;
    int session = -1;
    int frame = 0;
    int model = 0;
    /** Request index within its rung; fleet poses follow it. */
    std::uint64_t index = 0;
    /** Keep the response image for the quality checks. */
    bool sample = false;
};

/** What one phase of the window measured. */
struct Rung
{
    double durationS = 0.0;
    /** Open loop: latency from the scheduled send time. */
    std::vector<double> latencyMs;
    std::vector<double> latenessMs;
    std::uint64_t sent = 0;
    std::uint64_t failed = 0;
    /** Closed loop: responses completed per second of the phase. */
    double completedPerS = 0.0;
    std::vector<std::pair<Arrival, Image>> samples;
};

bool
rendered(serve::Outcome o)
{
    return o == serve::Outcome::renderedFull || o == serve::Outcome::renderedReproject;
}

/** Fisher-Yates shuffle driven by the workload seed. */
template <class T>
void
shuffle(std::vector<T> &v, Pcg32 &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.nextBounded(static_cast<std::uint32_t>(i))]);
}

double
psnrOfMse(double mse_sum, std::size_t n)
{
    return -10.0 * std::log10(std::max(mse_sum / static_cast<double>(n), kMinMse));
}

/** A serving scenario: how models deploy and what traffic looks like. */
class Scenario
{
  public:
    virtual ~Scenario() = default;

    virtual double nominalRate() const = 0;
    virtual int setupReps() const = 0;
    /** Requests the closed loop keeps in flight. */
    virtual int closedLoopDepth() const = 0;
    /** Build a registry holding the deployed models (timed as set-up). */
    virtual std::unique_ptr<serve::ModelRegistry> deploy() = 0;
    /** Untimed preparation between set-up and the window. */
    virtual void warm(serve::ModelRegistry &) {}
    /** The request that times the first result after set-up. */
    virtual serve::RenderRequest firstRequest() const = 0;
    /** The open-loop arrivals of one rung, in time order. */
    virtual std::vector<Arrival> schedule(Pcg32 &rng, double rate, double duration_s) = 0;
    /**
     * The next closed-loop request of in-flight slot @p slot. A fixed
     * set of them is marked for the quality check: with one request in
     * flight per slot nothing overtakes, so the set and what the server
     * returns for it do not depend on timing.
     */
    virtual Arrival next(Pcg32 &rng, int slot) = 0;
    /** How many next() arrivals are marked for the quality check. */
    virtual int samplesWanted() const = 0;
    virtual serve::RenderRequest request(const Arrival &a) const = 0;
    /** Quality of the closed loop's sampled frames, with the scenario's
     *  checks. */
    virtual double samplesPsnr(const Rung &rung, serve::ModelRegistry &reg,
                               Result &r) = 0;

  protected:
    nerf::TiledRenderConfig render_;
    ThreadPool checkPool_{kPoolWorkers};
};

class StreamScenario final : public Scenario
{
  public:
    static constexpr int kSessions = 8;

    StreamScenario(const Sizes &sz, const Inputs &in)
        : sz_(sz), in_(in), nextFrame_(2 * kSessions, 0)
    {}

    double nominalRate() const override { return kSessions * 20.0; }
    int setupReps() const override { return sz_.setupReps; }
    /** One request in flight per session: each viewer waits for its
     *  frame before asking for the next. */
    int closedLoopDepth() const override { return kSessions; }
    int samplesWanted() const override { return kSessions * sz_.samplesPerSession; }

    std::unique_ptr<serve::ModelRegistry>
    deploy() override
    {
        auto reg = std::make_unique<serve::ModelRegistry>(serve::RegistryConfig{});
        std::unique_ptr<nerf::ServeableField> field = nerf::loadField(in_.artifact);
        if (!field)
            throw std::runtime_error("cannot load " + in_.artifact);
        reg->add("lego", std::move(field));
        return reg;
    }

    serve::RenderRequest
    firstRequest() const override
    {
        serve::RenderRequest req;
        req.model = "lego";
        req.camera = rigPose(0.0f, 25.0f, sz_.serveRes);
        return req;
    }

    std::vector<Arrival>
    schedule(Pcg32 &rng, double rate, double duration_s) override
    {
        const double hz = rate / kSessions;
        std::vector<Arrival> out;
        for (int s = 0; s < kSessions; ++s) {
            // Sessions start in evenly spaced slots of the frame period,
            // jittered within the first half of their slot: the seed
            // moves them without letting them pile up on one instant.
            const double phase = (s + 0.5 * rng.nextFloat()) / (kSessions * hz);
            for (int j = 0; phase + j / hz < duration_s; ++j) {
                Arrival a = frameOf(s);
                a.atS = phase + j / hz;
                out.push_back(a);
            }
        }
        std::sort(out.begin(), out.end(),
                  [](const Arrival &a, const Arrival &b) { return a.atS < b.atS; });
        return out;
    }

    /** Closed-loop viewers are fresh sessions on the same orbits, so
     *  their frame chains start from a full render. */
    Arrival
    next(Pcg32 &, int slot) override
    {
        Arrival a = frameOf(kSessions + slot);
        a.sample = a.frame % sz_.sampleEvery == sz_.sampleEvery - 1 &&
                   a.frame < sz_.sampleEvery * sz_.samplesPerSession;
        return a;
    }

    serve::RenderRequest
    request(const Arrival &a) const override
    {
        const int orbit = a.session % kSessions;
        serve::RenderRequest req;
        req.model = "lego";
        req.session = "session" + std::to_string(a.session);
        req.camera = rigPose(45.0f * orbit + 0.5f * a.frame,
                             15.0f + 20.0f * orbit / (kSessions - 1), sz_.serveRes);
        return req;
    }

    /**
     * Served frame vs a full render of the same camera: the error the
     * reprojection cache adds. A black or garbage frame reads below
     * 12 dB; the baseline's warped frames read about 16 dB (README).
     */
    double
    samplesPsnr(const Rung &rung, serve::ModelRegistry &reg, Result &r) override
    {
        r.check(!rung.samples.empty(), "serve_stream sampled no frames");
        if (rung.samples.empty())
            return 0.0;
        const serve::ModelHandle e = reg.acquire("lego");
        double mse_sum = 0.0;
        for (const auto &[a, image] : rung.samples)
            mse_sum += mse(image, nerf::renderImageTiled(*e->model, &e->grid,
                                                         request(a).camera, render_,
                                                         &checkPool_));
        const double db = psnrOfMse(mse_sum, rung.samples.size());
        r.check(db >= 12.0, "served frames below 12 dB against a full render");
        return db;
    }

  private:
    Arrival
    frameOf(int session)
    {
        Arrival a;
        a.session = session;
        a.frame = nextFrame_[static_cast<std::size_t>(session)]++;
        return a;
    }

    const Sizes &sz_;
    const Inputs &in_;
    std::vector<int> nextFrame_;
};

class FleetScenario final : public Scenario
{
  public:
    FleetScenario(const Sizes &sz, const Inputs &in) : sz_(sz), in_(in)
    {
        for (int i = 0; i < sz.fleetModels; ++i) {
            paths_.push_back(in.dir + "/" + name(i) + ".f3dm");
            std::filesystem::copy_file(in.artifact, paths_.back(),
                                       std::filesystem::copy_options::overwrite_existing);
        }
        // Entry size from one unbudgeted deploy; this registry also
        // renders the reference frames of the bit-exactness check.
        if (reference_.addFromFile("reference", in.artifact) != nerf::LoadStatus::ok)
            throw std::runtime_error("cannot deploy " + in.artifact);
        entryBytes_ = reference_.residentBytes();

        double total = 0.0;
        for (int k = 0; k < sz.fleetModels; ++k) {
            total += 1.0 / std::pow(k + 1.0, kZipfExponent);
            cdf_.push_back(total);
        }
        for (double &c : cdf_)
            c /= total;
    }

    double nominalRate() const override { return 20.0; }
    int setupReps() const override { return sz_.fleetSetupReps; }
    /** The server's own in-flight limit (2 x render threads). */
    int closedLoopDepth() const override { return 2 * kServeThreads; }
    int samplesWanted() const override { return sz_.fleetSamples; }

    static std::string name(int i) { return "copy" + std::to_string(i); }

    std::unique_ptr<serve::ModelRegistry>
    deploy() override
    {
        serve::RegistryConfig rc;
        rc.memoryBudgetBytes =
            static_cast<std::size_t>(sz_.fleetBudgetEntries * static_cast<double>(entryBytes_));
        auto reg = std::make_unique<serve::ModelRegistry>(rc);
        for (int i = 0; i < sz_.fleetModels; ++i)
            if (reg->addFromFile(name(i), paths_[static_cast<std::size_t>(i)]) !=
                nerf::LoadStatus::ok)
                throw std::runtime_error("cannot deploy " + paths_[static_cast<std::size_t>(i)]);
        return reg;
    }

    /** Deploying leaves the *last* models resident; touch the zipf head,
     *  least popular first, so the window starts in steady state. */
    void
    warm(serve::ModelRegistry &reg) override
    {
        for (int k = static_cast<int>(sz_.fleetBudgetEntries) - 1; k >= 0; --k)
            reg.acquireOrReload(name(k));
    }

    serve::RenderRequest firstRequest() const override { return request(Arrival{}); }

    /**
     * Paced arrivals: one slot per 1/rate, each request jittered within
     * +-40 % of its slot. Poisson arrivals made the median latency move
     * by a third between seeds, as bursts did or did not meet a reload.
     */
    std::vector<Arrival>
    schedule(Pcg32 &rng, double rate, double duration_s) override
    {
        const std::size_t n = std::max<std::size_t>(1, std::lround(rate * duration_s));
        std::vector<Arrival> out;
        for (std::size_t i = 0; i < n; ++i) {
            Arrival a;
            a.atS = (static_cast<double>(i) + 0.5 + 0.8 * (rng.nextFloat() - 0.5)) / rate;
            a.model = pick();
            a.index = i;
            out.push_back(a);
        }
        return out;
    }

    Arrival
    next(Pcg32 &, int) override
    {
        Arrival a;
        a.model = pick();
        a.index = closedIndex_++;
        const auto every = static_cast<std::uint64_t>(sz_.sampleEvery);
        a.sample = a.index % every == every - 1 &&
                   a.index < every * static_cast<std::uint64_t>(sz_.fleetSamples);
        return a;
    }

    serve::RenderRequest
    request(const Arrival &a) const override
    {
        serve::RenderRequest req;
        req.model = name(a.model);
        req.camera = rigPose(static_cast<float>((a.index * 11) % 360),
                             15.0f + 5.0f * static_cast<float>((a.index * 7) % 5),
                             sz_.serveRes);
        return req;
    }

    /** Sampled frames must equal renderImageTiled of the artifact bit for
     *  bit; their quality is measured against the scene's ground truth. */
    double
    samplesPsnr(const Rung &rung, serve::ModelRegistry &, Result &r) override
    {
        const serve::ModelHandle ref = reference_.acquire("reference");
        // Every copy serves identical frames and poses follow the
        // request index, so the measured set is the same on every run.
        double mse_sum = 0.0;
        for (const auto &[a, image] : rung.samples) {
            const nerf::Camera cam = request(a).camera;
            const Image expect =
                nerf::renderImageTiled(*ref->model, &ref->grid, cam, render_, &checkPool_);
            r.check(sameBits(image, expect),
                    "fleet response differs from renderImageTiled of its artifact");
            mse_sum += mse(image, scenes::referenceRender(*in_.scene, cam, {}));
        }
        r.check(!rung.samples.empty(), "serve_fleet sampled no frames");
        return rung.samples.empty() ? 0.0 : psnrOfMse(mse_sum, rung.samples.size());
    }

  private:
    /**
     * The model sequence is the same for every seed: blocks holding each
     * model in its zipf share (the distribution's evenly spaced
     * quantiles), in a fixed shuffled order. Which requests reload then
     * repeats from run to run; with seeded picks the reload share moved
     * the median latency by a third between seeds.
     */
    int
    pick()
    {
        if (picks_.empty()) {
            constexpr int kBlock = 128;
            for (int i = 0; i < kBlock; ++i) {
                const double u = (i + 0.5) / kBlock;
                picks_.push_back(std::min(
                    static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin()),
                    sz_.fleetModels - 1));
            }
            shuffle(picks_, pickRng_);
        }
        const int model = picks_.back();
        picks_.pop_back();
        return model;
    }

    const Sizes &sz_;
    const Inputs &in_;
    std::vector<std::string> paths_;
    serve::ModelRegistry reference_;
    std::size_t entryBytes_ = 0;
    std::vector<double> cdf_;
    std::vector<int> picks_;
    Pcg32 pickRng_{0x2191, 0xf1ee7};
    std::uint64_t closedIndex_ = 0;
};

/** A registry and the server over it; the server stops first. */
struct Deployment
{
    std::unique_ptr<serve::ModelRegistry> registry;
    std::unique_ptr<serve::RenderServer> server;
};

serve::ServeConfig
serveConfig()
{
    serve::ServeConfig sc;
    sc.renderThreads = kServeThreads;
    // Far beyond any backlog a window builds, so nothing is shed.
    sc.queueCapacity = 1 << 14;
    return sc;
}

/** Send @p sched on time from this (the only generator) thread, then
 *  drain and collect every response. */
Rung
driveOpen(Scenario &scenario, serve::RenderServer &server, const std::vector<Arrival> &sched,
          double duration_s)
{
    Rung rung;
    rung.durationS = duration_s;
    struct Sent
    {
        std::future<serve::RenderResponse> future;
        double latenessMs;
    };
    std::vector<Sent> sent;
    sent.reserve(sched.size());

    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    for (const Arrival &a : sched) {
        const Clock::time_point due = start + fromSeconds(a.atS);
        std::this_thread::sleep_until(due);
        serve::RenderRequest req = scenario.request(a);
        const double late_ms = msBetween(due, Clock::now());
        sent.push_back({server.submit(std::move(req)), late_ms});
    }
    server.drain();

    for (std::size_t i = 0; i < sent.size(); ++i) {
        const serve::RenderResponse resp = sent[i].future.get();
        ++rung.sent;
        rung.failed += rendered(resp.outcome) ? 0 : 1;
        rung.latenessMs.push_back(sent[i].latenessMs);
        rung.latencyMs.push_back(sent[i].latenessMs + resp.latencyMs);
    }
    return rung;
}

/** Capacity: keep closedLoopDepth() requests in flight from this one
 *  thread for @p duration_s, keeping the sampled responses. A host too
 *  slow to send every sampled request in time keeps going, uncounted,
 *  until it has. */
Rung
driveClosed(Scenario &scenario, serve::RenderServer &server, Pcg32 &rng, double duration_s)
{
    Rung rung;
    rung.durationS = duration_s;
    struct Slot
    {
        Arrival arrival;
        std::future<serve::RenderResponse> future;
    };
    std::vector<Slot> slots(static_cast<std::size_t>(scenario.closedLoopDepth()));
    int sampled_sent = 0;
    const auto send = [&](std::size_t i) {
        slots[i].arrival = scenario.next(rng, static_cast<int>(i));
        sampled_sent += slots[i].arrival.sample ? 1 : 0;
        slots[i].future = server.submit(scenario.request(slots[i].arrival));
    };
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end = t0 + fromSeconds(duration_s);
    for (std::size_t i = 0; i < slots.size(); ++i)
        send(i);
    std::uint64_t completed = 0;
    Clock::time_point last_done = t0;
    for (std::size_t live = slots.size(); live > 0;) {
        bool progressed = false;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            Slot &slot = slots[i];
            if (!slot.future.valid() ||
                slot.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
                continue;
            progressed = true;
            serve::RenderResponse resp = slot.future.get();
            ++rung.sent;
            if (!rendered(resp.outcome))
                ++rung.failed;
            else if (slot.arrival.sample)
                rung.samples.emplace_back(slot.arrival, std::move(resp.image));
            const Clock::time_point now = Clock::now();
            const bool in_window = now < end;
            if (in_window) {
                ++completed;
                last_done = now;
            }
            if (in_window || sampled_sent < scenario.samplesWanted())
                send(i);
            else
                --live;
        }
        if (!progressed)
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    rung.completedPerS = static_cast<double>(completed) / msBetween(t0, last_done) * 1e3;
    return rung;
}

/** Session and registry counters; snapshots subtract into the change
 *  over a rung. */
struct Counters
{
    double sessionHits = 0, sessionMisses = 0, raysMarched = 0, raysSaved = 0;
    double reloads = 0;

    static Counters
    of(const serve::RenderServer &server, const serve::ModelRegistry &reg)
    {
        return {static_cast<double>(server.stats().sessionHits()),
                static_cast<double>(server.stats().sessionMisses()),
                static_cast<double>(server.stats().raysMarched()),
                static_cast<double>(server.stats().raysSaved()),
                static_cast<double>(reg.reloads())};
    }

    Counters &
    operator+=(const Counters &o)
    {
        sessionHits += o.sessionHits;
        sessionMisses += o.sessionMisses;
        raysMarched += o.raysMarched;
        raysSaved += o.raysSaved;
        reloads += o.reloads;
        return *this;
    }

    Counters
    operator-(const Counters &o) const
    {
        return {sessionHits - o.sessionHits, sessionMisses - o.sessionMisses,
                raysMarched - o.raysMarched, raysSaved - o.raysSaved, reloads - o.reloads};
    }
};

/** Append @p part's requests to @p into. */
void
merge(Rung &into, const Rung &part)
{
    into.durationS += part.durationS;
    into.latencyMs.insert(into.latencyMs.end(), part.latencyMs.begin(), part.latencyMs.end());
    into.latenessMs.insert(into.latenessMs.end(), part.latenessMs.begin(),
                           part.latenessMs.end());
    into.sent += part.sent;
    into.failed += part.failed;
}

/** Rolls the traced rungs' spans (@p events) and counter changes
 *  (@p c) up into the serve-layer metrics. */
void
serveLayerMetrics(Result &r, const std::vector<TraceEvent> &events, const Rung &rung,
                  const Counters &c, double batch_size_mean)
{
    struct Phases
    {
        double queue = 0, dispatch = 0, execute = 0, request = 0;
        bool hasRequest = false, reloaded = false;
    };
    std::unordered_map<std::uint64_t, Phases> req;
    std::vector<double> queue, dispatch, execute;
    for (const TraceEvent &e : events) {
        if (std::strcmp(e.category, "serve") != 0 || e.requestId == 0)
            continue;
        Phases &p = req[e.requestId];
        if (spanIs(e, "serve", "queue_wait")) {
            p.queue += spanMs(e);
            queue.push_back(spanMs(e));
        } else if (spanIs(e, "serve", "dispatch_wait")) {
            p.dispatch += spanMs(e);
            dispatch.push_back(spanMs(e));
        } else if (spanIs(e, "serve", "execute")) {
            p.execute += spanMs(e);
            execute.push_back(spanMs(e));
        } else if (spanIs(e, "serve", "request")) {
            p.request += spanMs(e);
            p.hasRequest = true;
        } else if (spanIs(e, "serve", "reload_on_demand")) {
            // A marker emitted when execute() had to reload the model.
            p.reloaded = true;
        }
    }
    double covered = 0.0, latency = 0.0;
    std::vector<double> reload_exec;
    for (const auto &[id, p] : req) {
        if (!p.hasRequest)
            continue;
        covered += p.queue + p.dispatch + p.execute;
        latency += p.request;
        if (p.reloaded)
            reload_exec.push_back(p.execute);
    }
    r.set("serve.queue_wait_ms_p50", quantile(queue, 0.5));
    r.set("serve.queue_wait_ms_p99", quantile(queue, 0.99));
    r.set("serve.dispatch_wait_ms_p50", quantile(dispatch, 0.5));
    r.set("serve.execute_ms_p50", quantile(execute, 0.5));
    r.set("serve.execute_ms_p99", quantile(execute, 0.99));
    r.set("serve.render_full_ms_p50",
          quantile(spanDurationsMs(events, "serve", "render_full"), 0.5));
    r.set("serve.batch_size_mean", batch_size_mean);
    r.set("serve.coverage", latency > 0.0 ? covered / latency : 0.0);

    const double lookups = c.sessionHits + c.sessionMisses;
    r.set("serve.session.hit_rate", lookups > 0 ? c.sessionHits / lookups : 0.0);
    r.set("serve.reproject.ray_fraction",
          c.raysSaved > 0 ? c.raysMarched / (c.raysMarched + c.raysSaved) : 0.0);
    r.set("serve.reproject.warp_ms_p50",
          quantile(spanDurationsMs(events, "serve", "reproject_warp"), 0.5));
    r.set("serve.reproject.tiles_ms_p50",
          quantile(spanDurationsMs(events, "serve", "reproject_tiles"), 0.5));

    // Share of requests whose model was resident (a reload also counts
    // the re-acquire after it as a registry hit, so use the reloads).
    const double ops = static_cast<double>(std::max<std::uint64_t>(rung.sent, 1));
    r.set("serve.registry.hit_rate", 1.0 - c.reloads / ops);
    r.set("serve.registry.reloads_per_s", c.reloads / rung.durationS);
    const std::vector<double> reload_ms = spanDurationsMs(events, "serve", "registry_reload");
    r.set("serve.registry.reload_ms_p50", quantile(reload_ms, 0.5));
    r.set("serve.registry.reload_ms_p99", quantile(reload_ms, 0.99));
    r.set("serve.reload_on_demand_ms_p50", quantile(reload_exec, 0.5));
    r.set("loadgen.lateness_ms_p99", quantile(rung.latenessMs, 0.99));

    r.set("nerf.parallel_render.tile_busy_ms",
          busyMs(events, "parallel_render", "row_tile") / ops);
    r.set("nerf.sampler.samples_per_ray",
          c.raysMarched > 0 ? forwardTotals(events).samples / c.raysMarched : 0.0);
}

Result
runServe(const Options &opt, Scenario &scenario)
{
    Result r;
    const serve::ServeConfig sc = serveConfig();

    // Set-up: deploy and start the server, then time one request to the
    // first result. Repeated; the last deployment serves the window.
    std::vector<double> setup, to_result;
    Deployment dep;
    for (int k = 0; k < scenario.setupReps(); ++k) {
        dep.server.reset();
        dep.registry.reset();
        const Clock::time_point t0 = Clock::now();
        dep.registry = scenario.deploy();
        dep.server = std::make_unique<serve::RenderServer>(*dep.registry, sc);
        const double s = secondsSince(t0);
        const serve::RenderResponse first = dep.server->submit(scenario.firstRequest()).get();
        to_result.push_back(secondsSince(t0));
        setup.push_back(s);
        ++r.attempted;
        r.failed += rendered(first.outcome) ? 0 : 1;
    }
    scenario.warm(*dep.registry);
    serve::RenderServer &server = *dep.server;

    Pcg32 rng(opt.seed, 0x5e7e);
    const double nominal = scenario.nominalRate();
    const double half = opt.seconds / 2.0;
    const auto account = [&r](const Rung &rung) {
        r.attempted += rung.sent;
        r.failed += rung.failed;
        r.check(rung.failed == 0, "requests failed");
    };

    if (!opt.trace) {
        const Rung base = driveOpen(scenario, server, scenario.schedule(rng, nominal, half), half);
        account(base);
        const Rung capacity = driveClosed(scenario, server, rng, half);
        account(capacity);
        r.set("setup_s", median(setup));
        r.set("time_to_result_s", median(to_result));
        r.set("ops_per_s", capacity.completedPerS);
        r.set("latency_ms_p50", quantile(base.latencyMs, 0.5));
        r.set("latency_ms_p95", quantile(base.latencyMs, 0.95));
        r.set("psnr_db", scenario.samplesPsnr(capacity, *dep.registry, r));
        return r;
    }

    // Traced run: nominal-rate rungs of a quarter window, alternately
    // untraced and traced, so both halves see the same spells of host
    // noise; the traced ones feed the per-layer rollup.
    const double quarter = opt.seconds / 4.0;
    Rung plain, traced;
    Counters traced_counts;
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0;
    {
        TraceCapture cap;
        for (int k = 0; k < 4; ++k) {
            const bool on = k % 2 == 1;
            const Counters before = Counters::of(server, *dep.registry);
            if (on)
                cap.resume();
            else
                cap.pause();
            const Rung part =
                driveOpen(scenario, server, scenario.schedule(rng, nominal, quarter), quarter);
            cap.pause();
            account(part);
            merge(on ? traced : plain, part);
            if (on)
                traced_counts += Counters::of(server, *dep.registry) - before;
        }
        events = cap.stop();
        dropped = cap.dropped();
    }
    serveLayerMetrics(r, events, traced, traced_counts, server.stats().meanBatchSize());
    setCommonLayerMetrics(r, events, static_cast<double>(std::max<std::uint64_t>(traced.sent, 1)),
                          kServeThreads, traced.durationS, dropped);
    // Open-loop throughput is the offered rate, so the headline that
    // tracing can move is the median latency.
    const double p50_plain = quantile(plain.latencyMs, 0.5);
    r.set("trace.overhead_frac",
          p50_plain > 0.0 ? quantile(traced.latencyMs, 0.5) / p50_plain - 1.0 : 0.0);
    return r;
}

} // namespace

Result
runServeStream(const Options &opt, const Sizes &sz, const Inputs &in)
{
    StreamScenario scenario(sz, in);
    return runServe(opt, scenario);
}

Result
runServeFleet(const Options &opt, const Sizes &sz, const Inputs &in)
{
    FleetScenario scenario(sz, in);
    return runServe(opt, scenario);
}

} // namespace f3dbench
