#include "serve/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "nerf/parallel_render.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace fusion3d::serve
{

namespace
{

/** Next request id, shared by every RenderServer in the process: ids
 *  key trace trees, flight-recorder entries and SLO windows, which
 *  must not merge across co-resident servers. */
std::atomic<std::uint64_t> g_next_request_id{1};

/** Outcomes that consume the SLO error budget. Shutdown shedding is
 *  excluded: draining a stopping server is not a service failure. */
bool
isSloError(Outcome outcome)
{
    return outcome == Outcome::failedInternal ||
           outcome == Outcome::rejectedDeadline ||
           outcome == Outcome::rejectedQueueFull ||
           outcome == Outcome::rejectedUnknownModel ||
           outcome == Outcome::rejectedTenantQuota;
}

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double
secondsUntil(Clock::time_point deadline)
{
    if (deadline == Clock::time_point::max())
        return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(deadline - Clock::now()).count();
}

/** Pixels the ray-marcher can afford in @p seconds at @p cost_per_pixel
 *  seconds each; unlimited with no deadline or no estimate yet. */
std::uint64_t
affordablePixels(double seconds, double cost_per_pixel)
{
    constexpr std::uint64_t unlimited = std::numeric_limits<std::uint64_t>::max();
    if (cost_per_pixel <= 0.0)
        return unlimited;
    const double pixels = seconds / cost_per_pixel;
    return pixels < static_cast<double>(unlimited)
               ? static_cast<std::uint64_t>(pixels)
               : unlimited;
}

/** Nearest-neighbour upsample of a degraded render back to the
 *  requested resolution, so clients always receive w x h frames. */
Image
upsample(const Image &src, int w, int h)
{
    Image out(w, h);
    for (int y = 0; y < h; ++y) {
        const int sy = std::min(y * src.height() / h, src.height() - 1);
        for (int x = 0; x < w; ++x) {
            const int sx = std::min(x * src.width() / w, src.width() - 1);
            out.at(x, y) = src.at(sx, sy);
        }
    }
    return out;
}

} // namespace

RenderServer::RenderServer(ModelRegistry &registry, const ServeConfig &cfg)
    : registry_(registry),
      cfg_(cfg),
      sessions_(cfg.sessionStore),
      queue_([&cfg] {
          QueueConfig qc;
          qc.capacity = static_cast<std::size_t>(std::max(cfg.queueCapacity, 1));
          qc.qos = cfg.qos;
          return qc;
      }()),
      pool_(std::max(cfg.renderThreads, 1))
{
    if (cfg_.maxInFlight <= 0)
        cfg_.maxInFlight = 2 * std::max(cfg.renderThreads, 1);
    // Expose this server's stats process-wide; the collector name only
    // keys unregistration (~ServerStats), so a counter keeps servers
    // that coexist (benches sweep thread counts) from colliding.
    static std::atomic<std::uint64_t> server_seq{0};
    const unsigned long long seq = server_seq.fetch_add(1);
    stats_.registerWith(obs::MetricsRegistry::global(),
                        strprintf("serve.server%llu", seq));
    sessions_.registerWith(obs::MetricsRegistry::global(),
                           strprintf("serve.sessions%llu", seq));
    if (cfg_.slo.enabled) {
        slo_ = std::make_unique<obs::SloMonitor>(
            cfg_.slo, [](const obs::SloWindowReport &report) {
                obs::Tracer::instance().recordInstant(
                    "slo", report.errorBurn > report.latencyBurn
                               ? "breach_error_budget"
                               : "breach_latency_budget");
                warn("SLO breach: %llu/%llu requests over target "
                     "(burn latency %.2f error %.2f), worst id %llu "
                     "(%.2f ms)",
                     static_cast<unsigned long long>(report.overTarget),
                     static_cast<unsigned long long>(report.requests),
                     report.latencyBurn, report.errorBurn,
                     static_cast<unsigned long long>(report.worstRequestId),
                     report.worstLatencyMs);
                obs::FlightRecorder::instance().triggerDump("slo_breach");
            });
        slo_->registerWith(obs::MetricsRegistry::global(),
                           strprintf("serve.slo%llu", seq));
    }
    dispatcher_ = std::thread([this]() { dispatchLoop(); });
}

RenderServer::~RenderServer()
{
    shutdown();
}

std::future<RenderResponse>
RenderServer::submit(RenderRequest request)
{
    QueuedRequest qr;
    qr.request = std::move(request);
    qr.id = g_next_request_id.fetch_add(1);
    // Mint the request's causal trace context: the request id plus the
    // id of the root "request" span finish() will emit. Every span from
    // here to completion — including tile renders on pool workers —
    // parents into this tree.
    obs::Tracer &tracer = obs::Tracer::instance();
    qr.request.trace.requestId = qr.id;
    qr.request.trace.parentSpanId =
        tracer.capturing() ? tracer.nextSpanId() : 0;
    obs::ScopedTraceContext trace_ctx(qr.request.trace);
    F3D_TRACE_SPAN("serve", "submit");
    // Stamped inside the submit span, so the root span (backdated to
    // this stamp) starts within a phase: a request rejected at
    // admission is then fully attributed to "submit".
    qr.enqueued = Clock::now();
    std::future<RenderResponse> future = qr.promise.get_future();

    stats_.recordSubmitted(queue_.depth());

    {
        // Count the request as pending *before* the push so drain()
        // never misses it, then roll back if admission failed.
        std::lock_guard<std::mutex> lock(flight_mutex_);
        ++pending_;
    }
    const PushResult admitted = queue_.push(std::move(qr));
    if (admitted != PushResult::ok) {
        // NB: push leaves qr intact on failure.
        RenderResponse response;
        switch (admitted) {
          case PushResult::closed:
            response.outcome = Outcome::rejectedShutdown;
            break;
          case PushResult::tenantQuota:
            response.outcome = Outcome::rejectedTenantQuota;
            break;
          default:
            response.outcome = Outcome::rejectedQueueFull;
            break;
        }
        response.id = qr.id;
        response.latencyMs = msSince(qr.enqueued);
        finish(qr, std::move(response));
    }
    return future;
}

void
RenderServer::dispatchLoop()
{
    std::vector<QueuedRequest> batch;
    while (queue_.popBatch(batch, cfg_.maxBatch)) {
        F3D_TRACE_SPAN_ARG("serve", "dispatch_batch", batch.size());
        stats_.recordBatch(static_cast<int>(batch.size()));

        // One queue-wait span per request, backdated to its enqueue
        // time: in a Perfetto view the wait sits directly before the
        // render span of the same request id.
        {
            obs::Tracer &tracer = obs::Tracer::instance();
            const auto popped = Clock::now();
            for (QueuedRequest &qr : batch)
                qr.dispatched = popped;
            if (tracer.capturing()) {
                const std::uint64_t now = tracer.toNs(popped);
                for (const QueuedRequest &qr : batch) {
                    obs::ScopedTraceContext trace_ctx(qr.request.trace);
                    tracer.recordArg("serve", "queue_wait",
                                     tracer.toNs(qr.enqueued), now, qr.id);
                }
            }
        }

        for (QueuedRequest &qr : batch) {
            // Dispatcher-side work runs under the request's context so
            // shed outcomes and the backpressure wait attribute to it.
            obs::ScopedTraceContext trace_ctx(qr.request.trace);
            if (shed_on_close_.load(std::memory_order_relaxed)) {
                // stop() is shedding the backlog: terminal outcome,
                // no render.
                RenderResponse response;
                response.outcome = Outcome::rejectedShutdown;
                finish(qr, std::move(response));
                continue;
            }

            // Model resolution happens on the pool worker
            // (executeRequest), not here: resolving an evicted model
            // can stall on a reload, and that stall must cost one
            // worker, never the dispatcher serving the whole fleet.

            // Backpressure: keep at most maxInFlight requests in the
            // pool so overload accumulates in the bounded queue.
            {
                std::unique_lock<std::mutex> lock(flight_mutex_);
                flight_cv_.wait(lock,
                                [this]() { return in_flight_ < cfg_.maxInFlight; });
                ++in_flight_;
            }
            auto task = std::make_shared<QueuedRequest>(std::move(qr));
            // The pool captures the current (= this request's) context
            // at enqueue and restores it around the task, so the
            // executing worker inherits it even when stolen by a
            // helping thread.
            pool_.submit([this, task]() {
                executeRequest(std::move(*task));
                // Notify under the lock: a drain()ing thread may destroy
                // this condition variable as soon as it observes the
                // decrement, so the broadcast must be ordered before it.
                std::lock_guard<std::mutex> lock(flight_mutex_);
                --in_flight_;
                flight_cv_.notify_all();
            });
        }
        batch.clear();
    }
}

void
RenderServer::executeRequest(QueuedRequest qr)
{
    // Belt and braces: the pool already restored the enqueue context,
    // but executeRequest must also be correct when called inline.
    obs::ScopedTraceContext trace_ctx(qr.request.trace);
    obs::Tracer &tracer = obs::Tracer::instance();
    if (tracer.capturing() && qr.dispatched.time_since_epoch().count() != 0) {
        // Backdated span for the pop-to-execution gap (backpressure
        // wait plus pool queueing), so the causal tree accounts for it.
        tracer.recordArg("serve", "dispatch_wait", tracer.toNs(qr.dispatched),
                         tracer.nowNs(), qr.id);
    }
    F3D_TRACE_SPAN("serve", "execute");

    // Resolve-and-pin: the handle keeps this entry alive for the whole
    // request even if it is evicted, swapped, or removed mid-render, so
    // every tile of the request sees one model version (never a torn
    // read). An evicted model transparently reloads here, riding the
    // retry + breaker path — the request stalls bounded, the dispatcher
    // keeps flowing.
    const AcquireResult acq = registry_.acquireOrReload(qr.request.model);
    if (!acq.entry) {
        RenderResponse response;
        // Unknown name → client error; known-but-unloadable (reload
        // failed, breaker open) → server fault.
        response.outcome = acq.known ? Outcome::failedInternal
                                     : Outcome::rejectedUnknownModel;
        if (acq.known)
            warn("RenderServer: request %llu for '%s' failed to reload (%s)",
                 static_cast<unsigned long long>(qr.id),
                 qr.request.model.c_str(), nerf::loadStatusName(acq.status));
        finish(qr, std::move(response));
        return;
    }
    if (acq.reloaded)
        F3D_TRACE_SPAN_ARG("serve", "reload_on_demand", qr.id);
    const ModelEntry *entry = acq.entry.get();

    RenderResponse response;
    try {
        response = runLadder(qr, entry);
    } catch (const std::exception &e) {
        // A worker exception must still resolve the promise: without
        // this, the waiter blocks forever and in_flight_ never drops
        // (the packaged_task inside ThreadPool::submit would swallow
        // the exception into a future nobody reads).
        F3D_TRACE_SPAN_ARG("serve", "worker_exception", qr.id);
        warn("RenderServer: request %llu failed in worker: %s",
             static_cast<unsigned long long>(qr.id), e.what());
        // Preserve the spans and log lines leading up to the failure.
        obs::FlightRecorder::instance().triggerDump("worker_exception");
        response = RenderResponse{};
        response.outcome = Outcome::failedInternal;
    }
    finish(qr, std::move(response));
}

RenderResponse
RenderServer::runLadder(QueuedRequest &qr, const ModelEntry *entry)
{
    if (F3D_FAULT_POINT("serve.dispatch.slow")) {
        // Chaos: pretend this worker stalled (page fault, thermal
        // throttle, noisy neighbour) for faultSlowRenderMs.
        F3D_TRACE_SPAN_ARG("serve", "fault_slow", qr.id);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(cfg_.faultSlowRenderMs));
    }
    if (F3D_FAULT_POINT("serve.dispatch.throw"))
        throw std::runtime_error("injected worker fault (serve.dispatch.throw)");

    const nerf::Camera &camera = qr.request.camera;
    const std::uint64_t pixels =
        static_cast<std::uint64_t>(camera.width()) * camera.height();

    RenderResponse response;
    response.id = qr.id;

    const double budget = secondsUntil(qr.request.deadline);
    if (budget <= 0.0) {
        F3D_TRACE_SPAN_ARG("serve", "shed_deadline_expired", qr.id);
        response.outcome = Outcome::rejectedDeadline;
        return response;
    }

    // The cost estimate every rung is judged by: measured seconds per
    // ray-marched pixel times the safety headroom (0 until the first
    // frame completes).
    const double cost_per_pixel =
        estimatedSecondsPerPixel() * cfg_.estimateHeadroom;

    // A session hit is served by temporal reprojection: warp the
    // session's keyframe, ray-march only the invalidated tiles, or
    // serve the warp alone when the deadline cannot afford them.
    if (tryReproject(qr, entry, affordablePixels(budget, cost_per_pixel),
                     response))
        return response;

    const double est_full = cost_per_pixel * static_cast<double>(pixels);

    // Every render below hands this request's rays to the batched SoA
    // evaluation core (tiles submit ray batches through
    // ServeableField::evalBatch); the span records the ray count so batch
    // occupancy is visible next to the ladder decisions.
    F3D_TRACE_SPAN_ARG("serve", "dispatch_rays", pixels);

    const auto t0 = Clock::now();
    if (est_full <= budget) {
        // Full-resolution render; on a session it becomes the keyframe.
        F3D_TRACE_SPAN_ARG("serve", "render_full", qr.id);
        nerf::DepthFrame frame = nerf::renderDepthFrameTiled(
            *entry->model, &entry->grid, camera, cfg_.render, &pool_);
        noteRenderCost(std::chrono::duration<double>(Clock::now() - t0).count(),
                       pixels);
        stats_.recordRaysMarched(pixels);
        response.image = frame.color;
        response.outcome = Outcome::renderedFull;
        if (!qr.request.session.empty())
            storeKeyframe(qr.request.session, entry, std::move(frame),
                          freshTileAges(camera, cfg_.reproject.tileSize,
                                        cfg_.reproject.maxTileAge));
        return response;
    }

    if (est_full / 4.0 <= budget) {
        // Degrade step 1: drop resolution 2x per axis and upsample.
        F3D_TRACE_SPAN_ARG("serve", "render_half", qr.id);
        const nerf::Camera half = camera.withResolution(
            std::max(camera.width() / 2, 1), std::max(camera.height() / 2, 1));
        const Image small = nerf::renderImageTiled(*entry->model, &entry->grid,
                                                   half, cfg_.render, &pool_);
        noteRenderCost(std::chrono::duration<double>(Clock::now() - t0).count(),
                       static_cast<std::uint64_t>(half.width()) * half.height());
        stats_.recordRaysMarched(static_cast<std::uint64_t>(half.width()) *
                                 half.height());
        response.image = upsample(small, camera.width(), camera.height());
        response.outcome = Outcome::renderedHalf;
        return response;
    }

    // Out of degrade steps: shed explicitly instead of blocking.
    F3D_TRACE_SPAN_ARG("serve", "shed_no_degrade_left", qr.id);
    response.outcome = Outcome::rejectedDeadline;
    return response;
}

void
RenderServer::finish(QueuedRequest &qr, RenderResponse &&response)
{
    response.id = qr.id;
    response.latencyMs = msSince(qr.enqueued);
    obs::Tracer &tracer = obs::Tracer::instance();
    if (tracer.capturing() && qr.request.trace.parentSpanId != 0) {
        // The root span of this request's causal tree, backdated to
        // submit time: its duration IS the measured latency, its span
        // id was minted at submit so every other span parents into it,
        // and its arg records the outcome.
        obs::ScopedTraceContext trace_ctx(
            obs::TraceContext{qr.id, 0});
        tracer.recordSpan("serve", "request", tracer.toNs(qr.enqueued),
                          tracer.nowNs(), qr.request.trace.parentSpanId, 0,
                          static_cast<std::uint64_t>(response.outcome), true);
    }
    stats_.recordOutcome(response.outcome, response.latencyMs, qr.id);
    stats_.recordTenant(qr.request.tenant, response.outcome,
                        response.latencyMs);
    if (slo_)
        slo_->record(response.latencyMs, isSloError(response.outcome), qr.id);
    if (qr.tenantSlot) {
        // Give the tenant's in-flight slot back; a dispatcher blocked
        // on this tenant's cap wakes here. Every popped request passes
        // through finish() exactly once (render, shed, or throw), so
        // slots cannot leak.
        qr.tenantSlot = false;
        queue_.release(qr.request.tenant);
    }
    qr.promise.set_value(std::move(response));
    // Notify under the lock (see dispatchLoop): keeps the broadcast
    // ordered before any waiter that goes on to destroy the server.
    std::lock_guard<std::mutex> lock(flight_mutex_);
    --pending_;
    flight_cv_.notify_all();
}

void
RenderServer::noteRenderCost(double seconds, std::uint64_t pixels)
{
    if (pixels == 0)
        return;
    const double per_pixel = seconds / static_cast<double>(pixels);
    std::lock_guard<std::mutex> lock(estimate_mutex_);
    est_seconds_per_pixel_ = est_seconds_per_pixel_ == 0.0
                                 ? per_pixel
                                 : 0.7 * est_seconds_per_pixel_ + 0.3 * per_pixel;
}

double
RenderServer::estimatedSecondsPerPixel() const
{
    std::lock_guard<std::mutex> lock(estimate_mutex_);
    return est_seconds_per_pixel_;
}

bool
RenderServer::tryReproject(QueuedRequest &qr, const ModelEntry *entry,
                           std::uint64_t ray_budget, RenderResponse &response)
{
    if (qr.request.session.empty())
        return false;
    auto prev = sessions_.get(qr.request.session, entry->name, entry->epoch);
    stats_.recordSessionLookup(prev.has_value());
    if (!prev)
        return false;

    // Named for the rung that served the frame, known once the tiles
    // are classified.
    obs::ScopedSpan span("serve", "render_reproject", qr.id);
    ReprojectOutput out =
        reprojectRender(*entry->model, &entry->grid, qr.request.camera, *prev,
                        cfg_.render, cfg_.reproject, &pool_, ray_budget);
    if (out.stats.warpOnly)
        span.rename("render_warp");
    // Feed the cost model with the pixels that were actually marched —
    // the estimate stays in per-ray-marched-pixel units either way.
    if (out.stats.raysRendered > 0 && out.stats.renderSeconds > 0.0)
        noteRenderCost(out.stats.renderSeconds, out.stats.raysRendered);
    stats_.recordReproject(out.stats);

    response.image = out.frame.color;
    response.outcome = out.stats.warpOnly      ? Outcome::renderedWarp
                       : out.stats.reprojected ? Outcome::renderedReproject
                                               : Outcome::renderedFull;
    // A warp served alone never becomes the keyframe, so no frame is a
    // warp of a warp.
    if (!out.stats.warpOnly)
        storeKeyframe(qr.request.session, entry, std::move(out.frame),
                      std::move(out.tileAge));
    return true;
}

void
RenderServer::storeKeyframe(const std::string &session, const ModelEntry *entry,
                            nerf::DepthFrame &&frame,
                            std::vector<std::uint16_t> &&tile_age)
{
    SessionFrame sf;
    sf.frame = std::make_shared<const nerf::DepthFrame>(std::move(frame));
    sf.model = entry->name;
    sf.epoch = entry->epoch;
    sf.tileSize = cfg_.reproject.tileSize;
    sf.tileAge = std::move(tile_age);
    sessions_.put(session, std::move(sf));
}

void
RenderServer::drain()
{
    // in_flight_ drops after the request's promise is set; waiting for
    // both means no worker still has its hands on server state when
    // drain() returns (the destructor relies on this).
    std::unique_lock<std::mutex> lock(flight_mutex_);
    flight_cv_.wait(lock, [this]() { return pending_ == 0 && in_flight_ == 0; });
}

void
RenderServer::drainAndPrintStats(std::ostream &os)
{
    drain();
    stats_.dump(os);
}

void
RenderServer::shutdown()
{
    if (!queue_.closed())
        queue_.close();
    drain();
    if (dispatcher_.joinable())
        dispatcher_.join();
    // Close the partial SLO window so short runs still report burn
    // rates (and can still breach) before the server goes away.
    if (slo_)
        slo_->closeWindow();
}

void
RenderServer::stop()
{
    // Order matters: flag first, so anything the dispatcher pops after
    // the close() drains as rejectedShutdown instead of rendering.
    shed_on_close_.store(true, std::memory_order_relaxed);
    shutdown();
}

} // namespace fusion3d::serve
