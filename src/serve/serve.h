/**
 * @file
 * Core vocabulary of the render-serving subsystem: requests, outcomes,
 * responses, and the server configuration. `fusion3d::serve` turns a
 * deserialized `.f3dm` model (the paper's ~10 MB deployment artifact,
 * Sec. VI-D) into a render *service*: requests are admitted into a
 * bounded queue, batched by model, rendered as parallel row-tiles on a
 * work-sharing thread pool, and degraded or shed under deadline
 * pressure instead of blocking.
 */

#ifndef FUSION3D_SERVE_SERVE_H_
#define FUSION3D_SERVE_SERVE_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "common/image.h"
#include "nerf/camera.h"
#include "nerf/parallel_render.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serve/reproject.h"
#include "serve/session.h"

namespace fusion3d::serve
{

/** Clock all deadlines are expressed in. */
using Clock = std::chrono::steady_clock;

/** How the server disposed of a request. */
enum class Outcome
{
    /** Rendered at the requested resolution. */
    renderedFull,
    /** Degrade step 1: rendered at half resolution, upsampled. */
    renderedHalf,
    /** Degrade step of a session hit: the session's keyframe warped
     *  into the view and served alone, holes painted background (frame
     *  reuse a la MetaVRain); the deadline could not afford the
     *  re-render. It never becomes the keyframe. */
    renderedWarp,
    /** Accelerate rung: the session's previous frame was warped into
     *  the requested view and only the invalidated tiles were
     *  ray-marched (temporal reprojection cache). Full fidelity at a
     *  fraction of the rays — not a degraded outcome. */
    renderedReproject,
    /** Shed at admission: the bounded queue was full. */
    rejectedQueueFull,
    /** Shed at dispatch: the deadline had passed, or no degrade step
     *  could meet it. */
    rejectedDeadline,
    /** The named model is not in the registry. */
    rejectedUnknownModel,
    /** Shed because the server stopped: submitted after stop()/
     *  shutdown(), or still queued when stop() shed the backlog. */
    rejectedShutdown,
    /** The render worker failed (an exception, possibly injected via
     *  the "serve.dispatch.throw" fault point). Terminal: the waiter
     *  gets this response instead of hanging on a dead promise. */
    failedInternal,
    /** Shed at admission by per-tenant QoS: the submitting tenant
     *  already holds its configured share of the queue. Other tenants
     *  are unaffected — this is the isolation working, not overload. */
    rejectedTenantQuota,
};

/** Number of Outcome values (counters, per-outcome tables). */
inline constexpr int kOutcomeCount = 10;

/** Human-readable name of @p outcome. */
const char *outcomeName(Outcome outcome);

/** True for the shed (non-image-producing) outcomes. */
bool isRejected(Outcome outcome);

/** One render request. */
struct RenderRequest
{
    /** Registry name of the model to render. */
    std::string model;
    /** View to render; its width/height set the requested resolution. */
    nerf::Camera camera;
    /** Completion deadline; max() means "no deadline". */
    Clock::time_point deadline = Clock::time_point::max();
    /** Higher priority is dequeued first. */
    int priority = 0;
    /**
     * Tenant this request bills to ("" = the anonymous default
     * tenant). Per-tenant QoS — admission quotas, in-flight caps,
     * priority aging, latency quantiles — keys on this id, so one
     * zipf-heavy tenant cannot starve the tail of the fleet.
     */
    std::string tenant;
    /**
     * Client/session id of a camera stream; empty = stateless request.
     * Session requests cache their rendered frame in the server's
     * SessionStore, and follow-up requests with the same id are served
     * by temporal reprojection (warp + partial re-render) instead of a
     * full render whenever the cached frame holds up.
     */
    std::string session;
    /**
     * Causal trace context, minted by RenderServer::submit (request id
     * + root span id). Every span emitted on behalf of this request —
     * on the dispatcher, on pool workers, inside nested tile renders —
     * is tagged with it, so the Chrome/Perfetto dump reassembles into
     * one tree per request (tools/f3d_trace). Callers leave it zero.
     */
    obs::TraceContext trace;
};

/** What the server returns for one request. */
struct RenderResponse
{
    Outcome outcome = Outcome::rejectedDeadline;
    /** Rendered (or warped) frame at the requested resolution; empty
     *  when the request was rejected. */
    Image image;
    /** Submit-to-completion latency. */
    double latencyMs = 0.0;
    /** Server-assigned request id: process-unique, increasing in
     *  submission order. */
    std::uint64_t id = 0;
};

/**
 * Per-tenant quality-of-service policy, enforced in the request queue.
 * Defaults disable every mechanism, preserving the single-tenant
 * behaviour bit for bit.
 */
struct TenantQosConfig
{
    /**
     * Requests of one tenant allowed in flight (popped but not yet
     * completed) at once; 0 = unlimited. A tenant at its cap keeps its
     * requests *queued* — they are passed over at dispatch, not
     * rejected — so the cap throttles without dropping.
     */
    int maxInFlightPerTenant = 0;
    /**
     * Fraction of the queue capacity one tenant may occupy, in
     * (0, 1]. A tenant over its share is shed at admission
     * (Outcome::rejectedTenantQuota) while other tenants still admit.
     */
    double maxQueueShare = 1.0;
    /**
     * Priority aging: effective priority grows by this much per second
     * a request has waited in the queue, so a low-priority tenant
     * behind a zipf-heavy high-priority one is guaranteed eventual
     * dispatch. 0 disables aging (strict static priority).
     */
    double agingPriorityPerSecond = 0.0;
};

/** Server configuration. */
struct ServeConfig
{
    /** Worker threads of the render pool. Requests run as pool tasks
     *  and split their frames into row-tiles on the same pool, so idle
     *  workers help finish a neighbour's frame (work sharing). */
    int renderThreads = 2;
    /** Bounded request-queue capacity (admission control). */
    int queueCapacity = 64;
    /** Max same-model requests dispatched as one batch. */
    int maxBatch = 8;
    /** Requests in flight before the dispatcher stops pulling from the
     *  queue; 0 = 2 * renderThreads. Backpressure makes overload land
     *  in the bounded queue, where admission control can see it. */
    int maxInFlight = 0;
    /** Tiled-render parameters (sampler, compositing, tile height). */
    nerf::TiledRenderConfig render;
    /** Safety factor on the cost estimate used by the degrade ladder:
     *  a request is degraded when estimated cost * headroom exceeds
     *  the time remaining until its deadline. */
    double estimateHeadroom = 1.2;
    /** Injected render delay when the "serve.dispatch.slow" fault point
     *  fires (chaos testing only; the point never fires unarmed). */
    double faultSlowRenderMs = 5.0;
    /** Per-tenant admission quotas, in-flight caps, and priority
     *  aging (multi-tenant fleets). */
    TenantQosConfig qos;
    /** Temporal reprojection of session requests (the accelerate rung
     *  above the degrade ladder). */
    ReprojectConfig reproject;
    /** Per-session frame cache behind the reprojection mode. */
    SessionStoreConfig sessionStore;
    /** SLO watchdog (latency + error burn rates over the completed
     *  requests; disabled by default). A breaching window trips a
     *  flight-recorder dump so the offending spans are preserved. */
    obs::SloConfig slo;
};

} // namespace fusion3d::serve

#endif // FUSION3D_SERVE_SERVE_H_
