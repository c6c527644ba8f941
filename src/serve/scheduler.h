/**
 * @file
 * The render server proper: admission control → priority queue →
 * batching dispatcher → work-sharing thread pool, with deadline
 * enforcement and graceful degradation.
 *
 * A request's life:
 *  1. submit() assigns a process-unique id (one counter shared by
 *     every server, so traces of co-resident servers never merge) and
 *     pushes the request into the bounded queue; a full queue sheds
 *     it immediately (Outcome::rejectedQueueFull).
 *  2. The dispatcher thread pops batches of same-model requests,
 *     honouring a max-in-flight bound so overload backs up into the
 *     bounded queue (where admission control can see it) instead of
 *     into an unbounded pool backlog.
 *  3. Each request runs as a pool task that splits its frame into
 *     row-tiles on the same pool — idle workers help finish a
 *     neighbour's frame, so a single big frame still uses all cores.
 *  4. At render start the scheduler turns the time left until the
 *     deadline into a pixel budget with an online cost estimate (EWMA
 *     of measured per-pixel seconds, times estimateHeadroom; unlimited
 *     with no deadline or no estimate yet). A request carrying a
 *     session id whose keyframe is cached (same model, same deploy
 *     epoch, within TTL) is served by temporal reprojection: the
 *     keyframe is warped into the requested view and only the
 *     invalidated tiles are ray-marched (serve/reproject). When the
 *     budget cannot afford that re-render, the warp is served alone
 *     (Outcome::renderedWarp) and the keyframe is left as it was.
 *     Stateless requests and session misses walk the degrade ladder:
 *       full render → half-resolution render (upsampled) → shed
 *     (Outcome::rejectedDeadline). Expired deadlines shed outright.
 *     The SessionStore is the server's only frame cache, so a request
 *     is never served another client's frame.
 *
 * Every outcome is counted in ServerStats; drain() blocks until all
 * admitted requests completed, so the stats block is consistent when
 * printed.
 */

#ifndef FUSION3D_SERVE_SCHEDULER_H_
#define FUSION3D_SERVE_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "nerf/image_warp.h"
#include "obs/slo.h"
#include "serve/model_registry.h"
#include "serve/reproject.h"
#include "serve/request_queue.h"
#include "serve/serve.h"
#include "serve/server_stats.h"
#include "serve/session.h"

namespace fusion3d::serve
{

/** A running render service over a ModelRegistry. */
class RenderServer
{
  public:
    /**
     * @param registry Deployed models; must outlive the server.
     *                 Non-const: serving an evicted model reloads it
     *                 on demand (ModelRegistry::acquireOrReload).
     * @param cfg      Queueing / threading / degrade parameters.
     */
    RenderServer(ModelRegistry &registry, const ServeConfig &cfg);

    /** Shuts down: rejects new work, completes admitted work, joins. */
    ~RenderServer();

    RenderServer(const RenderServer &) = delete;
    RenderServer &operator=(const RenderServer &) = delete;

    /**
     * Submit a render request. Never blocks: a full queue or a closed
     * server resolves the future immediately with a rejection.
     */
    std::future<RenderResponse> submit(RenderRequest request);

    /** Block until every admitted request has completed. */
    void drain();

    /** drain(), then print the ServerStats block to @p os. */
    void drainAndPrintStats(std::ostream &os);

    /** Stop admitting, drain, and join all serving threads. */
    void shutdown();

    /**
     * Fast shutdown: stop admitting and *shed* the queued backlog
     * (Outcome::rejectedShutdown) instead of rendering it, so every
     * submitted request still reaches a terminal outcome but no waiter
     * blocks on work the server will never do. In-flight renders are
     * completed. Idempotent, like shutdown().
     */
    void stop();

    const ServeConfig &config() const { return cfg_; }
    const ServerStats &stats() const { return stats_; }
    /** SLO watchdog; null unless cfg.slo.enabled. */
    const obs::SloMonitor *slo() const { return slo_.get(); }
    /** The server's only frame cache: per-session keyframes behind
     *  temporal reprojection and the warp-degrade rung. */
    const SessionStore &sessions() const { return sessions_; }
    std::size_t queueDepth() const { return queue_.depth(); }

    /** Current EWMA of measured render seconds per pixel (0 until the
     *  first frame completes). Exposed for tests and the load bench. */
    double estimatedSecondsPerPixel() const;

  private:
    void dispatchLoop();
    /** Resolve the model (pinning it; reload-on-demand if evicted),
     *  run the ladder, finish. Runs on a pool worker, so a reload
     *  stalls one request, not the dispatcher. */
    void executeRequest(QueuedRequest qr);
    RenderResponse runLadder(QueuedRequest &qr, const ModelEntry *entry);
    void finish(QueuedRequest &qr, RenderResponse &&response);
    void noteRenderCost(double seconds, std::uint64_t pixels);
    /** Serve a session hit by reprojection, ray-marching at most
     *  @p ray_budget pixels; true when @p response was produced. */
    bool tryReproject(QueuedRequest &qr, const ModelEntry *entry,
                      std::uint64_t ray_budget, RenderResponse &response);
    /** Make @p frame, rendered by @p entry, @p session's keyframe. */
    void storeKeyframe(const std::string &session, const ModelEntry *entry,
                       nerf::DepthFrame &&frame,
                       std::vector<std::uint16_t> &&tile_age);

    ModelRegistry &registry_;
    ServeConfig cfg_;
    ServerStats stats_;
    /** Created (and registered as a metrics collector) when
     *  cfg.slo.enabled; a breaching window dumps the flight recorder. */
    std::unique_ptr<obs::SloMonitor> slo_;
    SessionStore sessions_;
    RequestQueue queue_;
    ThreadPool pool_;

    /** Set by stop(): the dispatcher sheds queued requests instead of
     *  rendering them. */
    std::atomic<bool> shed_on_close_{false};

    // Admitted-but-unfinished accounting (drain + dispatcher backpressure).
    mutable std::mutex flight_mutex_;
    std::condition_variable flight_cv_;
    std::uint64_t pending_ = 0;   ///< admitted, promise not yet set
    int in_flight_ = 0;           ///< handed to the pool, still running

    // Online cost model: EWMA of seconds per rendered pixel.
    mutable std::mutex estimate_mutex_;
    double est_seconds_per_pixel_ = 0.0;

    std::thread dispatcher_;
};

} // namespace fusion3d::serve

#endif // FUSION3D_SERVE_SCHEDULER_H_
