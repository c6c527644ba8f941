/**
 * @file
 * Serving metrics, built on the sim::Stats package the cycle-level
 * models already use: per-outcome counters, a submit-to-completion
 * latency distribution plus a log2-microsecond histogram and a
 * log2-bucket quantile estimator (p50/p95/p99), queue-depth and
 * batch-size distributions. All recording methods are thread-safe;
 * RenderServer::drain() leaves the block consistent for printing.
 * registerWith() exposes the whole block through an
 * obs::MetricsRegistry for Prometheus/JSON export.
 */

#ifndef FUSION3D_SERVE_SERVER_STATS_H_
#define FUSION3D_SERVE_SERVER_STATS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/quantiles.h"
#include "serve/serve.h"
#include "sim/stats.h"

namespace fusion3d::serve
{

/** Thread-safe statistics block of one RenderServer. */
class ServerStats
{
  public:
    ServerStats();
    ~ServerStats();

    /** Record a request entering submit(), and the queue depth it saw. */
    void recordSubmitted(std::size_t queue_depth);

    /** Record a request leaving the server. @p id (when nonzero) feeds
     *  the worst-latency-request tracker, so the slowest request can be
     *  looked up by id in a trace dump. */
    void recordOutcome(Outcome outcome, double latency_ms,
                       std::uint64_t id = 0);

    /** Record one dispatched batch of @p size same-model requests. */
    void recordBatch(int size);

    /** Record a session-cache lookup of a session request. */
    void recordSessionLookup(bool hit);

    /**
     * Record one reprojection attempt (hit path): tiles re-rendered,
     * rays marched vs saved, and the *measured* warp-pass cost — the
     * serving layer reports measured savings, not the modeled
     * warpAssistSpeedup() estimate.
     */
    void recordReproject(const ReprojectStats &rs);

    /** Record @p n ray-marched pixels of a non-reproject render (full
     *  or half resolution), so rays/frame is comparable across modes. */
    void recordRaysMarched(std::uint64_t n);

    /**
     * Record a completed request against its tenant ("" bills to the
     * "default" tenant): outcome class plus latency into the tenant's
     * own quantile estimator, exported as serve.tenant.<t>.* metrics.
     */
    void recordTenant(const std::string &tenant, Outcome outcome,
                      double latency_ms);

    /** Requests that entered submit(). */
    std::uint64_t submitted() const;

    /** Requests that finished with @p outcome. */
    std::uint64_t count(Outcome outcome) const;

    /** Completed = all outcomes, rejected or rendered. */
    std::uint64_t completed() const;

    /** Requests served degraded (half resolution or warped). */
    std::uint64_t degraded() const;

    /** Requests shed (queue full, deadline, unknown model, shutdown). */
    std::uint64_t shed() const;

    /** Requests whose worker failed (Outcome::failedInternal). */
    std::uint64_t failed() const;

    double meanLatencyMs() const;
    double maxLatencyMs() const;
    double meanBatchSize() const;

    // Session / reprojection accounting (serve.session_* metrics).
    std::uint64_t sessionHits() const;
    std::uint64_t sessionMisses() const;
    std::uint64_t reprojectFallbacks() const;
    /** Pixels ray-marched across all render modes. */
    std::uint64_t raysMarched() const;
    /** Pixels served from the warp instead of the ray-marcher. */
    std::uint64_t raysSaved() const;
    /** Mean measured warp-pass milliseconds per reprojection. */
    double meanWarpMs() const;

    /**
     * Submit-to-completion latency at quantile @p q in [0, 1], from
     * the log2-bucket estimator (relative error <= 6.25 %).
     */
    double latencyQuantileMs(double q) const;

    double p50LatencyMs() const { return latencyQuantileMs(0.50); }
    double p95LatencyMs() const { return latencyQuantileMs(0.95); }
    double p99LatencyMs() const { return latencyQuantileMs(0.99); }
    double p999LatencyMs() const { return latencyQuantileMs(0.999); }

    /** Latency quantile over requests that finished with @p outcome. */
    double outcomeLatencyQuantileMs(Outcome outcome, double q) const;

    /** Id / latency of the slowest completed request (0 when none). */
    std::uint64_t worstLatencyRequestId() const;
    double worstLatencyMs() const;

    // Per-tenant accounting ("" normalizes to "default").
    /** Tenants seen by recordTenant, sorted. */
    std::vector<std::string> tenantNames() const;
    /** Requests of @p tenant that reached any terminal outcome. */
    std::uint64_t tenantCompleted(const std::string &tenant) const;
    /** Requests of @p tenant shed (any rejected/failed outcome). */
    std::uint64_t tenantShed(const std::string &tenant) const;
    /** Requests of @p tenant shed by its queue-share quota. */
    std::uint64_t tenantQuotaRejected(const std::string &tenant) const;
    /** Latency quantile over @p tenant's completed requests (0 when
     *  the tenant is unknown). */
    double tenantLatencyQuantileMs(const std::string &tenant, double q) const;

    /** Dump every stat in the StatGroup text format. */
    void dump(std::ostream &os) const;

    /**
     * Register this block with @p registry as collector @p name;
     * samples are taken under the block's own lock. Unregisters any
     * previous registration of this block; the destructor unregisters
     * automatically.
     */
    void registerWith(obs::MetricsRegistry &registry, const std::string &name);

    /** Append every stat as metric samples (thread-safe). */
    void collect(obs::MetricSink &sink) const;

  private:
    static constexpr int kOutcomes = kOutcomeCount;

    struct TenantStats
    {
        explicit TenantStats(const std::string &name)
            : latency("serve.tenant." + name + ".latency_ms")
        {
        }
        std::uint64_t completed = 0;
        std::uint64_t rendered = 0;
        std::uint64_t shed = 0;
        std::uint64_t quotaRejected = 0;
        obs::Quantiles latency;
    };

    /** The tenant's stats slot, created on first touch. Caller holds
     *  mutex_. */
    TenantStats &tenantSlotLocked(const std::string &tenant);

    mutable std::mutex mutex_;
    sim::StatGroup group_;
    sim::Counter &submitted_;
    sim::Counter *outcomes_[kOutcomes];
    sim::Distribution &latency_ms_;
    sim::Distribution &queue_depth_;
    sim::Distribution &batch_size_;
    sim::Histogram &latency_log2us_;
    obs::Quantiles &latency_quantiles_;
    /** Per-outcome latency quantiles ("latency_ms_<outcome>"). */
    obs::Quantiles *outcome_latency_[kOutcomes];
    std::uint64_t worst_id_ = 0;
    double worst_ms_ = 0.0;
    /** Keyed by normalized tenant id ("" → "default"). unique_ptr:
     *  obs::Quantiles is not movable across map rehashes we care to
     *  reason about, and slots are handed out by reference. */
    std::map<std::string, std::unique_ptr<TenantStats>> tenants_;
    sim::Counter &session_hits_;
    sim::Counter &session_misses_;
    sim::Counter &reproject_fallbacks_;
    sim::Counter &rays_marched_;
    sim::Counter &rays_saved_;
    sim::Distribution &reproject_tiles_pct_;
    sim::Distribution &reproject_warp_ms_;

    // Where (if anywhere) this block is registered, for unregistration.
    obs::MetricsRegistry *registry_ = nullptr;
    std::string registered_name_;
};

} // namespace fusion3d::serve

#endif // FUSION3D_SERVE_SERVER_STATS_H_
