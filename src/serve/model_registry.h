/**
 * @file
 * Registry of deployed models, scaled to a *fleet*. Owns the
 * deserialized `.f3dm` radiance fields keyed by name — any backend
 * behind the ServeableField interface: hash-grid, FreqNeRF, TensoRF —
 * each serving through the occupancy gate its model was trained with
 * (carried in the `.f3dm` artifact, or by the in-memory model). An entry
 * is immutable once registered, so render workers share it without
 * locks. Every fleet mechanism below
 * (eviction, reload, breaker, hot-swap) is backend-agnostic: it sees
 * only the field interface and the artifact path.
 *
 * Fleet mechanics on top of the original always-resident map:
 *
 *  - **Budgeted eviction.** An optional memory budget
 *    (RegistryConfig::memoryBudgetBytes) bounds the bytes of resident
 *    models. Registering a model past the budget LRU-evicts idle
 *    artifact-backed entries (least recently acquired first). Entries
 *    are handed out as shared_ptr, so an in-flight render *pins* its
 *    model: a pinned entry is never evicted, and a replaced or evicted
 *    entry drains naturally when its last pin drops. Models added
 *    in-memory (add()) have no artifact to reload from and are never
 *    evicted. Eviction bumps the name's deploy epoch, so cached
 *    artifacts derived from the model (session frames in the
 *    reprojection cache) stale-miss instead of serving a ghost.
 *
 *  - **Reload-on-demand.** acquireOrReload() transparently reloads an
 *    evicted model from its remembered artifact path, riding the same
 *    retry + circuit-breaker path as an explicit deploy: the caller
 *    *stalls* (bounded by the retry budget) rather than fails, and
 *    concurrent requests for the same evicted model wait on one
 *    loader instead of thundering into storage.
 *
 *  - **Atomic hot-swap.** swap() replaces a live model between
 *    batches: the new version loads and CRC-verifies off to the side
 *    (no lock held), then a pointer swap under the lock publishes it.
 *    In-flight renders keep their pinned old version — a request's
 *    tiles are always all-old or all-new, never torn — and the old
 *    version drains when its pins drop. A failed swap (bad artifact,
 *    injected fault, open breaker) never touches the live entry.
 *
 * Deploy-from-file is hardened for lossy storage: addFromFile retries
 * failed loads with capped exponential backoff, and a per-model circuit
 * breaker stops hammering a broken artifact after K consecutive
 * failures, half-opening for a single probe once its cooldown elapses.
 * Deploy attempts, retries, breaker transitions, evictions, reloads,
 * and hot-swaps are counted and exported through obs::MetricsRegistry
 * ("serve.registry.*"). The "serve.load.io" fault point injects load
 * failures for chaos testing; hot-swaps and evictions emit trace
 * instants that also land in the flight recorder.
 */

#ifndef FUSION3D_SERVE_MODEL_REGISTRY_H_
#define FUSION3D_SERVE_MODEL_REGISTRY_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "nerf/field.h"
#include "nerf/nerf_model.h"
#include "nerf/occupancy_grid.h"
#include "nerf/serialize.h"
#include "obs/metrics.h"

namespace fusion3d::serve
{

/** One deployed model: a backend-polymorphic serveable field plus its
 *  inference occupancy gate. The member keeps its historical name
 *  (`model`) — render call sites pass `*entry->model` to the tiled
 *  renderer either way. */
struct ModelEntry
{
    std::string name;
    std::unique_ptr<nerf::ServeableField> model;
    /** The field's own gate (ServeableField::occupancy): the one its
     *  model was trained with. Render call sites pass `&entry->grid`. */
    const nerf::OccupancyGrid &grid;
    /** Deploy generation of this name: 1 on first add, bumped by every
     *  replacement (hot-swap), eviction, and removal. Cached artifacts
     *  derived from a model — session frames in the reprojection cache
     *  above all — carry the epoch and go stale when it moves. */
    std::uint64_t epoch = 0;
    /** Approximate resident bytes (weights + gate bits, plus density
     *  estimates if the gate holds any); the unit of the registry's
     *  memory-budget accounting. */
    std::size_t bytes = 0;
    /** Artifact this entry was deserialized from; empty for in-memory
     *  add()s. Only artifact-backed entries are evictable, because
     *  only they can be reloaded on demand. */
    std::string sourcePath;
    /** Numeric format this entry serves in (RegistryConfig::quantMode
     *  when the backend supports it, else fp32). */
    QuantMode quant = QuantMode::fp32;

    ModelEntry(std::string n, std::unique_ptr<nerf::ServeableField> m)
        : name(std::move(n)), model(std::move(m)), grid(model->occupancy())
    {
    }
};

/** A pinned, shareable reference to a resident model. Holding it keeps
 *  the entry alive across eviction, hot-swap, and removal. */
using ModelHandle = std::shared_ptr<const ModelEntry>;

/** Per-model deploy circuit-breaker state. */
enum class BreakerState
{
    closed,   ///< deploys flow normally
    open,     ///< deploys are rejected until the cooldown elapses
    halfOpen, ///< one probe deploy is allowed through
};

/** Human-readable name of @p state. */
const char *breakerStateName(BreakerState state);

/** What acquireOrReload() resolved. */
struct AcquireResult
{
    /** The pinned entry; null when the name is unknown or the reload
     *  failed (status says why). */
    ModelHandle entry;
    /** True when the name currently *serves* (resident, or evicted
     *  with an artifact to reload): a null entry with known=true is an
     *  internal failure (the reload failed), with known=false an
     *  unknown model (never registered, or removed). */
    bool known = false;
    /** Load status of the reload when one ran (ok for a resident hit). */
    nerf::LoadStatus status = nerf::LoadStatus::ok;
    /** True when this call (or a concurrent one it waited on)
     *  reloaded the model from its artifact. */
    bool reloaded = false;
};

/** Registry configuration: deploy hardening, budget and serving format. */
struct RegistryConfig
{
    /** Load attempts per addFromFile call (>= 1). */
    int loadMaxAttempts = 3;
    /** Delay before the first retry; doubles (multiplier) per retry. */
    double backoffInitialMs = 1.0;
    double backoffMultiplier = 2.0;
    /** Backoff cap. */
    double backoffMaxMs = 50.0;
    /** Consecutive failed addFromFile calls (per model) that trip the
     *  breaker open. */
    int breakerThreshold = 3;
    /** Open time before the breaker half-opens for one probe. */
    double breakerCooldownMs = 250.0;
    /**
     * Memory budget over resident models; 0 = unlimited (no eviction,
     * the original always-resident behaviour). When registering a
     * model pushes resident bytes past the budget, idle artifact-backed
     * entries are LRU-evicted until the registry fits again. Pinned
     * entries (in-flight renders) and the most recently used entry are
     * never evicted, so accounting can transiently exceed the budget
     * by exactly the pinned set.
     */
    std::size_t memoryBudgetBytes = 0;
    /**
     * Numeric format registered fields serve in. Non-fp32 modes build
     * packed weight images at deploy time and release the fp32 masters
     * (fp16 ~2x, int8 ~4x lower resident bytes — so the same budget
     * holds proportionally more of the fleet). The entry keeps the
     * occupancy gate the fp32 model was trained with. Backends without
     * quantization support keep serving fp32.
     */
    QuantMode quantMode = QuantMode::fp32;
};

/** Thread-safe name → model map; entries are immutable once added. */
class ModelRegistry
{
  public:
    explicit ModelRegistry(const RegistryConfig &cfg = {});

    ~ModelRegistry();

    ModelRegistry(const ModelRegistry &) = delete;
    ModelRegistry &operator=(const ModelRegistry &) = delete;

    /**
     * Register @p model under @p name, serving through the model's own
     * occupancy gate. Replaces an existing entry of
     * the same name (the old entry drains with its pins). In-memory
     * entries are exempt from eviction; adding one may still evict
     * *other* artifact-backed entries to make room.
     * @return the registered entry (valid at least until the next
     *         registry mutation; with a budget configured, prefer
     *         acquire() for anything held across calls).
     */
    const ModelEntry *add(const std::string &name,
                          std::unique_ptr<nerf::NerfModel> model);

    /** Backend-polymorphic add(): register any serveable field (e.g. a
     *  TensorfServeField or FreqServeField) under @p name. */
    const ModelEntry *add(const std::string &name,
                          std::unique_ptr<nerf::ServeableField> field);

    /**
     * Deserialize a `.f3dm` artifact and register it, retrying with
     * capped exponential backoff. Repeated failures trip the model's
     * circuit breaker; while it is open, calls return the failure
     * immediately without touching storage. On success the artifact
     * path is remembered, making the entry evictable + reloadable.
     * @return LoadStatus::ok on success (for a breaker-open reject,
     *         LoadStatus::ioError; breakerState() tells the two apart).
     */
    nerf::LoadStatus addFromFile(const std::string &name, const std::string &path);

    /**
     * Hot-swap: atomically replace the live model @p name with the
     * artifact at @p path. The new version loads and CRC-verifies off
     * to the side (retry + breaker apply), then a pointer swap under
     * the lock publishes it; in-flight renders finish on their pinned
     * old version, which drains when the pins drop. On any failure the
     * old version keeps serving untouched. Emits a "hot_swap" trace
     * instant (which also lands in the flight recorder).
     * @return LoadStatus::ok on success; ioError when @p name is not
     *         currently deployed (never registered, or removed).
     */
    nerf::LoadStatus swap(const std::string &name, const std::string &path);

    /**
     * Pin and return the resident entry named @p name (refreshing its
     * LRU position), or null when absent/evicted. Never loads.
     */
    ModelHandle acquire(const std::string &name);

    /**
     * Pin and return the entry named @p name, transparently reloading
     * it from its remembered artifact if it was evicted. A reload
     * rides the retry + circuit-breaker path, so the caller stalls
     * (bounded by the retry budget) rather than fails; concurrent
     * callers for the same evicted model wait on the one loader. See
     * AcquireResult for the failure taxonomy.
     */
    AcquireResult acquireOrReload(const std::string &name);

    /**
     * Unload @p name entirely: the resident entry (if any) is dropped
     * — in-flight pins drain it — the artifact path is forgotten, and
     * the deploy epoch is bumped so dependent caches stale-miss.
     * Subsequent requests resolve as unknown-model.
     * @return true when the name was registered.
     */
    bool removeModel(const std::string &name);

    /** @return the resident entry named @p name, or nullptr. Does not
     *  refresh LRU state. With a memory budget configured the pointer
     *  can dangle after any later registry mutation — use acquire(). */
    const ModelEntry *find(const std::string &name) const;

    /** Resident model count (evicted models do not count). */
    std::size_t size() const;

    /** Names of all resident models, sorted. */
    std::vector<std::string> names() const;

    /** Deploy-breaker state of @p name (closed if never deployed). */
    BreakerState breakerState(const std::string &name) const;

    /** Current deploy epoch of @p name (0 if never registered). */
    std::uint64_t epoch(const std::string &name) const;

    const RegistryConfig &config() const { return cfg_; }

    /** Bytes of resident models counted against the budget. */
    std::size_t residentBytes() const;

    // Deploy statistics (also exported as serve.registry.* metrics).
    std::uint64_t loadsSucceeded() const;
    std::uint64_t loadsFailed() const;
    std::uint64_t loadRetries() const;
    std::uint64_t breakerTrips() const;
    std::uint64_t breakerOpenRejects() const;
    /** Budget-pressure LRU evictions. */
    std::uint64_t evictions() const;
    /** On-demand reloads of evicted models (acquireOrReload). */
    std::uint64_t reloads() const;
    /** Successful hot-swaps. */
    std::uint64_t swaps() const;
    /** acquire()/acquireOrReload() calls answered by a resident entry. */
    std::uint64_t acquireHits() const;

  private:
    struct Breaker
    {
        BreakerState state = BreakerState::closed;
        int consecutiveFailures = 0;
        std::uint64_t trips = 0;
        std::chrono::steady_clock::time_point openedAt{};
    };

    struct Slot
    {
        std::shared_ptr<ModelEntry> entry;
        /** Position in lru_ (front = most recently acquired). */
        std::list<std::string>::iterator lruPos;
    };

    /** Shared body of add()/addFromFile(): build the entry (quant mode +
     *  byte accounting) outside the lock, publish it under the lock,
     *  then evict to budget. Empty @p source_path = in-memory deploy
     *  (forgets any remembered artifact for the name). */
    const ModelEntry *addInternal(const std::string &name,
                                  std::unique_ptr<nerf::ServeableField> field,
                                  const std::string &source_path);

    /** Evict idle artifact-backed LRU entries until resident bytes fit
     *  the budget (or nothing evictable remains). Caller holds mutex_. */
    void evictToBudgetLocked();
    void touchLocked(Slot &slot, const std::string &name);
    void collect(obs::MetricSink &sink) const;

    mutable std::mutex mutex_;
    RegistryConfig cfg_;
    std::map<std::string, Slot> entries_;
    /** Front = most recently used resident name. */
    std::list<std::string> lru_;
    /** Last known artifact path per name; survives eviction (that is
     *  the point) and replacement, dies with removeModel(). */
    std::map<std::string, std::string> source_paths_;
    /** Names with an acquireOrReload() load in flight; concurrent
     *  acquirers wait on loader_cv_ instead of duplicating the load. */
    std::set<std::string> loading_;
    std::condition_variable loader_cv_;
    std::map<std::string, Breaker> breakers_;
    /** Deploy generations per name (survives entry replacement). */
    std::map<std::string, std::uint64_t> epochs_;

    std::size_t resident_bytes_ = 0;
    std::uint64_t loads_ok_ = 0;
    std::uint64_t loads_failed_ = 0;
    std::uint64_t load_retries_ = 0;
    std::uint64_t breaker_trips_ = 0;
    std::uint64_t breaker_rejects_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t reloads_ = 0;
    std::uint64_t swaps_ = 0;
    std::uint64_t acquire_hits_ = 0;

    std::string collector_name_;
};

} // namespace fusion3d::serve

#endif // FUSION3D_SERVE_MODEL_REGISTRY_H_
