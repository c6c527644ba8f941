#include "nerf/batch_evaluator.h"

#include <atomic>

#include "obs/metrics.h"

namespace fusion3d::nerf
{

namespace
{

/** Process-wide occupancy-compaction counters behind nerf.batch.compaction.*. */
struct CompactionMetrics
{
    std::atomic<std::uint64_t> batch_samples{0};
    std::atomic<std::uint64_t> mlp_samples{0};

    CompactionMetrics()
    {
        obs::MetricsRegistry::global().registerCollector(
            "nerf.batch.compaction", [this](obs::MetricSink &sink) {
                const double b = static_cast<double>(
                    batch_samples.load(std::memory_order_relaxed));
                const double m = static_cast<double>(
                    mlp_samples.load(std::memory_order_relaxed));
                sink.counter("nerf.batch.compaction.batch_samples", b);
                sink.counter("nerf.batch.compaction.mlp_samples", m);
                sink.gauge("nerf.batch.compaction.keep_ratio",
                           b > 0.0 ? m / b : 1.0);
            });
    }
};

CompactionMetrics &
compactionMetrics()
{
    static CompactionMetrics metrics;
    return metrics;
}

/** Process-wide shard-engine counters behind nerf.train.*. */
struct TrainStats
{
    std::atomic<std::uint64_t> shard_calls{0};
    std::atomic<std::uint64_t> shards{0};
    std::atomic<std::uint64_t> sharded_samples{0};
    std::atomic<std::uint64_t> reduces{0};

    TrainStats()
    {
        obs::MetricsRegistry::global().registerCollector(
            "nerf.train", [this](obs::MetricSink &sink) {
                const double calls = static_cast<double>(
                    shard_calls.load(std::memory_order_relaxed));
                const double sh =
                    static_cast<double>(shards.load(std::memory_order_relaxed));
                sink.counter("nerf.train.shard_calls", calls);
                sink.counter("nerf.train.shards", sh);
                sink.counter("nerf.train.sharded_samples",
                             static_cast<double>(sharded_samples.load(
                                 std::memory_order_relaxed)));
                sink.counter("nerf.train.reduces",
                             static_cast<double>(
                                 reduces.load(std::memory_order_relaxed)));
                sink.gauge("nerf.train.avg_shards",
                           calls > 0.0 ? sh / calls : 0.0);
            });
    }
};

TrainStats &
trainStats()
{
    static TrainStats stats;
    return stats;
}

} // namespace

void
noteShardedCall(std::size_t samples, std::size_t shards)
{
    TrainStats &stats = trainStats();
    stats.shard_calls.fetch_add(1, std::memory_order_relaxed);
    stats.shards.fetch_add(shards, std::memory_order_relaxed);
    stats.sharded_samples.fetch_add(samples, std::memory_order_relaxed);
}

void
noteGradientReduce()
{
    trainStats().reduces.fetch_add(1, std::memory_order_relaxed);
}

void
noteCompactionMetrics(std::size_t batch_samples, std::size_t mlp_samples)
{
    CompactionMetrics &m = compactionMetrics();
    m.batch_samples.fetch_add(batch_samples, std::memory_order_relaxed);
    m.mlp_samples.fetch_add(mlp_samples, std::memory_order_relaxed);
}

} // namespace fusion3d::nerf
