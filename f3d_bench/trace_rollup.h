/**
 * @file
 * Rolls obs::Tracer spans up into per-layer metrics: a capture scope
 * that enables the tracer and collects its spans, plus span filters by
 * name and by the time windows the bench measured around its own calls
 * into the library.
 */

#ifndef F3D_BENCH_TRACE_ROLLUP_H_
#define F3D_BENCH_TRACE_ROLLUP_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "bench.h"
#include "harness.h"
#include "obs/trace.h"

namespace f3dbench
{

using fusion3d::obs::TraceEvent;
using fusion3d::obs::Tracer;

/** Records spans from construction until stop(). Construct it only
 *  while no library thread is working: it clears the span buffers. */
class TraceCapture
{
  public:
    TraceCapture()
    {
        Tracer &t = Tracer::instance();
        t.clear();
        dropped0_ = t.dropped();
        t.setEnabled(true);
    }

    ~TraceCapture() { Tracer::instance().setEnabled(false); }

    TraceCapture(const TraceCapture &) = delete;
    TraceCapture &operator=(const TraceCapture &) = delete;

    /** Suspend / resume recording; spans so far are kept. */
    void pause() { Tracer::instance().setEnabled(false); }
    void resume() { Tracer::instance().setEnabled(true); }

    /** Stop recording; returns every captured span. */
    std::vector<TraceEvent>
    stop()
    {
        Tracer &t = Tracer::instance();
        t.setEnabled(false);
        dropped_ = t.dropped() - dropped0_;
        std::vector<TraceEvent> events = t.snapshot();
        t.clear();
        return events;
    }

    /** Spans lost to full thread buffers during the capture. */
    std::uint64_t dropped() const { return dropped_; }

  private:
    std::uint64_t dropped0_ = 0;
    std::uint64_t dropped_ = 0;
};

inline bool
spanIs(const TraceEvent &e, const char *category, const char *name)
{
    return std::strcmp(e.category, category) == 0 && std::strcmp(e.name, name) == 0;
}

inline double
spanMs(const TraceEvent &e)
{
    return static_cast<double>(e.t1Ns - e.t0Ns) / 1e6;
}

/** Durations (ms) of every span named @p category / @p name. */
inline std::vector<double>
spanDurationsMs(const std::vector<TraceEvent> &events, const char *category,
                const char *name)
{
    std::vector<double> out;
    for (const TraceEvent &e : events)
        if (spanIs(e, category, name))
            out.push_back(spanMs(e));
    return out;
}

/** Disjoint time windows (tracer-epoch ns) the bench measured, e.g. one
 *  per traceRays() call; spans are attributed by their start time. */
class Windows
{
  public:
    void
    add(Clock::time_point t0, Clock::time_point t1)
    {
        const Tracer &t = Tracer::instance();
        w_.emplace_back(t.toNs(t0), t.toNs(t1));
    }

    bool
    contains(std::uint64_t ns) const
    {
        // Windows are added in time order.
        auto it = std::upper_bound(w_.begin(), w_.end(), ns,
                                   [](std::uint64_t v, const auto &w) { return v < w.first; });
        return it != w_.begin() && ns <= std::prev(it)->second;
    }

  private:
    std::vector<std::pair<std::uint64_t, std::uint64_t>> w_;
};

/** Total ms of spans named @p category / @p name starting inside @p in
 *  (every such span when @p in is null). */
inline double
busyMs(const std::vector<TraceEvent> &events, const char *category, const char *name,
       const Windows *in = nullptr)
{
    double total = 0.0;
    for (const TraceEvent &e : events)
        if (spanIs(e, category, name) && (!in || in->contains(e.t0Ns)))
            total += spanMs(e);
    return total;
}

/** Forward kernel totals: busy ms, samples (the span's batch size
 *  argument) and calls of NerfModel::forwardBatch. */
struct ForwardTotals
{
    double busyMs = 0.0;
    double samples = 0.0;
    double calls = 0.0;
};

inline ForwardTotals
forwardTotals(const std::vector<TraceEvent> &events, const Windows *in = nullptr)
{
    ForwardTotals f;
    for (const TraceEvent &e : events) {
        if (spanIs(e, "nerf", "forward_batch") && (!in || in->contains(e.t0Ns))) {
            f.busyMs += spanMs(e);
            f.samples += static_cast<double>(e.arg);
            f.calls += 1.0;
        }
    }
    return f;
}

/**
 * Per-layer metrics every workload reports from its traced window:
 * forward-kernel cost per op, pool utilization (task time over
 * @p pool_threads x @p wall_s), and the tracer's own health. A dropped
 * span fails the run, since the rollup would silently undercount.
 */
inline void
setCommonLayerMetrics(Result &r, const std::vector<TraceEvent> &events, double ops,
                      int pool_threads, double wall_s, std::uint64_t dropped)
{
    const ForwardTotals f = forwardTotals(events);
    r.set("nerf.model.forward_busy_ms", f.busyMs / ops);
    r.set("nerf.model.ns_per_sample", f.samples > 0.0 ? f.busyMs * 1e6 / f.samples : 0.0);
    r.set("nerf.model.samples_per_call", f.calls > 0.0 ? f.samples / f.calls : 0.0);
    r.set("common.thread_pool.utilization",
          busyMs(events, "thread_pool", "task") / (pool_threads * wall_s * 1e3));
    r.set("trace.dropped_spans", static_cast<double>(dropped));
    r.set("trace.spans_per_op", static_cast<double>(events.size()) / ops);
    r.check(dropped == 0, "tracer dropped spans; per-layer totals would undercount");
}

} // namespace f3dbench

#endif // F3D_BENCH_TRACE_ROLLUP_H_
