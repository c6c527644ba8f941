/**
 * @file
 * Low-overhead span tracer serializing to the Chrome trace-event JSON
 * format (loadable in Perfetto / chrome://tracing). Design points:
 *
 *  - *lock-free hot path*: each thread appends completed spans to its
 *    own fixed-capacity buffer; the only synchronization is one
 *    release-store of the buffer size per span, so concurrent readers
 *    (writeChromeTrace) see a consistent prefix without ever blocking
 *    a recording thread;
 *  - *cheap when disabled*: every instrumentation site first checks a
 *    relaxed atomic capture mask — one load and a predictable branch;
 *  - *request-scoped*: a thread-local TraceContext carries the owning
 *    request id and the innermost open span id, so every span lands in
 *    one causal tree per request (reassembled by tools/f3d_trace);
 *  - *compiled out entirely* with -DFUSION3D_TRACE_DISABLED, turning
 *    the F3D_TRACE_* macros into no-ops;
 *  - span category/name are `const char *` with static storage
 *    duration (string literals), so recording never allocates.
 *
 * The capture mask has two independent consumers: bit 0 is the full
 * tracer (thread buffers -> Chrome dump, off by default), bit 1 the
 * always-on FlightRecorder ring of recent history (see
 * obs/flight_recorder.h). A span is timed when either is on.
 *
 * `fusion3d::obs` is the bottom of the library dependency order: it
 * uses only the standard library, so even `common` (ThreadPool) can be
 * instrumented without a cycle.
 */

#ifndef FUSION3D_OBS_TRACE_H_
#define FUSION3D_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace fusion3d::obs
{

/** One completed span, timestamps in ns since the tracer epoch. */
struct TraceEvent
{
    const char *category = nullptr; ///< static string (literal)
    const char *name = nullptr;     ///< static string (literal)
    std::uint64_t t0Ns = 0;
    std::uint64_t t1Ns = 0;
    /** Optional numeric payload (batch size, row index, request id). */
    std::uint64_t arg = 0;
    bool hasArg = false;
    /** Owning request (0 = not request-scoped). */
    std::uint64_t requestId = 0;
    /** This span's id (0 = anonymous) and its parent span (0 = root). */
    std::uint64_t spanId = 0;
    std::uint64_t parentId = 0;
};

/**
 * Causal context of the current thread: which request the work belongs
 * to and which open span is the innermost parent. Minted by
 * RenderServer::submit, carried in RenderRequest, and captured /
 * restored across ThreadPool task boundaries so spans on worker
 * threads still attribute to the submitting request.
 */
struct TraceContext
{
    std::uint64_t requestId = 0;
    std::uint64_t parentSpanId = 0;
};

/** The calling thread's current context ({0,0} outside any request). */
const TraceContext &currentTraceContext();

/** Overwrite the calling thread's context (prefer ScopedTraceContext). */
void setCurrentTraceContext(const TraceContext &ctx);

/** Swap the innermost-parent span id, returning the previous value. */
std::uint64_t traceExchangeParent(std::uint64_t parent_span_id);

/** RAII: install @p ctx on this thread, restore the old context on exit. */
class ScopedTraceContext
{
  public:
    explicit ScopedTraceContext(const TraceContext &ctx)
        : prev_(currentTraceContext())
    {
        setCurrentTraceContext(ctx);
    }

    ~ScopedTraceContext() { setCurrentTraceContext(prev_); }

    ScopedTraceContext(const ScopedTraceContext &) = delete;
    ScopedTraceContext &operator=(const ScopedTraceContext &) = delete;

  private:
    TraceContext prev_;
};

/** Process-wide span collector. All methods are thread-safe. */
class Tracer
{
  public:
    /** Events each thread can hold; further spans are dropped. */
    static constexpr std::size_t kThreadCapacity = 1 << 16;

    /** Capture-mask bits (see file comment). */
    static constexpr unsigned kCaptureTrace = 1u;
    static constexpr unsigned kCaptureFlight = 2u;

    static Tracer &instance();

    /** Start/stop recording. Spans while disabled cost one atomic load. */
    void setEnabled(bool on) { setCaptureBit(kCaptureTrace, on); }

    bool
    enabled() const
    {
        return (capture_.load(std::memory_order_relaxed) & kCaptureTrace) != 0;
    }

    /** FlightRecorder feed (on by default; FlightRecorder::setEnabled). */
    void setFlightCapture(bool on) { setCaptureBit(kCaptureFlight, on); }

    /** True when any consumer (tracer or flight recorder) wants spans. */
    bool
    capturing() const
    {
        return capture_.load(std::memory_order_relaxed) != 0;
    }

    /** Fresh process-unique span id (never 0). */
    std::uint64_t
    nextSpanId()
    {
        return next_span_id_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Nanoseconds since the tracer epoch (steady clock). */
    std::uint64_t nowNs() const;

    /** Convert a steady_clock time_point to tracer-epoch nanoseconds. */
    std::uint64_t toNs(std::chrono::steady_clock::time_point tp) const;

    /**
     * Record one completed span on the calling thread's buffer.
     * @p category and @p name must have static storage duration.
     * No-op when disabled; drops (and counts) when the buffer is full.
     * The span is tagged with the thread's current TraceContext and a
     * fresh span id, parented to the innermost open scoped span.
     */
    void record(const char *category, const char *name, std::uint64_t t0_ns,
                std::uint64_t t1_ns);

    /** record() with a numeric payload serialized into "args". */
    void recordArg(const char *category, const char *name, std::uint64_t t0_ns,
                   std::uint64_t t1_ns, std::uint64_t arg);

    /**
     * Fully explicit variant: record a span with the given span/parent
     * ids (0 parent = tree root). Used by the serve scheduler to emit
     * the per-request root span with the id minted at submit time.
     */
    void recordSpan(const char *category, const char *name,
                    std::uint64_t t0_ns, std::uint64_t t1_ns,
                    std::uint64_t span_id, std::uint64_t parent_id,
                    std::uint64_t arg, bool has_arg);

    /**
     * Record a zero-duration marker span at "now" (e.g. a fault fire or
     * a breaker trip). One capturing() check when tracing is off.
     */
    void recordInstant(const char *category, const char *name);

    /** Spans currently buffered across all threads. */
    std::size_t eventCount() const;

    /** Spans dropped because a thread buffer was full. */
    std::uint64_t dropped() const;

    /**
     * Serialize every buffered span as Chrome trace-event JSON
     * ({"traceEvents":[...]}, "X" complete events, ts/dur in us).
     * Request-scoped spans carry "req"/"span"/"parent" in "args".
     * Safe to call while other threads record: each thread buffer's
     * published prefix is serialized.
     */
    void writeChromeTrace(std::ostream &os) const;

    /**
     * Copy of every published span (test/analysis hook; the in-process
     * equivalent of parsing the Chrome dump).
     */
    std::vector<TraceEvent> snapshot() const;

    /**
     * Discard all buffered spans. Call only while no other thread is
     * recording (e.g. between bench configurations).
     */
    void clear();

  private:
    struct ThreadBuffer
    {
        explicit ThreadBuffer(std::uint32_t tid_)
            : tid(tid_), events(std::allocator<TraceEvent>().allocate(kThreadCapacity))
        {
        }
        ~ThreadBuffer() { std::allocator<TraceEvent>().deallocate(events, kThreadCapacity); }
        ThreadBuffer(const ThreadBuffer &) = delete;
        ThreadBuffer &operator=(const ThreadBuffer &) = delete;

        std::uint32_t tid;
        /** kThreadCapacity slots, left unwritten until a span fills them:
         *  a thread touches only the pages it records into, instead of
         *  zero-filling the whole buffer on its first span. */
        TraceEvent *events;
        /** Published event count: slots < size are immutable. */
        std::atomic<std::size_t> size{0};
    };

    Tracer();

    void
    setCaptureBit(unsigned bit, bool on)
    {
        if (on)
            capture_.fetch_or(bit, std::memory_order_relaxed);
        else
            capture_.fetch_and(~bit, std::memory_order_relaxed);
    }

    ThreadBuffer &localBuffer();

    /** Flight recorder starts enabled: the black box is always on. */
    std::atomic<unsigned> capture_{kCaptureFlight};
    std::atomic<std::uint64_t> next_span_id_{1};
    std::atomic<std::uint64_t> dropped_{0};
    std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex registry_mutex_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/** RAII span: opens at construction, records at destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(const char *category, const char *name)
        : category_(category), name_(name)
    {
        Tracer &tracer = Tracer::instance();
        if (tracer.capturing()) {
            active_ = true;
            t0_ = tracer.nowNs();
            span_id_ = tracer.nextSpanId();
            // Become the innermost parent for spans opened inside us.
            parent_id_ = traceExchangeParent(span_id_);
        }
    }

    ScopedSpan(const char *category, const char *name, std::uint64_t arg)
        : ScopedSpan(category, name)
    {
        arg_ = arg;
        has_arg_ = true;
    }

    ~ScopedSpan()
    {
        if (!active_)
            return;
        traceExchangeParent(parent_id_);
        Tracer &tracer = Tracer::instance();
        tracer.recordSpan(category_, name_, t0_, tracer.nowNs(), span_id_,
                          parent_id_, arg_, has_arg_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Record the span as @p name (static storage) when it closes, for
     *  work whose kind is only known once it ran. */
    void rename(const char *name) { name_ = name; }

  private:
    const char *category_;
    const char *name_;
    std::uint64_t t0_ = 0;
    std::uint64_t span_id_ = 0;
    std::uint64_t parent_id_ = 0;
    std::uint64_t arg_ = 0;
    bool active_ = false;
    bool has_arg_ = false;
};

} // namespace fusion3d::obs

#ifdef FUSION3D_TRACE_DISABLED
#define F3D_TRACE_CONCAT2(a, b) a##b
#define F3D_TRACE_CONCAT(a, b) F3D_TRACE_CONCAT2(a, b)
#define F3D_TRACE_SPAN(category, name) ((void)0)
#define F3D_TRACE_SPAN_ARG(category, name, arg) ((void)0)
#else
#define F3D_TRACE_CONCAT2(a, b) a##b
#define F3D_TRACE_CONCAT(a, b) F3D_TRACE_CONCAT2(a, b)
/** Trace the enclosing scope as one span. */
#define F3D_TRACE_SPAN(category, name)                                         \
    ::fusion3d::obs::ScopedSpan F3D_TRACE_CONCAT(f3d_trace_span_,              \
                                                 __COUNTER__)(category, name)
/** Trace the enclosing scope with a numeric payload. */
#define F3D_TRACE_SPAN_ARG(category, name, arg)                                \
    ::fusion3d::obs::ScopedSpan F3D_TRACE_CONCAT(f3d_trace_span_, __COUNTER__)(\
        category, name, static_cast<std::uint64_t>(arg))
#endif

#endif // FUSION3D_OBS_TRACE_H_
