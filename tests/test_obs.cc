/**
 * @file
 * Tests of the observability subsystem (src/obs) and its sim::Stats
 * extensions: the span tracer (concurrent recording, well-formed
 * Chrome-trace JSON, disabled-mode behaviour), the log2-bucket
 * quantile estimator's accuracy bounds, MetricsRegistry export
 * round-trips, ServerStats percentiles/registration, and the reset
 * paths of sim::Histogram / sim::Distribution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server_stats.h"
#include "sim/stats.h"

using namespace fusion3d;

namespace
{

/**
 * Minimal structural JSON check: balanced braces/brackets outside
 * strings, no trailing comma before a closer. Sufficient for the
 * writer's machine-generated output.
 */
bool
jsonBalanced(const std::string &s)
{
    std::vector<char> stack;
    bool in_string = false;
    char prev = '\0';
    for (const char c : s) {
        if (in_string) {
            if (c == '"' && prev != '\\')
                in_string = false;
            prev = c;
            continue;
        }
        switch (c) {
          case '"':
            in_string = true;
            break;
          case '{':
          case '[':
            stack.push_back(c);
            break;
          case '}':
            if (prev == ',' || stack.empty() || stack.back() != '{')
                return false;
            stack.pop_back();
            break;
          case ']':
            if (prev == ',' || stack.empty() || stack.back() != '[')
                return false;
            stack.pop_back();
            break;
          default:
            break;
        }
        if (!std::isspace(static_cast<unsigned char>(c)))
            prev = c;
    }
    return stack.empty() && !in_string;
}

int
countOccurrences(const std::string &haystack, const std::string &needle)
{
    int n = 0;
    for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++n;
    return n;
}

class TracerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::Tracer::instance().setEnabled(false);
        obs::Tracer::instance().clear();
    }

    void
    TearDown() override
    {
        obs::Tracer::instance().setEnabled(false);
        obs::Tracer::instance().clear();
    }
};

TEST_F(TracerTest, DisabledRecordsNothing)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    ASSERT_FALSE(tracer.enabled());
    {
        F3D_TRACE_SPAN("test", "disabled_span");
    }
    tracer.record("test", "explicit", 0, 10);
    EXPECT_EQ(tracer.eventCount(), 0u);
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST_F(TracerTest, DisabledHotPathIsCheap)
{
    // Not a benchmark — a smoke bound: a million disabled span sites
    // must cost microseconds each at most (they are one relaxed load).
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 1000000; ++i) {
        F3D_TRACE_SPAN("test", "noop");
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_EQ(obs::Tracer::instance().eventCount(), 0u);
    EXPECT_LT(seconds, 2.0);
}

TEST_F(TracerTest, RecordsScopedAndExplicitSpans)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.setEnabled(true);
    {
        F3D_TRACE_SPAN("cat_a", "scoped");
    }
    {
        F3D_TRACE_SPAN_ARG("cat_a", "scoped_arg", 42);
    }
    const std::uint64_t t = tracer.nowNs();
    tracer.record("cat_b", "explicit", t, t + 1000);
    EXPECT_EQ(tracer.eventCount(), 3u);

    std::ostringstream os;
    tracer.writeChromeTrace(os);
    const std::string json = os.str();
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"scoped\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"scoped_arg\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"value\":42}"), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"cat_b\""), std::string::npos);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\""), 3);
}

TEST_F(TracerTest, ToNsIsMonotoneWithClock)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    const auto a = std::chrono::steady_clock::now();
    const auto b = a + std::chrono::microseconds(500);
    EXPECT_LT(tracer.toNs(a), tracer.toNs(b));
    EXPECT_EQ(tracer.toNs(b) - tracer.toNs(a), 500000u);
}

TEST_F(TracerTest, ConcurrentSpansAllRecordedAndWellFormed)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.setEnabled(true);

    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = 500;
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&ready]() {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            } // start together: maximal interleaving
            for (int i = 0; i < kSpansPerThread; ++i) {
                F3D_TRACE_SPAN_ARG("concurrent", "span", i);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(tracer.eventCount(),
              static_cast<std::size_t>(kThreads) * kSpansPerThread);
    EXPECT_EQ(tracer.dropped(), 0u);

    std::ostringstream os;
    tracer.writeChromeTrace(os);
    const std::string json = os.str();
    EXPECT_TRUE(jsonBalanced(json));
    EXPECT_EQ(countOccurrences(json, "\"name\":\"span\""),
              kThreads * kSpansPerThread);
}

TEST_F(TracerTest, SerializeWhileRecordingIsConsistent)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.setEnabled(true);

    std::atomic<bool> stop{false};
    std::thread writer([&stop]() {
        while (!stop.load()) {
            F3D_TRACE_SPAN("live", "background");
        }
    });
    // Each serialization taken mid-flight must still be structurally
    // valid: the reader sees each thread's published prefix only.
    for (int i = 0; i < 20; ++i) {
        std::ostringstream os;
        tracer.writeChromeTrace(os);
        EXPECT_TRUE(jsonBalanced(os.str()));
    }
    stop.store(true);
    writer.join();
}

TEST_F(TracerTest, DropsWhenThreadBufferFull)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.setEnabled(true);
    const std::size_t overfill = obs::Tracer::kThreadCapacity + 100;
    for (std::size_t i = 0; i < overfill; ++i)
        tracer.record("test", "flood", 0, 1);
    EXPECT_GE(tracer.dropped(), 100u);
    std::ostringstream os;
    tracer.writeChromeTrace(os);
    EXPECT_TRUE(jsonBalanced(os.str()));
}

// --- Quantiles ---------------------------------------------------------

TEST(QuantilesTest, EmptyReturnsZero)
{
    obs::Quantiles q("empty");
    EXPECT_EQ(q.count(), 0u);
    EXPECT_EQ(q.quantile(0.5), 0.0);
}

TEST(QuantilesTest, UniformAccuracyWithinBound)
{
    obs::Quantiles q("uniform");
    constexpr int kN = 10000;
    for (int i = 1; i <= kN; ++i)
        q.sample(static_cast<double>(i));
    EXPECT_EQ(q.count(), static_cast<std::uint64_t>(kN));

    // Documented relative-error bound of the log2 sub-bucket layout.
    const double bound = 1.0 / obs::Quantiles::kSubBuckets;
    for (const double p : {0.10, 0.50, 0.90, 0.95, 0.99}) {
        const double exact = p * kN;
        const double est = q.quantile(p);
        EXPECT_NEAR(est, exact, bound * exact)
            << "quantile " << p << " estimated " << est << " exact " << exact;
    }
}

TEST(QuantilesTest, SubMillisecondLatenciesWithinBound)
{
    // Latencies in ms can be far below 1; the estimator must stay
    // accurate across negative octaves too.
    obs::Quantiles q("sub_ms");
    std::vector<double> values;
    for (int i = 1; i <= 2000; ++i)
        values.push_back(0.001 * i); // 1 us .. 2 ms in ms units
    for (const double v : values)
        q.sample(v);
    const double bound = 1.0 / obs::Quantiles::kSubBuckets;
    const double exact50 = values[values.size() / 2 - 1];
    EXPECT_NEAR(q.quantile(0.5), exact50, bound * exact50 + 1e-12);
}

TEST(QuantilesTest, SingleValueAllQuantilesAgree)
{
    obs::Quantiles q("single");
    for (int i = 0; i < 100; ++i)
        q.sample(7.0);
    const double p50 = q.quantile(0.5);
    EXPECT_EQ(p50, q.quantile(0.01));
    EXPECT_EQ(p50, q.quantile(0.99));
    EXPECT_NEAR(p50, 7.0, 7.0 / obs::Quantiles::kSubBuckets);
}

TEST(QuantilesTest, NonPositiveAndHugeValuesAreClamped)
{
    obs::Quantiles q("clamped");
    q.sample(0.0);
    q.sample(-3.0);
    q.sample(1e300);
    EXPECT_EQ(q.count(), 3u);
    // Smallest representable bucket for the non-positives...
    EXPECT_LE(q.quantile(0.01), std::ldexp(2.0, obs::Quantiles::kMinOctave));
    // ...largest for the huge value; both finite.
    EXPECT_TRUE(std::isfinite(q.quantile(1.0)));
    EXPECT_GE(q.quantile(1.0), std::ldexp(1.0, obs::Quantiles::kMaxOctave - 1));
}

TEST(QuantilesTest, ResetClearsState)
{
    obs::Quantiles q("reset");
    for (int i = 1; i <= 100; ++i)
        q.sample(i);
    q.reset();
    EXPECT_EQ(q.count(), 0u);
    EXPECT_EQ(q.quantile(0.5), 0.0);
    q.sample(4.0);
    EXPECT_NEAR(q.quantile(0.5), 4.0, 4.0 / obs::Quantiles::kSubBuckets);
}

TEST(QuantilesTest, WeightedSamples)
{
    obs::Quantiles q("weighted");
    q.sample(1.0, 99);
    q.sample(1024.0, 1);
    EXPECT_EQ(q.count(), 100u);
    EXPECT_NEAR(q.quantile(0.5), 1.0, 1.0 / obs::Quantiles::kSubBuckets);
    EXPECT_NEAR(q.quantile(1.0), 1024.0, 1024.0 / obs::Quantiles::kSubBuckets);
}

// --- sim::Stats reset paths (previously untested) ----------------------

TEST(StatsResetTest, DistributionResetRestoresPristineState)
{
    sim::Distribution d("lat");
    d.sample(2.0);
    d.sample(6.0);
    ASSERT_EQ(d.count(), 2u);
    ASSERT_DOUBLE_EQ(d.mean(), 4.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.variance(), 0.0);
    EXPECT_EQ(d.min(), 0.0);
    EXPECT_EQ(d.max(), 0.0);
    EXPECT_EQ(d.total(), 0.0);
    // Sampling after reset behaves like a fresh distribution (min/max
    // re-seed from the first sample, Welford restarts).
    d.sample(-5.0);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_DOUBLE_EQ(d.mean(), -5.0);
    EXPECT_DOUBLE_EQ(d.min(), -5.0);
    EXPECT_DOUBLE_EQ(d.max(), -5.0);
}

TEST(StatsResetTest, HistogramResetClearsBuckets)
{
    sim::Histogram h("hist");
    h.sample(3, 2);
    h.sample(7);
    ASSERT_EQ(h.count(), 3u);
    ASSERT_DOUBLE_EQ(h.fraction(3), 2.0 / 3.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(h.buckets().empty());
    EXPECT_EQ(h.fraction(3), 0.0);
    h.sample(5);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.fraction(5), 1.0);
}

TEST(StatsResetTest, StatGroupResetAllCoversQuantiles)
{
    sim::StatGroup group("g");
    sim::Counter &c = group.addCounter("c");
    obs::Quantiles &q = group.addQuantiles("q");
    c.inc(5);
    q.sample(10.0);
    group.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(q.count(), 0u);
}

// --- MetricsRegistry ---------------------------------------------------

TEST(MetricsRegistryTest, SnapshotRunsCollectorsInOrder)
{
    obs::MetricsRegistry registry;
    registry.registerCollector("b", [](obs::MetricSink &sink) {
        sink.gauge("b.v", 2.0);
    });
    registry.registerCollector("a", [](obs::MetricSink &sink) {
        sink.counter("a.v", 1.0);
    });
    const auto samples = registry.snapshot();
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_EQ(samples[0].name, "b.v"); // registration order, not name order
    EXPECT_EQ(samples[1].name, "a.v");
    EXPECT_EQ(samples[0].kind, obs::MetricKind::gauge);
    EXPECT_EQ(samples[1].kind, obs::MetricKind::counter);
}

TEST(MetricsRegistryTest, UnregisterAndReplace)
{
    obs::MetricsRegistry registry;
    registry.registerCollector("x", [](obs::MetricSink &sink) {
        sink.gauge("x.old", 1.0);
    });
    registry.registerCollector("x", [](obs::MetricSink &sink) {
        sink.gauge("x.new", 2.0);
    });
    EXPECT_EQ(registry.collectorCount(), 1u);
    auto samples = registry.snapshot();
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples[0].name, "x.new");

    registry.unregisterCollector("x");
    EXPECT_EQ(registry.collectorCount(), 0u);
    EXPECT_TRUE(registry.snapshot().empty());
}

TEST(MetricsRegistryTest, PrometheusExportFormat)
{
    obs::MetricsRegistry registry;
    registry.registerCollector("test", [](obs::MetricSink &sink) {
        sink.counter("serve.submitted", 128);
        sink.gauge("serve.latency_ms.p99", 3.5);
        sink.bucket("serve.latency_log2_us", "bucket=\"7\"", 12);
    });
    std::ostringstream os;
    registry.exportPrometheus(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("# TYPE fusion3d_serve_submitted counter"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("fusion3d_serve_submitted 128"), std::string::npos);
    EXPECT_NE(text.find("# TYPE fusion3d_serve_latency_ms_p99 gauge"),
              std::string::npos);
    EXPECT_NE(text.find("fusion3d_serve_latency_ms_p99 3.5"),
              std::string::npos);
    EXPECT_NE(text.find("fusion3d_serve_latency_log2_us{bucket=\"7\"} 12"),
              std::string::npos);
}

TEST(MetricsRegistryTest, JsonLineExportRoundTrip)
{
    obs::MetricsRegistry registry;
    registry.registerCollector("test", [](obs::MetricSink &sink) {
        sink.counter("a.count", 42);
        sink.gauge("a.mean", 1.25);
        sink.gauge("a.nan", std::nan(""));
    });
    std::ostringstream os;
    registry.exportJsonLine(os);
    const std::string json = os.str();
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"a.count\":42"), std::string::npos) << json;
    EXPECT_NE(json.find("\"a.mean\":1.25"), std::string::npos);
    EXPECT_NE(json.find("\"a.nan\":null"), std::string::npos);
    // Exactly one line.
    EXPECT_EQ(countOccurrences(json, "\n"), 1);
    EXPECT_EQ(json.back(), '\n');
}

TEST(MetricsRegistryTest, StatGroupCollectSurfacesEveryStatKind)
{
    sim::StatGroup group("grp");
    group.addCounter("hits").inc(9);
    sim::Distribution &d = group.addDistribution("size");
    d.sample(2.0);
    d.sample(4.0);
    group.addHistogram("hist").sample(3, 5);
    group.addQuantiles("lat").sample(8.0);

    std::vector<obs::MetricSample> samples;
    obs::MetricSink sink(samples);
    group.collect(sink);

    const auto find = [&samples](const std::string &name) -> const obs::MetricSample * {
        for (const auto &s : samples)
            if (s.name == name)
                return &s;
        return nullptr;
    };
    ASSERT_NE(find("grp.hits"), nullptr);
    EXPECT_EQ(find("grp.hits")->value, 9.0);
    ASSERT_NE(find("grp.size.mean"), nullptr);
    EXPECT_DOUBLE_EQ(find("grp.size.mean")->value, 3.0);
    ASSERT_NE(find("grp.size.count"), nullptr);
    ASSERT_NE(find("grp.hist"), nullptr);
    EXPECT_EQ(find("grp.hist")->labels, "bucket=\"3\"");
    EXPECT_EQ(find("grp.hist")->value, 5.0);
    ASSERT_NE(find("grp.lat.p99"), nullptr);
    EXPECT_NEAR(find("grp.lat.p99")->value, 8.0,
                8.0 / obs::Quantiles::kSubBuckets);
}

TEST(MetricsRegistryTest, PrometheusNameSanitization)
{
    EXPECT_EQ(obs::MetricsRegistry::prometheusName("serve.latency_ms.p50"),
              "fusion3d_serve_latency_ms_p50");
    EXPECT_EQ(obs::MetricsRegistry::prometheusName("a-b c/d"),
              "fusion3d_a_b_c_d");
}

// --- ServerStats percentiles and registration --------------------------

TEST(ServerStatsObsTest, LatencyPercentilesWithinBound)
{
    serve::ServerStats stats;
    // 1..100 ms, one outcome each: p50 ~ 50, p95 ~ 95, p99 ~ 99.
    for (int i = 1; i <= 100; ++i)
        stats.recordOutcome(serve::Outcome::renderedFull,
                            static_cast<double>(i));
    const double bound = 1.0 / obs::Quantiles::kSubBuckets;
    EXPECT_NEAR(stats.p50LatencyMs(), 50.0, 50.0 * bound);
    EXPECT_NEAR(stats.p95LatencyMs(), 95.0, 95.0 * bound);
    EXPECT_NEAR(stats.p99LatencyMs(), 99.0, 99.0 * bound);
    // Percentile keys appear in the dump alongside the distribution.
    std::ostringstream os;
    stats.dump(os);
    EXPECT_NE(os.str().find("serve.latency_ms.p99"), std::string::npos);
}

TEST(ServerStatsObsTest, RegisterWithExportsAndUnregistersOnDestruction)
{
    obs::MetricsRegistry registry;
    {
        serve::ServerStats stats;
        stats.registerWith(registry, "serve.test");
        stats.recordSubmitted(3);
        stats.recordOutcome(serve::Outcome::renderedHalf, 12.0);
        stats.recordBatch(2);

        std::ostringstream os;
        registry.exportJsonLine(os);
        const std::string json = os.str();
        EXPECT_NE(json.find("\"serve.submitted\":1"), std::string::npos) << json;
        EXPECT_NE(json.find("\"serve.rendered_half\":1"), std::string::npos);
        EXPECT_NE(json.find("\"serve.latency_ms.p50\":"), std::string::npos);
        EXPECT_EQ(registry.collectorCount(), 1u);
    }
    // Destruction must unregister, or the registry would call into a
    // dead object on the next snapshot.
    EXPECT_EQ(registry.collectorCount(), 0u);
    EXPECT_TRUE(registry.snapshot().empty());
}

} // namespace
