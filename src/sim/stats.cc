#include "sim/stats.h"

#include <algorithm>
#include <cmath>

namespace fusion3d::sim
{

void
Distribution::sample(double v)
{
    ++count_;
    sum_ += v;
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (v - mean_);
    if (count_ == 1) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
}

void
Distribution::reset()
{
    count_ = 0;
    mean_ = m2_ = sum_ = min_ = max_ = 0.0;
}

double
Distribution::stddev() const
{
    return std::sqrt(variance());
}

void
Histogram::sample(std::uint64_t v, std::uint64_t weight)
{
    buckets_[v] += weight;
    count_ += weight;
}

void
Histogram::reset()
{
    buckets_.clear();
    count_ = 0;
}

double
Histogram::fraction(std::uint64_t v) const
{
    if (count_ == 0)
        return 0.0;
    const auto it = buckets_.find(v);
    if (it == buckets_.end())
        return 0.0;
    return static_cast<double>(it->second) / static_cast<double>(count_);
}

Counter &
StatGroup::addCounter(const std::string &name)
{
    counters_.push_back(std::make_unique<Counter>(name));
    return *counters_.back();
}

Distribution &
StatGroup::addDistribution(const std::string &name)
{
    distributions_.push_back(std::make_unique<Distribution>(name));
    return *distributions_.back();
}

Histogram &
StatGroup::addHistogram(const std::string &name)
{
    histograms_.push_back(std::make_unique<Histogram>(name));
    return *histograms_.back();
}

obs::Quantiles &
StatGroup::addQuantiles(const std::string &name)
{
    quantiles_.push_back(std::make_unique<obs::Quantiles>(name));
    return *quantiles_.back();
}

void
StatGroup::resetAll()
{
    for (auto &c : counters_)
        c->reset();
    for (auto &d : distributions_)
        d->reset();
    for (auto &h : histograms_)
        h->reset();
    for (auto &q : quantiles_)
        q->reset();
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &c : counters_)
        os << name_ << '.' << c->name() << ' ' << c->value() << '\n';
    for (const auto &d : distributions_) {
        os << name_ << '.' << d->name() << ".mean " << d->mean() << '\n';
        os << name_ << '.' << d->name() << ".stddev " << d->stddev() << '\n';
        os << name_ << '.' << d->name() << ".min " << d->min() << '\n';
        os << name_ << '.' << d->name() << ".max " << d->max() << '\n';
    }
    for (const auto &h : histograms_) {
        for (const auto &[bucket, n] : h->buckets())
            os << name_ << '.' << h->name() << '[' << bucket << "] " << n << '\n';
    }
    for (const auto &q : quantiles_) {
        os << name_ << '.' << q->name() << ".p50 " << q->quantile(0.50) << '\n';
        os << name_ << '.' << q->name() << ".p95 " << q->quantile(0.95) << '\n';
        os << name_ << '.' << q->name() << ".p99 " << q->quantile(0.99) << '\n';
        os << name_ << '.' << q->name() << ".p999 " << q->quantile(0.999)
           << '\n';
    }
}

void
StatGroup::collect(obs::MetricSink &sink) const
{
    const std::string prefix = name_ + '.';
    for (const auto &c : counters_)
        sink.counter(prefix + c->name(),
                     static_cast<double>(c->value()));
    for (const auto &d : distributions_) {
        const std::string base = prefix + d->name();
        sink.counter(base + ".count", static_cast<double>(d->count()));
        sink.gauge(base + ".mean", d->mean());
        sink.gauge(base + ".stddev", d->stddev());
        sink.gauge(base + ".min", d->min());
        sink.gauge(base + ".max", d->max());
        sink.counter(base + ".sum", d->total());
    }
    for (const auto &h : histograms_) {
        const std::string base = prefix + h->name();
        for (const auto &[bucket, n] : h->buckets())
            sink.bucket(base, "bucket=\"" + std::to_string(bucket) + "\"",
                        static_cast<double>(n));
        sink.counter(base + ".count", static_cast<double>(h->count()));
    }
    // No ".count" for quantiles: a Quantiles stat typically shares its
    // name with the Distribution over the same samples (ServerStats'
    // latency_ms), which already exports the count.
    for (const auto &q : quantiles_) {
        const std::string base = prefix + q->name();
        sink.gauge(base + ".p50", q->quantile(0.50));
        sink.gauge(base + ".p95", q->quantile(0.95));
        sink.gauge(base + ".p99", q->quantile(0.99));
        sink.gauge(base + ".p999", q->quantile(0.999));
    }
}

} // namespace fusion3d::sim
