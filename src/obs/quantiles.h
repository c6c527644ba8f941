/**
 * @file
 * Streaming quantile estimator over log2-spaced buckets, for the
 * tail-latency percentiles (p50/p95/p99/p99.9) the serving layer
 * reports. Lives in `obs` (stdlib-only, bottom of the dependency
 * order) so both the sim stats package and the SLO monitor can use it.
 *
 * Each octave [2^k, 2^(k+1)) is split into kSubBuckets linear
 * sub-buckets (HdrHistogram-style log-linear layout), so a reported
 * quantile is off from the exact order statistic by at most one
 * sub-bucket width: a relative error bound of 1/kSubBuckets = 6.25 %
 * (the estimator returns bucket midpoints, halving the typical error).
 * Values are clamped to [2^kMinOctave, 2^kMaxOctave). Memory is a
 * fixed ~8 KB table; sample() is O(1) with no allocation.
 */

#ifndef FUSION3D_OBS_QUANTILES_H_
#define FUSION3D_OBS_QUANTILES_H_

#include <array>
#include <cstdint>
#include <string>

namespace fusion3d::obs
{

class Quantiles
{
  public:
    static constexpr int kSubBuckets = 16;
    static constexpr int kMinOctave = -32;
    static constexpr int kMaxOctave = 32;

    Quantiles() = default;
    explicit Quantiles(std::string name) : name_(std::move(name)) {}

    void sample(double v, std::uint64_t weight = 1);
    void reset();

    std::uint64_t count() const { return count_; }

    /**
     * Value at quantile @p q in [0, 1] (q=0.5 is the median), i.e. the
     * midpoint of the bucket holding the ceil(q*count)-th smallest
     * sample; 0 when empty.
     */
    double quantile(double q) const;

    const std::string &name() const { return name_; }

  private:
    static constexpr int kBuckets = (kMaxOctave - kMinOctave) * kSubBuckets;

    static int bucketIndex(double v);
    static double bucketMidpoint(int index);

    std::string name_;
    std::uint64_t count_ = 0;
    std::array<std::uint64_t, kBuckets> buckets_{};
};

} // namespace fusion3d::obs

#endif // FUSION3D_OBS_QUANTILES_H_
