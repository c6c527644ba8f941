/**
 * @file
 * Benchmark harness shared by every f3d_bench workload: a declarative
 * flag table (unknown or malformed flags are usage errors, exit 2),
 * order statistics for repeated measurements, a JSON writer that
 * refuses non-finite numbers, and the machine stamp that identifies
 * where a result was measured.
 */

#ifndef F3D_BENCH_HARNESS_H_
#define F3D_BENCH_HARNESS_H_

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "common/simd.h"
#include "obs/build_info.h"

namespace f3dbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
msBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

inline Clock::duration
fromSeconds(double s)
{
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

// ---------------------------------------------------------------------------
// Flags

/** One command-line flag: `--name value`, `--name=value`, or a bare
 *  `--name` for booleans. The target's type is the flag's type. */
struct FlagSpec
{
    const char *name;
    std::variant<bool *, std::int64_t *, double *, std::string *> target;
    const char *help;
};

inline void
printUsage(const char *argv0, const std::vector<FlagSpec> &flags)
{
    std::fprintf(stderr, "usage: %s [flags]\n", argv0);
    for (const FlagSpec &f : flags)
        std::fprintf(stderr, "  --%-12s %s\n", f.name, f.help);
}

namespace detail
{

template <class T>
bool
parseNumber(std::string_view text, T &out)
{
    if (text.empty())
        return false;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end;
}

} // namespace detail

/**
 * Parse @p argv against @p flags. Returns false (after printing the
 * reason and the usage) on an unknown flag, a missing or malformed
 * value, a non-finite number, or a positional argument; callers exit 2.
 */
inline bool
parseFlags(int argc, char **argv, const std::vector<FlagSpec> &flags)
{
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        if (arg.size() < 3 || arg.substr(0, 2) != "--") {
            std::fprintf(stderr, "error: unexpected argument '%s'\n", argv[i]);
            printUsage(argv[0], flags);
            return false;
        }
        arg.remove_prefix(2);
        std::string_view value;
        bool has_value = false;
        if (const auto eq = arg.find('='); eq != std::string_view::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_value = true;
        }
        const auto it = std::find_if(flags.begin(), flags.end(), [&](const FlagSpec &f) {
            return arg == f.name;
        });
        if (it == flags.end()) {
            std::fprintf(stderr, "error: unknown flag '--%.*s'\n",
                         static_cast<int>(arg.size()), arg.data());
            printUsage(argv[0], flags);
            return false;
        }
        const bool is_bool = std::holds_alternative<bool *>(it->target);
        if (!is_bool && !has_value) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: flag '--%s' needs a value\n", it->name);
                printUsage(argv[0], flags);
                return false;
            }
            value = argv[++i];
            has_value = true;
        }
        bool ok = true;
        if (auto *b = std::get_if<bool *>(&it->target)) {
            ok = !has_value;
            **b = true;
        } else if (auto *n = std::get_if<std::int64_t *>(&it->target)) {
            ok = detail::parseNumber(value, **n);
        } else if (auto *d = std::get_if<double *>(&it->target)) {
            ok = detail::parseNumber(value, **d) && std::isfinite(**d);
        } else {
            *std::get<std::string *>(it->target) = std::string(value);
        }
        if (!ok) {
            std::fprintf(stderr, "error: bad value for flag '--%s'\n", it->name);
            printUsage(argv[0], flags);
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------------
// Order statistics

/** Linear-interpolation quantile (q in [0,1]) of an unsorted sample;
 *  0 for an empty one. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Spread of repeated measurements of one metric. */
struct Summary
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::size_t n = 0;
};

inline Summary
summarize(const std::vector<double> &v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    s.median = quantile(v, 0.5);
    s.q1 = quantile(v, 0.25);
    s.q3 = quantile(v, 0.75);
    s.min = *std::min_element(v.begin(), v.end());
    s.max = *std::max_element(v.begin(), v.end());
    return s;
}

// ---------------------------------------------------------------------------
// JSON

/**
 * Minimal streaming JSON writer. Numbers print with 17 significant
 * digits; a NaN or infinity throws std::domain_error instead of
 * producing invalid JSON, so a broken measurement fails the run.
 */
class JsonWriter
{
  public:
    JsonWriter &
    beginObject()
    {
        separate();
        out_ += '{';
        first_.push_back(true);
        return *this;
    }

    JsonWriter &
    endObject()
    {
        out_ += '}';
        first_.pop_back();
        return *this;
    }

    JsonWriter &
    key(std::string_view k)
    {
        separate();
        appendString(k);
        out_ += ':';
        after_key_ = true;
        return *this;
    }

    JsonWriter &
    number(double v)
    {
        if (!std::isfinite(v))
            throw std::domain_error("JSON cannot represent a non-finite number");
        separate();
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out_ += buf;
        return *this;
    }

    JsonWriter &
    integer(std::uint64_t v)
    {
        separate();
        out_ += std::to_string(v);
        return *this;
    }

    JsonWriter &
    boolean(bool v)
    {
        separate();
        out_ += v ? "true" : "false";
        return *this;
    }

    JsonWriter &
    string(std::string_view s)
    {
        separate();
        appendString(s);
        return *this;
    }

    const std::string &str() const { return out_; }

  private:
    void
    separate()
    {
        if (after_key_) {
            after_key_ = false;
            return;
        }
        if (!first_.empty()) {
            if (!first_.back())
                out_ += ',';
            first_.back() = false;
        }
    }

    void
    appendString(std::string_view s)
    {
        out_ += '"';
        for (const char c : s) {
            if (c == '"' || c == '\\') {
                out_ += '\\';
                out_ += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out_ += buf;
            } else {
                out_ += c;
            }
        }
        out_ += '"';
    }

    std::string out_;
    std::vector<bool> first_;
    bool after_key_ = false;
};

/** Where and from what a result was measured: build identity, kernel
 *  dispatch, hardware threads, and the workload seed. */
inline std::string
machineStamp(std::uint64_t seed)
{
    const fusion3d::obs::BuildInfo &b = fusion3d::obs::buildInfo();
    JsonWriter w;
    w.beginObject()
        .key("git").string(b.git)
        .key("compiler").string(b.compiler)
        .key("build_type").string(b.buildType)
        .key("dispatch").string(fusion3d::simd::dispatchName())
        .key("nproc").integer(std::max(1u, std::thread::hardware_concurrency()))
        .key("seed").integer(seed)
        .endObject();
    return w.str();
}

} // namespace f3dbench

#endif // F3D_BENCH_HARNESS_H_
