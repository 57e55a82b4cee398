/**
 * @file
 * Small helpers shared by the benchmark's sources: a steady clock,
 * order statistics, the output digest, and the metric record that
 * main.cc prints.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double
msSince(Clock::time_point start)
{
    return 1e3 * secondsSince(start);
}

/** Linear-interpolated quantile @p q in [0, 1]; 0 for no values. */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * 64-bit FNV-1a, used as the output digest. Deliberately independent
 * of util::crc32, which is one of the layers the benchmark times.
 */
class Digest
{
  public:
    void add(const std::string &bytes)
    {
        for (const char c : bytes) {
            state_ ^= static_cast<unsigned char>(c);
            state_ *= 0x100000001b3ULL;
        }
    }

    std::string hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(state_));
        return buf;
    }

  private:
    std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/** One named measurement, printed as {"value": v, "unit": u}. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
