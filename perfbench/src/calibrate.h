/**
 * @file
 * Host-speed calibration of the untraced run.
 *
 * On a shared host the simulator's speed drifts by up to 1.8x over
 * seconds to minutes, with the load that co-tenants put on the core's
 * caches and branch predictors. No statistic over one run's
 * repetitions removes a drift that outlasts the run, so every untraced
 * repetition is bracketed by two fixed reference loads whose code never
 * changes with the program: a branchy bytecode interpreter and a
 * streaming pass over an L2-sized array. The simulator's slow-downs
 * track the interpreter (outage_dense, campaign_grid) or the stream
 * (steady_power, outage_dense_arena) most closely, so the speed factor
 * is the geometric mean of the two.
 */

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

#include <cstdint>
#include <vector>

namespace perfbench
{

/** Seconds the two reference loads took once. */
struct HostSpeed
{
    double interpreter_s = 0.0;
    double stream_s = 0.0;
};

class Calibrator
{
  public:
    /**
     * @p threads copies of the loads run at once: as many as the
     * workload runs on, so that every core it uses is sampled. Each
     * copy runs the loads @p rounds times a measure(), so that longer
     * repetitions get a longer sample of the host's speed.
     */
    Calibrator(unsigned threads, int rounds);

    /** Time the loads (about 30 ms a round); the mean time of one
     *  round over the copies. */
    HostSpeed measure();

    /**
     * The factor that scales a host time measured between @p before
     * and @p after to the reference host's typical speed: about 1
     * there, below 1 when the host is slower, above 1 when it is
     * quieter.
     */
    static double factor(const HostSpeed &before, const HostSpeed &after);

  private:
    /** One copy's working memory. */
    struct Lane
    {
        std::vector<std::uint32_t> memory;
        std::vector<std::uint32_t> array;
    };

    HostSpeed measureLane(Lane *lane) const;

    std::vector<std::uint8_t> program_;
    std::vector<Lane> lanes_;
    int rounds_;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H
