#include "calibrate.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common.h"

namespace perfbench
{

namespace
{

constexpr std::size_t kProgramOps = 4096;  ///< power of two
constexpr std::size_t kMemoryWords = 1024; ///< power of two
constexpr int kDispatches = 1500000;
constexpr std::size_t kArrayWords = 65536; ///< 256 KB
constexpr int kStreamPasses = 1000;

/** Each load's time on the reference host (a 4-vCPU KVM guest of an
 *  Intel Xeon) in a typical phase. They set only the scale of the
 *  factor: quiet phases read about 0.015 s and 0.009 s. */
constexpr double kReferenceInterpreterS = 0.018;
constexpr double kReferenceStreamS = 0.013;

/** A register machine stepping a fixed random program: one
 *  unpredictable indirect branch per instruction, like the simulator's
 *  own dispatch. */
double
interpret(const std::vector<std::uint8_t> &program, std::uint32_t *mem)
{
    std::uint32_t reg[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    const Clock::time_point t0 = Clock::now();
    std::size_t pc = 0;
    for (int i = 0; i < kDispatches; ++i) {
        std::uint32_t &d = reg[i & 7];
        switch (program[pc]) {
          case 0: d += reg[(i >> 3) & 7]; break;
          case 1: d ^= reg[(i >> 2) & 7] << 1; break;
          case 2: mem[d & (kMemoryWords - 1)] = reg[(i + 1) & 7]; break;
          case 3: d = mem[reg[(i + 3) & 7] & (kMemoryWords - 1)]; break;
          case 4:
            if (d & 1)
                pc = (pc + 17) & (kProgramOps - 1);
            break;
          case 5: d *= 3; break;
          case 6: d -= reg[(i + 5) & 7]; break;
          default: d >>= 1; break;
        }
        pc = (pc + 1) & (kProgramOps - 1);
    }
    const double s = secondsSince(t0);
    volatile std::uint32_t sink = reg[0] + reg[3] + mem[5];
    (void)sink;
    return s;
}

/** Repeated sums over an array that fits the core's L2 cache. */
double
stream(const std::vector<std::uint32_t> &array)
{
    const Clock::time_point t0 = Clock::now();
    std::uint64_t sum = 0;
    for (int p = 0; p < kStreamPasses; ++p) {
        for (const std::uint32_t v : array)
            sum += v;
    }
    const double s = secondsSince(t0);
    volatile std::uint64_t sink = sum;
    (void)sink;
    return s;
}

} // namespace

Calibrator::Calibrator(unsigned threads, int rounds)
    : lanes_(std::max(1u, threads),
             Lane{std::vector<std::uint32_t>(kMemoryWords),
                  std::vector<std::uint32_t>(kArrayWords, 3)}),
      rounds_(std::max(1, rounds))
{
    std::uint64_t state = 11;
    program_.reserve(kProgramOps);
    for (std::size_t i = 0; i < kProgramOps; ++i) {
        state = state * 6364136223846793005ULL + 1;
        program_.push_back(static_cast<std::uint8_t>((state >> 40) % 8));
    }
}

HostSpeed
Calibrator::measureLane(Lane *lane) const
{
    HostSpeed speed;
    for (int r = 0; r < rounds_; ++r) {
        speed.interpreter_s +=
            interpret(program_, lane->memory.data()) / rounds_;
        speed.stream_s += stream(lane->array) / rounds_;
    }
    return speed;
}

HostSpeed
Calibrator::measure()
{
    std::vector<HostSpeed> speeds(lanes_.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 1; i < lanes_.size(); ++i) {
        threads.emplace_back(
            [this, &speeds, i] { speeds[i] = measureLane(&lanes_[i]); });
    }
    speeds[0] = measureLane(&lanes_[0]);
    for (std::thread &t : threads)
        t.join();

    HostSpeed mean;
    for (const HostSpeed &s : speeds) {
        mean.interpreter_s += s.interpreter_s / speeds.size();
        mean.stream_s += s.stream_s / speeds.size();
    }
    return mean;
}

double
Calibrator::factor(const HostSpeed &before, const HostSpeed &after)
{
    const double interpreter =
        0.5 * (before.interpreter_s + after.interpreter_s);
    const double stream = 0.5 * (before.stream_s + after.stream_s);
    return std::sqrt(kReferenceInterpreterS / interpreter *
                     kReferenceStreamS / stream);
}

} // namespace perfbench
