/**
 * @file
 * Per-layer probes of the traced run: each times one module's public
 * function from outside, on inputs shaped like the workload's own
 * (image size, outage length, kernels), in batches timed with the
 * steady clock. Every per-call time comes with its call count.
 */

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench
{

struct ProbeInputs
{
    std::uint64_t seed = 1;
    /** Kernels whose frames and programs the probes use. */
    std::vector<std::string> kernels;
    /** Bytes one checkpoint image covers (util::crc32 probe). */
    std::size_t image_bytes = 0;
    /** Outage length for the decay probe, 0.1 ms units. */
    double outage_tenth_ms = 0.0;
};

/**
 * Times util::crc32, util::Rng::next, DataMemory::applyOutageDecay,
 * Core::step, EnergyModel::instructionEnergyNj,
 * IncidentalController::maybeAdopt, Kernel::make_input,
 * Kernel::golden, approx::maskedMse and kernels::makeKernel.
 */
Metrics runProbes(const ProbeInputs &inputs);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
