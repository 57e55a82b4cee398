/**
 * @file
 * The benchmark's workloads: generated inputs, the timed phase, and the
 * digest of the deterministic outputs.
 *
 *   outage_dense        one SystemSimulator run of sobel on power
 *                       profile 5 (the most outages), default
 *                       incidental config, heap-backed NVM
 *   steady_power        the same run on a constant 30 uW trace: no
 *                       backups, no restores, exact frames
 *   campaign_grid       the Fig. 28 grid (10 kernels x 5 profiles x
 *                       {baseline, tuned}) through runner::SweepRunner
 *   outage_dense_arena  outage_dense with NVM in an arena::ArenaBackend
 *
 * Every input derives from the seed alone. The arena backend is
 * bit-compatible with the heap, so outage_dense and outage_dense_arena
 * produce the same digest for the same seed.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nvp/core.h"

namespace perfbench
{

enum class Workload
{
    outage_dense,
    steady_power,
    campaign_grid,
    outage_dense_arena,
};

std::optional<Workload> workloadFromName(const std::string &name);
const char *workloadName(Workload workload);

/** True for the workloads that are one SystemSimulator run. */
bool isSingleRun(Workload workload);

/** Set-up of one repetition, split by part, in ms. */
struct SetupParts
{
    double trace_ms = 0.0;     ///< trace generation
    double kernel_ms = 0.0;    ///< kernel build (single runs)
    double construct_ms = 0.0; ///< simulator or sweep construction
    double arena_ms = 0.0;     ///< arena open + backend (arena only)

    double totalSeconds() const
    {
        return 1e-3 * (trace_ms + kernel_ms + construct_ms + arena_ms);
    }
};

/**
 * Host time of a traced single run by sample class. A sample whose
 * step changed the strategy's backup or restore count is an outage
 * sample; the others are on or off by the power state those events
 * (and the cold boot) imply.
 */
struct SampleProfile
{
    double on_s = 0.0;
    double off_s = 0.0;
    double outage_s = 0.0;
    std::uint64_t on = 0;
    std::uint64_t off = 0;
    std::uint64_t outage = 0;
    double finalize_ms = 0.0;
    /** Dark interval before each restore, in 0.1 ms samples. */
    std::vector<double> outage_lengths;
};

/** Scheduling profile of a traced campaign. */
struct RunnerProfile
{
    std::vector<double> job_ms; ///< JobResult::wall_ms, job order
    double merge_ms = 0.0;      ///< last delivery to run() return
    unsigned threads = 0;
};

/** What one repetition of a workload produced. */
struct Outcome
{
    SetupParts setup;
    double wall_s = 0.0;            ///< the run, or campaign makespan
    /** The whole repetition: set-up, run, digest and teardown. */
    double repetition_s = 0.0;
    std::uint64_t instructions = 0; ///< lane-0, summed over jobs
    std::uint64_t ops = 0;          ///< runs or sweep jobs attempted
    std::uint64_t failed = 0;       ///< of those, failed
    std::string digest;             ///< deterministic outputs

    int frames_scored = 0;
    double fp_gain = 0.0; ///< campaign: Fig. 28 mean FP gain
    std::uint64_t arena_commits = 0;
    std::uint64_t arena_log_bytes = 0;  ///< bytes the arena appended
    std::uint64_t checkpoint_bytes = 0; ///< the strategy's backup bytes
    SampleProfile samples; ///< filled by traced single runs
    RunnerProfile runner;  ///< filled by traced campaigns
};

struct RunOptions
{
    std::uint64_t seed = 1;
    /** Parent of the fresh arena directories (arena workload). */
    std::string tmp_dir;
    inc::nvp::ExecEngine engine = inc::nvp::ExecEngine::predecoded;
    /** Time every sample (single runs) or every job delivery. */
    bool traced = false;
    /** Sweep worker threads (campaign). */
    unsigned threads = 1;
};

/** Set up and run one repetition. */
Outcome runWorkload(Workload workload, const RunOptions &options);

/** Set up one repetition and tear it down without running it. */
SetupParts setUpOnly(Workload workload, const RunOptions &options);

/** Digest of the generated inputs alone (self-test). */
std::string inputDigest(Workload workload, std::uint64_t seed);

/** Kernels a workload runs (the frame probes use these). */
std::vector<std::string> workloadKernels(Workload workload);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
