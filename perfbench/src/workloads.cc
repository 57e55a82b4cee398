#include "workloads.h"

#include <filesystem>
#include <memory>
#include <mutex>
#include <unistd.h>

#include "arena/arena.h"
#include "arena/backend.h"
#include "bench_common.h"
#include "common.h"
#include "fleet/campaign.h"
#include "kernels/kernel.h"
#include "runner/sweep.h"
#include "sim/result_io.h"
#include "sim/system_sim.h"
#include "trace/trace_generator.h"
#include "util/image.h"
#include "util/rng.h"

using namespace inc;

namespace perfbench
{

namespace
{

/** Simulated length of each workload's trace, 0.1 ms samples. */
constexpr std::size_t kOutageDenseSamples = 100000; // 10 s
constexpr std::size_t kSteadySamples = 100000;      // 10 s
constexpr std::size_t kCampaignSamples = 10000;     // 1 s per profile

/** The power profile with the most outages. */
constexpr int kOutageProfile = 5;

/** Constant harvested power of steady_power: high enough that the run
 *  never backs up, and scores exact frames. */
constexpr double kSteadyPowerUw = 30.0;

/** Generator seed of the profile traces; the benchmark seed rotates
 *  them (see rotated()). 2017 is the paper evaluation's seed. */
constexpr std::uint64_t kTraceSeed = 2017;

const char *const kSingleKernel = "sobel";

/**
 * @p base rotated left by a seed-derived offset. Every seed sees the
 * same bursts and rests in another order and phase, so the inputs and
 * outputs change with the seed while the outage density, which decides
 * where host time goes, does not. Independent traces of this length
 * differ by about 15 % in simulated work.
 */
trace::PowerTrace
rotated(const trace::PowerTrace &base, std::uint64_t seed,
        std::uint64_t stream)
{
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
    const std::vector<double> &in = base.samples();
    const auto offset = static_cast<std::ptrdiff_t>(rng.nextBounded(in.size()));
    std::vector<double> out(in.begin() + offset, in.end());
    out.insert(out.end(), in.begin(), in.begin() + offset);
    return trace::PowerTrace(std::move(out), base.name());
}

trace::PowerTrace
makeTrace(Workload workload, std::uint64_t seed)
{
    if (workload == Workload::steady_power) {
        return trace::PowerTrace(
            std::vector<double>(kSteadySamples, kSteadyPowerUw),
            "steady 30uW");
    }
    trace::TraceGenerator gen(trace::paperProfile(kOutageProfile),
                              kTraceSeed);
    return rotated(gen.generate(kOutageDenseSamples), seed, 0);
}

/** The five standard profiles, each rotated by its own offset. */
std::vector<trace::PowerTrace>
campaignTraces(std::uint64_t seed)
{
    std::vector<trace::PowerTrace> traces =
        trace::standardProfiles(kCampaignSamples, kTraceSeed);
    for (std::size_t i = 0; i < traces.size(); ++i)
        traces[i] = rotated(traces[i], seed, i + 1);
    return traces;
}

/** nvpsim's default incidental config (dynamic bits, floor 2). */
sim::SimConfig
singleRunConfig(const RunOptions &options)
{
    fleet::CampaignSpec campaign;
    campaign.seed = options.seed;
    sim::SimConfig cfg = fleet::campaignConfig(campaign);
    cfg.exec_engine = options.engine;
    return cfg;
}

/** A fresh, empty arena directory under @p parent. */
std::string
freshArenaDir(const std::string &parent)
{
    static int counter = 0;
    const std::filesystem::path dir =
        std::filesystem::path(parent) /
        ("arena-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir.parent_path());
    return dir.string();
}

/** Step @p s to the end, timing every sample and classifying it. */
void
stepTraced(sim::SystemSimulator &s, SampleProfile *profile)
{
    const sim::StrategyStats &ckpt = s.strategy().stats();
    const core::ControllerStats &ctrl = s.controller().stats();
    bool on = false;
    std::size_t sample = 0;
    std::size_t last_backup = 0;
    for (bool more = true; more; ++sample) {
        const std::uint64_t backups = ckpt.backups;
        const std::uint64_t restores = ckpt.restores;
        const std::uint64_t started = ctrl.frames_started;
        const Clock::time_point t0 = Clock::now();
        more = s.stepSample();
        const double dt =
            std::chrono::duration<double>(Clock::now() - t0).count();
        const bool backed_up = ckpt.backups != backups;
        const bool restored = ckpt.restores != restores;
        if (backed_up || restored) {
            profile->outage_s += dt;
            ++profile->outage;
            if (restored) {
                profile->outage_lengths.push_back(
                    static_cast<double>(sample - last_backup));
            }
            if (backed_up)
                last_backup = sample;
            on = !backed_up;
            continue;
        }
        // The cold boot is no restore; lane 0 starting its first
        // frame shows it.
        if (!on && ctrl.frames_started != started)
            on = true;
        if (on) {
            profile->on_s += dt;
            ++profile->on;
        } else {
            profile->off_s += dt;
            ++profile->off;
        }
    }
}

/** One single run, set up and ready to step. The destructor tears it
 *  down, the arena directory included. */
struct SingleRun
{
    trace::PowerTrace trace;
    std::string arena_dir;
    std::unique_ptr<arena::Arena> store;
    std::unique_ptr<arena::ArenaBackend> backend;
    std::unique_ptr<sim::SystemSimulator> sim;

    ~SingleRun()
    {
        sim.reset();
        backend.reset();
        store.reset();
        if (!arena_dir.empty())
            std::filesystem::remove_all(arena_dir);
    }
};

std::unique_ptr<SingleRun>
setUpSingle(Workload workload, const RunOptions &options, SetupParts *parts)
{
    auto run = std::make_unique<SingleRun>();
    Clock::time_point t0 = Clock::now();
    run->trace = makeTrace(workload, options.seed);
    parts->trace_ms = msSince(t0);

    t0 = Clock::now();
    kernels::Kernel kernel = kernels::makeKernel(kSingleKernel);
    parts->kernel_ms = msSince(t0);

    sim::SimConfig cfg = singleRunConfig(options);
    if (workload == Workload::outage_dense_arena) {
        run->arena_dir = freshArenaDir(options.tmp_dir);
        t0 = Clock::now();
        run->store = arena::Arena::open(run->arena_dir);
        run->backend = std::make_unique<arena::ArenaBackend>(run->store.get());
        cfg.persistence = run->backend.get();
        parts->arena_ms = msSince(t0);
    }

    t0 = Clock::now();
    run->sim = std::make_unique<sim::SystemSimulator>(std::move(kernel),
                                                      &run->trace, cfg);
    parts->construct_ms = msSince(t0);
    return run;
}

Outcome
runSingle(Workload workload, const RunOptions &options)
{
    Outcome out;
    const Clock::time_point start = Clock::now();
    std::unique_ptr<SingleRun> run =
        setUpSingle(workload, options, &out.setup);
    sim::SystemSimulator &s = *run->sim;

    const Clock::time_point t0 = Clock::now();
    sim::SimResult result;
    if (options.traced) {
        stepTraced(s, &out.samples);
        const Clock::time_point f0 = Clock::now();
        result = s.finalize();
        out.samples.finalize_ms = msSince(f0);
    } else {
        result = s.run();
    }
    out.wall_s = secondsSince(t0);

    out.instructions = result.main_instructions;
    out.ops = 1;
    out.frames_scored = result.frames_scored;
    Digest digest;
    digest.add(sim::serializeResult(result));
    out.digest = digest.hex();
    if (run->store) {
        out.arena_commits = run->store->stats().commits;
        out.arena_log_bytes = run->store->stats().log_bytes;
    }
    out.checkpoint_bytes = s.strategy().stats().backup_bytes;

    run.reset();
    out.repetition_s = secondsSince(start);
    return out;
}

/** The Fig. 28 grid, with every config on the benchmark's seed. */
runner::SweepSpec
campaignSpec(const RunOptions &options)
{
    runner::SweepSpec spec;
    spec.kernels = kernels::kernelNames();
    spec.traces = campaignTraces(options.seed);
    const std::uint64_t seed = options.seed;
    const nvp::ExecEngine engine = options.engine;
    spec.variants = {
        {"baseline",
         [seed, engine](const std::string &) {
             sim::SimConfig cfg = bench::baselineConfig();
             cfg.frame_period_factor = 0.75;
             cfg.seed = seed;
             cfg.exec_engine = engine;
             return cfg;
         }},
        {"tuned",
         [seed, engine](const std::string &kernel) {
             sim::SimConfig cfg = bench::tunedConfig(kernel);
             cfg.score_quality = false;
             cfg.seed = seed;
             cfg.exec_engine = engine;
             return cfg;
         }},
    };
    spec.master_seed = seed;
    spec.jobs = static_cast<int>(options.threads);
    return spec;
}

/** Mean over kernels x traces of tuned FP / baseline FP (Fig. 28). */
double
meanFpGain(const runner::SweepReport &report)
{
    double sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i + 1 < report.results.size(); i += 2) {
        const double base =
            static_cast<double>(report.results[i].result.forward_progress);
        const double tuned = static_cast<double>(
            report.results[i + 1].result.forward_progress);
        sum += base > 0.0 ? tuned / base : 0.0;
        ++n;
    }
    return n ? sum / n : 0.0;
}

std::unique_ptr<runner::SweepRunner>
setUpCampaign(const RunOptions &options, SetupParts *parts)
{
    Clock::time_point t0 = Clock::now();
    runner::SweepSpec spec = campaignSpec(options);
    parts->trace_ms = msSince(t0);

    t0 = Clock::now();
    auto sweep = std::make_unique<runner::SweepRunner>(std::move(spec));
    parts->construct_ms = msSince(t0);
    return sweep;
}

Outcome
runCampaign(const RunOptions &options)
{
    Outcome out;
    const Clock::time_point start = Clock::now();
    std::unique_ptr<runner::SweepRunner> owned =
        setUpCampaign(options, &out.setup);
    runner::SweepRunner &sweep = *owned;

    std::mutex mutex;
    Clock::time_point last_delivery;
    if (options.traced) {
        sweep.setDeliveryHook([&](const runner::JobResult &) {
            const Clock::time_point now = Clock::now();
            const std::lock_guard<std::mutex> lock(mutex);
            last_delivery = std::max(last_delivery, now);
        });
    }

    const Clock::time_point t0 = Clock::now();
    const runner::SweepReport report = sweep.run();
    const Clock::time_point done = Clock::now();
    out.wall_s = std::chrono::duration<double>(done - t0).count();

    out.ops = report.results.size();
    out.failed = report.failureCount();
    Digest digest;
    for (const runner::JobResult &jr : report.results) {
        digest.add(jr.spec.describe() + "\n");
        digest.add(jr.ok ? sim::serializeResult(jr.result) : "failed\n");
        out.instructions += jr.result.main_instructions;
        out.frames_scored += jr.result.frames_scored;
    }
    out.digest = digest.hex();
    out.fp_gain = meanFpGain(report);

    if (options.traced) {
        for (const runner::JobResult &jr : report.results)
            out.runner.job_ms.push_back(jr.wall_ms);
        out.runner.merge_ms =
            1e3 * std::chrono::duration<double>(done - last_delivery)
                      .count();
        out.runner.threads = report.jobs_used;
    }
    owned.reset();
    out.repetition_s = secondsSince(start);
    return out;
}

} // namespace

std::optional<Workload>
workloadFromName(const std::string &name)
{
    for (Workload w :
         {Workload::outage_dense, Workload::steady_power,
          Workload::campaign_grid, Workload::outage_dense_arena}) {
        if (name == workloadName(w))
            return w;
    }
    return std::nullopt;
}

const char *
workloadName(Workload workload)
{
    switch (workload) {
      case Workload::outage_dense: return "outage_dense";
      case Workload::steady_power: return "steady_power";
      case Workload::campaign_grid: return "campaign_grid";
      case Workload::outage_dense_arena: return "outage_dense_arena";
    }
    return "?";
}

bool
isSingleRun(Workload workload)
{
    return workload != Workload::campaign_grid;
}

Outcome
runWorkload(Workload workload, const RunOptions &options)
{
    return isSingleRun(workload) ? runSingle(workload, options)
                                 : runCampaign(options);
}

SetupParts
setUpOnly(Workload workload, const RunOptions &options)
{
    SetupParts parts;
    if (isSingleRun(workload))
        setUpSingle(workload, options, &parts);
    else
        setUpCampaign(options, &parts);
    return parts;
}

std::string
inputDigest(Workload workload, std::uint64_t seed)
{
    Digest digest;
    const auto addTrace = [&digest](const trace::PowerTrace &t) {
        const std::vector<double> &v = t.samples();
        digest.add(std::string(reinterpret_cast<const char *>(v.data()),
                               v.size() * sizeof(double)));
    };
    if (isSingleRun(workload)) {
        addTrace(makeTrace(workload, seed));
        const kernels::Kernel kernel = kernels::makeKernel(kSingleKernel);
        const util::SceneGenerator scene(kernel.width, kernel.height,
                                         kernel.scene, seed);
        const std::vector<std::uint8_t> frame =
            kernel.make_input(scene, 0);
        digest.add(std::string(frame.begin(), frame.end()));
    } else {
        for (const trace::PowerTrace &t : campaignTraces(seed))
            addTrace(t);
    }
    return digest.hex();
}

std::vector<std::string>
workloadKernels(Workload workload)
{
    return isSingleRun(workload)
               ? std::vector<std::string>{kSingleKernel}
               : kernels::kernelNames();
}

} // namespace perfbench
