/**
 * perfbench — host-time benchmark of the incidental-computing simulator.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--expect DIGEST] [--crosscheck] [--tmp DIR]
 *   perfbench --self-test --workload NAME --seed N [--tmp DIR]
 *
 * Untraced (--trace 0): one warm-up repetition, then a fixed number of
 * repetitions, each followed by blocks of set-ups and a host-speed
 * calibration, sized by the workload to fill about S seconds; prints
 * the end-to-end metrics over them.
 * Traced (--trace 1): alternates untraced and traced repetitions for S
 * seconds, then runs the per-layer probes; prints the per-layer
 * metrics. Every repetition's output digest must equal --expect (the
 * pinned digest for this workload and seed) or, without a pin, the
 * first repetition's; --crosscheck also runs the inputs once on the
 * reference engine, whose results are bit-identical by contract.
 *
 * The last stdout line is one JSON object. Exit status is nonzero when
 * any check failed. run.py builds this program and wraps it.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.h"
#include "common.h"
#include "isa/isa.h"
#include "probes.h"
#include "workloads.h"

using namespace perfbench;

namespace
{

/** Share of a traced single repetition's whole wall time that its
 *  set-up parts, sample classes and finalize must account for. */
constexpr double kMinCoverage = 0.95;

/** An untraced run stops timing repetitions once it has taken this
 *  many times --seconds. */
constexpr double kMaxOverrun = 4.0;

/** Outage length the decay probe uses when the workload has none
 *  (10 ms, in 0.1 ms units). */
constexpr double kDefaultOutageTenthMs = 100.0;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool self_test = false;
    bool crosscheck = false;
    std::string expect;
    std::string tmp = ".";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed "
                 "N --seconds S --trace 0|1 [--expect DIGEST] "
                 "[--crosscheck] [--tmp DIR]\n"
                 "       perfbench --self-test --workload NAME --seed N\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseCount(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-')
        usage((std::string(flag) + " wants a whole number").c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--self-test") {
            a.self_test = true;
            continue;
        }
        if (flag == "--crosscheck") {
            a.crosscheck = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed")
            a.seed = parseCount("--seed", value);
        else if (flag == "--seconds")
            a.seconds = static_cast<double>(parseCount("--seconds", value));
        else if (flag == "--trace")
            a.trace = parseCount("--trace", value) != 0;
        else if (flag == "--expect")
            a.expect = value;
        else if (flag == "--tmp")
            a.tmp = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (a.seconds <= 0.0)
        usage("--seconds must be positive");
    return a;
}

/** This process's peak resident set (VmHWM). getrusage's ru_maxrss
 *  is no substitute: it survives exec, so it reports the parent's peak
 *  when that was larger. */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kb = std::strtod(line + 6, nullptr);
    }
    std::fclose(f);
    return kb / 1024.0;
}

/** Counts operations and checks every digest against the reference
 *  (the pin, or the first digest seen). */
class Checker
{
  public:
    explicit Checker(std::string expect) : reference_(std::move(expect)) {}

    void check(const Outcome &o, const char *what)
    {
        attempted_ += o.ops;
        failed_ += o.failed;
        if (observed_.empty())
            observed_ = o.digest;
        if (reference_.empty())
            reference_ = o.digest;
        if (o.digest != reference_) {
            std::fprintf(stderr,
                         "perfbench: %s digest %s != expected %s\n", what,
                         o.digest.c_str(), reference_.c_str());
            failed_ += o.ops - o.failed;
            mismatch_ = true;
        }
    }

    void fail(const char *why)
    {
        std::fprintf(stderr, "perfbench: check failed: %s\n", why);
        self_check_failed_ = true;
    }

    bool correct() const
    {
        return failed_ == 0 && !mismatch_ && !self_check_failed_;
    }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    /** The first digest a repetition produced. */
    const std::string &digest() const { return observed_; }

  private:
    std::string reference_;
    std::string observed_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool mismatch_ = false;
    bool self_check_failed_ = false;
};

void
printResult(const Args &args, const Checker &checker, double fp_gain,
            const Metrics &metrics)
{
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"digest\": "
                "\"%s\", ",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                checker.digest().c_str());
    if (fp_gain > 0.0)
        std::printf("\"fig28_mean_fp_gain\": %.6f, ", fp_gain);
    std::printf("\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                checker.correct() ? "true" : "false",
                static_cast<unsigned long long>(checker.attempted()),
                static_cast<unsigned long long>(checker.failed()));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

RunOptions
runOptions(const Args &args, Workload workload)
{
    RunOptions o;
    o.seed = args.seed;
    o.tmp_dir = args.tmp;
    // The campaign runs on no more threads than the host has, and on at
    // most 4 so that hosts with more cores run the same workload.
    if (workload == Workload::campaign_grid) {
        o.threads =
            std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    }
    return o;
}

/** The reference-engine run of the same inputs (unpinned seeds). */
void
crosscheck(Workload workload, const RunOptions &base, Checker *checker)
{
    RunOptions o = base;
    o.engine = inc::nvp::ExecEngine::reference;
    checker->check(runWorkload(workload, o), "reference-engine");
}

/**
 * What an untraced run times: a fixed number of repetitions, and after
 * each one a fixed number of set-up blocks of back-to-back set-ups and
 * a calibration. The counts depend on the workload and --seconds
 * alone, never on how fast the program is, so two builds are compared
 * on samples of the same size.
 */
struct Plan
{
    std::size_t repetitions = 1;
    int blocks_per_repetition = 1;
    int setups_per_block = 1;
    int calibration_rounds = 1;
};

Plan
untracedPlan(Workload workload, double seconds)
{
    // Typical time of one repetition with its set-up blocks and
    // calibration on the reference host, so that the plan fills about
    // --seconds. A block holds at least 25 ms of set-ups, so one
    // preemption cannot decide it. The campaign's 1.5 s repetitions get
    // four calibration rounds (about 120 ms), so that the host's speed
    // is sampled over a similar share of their time.
    double rep_s = 0.0;
    Plan plan;
    switch (workload) {
      case Workload::outage_dense:
        rep_s = 0.30;
        plan.setups_per_block = 8;
        break;
      case Workload::steady_power:
        rep_s = 0.22;
        plan.setups_per_block = 16;
        break;
      case Workload::campaign_grid:
        rep_s = 1.57;
        plan.blocks_per_repetition = 5;
        plan.calibration_rounds = 4;
        plan.setups_per_block = 32;
        break;
      case Workload::outage_dense_arena:
        // Arena set-up is file-system work with a long tail: six
        // set-ups (about 60 ms) a block.
        rep_s = 0.36;
        plan.setups_per_block = 6;
        break;
    }
    plan.repetitions =
        std::max<std::size_t>(1, static_cast<std::size_t>(seconds / rep_s));
    return plan;
}

/** Mean set-up time, in s, of @p count back-to-back set-ups. */
double
setupBlock(Workload workload, const RunOptions &opts, int count)
{
    double total = 0.0;
    for (int i = 0; i < count; ++i)
        total += setUpOnly(workload, opts).totalSeconds();
    return total / count;
}

int
runUntraced(const Args &args, Workload workload)
{
    const RunOptions opts = runOptions(args, workload);
    const Plan plan = untracedPlan(workload, args.seconds);
    Checker checker(args.expect);
    checker.check(runWorkload(workload, opts), "warm-up");

    // Each repetition and its set-up blocks are scaled to the reference
    // host speed by the calibrations before and after them (see
    // calibrate.h); the _raw vectors keep the host seconds as measured.
    Calibrator calibrator(opts.threads, plan.calibration_rounds);
    std::vector<double> wall, wall_raw, mips, setup, setup_raw, speed;
    std::vector<double> interpreter_s, stream_s;
    double fp_gain = 0.0;
    HostSpeed before = calibrator.measure();
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < plan.repetitions; ++i) {
        // A build several times slower than the plan assumes stops
        // early, so that the run still ends in bounded time.
        if (secondsSince(start) > kMaxOverrun * args.seconds)
            break;
        const Outcome o = runWorkload(workload, opts);
        fp_gain = o.fp_gain;
        checker.check(o, "repetition");
        std::vector<double> blocks;
        for (int b = 0; b < plan.blocks_per_repetition; ++b)
            blocks.push_back(
                setupBlock(workload, opts, plan.setups_per_block));
        const HostSpeed after = calibrator.measure();
        const double f = Calibrator::factor(before, after);
        before = after;

        speed.push_back(f);
        interpreter_s.push_back(after.interpreter_s);
        stream_s.push_back(after.stream_s);
        wall_raw.push_back(o.wall_s);
        wall.push_back(f * o.wall_s);
        mips.push_back(1e-6 * static_cast<double>(o.instructions) /
                       (f * o.wall_s));
        for (double b : blocks) {
            setup.push_back(f * b);
            setup_raw.push_back(b);
        }
    }
    const double rss_mb = peakRssMb();
    if (args.crosscheck)
        crosscheck(workload, opts, &checker);

    const Metrics metrics = {
        {"wall_s", median(wall), "s"},
        {"sim_mips", median(mips), "M/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"reps", static_cast<double>(wall.size()), "count"},
        {"wall_s_raw", median(wall_raw), "s"},
        {"setup_s_raw", median(setup_raw), "s"},
        {"host_speed", median(speed), "ratio"},
        {"calibration_interpreter_s", median(interpreter_s), "s"},
        {"calibration_stream_s", median(stream_s), "s"},
    };
    printResult(args, checker, fp_gain, metrics);
    return checker.correct() ? 0 : 1;
}

/** Share of a traced single repetition's wall time, from the start of
 *  set-up to the end of teardown, that its set-up parts, sample
 *  classes and finalize account for. */
double
tracedCoverage(const Outcome &o)
{
    const SampleProfile &p = o.samples;
    return (o.setup.totalSeconds() + p.on_s + p.off_s + p.outage_s +
            1e-3 * p.finalize_ms) /
           o.repetition_s;
}

/** Medians of the traced repetitions' per-layer quantities. */
struct TracedMedians
{
    std::vector<double> on_us, off_us, outage_us, outage_share;
    std::vector<double> on_n, off_n, outage_n, coverage;
    std::vector<double> trace_ms, construct_ms, arena_ms, finalize_ms;
    std::vector<double> outage_lengths;
    std::vector<double> job_p50, job_p90, job_max, busy, merge_ms;
};

void
addTraced(const Outcome &o, bool single, TracedMedians *m)
{
    m->trace_ms.push_back(o.setup.trace_ms);
    m->construct_ms.push_back(o.setup.construct_ms);
    m->arena_ms.push_back(o.setup.arena_ms);
    if (single) {
        const SampleProfile &p = o.samples;
        const auto mean_us = [](double s, std::uint64_t n) {
            return n ? 1e6 * s / static_cast<double>(n) : 0.0;
        };
        m->on_us.push_back(mean_us(p.on_s, p.on));
        m->off_us.push_back(mean_us(p.off_s, p.off));
        m->outage_us.push_back(mean_us(p.outage_s, p.outage));
        m->on_n.push_back(static_cast<double>(p.on));
        m->off_n.push_back(static_cast<double>(p.off));
        m->outage_n.push_back(static_cast<double>(p.outage));
        const double stepping = p.on_s + p.off_s + p.outage_s;
        m->outage_share.push_back(stepping > 0 ? p.outage_s / stepping
                                               : 0.0);
        m->finalize_ms.push_back(p.finalize_ms);
        m->coverage.push_back(tracedCoverage(o));
        m->outage_lengths.insert(m->outage_lengths.end(),
                                 p.outage_lengths.begin(),
                                 p.outage_lengths.end());
    } else {
        const RunnerProfile &r = o.runner;
        m->job_p50.push_back(quantile(r.job_ms, 0.5));
        m->job_p90.push_back(quantile(r.job_ms, 0.9));
        m->job_max.push_back(quantile(r.job_ms, 1.0));
        double busy_ms = 0.0;
        for (double ms : r.job_ms)
            busy_ms += ms;
        m->busy.push_back(busy_ms / (1e3 * o.wall_s * r.threads));
        m->merge_ms.push_back(r.merge_ms);
    }
}

int
runTraced(const Args &args, Workload workload)
{
    const bool single = isSingleRun(workload);
    const RunOptions plain = runOptions(args, workload);
    RunOptions traced = plain;
    traced.traced = true;

    Checker checker(args.expect);
    std::vector<double> plain_wall, traced_wall;
    TracedMedians m;
    Outcome last;
    const Clock::time_point start = Clock::now();
    while (traced_wall.empty() || secondsSince(start) < args.seconds) {
        const Outcome p = runWorkload(workload, plain);
        checker.check(p, "untraced");
        plain_wall.push_back(p.repetition_s);
        last = runWorkload(workload, traced);
        checker.check(last, "traced");
        traced_wall.push_back(last.repetition_s);
        addTraced(last, single, &m);
    }
    if (args.crosscheck)
        crosscheck(workload, plain, &checker);

    ProbeInputs probe;
    probe.seed = args.seed;
    probe.kernels = workloadKernels(workload);
    probe.image_bytes = inc::isa::kDataMemBytes;
    probe.outage_tenth_ms = m.outage_lengths.empty()
                                ? kDefaultOutageTenthMs
                                : median(m.outage_lengths);
    Metrics metrics = runProbes(probe);

    const auto add = [&metrics](const char *name,
                                const std::vector<double> &v,
                                const char *unit) {
        metrics.push_back({name, median(v), unit});
    };
    add("sim.sample_on_us", m.on_us, "us");
    add("sim.sample_on_count", m.on_n, "count");
    add("sim.sample_off_us", m.off_us, "us");
    add("sim.sample_off_count", m.off_n, "count");
    add("sim.sample_outage_us", m.outage_us, "us");
    add("sim.sample_outage_count", m.outage_n, "count");
    add("sim.outage_share", m.outage_share, "fraction");
    add("sim.finalize_ms", m.finalize_ms, "ms");
    add("sim.traced_coverage", m.coverage, "fraction");
    add("trace.generate_ms", m.trace_ms, "ms");
    add("sim.construct_ms", m.construct_ms, "ms");
    add("arena.open_ms", m.arena_ms, "ms");
    add("runner.job_ms_p50", m.job_p50, "ms");
    add("runner.job_ms_p90", m.job_p90, "ms");
    add("runner.job_ms_max", m.job_max, "ms");
    add("runner.busy_frac", m.busy, "fraction");
    add("runner.merge_ms", m.merge_ms, "ms");
    metrics.push_back({"runner.jobs",
                       single ? 0.0 : static_cast<double>(last.ops),
                       "count"});
    metrics.push_back({"runner.threads",
                       static_cast<double>(last.runner.threads), "count"});
    metrics.push_back({"kernels.frames_scored",
                       static_cast<double>(last.frames_scored), "count"});
    metrics.push_back({"arena.commits",
                       static_cast<double>(last.arena_commits), "count"});
    metrics.push_back({"arena.bytes",
                       static_cast<double>(last.arena_log_bytes), "bytes"});
    metrics.push_back({"ckpt.backup_bytes",
                       static_cast<double>(last.checkpoint_bytes), "bytes"});
    metrics.push_back({"trace_overhead_frac",
                       median(traced_wall) / median(plain_wall) - 1.0,
                       "fraction"});
    metrics.push_back({"traced_reps",
                       static_cast<double>(traced_wall.size()), "count"});

    if (single && median(m.coverage) < kMinCoverage)
        checker.fail("traced set-up, samples and finalize cover under "
                     "95 % of the traced wall time");
    metrics.push_back(
        {"fail_frac",
         static_cast<double>(checker.failed()) /
             static_cast<double>(std::max<std::uint64_t>(
                 1, checker.attempted())),
         "fraction"});
    printResult(args, checker, last.fp_gain, metrics);
    return checker.correct() ? 0 : 1;
}

/**
 * The benchmark's self-test: a different seed changes the inputs and
 * the digest, the same seed reproduces the digest, and a traced run
 * produces the untraced digest.
 */
int
runSelfTest(const Args &args, Workload workload)
{
    RunOptions opts = runOptions(args, workload);
    Checker checker("");
    const Outcome first = runWorkload(workload, opts);
    checker.check(first, "first");
    checker.check(runWorkload(workload, opts), "repeated seed");
    opts.traced = true;
    const Outcome traced = runWorkload(workload, opts);
    checker.check(traced, "traced");
    if (isSingleRun(workload)) {
        std::printf("self-test: traced coverage %.4f\n",
                    tracedCoverage(traced));
        if (tracedCoverage(traced) < kMinCoverage)
            checker.fail("traced coverage under 95 %");
    }

    if (inputDigest(workload, args.seed) ==
        inputDigest(workload, args.seed + 1))
        checker.fail("seed + 1 generated the same inputs");
    opts.traced = false;
    opts.seed = args.seed + 1;
    const Outcome other = runWorkload(workload, opts);
    if (other.digest == first.digest)
        checker.fail("seed + 1 produced the same digest");
    std::printf("self-test %s seed %llu: digest %s, seed+1 digest %s: "
                "%s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                first.digest.c_str(), other.digest.c_str(),
                checker.correct() ? "ok" : "FAILED");
    return checker.correct() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::optional<Workload> workload =
        workloadFromName(args.workload);
    if (!workload)
        usage(("unknown workload '" + args.workload + "'").c_str());
    try {
        if (args.self_test)
            return runSelfTest(args, *workload);
        return args.trace ? runTraced(args, *workload)
                          : runUntraced(args, *workload);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
