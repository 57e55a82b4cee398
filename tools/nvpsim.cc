/**
 * @file
 * nvpsim — command-line front end to the incidental-computing stack.
 *
 * Subcommands:
 *
 *   nvpsim trace [--profile N] [--seconds S] [--seed K] [--out F.csv]
 *       Synthesize a watch-harvester trace, print its statistics, and
 *       optionally save it as CSV (loadable back via --trace).
 *
 *   nvpsim run [--kernel NAME] [--profile N | --trace F.csv]
 *              [--mode precise|fixed|dynamic] [--bits B] [--minbits B]
 *              [--policy full|linear|log|parabola] [--baseline]
 *              [--engine reference|predecoded|batch]
 *              [--strategy active|freezer|ondemand] [--seconds S]
 *              [--seed K]
 *              [--metrics F.json] [--trace-out F.trace.json]
 *              [--arena DIR]
 *       Co-simulate a kernel on a power trace and print the result
 *       record (forward progress, backups, quality, lane statistics).
 *       --metrics attaches an observer (src/obs) and writes its metric
 *       registry as JSON, then verifies the cross-metric identities of
 *       obs/schema.h (violations exit nonzero). --trace-out writes a
 *       Chrome-trace / Perfetto JSON timeline (power phases, backups,
 *       restores, frame lifetimes, capacitor level); it is named
 *       --trace-out rather than --trace because --trace already means
 *       "input power-trace CSV". --arena DIR backs the simulated NVM
 *       (data memory + RAC version store) with a persistence arena
 *       (src/arena) at DIR instead of heap buffers; with --metrics the
 *       arena.* session statistics are folded into the registry.
 *       --strategy selects the backup strategy attached to the run
 *       (sim::allStrategies(): active, freezer, ondemand; DESIGN.md
 *       §14). Strategies are an observation overlay — the simulated
 *       trajectory is bit-identical across all of them — that persists
 *       a checkpoint image ("ckpt.image"/"ckpt.meta", CRC-verified,
 *       arena-backed with --arena) and reports its backup cost in the
 *       ckpt.* metric block.
 *
 *   nvpsim sweep [--kernels A,B,...|all] [--profiles 1,2,...|all]
 *                [--mode precise|fixed|dynamic] [--bits B] [--minbits B]
 *                [--policy full|linear|log|parabola] [--baseline]
 *                [--engine reference|predecoded|batch]
 *                [--strategy active|freezer|ondemand] [--seconds S]
 *                [--seed K] [--jobs N] [--batch-width W] [--out F.csv]
 *                [--metrics F.json] [--report] [--report-out F.json]
 *                [--arena DIR] [--resume] [--kill-after N]
 *       Run the kernel x profile grid in parallel on N worker threads
 *       (default: hardware concurrency) via runner::SweepRunner.
 *       Results are aggregated in deterministic job order — the output
 *       is byte-identical at any --jobs value, including the merged
 *       metric registry that --metrics writes (per-job registries are
 *       folded in job-index order and scheduling artifacts are
 *       excluded). Failing jobs are retried once, then reported; the
 *       exit status is nonzero only if failures remain after retry.
 *       --inject-failure J makes job J throw (a testing aid for the
 *       failure-capture path). --batch-width W packs pending jobs, in
 *       expansion order, into lane-batched groups of up to W
 *       co-simulators stepped in lockstep (sim::SimBatch); like
 *       --jobs, it only changes scheduling — every output is
 *       byte-identical at any --jobs x --batch-width combination.
 *       --report derives a run report from the
 *       merged registry (plus per-kernel efficiency rows) and prints
 *       it; --report-out saves its JSON. Report output carries no
 *       scheduling artifacts — with --report the sweep header also
 *       omits worker/wall-clock info — so the full stdout and the
 *       saved report are byte-identical at any --jobs value.
 *       --arena DIR journals campaign progress into a persistence
 *       arena: each completed job's bit-exact result is committed to
 *       DIR, and a killed campaign restarted with the same flags plus
 *       --resume re-runs only the unfinished jobs — the merged
 *       metrics/report/CSV output is byte-identical to an
 *       uninterrupted run. Resuming requires --resume (a bound arena
 *       without it is a fatal error, as is a flag/fingerprint
 *       mismatch). Arena session statistics go to stderr so stdout
 *       stays parallelism- and history-independent. --kill-after N is
 *       a testing aid that SIGKILLs the process after N jobs have been
 *       journaled.
 *
 *   nvpsim serve CAMPAIGN.json --workers N [--fleet-dir DIR] [--resume]
 *                [--socket PATH] [--shards S] [--worker-jobs J]
 *                [--max-shard-retries R] [--heartbeat-timeout SEC]
 *                [--out F.csv] [--metrics F.json] [--report]
 *                [--report-out F.json] [--fleet-metrics F.json]
 *                [--status-socket [PATH]] [--trace-out F.trace.json]
 *                [--progress-every N] [--kill-worker-after K]
 *       Fleet campaign service (src/fleet, DESIGN.md §15): expand the
 *       campaign file's sweep grid once, partition it into contiguous
 *       job shards, and execute them across N `nvpsim work` child
 *       processes over a Unix-domain socket, folding every streamed
 *       result back into job-index order. The folded --out/--metrics/
 *       --report output is byte-identical to the serial `nvpsim
 *       sweep` with the same campaign at ANY --workers count — the
 *       shard plan and delivery order only schedule when a job runs,
 *       never what it computes. Workers journal each shard into a
 *       per-shard persistence arena under --fleet-dir (default
 *       CAMPAIGN.json.fleet): a worker that crashes (detected by
 *       socket EOF) or stalls past --heartbeat-timeout is SIGKILLed
 *       and its shard reassigned (bounded by --max-shard-retries,
 *       default 3) to a respawned worker, which warm-restarts from
 *       the journal instead of recomputing. Serving the same campaign
 *       into the same --fleet-dir with --resume resumes it; without
 *       --resume a fleet dir that already holds a campaign is a hard
 *       error (as for `sweep --arena`), and so is a fleet dir whose
 *       fingerprint marker names a different campaign. The stderr
 *       summary counts the jobs resumed from the fleet dir's journals
 *       and the jobs computed. fleet.* scheduling metrics (shards
 *       dispatched/reassigned/retried, workers spawned/lost, worker
 *       wall time, merge bytes) stay in a separate registry — stderr
 *       summary and
 *       a telemetry snapshot JSON ({"schema":"inc-fleet-telemetry-v1",
 *       "campaign":FP,"fleet":{...}}) written to --fleet-metrics or,
 *       by default when --metrics F.json is given, to
 *       F.json.fleet.json — so campaign outputs stay crash-history-
 *       independent. --kill-worker-after K is a testing
 *       aid: first-generation workers SIGKILL themselves after K
 *       journaled jobs (respawned replacements run clean), the
 *       kill/reassign matrix of tests/test_fleet.cc.
 *       Live telemetry plane (DESIGN.md §16): workers stream PROGRESS
 *       frames every --progress-every delivered jobs (default 1, 0
 *       disables) carrying shard position, a cumulative metrics
 *       snapshot and completed trace spans. --status-socket [PATH]
 *       opens a second Unix socket (default <fleet-dir>/status.sock)
 *       that streams point-in-time STATE snapshots to every
 *       connection — see `nvpsim status`. --trace-out merges worker
 *       span batches with coordinator scheduling events
 *       (spawn/hello/assign/reassign/loss) into one Chrome-trace /
 *       Perfetto JSON with a process-name record per worker, on a
 *       shared wall-clock time base. The entire plane is read-only
 *       over the result path: all campaign outputs stay byte-identical
 *       whether or not any of these flags are set.
 *
 *   nvpsim work --socket PATH --campaign FILE --fleet-dir DIR
 *               [--jobs N] [--collect-metrics 0|1]
 *               [--progress-every N] [--kill-after K]
 *       Fleet worker entry point (spawned by `nvpsim serve`; usable
 *       manually for debugging). Connects to the coordinator socket,
 *       announces the campaign fingerprint it derived independently
 *       from the campaign file, and executes SHARD assignments —
 *       journal-backed, streaming each result the moment it commits —
 *       until told to EXIT.
 *
 *   nvpsim status <SOCKET|FLEET-DIR> [--json] [--watch]
 *       Query a running campaign's --status-socket (a fleet dir
 *       resolves to DIR/status.sock). By default prints a one-shot
 *       human-readable snapshot: jobs done/total, shard progress,
 *       throughput and ETA, a per-worker health table (pid,
 *       generation, ok/starting/stale/lost, heartbeat age, shard
 *       position, current job), and live outage percentiles folded
 *       from worker PROGRESS snapshots. --json prints the raw
 *       inc-fleet-status-v1 document instead; --watch follows the
 *       stream until the campaign completes (with --json, one
 *       document per line — the final one always reports
 *       jobs_done == jobs_total). Exits nonzero when the socket is
 *       unreachable or no snapshot arrives.
 *
 *   nvpsim fuzz [--trials N] [--seed K] [--jobs N] [--samples S]
 *               [--repro-dir DIR] [--minimize] [--replay DIR]
 *               [--inject-bug leaky-backup] [--engine-diff]
 *               [--modes A,B,...]
 *       Differential crash-consistency fuzzing (src/check): N seeded
 *       trials of randomized kernels on mutated power traces through
 *       the co-simulator, cross-validated against the functional
 *       simulator and the structural invariants of incidental
 *       computing. Violations exit nonzero and, with --repro-dir,
 *       write self-contained repro bundles (--minimize also shrinks
 *       them). --replay re-runs one bundle deterministically.
 *       --inject-bug is a testing aid that plants a known recovery
 *       bug so the harness itself can be validated. --engine-diff
 *       additionally re-runs every co-simulator trial under each of
 *       the other registered engines (nvp::allExecEngines():
 *       reference, predecoded, batch) and requires the serialized
 *       SimResult and metrics JSON to match byte-for-byte (the
 *       engine-equivalence invariant; see DESIGN.md §11, §13).
 *       --modes restricts trials to a comma-separated list of trial
 *       modes (exact_recovery, bounded_error, monotone_bits,
 *       rac_merge, arena_recovery, batch_lanes, strategy_diff,
 *       fleet_merge);
 *       filtered trials keep the specs an unfiltered run of the same
 *       seed would draw, so repro seeds stay exact.
 *
 *   nvpsim report [--kernel NAME] [--profile N | --trace F.csv]
 *                 [run flags] [--flight-capacity N] [--out F.json]
 *                 [--from-metrics F.json]
 *       Run a co-simulation with an observer + flight recorder attached
 *       and print the derived run report (src/obs/report): energy
 *       attribution over the energy.* ledger split, conservation
 *       ledger, outage/on-period p50/p95/p99, per-kernel
 *       forward-progress efficiency, and the per-outage flight log.
 *       --out also saves the canonical JSON form. --from-metrics
 *       re-derives the report offline from a previously written
 *       metrics JSON (no simulation, no flight log). Exits nonzero
 *       when the registry violates the obs/schema.h identities.
 *
 *   nvpsim asm FILE.s [--run] [--steps N]
 *       Assemble a program; print the disassembly, optionally execute.
 *
 *   nvpsim kernels
 *       List the registered testbench kernels with program sizes.
 */

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

#include "arena/arena.h"
#include "arena/backend.h"
#include "check/diff_harness.h"
#include "core/pragma_parser.h"
#include "fleet/campaign.h"
#include "fleet/coordinator.h"
#include "fleet/protocol.h"
#include "fleet/socket.h"
#include "fleet/worker.h"
#include "isa/assembler.h"
#include "isa/disassembler.h"
#include "kernels/kernel.h"
#include "obs/event_tracer.h"
#include "obs/json.h"
#include "obs/observer.h"
#include "obs/report/flight_recorder.h"
#include "obs/report/report.h"
#include "obs/schema.h"
#include "runner/journal.h"
#include "runner/sweep.h"
#include "runner/thread_pool.h"
#include "sim/system_sim.h"
#include "trace/outage_stats.h"
#include "trace/trace_generator.h"
#include "util/csv.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/table.h"

using namespace inc;

namespace
{

/** Tiny --flag value argument parser. */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 0; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) == 0) {
                const std::string key = arg.substr(2);
                const std::size_t eq = key.find('=');
                if (eq != std::string::npos) {
                    // --key=value form.
                    values_[key.substr(0, eq)] = key.substr(eq + 1);
                } else if (i + 1 < argc && argv[i + 1][0] != '-') {
                    values_[key] = argv[++i];
                } else {
                    values_[key] = "1";
                }
            } else {
                positional_.push_back(arg);
            }
        }
    }

    std::string get(const std::string &key,
                    const std::string &fallback = "") const
    {
        const auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    double num(const std::string &key, double fallback) const
    {
        const auto it = values_.find(key);
        return it == values_.end() ? fallback
                                   : std::strtod(it->second.c_str(),
                                                 nullptr);
    }

    bool has(const std::string &key) const
    {
        return values_.count(key) > 0;
    }

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

/** Write @p content to @p path, creating the parent directory first
 *  (nested output paths get the same treatment as INC_BENCH_OUTDIR). */
bool
writeTextFile(const std::string &path, const std::string &content)
{
    if (!util::ensureParentDir(path))
        return false;
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << content;
    return static_cast<bool>(out);
}

/** Open (or create/recover) a persistence arena; fatal on corruption
 *  the recovery path cannot skip. */
std::unique_ptr<arena::Arena>
openArenaOrDie(const std::string &dir)
{
    try {
        return arena::Arena::open(dir);
    } catch (const std::exception &e) {
        util::fatal("cannot open arena '%s': %s", dir.c_str(),
                    e.what());
    }
    return nullptr; // unreachable
}

trace::PowerTrace
loadOrGenerateTrace(const Args &args)
{
    if (args.has("trace")) {
        trace::PowerTrace t =
            trace::PowerTrace::loadCsv(args.get("trace"), "file trace");
        if (t.empty())
            util::fatal("could not load trace '%s'",
                        args.get("trace").c_str());
        return t;
    }
    const int profile = static_cast<int>(args.num("profile", 2));
    const double seconds = args.num("seconds", 5.0);
    const auto seed = static_cast<std::uint64_t>(args.num("seed", 2017));
    trace::TraceGenerator gen(trace::paperProfile(profile), seed);
    return gen.generate(static_cast<std::size_t>(seconds * 1e4));
}

int
cmdTrace(const Args &args)
{
    const trace::PowerTrace t = loadOrGenerateTrace(args);
    const trace::OutageStats stats = trace::analyzeOutages(t);

    util::Table table(t.name());
    table.setHeader({"metric", "value"});
    table.addRow({"duration", util::Table::num(t.durationSec(), 2) +
                                  " s"});
    table.addRow({"mean power",
                  util::Table::num(t.meanPower(), 1) + " uW"});
    table.addRow({"peak power",
                  util::Table::num(t.peakPower(), 0) + " uW"});
    table.addRow({"harvestable energy",
                  util::Table::num(t.totalEnergyUj(), 1) + " uJ"});
    table.addRow({"emergencies (33 uW)",
                  util::Table::integer(
                      static_cast<long long>(stats.count()))});
    table.addRow({"mean outage",
                  util::Table::num(stats.meanDurationTenthMs() / 10.0,
                                   2) +
                      " ms"});
    table.addRow({"longest outage",
                  util::Table::num(stats.maxDurationTenthMs() / 10.0,
                                   1) +
                      " ms"});
    table.print();

    if (args.has("out")) {
        if (!t.saveCsv(args.get("out")))
            util::fatal("could not write '%s'", args.get("out").c_str());
        std::printf("trace written to %s\n", args.get("out").c_str());
    }
    return 0;
}

/** Build a SimConfig from the shared run/sweep command-line flags. */
sim::SimConfig
configFromArgs(const Args &args)
{
    sim::SimConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(args.num("seed", 2017));
    const std::string mode = args.get("mode", "dynamic");
    if (mode == "precise") {
        cfg.bits.mode = approx::ApproxMode::precise;
    } else if (mode == "fixed") {
        cfg.bits.mode = approx::ApproxMode::fixed;
        cfg.bits.fixed_bits = static_cast<int>(args.num("bits", 4));
    } else if (mode == "dynamic") {
        cfg.bits.mode = approx::ApproxMode::dynamic;
        cfg.bits.min_bits = static_cast<int>(args.num("minbits", 2));
    } else {
        util::fatal("unknown --mode '%s'", mode.c_str());
    }
    cfg.controller.backup_policy =
        nvm::policyFromName(args.get("policy", "linear"));
    if (args.has("baseline")) {
        cfg.controller.roll_forward = false;
        cfg.controller.simd_adoption = false;
        cfg.controller.history_spawn = false;
        cfg.controller.process_newest_first = false;
    }
    cfg.income_scale = args.num("income-scale", cfg.income_scale);
    cfg.frame_period_factor =
        args.num("frame-factor", cfg.frame_period_factor);
    if (args.has("engine")) {
        const std::string engine = args.get("engine");
        const auto parsed = nvp::execEngineFromName(engine);
        if (!parsed)
            util::fatal("unknown --engine '%s' (%s)", engine.c_str(),
                        nvp::execEngineNames().c_str());
        cfg.exec_engine = *parsed;
    }
    if (args.has("strategy")) {
        const std::string strategy = args.get("strategy");
        const auto parsed = sim::strategyFromName(strategy);
        if (!parsed)
            util::fatal("unknown --strategy '%s' (%s)",
                        strategy.c_str(),
                        sim::strategyNames().c_str());
        cfg.strategy = *parsed;
    }
    return cfg;
}

int
cmdRun(const Args &args)
{
    const std::string name = args.get("kernel", "sobel");
    const trace::PowerTrace t = loadOrGenerateTrace(args);
    const kernels::Kernel kernel = kernels::makeKernel(name);
    sim::SimConfig cfg = configFromArgs(args);

    const bool want_metrics = args.has("metrics");
    const bool want_trace = args.has("trace-out");
    obs::Observer observer;
    obs::EventTracer tracer;
    if (want_metrics || want_trace) {
        if (want_trace)
            observer.tracer = &tracer;
        cfg.obs = &observer;
    }

    // --arena: back the simulated NVM with a file-resident persistence
    // arena so the data-memory image survives the process.
    std::unique_ptr<arena::Arena> store;
    std::unique_ptr<arena::ArenaBackend> backend;
    if (args.has("arena")) {
        store = openArenaOrDie(args.get("arena"));
        backend = std::make_unique<arena::ArenaBackend>(store.get());
        cfg.persistence = backend.get();
    }

    sim::SystemSimulator s(kernel, &t, cfg);
    const sim::SimResult r = s.run();

    util::Table table(name + " on " + t.name());
    table.setHeader({"metric", "value"});
    auto add = [&table](const char *k, const std::string &v) {
        table.addRow({k, v});
    };
    add("forward progress (all lanes)",
        util::Table::integer(
            static_cast<long long>(r.forward_progress)));
    add("lane-0 instructions",
        util::Table::integer(
            static_cast<long long>(r.main_instructions)));
    add("system-on time",
        util::Table::num(100.0 * r.on_time_fraction, 1) + " %");
    add("backups / restores",
        util::Table::integer(static_cast<long long>(r.backups)) + " / " +
            util::Table::integer(static_cast<long long>(r.restores)));
    add("roll-forwards",
        util::Table::integer(
            static_cast<long long>(r.controller.roll_forwards)));
    add("SIMD adoptions",
        util::Table::integer(
            static_cast<long long>(r.controller.adoptions)));
    add("history spawns",
        util::Table::integer(
            static_cast<long long>(r.controller.history_spawns)));
    add("frames captured / completed",
        util::Table::integer(
            static_cast<long long>(r.frames_captured)) +
            " / " +
            util::Table::integer(static_cast<long long>(
                r.controller.frames_completed)));
    if (r.frames_scored > 0) {
        add("mean PSNR",
            util::Table::num(r.mean_psnr, 1) + " dB over " +
                util::Table::integer(r.frames_scored) + " frames");
        add("mean coverage",
            util::Table::num(100.0 * r.mean_coverage, 1) + " %");
    }
    add("backup energy",
        util::Table::num(r.backup_energy_nj / 1000.0, 1) + " uJ");
    add("retention violations",
        util::Table::integer(static_cast<long long>(
            r.retention_failures.totalViolations())));
    table.print();

    if (want_trace) {
        const std::string path = args.get("trace-out");
        if (!util::ensureParentDir(path))
            util::fatal("cannot create parent directory for '%s'",
                        path.c_str());
        if (!tracer.writeChromeTraceJson(path))
            util::fatal("could not write '%s'", path.c_str());
        std::printf("chrome trace written to %s (%zu events",
                    path.c_str(), tracer.size());
        if (tracer.dropped() > 0)
            std::printf(", %llu dropped",
                        static_cast<unsigned long long>(
                            tracer.dropped()));
        std::printf(")\n");
    }
    if (want_metrics) {
        const std::string path = args.get("metrics");
        if (!util::ensureParentDir(path))
            util::fatal("cannot create parent directory for '%s'",
                        path.c_str());
        if (store)
            arena::publishArenaStats(store->stats(),
                                     observer.registry);
        if (!observer.registry.writeJson(path))
            util::fatal("could not write '%s'", path.c_str());
        std::printf("metrics written to %s\n", path.c_str());
        const std::vector<std::string> problems =
            obs::verifySimMetricIdentities(observer.registry);
        if (!problems.empty()) {
            for (const auto &p : problems)
                std::fprintf(stderr, "metric identity violated: %s\n",
                             p.c_str());
            return 1;
        }
    }
    return 0;
}

int
cmdReport(const Args &args)
{
    const std::string out = args.get("out");

    // Offline mode: re-derive the report from a saved metrics JSON
    // (e.g. one written by `run --metrics` or `sweep --metrics`).
    if (args.has("from-metrics")) {
        const std::string path = args.get("from-metrics");
        std::ifstream f(path, std::ios::binary);
        if (!f)
            util::fatal("cannot open '%s'", path.c_str());
        std::ostringstream ss;
        ss << f.rdbuf();
        obs::MetricsRegistry registry;
        std::string error;
        if (!obs::MetricsRegistry::fromJson(ss.str(), &registry,
                                            &error))
            util::fatal("could not parse '%s': %s", path.c_str(),
                        error.c_str());
        const obs::RunReport report = obs::buildRunReport(registry);
        std::fputs(report.renderText().c_str(), stdout);
        if (!out.empty()) {
            if (!writeTextFile(out, report.toJson()))
                util::fatal("could not write '%s'", out.c_str());
            std::printf("report written to %s\n", out.c_str());
        }
        return report.identity_violations.empty() ? 0 : 1;
    }

    const std::string name = args.get("kernel", "sobel");
    const trace::PowerTrace t = loadOrGenerateTrace(args);
    const kernels::Kernel kernel = kernels::makeKernel(name);
    sim::SimConfig cfg = configFromArgs(args);

    const auto capacity = static_cast<std::size_t>(
        args.num("flight-capacity", 1024));
    obs::Observer observer;
    obs::FlightRecorder flight(capacity, capacity);
    observer.flight = &flight;
    cfg.obs = &observer;

    sim::SystemSimulator s(kernel, &t, cfg);
    const sim::SimResult r = s.run();

    std::vector<obs::KernelEfficiency> efficiency(1);
    efficiency[0].kernel = name;
    efficiency[0].forward_progress = r.forward_progress;
    efficiency[0].instructions = r.main_instructions;
    efficiency[0].frames_completed = r.controller.frames_completed;
    efficiency[0].consumed_nj = r.consumed_energy_nj;

    const obs::RunReport report = obs::buildRunReport(
        observer.registry, &flight, std::move(efficiency));
    std::fputs(report.renderText().c_str(), stdout);
    if (!out.empty()) {
        if (!writeTextFile(out, report.toJson()))
            util::fatal("could not write '%s'", out.c_str());
        std::printf("report written to %s\n", out.c_str());
    }
    if (!report.identity_violations.empty()) {
        for (const auto &v : report.identity_violations)
            std::fprintf(stderr, "metric identity violated: %s\n",
                         v.c_str());
        return 1;
    }
    return 0;
}

/** Map the shared sweep grid/config flags onto a CampaignSpec — the
 *  single definition of a campaign, shared with `serve`/`work`, so
 *  the CLI sweep and a fleet run of the equivalent campaign file
 *  expand identical jobs and derive identical arena fingerprints. */
fleet::CampaignSpec
campaignFromArgs(const Args &args)
{
    fleet::CampaignSpec campaign;
    campaign.kernels = args.get("kernels", "all");
    campaign.profiles = args.get("profiles", "all");
    campaign.seconds = args.num("seconds", 5.0);
    campaign.seed =
        static_cast<std::uint64_t>(args.num("seed", 2017));
    campaign.mode = args.get("mode", "dynamic");
    campaign.bits = static_cast<int>(args.num("bits", 4));
    campaign.minbits = static_cast<int>(args.num("minbits", 2));
    campaign.policy = args.get("policy", "linear");
    campaign.baseline = args.has("baseline");
    campaign.engine = args.get("engine", "default");
    if (args.has("strategy"))
        campaign.strategy = args.get("strategy");
    if (args.has("income-scale"))
        campaign.income_scale = args.num("income-scale", -1.0);
    if (args.has("frame-factor"))
        campaign.frame_factor = args.num("frame-factor", -1.0);
    return campaign;
}

/** Emit a (possibly fleet-folded) sweep report: results table plus
 *  the optional --out CSV, --metrics JSON, and --report/--report-out
 *  run report, then the failure summary. Shared verbatim by `sweep`
 *  and `serve`, so the fleet's outputs are byte-identical to the
 *  serial run's by construction. */
int
emitSweepOutputs(const runner::SweepReport &report, const Args &args,
                 bool want_report, const std::string &title)
{
    util::Table table(title);
    table.setHeader({"kernel", "trace", "variant", "FP (all lanes)",
                     "on-time", "backups", "mean PSNR", "status"});
    util::CsvWriter csv;
    csv.setHeader({"kernel", "trace", "variant", "forward_progress",
                   "on_time_fraction", "backups", "mean_psnr",
                   "status"});
    for (const auto &jr : report.results) {
        const sim::SimResult &r = jr.result;
        const std::string psnr =
            jr.ok && r.frames_scored > 0
                ? util::Table::num(r.mean_psnr, 1) + " dB"
                : "-";
        table.addRow(
            {jr.spec.kernel, jr.spec.trace_name, jr.spec.variant,
             jr.ok ? util::Table::integer(
                         static_cast<long long>(r.forward_progress))
                   : "-",
             jr.ok ? util::Table::num(100.0 * r.on_time_fraction, 1) +
                         " %"
                   : "-",
             jr.ok ? util::Table::integer(
                         static_cast<long long>(r.backups))
                   : "-",
             psnr, jr.ok ? "ok" : "FAILED"});
        csv.addRow({jr.spec.kernel, jr.spec.trace_name, jr.spec.variant,
                    jr.ok ? std::to_string(r.forward_progress) : "",
                    jr.ok ? util::Table::num(r.on_time_fraction, 6) : "",
                    jr.ok ? std::to_string(r.backups) : "",
                    jr.ok ? util::Table::num(r.mean_psnr, 3) : "",
                    jr.ok ? "ok" : "failed"});
    }
    table.print();
    if (args.has("out")) {
        if (!util::ensureParentDir(args.get("out")))
            util::fatal("cannot create parent directory for '%s'",
                        args.get("out").c_str());
        if (!csv.write(args.get("out")))
            util::fatal("could not write '%s'", args.get("out").c_str());
        std::printf("results written to %s\n", args.get("out").c_str());
    }
    if (args.has("metrics")) {
        const std::string path = args.get("metrics");
        if (!util::ensureParentDir(path))
            util::fatal("cannot create parent directory for '%s'",
                        path.c_str());
        const obs::MetricsRegistry merged = report.mergedMetrics();
        if (!merged.writeJson(path))
            util::fatal("could not write '%s'", path.c_str());
        std::printf("merged metrics written to %s\n", path.c_str());
    }
    if (want_report) {
        const obs::RunReport run_report = obs::buildRunReport(
            report.mergedMetrics(), nullptr, report.kernelEfficiency());
        std::fputs(run_report.renderText().c_str(), stdout);
        if (args.has("report-out")) {
            const std::string path = args.get("report-out");
            if (!writeTextFile(path, run_report.toJson()))
                util::fatal("could not write '%s'", path.c_str());
            std::printf("report written to %s\n", path.c_str());
        }
    }
    if (!report.allOk()) {
        std::fputs(report.failureReport().c_str(), stderr);
        std::fprintf(stderr, "%zu of %zu jobs failed after retry\n",
                     report.failureCount(), report.results.size());
        return 1;
    }
    return 0;
}

/** The sweep/serve stdout header: with --report every stdout byte
 *  must be independent of the parallelism (and of sweep-vs-fleet), so
 *  the header drops the worker/wall-clock info. */
std::string
sweepTitle(const runner::SweepReport &report, bool want_report)
{
    return want_report
               ? util::format("sweep: %zu jobs", report.results.size())
               : util::format(
                     "sweep: %zu jobs on %u workers, %.1f s wall",
                     report.results.size(), report.jobs_used,
                     report.wall_seconds);
}

int
cmdSweep(const Args &args)
{
    const fleet::CampaignSpec campaign = campaignFromArgs(args);
    const bool want_report =
        args.has("report") || args.has("report-out");
    runner::SweepSpec spec = fleet::buildSweepSpec(
        campaign, args.has("metrics") || want_report);
    spec.jobs = static_cast<int>(args.num(
        "jobs", runner::ThreadPool::defaultThreads()));
    if (spec.jobs < 1)
        util::fatal("--jobs must be >= 1");
    spec.batch_width =
        static_cast<int>(args.num("batch-width", 1));
    if (spec.batch_width < 1)
        util::fatal("--batch-width must be >= 1");
    // Like --jobs, --batch-width only changes scheduling: the output
    // is byte-identical at any width, so it is not part of the arena
    // fingerprint below.
    if (spec.batch_width > 1 && args.has("inject-failure"))
        util::fatal("--batch-width > 1 cannot be combined with "
                    "--inject-failure (the injected body is a custom "
                    "JobFn, which the SimBatch packer rejects)");

    std::unique_ptr<runner::SweepRunner> sweep_holder;
    if (args.has("inject-failure")) {
        const auto victim =
            static_cast<std::size_t>(args.num("inject-failure", 0));
        runner::SweepRunner::JobFn body =
            [victim](const runner::JobSpec &job,
                     const trace::PowerTrace &trace,
                     util::Rng &rng) -> sim::SimResult {
            if (job.index == victim)
                throw std::runtime_error("injected failure (testing)");
            return runner::SweepRunner::simJob(job, trace, rng);
        };
        sweep_holder =
            std::make_unique<runner::SweepRunner>(spec, body);
    } else {
        // One-arg constructor: marks the body as the default sim job,
        // which is what allows --batch-width to pack jobs.
        sweep_holder = std::make_unique<runner::SweepRunner>(spec);
    }
    runner::SweepRunner &sweep = *sweep_holder;

    // --arena: journal campaign progress so a killed sweep can warm-
    // restart. The fingerprint covers the expanded jobs (kernels,
    // trace bytes, seed tree) plus every flag that shapes a job's
    // SimConfig, so a resume with different flags is refused instead
    // of silently mixing results.
    std::unique_ptr<arena::Arena> store;
    std::unique_ptr<runner::SweepJournal> journal;
    if (args.has("arena")) {
        const std::string dir = args.get("arena");
        const std::string fingerprint_extra =
            fleet::campaignFingerprintExtra(campaign,
                                            spec.collect_metrics);
        const std::vector<runner::JobSpec> jobs =
            runner::expandSweep(spec);
        const std::string fp = runner::SweepJournal::fingerprint(
            spec, jobs, fingerprint_extra);
        store = openArenaOrDie(dir);
        journal = std::make_unique<runner::SweepJournal>(store.get());
        if (journal->bound()) {
            if (!args.has("resume"))
                util::fatal(
                    "arena '%s' already holds a campaign (%zu of %zu "
                    "jobs done); pass --resume to continue it or use "
                    "a fresh directory",
                    dir.c_str(), journal->completedCount(),
                    journal->jobsTotal());
            if (journal->boundFingerprint() != fp)
                util::fatal(
                    "arena '%s' holds a different campaign "
                    "(fingerprint %s, this sweep is %s); re-run with "
                    "the original flags or use a fresh directory",
                    dir.c_str(), journal->boundFingerprint().c_str(),
                    fp.c_str());
            std::fprintf(stderr,
                         "arena: resuming %zu of %zu jobs done\n",
                         journal->completedCount(),
                         journal->jobsTotal());
        } else {
            journal->bind(fp, jobs.size());
        }
        sweep.setJournal(journal.get());
    }

    // --kill-after N: SIGKILL ourselves after N jobs have been
    // journaled — the harness for the kill-and-resume recipe
    // (EXPERIMENTS.md) and tests/test_arena_sweep.cc.
    if (args.has("kill-after")) {
        if (!journal)
            util::fatal("--kill-after requires --arena");
        const auto kill_after =
            static_cast<std::size_t>(args.num("kill-after", 1));
        auto recorded = std::make_shared<std::atomic<std::size_t>>(0);
        sweep.setRecordHook([recorded, kill_after](std::size_t) {
            if (recorded->fetch_add(1) + 1 >= kill_after)
                std::raise(SIGKILL);
        });
    }

    const runner::SweepReport report = sweep.run();

    // Arena session stats go to stderr: stdout must stay byte-
    // identical between a fresh run and a resumed one.
    if (store) {
        const arena::ArenaStats &st = store->stats();
        std::fprintf(
            stderr,
            "arena: epoch %llu, %llu records (%llu commits, %llu "
            "bytes) appended; replayed %llu records (%llu commits), "
            "discarded %llu torn bytes, recovery %.2f ms\n",
            static_cast<unsigned long long>(store->epoch()),
            static_cast<unsigned long long>(st.log_records),
            static_cast<unsigned long long>(st.commits),
            static_cast<unsigned long long>(st.log_bytes),
            static_cast<unsigned long long>(st.replayed_records),
            static_cast<unsigned long long>(st.replayed_commits),
            static_cast<unsigned long long>(st.discarded_tail_bytes),
            st.recovery_ms);
    }
    return emitSweepOutputs(report, args, want_report,
                            sweepTitle(report, want_report));
}

/** Absolute path of the running binary: `serve` respawns itself as
 *  `work` processes, so the fleet always runs one build. */
std::string
selfExePath()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf,
                                 sizeof(buf) - 1);
    if (n <= 0)
        util::fatal("cannot resolve /proc/self/exe: %s",
                    std::strerror(errno));
    return std::string(buf, static_cast<std::size_t>(n));
}

int
cmdServe(const Args &args)
{
    if (args.positional().size() < 2)
        util::fatal("usage: nvpsim serve CAMPAIGN.json --workers N "
                    "[--fleet-dir DIR] (see the header of "
                    "tools/nvpsim.cc)");
    fleet::ServeOptions opt;
    opt.campaign_path = args.positional()[1];
    opt.fleet_dir =
        args.get("fleet-dir", opt.campaign_path + ".fleet");
    opt.socket_path = args.get("socket");
    opt.resume = args.has("resume");
    opt.nvpsim_path = selfExePath();

    // Strict parse: "--workers banana" (or 0) must die loudly, not
    // silently fall back to a serial fleet.
    const std::string workers = args.get("workers", "1");
    char *end = nullptr;
    const long parsed = std::strtol(workers.c_str(), &end, 10);
    if (end == workers.c_str() || *end != '\0' || parsed < 1)
        util::fatal("unknown worker count '%s' (--workers wants a "
                    "positive integer)",
                    workers.c_str());
    opt.workers = static_cast<int>(parsed);

    opt.worker_jobs = static_cast<int>(args.num("worker-jobs", 1));
    if (opt.worker_jobs < 1)
        util::fatal("--worker-jobs must be >= 1");
    opt.shards = static_cast<std::size_t>(args.num("shards", 0));
    opt.max_shard_retries =
        static_cast<int>(args.num("max-shard-retries", 3));
    opt.heartbeat_timeout_s = args.num("heartbeat-timeout", 120.0);
    // A zero/negative timeout would silently mean "never detect a
    // stalled worker" — reject it so typos die loudly; crank the
    // value up instead if a campaign legitimately needs slack.
    if (opt.heartbeat_timeout_s <= 0)
        util::fatal("--heartbeat-timeout must be a positive number of "
                    "seconds (got '%s')",
                    args.get("heartbeat-timeout").c_str());
    const bool want_report =
        args.has("report") || args.has("report-out");
    opt.collect_metrics = args.has("metrics") || want_report;
    if (args.has("status-socket")) {
        const std::string path = args.get("status-socket");
        // Bare `--status-socket` (parsed as "1") means the default
        // path beside the campaign socket.
        opt.status_socket = (path.empty() || path == "1")
                                ? opt.fleet_dir + "/status.sock"
                                : path;
    }
    opt.trace_out = args.get("trace-out");
    const double progress_every = args.num("progress-every", 1.0);
    if (progress_every < 0)
        util::fatal("--progress-every must be >= 0 (0 disables "
                    "PROGRESS frames)");
    opt.progress_every = static_cast<std::size_t>(progress_every);
    opt.kill_worker_after =
        static_cast<std::size_t>(args.num("kill-worker-after", 0));

    const fleet::FleetOutcome outcome = fleet::serveCampaign(opt);

    // Scheduling telemetry goes to stderr (and --fleet-metrics): the
    // campaign's stdout/file outputs must stay byte-identical to the
    // serial sweep, independent of worker count and crash history.
    const auto counter = [&outcome](const char *name) {
        return static_cast<unsigned long long>(
            outcome.fleet_metrics.counterValue(name));
    };
    std::fprintf(
        stderr,
        "fleet: %llu shard dispatches (%llu reassigned, %llu "
        "retried), %llu workers spawned (%llu lost), %llu result "
        "bytes merged\n",
        counter(obs::kFleetShardsDispatched),
        counter(obs::kFleetShardsReassigned),
        counter(obs::kFleetShardsRetried),
        counter(obs::kFleetWorkersSpawned),
        counter(obs::kFleetWorkersLost),
        counter(obs::kFleetMergeBytes));
    const std::size_t jobs_total = outcome.report.results.size();
    std::fprintf(stderr,
                 "fleet: %zu jobs resumed from the fleet dir, %zu "
                 "computed\n",
                 outcome.jobs_resumed, jobs_total - outcome.jobs_resumed);
    // Fleet telemetry snapshot: the fleet.* registry wrapped in its
    // own document (separate "fleet" top-level key, tagged with the
    // campaign fingerprint). Written to --fleet-metrics, or defaulted
    // to a sibling of --metrics — NEVER folded into the campaign
    // metrics document itself, which must stay byte-identical to the
    // serial `nvpsim sweep`.
    std::string fleet_metrics_path = args.get("fleet-metrics");
    if (fleet_metrics_path.empty() && args.has("metrics"))
        fleet_metrics_path = args.get("metrics") + ".fleet.json";
    if (!fleet_metrics_path.empty()) {
        obs::JsonValue registry_json;
        std::string parse_error;
        if (!obs::parseJson(outcome.fleet_metrics.toJson(),
                            &registry_json, &parse_error))
            util::fatal("fleet metrics registry did not serialize: %s",
                        parse_error.c_str());
        obs::JsonValue doc = obs::JsonValue::object();
        doc.set("schema",
                obs::JsonValue::of(std::string("inc-fleet-telemetry-"
                                               "v1")));
        doc.set("campaign", obs::JsonValue::of(outcome.fingerprint));
        doc.set("fleet", std::move(registry_json));
        if (!writeTextFile(fleet_metrics_path, doc.dump() + "\n"))
            util::fatal("could not write '%s'",
                        fleet_metrics_path.c_str());
        std::fprintf(stderr, "fleet telemetry written to %s\n",
                     fleet_metrics_path.c_str());
    }

    return emitSweepOutputs(outcome.report, args, want_report,
                            sweepTitle(outcome.report, want_report));
}

int
cmdWork(const Args &args)
{
    fleet::WorkerOptions opt;
    opt.socket_path = args.get("socket");
    opt.campaign_path = args.get("campaign");
    opt.fleet_dir = args.get("fleet-dir");
    if (opt.socket_path.empty() || opt.campaign_path.empty() ||
        opt.fleet_dir.empty())
        util::fatal("usage: nvpsim work --socket PATH --campaign FILE "
                    "--fleet-dir DIR (normally spawned by `nvpsim "
                    "serve`)");
    opt.jobs = static_cast<int>(args.num("jobs", 1));
    if (opt.jobs < 1)
        util::fatal("--jobs must be >= 1");
    opt.collect_metrics =
        static_cast<int>(args.num("collect-metrics", 0)) != 0;
    opt.progress_every =
        static_cast<std::size_t>(args.num("progress-every", 1));
    opt.kill_after =
        static_cast<std::size_t>(args.num("kill-after", 0));
    return fleet::runWorker(opt);
}

double
statusNum(const obs::JsonValue &doc, const char *key, double fallback)
{
    const obs::JsonValue *v = doc.find(key);
    return v != nullptr && v->isNumber() ? v->number() : fallback;
}

std::string
statusStr(const obs::JsonValue &doc, const char *key)
{
    const obs::JsonValue *v = doc.find(key);
    return v != nullptr && v->isString() ? v->string() : std::string();
}

/** Render one inc-fleet-status-v1 snapshot as human-readable text. */
void
renderStatus(const obs::JsonValue &doc)
{
    const double jobs_done = statusNum(doc, "jobs_done", 0);
    const double jobs_total = statusNum(doc, "jobs_total", 0);
    const double throughput = statusNum(doc, "throughput_jps", 0);
    const double eta = statusNum(doc, "eta_s", -1);
    std::printf("fleet status: %.0f/%.0f jobs (%.1f %%), %.0f/%.0f "
                "shards, %.2f jobs/s",
                jobs_done, jobs_total,
                jobs_total > 0 ? 100.0 * jobs_done / jobs_total : 0.0,
                statusNum(doc, "shards_completed", 0),
                statusNum(doc, "shards_planned", 0), throughput);
    if (eta >= 0)
        std::printf(", ETA %.1f s", eta);
    std::printf("\ncampaign %s, %.1f s elapsed\n",
                statusStr(doc, "fingerprint").c_str(),
                statusNum(doc, "elapsed_s", 0));

    const obs::JsonValue *workers = doc.find("workers");
    if (workers != nullptr && workers->isArray()) {
        util::Table table("workers");
        table.setHeader({"pid", "gen", "health", "heartbeat", "shard",
                         "progress", "job"});
        for (const auto &row : workers->items()) {
            const double age = statusNum(row, "heartbeat_age_s", -1);
            const double shard = statusNum(row, "shard", -1);
            table.addRow(
                {util::Table::integer(static_cast<long long>(
                     statusNum(row, "pid", 0))),
                 util::Table::integer(static_cast<long long>(
                     statusNum(row, "generation", 0))),
                 statusStr(row, "health"),
                 age >= 0 ? util::Table::num(age, 1) + " s" : "-",
                 shard >= 0 ? util::Table::integer(
                                  static_cast<long long>(shard))
                            : "-",
                 util::format(
                     "%.0f/%.0f", statusNum(row, "shard_done", 0),
                     statusNum(row, "shard_assigned", 0)),
                 statusStr(row, "job")});
        }
        table.print();
    }

    const obs::JsonValue *live = doc.find("live");
    if (live != nullptr && live->isObject() &&
        live->find("outage_p50_ms") != nullptr) {
        std::printf("live outage percentiles: p50 %.1f ms, p95 %.1f "
                    "ms, p99 %.1f ms (%.0f backups, %.0f restores, "
                    "%.0f shard snapshots)\n",
                    statusNum(*live, "outage_p50_ms", 0),
                    statusNum(*live, "outage_p95_ms", 0),
                    statusNum(*live, "outage_p99_ms", 0),
                    statusNum(*live, "backups_committed", 0),
                    statusNum(*live, "restores", 0),
                    statusNum(*live, "metrics_shards", 0));
    }
}

int
cmdStatus(const Args &args)
{
    if (args.positional().size() < 2)
        util::fatal("usage: nvpsim status <SOCKET|FLEET-DIR> "
                    "[--json] [--watch]");
    std::string path = args.positional()[1];
    struct stat st = {};
    if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
        path += "/status.sock"; // a fleet dir: the default endpoint
    std::string error;
    const int fd = fleet::connectUnix(path, &error);
    if (fd < 0) {
        std::fprintf(stderr,
                     "nvpsim status: cannot connect to '%s': %s\n",
                     path.c_str(), error.c_str());
        return 1;
    }

    const bool watch = args.has("watch");
    const bool as_json = args.has("json");
    fleet::MessageReader reader;
    char buffer[64 * 1024];
    std::string snapshot;
    bool saw_frame = false;
    // The coordinator sends one STATE immediately on accept, then a
    // throttled stream, then a final jobs_done == jobs_total frame
    // before closing. Plain mode answers from the first frame;
    // --watch follows the stream to completion.
    while (true) {
        fleet::Message message;
        const bool have = reader.next(&message, &error);
        if (!have && !error.empty()) {
            std::fprintf(stderr, "nvpsim status: %s\n", error.c_str());
            ::close(fd);
            return 1;
        }
        if (!have) {
            const long n = fleet::readSome(fd, buffer, sizeof(buffer));
            if (n == 0)
                break; // campaign finished (or coordinator died)
            if (n < 0) {
                std::fprintf(stderr,
                             "nvpsim status: socket read failed\n");
                ::close(fd);
                return 1;
            }
            reader.feed(buffer, static_cast<std::size_t>(n));
            continue;
        }
        if (!fleet::decodeState(message, &snapshot, &error)) {
            std::fprintf(stderr, "nvpsim status: %s\n", error.c_str());
            ::close(fd);
            return 1;
        }
        saw_frame = true;
        if (watch && as_json) {
            // One canonical-JSON document per line: the streaming
            // form tests and dashboards consume.
            std::fputs((snapshot + "\n").c_str(), stdout);
            std::fflush(stdout);
        }
        if (!watch)
            break;
    }
    ::close(fd);
    if (!saw_frame) {
        std::fprintf(stderr,
                     "nvpsim status: no snapshot received from '%s'\n",
                     path.c_str());
        return 1;
    }
    if (as_json) {
        if (!watch)
            std::fputs((snapshot + "\n").c_str(), stdout);
        return 0;
    }
    obs::JsonValue doc;
    if (!obs::parseJson(snapshot, &doc, &error)) {
        std::fprintf(stderr, "nvpsim status: bad snapshot: %s\n",
                     error.c_str());
        return 1;
    }
    renderStatus(doc);
    return 0;
}

int
cmdAsm(const Args &args)
{
    if (args.positional().size() < 2)
        util::fatal("usage: nvpsim asm FILE.s [--run] [--steps N]");
    const std::string path = args.positional()[1];
    std::ifstream f(path);
    if (!f)
        util::fatal("cannot open '%s'", path.c_str());
    std::ostringstream ss;
    ss << f.rdbuf();

    // The front end accepts both plain assembly and the Sec. 5
    // "#pragma ac" annotated dialect.
    const core::PragmaParseResult result =
        core::parseAnnotated(ss.str());
    if (!result.ok)
        util::fatal("%s: %s", path.c_str(), result.error.c_str());
    const isa::Program &program = result.annotated.program;
    std::printf("%zu instructions\n%s", program.size(),
                isa::disassemble(program).c_str());
    for (const auto &[name, region] : result.annotated.regions) {
        std::printf(".region %s at 0x%x, %u bytes\n", name.c_str(),
                    region.address, region.size);
    }
    for (const auto &d : result.annotated.incidental) {
        std::printf("incidental(%s, %d, %d, %s)\n", d.region.c_str(),
                    d.min_bits, d.max_bits,
                    nvm::policyName(d.policy).c_str());
    }
    if (result.annotated.recover_register >= 0) {
        std::printf("incidental_recover_from(r%d)\n",
                    result.annotated.recover_register);
    }

    if (args.has("run")) {
        util::Rng rng(1);
        nvp::DataMemory mem(rng.split());
        result.annotated.applyRegions(mem);
        nvp::Core core(&program, &mem, {}, rng.split());
        const auto steps = static_cast<long>(args.num("steps", 100000));
        long executed = 0;
        while (!core.halted() && executed < steps) {
            core.step();
            ++executed;
        }
        std::printf("executed %ld instructions; %s\n", executed,
                    core.halted() ? "halted" : "step limit reached");
        for (int r = 1; r < isa::kNumRegs; ++r) {
            if (core.regs().read(0, r) != 0)
                std::printf("  r%-2d = %u\n", r, core.regs().read(0, r));
        }
    }
    return 0;
}

int
cmdKernels()
{
    util::Table table("registered kernels");
    table.setHeader({"name", "instructions", "frame", "in ring",
                     "out ring", "adoption-safe"});
    for (const auto &name : kernels::kernelNames()) {
        const kernels::Kernel k = kernels::makeKernel(name);
        table.addRow(
            {k.name,
             util::Table::integer(
                 static_cast<long long>(k.program.size())),
             util::format("%dx%d", k.width, k.height),
             util::format("%d x %u B", k.layout.in_slots,
                          k.layout.in_bytes),
             util::format("%d x %u B", k.layout.out_slots,
                          k.layout.out_bytes),
             k.adoption_safe ? "yes" : "no (memory scratch)"});
    }
    table.print();
    return 0;
}

int
cmdFuzz(const Args &args)
{
    if (args.has("replay")) {
        check::TrialSpec spec;
        if (!check::loadBundle(args.get("replay"), &spec))
            util::fatal("could not load repro bundle '%s'",
                        args.get("replay").c_str());
        const check::Divergence div = check::runTrial(spec);
        if (div.violated) {
            std::printf("replay: VIOLATION invariant=%s frame=%u "
                        "byte=%zu expected=%d actual=%d\n  %s\n",
                        div.invariant.c_str(), div.frame, div.byte,
                        div.expected, div.actual, div.detail.c_str());
            return 1;
        }
        std::printf("replay: clean (seed=%llu mode=%s)\n",
                    static_cast<unsigned long long>(spec.seed),
                    check::modeName(spec.mode));
        return 0;
    }

    check::CheckConfig cfg;
    cfg.trials = static_cast<int>(args.num("trials", 200));
    if (cfg.trials < 1)
        util::fatal("--trials must be >= 1");
    cfg.master_seed = static_cast<std::uint64_t>(args.num("seed", 1));
    cfg.jobs = static_cast<unsigned>(args.num("jobs", 0));
    cfg.trace_samples =
        static_cast<std::size_t>(args.num("samples", 6000));
    if (cfg.trace_samples < 100)
        util::fatal("--samples must be >= 100");
    cfg.repro_dir = args.get("repro-dir");
    cfg.minimize = args.has("minimize");
    const std::string bug = args.get("inject-bug", "none");
    if (bug == "leaky-backup" || bug == "leaky_backup")
        cfg.inject = check::BugKind::leaky_backup;
    else if (bug != "none")
        util::fatal("unknown --inject-bug '%s'", bug.c_str());
    cfg.engine_diff = args.has("engine-diff");
    cfg.mode_filter = args.get("modes");

    const check::CheckReport report = check::runCheck(cfg);
    std::printf("fuzz: %s\n", report.summary().c_str());
    for (const auto &failure : report.failures) {
        if (!failure.bundle_dir.empty())
            std::printf("  repro bundle: %s\n",
                        failure.bundle_dir.c_str());
    }
    return report.allOk() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(
            stderr,
            "usage: nvpsim "
            "<trace|run|sweep|serve|work|status|report|fuzz|asm|"
            "kernels> [options]\n"
            "see the file header of tools/nvpsim.cc\n");
        return 1;
    }
    const Args args(argc - 1, argv + 1);
    const std::string cmd = argv[1];
    if (cmd == "trace")
        return cmdTrace(args);
    if (cmd == "run")
        return cmdRun(args);
    if (cmd == "sweep")
        return cmdSweep(args);
    if (cmd == "serve")
        return cmdServe(args);
    if (cmd == "work")
        return cmdWork(args);
    if (cmd == "status")
        return cmdStatus(args);
    if (cmd == "report")
        return cmdReport(args);
    if (cmd == "fuzz")
        return cmdFuzz(args);
    if (cmd == "asm")
        return cmdAsm(args);
    if (cmd == "kernels")
        return cmdKernels();
    std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
    return 1;
}
