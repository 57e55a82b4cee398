/**
 * @file
 * The fleet campaign service test tier (src/fleet, DESIGN.md §15).
 *
 * In-process units: shard-planner partition properties, campaign JSON
 * round trip and rejection, wire-protocol encode/decode round trips
 * (including failed jobs, the live-plane PROGRESS/STATE frames, and
 * fuzz-grade byte-at-a-time stream fragmentation), ResultFolder
 * ordering/duplicate semantics, and the SpanBatch ring / trace-merger
 * units of the fleet telemetry plane (DESIGN.md §16).
 *
 * Process level (spawning the real nvpsim binary): the worker-count
 * matrix — one campaign served at --workers 1, 2 and 4 must produce
 * --out/--metrics/--report-out files AND stdout byte-identical to the
 * serial `nvpsim sweep` of the same grid; the crash matrix — with
 * --kill-worker-after every first-generation worker SIGKILLs itself
 * mid-shard, and after reassignment + journal warm-restart the merged
 * bytes must still be identical; the live-telemetry surface — `nvpsim
 * status --watch` against a 4-worker campaign must stream monotone
 * progress ending at jobs_done == jobs_total, still answer (with a
 * "lost" worker row) after --kill-worker-after, and enabling
 * --status-socket + --trace-out must leave all four campaign
 * artifacts byte-identical; and the CLI hard-error surface — a
 * fingerprint-mismatched fleet dir, a bogus worker count, a
 * non-positive --heartbeat-timeout, and dead socket paths all die
 * with a clear fatal message.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "fleet/campaign.h"
#include "fleet/folder.h"
#include "fleet/protocol.h"
#include "obs/fleet_trace.h"
#include "obs/json.h"
#include "runner/shard.h"
#include "runner/sweep.h"
#include "sim/result_io.h"

using namespace inc;

namespace fs = std::filesystem;

// ---- shard planner ---------------------------------------------------

TEST(ShardPlanner, PartitionsEveryJobExactlyOnce)
{
    for (std::size_t jobs = 0; jobs <= 40; ++jobs) {
        for (std::size_t max_shards = 1; max_shards <= 9;
             ++max_shards) {
            const std::vector<runner::ShardRange> plan =
                runner::planShards(jobs, max_shards);
            if (jobs == 0) {
                EXPECT_TRUE(plan.empty());
                continue;
            }
            ASSERT_EQ(plan.size(), std::min(jobs, max_shards));
            std::size_t next = 0;
            std::size_t smallest = jobs, largest = 0;
            for (std::size_t i = 0; i < plan.size(); ++i) {
                EXPECT_EQ(plan[i].id, i);
                EXPECT_EQ(plan[i].begin, next);
                ASSERT_LT(plan[i].begin, plan[i].end);
                next = plan[i].end;
                smallest = std::min(smallest, plan[i].size());
                largest = std::max(largest, plan[i].size());
            }
            EXPECT_EQ(next, jobs);
            EXPECT_LE(largest - smallest, 1u)
                << jobs << " jobs / " << max_shards << " shards";
        }
    }
}

// ---- campaign spec ---------------------------------------------------

TEST(Campaign, JsonRoundTripPreservesEveryField)
{
    fleet::CampaignSpec spec;
    spec.kernels = "sobel,median";
    spec.profiles = "2,3";
    spec.seconds = 0.75;
    spec.seed = 4242;
    spec.mode = "fixed";
    spec.bits = 6;
    spec.minbits = 3;
    spec.policy = "log";
    spec.baseline = true;
    spec.engine = "default";
    spec.strategy = "freezer";
    spec.income_scale = 1.5;
    spec.frame_factor = 2.0;

    fleet::CampaignSpec back;
    std::string error;
    ASSERT_TRUE(fleet::campaignFromJson(fleet::campaignToJson(spec),
                                        &back, &error))
        << error;
    EXPECT_EQ(back.kernels, spec.kernels);
    EXPECT_EQ(back.profiles, spec.profiles);
    EXPECT_DOUBLE_EQ(back.seconds, spec.seconds);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.mode, spec.mode);
    EXPECT_EQ(back.bits, spec.bits);
    EXPECT_EQ(back.minbits, spec.minbits);
    EXPECT_EQ(back.policy, spec.policy);
    EXPECT_EQ(back.baseline, spec.baseline);
    EXPECT_EQ(back.strategy, spec.strategy);
    EXPECT_DOUBLE_EQ(back.income_scale, spec.income_scale);
    EXPECT_DOUBLE_EQ(back.frame_factor, spec.frame_factor);
}

TEST(Campaign, RejectsUnknownKeysAndWrongTypes)
{
    fleet::CampaignSpec spec;
    std::string error;
    EXPECT_FALSE(fleet::campaignFromJson(
        R"({"kernels": "sobel", "wokers": 4})", &spec, &error));
    EXPECT_NE(error.find("unknown campaign key 'wokers'"),
              std::string::npos)
        << error;
    EXPECT_FALSE(fleet::campaignFromJson(R"({"seconds": "five"})",
                                         &spec, &error));
    EXPECT_NE(error.find("wrong type"), std::string::npos) << error;
    EXPECT_FALSE(fleet::campaignFromJson("[1,2]", &spec, &error));
}

TEST(Campaign, BuildSweepSpecExpandsTheGridDeterministically)
{
    fleet::CampaignSpec spec;
    spec.kernels = "sobel,median";
    spec.profiles = "2,3";
    spec.seconds = 0.2;
    spec.seed = 9;
    const runner::SweepSpec a = fleet::buildSweepSpec(spec, true);
    const runner::SweepSpec b = fleet::buildSweepSpec(spec, true);
    EXPECT_EQ(a.kernels, (std::vector<std::string>{"sobel", "median"}));
    ASSERT_EQ(a.traces.size(), 2u);
    EXPECT_TRUE(a.collect_metrics);
    const std::vector<runner::JobSpec> ja = runner::expandSweep(a);
    const std::vector<runner::JobSpec> jb = runner::expandSweep(b);
    ASSERT_EQ(ja.size(), 4u);
    ASSERT_EQ(ja.size(), jb.size());
    for (std::size_t i = 0; i < ja.size(); ++i) {
        EXPECT_EQ(ja[i].rng_seed, jb[i].rng_seed);
        EXPECT_EQ(ja[i].kernel, jb[i].kernel);
    }

    // The fingerprint extra is stable, and sensitive to config flags.
    const std::string extra =
        fleet::campaignFingerprintExtra(spec, true);
    EXPECT_EQ(extra, fleet::campaignFingerprintExtra(spec, true));
    EXPECT_NE(extra, fleet::campaignFingerprintExtra(spec, false));
    fleet::CampaignSpec other = spec;
    other.policy = "log";
    EXPECT_NE(extra, fleet::campaignFingerprintExtra(other, true));
}

// ---- wire protocol ---------------------------------------------------

namespace
{

runner::JobSpec
jobSpecAt(std::size_t index)
{
    runner::JobSpec spec;
    spec.index = index;
    spec.kernel = "sobel";
    spec.trace_name = "trace";
    spec.variant = "base";
    return spec;
}

runner::JobResult
okJobResult(std::size_t index, bool with_metrics)
{
    runner::JobResult jr;
    jr.spec = jobSpecAt(index);
    jr.attempts = 1;
    jr.ok = true;
    jr.result.forward_progress = 123 + index;
    jr.result.backups = 7;
    jr.result.on_time_fraction = 0.625;
    jr.result.mean_psnr = 31.25;
    jr.result.frames_scored = 4;
    if (with_metrics)
        jr.metrics.counter("test.counter").value =
            static_cast<double>(10 + index);
    return jr;
}

/** Decode one encoded frame, feeding the reader 1 byte at a time. */
fleet::DecodedResult
decodeFrameBytewise(const std::string &frame)
{
    fleet::MessageReader reader;
    fleet::Message message;
    std::string error;
    bool got = false;
    for (std::size_t i = 0; i < frame.size(); ++i) {
        reader.feed(frame.data() + i, 1);
        if (reader.next(&message, &error)) {
            got = true;
            break;
        }
        EXPECT_TRUE(error.empty()) << error;
    }
    EXPECT_TRUE(got) << "frame never completed";
    fleet::DecodedResult decoded;
    EXPECT_TRUE(fleet::decodeResult(message, &decoded, &error))
        << error;
    return decoded;
}

} // namespace

TEST(FleetProtocol, ResultRoundTripIsBitExact)
{
    const runner::JobResult jr = okJobResult(5, true);
    const fleet::DecodedResult decoded =
        decodeFrameBytewise(fleet::encodeResult(jr));

    runner::JobResult back;
    std::string error;
    ASSERT_TRUE(fleet::resultFromDecoded(decoded, jr.spec, &back,
                                         &error))
        << error;
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.attempts, jr.attempts);
    EXPECT_EQ(sim::serializeResult(back.result),
              sim::serializeResult(jr.result));
    EXPECT_EQ(back.metrics.toJson(), jr.metrics.toJson());
}

TEST(FleetProtocol, FailedJobTravelsWithItsError)
{
    runner::JobResult jr;
    jr.spec = jobSpecAt(2);
    jr.attempts = 2;
    jr.ok = false;
    jr.error = "injected failure (testing)";

    const fleet::DecodedResult decoded =
        decodeFrameBytewise(fleet::encodeResult(jr));
    EXPECT_FALSE(decoded.ok);
    EXPECT_EQ(decoded.attempts, 2);
    EXPECT_TRUE(decoded.result_text.empty());
    runner::JobResult back;
    std::string error;
    ASSERT_TRUE(fleet::resultFromDecoded(decoded, jr.spec, &back,
                                         &error))
        << error;
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.error, jr.error);
}

TEST(FleetProtocol, ControlMessagesRoundTrip)
{
    std::string fp;
    long pid = 0;
    ASSERT_TRUE(fleet::parseHello("HELLO abc123 4711", &fp, &pid));
    EXPECT_EQ(fp, "abc123");
    EXPECT_EQ(pid, 4711);

    runner::ShardRange shard{3, 8, 12};
    runner::ShardRange back;
    const std::string frame = fleet::encodeShard(shard);
    ASSERT_TRUE(
        fleet::parseShard(frame.substr(0, frame.size() - 1), &back));
    EXPECT_EQ(back.id, 3u);
    EXPECT_EQ(back.begin, 8u);
    EXPECT_EQ(back.end, 12u);
    EXPECT_FALSE(fleet::parseShard("SHARD 0 5 5", &back));

    std::size_t shard_id = 0;
    ASSERT_TRUE(fleet::parseDone("DONE 9", &shard_id));
    EXPECT_EQ(shard_id, 9u);

    // A malformed RESULT header is a framing error, not a silent skip.
    fleet::MessageReader reader;
    const std::string bogus = "RESULT 0 1 1 zap 0 0\n";
    reader.feed(bogus.data(), bogus.size());
    fleet::Message message;
    std::string error;
    EXPECT_FALSE(reader.next(&message, &error));
    EXPECT_NE(error.find("malformed RESULT header"), std::string::npos)
        << error;
}

// ---- live-plane frames (PROGRESS / STATE) ----------------------------

namespace
{

/** Read one whole frame of any kind, fed one byte at a time. */
fleet::Message
readFrameBytewise(const std::string &frame)
{
    fleet::MessageReader reader;
    fleet::Message message;
    std::string error;
    bool got = false;
    for (std::size_t i = 0; i < frame.size(); ++i) {
        reader.feed(frame.data() + i, 1);
        if (reader.next(&message, &error)) {
            got = true;
            EXPECT_EQ(i, frame.size() - 1)
                << "frame completed before its last byte";
            break;
        }
        EXPECT_TRUE(error.empty()) << error;
    }
    EXPECT_TRUE(got) << "frame never completed";
    return message;
}

} // namespace

TEST(FleetProtocol, ProgressRoundTripsOneByteAtATime)
{
    fleet::ProgressUpdate update;
    update.shard_id = 3;
    update.jobs_done = 5;
    update.jobs_assigned = 9;
    update.label = "sobel x Power Profile 2";
    update.metrics_json = R"({"counters":{"a":1}})";
    // Payloads are length-prefixed binary: newlines and NULs must
    // travel untouched.
    update.spans_json = "[{\"name\":\"shard 3\"}]\n";
    update.spans_json.push_back('\0');
    update.spans_json += "binary tail";

    const fleet::Message message =
        readFrameBytewise(fleet::encodeProgress(update));
    fleet::ProgressUpdate back;
    std::string error;
    ASSERT_TRUE(fleet::decodeProgress(message, &back, &error)) << error;
    EXPECT_EQ(back.shard_id, update.shard_id);
    EXPECT_EQ(back.jobs_done, update.jobs_done);
    EXPECT_EQ(back.jobs_assigned, update.jobs_assigned);
    EXPECT_EQ(back.label, update.label);
    EXPECT_EQ(back.metrics_json, update.metrics_json);
    EXPECT_EQ(back.spans_json, update.spans_json);

    // Empty payloads (no metrics yet, spans ring just flushed) are a
    // legal steady state, not a framing special case.
    fleet::ProgressUpdate bare;
    bare.shard_id = 0;
    bare.jobs_done = 0;
    bare.jobs_assigned = 1;
    ASSERT_TRUE(fleet::decodeProgress(
        readFrameBytewise(fleet::encodeProgress(bare)), &back, &error))
        << error;
    EXPECT_TRUE(back.label.empty());
    EXPECT_TRUE(back.metrics_json.empty());
    EXPECT_TRUE(back.spans_json.empty());

    // A shard cannot have finished more jobs than it was assigned.
    fleet::Message lying = message;
    lying.line = "PROGRESS 3 10 9 0 0 0";
    lying.payload.clear();
    EXPECT_FALSE(fleet::decodeProgress(lying, &back, &error));
    EXPECT_NE(error.find("claims 10 of 9"), std::string::npos)
        << error;
}

TEST(FleetProtocol, StateRoundTripsOneByteAtATime)
{
    const std::string snapshot =
        R"({"jobs_done":4,"jobs_total":36,"schema":"inc-fleet-status-v1"})";
    const fleet::Message message =
        readFrameBytewise(fleet::encodeState(snapshot));
    std::string back, error;
    ASSERT_TRUE(fleet::decodeState(message, &back, &error)) << error;
    EXPECT_EQ(back, snapshot);

    // Truncated payload length is a decode error, not a crash.
    fleet::Message truncated = message;
    truncated.payload.pop_back();
    EXPECT_FALSE(fleet::decodeState(truncated, &back, &error));
}

// ---- span ring + trace merger ----------------------------------------

TEST(FleetTrace, SpanBatchRingDropsOldestAndCountsDrops)
{
    obs::SpanBatch batch(3);
    for (int i = 0; i < 5; ++i) {
        obs::FleetSpanEvent e;
        e.phase = 'i';
        e.pid = 42;
        e.name = "e" + std::to_string(i);
        e.ts_us = 1000.0 * i;
        batch.add(std::move(e));
    }
    EXPECT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch.dropped(), 2u);
    EXPECT_EQ(batch.events().front().name, "e2");

    // JSON round trip preserves the surviving events bit-for-bit
    // (the PROGRESS payload is exactly this serialization).
    std::string error;
    obs::SpanBatch back;
    ASSERT_TRUE(obs::SpanBatch::fromJson(batch.toJson(), &back, &error))
        << error;
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back.toJson(), batch.toJson());

    // take() drains the ring so the next PROGRESS frame starts clean.
    batch.take();
    EXPECT_TRUE(batch.empty());
}

TEST(FleetTrace, MergerEmitsProcessNamesAndNormalizedTimestamps)
{
    obs::FleetTraceMerger merger;
    merger.setProcessName(100, "nvpsim serve (pid 100)");
    merger.setProcessName(200, "nvpsim work g0 (pid 200)");

    obs::FleetSpanEvent span;
    span.phase = 'X';
    span.pid = 200;
    span.tid = 1;
    span.name = "sobel x Power Profile 2";
    span.ts_us = 5000.0;
    span.dur_us = 1500.0;
    merger.add(span);
    EXPECT_EQ(merger.eventCount(), 1u);

    const std::string trace = merger.toChromeTraceJson(4000.0);
    ASSERT_TRUE(obs::jsonIsValid(trace)) << trace;
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(trace, &doc, &error)) << error;
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->items().size(), 3u); // 2 process names + 1 span
    std::size_t names = 0;
    for (const auto &e : events->items()) {
        if (e.find("ph")->string() == "M") {
            ++names;
            EXPECT_EQ(e.find("name")->string(), "process_name");
            continue;
        }
        // Timestamps are re-based to the campaign start.
        EXPECT_DOUBLE_EQ(e.find("ts")->number(), 1000.0);
        EXPECT_DOUBLE_EQ(e.find("dur")->number(), 1500.0);
        EXPECT_DOUBLE_EQ(e.find("pid")->number(), 200.0);
    }
    EXPECT_EQ(names, 2u);
}

// ---- result folder ---------------------------------------------------

namespace
{

fleet::DecodedResult
decodeFrame(const std::string &frame)
{
    fleet::MessageReader reader;
    reader.feed(frame.data(), frame.size());
    fleet::Message message;
    std::string error;
    EXPECT_TRUE(reader.next(&message, &error)) << error;
    fleet::DecodedResult decoded;
    EXPECT_TRUE(fleet::decodeResult(message, &decoded, &error))
        << error;
    return decoded;
}

} // namespace

TEST(ResultFolder, FoldsOutOfOrderDeliveriesIntoIndexOrder)
{
    std::vector<runner::JobSpec> jobs = {jobSpecAt(0), jobSpecAt(1),
                                         jobSpecAt(2)};
    fleet::ResultFolder folder(jobs);
    std::string error;
    for (const std::size_t index : {2u, 0u, 1u}) {
        ASSERT_TRUE(folder.fold(
            decodeFrame(fleet::encodeResult(okJobResult(index, true))),
            &error))
            << error;
    }
    EXPECT_TRUE(folder.complete());
    EXPECT_TRUE(folder.rangeComplete(0, 3));
    const runner::SweepReport report = folder.takeReport(0.0, 1);
    ASSERT_EQ(report.results.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(report.results[i].spec.index, i);
        EXPECT_EQ(report.results[i].result.forward_progress, 123 + i);
    }
}

TEST(ResultFolder, DuplicateDeliveriesMustBeByteIdentical)
{
    std::vector<runner::JobSpec> jobs = {jobSpecAt(0), jobSpecAt(1)};
    fleet::ResultFolder folder(jobs);
    std::string error;

    // A journal warm-restart replays the same bytes: accepted.
    ASSERT_TRUE(folder.fold(
        decodeFrame(fleet::encodeResult(okJobResult(0, true))),
        &error));
    ASSERT_TRUE(folder.fold(
        decodeFrame(fleet::encodeResult(okJobResult(0, true))),
        &error));
    EXPECT_EQ(folder.filledCount(), 1u);
    EXPECT_FALSE(folder.rangeComplete(0, 2));

    // A differing duplicate means a nondeterministic worker: error.
    runner::JobResult drifted = okJobResult(0, true);
    drifted.result.backups = 8;
    EXPECT_FALSE(folder.fold(
        decodeFrame(fleet::encodeResult(drifted)), &error));
    EXPECT_NE(error.find("nondeterministic"), std::string::npos)
        << error;

    // Out-of-range indices are rejected, never folded.
    EXPECT_FALSE(folder.fold(
        decodeFrame(fleet::encodeResult(okJobResult(7, true))),
        &error));
}

// ---- process-level matrix (the acceptance surface) -------------------

#ifdef INC_NVPSIM_PATH
namespace
{

/** Run a shell command; returns its exit code and combined output. */
int
runCommand(const std::string &cmd, std::string *output)
{
    FILE *pipe = ::popen((cmd + " 2>&1").c_str(), "r");
    if (!pipe)
        return -1;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe))
        *output += buf;
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(f)) << "missing " << path;
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** Fresh scratch directory under the test temp root. */
std::string
freshDir(const std::string &tag)
{
    const std::string dir = ::testing::TempDir() + "fleet-" + tag +
                            "-" + std::to_string(::getpid());
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** The campaign used across the matrix: 2 kernels x 2 profiles. */
void
writeCampaign(const std::string &path)
{
    std::ofstream f(path, std::ios::binary);
    f << R"({"kernels": "sobel,median", "profiles": "2,3",)"
      << R"( "seconds": 0.3, "seed": 77})";
    ASSERT_TRUE(static_cast<bool>(f));
}

/** The equivalent serial sweep's flag spelling of that campaign. */
std::string
serialSweepCommand()
{
    return std::string(INC_NVPSIM_PATH) +
           " sweep --kernels sobel,median --profiles 2,3"
           " --seconds 0.3 --seed 77 --jobs 1";
}

// Parenthesized so runCommand's trailing 2>&1 cannot override the
// stderr capture: scheduling noise goes to stderr.txt, the
// determinism surface to stdout.txt.
const char *const kOutputFlags =
    " --out out.csv --metrics metrics.json --report"
    " --report-out report.json > stdout.txt 2> stderr.txt )";

void
expectSameCampaignBytes(const std::string &serial_dir,
                        const std::string &fleet_dir,
                        const std::string &label)
{
    for (const char *file :
         {"out.csv", "metrics.json", "report.json", "stdout.txt"}) {
        EXPECT_EQ(readFile(serial_dir + "/" + file),
                  readFile(fleet_dir + "/" + file))
            << label << ": " << file;
    }
}

/** Launch @p cmd detached; its exit code lands in @p exit_file. */
void
launchBackground(const std::string &cmd, const std::string &exit_file)
{
    const std::string shell = "( " + cmd + "; echo $? > " + exit_file +
                              " ) > /dev/null 2>&1 &";
    ASSERT_EQ(std::system(shell.c_str()), 0) << shell;
}

bool
waitForPath(const std::string &path, double seconds)
{
    for (int i = 0; i < static_cast<int>(seconds / 0.02); ++i) {
        if (fs::exists(path))
            return true;
        ::usleep(20000);
    }
    return fs::exists(path);
}

/** Parse one `status --watch --json` line; returns jobs_done and
 *  jobs_total and the raw document for further assertions. */
void
parseStatusLine(const std::string &line, double *jobs_done,
                double *jobs_total, obs::JsonValue *doc)
{
    std::string error;
    ASSERT_TRUE(obs::parseJson(line, doc, &error))
        << error << "\n" << line;
    const obs::JsonValue *schema = doc->find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string(), "inc-fleet-status-v1");
    ASSERT_NE(doc->find("jobs_done"), nullptr);
    ASSERT_NE(doc->find("jobs_total"), nullptr);
    *jobs_done = doc->find("jobs_done")->number();
    *jobs_total = doc->find("jobs_total")->number();
}

} // namespace

TEST(FleetMatrix, WorkerCountsProduceBytesIdenticalToSerialSweep)
{
    const std::string base = freshDir("matrix");
    const std::string campaign = base + "/campaign.json";
    writeCampaign(campaign);

    const std::string serial_dir = base + "/serial";
    fs::create_directories(serial_dir);
    std::string out;
    ASSERT_EQ(runCommand("cd " + serial_dir + " && ( " +
                             serialSweepCommand() + kOutputFlags,
                         &out),
              0)
        << out;

    for (const int workers : {1, 2, 4}) {
        const std::string dir =
            base + "/w" + std::to_string(workers);
        fs::create_directories(dir);
        std::string fleet_out;
        ASSERT_EQ(runCommand("cd " + dir + " && ( " +
                                 std::string(INC_NVPSIM_PATH) +
                                 " serve " + campaign + " --workers " +
                                 std::to_string(workers) +
                                 " --fleet-dir fd" + kOutputFlags,
                             &fleet_out),
                  0)
            << fleet_out;
        expectSameCampaignBytes(
            serial_dir, dir,
            "--workers " + std::to_string(workers));
        EXPECT_NE(readFile(dir + "/stderr.txt").find("fleet:"),
                  std::string::npos);
    }
    fs::remove_all(base);
}

TEST(FleetCrash, KillingEveryWorkerOnceLeavesBytesUnchanged)
{
    const std::string base = freshDir("crash");
    const std::string campaign = base + "/campaign.json";
    writeCampaign(campaign);

    const std::string serial_dir = base + "/serial";
    fs::create_directories(serial_dir);
    std::string out;
    ASSERT_EQ(runCommand("cd " + serial_dir + " && ( " +
                             serialSweepCommand() + kOutputFlags,
                         &out),
              0)
        << out;

    // Every first-generation worker SIGKILLs itself after one
    // journaled job; shards are reassigned, replacements warm-restart
    // from the shard journals, and the merged bytes must not move.
    const std::string dir = base + "/killed";
    fs::create_directories(dir);
    std::string fleet_out;
    ASSERT_EQ(runCommand("cd " + dir + " && ( " +
                             std::string(INC_NVPSIM_PATH) + " serve " +
                             campaign +
                             " --workers 2 --kill-worker-after 1"
                             " --fleet-dir fd" +
                             kOutputFlags,
                         &fleet_out),
              0)
        << fleet_out;
    const std::string fleet_err = readFile(dir + "/stderr.txt");
    EXPECT_NE(fleet_err.find("reassigning shard"), std::string::npos)
        << fleet_err;
    expectSameCampaignBytes(serial_dir, dir, "kill matrix");
    fs::remove_all(base);
}

TEST(FleetResume, ExistingFleetDirRequiresResumeAndReplaysIt)
{
    const std::string base = freshDir("resume");
    const std::string campaign = base + "/campaign.json";
    writeCampaign(campaign);

    const std::string serial_dir = base + "/serial";
    fs::create_directories(serial_dir);
    std::string out;
    ASSERT_EQ(runCommand("cd " + serial_dir + " && ( " +
                             serialSweepCommand() + kOutputFlags,
                         &out),
              0)
        << out;

    const std::string dir = base + "/fleet";
    fs::create_directories(dir);
    const std::string serve = "cd " + dir + " && ( " +
                              std::string(INC_NVPSIM_PATH) + " serve " +
                              campaign + " --workers 2 --fleet-dir fd";
    ASSERT_EQ(runCommand(serve + kOutputFlags, &out), 0) << out;
    expectSameCampaignBytes(serial_dir, dir, "first serve");
    EXPECT_NE(readFile(dir + "/stderr.txt")
                  .find("fleet: 0 jobs resumed from the fleet dir, 4 "
                        "computed"),
              std::string::npos)
        << readFile(dir + "/stderr.txt");

    // The same campaign again without --resume: the leftover fleet
    // dir is a fatal error naming the dir, not a silent replay.
    out.clear();
    EXPECT_NE(runCommand(std::string(INC_NVPSIM_PATH) + " serve " +
                             campaign + " --workers 2 --fleet-dir " +
                             dir + "/fd",
                         &out),
              0);
    EXPECT_NE(out.find("fatal:"), std::string::npos) << out;
    EXPECT_NE(out.find("'" + dir + "/fd' already holds a campaign"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("--resume"), std::string::npos) << out;

    // With --resume every job replays from the journals, and the
    // campaign bytes are those of the serial sweep.
    ASSERT_EQ(runCommand(serve + " --resume" + kOutputFlags, &out), 0)
        << out;
    expectSameCampaignBytes(serial_dir, dir, "resumed serve");
    EXPECT_NE(readFile(dir + "/stderr.txt")
                  .find("fleet: 4 jobs resumed from the fleet dir, 0 "
                        "computed"),
              std::string::npos)
        << readFile(dir + "/stderr.txt");
    fs::remove_all(base);
}

// ---- live telemetry plane (DESIGN.md §16) ----------------------------

/** A slower campaign (more simulated seconds) so the status watcher
 *  reliably attaches while workers are still running. */
void
writeSlowCampaign(const std::string &path)
{
    std::ofstream f(path, std::ios::binary);
    f << R"({"kernels": "sobel,median", "profiles": "2,3",)"
      << R"( "seconds": 2, "seed": 77})";
    ASSERT_TRUE(static_cast<bool>(f));
}

TEST(FleetStatus, WatchStreamsMonotoneProgressToCompletion)
{
    const std::string base = freshDir("status");
    const std::string campaign = base + "/campaign.json";
    writeSlowCampaign(campaign);

    launchBackground("cd " + base + " && " +
                         std::string(INC_NVPSIM_PATH) + " serve " +
                         campaign +
                         " --workers 4 --fleet-dir fd --status-socket",
                     base + "/serve.exit");
    ASSERT_TRUE(waitForPath(base + "/fd/status.sock", 30.0))
        << "status socket never appeared";

    // --watch follows the STATE stream until the coordinator closes
    // the plane; the final frame always reports a finished campaign.
    std::string stream;
    ASSERT_EQ(runCommand(std::string(INC_NVPSIM_PATH) + " status " +
                             base + "/fd --watch --json",
                         &stream),
              0)
        << stream;
    ASSERT_TRUE(waitForPath(base + "/serve.exit", 60.0));
    EXPECT_EQ(readFile(base + "/serve.exit"), "0\n");

    std::istringstream lines(stream);
    std::string line;
    double prev_done = -1.0, jobs_done = 0.0, jobs_total = 0.0;
    std::size_t frames = 0;
    while (std::getline(lines, line)) {
        obs::JsonValue doc;
        parseStatusLine(line, &jobs_done, &jobs_total, &doc);
        EXPECT_EQ(jobs_total, 4.0);
        EXPECT_GE(jobs_done, prev_done) << "progress went backwards";
        prev_done = jobs_done;
        ++frames;
    }
    ASSERT_GE(frames, 1u);
    EXPECT_EQ(jobs_done, jobs_total)
        << "final frame must report a finished campaign";
    fs::remove_all(base);
}

TEST(FleetStatus, StillAnswersAfterWorkerLossAndReportsIt)
{
    const std::string base = freshDir("status-kill");
    const std::string campaign = base + "/campaign.json";
    writeSlowCampaign(campaign);

    launchBackground("cd " + base + " && " +
                         std::string(INC_NVPSIM_PATH) + " serve " +
                         campaign +
                         " --workers 2 --kill-worker-after 1"
                         " --fleet-dir fd --status-socket",
                     base + "/serve.exit");
    ASSERT_TRUE(waitForPath(base + "/fd/status.sock", 30.0))
        << "status socket never appeared";

    std::string stream;
    ASSERT_EQ(runCommand(std::string(INC_NVPSIM_PATH) + " status " +
                             base + "/fd --watch --json",
                         &stream),
              0)
        << stream;
    ASSERT_TRUE(waitForPath(base + "/serve.exit", 60.0));
    EXPECT_EQ(readFile(base + "/serve.exit"), "0\n");

    // Every first-generation worker died; lost rows stay in the
    // worker table, so the final frame must carry degraded health
    // alongside a finished campaign.
    std::istringstream lines(stream);
    std::string line, last;
    double jobs_done = 0.0, jobs_total = 0.0;
    while (std::getline(lines, line))
        last = line;
    ASSERT_FALSE(last.empty());
    obs::JsonValue doc;
    parseStatusLine(last, &jobs_done, &jobs_total, &doc);
    EXPECT_EQ(jobs_done, jobs_total);
    EXPECT_NE(last.find("\"health\":\"lost\""), std::string::npos)
        << last;
    fs::remove_all(base);
}

TEST(FleetTelemetry, StatusSocketAndTraceLeaveCampaignBytesIdentical)
{
    const std::string base = freshDir("telemetry");
    const std::string campaign = base + "/campaign.json";
    writeCampaign(campaign);

    const std::string serial_dir = base + "/serial";
    fs::create_directories(serial_dir);
    std::string out;
    ASSERT_EQ(runCommand("cd " + serial_dir + " && ( " +
                             serialSweepCommand() + kOutputFlags,
                         &out),
              0)
        << out;

    // The full telemetry plane on: status socket, trace merge, and
    // the default-cadence PROGRESS stream — none of it may move a
    // byte of the four campaign artifacts.
    const std::string dir = base + "/live";
    fs::create_directories(dir);
    out.clear();
    ASSERT_EQ(runCommand("cd " + dir + " && ( " +
                             std::string(INC_NVPSIM_PATH) + " serve " +
                             campaign +
                             " --workers 2 --fleet-dir fd"
                             " --status-socket"
                             " --trace-out fleet.trace.json" +
                             kOutputFlags,
                         &out),
              0)
        << out;
    expectSameCampaignBytes(serial_dir, dir, "telemetry plane");

    // The merged trace is structurally valid Chrome-trace JSON with a
    // process-name record per fleet process (coordinator + workers).
    const std::string trace = readFile(dir + "/fleet.trace.json");
    ASSERT_TRUE(obs::jsonIsValid(trace));
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(trace, &doc, &error)) << error;
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t process_names = 0;
    for (const auto &e : events->items())
        if (e.find("name") != nullptr &&
            e.find("name")->string() == "process_name")
            ++process_names;
    EXPECT_GE(process_names, 3u) << "coordinator + 2 workers";

    // The fleet telemetry snapshot defaults beside --metrics, wrapped
    // under its own top-level key and campaign fingerprint — the
    // campaign metrics document itself stays untouched (asserted
    // byte-identical above).
    const std::string telemetry =
        readFile(dir + "/metrics.json.fleet.json");
    obs::JsonValue tdoc;
    ASSERT_TRUE(obs::parseJson(telemetry, &tdoc, &error)) << error;
    ASSERT_NE(tdoc.find("schema"), nullptr);
    EXPECT_EQ(tdoc.find("schema")->string(), "inc-fleet-telemetry-v1");
    EXPECT_NE(tdoc.find("campaign"), nullptr);
    const obs::JsonValue *fleet = tdoc.find("fleet");
    ASSERT_NE(fleet, nullptr);
    ASSERT_TRUE(fleet->isObject());
    EXPECT_NE(fleet->find("counters"), nullptr);
    fs::remove_all(base);
}

TEST(FleetCli, HardErrorsDieWithClearMessages)
{
    const std::string base = freshDir("cli");
    const std::string campaign = base + "/campaign.json";
    writeCampaign(campaign);

    // Bogus worker counts die before any fleet state is created.
    for (const char *count : {"0", "banana", "-3"}) {
        std::string out;
        const int code =
            runCommand(std::string(INC_NVPSIM_PATH) + " serve " +
                           campaign + " --workers=" + count,
                       &out);
        EXPECT_NE(code, 0) << count;
        EXPECT_NE(out.find("fatal:"), std::string::npos) << out;
        EXPECT_NE(out.find("unknown worker count"), std::string::npos)
            << out;
    }

    // A non-positive heartbeat timeout would mean "never detect a
    // stalled worker": rejected up front.
    for (const char *timeout : {"0", "-5"}) {
        std::string out;
        const int code = runCommand(
            std::string(INC_NVPSIM_PATH) + " serve " + campaign +
                " --workers 1 --heartbeat-timeout=" + timeout,
            &out);
        EXPECT_NE(code, 0) << timeout;
        EXPECT_NE(out.find("--heartbeat-timeout must be a positive"),
                  std::string::npos)
            << out;
    }

    // A fleet dir bound to a different campaign is a hard error, not a
    // silent mix of journals — also when resuming is asked for.
    const std::string fdir = base + "/fd";
    std::string out;
    ASSERT_EQ(runCommand(std::string(INC_NVPSIM_PATH) + " serve " +
                             campaign + " --workers 1 --fleet-dir " +
                             fdir,
                         &out),
              0)
        << out;
    const std::string other = base + "/other.json";
    {
        std::ofstream f(other, std::ios::binary);
        f << R"({"kernels": "sobel", "profiles": "2",)"
          << R"( "seconds": 0.3, "seed": 78})";
    }
    out.clear();
    const int code = runCommand(std::string(INC_NVPSIM_PATH) +
                                    " serve " + other +
                                    " --workers 1 --fleet-dir " + fdir +
                                    " --resume",
                                &out);
    EXPECT_NE(code, 0);
    EXPECT_NE(out.find("fatal:"), std::string::npos) << out;
    EXPECT_NE(out.find("holds journals for a different campaign"),
              std::string::npos)
        << out;

    // Unusable socket paths: a directory that does not exist, and a
    // worker pointed at a socket nobody serves.
    out.clear();
    EXPECT_NE(runCommand(std::string(INC_NVPSIM_PATH) + " serve " +
                             campaign + " --workers 1 --fleet-dir " +
                             base + "/fd2 --socket " + base +
                             "/no-such-dir/fleet.sock",
                         &out),
              0);
    EXPECT_NE(out.find("cannot listen on"), std::string::npos) << out;

    out.clear();
    EXPECT_NE(runCommand(std::string(INC_NVPSIM_PATH) +
                             " work --socket " + base +
                             "/nobody.sock --campaign " + campaign +
                             " --fleet-dir " + base + "/fd3",
                         &out),
              0);
    EXPECT_NE(out.find("cannot connect to fleet socket"),
              std::string::npos)
        << out;

    // A worker with a missing campaign file dies cleanly too.
    out.clear();
    EXPECT_NE(runCommand(std::string(INC_NVPSIM_PATH) +
                             " work --socket " + base +
                             "/nobody.sock --campaign " + base +
                             "/nope.json --fleet-dir " + base + "/fd4",
                         &out),
              0);
    EXPECT_NE(out.find("fatal:"), std::string::npos) << out;
    fs::remove_all(base);
}
#endif // INC_NVPSIM_PATH
