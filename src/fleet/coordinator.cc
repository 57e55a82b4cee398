#include "fleet/coordinator.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include <map>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "arena/arena.h"
#include "fleet/campaign.h"
#include "fleet/folder.h"
#include "fleet/protocol.h"
#include "fleet/socket.h"
#include "obs/fleet_trace.h"
#include "obs/json.h"
#include "obs/schema.h"
#include "runner/journal.h"
#include "runner/shard.h"
#include "util/fs.h"
#include "util/logging.h"

namespace inc::fleet
{

namespace
{

using Clock = std::chrono::steady_clock;

/** One accepted socket connection (unclaimed until its HELLO). */
struct Connection
{
    int fd = -1;
    long pid = -1; ///< claimed worker pid, -1 before HELLO
    MessageReader reader;
    Clock::time_point last_heard;
};

/** One spawned worker process (possibly not yet connected). */
struct WorkerProc
{
    long pid = -1;
    int generation = 0;
    Clock::time_point spawned_at;
    int shard = -1; ///< assigned shard id, -1 when idle
    Connection *conn = nullptr;
    bool alive = true;
    bool greeted = false;

    // Live telemetry plane: the latest PROGRESS position. Display
    // state only — nothing on the result path reads these.
    std::size_t shard_done = 0;
    std::size_t shard_assigned = 0;
    std::string last_label;
};

std::string
readFileOrEmpty(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return std::string();
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** The whole coordinator state, so helpers share it without globals. */
class Coordinator
{
  public:
    explicit Coordinator(const ServeOptions &options);
    FleetOutcome run();

  private:
    void spawnWorker(bool first_generation);
    void dispatchShards();
    void assignShard(WorkerProc &worker, std::size_t shard_id);
    void handleMessage(Connection &conn, const Message &message);
    void handleHello(Connection &conn, const Message &message);
    void handleProgress(WorkerProc &worker, const Message &message);
    void readConnection(Connection *conn);
    void dropConnection(Connection *conn, const char *why);
    void workerLost(WorkerProc &worker, const char *why);
    void reapChildren();
    void checkHeartbeats();
    void shutdownFleet();
    WorkerProc *findWorker(long pid);
    /** Jobs of the current shard plan already journaled in the shard
     *  arenas a previous serve left under fleet_dir. */
    std::size_t countJournaledJobs() const;
    bool allShardsCompleted() const
    {
        return completed_count_ == plan_.size();
    }

    // --- live telemetry plane (DESIGN.md §16) ------------------------
    void traceInstant(const std::string &name);
    void acceptStatusConnections();
    void broadcastStatus(bool force);
    void closeStatusPlane();
    std::string buildStatusJson() const;

    const ServeOptions &options_;
    CampaignSpec campaign_;
    runner::SweepSpec spec_;
    std::vector<runner::JobSpec> jobs_;
    std::string fingerprint_;
    std::string socket_path_;
    int listen_fd_ = -1;

    std::vector<runner::ShardRange> plan_;
    std::deque<std::size_t> pending_;
    std::vector<int> dispatch_count_;
    std::vector<bool> shard_completed_;
    std::size_t completed_count_ = 0;
    std::size_t jobs_resumed_ = 0;

    std::vector<std::unique_ptr<Connection>> connections_;
    /** deque: spawnWorker() appends while references to existing
     *  elements are live further up the stack. */
    std::deque<WorkerProc> workers_;
    int next_generation_ = 0;
    int startup_failures_ = 0;

    std::unique_ptr<ResultFolder> folder_;
    obs::MetricsRegistry metrics_;
    double worker_wall_ms_ = 0.0;

    // --- live telemetry plane ----------------------------------------
    long self_pid_ = 0;
    Clock::time_point campaign_start_;
    double base_wall_us_ = 0.0; ///< wall clock at campaign start
    int status_listen_fd_ = -1;
    std::vector<int> status_fds_;
    Clock::time_point last_status_write_;
    bool status_written_once_ = false;
    /** Latest cumulative snapshot per shard; the live folded view is
     *  their merge (completed shards contribute their full prefix). */
    std::map<std::size_t, obs::MetricsRegistry> shard_live_;
    obs::FleetTraceMerger trace_;
};

Coordinator::Coordinator(const ServeOptions &options)
    : options_(options)
{
    std::string error;
    if (!loadCampaignFile(options_.campaign_path, &campaign_, &error))
        util::fatal("%s", error.c_str());

    spec_ = buildSweepSpec(campaign_, options_.collect_metrics);
    jobs_ = runner::expandSweep(spec_);
    fingerprint_ = runner::SweepJournal::fingerprint(
        spec_, jobs_,
        campaignFingerprintExtra(campaign_,
                                 options_.collect_metrics));

    if (options_.workers < 1)
        util::fatal("fleet: --workers must be >= 1");
    if (options_.max_shard_retries < 0)
        util::fatal("fleet: --max-shard-retries must be >= 0");

    if (!util::ensureDir(options_.fleet_dir))
        util::fatal("cannot create fleet dir '%s'",
                    options_.fleet_dir.c_str());

    // Fingerprint marker: a fleet dir holds shard journals for exactly
    // one campaign; folding a different campaign's journals would mix
    // results silently, so a mismatch is a hard error.
    const std::string marker = options_.fleet_dir + "/campaign.fp";
    const std::string existing = readFileOrEmpty(marker);
    // Resuming is explicit, as for `sweep --arena`: replaying a
    // previous serve's journals silently would report a no-op merge
    // as the campaign's run.
    if (!existing.empty() && !options_.resume)
        util::fatal("fleet dir '%s' already holds a campaign "
                    "(fingerprint %s); pass --resume to continue it or "
                    "use a fresh directory",
                    options_.fleet_dir.c_str(), existing.c_str());
    if (!existing.empty() && existing != fingerprint_)
        util::fatal("fleet dir '%s' holds journals for a different "
                    "campaign (fingerprint %s, this campaign is %s); "
                    "use a fresh directory or the original campaign "
                    "file/flags",
                    options_.fleet_dir.c_str(), existing.c_str(),
                    fingerprint_.c_str());
    if (existing.empty()) {
        std::ofstream out(marker, std::ios::binary);
        out << fingerprint_;
        if (!out)
            util::fatal("cannot write '%s'", marker.c_str());
    }

    socket_path_ = options_.socket_path.empty()
                       ? options_.fleet_dir + "/fleet.sock"
                       : options_.socket_path;

    const std::size_t target_shards =
        options_.shards > 0
            ? options_.shards
            : static_cast<std::size_t>(options_.workers) * 4;
    plan_ = runner::planShards(jobs_.size(), target_shards);
    dispatch_count_.assign(plan_.size(), 0);
    shard_completed_.assign(plan_.size(), false);
    for (const runner::ShardRange &shard : plan_)
        pending_.push_back(shard.id);
    if (!existing.empty()) {
        jobs_resumed_ = countJournaledJobs();
        std::fprintf(stderr,
                     "fleet: resuming campaign %s in '%s' (%zu of %zu "
                     "jobs journaled)\n",
                     fingerprint_.c_str(), options_.fleet_dir.c_str(),
                     jobs_resumed_, jobs_.size());
    }
    metrics_.gauge(obs::kFleetShardsPlanned).value =
        static_cast<double>(plan_.size());

    folder_ = std::make_unique<ResultFolder>(jobs_);
}

std::size_t
Coordinator::countJournaledJobs() const
{
    // Read before any worker starts, so nothing else has the arenas
    // open. An arena that cannot be opened counts nothing here; the
    // worker assigned its shard reports the error.
    std::size_t journaled = 0;
    for (const runner::ShardRange &shard : plan_) {
        const std::string dir =
            options_.fleet_dir + "/shard-" + std::to_string(shard.id);
        if (!std::filesystem::is_directory(dir))
            continue;
        try {
            const std::unique_ptr<arena::Arena> store =
                arena::Arena::open(dir);
            const runner::SweepJournal journal(store.get());
            if (!journal.bound() ||
                journal.boundFingerprint() != fingerprint_)
                continue;
            for (std::size_t i = shard.begin; i < shard.end; ++i)
                journaled += journal.completed(i) ? 1 : 0;
        } catch (const std::exception &) {
        }
    }
    return journaled;
}

WorkerProc *
Coordinator::findWorker(long pid)
{
    for (WorkerProc &w : workers_) {
        if (w.pid == pid)
            return &w;
    }
    return nullptr;
}

void
Coordinator::spawnWorker(bool first_generation)
{
    std::vector<std::string> argv_strings = {
        options_.nvpsim_path,
        "work",
        "--socket",
        socket_path_,
        "--campaign",
        options_.campaign_path,
        "--fleet-dir",
        options_.fleet_dir,
        "--jobs",
        std::to_string(options_.worker_jobs),
        "--collect-metrics",
        options_.collect_metrics ? "1" : "0",
        "--progress-every",
        std::to_string(options_.progress_every),
    };
    if (first_generation && options_.kill_worker_after > 0) {
        argv_strings.push_back("--kill-after");
        argv_strings.push_back(
            std::to_string(options_.kill_worker_after));
    }
    std::vector<char *> argv;
    argv.reserve(argv_strings.size() + 1);
    for (std::string &s : argv_strings)
        argv.push_back(s.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0)
        util::fatal("fleet: fork() failed");
    if (pid == 0) {
        ::execv(options_.nvpsim_path.c_str(), argv.data());
        // Exec failure: exit without running any parent atexit state.
        ::_exit(127);
    }
    WorkerProc worker;
    worker.pid = pid;
    worker.generation = next_generation_++;
    worker.spawned_at = Clock::now();
    workers_.push_back(worker);
    metrics_.counter(obs::kFleetWorkersSpawned).value += 1;
    traceInstant(util::format("spawn worker g%d (pid %ld)",
                              workers_.back().generation,
                              static_cast<long>(pid)));
}

void
Coordinator::assignShard(WorkerProc &worker, std::size_t shard_id)
{
    const runner::ShardRange &shard = plan_[shard_id];
    const std::string frame = encodeShard(shard);
    if (!writeAll(worker.conn->fd, frame.data(), frame.size())) {
        // The worker died between poll rounds: requeue the shard and
        // retire the connection now, so the dispatch loop does not
        // keep picking the same dead "idle" worker.
        pending_.push_front(shard_id);
        dropConnection(worker.conn, "write failed");
        return;
    }
    worker.shard = static_cast<int>(shard_id);
    worker.shard_done = 0;
    worker.shard_assigned = shard.end - shard.begin;
    dispatch_count_[shard_id] += 1;
    metrics_.counter(obs::kFleetShardsDispatched).value += 1;
    if (dispatch_count_[shard_id] > 1)
        metrics_.counter(obs::kFleetShardsRetried).value += 1;
    traceInstant(util::format("assign shard %zu -> pid %ld", shard_id,
                              worker.pid));
}

void
Coordinator::dispatchShards()
{
    while (!pending_.empty()) {
        WorkerProc *idle = nullptr;
        for (WorkerProc &w : workers_) {
            if (w.alive && w.greeted && w.conn && w.shard < 0) {
                idle = &w;
                break;
            }
        }
        if (!idle)
            return;
        const std::size_t shard_id = pending_.front();
        pending_.pop_front();
        assignShard(*idle, shard_id);
    }
}

void
Coordinator::handleHello(Connection &conn, const Message &message)
{
    std::string fp;
    long pid = -1;
    if (!parseHello(message.line, &fp, &pid))
        util::fatal("fleet: malformed HELLO '%s'",
                    message.line.c_str());
    if (fp != fingerprint_)
        util::fatal("fleet: worker %ld derived campaign fingerprint "
                    "%s, coordinator derived %s — the campaign file "
                    "expanded differently (nondeterministic "
                    "expansion?)",
                    pid, fp.c_str(), fingerprint_.c_str());
    WorkerProc *worker = findWorker(pid);
    if (!worker || !worker->alive)
        util::fatal("fleet: HELLO from unknown worker pid %ld", pid);
    conn.pid = pid;
    worker->conn = &conn;
    worker->greeted = true;
    trace_.setProcessName(
        pid, util::format("nvpsim work g%d (pid %ld)",
                          worker->generation, pid));
    traceInstant(util::format("hello from pid %ld", pid));
}

void
Coordinator::handleProgress(WorkerProc &worker, const Message &message)
{
    ProgressUpdate update;
    std::string error;
    if (!decodeProgress(message, &update, &error))
        util::fatal("fleet: %s", error.c_str());
    worker.shard_done = update.jobs_done;
    worker.shard_assigned = update.jobs_assigned;
    worker.last_label = update.label;
    metrics_.counter(obs::kFleetStatusProgressFrames).value += 1;
    metrics_.counter(obs::kFleetStatusProgressBytes).value +=
        message.payload.size();
    if (!update.metrics_json.empty()) {
        // Latest cumulative snapshot wins: a reassigned shard's warm
        // restart re-merges the journaled prefix, so replacing the
        // dead incarnation's snapshot keeps the live view a prefix of
        // the final fold (DESIGN.md §16).
        obs::MetricsRegistry snapshot;
        if (!obs::MetricsRegistry::fromJson(update.metrics_json,
                                            &snapshot, &error))
            util::fatal("fleet: PROGRESS snapshot from worker %ld: %s",
                        worker.pid, error.c_str());
        shard_live_[update.shard_id] = std::move(snapshot);
    }
    if (!update.spans_json.empty() && !options_.trace_out.empty()) {
        obs::SpanBatch batch;
        if (!obs::SpanBatch::fromJson(update.spans_json, &batch,
                                      &error))
            util::fatal("fleet: PROGRESS spans from worker %ld: %s",
                        worker.pid, error.c_str());
        metrics_.counter(obs::kFleetStatusSpansMerged).value +=
            batch.size();
        trace_.add(batch);
    }
}

void
Coordinator::handleMessage(Connection &conn, const Message &message)
{
    const std::string kind = messageKind(message.line);
    if (kind == "HELLO") {
        handleHello(conn, message);
        return;
    }
    WorkerProc *worker = conn.pid >= 0 ? findWorker(conn.pid) : nullptr;
    if (!worker)
        util::fatal("fleet: message '%s' from a connection that never "
                    "sent HELLO",
                    message.line.c_str());
    if (kind == "RESULT") {
        DecodedResult decoded;
        std::string error;
        if (!decodeResult(message, &decoded, &error) ||
            !folder_->fold(decoded, &error))
            util::fatal("fleet: %s", error.c_str());
        metrics_.counter(obs::kFleetMergeBytes).value +=
            message.payload.size();
        return;
    }
    if (kind == "PROGRESS") {
        handleProgress(*worker, message);
        return;
    }
    if (kind == "DONE") {
        std::size_t shard_id = 0;
        if (!parseDone(message.line, &shard_id) ||
            shard_id >= plan_.size())
            util::fatal("fleet: malformed DONE '%s'",
                        message.line.c_str());
        if (worker->shard != static_cast<int>(shard_id))
            util::fatal("fleet: worker %ld finished shard %zu but was "
                        "assigned %d",
                        worker->pid, shard_id, worker->shard);
        const runner::ShardRange &shard = plan_[shard_id];
        if (!folder_->rangeComplete(shard.begin, shard.end))
            util::fatal("fleet: worker %ld reported shard %zu done "
                        "with results missing",
                        worker->pid, shard_id);
        worker->shard = -1;
        if (!shard_completed_[shard_id]) {
            shard_completed_[shard_id] = true;
            ++completed_count_;
            metrics_.counter(obs::kFleetShardsCompleted).value += 1;
        }
        return;
    }
    if (kind == "ERROR") {
        util::fatal("fleet: worker %ld failed: %s", worker->pid,
                    message.payload.c_str());
    }
    util::fatal("fleet: unexpected message '%s' from worker %ld",
                message.line.c_str(), worker->pid);
}

void
Coordinator::workerLost(WorkerProc &worker, const char *why)
{
    worker.alive = false;
    worker.conn = nullptr;
    worker_wall_ms_ +=
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  worker.spawned_at)
            .count();
    metrics_.counter(obs::kFleetWorkersLost).value += 1;
    traceInstant(util::format("worker pid %ld lost: %s", worker.pid,
                              why));
    ::kill(static_cast<pid_t>(worker.pid), SIGKILL);
    int status = 0;
    ::waitpid(static_cast<pid_t>(worker.pid), &status, WNOHANG);
    if (worker.shard >= 0) {
        const auto shard_id = static_cast<std::size_t>(worker.shard);
        worker.shard = -1;
        if (dispatch_count_[shard_id] >
            options_.max_shard_retries)
            util::fatal("fleet: shard %zu lost its worker %d times "
                        "(last: %s); retry budget exhausted",
                        shard_id, dispatch_count_[shard_id], why);
        std::fprintf(stderr,
                     "fleet: worker %ld lost (%s); reassigning shard "
                     "%zu (attempt %d)\n",
                     worker.pid, why, shard_id,
                     dispatch_count_[shard_id] + 1);
        pending_.push_front(shard_id);
        metrics_.counter(obs::kFleetShardsReassigned).value += 1;
        traceInstant(util::format("reassign shard %zu", shard_id));
    }
    // Keep the fleet at strength while work remains — even a worker
    // that died idle may be needed for a later reassignment.
    if (!allShardsCompleted())
        spawnWorker(false);
}

void
Coordinator::dropConnection(Connection *conn, const char *why)
{
    if (conn->fd >= 0)
        ::close(conn->fd);
    const long pid = conn->pid;
    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [conn](const std::unique_ptr<Connection> &c) {
                           return c.get() == conn;
                       }),
        connections_.end());
    if (pid >= 0) {
        WorkerProc *worker = findWorker(pid);
        if (worker && worker->alive)
            workerLost(*worker, why);
    }
}

void
Coordinator::readConnection(Connection *conn)
{
    char buffer[64 * 1024];
    const long n = readSome(conn->fd, buffer, sizeof(buffer));
    if (n == -2)
        return; // spurious wakeup
    if (n <= 0) {
        dropConnection(conn, "connection closed");
        return;
    }
    conn->reader.feed(buffer, static_cast<std::size_t>(n));
    conn->last_heard = Clock::now();
    while (true) {
        Message message;
        std::string error;
        if (!conn->reader.next(&message, &error)) {
            if (!error.empty())
                util::fatal("fleet: %s", error.c_str());
            break;
        }
        handleMessage(*conn, message);
    }
}

void
Coordinator::reapChildren()
{
    while (true) {
        int status = 0;
        const pid_t pid = ::waitpid(-1, &status, WNOHANG);
        if (pid <= 0)
            return;
        WorkerProc *worker = findWorker(pid);
        if (!worker || !worker->alive)
            continue;
        if (!worker->greeted) {
            // Died before HELLO: exec failure or a worker-side fatal
            // (bad campaign, unreachable socket). Bounded respawns so
            // a systematic failure surfaces instead of looping.
            worker->alive = false;
            metrics_.counter(obs::kFleetWorkersLost).value += 1;
            ++startup_failures_;
            if (startup_failures_ > options_.workers * 2)
                util::fatal("fleet: workers keep dying before "
                            "connecting (%d startup failures); see "
                            "their stderr above",
                            startup_failures_);
            if (!allShardsCompleted())
                spawnWorker(false);
        }
        // Greeted workers are handled by their connection's EOF,
        // which arrives with the process death.
    }
}

void
Coordinator::checkHeartbeats()
{
    const auto now = Clock::now();
    const double timeout_s = options_.heartbeat_timeout_s;
    if (timeout_s <= 0)
        return;
    // Collect first: dropConnection mutates connections_.
    std::vector<Connection *> stale;
    for (const auto &conn : connections_) {
        if (conn->pid < 0)
            continue;
        WorkerProc *worker = findWorker(conn->pid);
        if (!worker || worker->shard < 0)
            continue; // idle workers are allowed to be silent
        const double silent_s =
            std::chrono::duration<double>(now - conn->last_heard)
                .count();
        if (silent_s > timeout_s)
            stale.push_back(conn.get());
    }
    for (Connection *conn : stale)
        dropConnection(conn, "heartbeat timeout");
}

void
Coordinator::traceInstant(const std::string &name)
{
    if (options_.trace_out.empty())
        return;
    obs::FleetSpanEvent event;
    event.phase = 'i';
    event.pid = self_pid_;
    event.tid = 0;
    event.name = name;
    event.ts_us = obs::wallClockUs();
    trace_.add(std::move(event));
}

void
Coordinator::acceptStatusConnections()
{
    if (status_listen_fd_ < 0)
        return;
    while (true) {
        // Non-blocking fds: a status client that stops reading gets
        // dropped by a failed write instead of stalling the fleet.
        const int fd =
            ::accept4(status_listen_fd_, nullptr, nullptr,
                      SOCK_CLOEXEC | SOCK_NONBLOCK);
        if (fd < 0)
            return;
        metrics_.counter(obs::kFleetStatusRequests).value += 1;
        const std::string frame = encodeState(buildStatusJson());
        if (writeAll(fd, frame.data(), frame.size()))
            status_fds_.push_back(fd);
        else
            ::close(fd);
    }
}

void
Coordinator::broadcastStatus(bool force)
{
    if (status_fds_.empty())
        return;
    const auto now = Clock::now();
    if (!force && status_written_once_ &&
        std::chrono::duration<double>(now - last_status_write_)
                .count() < 0.2)
        return;
    last_status_write_ = now;
    status_written_once_ = true;
    const std::string frame = encodeState(buildStatusJson());
    std::vector<int> still_open;
    for (const int fd : status_fds_) {
        if (writeAll(fd, frame.data(), frame.size()))
            still_open.push_back(fd);
        else
            ::close(fd); // gone or stalled: the live plane is lossy
    }
    status_fds_.swap(still_open);
}

void
Coordinator::closeStatusPlane()
{
    // Final frame first: every attached watcher sees jobs_done ==
    // jobs_total before EOF, which is what `nvpsim status --watch`
    // (and the fleet status test) keys on.
    acceptStatusConnections();
    broadcastStatus(true);
    for (const int fd : status_fds_)
        ::close(fd);
    status_fds_.clear();
    if (status_listen_fd_ >= 0) {
        ::close(status_listen_fd_);
        status_listen_fd_ = -1;
        ::unlink(options_.status_socket.c_str());
    }
}

std::string
Coordinator::buildStatusJson() const
{
    const auto now = Clock::now();
    const double elapsed_s =
        std::chrono::duration<double>(now - campaign_start_).count();
    const std::size_t jobs_total = folder_->jobCount();
    const std::size_t jobs_done = folder_->filledCount();
    const double throughput =
        elapsed_s > 0.0 ? static_cast<double>(jobs_done) / elapsed_s
                        : 0.0;
    const double eta_s =
        throughput > 0.0
            ? static_cast<double>(jobs_total - jobs_done) / throughput
            : -1.0;

    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("schema", obs::JsonValue::of(
                          std::string("inc-fleet-status-v1")));
    doc.set("fingerprint", obs::JsonValue::of(fingerprint_));
    doc.set("jobs_total", obs::JsonValue::of(
                              static_cast<std::uint64_t>(jobs_total)));
    doc.set("jobs_done", obs::JsonValue::of(
                             static_cast<std::uint64_t>(jobs_done)));
    doc.set("shards_planned",
            obs::JsonValue::of(
                static_cast<std::uint64_t>(plan_.size())));
    doc.set("shards_completed",
            obs::JsonValue::of(
                static_cast<std::uint64_t>(completed_count_)));
    doc.set("elapsed_s", obs::JsonValue::of(elapsed_s));
    doc.set("throughput_jps", obs::JsonValue::of(throughput));
    doc.set("eta_s", obs::JsonValue::of(eta_s));

    obs::JsonValue workers = obs::JsonValue::array();
    for (const WorkerProc &w : workers_) {
        obs::JsonValue row = obs::JsonValue::object();
        row.set("pid",
                obs::JsonValue::of(static_cast<double>(w.pid)));
        row.set("generation",
                obs::JsonValue::of(
                    static_cast<std::uint64_t>(w.generation)));
        row.set("shard", obs::JsonValue::of(
                             static_cast<double>(w.shard)));
        row.set("shard_done",
                obs::JsonValue::of(
                    static_cast<std::uint64_t>(w.shard_done)));
        row.set("shard_assigned",
                obs::JsonValue::of(
                    static_cast<std::uint64_t>(w.shard_assigned)));
        row.set("job", obs::JsonValue::of(w.last_label));
        double age_s = -1.0;
        if (w.conn)
            age_s = std::chrono::duration<double>(
                        now - w.conn->last_heard)
                        .count();
        row.set("heartbeat_age_s", obs::JsonValue::of(age_s));
        const double timeout_s = options_.heartbeat_timeout_s;
        std::string health = "ok";
        if (!w.alive)
            health = "lost";
        else if (!w.greeted)
            health = "starting";
        else if (timeout_s > 0 && age_s > 0.5 * timeout_s)
            health = "stale";
        row.set("health", obs::JsonValue::of(health));
        workers.push(std::move(row));
    }
    doc.set("workers", std::move(workers));

    // fleet.* scheduling counters/gauges, live (obs/schema.h).
    obs::JsonValue fleet = obs::JsonValue::object();
    for (const auto &[name, counter] : metrics_.counters())
        fleet.set(name, obs::JsonValue::of(counter.value));
    for (const auto &[name, gauge] : metrics_.gauges())
        fleet.set(name, obs::JsonValue::of(gauge.value));
    doc.set("fleet", std::move(fleet));

    // Live folded view: merge the latest per-shard snapshots. A
    // prefix-consistent approximation of the final job-index-order
    // fold — counters are exact partial sums, gauges reassociate
    // floating-point addition (DESIGN.md §16).
    obs::MetricsRegistry live;
    for (const auto &[shard_id, snapshot] : shard_live_)
        live.merge(snapshot);
    obs::JsonValue live_obj = obs::JsonValue::object();
    if (live.has(obs::kHistOutageSamples)) {
        const obs::Histogram &h =
            live.histograms().at(obs::kHistOutageSamples);
        // Samples are 0.1 ms trace ticks; report milliseconds like
        // the run report does.
        live_obj.set("outage_p50_ms",
                     obs::JsonValue::of(h.percentile(0.50) / 10.0));
        live_obj.set("outage_p95_ms",
                     obs::JsonValue::of(h.percentile(0.95) / 10.0));
        live_obj.set("outage_p99_ms",
                     obs::JsonValue::of(h.percentile(0.99) / 10.0));
    }
    live_obj.set("backups_committed",
                 obs::JsonValue::of(live.counterValue(
                     obs::kSimBackupsCommitted)));
    live_obj.set("restores",
                 obs::JsonValue::of(
                     live.counterValue(obs::kSimRestores)));
    live_obj.set(
        "metrics_shards",
        obs::JsonValue::of(
            static_cast<std::uint64_t>(shard_live_.size())));
    doc.set("live", std::move(live_obj));

    return doc.dump();
}

void
Coordinator::shutdownFleet()
{
    const std::string exit_frame = encodeExit();
    for (const auto &conn : connections_) {
        writeAll(conn->fd, exit_frame.data(), exit_frame.size());
        ::close(conn->fd);
    }
    connections_.clear();
    // Close the listener before reaping: a late-spawned replacement
    // that never got accepted sees its connection reset (or its
    // connect refused) and exits, instead of blocking forever on a
    // socket nobody will ever serve.
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    ::unlink(socket_path_.c_str());
    for (WorkerProc &worker : workers_) {
        if (!worker.alive)
            continue;
        int status = 0;
        ::waitpid(static_cast<pid_t>(worker.pid), &status, 0);
        worker.alive = false;
        worker_wall_ms_ +=
            std::chrono::duration<double, std::milli>(
                Clock::now() - worker.spawned_at)
                .count();
    }
}

FleetOutcome
Coordinator::run()
{
    const auto campaign_start = Clock::now();
    campaign_start_ = campaign_start;
    base_wall_us_ = obs::wallClockUs();
    self_pid_ = static_cast<long>(::getpid());
    trace_.setProcessName(
        self_pid_,
        util::format("nvpsim serve (pid %ld)", self_pid_));

    std::string error;
    listen_fd_ = listenUnix(socket_path_, &error);
    if (listen_fd_ < 0)
        util::fatal("fleet: cannot listen on '%s': %s",
                    socket_path_.c_str(), error.c_str());

    if (!options_.status_socket.empty()) {
        status_listen_fd_ =
            listenUnix(options_.status_socket, &error);
        if (status_listen_fd_ < 0)
            util::fatal("fleet: cannot listen on status socket '%s': "
                        "%s",
                        options_.status_socket.c_str(),
                        error.c_str());
        // Non-blocking: the event loop drains pending status
        // connections opportunistically every round.
        const int flags = ::fcntl(status_listen_fd_, F_GETFL, 0);
        ::fcntl(status_listen_fd_, F_SETFL, flags | O_NONBLOCK);
    }

    for (int i = 0; i < options_.workers; ++i)
        spawnWorker(true);

    while (!allShardsCompleted()) {
        dispatchShards();

        std::vector<pollfd> fds;
        fds.push_back({listen_fd_, POLLIN, 0});
        // Snapshot: readConnection may drop entries mid-iteration.
        std::vector<Connection *> polled;
        for (const auto &conn : connections_) {
            fds.push_back({conn->fd, POLLIN, 0});
            polled.push_back(conn.get());
        }
        const int ready = ::poll(fds.data(),
                                 static_cast<nfds_t>(fds.size()), 200);
        if (ready < 0 && errno != EINTR)
            util::fatal("fleet: poll() failed");

        if (fds[0].revents & POLLIN) {
            const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                     SOCK_CLOEXEC);
            if (fd >= 0) {
                auto conn = std::make_unique<Connection>();
                conn->fd = fd;
                conn->last_heard = Clock::now();
                connections_.push_back(std::move(conn));
            }
        }
        for (std::size_t i = 1; i < fds.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Connection *conn = polled[i - 1];
            // The connection may already be gone (dropped while
            // handling an earlier fd this round).
            bool still_open = false;
            for (const auto &c : connections_)
                still_open = still_open || c.get() == conn;
            if (still_open)
                readConnection(conn);
        }

        reapChildren();
        checkHeartbeats();
        acceptStatusConnections();
        broadcastStatus(false);
    }

    if (!folder_->complete())
        util::fatal("fleet: all shards reported done but only %zu of "
                    "%zu jobs folded",
                    folder_->filledCount(), folder_->jobCount());

    // The folder is complete, so the final STATE frames report
    // jobs_done == jobs_total to every watcher before their EOF.
    closeStatusPlane();
    shutdownFleet();

    FleetOutcome outcome;
    const double wall_seconds =
        std::chrono::duration<double>(Clock::now() - campaign_start)
            .count();

    if (!options_.trace_out.empty()) {
        obs::FleetSpanEvent campaign_span;
        campaign_span.phase = 'X';
        campaign_span.pid = self_pid_;
        campaign_span.tid = 0;
        campaign_span.name = "campaign " + fingerprint_;
        campaign_span.ts_us = base_wall_us_;
        campaign_span.dur_us = wall_seconds * 1e6;
        trace_.add(std::move(campaign_span));
        if (!trace_.writeChromeTraceJson(options_.trace_out,
                                         base_wall_us_))
            util::fatal("fleet: could not write trace '%s'",
                        options_.trace_out.c_str());
        std::fprintf(stderr,
                     "fleet: %zu trace events written to %s\n",
                     trace_.eventCount(),
                     options_.trace_out.c_str());
    }

    outcome.report = folder_->takeReport(
        wall_seconds, static_cast<unsigned>(options_.workers));
    metrics_.gauge(obs::kFleetWorkerWallMs).value = worker_wall_ms_;
    outcome.fleet_metrics = std::move(metrics_);
    outcome.fingerprint = fingerprint_;
    outcome.jobs_resumed = jobs_resumed_;
    return outcome;
}

} // namespace

FleetOutcome
serveCampaign(const ServeOptions &options)
{
    Coordinator coordinator(options);
    return coordinator.run();
}

} // namespace inc::fleet
