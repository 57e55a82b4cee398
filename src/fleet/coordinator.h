/**
 * @file
 * Fleet coordinator (`nvpsim serve`): shard a campaign across a fleet
 * of worker processes and fold their results deterministically.
 *
 * The coordinator expands the campaign's SweepSpec once, plans
 * contiguous job shards (runner/shard.h), spawns N `nvpsim work`
 * processes pointed at a Unix socket, and event-loops over their
 * connections: every RESULT frame is folded by job index
 * (fleet/folder.h), every DONE retires a shard, and a worker that
 * crashes (socket EOF — SIGKILL closes it instantly) or goes silent
 * past the heartbeat timeout has its in-flight shard re-queued, with a
 * bounded per-shard retry budget, and a fresh worker respawned. A
 * reassigned shard warm-restarts from its per-shard arena journal, so
 * crashes cost only the jobs that had not yet committed.
 *
 * Determinism argument (DESIGN.md §15): job identity (specs + seed
 * tree) is fixed at expansion time; shard boundaries and delivery
 * order only schedule *when* a job runs, never *what* it computes;
 * folding restores job-index order before any aggregation. Hence the
 * merged metrics, report and CSV bytes are identical to a serial
 * `nvpsim sweep` at any worker count — including after SIGKILLing
 * every worker once (the fleet test tier pins this).
 *
 * Live telemetry plane (DESIGN.md §16): workers additionally stream
 * PROGRESS frames (shard position, cumulative metrics snapshot,
 * completed trace spans); the coordinator folds the latest snapshot
 * per shard into a live view and, when a --status-socket is
 * configured, serves point-in-time STATE snapshots — campaign
 * fingerprint, per-worker health/heartbeat/shard progress, jobs
 * done/total, throughput/ETA, fleet.* counters, live outage
 * percentiles — to every status connection on a throttled cadence
 * plus a final jobs_done == jobs_total frame at completion. With
 * trace_out set, worker span batches and coordinator scheduling
 * events (spawn/accept/assign/reassign/loss) merge into one
 * Chrome-trace timeline with a process-name record per worker. The
 * entire plane is read-only over the result path, so enabling it
 * cannot perturb the byte-identity guarantees above.
 */

#ifndef INC_FLEET_COORDINATOR_H
#define INC_FLEET_COORDINATOR_H

#include <cstddef>
#include <string>

#include "obs/metrics.h"
#include "runner/sweep.h"

namespace inc::fleet
{

struct ServeOptions
{
    std::string campaign_path;
    /** Shard journals, fingerprint marker and (by default) the socket
     *  live here. */
    std::string fleet_dir;
    /** Empty = <fleet_dir>/fleet.sock. */
    std::string socket_path;
    /** Continue the campaign a previous serve left in fleet_dir.
     *  Without it, a fleet dir that already holds a campaign is a
     *  fatal error. */
    bool resume = false;
    /** Path to the nvpsim binary to exec workers from
     *  (/proc/self/exe, resolved by the CLI). */
    std::string nvpsim_path;
    int workers = 1;
    int worker_jobs = 1;    ///< threads per worker process
    std::size_t shards = 0; ///< 0 = auto (4 per worker)
    int max_shard_retries = 3;
    double heartbeat_timeout_s = 120.0;
    bool collect_metrics = false;
    /** Live status endpoint socket path; empty = no status socket. */
    std::string status_socket;
    /** Merged fleet-wide Chrome-trace output path; empty = no trace. */
    std::string trace_out;
    /** Worker PROGRESS cadence in delivered jobs (0 = disabled). */
    std::size_t progress_every = 1;
    /** Test hook: first-generation workers get --kill-after K, so
     *  every worker dies exactly once (respawns run clean). */
    std::size_t kill_worker_after = 0;
};

struct FleetOutcome
{
    /** The folded campaign, results in job-index order. */
    runner::SweepReport report;
    /** fleet.* scheduling metrics (separate registry; see
     *  obs/schema.h). */
    obs::MetricsRegistry fleet_metrics;
    /** The campaign fingerprint the fleet ran under. */
    std::string fingerprint;
    /** Jobs a previous serve had already journaled into fleet_dir
     *  (replayed, not recomputed); the rest were computed. */
    std::size_t jobs_resumed = 0;
};

/**
 * Serve one campaign to completion. Fatal (clear message) on
 * configuration errors: unloadable campaign, a fleet dir that already
 * holds a campaign without options.resume, a fleet dir whose
 * fingerprint marker names a different campaign, an unusable socket
 * path, or a shard exceeding its retry budget. Job failures are not
 * fatal — they surface in the report exactly as in a serial sweep.
 */
FleetOutcome serveCampaign(const ServeOptions &options);

} // namespace inc::fleet

#endif // INC_FLEET_COORDINATOR_H
