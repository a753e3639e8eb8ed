#ifndef CRISP_SERVICE_JOB_HPP
#define CRISP_SERVICE_JOB_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "service/json.hpp"

namespace crisp::service
{

/** Server-assigned job identifier (monotonic, never reused). */
using JobId = uint64_t;

/**
 * Per-job resource quotas, validated at admission against the server's
 * caps. Every axis a job could use to exhaust the host is bounded:
 * simulated cycles (CPU time in the cycle loop), wall-clock seconds
 * (everything else: workload generation, trace I/O, retries), and
 * engine worker threads (host-thread budget; K concurrent jobs at T
 * threads each must fit the machine).
 */
struct JobQuota
{
    /** Simulated-cycle budget; the run stops here if nothing else does. */
    Cycle maxCycles = 50'000'000;
    /** Wall-clock deadline enforced by the server's monitor thread. */
    double maxWallSec = 60.0;
    /** Cycle-engine threads the job's Gpu may use. */
    uint32_t maxEngineThreads = 1;
};

/**
 * Deterministic faults a job may request (soak/chaos testing): the
 * service-level handle on integrity::FaultConfig. A frozen SM or a
 * corrupted dependency turns the job into a guaranteed hang, which the
 * watchdog must contain without touching neighbouring jobs.
 */
struct JobFaultSpec
{
    bool enabled = false;
    uint64_t seed = 0x5eed;
    /** Freeze SM 0's issue stage from this cycle on (0 = never). */
    Cycle freezeSmAt = 0;
    /** Corrupt the Nth enqueued dependency id (0 = never). */
    uint32_t corruptNthDependency = 0;
    /** Probability a DRAM fill is dropped (counter-audit violation). */
    double dropFillProb = 0.0;
};

/**
 * One simulation job: what to run and the quotas it runs under. Exactly
 * one payload — an inline scenario document or a packed CRTR trace path
 * — must be set; admission rejects everything else before it can reach
 * a fatal() in the builders.
 */
struct JobSpec
{
    std::string name;                ///< Client label (reports/spool).

    // --- Payload (exactly one) --------------------------------------------
    /**
     * Inline scenario document (the full JSON text of a *.json scenario
     * file, sent verbatim — no shared filesystem needed). Validated by
     * the scenario loader at admission; its "gpu" section sets the job's
     * machine.
     */
    std::string scenarioText;
    /** Packed CRTR trace to replay. */
    std::string tracePath;

    // --- Trace-job machine (scenario jobs ignore these) -------------------
    std::string gpuPreset = "rtx3070"; ///< rtx3070 | orin | generic.
    uint32_t numSms = 0;             ///< Optional override (0 = preset's).

    JobQuota quota;
    JobFaultSpec fault;

    /**
     * Parse a spec from the protocol's "job" object. Unknown fields are
     * ignored (forward compatibility); structural violations (wrong
     * types where it matters) surface later as admission errors since
     * every accessor falls back to the default.
     */
    static JobSpec fromJson(const Json &j);
    Json toJson() const;
};

/** Lifecycle states. Queued/Running are transient; the rest terminal. */
enum class JobState
{
    Queued,
    Running,
    Completed,  ///< Simulation drained within every quota.
    Failed,     ///< Build/load error (after retries, if transient).
    Cancelled,  ///< Client cancel or server shutdown.
    TimedOut,   ///< Wall-clock deadline cancelled the run.
    OverQuota,  ///< Simulated-cycle budget exhausted mid-run.
    Hung,       ///< Watchdog/audit stopped the run with a HangReport.
};

const char *jobStateName(JobState s);
bool jobStateTerminal(JobState s);

/**
 * The structured terminal record of one job — what the protocol returns
 * from wait/status and what the spool directory persists. A failed or
 * hung job produces one of these instead of taking the daemon down;
 * the hang evidence (reason + violated checks) rides along so a spooled
 * report is diagnosable without re-running the job.
 */
struct JobReport
{
    JobId id = 0;
    std::string name;
    JobState state = JobState::Queued;
    /** Failure/cancel/hang reason; empty for clean completions. */
    std::string message;
    /** Transient-failure retries spent before the terminal state. */
    uint32_t retries = 0;
    Cycle cycles = 0;            ///< Simulated cycles executed.
    double wallSec = 0.0;        ///< Wall-clock from dequeue to terminal.
    uint64_t instructions = 0;   ///< Sum over streams.
    uint64_t kernelsCompleted = 0;
    /** Check names of integrity/audit violations ("counter-*", ...). */
    std::vector<std::string> violations;
    /** Per-stream statistics, every device of the machine merged. */
    std::map<StreamId, StreamStats> streams;

    Json toJson() const;
    static JobReport fromJson(const Json &j);
};

} // namespace crisp::service

#endif // CRISP_SERVICE_JOB_HPP
