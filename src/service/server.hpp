#ifndef CRISP_SERVICE_SERVER_HPP
#define CRISP_SERVICE_SERVER_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "scenario/scenario.hpp"
#include "service/chaos.hpp"
#include "service/job.hpp"
#include "service/retry.hpp"
#include "traceio/cache.hpp"

namespace crisp
{
class Gpu;
}

namespace crisp::mgpu
{
class MultiGpu;
}

namespace crisp::scenario
{
struct Materialized;
}

namespace crisp::service
{

/**
 * JobServer configuration. The quota caps are the server's admission
 * ceilings: a job may ask for anything up to them, never past them.
 */
struct ServerConfig
{
    /** Worker threads running simulations concurrently. */
    uint32_t workers = 4;
    /** Bounded admission queue; a full queue rejects, never blocks. */
    size_t queueCapacity = 64;

    /** Per-job quota ceilings (admission rejects requests above these). */
    JobQuota maxQuota{2'000'000'000ull, 600.0, 8};

    /** Total instructions a replayed trace may carry (resource bomb cap). */
    uint64_t maxTraceInstructions = 100'000'000;

    /** Watchdog cadence for every job run (0 disables — not advised). */
    Cycle watchdogInterval = 1024;
    /** Forward-progress hang threshold (0 = derived from the machine). */
    Cycle hangThreshold = 0;
    /** Counter-conservation audit cadence (0 disables). */
    Cycle auditInterval = 4096;

    RetryPolicy retry;

    /** Directory terminal JobReports are flushed to (empty = no spool). */
    std::string spoolDir;
    /** Trace-cache directory shared by all jobs (empty = cache off). */
    std::string cacheDir;

    ChaosConfig chaos;

    /** Deadline/disconnect monitor cadence. */
    double monitorPeriodSec = 0.005;
};

/**
 * The crispd job server core: admission control, a bounded job queue,
 * K worker threads running simulations under watchdog + audit + quota,
 * a monitor thread enforcing wall-clock deadlines, retry-with-backoff
 * for transient trace failures, and graceful drain.
 *
 * Robustness contract: no job — malformed, over-quota, hanging, or
 * actively sabotaged by chaos mode — takes the server down or damages a
 * neighbouring job. Every admitted job reaches exactly one terminal
 * JobState and leaves a JobReport (spooled to disk when a spool
 * directory is configured). The public API is thread-safe; the protocol
 * layer calls it from one thread per client connection.
 */
class JobServer
{
  public:
    explicit JobServer(ServerConfig cfg);
    ~JobServer();

    JobServer(const JobServer &) = delete;
    JobServer &operator=(const JobServer &) = delete;

    /** Admission verdict: an id on accept, a reason on reject. */
    struct Admission
    {
        bool accepted = false;
        JobId id = 0;
        std::string error;
    };

    /**
     * Validate and enqueue a job. Rejection reasons: "malformed: ..."
     * (bad payload/machine/params), "over-quota: ..." (asks past the
     * server caps), "queue-full", "shutting-down". Validation happens
     * here, before the job can reach a fatal() in the builders.
     */
    Admission submit(const JobSpec &spec);

    /**
     * Request cancellation of a queued or running job. True if the job
     * exists and was not already terminal. The job lands in Cancelled
     * (possibly after its current tick completes).
     */
    bool cancel(JobId id, const std::string &why = "cancelled by client");

    /** Current snapshot: state always valid, run fields once terminal. */
    std::optional<JobReport> report(JobId id) const;

    /** Block until the job is terminal; nullopt for an unknown id. */
    std::optional<JobReport> wait(JobId id);

    /** Stop admitting new jobs (submissions reject with "shutting-down"). */
    void beginShutdown();

    /**
     * Drain: stop admissions, give running jobs @p grace_sec to finish,
     * then cancel whatever remains and wait for every job to reach a
     * terminal state before stopping the threads. Returns true when all
     * jobs finished within the grace period (no forced cancellation).
     */
    bool drain(double grace_sec);

    /** Jobs admitted but not yet picked up by a worker. */
    size_t queueDepth() const;
    /** Jobs currently executing on workers. */
    size_t runningJobs() const;

    /** Monotonic server counters (all terminal states + rejections). */
    struct Counters
    {
        uint64_t accepted = 0;
        uint64_t rejectedInvalid = 0;
        uint64_t rejectedOverQuota = 0;
        uint64_t rejectedFull = 0;
        uint64_t rejectedShutdown = 0;
        uint64_t completed = 0;
        uint64_t failed = 0;
        uint64_t cancelled = 0;
        uint64_t timedOut = 0;
        uint64_t overQuota = 0;
        uint64_t hung = 0;
        uint64_t retries = 0;
        /** Highest queue depth ever observed (bound check in tests). */
        uint64_t queuePeak = 0;
    };
    Counters counters() const;

    const ServerConfig &config() const { return cfg_; }

    /** The shared trace cache (tests probe its stats). */
    const traceio::TraceCache &cache() const { return cache_; }

    /** Admission validation, exposed for tests: empty = admissible. */
    std::string admissionError(const JobSpec &spec) const;

  private:
    /** Why a job's cancel flag was raised (classifies the terminal state). */
    enum class CancelCause
    {
        None,
        Client,     ///< cancel() from the protocol layer.
        Deadline,   ///< Monitor: wall-clock quota exceeded.
        Shutdown,   ///< drain() grace period expired.
        Disconnect, ///< Chaos: simulated client disconnect.
    };

    struct Record
    {
        JobId id = 0;
        JobSpec spec;
        JobState state = JobState::Queued;
        std::atomic<bool> cancelFlag{false};
        CancelCause cancelCause = CancelCause::None; ///< Guarded by mu_.
        std::string cancelMessage;                   ///< Guarded by mu_.
        std::chrono::steady_clock::time_point started{};
        bool startedSet = false;
        ChaosPlan chaos;
        /** The scenario payload, loaded once at admission. */
        scenario::Scenario scenario;
        JobReport report;
    };

    /** admissionError(), keeping the loaded scenario payload in @p sc. */
    std::string admissionError(const JobSpec &spec,
                               scenario::Scenario &sc) const;
    void workerLoop();
    void monitorLoop();
    JobReport runJob(Record &rec);
    bool buildTraceJob(const std::string &path, Gpu &gpu,
                       std::string &error, bool &transient);
    void buildScenarioJob(const scenario::Scenario &sc,
                          mgpu::MultiGpu &machine,
                          scenario::Materialized &mat);
    void cancelLocked(Record &rec, CancelCause cause,
                      const std::string &why);
    void finishCancelled(Record &rec, JobReport &rep);
    void spool(const JobReport &rep);
    void corruptCacheEntry(uint64_t seed);
    bool allTerminalLocked() const;
    void bumpTerminalLocked(JobState s);

    ServerConfig cfg_;
    traceio::TraceCache cache_;
    ChaosMonkey chaos_;

    /**
     * Build-vs-sabotage exclusion. Chaos cache corruption takes the
     * exclusive side; every job's build phase (cache open + CTA
     * materialization) takes the shared side. A cache file is therefore
     * either corrupted *before* a build opens it (detected by the CRC
     * scan, rejected, rebuilt — the recovery under test) or after the
     * job has fully materialized its CTAs in memory (harmless). Without
     * this, corruption could land between a file's validation and a
     * lazy CTA read, which the replay layer treats as fatal.
     */
    mutable std::shared_mutex cacheMu_;

    mutable std::mutex mu_;
    std::condition_variable queueCv_; ///< Workers: queue or stop.
    std::condition_variable doneCv_;  ///< Waiters/drain: job terminal.
    std::deque<std::shared_ptr<Record>> queue_;
    std::map<JobId, std::shared_ptr<Record>> jobs_;
    Counters counters_;
    JobId nextId_ = 1;
    size_t running_ = 0;
    bool accepting_ = true;
    bool stop_ = false;

    std::vector<std::thread> workers_;
    std::thread monitor_;
};

} // namespace crisp::service

#endif // CRISP_SERVICE_SERVER_HPP
