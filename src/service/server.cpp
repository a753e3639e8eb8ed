#include "service/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/logging.hpp"
#include "core/sm.hpp"
#include "gpu/gpu.hpp"
#include "integrity/fault_injector.hpp"
#include "mgpu/multi_gpu.hpp"
#include "scenario/build.hpp"
#include "traceio/reader.hpp"

namespace crisp::service
{

namespace
{

/** A trace job's machine: the spec's preset plus its num_sms override. */
GpuConfig
traceMachine(const JobSpec &spec)
{
    GpuConfig cfg = spec.gpuPreset == "orin" ? GpuConfig::jetsonOrin()
        : spec.gpuPreset == "generic"        ? GpuConfig()
                                             : GpuConfig::rtx3070();
    if (spec.numSms != 0) {
        cfg.numSms = spec.numSms;
    }
    cfg.finalize();
    return cfg;
}

/** Sleep up to @p sec, returning early once @p cancel goes true. */
void
interruptibleSleep(double sec, const std::atomic<bool> &cancel)
{
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(sec));
    while (std::chrono::steady_clock::now() < deadline) {
        if (cancel.load(std::memory_order_relaxed)) {
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/**
 * Replace every disk-backed CTA source with an in-memory copy. A
 * running job must never re-read a shared cache file: chaos mode (or
 * an operator's rm) may mutate it, and the lazy replay path treats a
 * file changing underneath as fatal. Called with the cache lock held
 * shared, so the file cannot be corrupted mid-materialization either.
 */
void
materializeFileBacked(std::vector<KernelInfo> &kernels)
{
    for (KernelInfo &k : kernels) {
        if (dynamic_cast<const traceio::FileCtaSource *>(k.source.get()) ==
            nullptr) {
            continue;
        }
        std::vector<CtaTrace> ctas;
        ctas.reserve(k.numCtas());
        for (uint32_t c = 0; c < k.numCtas(); ++c) {
            ctas.push_back(k.source->generate(c));
        }
        k.source = std::make_shared<VectorCtaSource>(std::move(ctas));
    }
}

bool
validRange(uint32_t v, uint32_t lo, uint32_t hi)
{
    return v >= lo && v <= hi;
}

/**
 * Daemon-side envelope caps on an (already schema-valid) scenario. The
 * loader bounds each field against structural insanity; these are the
 * tighter shared-server limits that keep a single job's build phase
 * (and the eager CTA materialization) within a sane memory/time
 * envelope — anything bigger belongs in a bench run, not a shared
 * daemon.
 */
std::string
scenarioAdmissionError(const scenario::Scenario &sc)
{
    if (sc.graphics.present) {
        if (!validRange(sc.graphics.frames, 1, 8)) {
            return "malformed: scenario graphics.frames out of range "
                   "(1..8)";
        }
        if (!validRange(sc.graphics.width, 16, 640) ||
            !validRange(sc.graphics.height, 16, 480)) {
            return "malformed: scenario graphics resolution out of range "
                   "(16x16..640x480)";
        }
    }
    if (sc.compute.present) {
        const scenario::ComputeDesc &cd = sc.compute;
        if (!validRange(cd.frames, 1, 8)) {
            return "malformed: scenario compute.frames out of range "
                   "(1..8)";
        }
        if (!validRange(cd.width, 16, 640) ||
            !validRange(cd.height, 16, 480)) {
            return "malformed: scenario compute resolution out of range "
                   "(16x16..640x480)";
        }
        if (!validRange(cd.points, 1, 8)) {
            return "malformed: scenario compute.points out of range "
                   "(1..8)";
        }
        if (!validRange(cd.layers, 1, 8)) {
            return "malformed: scenario compute.layers out of range "
                   "(1..8)";
        }
        for (const scenario::KernelNode &kn : cd.kernels) {
            if (!validRange(kn.ctas, 1, 4096)) {
                return "malformed: scenario kernel '" + kn.name +
                       "' ctas out of range (1..4096)";
            }
            if (!validRange(kn.iterations, 1, 1024)) {
                return "malformed: scenario kernel '" + kn.name +
                       "' iterations out of range (1..1024)";
            }
        }
        const uint64_t launches =
            uint64_t{cd.schedule.bursts} * cd.kernels.size();
        if (launches > 256) {
            return "over-quota: scenario launches " +
                   std::to_string(launches) +
                   " kernels (bursts x kernels, cap 256)";
        }
    }
    return "";
}

} // namespace

JobServer::JobServer(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      cache_(cfg_.cacheDir.empty() ? traceio::TraceCache()
                                   : traceio::TraceCache(cfg_.cacheDir)),
      chaos_(cfg_.chaos)
{
    fatal_if(cfg_.workers == 0, "crispd needs at least one worker");
    fatal_if(cfg_.queueCapacity == 0, "crispd needs a non-zero queue bound");
    if (!cfg_.spoolDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cfg_.spoolDir, ec);
        if (ec) {
            warn("crispd: cannot create spool dir %s (%s); spooling off",
                 cfg_.spoolDir.c_str(), ec.message().c_str());
            cfg_.spoolDir.clear();
        }
    }
    workers_.reserve(cfg_.workers);
    for (uint32_t i = 0; i < cfg_.workers; ++i) {
        workers_.emplace_back([this] { workerLoop(); });
    }
    monitor_ = std::thread([this] { monitorLoop(); });
}

JobServer::~JobServer()
{
    drain(0.0);
}

std::string
JobServer::admissionError(const JobSpec &spec) const
{
    scenario::Scenario sc;
    return admissionError(spec, sc);
}

std::string
JobServer::admissionError(const JobSpec &spec, scenario::Scenario &sc) const
{
    if (spec.scenarioText.empty() == spec.tracePath.empty()) {
        return "malformed: exactly one of scenario, trace required";
    }
    if (!spec.scenarioText.empty()) {
        scenario::ScenarioError serr;
        if (!scenario::loadScenarioText(spec.scenarioText, "<scenario>",
                                        sc, serr)) {
            return "malformed: scenario " + serr.str();
        }
        const std::string scerr = scenarioAdmissionError(sc);
        if (!scerr.empty()) {
            return scerr;
        }
    }
    if (spec.gpuPreset != "rtx3070" && spec.gpuPreset != "orin" &&
        spec.gpuPreset != "generic") {
        return "malformed: unknown gpu preset '" + spec.gpuPreset +
               "' (rtx3070|orin|generic)";
    }
    if (spec.numSms > 128) {
        return "malformed: numSms " + std::to_string(spec.numSms) +
               " out of range (<= 128)";
    }
    if (spec.fault.dropFillProb < 0.0 || spec.fault.dropFillProb > 1.0) {
        return "malformed: drop_fill_prob outside [0,1]";
    }
    if (spec.quota.maxCycles == 0) {
        return "malformed: max_cycles must be positive";
    }
    if (spec.quota.maxCycles > cfg_.maxQuota.maxCycles) {
        return "over-quota: max_cycles " +
               std::to_string(spec.quota.maxCycles) + " exceeds the cap " +
               std::to_string(cfg_.maxQuota.maxCycles);
    }
    if (!(spec.quota.maxWallSec > 0.0)) {
        return "malformed: max_wall_sec must be positive";
    }
    if (spec.quota.maxWallSec > cfg_.maxQuota.maxWallSec) {
        return "over-quota: max_wall_sec exceeds the cap " +
               std::to_string(cfg_.maxQuota.maxWallSec);
    }
    if (spec.quota.maxEngineThreads == 0) {
        return "malformed: max_threads must be positive";
    }
    if (spec.quota.maxEngineThreads > cfg_.maxQuota.maxEngineThreads) {
        return "over-quota: max_threads " +
               std::to_string(spec.quota.maxEngineThreads) +
               " exceeds the cap " +
               std::to_string(cfg_.maxQuota.maxEngineThreads);
    }
    return "";
}

JobServer::Admission
JobServer::submit(const JobSpec &spec)
{
    Admission a;
    scenario::Scenario sc;
    const std::string err = admissionError(spec, sc);
    if (!err.empty()) {
        a.error = err;
        std::lock_guard<std::mutex> lk(mu_);
        if (err.rfind("over-quota", 0) == 0) {
            ++counters_.rejectedOverQuota;
        } else {
            ++counters_.rejectedInvalid;
        }
        return a;
    }

    auto rec = std::make_shared<Record>();
    rec->spec = spec;
    rec->scenario = std::move(sc);
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!accepting_) {
            a.error = "shutting-down";
            ++counters_.rejectedShutdown;
            return a;
        }
        if (queue_.size() >= cfg_.queueCapacity) {
            a.error = "queue-full";
            ++counters_.rejectedFull;
            return a;
        }
        rec->id = nextId_++;
        if (chaos_.enabled()) {
            rec->chaos = chaos_.planFor(rec->id);
            // A client-requested fault wins over the chaos plan's: the
            // soak uses explicit faults to pin down hang containment.
            if (rec->chaos.injectFault && !rec->spec.fault.enabled) {
                rec->spec.fault = rec->chaos.fault;
            }
        }
        queue_.push_back(rec);
        jobs_[rec->id] = rec;
        ++counters_.accepted;
        counters_.queuePeak =
            std::max(counters_.queuePeak,
                     static_cast<uint64_t>(queue_.size()));
    }
    queueCv_.notify_one();
    a.accepted = true;
    a.id = rec->id;
    return a;
}

bool
JobServer::cancel(JobId id, const std::string &why)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || jobStateTerminal(it->second->state)) {
        return false;
    }
    cancelLocked(*it->second, CancelCause::Client, why);
    return true;
}

void
JobServer::cancelLocked(Record &rec, CancelCause cause,
                        const std::string &why)
{
    if (rec.cancelCause == CancelCause::None) {
        rec.cancelCause = cause;
        rec.cancelMessage = why;
    }
    rec.cancelFlag.store(true, std::memory_order_relaxed);
}

std::optional<JobReport>
JobServer::report(JobId id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        return std::nullopt;
    }
    const Record &rec = *it->second;
    if (jobStateTerminal(rec.state)) {
        return rec.report;
    }
    JobReport r;
    r.id = rec.id;
    r.name = rec.spec.name;
    r.state = rec.state;
    return r;
}

std::optional<JobReport>
JobServer::wait(JobId id)
{
    std::unique_lock<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        return std::nullopt;
    }
    std::shared_ptr<Record> rec = it->second;
    doneCv_.wait(lk, [&] { return jobStateTerminal(rec->state); });
    return rec->report;
}

void
JobServer::beginShutdown()
{
    std::lock_guard<std::mutex> lk(mu_);
    accepting_ = false;
}

bool
JobServer::drain(double grace_sec)
{
    bool graceful = false;
    {
        std::unique_lock<std::mutex> lk(mu_);
        accepting_ = false;
        graceful = doneCv_.wait_for(
            lk,
            std::chrono::duration<double>(grace_sec < 0.0 ? 0.0 : grace_sec),
            [&] { return allTerminalLocked(); });
        if (!graceful) {
            for (auto &[id, rec] : jobs_) {
                if (!jobStateTerminal(rec->state)) {
                    cancelLocked(*rec, CancelCause::Shutdown,
                                 "server shutting down");
                }
            }
        }
        // Cancellation lands at tick granularity, so this converges in
        // (worst-case) one watchdog interval of simulation per job; the
        // bound is a backstop against a worker wedged outside the cycle
        // loop, which would otherwise hang shutdown forever.
        const bool landed = doneCv_.wait_for(
            lk, std::chrono::seconds(60),
            [&] { return allTerminalLocked(); });
        if (!landed) {
            warn("crispd: %zu job(s) still not terminal after forced "
                 "cancellation; abandoning them",
                 jobs_.size());
        }
        stop_ = true;
    }
    queueCv_.notify_all();
    doneCv_.notify_all();
    for (std::thread &w : workers_) {
        if (w.joinable()) {
            w.join();
        }
    }
    if (monitor_.joinable()) {
        monitor_.join();
    }
    std::lock_guard<std::mutex> lk(mu_);
    return graceful && allTerminalLocked();
}

size_t
JobServer::queueDepth() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size();
}

size_t
JobServer::runningJobs() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return running_;
}

JobServer::Counters
JobServer::counters() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return counters_;
}

bool
JobServer::allTerminalLocked() const
{
    for (const auto &[id, rec] : jobs_) {
        if (!jobStateTerminal(rec->state)) {
            return false;
        }
    }
    return true;
}

void
JobServer::bumpTerminalLocked(JobState s)
{
    switch (s) {
      case JobState::Completed: ++counters_.completed; break;
      case JobState::Failed: ++counters_.failed; break;
      case JobState::Cancelled: ++counters_.cancelled; break;
      case JobState::TimedOut: ++counters_.timedOut; break;
      case JobState::OverQuota: ++counters_.overQuota; break;
      case JobState::Hung: ++counters_.hung; break;
      default: break;
    }
}

void
JobServer::workerLoop()
{
    for (;;) {
        std::shared_ptr<Record> rec;
        {
            std::unique_lock<std::mutex> lk(mu_);
            queueCv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stop_) {
                    return;
                }
                continue;
            }
            rec = queue_.front();
            queue_.pop_front();
            rec->state = JobState::Running;
            rec->started = std::chrono::steady_clock::now();
            rec->startedSet = true;
            ++running_;
        }

        JobReport rep = runJob(*rec);
        // Only this worker reads the loaded scenario; a finished record
        // keeps just its spec and report.
        rec->scenario = scenario::Scenario();

        // Spool before publishing the terminal state, so "drained"
        // implies "on disk".
        spool(rep);
        {
            std::lock_guard<std::mutex> lk(mu_);
            rec->report = rep;
            rec->state = rep.state;
            --running_;
            bumpTerminalLocked(rep.state);
        }
        doneCv_.notify_all();
    }
}

void
JobServer::monitorLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
        const auto now = std::chrono::steady_clock::now();
        for (auto &[id, rec] : jobs_) {
            if (rec->state != JobState::Running || !rec->startedSet ||
                rec->cancelFlag.load(std::memory_order_relaxed)) {
                continue;
            }
            const double elapsed =
                std::chrono::duration<double>(now - rec->started).count();
            if (rec->spec.quota.maxWallSec > 0.0 &&
                elapsed > rec->spec.quota.maxWallSec) {
                char msg[96];
                std::snprintf(msg, sizeof(msg),
                              "wall-clock deadline (%.3gs) exceeded",
                              rec->spec.quota.maxWallSec);
                cancelLocked(*rec, CancelCause::Deadline, msg);
                continue;
            }
            if (rec->chaos.disconnectAfterSec >= 0.0 &&
                elapsed > rec->chaos.disconnectAfterSec) {
                cancelLocked(*rec, CancelCause::Disconnect,
                             "client disconnected (chaos)");
            }
        }
        doneCv_.wait_for(lk,
                         std::chrono::duration<double>(
                             cfg_.monitorPeriodSec));
    }
}

void
JobServer::finishCancelled(Record &rec, JobReport &rep)
{
    std::lock_guard<std::mutex> lk(mu_);
    rep.state = rec.cancelCause == CancelCause::Deadline
        ? JobState::TimedOut
        : JobState::Cancelled;
    rep.message =
        rec.cancelMessage.empty() ? "cancelled" : rec.cancelMessage;
}

JobReport
JobServer::runJob(Record &rec)
{
    JobReport rep;
    rep.id = rec.id;
    rep.name = rec.spec.name;
    const auto t0 = std::chrono::steady_clock::now();
    const auto elapsed = [&t0] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    const JobSpec &spec = rec.spec;

    if (rec.chaos.corruptCache) {
        corruptCacheEntry(cfg_.chaos.seed ^ rec.id);
    }

    Rng backoff(0xb0ffull ^ (rec.id * 0x9e3779b97f4a7c15ull));
    uint32_t attempt = 0;

    for (;;) {
        if (rec.cancelFlag.load(std::memory_order_relaxed)) {
            finishCancelled(rec, rep);
            rep.retries = attempt;
            rep.wallSec = elapsed();
            return rep;
        }

        // Fresh machine per attempt: a retried build must not inherit
        // kernels half-enqueued by the failed one. A trace job runs on
        // one device, a scenario job on the devices its gpu section asks
        // for.
        mgpu::MultiGpuConfig mcfg;
        if (spec.scenarioText.empty()) {
            mcfg.numGpus = 1;
            mcfg.gpu = traceMachine(spec);
        } else {
            mcfg.numGpus = rec.scenario.gpu.numGpus;
            mcfg.gpu = scenario::gpuConfigFor(rec.scenario);
        }
        mgpu::MultiGpu machine(mcfg);

        engine::EngineConfig ec;
        ec.threads = spec.quota.maxEngineThreads;
        machine.setEngine(ec);

        std::unique_ptr<integrity::FaultInjector> injector;
        if (spec.fault.enabled) {
            integrity::FaultConfig fc;
            fc.seed = spec.fault.seed;
            if (spec.fault.freezeSmAt != 0) {
                fc.freezeSm = 0;
                fc.freezeAtCycle = spec.fault.freezeSmAt;
            }
            fc.corruptNthDependency = spec.fault.corruptNthDependency;
            fc.dropFillProb = spec.fault.dropFillProb;
            fc.maxDroppedFills = 4;
            injector =
                std::make_unique<integrity::FaultInjector>(fc);
            machine.device(0).setFaultInjector(injector.get());
        }

        // The scenario's Materialized state (scenes, pipeline) is what
        // the enqueued trace generators reference during the run.
        scenario::Materialized mat;
        std::string err;
        bool transient = false;
        bool built = true;
        {
            std::shared_lock<std::shared_mutex> cacheLk(cacheMu_);
            if (spec.scenarioText.empty()) {
                built = buildTraceJob(spec.tracePath, machine.device(0),
                                      err, transient);
            } else {
                buildScenarioJob(rec.scenario, machine, mat);
            }
        }
        if (!built) {
            if (transient && attempt < cfg_.retry.maxRetries) {
                const double delay =
                    backoffDelaySec(cfg_.retry, attempt, backoff);
                ++attempt;
                {
                    std::lock_guard<std::mutex> lk(mu_);
                    ++counters_.retries;
                }
                interruptibleSleep(delay, rec.cancelFlag);
                continue;
            }
            rep.state = JobState::Failed;
            rep.message = err;
            rep.retries = attempt;
            rep.wallSec = elapsed();
            return rep;
        }
        rep.retries = attempt;

        integrity::RunOptions opts;
        opts.checkInterval = cfg_.watchdogInterval;
        opts.hangThreshold = cfg_.hangThreshold;
        opts.auditInterval = cfg_.auditInterval;
        opts.onHang = integrity::RunOptions::OnHang::Report;
        opts.cancel = &rec.cancelFlag;

        const mgpu::MultiGpu::RunResult r =
            machine.run(spec.quota.maxCycles, opts);
        const StatsRegistry stats = machine.mergedStats();
        rep.cycles = r.cycles;
        rep.instructions = stats.sumOver(&StreamStats::instructions);
        rep.kernelsCompleted =
            stats.sumOver(&StreamStats::kernelsCompleted);
        rep.streams = stats.allStreams();
        for (const integrity::InvariantViolation &v : r.violations) {
            rep.violations.push_back(v.check);
        }
        if (!r.violations.empty() || r.hang.has_value()) {
            // The watchdog, a periodic audit or the end-of-run audit.
            rep.state = JobState::Hung;
            rep.message = r.hang
                ? r.hang->reason
                : "invariant violation: " + r.violations.front().check;
        } else if (r.cancelled) {
            finishCancelled(rec, rep);
        } else if (r.completed) {
            rep.state = JobState::Completed;
        } else {
            rep.state = JobState::OverQuota;
            rep.message = "simulated-cycle quota (" +
                std::to_string(spec.quota.maxCycles) + ") exhausted";
        }
        rep.wallSec = elapsed();
        return rep;
    }
}

bool
JobServer::buildTraceJob(const std::string &path, Gpu &gpu,
                         std::string &error, bool &transient)
{
    transient = false;

    // Packed CRTR trace. Everything a hostile or stale file could carry
    // is checked here — against *this* job's machine — because the
    // enqueue path treats impossible kernels as programmer error
    // (fatal), and a daemon must not die for a client's file.
    auto reader = std::make_shared<traceio::TraceReader>(path);
    if (!reader->valid()) {
        error = reader->error().render();
        transient = reader->error().transient();
        return false;
    }
    if (reader->totals().instrCount > cfg_.maxTraceInstructions) {
        error = "over-quota: trace carries " +
                std::to_string(reader->totals().instrCount) +
                " instructions (cap " +
                std::to_string(cfg_.maxTraceInstructions) + ")";
        return false;
    }
    std::vector<KernelInfo> kernels;
    std::vector<int32_t> deps;
    for (size_t i = 0; i < reader->kernelCount(); ++i) {
        const traceio::KernelHeaderRecord &h = reader->kernel(i).header;
        KernelInfo info;
        info.name = h.name;
        info.grid = h.grid;
        info.cta = h.cta;
        info.regsPerThread = h.regsPerThread;
        info.smemPerCta = h.smemPerCta;
        info.drawcall = h.drawcall;
        if (info.numCtas() == 0) {
            error = "trace kernel '" + h.name + "' launches zero CTAs";
            return false;
        }
        const CtaFootprint fp = CtaFootprint::of(info);
        const SmConfig &sm = gpu.config().sm;
        if (fp.threads > sm.maxWarps * kWarpSize ||
            fp.registers > sm.registers || fp.smemBytes > sm.smemBytes) {
            error = "trace kernel '" + h.name +
                    "' exceeds SM capacity on " + gpu.config().name;
            return false;
        }
        // Materialize CTAs now (readCta has an error channel; a lazy
        // source failing mid-run does not).
        std::vector<CtaTrace> ctas;
        ctas.reserve(info.numCtas());
        for (uint32_t c = 0; c < info.numCtas(); ++c) {
            CtaTrace cta;
            traceio::TraceError cerr;
            if (!reader->readCta(i, c, cta, cerr)) {
                error = cerr.render();
                transient = cerr.transient();
                return false;
            }
            ctas.push_back(std::move(cta));
        }
        info.source =
            std::make_shared<VectorCtaSource>(std::move(ctas));
        kernels.push_back(std::move(info));
        deps.push_back(h.dependsOn);
    }
    const StreamId stream = gpu.createStream("job");
    std::vector<KernelId> ids;
    ids.reserve(kernels.size());
    for (size_t i = 0; i < kernels.size(); ++i) {
        const int32_t dep = deps[i];
        const KernelId dep_id =
            (dep >= 0 && dep < static_cast<int32_t>(ids.size()))
            ? ids[static_cast<size_t>(dep)]
            : Gpu::kNoDependency;
        ids.push_back(gpu.enqueueKernelAfter(stream, std::move(kernels[i]),
                                             dep_id));
    }
    return true;
}

void
JobServer::buildScenarioJob(const scenario::Scenario &sc,
                            mgpu::MultiGpu &machine,
                            scenario::Materialized &mat)
{
    std::string why;
    if (!cache_.enabled() || !scenario::flattenable(sc, why) ||
        scenario::computeReadsFrame(sc)) {
        // Live build: arrival schedules and multi-GPU machines have no
        // packed representation, frame-sampling compute needs the
        // pipeline the graphics entry would have skipped, and without a
        // cache there is nothing to hit.
        scenario::submitScenarioMulti(sc, machine, mat);
        return;
    }
    // Flattenable means one device: build at its heap, like every other
    // entry point.
    Gpu &gpu = machine.device(0);
    AddressSpace heap = machine.heapFor(0);

    // Cacheable: the two sides are independent entries keyed by the
    // canonicalized scenario text (machine section included) plus the
    // heap base. Graphics allocates first on both the build and the
    // replay path, so each side's addresses reproduce no matter which
    // combination of entries hits.
    const std::string base = "crisp-scenario/r1/heap=" +
        std::to_string(heap.allocatedEnd()) + "/" + sc.canonicalText;

    StreamId gfx = kInvalidStream;
    StreamId cmp = kInvalidStream;
    if (sc.graphics.present) {
        gfx = gpu.createStream("graphics");
    }
    if (sc.compute.present) {
        cmp = gpu.createStream("compute");
    }

    const auto enqueue = [&](StreamId s,
                             traceio::TraceCache::CachedSubmission &&sub) {
        materializeFileBacked(sub.kernels);
        std::vector<KernelId> ids;
        ids.reserve(sub.kernels.size());
        for (size_t i = 0; i < sub.kernels.size(); ++i) {
            const int dep = sub.dependsOn[i];
            const KernelId dep_id =
                (dep >= 0 && dep < static_cast<int>(ids.size()))
                ? ids[static_cast<size_t>(dep)]
                : Gpu::kNoDependency;
            ids.push_back(gpu.enqueueKernelAfter(
                s, std::move(sub.kernels[i]), dep_id));
        }
    };

    if (gfx != kInvalidStream) {
        enqueue(gfx,
                cache_.loadOrBuildSubmission(
                    base + "#gfx", heap, [&](AddressSpace &h) {
                        traceio::TraceCache::CachedSubmission s;
                        scenario::flattenGraphicsSide(sc, h, mat,
                                                      s.kernels,
                                                      s.dependsOn);
                        return s;
                    }));
    }
    if (cmp != kInvalidStream) {
        enqueue(cmp,
                cache_.loadOrBuildSubmission(
                    base + "#cmp", heap, [&](AddressSpace &h) {
                        traceio::TraceCache::CachedSubmission s;
                        scenario::flattenComputeSide(sc, h, nullptr,
                                                     s.kernels,
                                                     s.dependsOn);
                        return s;
                    }));
    }
}

void
JobServer::spool(const JobReport &rep)
{
    if (cfg_.spoolDir.empty()) {
        return;
    }
    char name[32];
    std::snprintf(name, sizeof(name), "job-%06llu.json",
                  static_cast<unsigned long long>(rep.id));
    const std::string path = cfg_.spoolDir + "/" + name;
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<uint64_t>(getpid()));
    std::error_code ec;
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        f << rep.toJson().dump() << "\n";
        f.flush();
        if (!f) {
            warn("crispd: cannot spool %s", path.c_str());
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("crispd: cannot move %s into place: %s", tmp.c_str(),
             ec.message().c_str());
        std::filesystem::remove(tmp, ec);
    }
}

void
JobServer::corruptCacheEntry(uint64_t seed)
{
    if (!cache_.enabled()) {
        return;
    }
    std::unique_lock<std::shared_mutex> lk(cacheMu_);
    std::vector<std::string> files;
    std::error_code ec;
    for (std::filesystem::directory_iterator
             it(cache_.dir(), ec),
         end;
         !ec && it != end; it.increment(ec)) {
        if (it->path().extension() == ".crtr") {
            files.push_back(it->path().string());
        }
    }
    if (files.empty()) {
        return;
    }
    std::sort(files.begin(), files.end());
    Rng rng(seed);
    const std::string &victim = files[rng.nextBelow(files.size())];
    std::fstream f(victim,
                   std::ios::in | std::ios::out | std::ios::binary);
    if (!f) {
        return;
    }
    f.seekg(0, std::ios::end);
    const int64_t size = static_cast<int64_t>(f.tellg());
    if (size <= 16) {
        return;
    }
    // Flip one byte past the header: the next open's CRC scan must
    // reject the file, drop it, and rebuild — never replay it.
    const int64_t pos =
        16 + static_cast<int64_t>(
                 rng.nextBelow(static_cast<uint64_t>(size - 16)));
    f.seekg(pos);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(pos);
    f.write(&b, 1);
}

} // namespace crisp::service
