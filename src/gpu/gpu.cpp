#include "gpu/gpu.hpp"

#include <algorithm>
#include <cinttypes>
#include <thread>
#include <utility>

#include "audit/audit.hpp"
#include "common/logging.hpp"
#include "engine/worker_pool.hpp"
#include "integrity/checks.hpp"
#include "integrity/fault_injector.hpp"
#include "telemetry/sink.hpp"

namespace crisp
{

namespace
{

/** Telemetry events attached to a hang report, newest last. */
constexpr size_t kHangReportEvents = 16;

/** Drawcall display name: the kernel name minus its stage suffix. */
std::string
drawcallName(const std::string &kernel_name)
{
    const size_t dot = kernel_name.rfind('.');
    return dot == std::string::npos ? kernel_name
                                    : kernel_name.substr(0, dot);
}

} // namespace

Gpu::Gpu(const GpuConfig &cfg) : cfg_(cfg)
{
    fatal_if(cfg_.numSms == 0, "GPU needs at least one SM");
    l2_ = std::make_unique<L2Subsystem>(cfg_.l2, &stats_);
    l2_->setResponseHandler([this](const MemRequest &resp) {
        // A fill completed on behalf of a peer device goes back out over
        // the fabric; only local fills wake a local SM.
        if (remote_ != nullptr && resp.srcDevice != deviceId_) {
            remote_->submitRemoteResponse(resp, deviceId_, cycle_);
            return;
        }
        panic_if(resp.smId >= sms_.size(), "response for unknown SM %u",
                 resp.smId);
        sms_[resp.smId]->memResponse(resp, cycle_);
        markMemAwake(resp.smId);
    });
    sms_.reserve(cfg_.numSms);
    for (uint32_t i = 0; i < cfg_.numSms; ++i) {
        sms_.push_back(std::make_unique<Sm>(i, cfg_.sm, this, &stats_));
        sms_.back()->setCtaDoneHandler(
            [this](uint32_t sm_id, StreamId stream, KernelId kernel) {
                onCtaDone(sm_id, stream, kernel);
            });
        sms_.back()->setQuotaChangeHandler([this] { ctaSchedWake_ = 0; });
        // The GPU-level round-robin arbiter owns every SM's fabric-facing
        // memory phase, whichever engine is configured.
        sms_.back()->setExternalMemPhase(true);
        allSms_.push_back(i);
    }
    memAwake_.assign((cfg_.numSms + 63) / 64, 0);
    bankWaiters_.resize(cfg_.l2.numBanks);
    memPhaseOpened_.reserve(cfg_.numSms);
    memPhaseScratch_.reserve(cfg_.numSms);
    stepScratch_.reserve(cfg_.numSms);
    setEngine(cfg_.engine);
}

Gpu::~Gpu() = default;

void
Gpu::setEngine(const engine::EngineConfig &engine)
{
    fatal_if(cycle_ != 0,
             "cycle engine must be configured before the first tick");
    engine_ = engine;
    // The SM is the unit of sharding: more lanes than SMs only adds
    // barrier cost. 0 and 1 both mean serial. Lanes beyond the host's
    // cores only time-slice, so they are clamped too unless the caller
    // explicitly opts into oversubscription (outputs are identical for
    // any thread count, so this is purely a performance guard).
    uint32_t max_threads = numSms();
    if (!engine.allowOversubscribe) {
        const uint32_t cores = std::thread::hardware_concurrency();
        if (cores != 0) {
            max_threads = std::min(max_threads, cores);
        }
    }
    engine_.threads = std::max<uint32_t>(
        1, std::min<uint32_t>(engine.threads, max_threads));
    const bool staged = engine_.staged();
    for (auto &sm : sms_) {
        sm->setStagedFabric(staged);
    }
    pool_.reset();
    if (engine_.threads > 1) {
        pool_ = std::make_unique<engine::WorkerPool>(engine_.threads);
    }
}

StreamId
Gpu::createStream(const std::string &name)
{
    const StreamId id = nextStream_++;
    streams_[id].name = name;
    if (telemetry_) {
        telemetry_->registerStream(id, name);
    }
    return id;
}

KernelId
Gpu::enqueueKernel(StreamId stream, KernelInfo info)
{
    auto it = streams_.find(stream);
    fatal_if(it == streams_.end(), "enqueue on unknown stream %u", stream);
    return enqueueKernelAfter(stream, std::move(info),
                              it->second.lastEnqueued);
}

KernelId
Gpu::enqueueKernelAfter(StreamId stream, KernelInfo info,
                        KernelId depends_on)
{
    return enqueueKernelAfter(stream, std::move(info), depends_on, 0);
}

KernelId
Gpu::enqueueKernelAfter(StreamId stream, KernelInfo info,
                        KernelId depends_on, Cycle delay)
{
    return enqueueInternal(stream, std::move(info), depends_on, delay, 0);
}

KernelId
Gpu::enqueueKernelAt(StreamId stream, KernelInfo info, Cycle not_before)
{
    return enqueueInternal(stream, std::move(info), kNoDependency, 0,
                           not_before);
}

KernelId
Gpu::enqueueInternal(StreamId stream, KernelInfo info, KernelId depends_on,
                     Cycle delay, Cycle not_before)
{
    auto it = streams_.find(stream);
    fatal_if(it == streams_.end(), "enqueue on unknown stream %u", stream);
    // Dependencies must name a kernel previously enqueued on this stream;
    // anything else would make the new kernel wait forever on an id that
    // can never complete (the classic silent-hang bug this validation and
    // the stream-liveness checker both exist for).
    fatal_if(depends_on != kNoDependency &&
                 !it->second.everEnqueued.count(depends_on),
             "stream %s: kernel %s depends on id %u, which was never "
             "enqueued on this stream", it->second.name.c_str(),
             info.name.c_str(), depends_on);
    fatal_if(!info.source, "kernel %s has no trace source",
             info.name.c_str());
    fatal_if(info.numCtas() == 0, "kernel %s launches zero CTAs",
             info.name.c_str());
    // A CTA that can never fit an empty SM would hang the machine.
    const CtaFootprint fp = CtaFootprint::of(info);
    fatal_if(fp.threads > cfg_.sm.maxWarps * kWarpSize ||
                 fp.registers > cfg_.sm.registers ||
                 fp.smemBytes > cfg_.sm.smemBytes,
             "kernel %s CTA (%u threads, %u regs, %u B smem) exceeds SM "
             "capacity", info.name.c_str(), fp.threads, fp.registers,
             fp.smemBytes);
    info.stream = stream;
    // Count the drawcall's kernels at enqueue time so the drawcall-end
    // event fires only when the *last* of them completes — not in the gap
    // between a vertex kernel finishing and its fragment kernel launching.
    if (info.drawcall != 0) {
        drawcalls_[{stream, info.drawcall}].kernelsLeft++;
    }
    const KernelId id = nextKernel_++;
    QueuedKernel q;
    q.id = id;
    q.info = std::move(info);
    q.dependsOn = depends_on;
    q.delay = delay;
    q.notBefore = not_before;
    // Fault injection: overwrite the (validated) dependency with an id
    // that can never complete, after validation so only the injector can
    // smuggle one in. The stream-liveness checker must catch it.
    if (faultInjector_ && depends_on != kNoDependency &&
        faultInjector_->corruptNextDependency()) {
        q.dependsOn = integrity::FaultInjector::kCorruptDependencyId;
    }
    it->second.queue.push_back(std::move(q));
    ctaSchedWake_ = 0;
    it->second.lastEnqueued = id;
    it->second.everUsed = true;
    it->second.everEnqueued.insert(id);
    return id;
}

void
Gpu::setPartition(const PartitionConfig &partition)
{
    double total = 0.0;
    for (const auto &[id, share] : partition.share) {
        fatal_if(!streams_.count(id),
                 "partition names stream %u, which does not exist", id);
        fatal_if(share < 0.0,
                 "negative partition share %.3f for stream %u (%s)", share,
                 id, streams_.at(id).name.c_str());
        total += share;
    }
    fatal_if(total > 1.0 + 1e-9,
             "partition shares sum to %.3f (must be <= 1.0)", total);
    fatal_if(partition.priorityStream != kInvalidStream &&
                 !streams_.count(partition.priorityStream),
             "priority stream %u does not exist", partition.priorityStream);
    partition_ = partition;
    applyPartition();
}

void
Gpu::addController(GpuController *controller)
{
    panic_if(controller == nullptr, "null controller");
    controllers_.push_back(controller);
}

void
Gpu::setTelemetry(telemetry::TelemetrySink *sink)
{
    telemetry_ = sink;
    profiler_ = sink && sink->config().selfProfile ? &sink->profiler()
                                                   : nullptr;
    l2_->setTelemetry(sink);
    for (auto &sm : sms_) {
        sm->setProfiler(profiler_);
    }
    sampleInterval_ = sink ? sink->config().sampleInterval : 0;
    compositionInterval_ = 0;
    if (sink) {
        compositionInterval_ = sink->config().compositionInterval
                                   ? sink->config().compositionInterval
                                   : sampleInterval_;
        for (const auto &[id, ss] : streams_) {
            sink->registerStream(id, ss.name);
        }
    }
    // Arm the sampler cadences: the first sample lands on the next tick.
    nextSample_ = 0;
    nextComposition_ = 0;
    lastComposition_ = CacheComposition{};
    // Column ids belong to the sink's series: re-resolve for a new sink.
    sampleColumns_ = SampleColumns{};
}

void
Gpu::setFaultInjector(integrity::FaultInjector *injector)
{
    faultInjector_ = injector;
    l2_->setFaultHook(injector);
    if (injector == nullptr) {
        for (auto &sm : sms_) {
            sm->setIssueFrozen(false);
        }
    }
}

Sm &
Gpu::sm(uint32_t index)
{
    fatal_if(index >= sms_.size(), "SM index %u out of range (GPU has %u "
             "SMs)", index, numSms());
    return *sms_[index];
}

SmQuota
Gpu::quotaFromShare(double share) const
{
    SmQuota q;
    q.maxThreads =
        static_cast<uint32_t>(share * cfg_.sm.maxWarps * kWarpSize);
    q.maxRegisters = static_cast<uint32_t>(share * cfg_.sm.registers);
    q.maxSmemBytes = static_cast<uint32_t>(share * cfg_.sm.smemBytes);
    return q;
}

void
Gpu::setUniformQuota(StreamId stream, double share)
{
    const SmQuota q = quotaFromShare(share);
    for (auto &sm : sms_) {
        sm->setQuota(stream, q);
    }
}

void
Gpu::setSmQuota(uint32_t sm_index, StreamId stream, const SmQuota &quota)
{
    panic_if(sm_index >= sms_.size(), "SM index out of range");
    sms_[sm_index]->setQuota(stream, quota);
}

void
Gpu::applyPartition()
{
    ctaSchedWake_ = 0;   // SM ranges and the drain policy may change.
    smAssignment_.clear();
    for (auto &sm : sms_) {
        sm->clearQuotas();
        sm->clearIssuePriorities();
    }
    l2_->clearBankMasks();

    if (partition_.policy == PartitionPolicy::Exhaustive) {
        return;
    }

    // Determine the resource share of each stream (default: even split).
    std::vector<StreamId> ids;
    for (const auto &[id, ss] : streams_) {
        ids.push_back(id);
    }
    fatal_if(ids.empty(), "partitioning with no streams");
    std::map<StreamId, double> share;
    double assigned = 0.0;
    uint32_t unassigned = 0;
    for (StreamId id : ids) {
        auto it = partition_.share.find(id);
        if (it != partition_.share.end()) {
            share[id] = it->second;
            assigned += it->second;
        } else {
            ++unassigned;
        }
    }
    for (StreamId id : ids) {
        if (!share.count(id)) {
            share[id] = std::max(0.0, 1.0 - assigned) / unassigned;
        }
    }

    if (partition_.policy == PartitionPolicy::FineGrained) {
        // All SMs run all streams under per-stream quotas.
        for (StreamId id : ids) {
            setUniformQuota(id, share[id]);
        }
        if (partition_.priorityStream != kInvalidStream) {
            for (auto &sm : sms_) {
                sm->setIssuePriority(partition_.priorityStream, -1);
            }
        }
        return;
    }

    // MPS / MiG: contiguous SM ranges proportional to the share.
    uint32_t next_sm = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
        uint32_t count = (i + 1 == ids.size())
            ? cfg_.numSms - next_sm
            : std::max<uint32_t>(
                  1, static_cast<uint32_t>(share[ids[i]] * cfg_.numSms));
        count = std::min(count, cfg_.numSms - next_sm);
        auto &assign = smAssignment_[ids[i]];
        for (uint32_t s = 0; s < count; ++s) {
            assign.push_back(next_sm++);
        }
    }

    if (partition_.policy == PartitionPolicy::Mig) {
        // Bank-level L2 partitioning: contiguous bank ranges per stream.
        uint32_t next_bank = 0;
        const uint32_t banks = cfg_.l2.numBanks;
        for (size_t i = 0; i < ids.size(); ++i) {
            uint32_t count = (i + 1 == ids.size())
                ? banks - next_bank
                : std::max<uint32_t>(
                      1, static_cast<uint32_t>(share[ids[i]] * banks));
            count = std::min(count, banks - next_bank);
            uint64_t mask = 0;
            for (uint32_t b = 0; b < count; ++b) {
                mask |= 1ull << (next_bank++);
            }
            l2_->setStreamBankMask(ids[i], mask);
        }
    }
}

const std::vector<uint32_t> &
Gpu::allowedSms(StreamId stream) const
{
    auto it = smAssignment_.find(stream);
    return it == smAssignment_.end() ? allSms_ : it->second;
}

void
Gpu::promoteReadyKernels(StreamState &ss)
{
    while (!ss.queue.empty() && ss.active.size() < kMaxActiveKernels) {
        const QueuedKernel &front = ss.queue.front();
        // Arrival gate: a kernel enqueued with an absolute arrival time
        // (enqueueKernelAt) is invisible to the scheduler until then.
        if (cycle_ < front.notBefore) {
            break;
        }
        if (front.dependsOn != kNoDependency) {
            if (!ss.completed.count(front.dependsOn)) {
                break;
            }
            // Fixed-function FIFO latency between the dependency's
            // completion and this kernel's eligibility (paper SIV).
            if (front.delay > 0 &&
                cycle_ < ss.completedAt[front.dependsOn] + front.delay) {
                break;
            }
        }
        ActiveKernel ak;
        ak.id = front.id;
        ak.info = std::move(ss.queue.front().info);
        ss.queue.pop_front();
        ss.active.push_back(std::move(ak));
        launchCycles_[ss.active.back().id] = cycle_;
        if (telemetry_) {
            const ActiveKernel &launched = ss.active.back();
            telemetry_->emit(
                {cycle_, telemetry::EventKind::KernelLaunch, 0,
                 launched.info.stream, launched.id,
                 telemetry_->internName(launched.info.name)});
            if (launched.info.drawcall != 0) {
                auto &dc = drawcalls_[{launched.info.stream,
                                       launched.info.drawcall}];
                if (!dc.begun) {
                    dc.begun = true;
                    telemetry_->emit(
                        {cycle_, telemetry::EventKind::DrawcallBegin, 0,
                         launched.info.stream, launched.info.drawcall,
                         telemetry_->internName(
                             drawcallName(launched.info.name))});
                }
            }
        }
        for (auto *c : controllers_) {
            c->onKernelLaunch(*this, ss.active.back().info,
                              ss.active.back().id);
        }
    }
}

Cycle
Gpu::promotionCycle(const StreamState &ss) const
{
    // Mirrors promoteReadyKernels' gates. A front blocked on an incomplete
    // dependency or the active-kernel limit waits on a kernel completion.
    if (ss.queue.empty() || ss.active.size() >= kMaxActiveKernels) {
        return kNeverCycle;
    }
    const QueuedKernel &front = ss.queue.front();
    if (front.dependsOn == kNoDependency) {
        return front.notBefore;
    }
    auto done_at = ss.completedAt.find(front.dependsOn);
    return done_at == ss.completedAt.end()
        ? kNeverCycle
        : std::max(done_at->second + front.delay, front.notBefore);
}

void
Gpu::issueCtas()
{
    // Track which SMs already accepted a CTA this cycle (launch throughput
    // of one CTA per SM per cycle).
    issueLaunchedScratch_.assign(sms_.size(), 0);
    std::vector<uint8_t> &launched = issueLaunchedScratch_;
    // Events during this pass (a controller changing quotas on a kernel
    // launch, an empty CTA committing at launch) reset this to 0.
    ctaSchedWake_ = kNeverCycle;
    bool launched_any = false;
    Cycle timer = kNeverCycle;

    for (auto &[id, ss] : streams_) {
        promoteReadyKernels(ss);
        timer = std::min(timer, promotionCycle(ss));
        bool starved = false;
        for (ActiveKernel &ak : ss.active) {
            const uint32_t total = ak.info.numCtas();
            if (ak.nextCta >= total) {
                continue;   // all issued, waiting for commits
            }
            for (uint32_t sm_id : allowedSms(id)) {
                if (launched[sm_id]) {
                    continue;
                }
                if (ak.nextCta >= total) {
                    break;
                }
                if (sms_[sm_id]->canAccept(ak.info)) {
                    sms_[sm_id]->launchCta(ak.info, ak.id, ak.nextCta++,
                                           cycle_);
                    launched[sm_id] = true;
                    launched_any = true;
                    if (telemetry_) {
                        telemetry_->emit(
                            {cycle_, telemetry::EventKind::CtaDispatch,
                             sm_id, id, ak.id, ak.nextCta - 1});
                    }
                }
            }
            if (ak.nextCta < total) {
                starved = true;
            }
        }
        if (partition_.policy == PartitionPolicy::Exhaustive && starved) {
            // The default scheduler drains one kernel before the next
            // stream's kernel may claim resources. The streams after it
            // cannot act before a launch or a commit ends the drain, so
            // their timers do not matter until then.
            break;
        }
    }
    // A pass that launched nothing leaves everything the next pass reads
    // as it was (its promotions were offered in the same pass), so the
    // next pass can only differ after a promotion timer or an event.
    ctaSchedWake_ = launched_any ? 0 : std::min(ctaSchedWake_, timer);
}

void
Gpu::onCtaDone(uint32_t sm_id, StreamId stream, KernelId kernel)
{
    auto it = streams_.find(stream);
    panic_if(it == streams_.end(), "CTA done for unknown stream %u", stream);
    StreamState &ss = it->second;
    auto ak = std::find_if(ss.active.begin(), ss.active.end(),
                           [&](const ActiveKernel &k) {
                               return k.id == kernel;
                           });
    panic_if(ak == ss.active.end(),
             "CTA done for inactive kernel %u on stream %u", kernel, stream);
    ctaSchedWake_ = 0;   // Resources freed; the kernel may complete.
    if (telemetry_) {
        // b is the retirement ordinal: commit order, not launch index.
        telemetry_->emit({cycle_, telemetry::EventKind::CtaRetire, sm_id,
                          stream, kernel, ak->ctasDone});
    }
    if (++ak->ctasDone == ak->info.numCtas()) {
        ss.completed.insert(kernel);
        ss.completedAt[kernel] = cycle_;
        KernelRecord rec;
        rec.id = kernel;
        rec.name = ak->info.name;
        rec.stream = stream;
        rec.ctas = ak->info.numCtas();
        rec.launchCycle = launchCycles_[kernel];
        rec.completeCycle = cycle_;
        kernelLog_.push_back(std::move(rec));
        if (telemetry_) {
            telemetry_->emit(
                {cycle_, telemetry::EventKind::KernelComplete, 0, stream,
                 kernel, telemetry_->internName(ak->info.name)});
        }
        if (ak->info.drawcall != 0) {
            auto dc = drawcalls_.find({stream, ak->info.drawcall});
            if (dc != drawcalls_.end() && --dc->second.kernelsLeft == 0) {
                if (telemetry_ && dc->second.begun) {
                    telemetry_->emit(
                        {cycle_, telemetry::EventKind::DrawcallEnd, 0,
                         stream, ak->info.drawcall,
                         telemetry_->internName(
                             drawcallName(ak->info.name))});
                }
                drawcalls_.erase(dc);
            }
        }
        ss.active.erase(ak);
        stats_.stream(stream).kernelsCompleted++;
        for (auto *c : controllers_) {
            c->onKernelComplete(*this, stream, kernel);
        }
        if (ss.queue.empty() && ss.active.empty()) {
            ss.finishCycle = cycle_;
        }
    }
}

void
Gpu::tick()
{
    ++cycle_;
    if (faultInjector_) {
        const uint32_t target = faultInjector_->config().freezeSm;
        if (target < sms_.size()) {
            sms_[target]->setIssueFrozen(
                faultInjector_->issueFrozen(target, cycle_));
        }
    }
    if (cycle_ >= ctaSchedWake_) {
        telemetry::SelfProfiler::Scope prof_scope(
            profiler_, telemetry::Component::CtaScheduler);
        issueCtas();
    }
    memoryPhase();
    {
        telemetry::SelfProfiler::Scope prof_scope(
            profiler_, telemetry::Component::SmIssue);
        // An SM with no live warp and no due writeback has nothing to
        // step (Sm::needsStep); both engines skip it. A stepped SM may
        // have queued a memory instruction, or put one ahead of a
        // sleeping LDST head: it rejoins the memory-phase awake set.
        if (engine_.staged()) {
            stepSmsStaged();
        } else {
            for (auto &sm : sms_) {
                if (sm->needsStep(cycle_)) {
                    sm->step(cycle_);
                    markMemAwake(sm->smId());
                }
            }
        }
    }
    l2_->step(cycle_);
    for (uint32_t bank : l2_->poppedBanks()) {
        wakeBankWaiters(bank);
    }
    {
        telemetry::SelfProfiler::Scope prof_scope(
            profiler_, telemetry::Component::Controllers);
        for (auto *c : controllers_) {
            c->onCycle(*this, cycle_);
        }
    }
    if (telemetry_ && sampleInterval_ != 0 && cycle_ >= nextSample_) {
        nextSample_ = cycle_ + sampleInterval_;
        sampleCounters();
    }
}

void
Gpu::wakeBankWaiters(uint32_t bank)
{
    for (uint32_t id : bankWaiters_[bank]) {
        sms_[id]->wakeRetry();
        markMemAwake(id);
    }
    bankWaiters_[bank].clear();
}

void
Gpu::memoryPhase()
{
    // Round-robin fabric arbitration (ROADMAP item 5): instead of each
    // SM flushing its whole retry queue and LDST unit before the next SM
    // runs — which starved high-index SMs for tens of thousands of
    // cycles under saturation — grants interleave one request per SM per
    // round. The rotation start is a pure function of the cycle number,
    // so idle fast-forward (which skips ticks entirely) cannot desync
    // the arbiter between a ticked and a jumped run, and the serial and
    // staged engines share this exact phase: the request stream the L2
    // sees is identical for any thread count.
    //
    // Only SMs in the awake set open a phase. An SM outside it has no
    // queued work, or only stages asleep on an L1 fill or an L2 bank pop;
    // its grants would all be refusals that mutate nothing, so skipping
    // them leaves the grant order, and every output, unchanged.
    //
    // A routing change (bank masks, page migration) can send a retry
    // head asleep on a full bank elsewhere: every such stage re-polls.
    const uint64_t routing = l2_->routingEpoch() +
        (remote_ != nullptr ? remote_->ownershipChanges() : 0);
    if (routing != routingSeen_) {
        routingSeen_ = routing;
        for (uint32_t bank = 0; bank < bankWaiters_.size(); ++bank) {
            wakeBankWaiters(bank);
        }
    }
    if (std::all_of(memAwake_.begin(), memAwake_.end(),
                    [](uint64_t word) { return word == 0; })) {
        return;
    }
    telemetry::SelfProfiler::Scope prof_scope(
        profiler_, telemetry::Component::L1Ldst);

    // Open the awake SMs in rotation order (start, start + 1, ... mod n),
    // dropping any whose stages fell asleep since they were added.
    memPhaseOpened_.clear();
    auto open = [this](size_t word, uint64_t bits) {
        while (bits != 0) {
            const uint32_t id = static_cast<uint32_t>(
                word * 64 + __builtin_ctzll(bits));
            bits &= bits - 1;
            Sm *sm = sms_[id].get();
            if (sm->memPhaseAwake()) {
                sm->beginMemPhase(cycle_);
                memPhaseOpened_.push_back(sm);
            } else {
                memAwake_[word] &= ~(1ull << (id & 63));
            }
        }
    };
    const size_t start = static_cast<size_t>(cycle_ % sms_.size());
    const size_t first = start / 64;
    const uint64_t below = (1ull << (start % 64)) - 1;
    open(first, memAwake_[first] & ~below);
    for (size_t w = first + 1; w < memAwake_.size(); ++w) {
        open(w, memAwake_[w]);
    }
    for (size_t w = 0; w < first; ++w) {
        open(w, memAwake_[w]);
    }
    open(first, memAwake_[first] & below);

    // Grant rounds, retry stage first across ALL SMs: parked requests
    // are the oldest traffic in the machine, so they claim the bank
    // slots freed since last cycle before any fresh LDST line can.
    // SMs that can no longer make progress this cycle (out of work, out
    // of budget, or blocked on backpressure) are compacted out in
    // place; rotation order is preserved across rounds. A retry stage
    // that a full local bank refuses goes to sleep on that bank.
    memPhaseScratch_.clear();
    for (Sm *sm : memPhaseOpened_) {
        if (sm->retryAwake()) {
            memPhaseScratch_.push_back(sm);
        }
    }
    while (!memPhaseScratch_.empty()) {
        size_t kept = 0;
        for (Sm *sm : memPhaseScratch_) {
            if (sm->memPhaseGrantRetry(cycle_)) {
                memPhaseScratch_[kept++] = sm;
            } else if (sm->retryWaitBank() != kNoBank) {
                bankWaiters_[sm->retryWaitBank()].push_back(sm->smId());
            }
        }
        memPhaseScratch_.resize(kept);
    }
    memPhaseScratch_ = memPhaseOpened_;
    while (!memPhaseScratch_.empty()) {
        size_t kept = 0;
        for (Sm *sm : memPhaseScratch_) {
            if (sm->memPhaseGrantLdst(cycle_)) {
                memPhaseScratch_[kept++] = sm;
            }
        }
        memPhaseScratch_.resize(kept);
    }
}

void
Gpu::stepSmsStaged()
{
    // The fabric-facing memory phase already ran under the arbiter in
    // memoryPhase(), serially on the main thread, so workers below never
    // touch the fabric.

    // Only SMs with something to step take part; the others leave their
    // shadows and CTA-done lists empty, so they have nothing to merge.
    stepScratch_.clear();
    for (auto &sm : sms_) {
        if (sm->needsStep(cycle_)) {
            stepScratch_.push_back(sm.get());
        }
    }

    // Sharded SM stepping over the SM-private stages (writebacks, issue,
    // execute). Workers touch only their own SM's state: stats and
    // profiler deltas land in per-SM shadows, CTA-done callbacks in
    // per-SM lists. The shard→lane assignment is strided but the merge
    // below runs in SM-id order, so outputs are independent of the lane
    // count and of thread scheduling.
    if (pool_) {
        // Capture only `this`: the closure stays inside std::function's
        // small-buffer storage, so the per-cycle dispatch never allocates.
        pool_->run([this](uint32_t lane) {
            const uint32_t lanes = pool_->lanes();
            const size_t count = stepScratch_.size();
            for (size_t i = lane; i < count; i += lanes) {
                stepScratch_[i]->step(cycle_);
            }
        });
    } else {
        // Staged semantics at one thread: the determinism baseline.
        for (Sm *sm : stepScratch_) {
            sm->step(cycle_);
        }
    }

    // Post-barrier merge, main thread, SM-id order — the same order the
    // serial loop delivered CTA completions and accumulated stats in.
    for (Sm *sm : stepScratch_) {
        sm->flushStagedCtaDones();
        sm->flushShadowStats();
        sm->flushShadowProfiler();
        markMemAwake(sm->smId());
    }
}

void
Gpu::sampleCounters()
{
    telemetry::CounterSeries &series = telemetry_->series();
    series.beginRow(cycle_);

    // Resolve the fixed column ids once per sink: interning by name costs
    // a string construction and a map lookup per column per sample, which
    // dominated this function's profile at tight sample intervals. The
    // intern order matches what re-interning every sample produced, so
    // the exported CSV is unchanged (occupancy columns resolve first,
    // just below).
    SampleColumns &cols = sampleColumns_;

    // Per-stream warp occupancy as a fraction of all warp slots — the same
    // arithmetic the Fig 13 occupancy sampler used, so ported benches emit
    // identical values. Streams created after the first sample intern
    // their column on their first sample, as before.
    const double slots =
        static_cast<double>(numSms()) * cfg_.sm.maxWarps;
    for (const auto &[id, ss] : streams_) {
        uint32_t warps = 0;
        for (const auto &sm : sms_) {
            warps += sm->activeWarpsOf(id);
        }
        auto it = cols.occ.find(id);
        if (it == cols.occ.end()) {
            it = cols.occ.emplace(id, series.column("occ." + ss.name))
                     .first;
        }
        series.set(it->second, warps / slots);
    }

    if (!cols.resolved) {
        cols.resolved = true;
        cols.smActiveWarps = series.column("sm.activeWarps");
        cols.smReady = series.column("sm.ready");
        cols.smAtBarrier = series.column("sm.atBarrier");
        cols.smWaitScoreboard = series.column("sm.waitScoreboard");
        cols.smWaitExecUnit = series.column("sm.waitExecUnit");
        cols.smWaitSmem = series.column("sm.waitSmem");
        cols.smWaitLdst = series.column("sm.waitLdst");
        cols.l1Mshr = series.column("l1.mshr");
        cols.l2Accesses = series.column("l2.accesses");
        cols.l2Hits = series.column("l2.hits");
        cols.l2HitRate = series.column("l2.hitRate");
        cols.l2Mshr = series.column("l2.mshr");
        cols.l2CompTexture = series.column("l2.comp.texture");
        cols.l2CompPipeline = series.column("l2.comp.pipeline");
        cols.l2CompCompute = series.column("l2.comp.compute");
        cols.l2Valid = series.column("l2.valid");
    }

    // Machine-wide warp-state breakdown from the SM integrity probes.
    uint64_t active = 0, ready = 0, barrier = 0, scoreboard = 0, exec = 0,
             smem = 0, ldst = 0, l1_mshr = 0;
    for (const auto &sm : sms_) {
        const Sm::IntegrityProbe p = sm->probe(cycle_);
        active += p.activeWarps;
        ready += p.ready;
        barrier += p.atBarrier;
        scoreboard += p.waitScoreboard;
        exec += p.waitExecUnit;
        smem += p.waitSmem;
        ldst += p.waitLdst;
        l1_mshr += p.l1MshrEntries;
    }
    series.set(cols.smActiveWarps, static_cast<double>(active));
    series.set(cols.smReady, static_cast<double>(ready));
    series.set(cols.smAtBarrier, static_cast<double>(barrier));
    series.set(cols.smWaitScoreboard, static_cast<double>(scoreboard));
    series.set(cols.smWaitExecUnit, static_cast<double>(exec));
    series.set(cols.smWaitSmem, static_cast<double>(smem));
    series.set(cols.smWaitLdst, static_cast<double>(ldst));
    series.set(cols.l1Mshr, static_cast<double>(l1_mshr));

    // L2 hit/miss and MSHR depth.
    series.set(cols.l2Accesses, static_cast<double>(l2_->accesses()));
    series.set(cols.l2Hits, static_cast<double>(l2_->hits()));
    series.set(cols.l2HitRate, l2_->hitRate());
    const L2Subsystem::InFlight inflight = l2_->inFlight();
    series.set(cols.l2Mshr, static_cast<double>(inflight.mshrEntries));

    // The composition walk is O(cache lines), so it runs on its own
    // (usually slower) cadence; rows in between carry the last snapshot.
    if (cycle_ >= nextComposition_) {
        nextComposition_ = cycle_ + compositionInterval_;
        lastComposition_ = l2_->composition();
    }
    series.set(cols.l2CompTexture,
               lastComposition_.fraction(DataClass::Texture));
    series.set(cols.l2CompPipeline,
               lastComposition_.fraction(DataClass::Pipeline));
    series.set(cols.l2CompCompute,
               lastComposition_.fraction(DataClass::Compute));
    series.set(cols.l2Valid, lastComposition_.validFraction());
}

uint64_t
Gpu::totalWorkCount() const
{
    uint64_t work = l2_->workCount();
    for (const auto &sm : sms_) {
        work += sm->workCount();
    }
    return work;
}

Cycle
Gpu::nextWakeCycle() const
{
    Cycle wake = kNeverCycle;
    auto consider = [&](Cycle at) {
        if (at != kNeverCycle) {
            wake = std::min(wake, std::max(at, cycle_ + 1));
        }
    };

    // Controllers default to now + 1 (no jumping past their onCycle);
    // epoch-based ones can override nextWakeCycle to permit it.
    for (const auto *c : controllers_) {
        consider(c->nextWakeCycle(*this, cycle_));
    }

    // The counter sampler's next row.
    if (telemetry_ && sampleInterval_ != 0) {
        consider(nextSample_);
    }

    // Kernel promotion timers: a front kernel held back only by its
    // arrival time or a fixed-function delay becomes eligible at a known
    // cycle (consider() clamps a due one to cycle_ + 1). Fronts blocked
    // on an incomplete dependency or the active-kernel limit wake via a
    // kernel completion, which is always preceded by SM/L2 work (covered
    // below).
    for (const auto &[id, ss] : streams_) {
        consider(promotionCycle(ss));
    }

    for (const auto &sm : sms_) {
        consider(sm->nextWorkCycle(cycle_));
    }
    consider(l2_->nextEventCycle(cycle_));
    return wake;
}

void
Gpu::fastForwardTo(Cycle target)
{
    // Every skipped cycle is a proven zero-work tick: the only per-cycle
    // state it would have advanced is the per-stream active-cycle
    // counters, credited here so counters and timestamps match the
    // ticked-through run exactly.
    const uint64_t skipped = target - cycle_;
    for (auto &sm : sms_) {
        sm->creditIdleCycles(skipped);
    }
    cycle_ = target;
    ++ffJumps_;
    ffCyclesSkipped_ += skipped;
}

bool
Gpu::done() const
{
    for (const auto &[id, ss] : streams_) {
        if (!ss.active.empty() || !ss.queue.empty()) {
            return false;
        }
    }
    for (const auto &sm : sms_) {
        if (!sm->idle()) {
            return false;
        }
    }
    return l2_->idle();
}

uint64_t
Gpu::progressSignature() const
{
    // Any of these moving means the machine is getting somewhere: warps
    // issuing, CTAs launching, kernels finishing, or memory responses
    // arriving. Stall counters and queue churn deliberately don't count.
    uint64_t sig = l2_->responsesDelivered();
    for (const auto &[id, st] : stats_.allStreams()) {
        sig += st.instructions + st.ctasLaunched + st.kernelsCompleted;
    }
    return sig;
}

bool
Gpu::progressImminent() const
{
    // A machine-wide idle spell is legal while a fixed-function stage
    // delay holds back the only runnable kernel (enqueueKernelAfter with
    // a delay): the front kernel's dependency has completed and promotion
    // is scheduled, so this is not a hang no matter how long the delay.
    for (const auto &[id, ss] : streams_) {
        if (!ss.active.empty() || ss.queue.empty()) {
            continue;
        }
        const QueuedKernel &front = ss.queue.front();
        if (front.dependsOn == kNoDependency) {
            return true;   // promotes on the next tick (or at arrival)
        }
        auto done_at = ss.completedAt.find(front.dependsOn);
        if (done_at != ss.completedAt.end() &&
            cycle_ < std::max(done_at->second + front.delay,
                              front.notBefore)) {
            return true;
        }
    }
    return false;
}

std::vector<const Sm *>
Gpu::constSms() const
{
    std::vector<const Sm *> sms;
    sms.reserve(sms_.size());
    for (const auto &sm : sms_) {
        sms.push_back(sm.get());
    }
    return sms;
}

void
Gpu::checkStreamLiveness(
    std::vector<integrity::InvariantViolation> &out) const
{
    // A front kernel whose dependency is neither completed nor active on
    // its stream waits on an id that can never complete (streams promote
    // in order, so a valid dependency is always ahead of its dependent).
    for (const auto &[id, ss] : streams_) {
        if (ss.queue.empty()) {
            continue;
        }
        const QueuedKernel &front = ss.queue.front();
        if (front.dependsOn == kNoDependency ||
            ss.completed.count(front.dependsOn)) {
            continue;
        }
        const bool pending =
            std::any_of(ss.active.begin(), ss.active.end(),
                        [&](const ActiveKernel &ak) {
                            return ak.id == front.dependsOn;
                        });
        if (pending) {
            continue;
        }
        out.push_back(
            {"stream-liveness",
             logging_detail::formatMessage(
                 "stream %u (%s): kernel %u (%s) waits on dependency %u, "
                 "which is neither completed nor running on this stream "
                 "and so can never be satisfied", id, ss.name.c_str(),
                 front.id, front.info.name.c_str(), front.dependsOn),
             cycle_});
    }
}

void
Gpu::checkCtaSchedulerSleep(
    std::vector<integrity::InvariantViolation> &out) const
{
    // tick() skips issueCtas() while cycle_ + 1 < ctaSchedWake_, so the
    // pass it skips must have nothing to do: no front kernel due to
    // promote and no pending CTA that fits an allowed SM (in the pass's
    // own stream order, honoring the exhaustive drain).
    if (ctaSchedWake_ <= cycle_ + 1) {
        return;
    }
    for (const auto &[id, ss] : streams_) {
        std::string missed;
        if (promotionCycle(ss) <= cycle_ + 1) {
            missed = logging_detail::formatMessage(
                "kernel %u can promote", ss.queue.front().id);
        }
        bool starved = false;
        for (const ActiveKernel &ak : ss.active) {
            if (ak.nextCta >= ak.info.numCtas()) {
                continue;
            }
            starved = true;
            for (uint32_t sm_id : allowedSms(id)) {
                if (missed.empty() && sms_[sm_id]->canAccept(ak.info)) {
                    missed = logging_detail::formatMessage(
                        "CTA %u of kernel %u fits SM %u", ak.nextCta,
                        ak.id, sm_id);
                }
            }
        }
        if (!missed.empty()) {
            out.push_back(
                {"cta-scheduler-sleep",
                 logging_detail::formatMessage(
                     "CTA scheduler asleep past cycle %llu but stream %u "
                     "(%s): %s (missed wake event)",
                     static_cast<unsigned long long>(cycle_ + 1), id,
                     ss.name.c_str(), missed.c_str()),
                 cycle_});
            return;
        }
        if (partition_.policy == PartitionPolicy::Exhaustive && starved) {
            return;
        }
    }
}

std::vector<integrity::HangReport::StreamRow>
Gpu::streamRows() const
{
    std::vector<integrity::HangReport::StreamRow> rows;
    for (const auto &[id, ss] : streams_) {
        integrity::HangReport::StreamRow row;
        row.id = id;
        row.name = ss.name;
        row.queuedKernels = ss.queue.size();
        row.activeKernels = ss.active.size();
        if (!ss.queue.empty()) {
            const QueuedKernel &front = ss.queue.front();
            row.frontKernel = front.info.name;
            if (front.dependsOn != kNoDependency &&
                !ss.completed.count(front.dependsOn)) {
                row.blockingDep = front.dependsOn;
                row.blockReason = logging_detail::formatMessage(
                    "waiting on kernel %u", front.dependsOn);
            } else if (front.dependsOn != kNoDependency && front.delay > 0 &&
                       cycle_ < ss.completedAt.at(front.dependsOn) +
                                    front.delay) {
                row.blockReason = "fixed-function delay";
            } else if (ss.active.size() >= kMaxActiveKernels) {
                row.blockReason = "active-kernel limit";
            } else {
                row.blockReason = "SM resources";
            }
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

integrity::HangReport
Gpu::buildHangReport(
    Cycle last_progress, std::string reason,
    std::vector<integrity::InvariantViolation> violations,
    std::vector<integrity::HangReport::MshrLeakRow> leaks) const
{
    integrity::HangReport report;
    report.detectedAt = cycle_;
    report.lastProgressAt = last_progress;
    report.reason = std::move(reason);
    report.violations = std::move(violations);
    report.mshrLeaks = std::move(leaks);
    for (const auto &sm : sms_) {
        report.sms.push_back(integrity::smRow(*sm, cycle_));
    }
    report.streams = streamRows();
    report.mem = integrity::memRow(*l2_, cycle_);
    if (telemetry_) {
        for (const telemetry::Event &e :
             telemetry_->lastEvents(kHangReportEvents)) {
            report.recentEvents.push_back(telemetry_->describe(e));
        }
    }
    return report;
}

Gpu::RunResult
Gpu::run(Cycle max_cycles, const integrity::RunOptions &opts)
{
    // Attach the caller's sink for the duration of the run.
    telemetry::TelemetrySink *const previous_sink = telemetry_;
    if (opts.telemetry) {
        setTelemetry(opts.telemetry);
    }
    const std::vector<const Sm *> sms = constSms();
    // Reused across audit firings so a tight cadence (e.g. every 4096
    // cycles) tallies in-flight requests without allocating each time.
    SmallFlatMap<StreamId, uint64_t> audit_scratch;
    RunResult result = runMachine(
        {this}, nullptr, max_cycles, opts,
        [&](Cycle now, std::vector<integrity::InvariantViolation> &out) {
            audit::auditAll(stats_, sms, *l2_, now, audit_scratch, out);
        });
    if (opts.telemetry) {
        setTelemetry(previous_sink);
    }
    return result;
}

Gpu::RunResult
Gpu::runMachine(const std::vector<Gpu *> &devices, RemoteMemPort *fabric,
                Cycle max_cycles, const integrity::RunOptions &opts,
                const MachineAudit &audit)
{
    fatal_if(devices.empty(), "a machine needs at least one device");
    RunResult result;
    const Gpu &lead = *devices.front();
    const Cycle &cycle = lead.cycle_;
    for (const Gpu *gpu : devices) {
        panic_if(gpu->cycle_ != cycle, "devices out of lockstep");
    }
    const Cycle interval = opts.checkInterval;

    // Auto thresholds scale with the configured memory round trip, so a
    // clean-but-slow machine (deep queues, DRAM contention) never trips
    // the watchdog while a genuine hang is caught within a few round
    // trips.
    const L2Config &l2cfg = lead.cfg_.l2;
    const Cycle roundtrip =
        l2cfg.l2Latency + 2 * l2cfg.icntLatency + l2cfg.dramLatency;
    const Cycle hang_threshold =
        opts.hangThreshold ? opts.hangThreshold : 8 * roundtrip + 10000;
    const Cycle leak_age =
        opts.mshrLeakAge ? opts.mshrLeakAge : hang_threshold;
    // Bounded-stall bound: the arbiter's worst case has every other SM
    // draining a full egress queue ahead of a parked request, one grant
    // per round, times the configured safety factor (0 disables).
    const Cycle retry_bound = static_cast<Cycle>(opts.retryWaitBoundFactor) *
                              lead.numSms() * lead.cfg_.sm.ldstQueueDepth;

    std::vector<const Sm *> all_sms;
    std::vector<const L2Subsystem *> l2s;
    std::vector<std::vector<const Sm *>> device_sms;
    for (const Gpu *gpu : devices) {
        device_sms.push_back(gpu->constSms());
        all_sms.insert(all_sms.end(), device_sms.back().begin(),
                       device_sms.back().end());
        l2s.push_back(gpu->l2_.get());
    }

    auto signature = [&] {
        uint64_t sig = 0;
        for (const Gpu *gpu : devices) {
            sig += gpu->progressSignature();
        }
        return sig;
    };
    auto done = [&] {
        if (fabric != nullptr && !fabric->idle()) {
            return false;
        }
        return std::all_of(devices.begin(), devices.end(),
                           [](const Gpu *gpu) { return gpu->done(); });
    };
    // Machine-wide work counter: standing still across a tick proves the
    // tick did nothing anywhere, fabric included.
    auto work = [&] {
        uint64_t w = fabric != nullptr ? fabric->activityCount() : 0;
        for (const Gpu *gpu : devices) {
            w += gpu->totalWorkCount();
        }
        return w;
    };

    uint64_t last_sig = signature();
    Cycle last_progress = cycle;
    Cycle next_check = cycle + interval;
    const Cycle audit_interval = opts.auditInterval;
    Cycle next_audit = cycle + audit_interval;

    // Idle fast-forward: armed per run, and never under fault injection
    // (a frozen SM's "idle" is exactly what the watchdog must observe
    // tick by tick).
    const bool fast_forward =
        std::all_of(devices.begin(), devices.end(), [](const Gpu *gpu) {
            return gpu->engine_.fastForward &&
                gpu->faultInjector_ == nullptr;
        });
    uint64_t last_work = fast_forward ? work() : 0;

    while (cycle < max_cycles) {
        if (done()) {
            break;
        }
        // Cooperative cancellation: a relaxed load per tick (the flag
        // carries no data, only the stop request), checked before the
        // tick so the machine stops at a clean cycle boundary with every
        // counter identity intact — the audit checkers pass on a
        // cancelled run exactly as they do mid-flight.
        if (opts.cancel && opts.cancel->load(std::memory_order_relaxed)) {
            result.cancelled = true;
            break;
        }
        // Lockstep tick: the fabric first, so deliveries land in bank
        // queues and SMs before each device's own memory phase of the
        // same cycle, then the devices in id order.
        if (fabric != nullptr) {
            fabric->step(cycle + 1);
        }
        for (Gpu *gpu : devices) {
            gpu->tick();
        }
        if (fast_forward) {
            const uint64_t w = work();
            if (w == last_work) {
                // Nothing happened this tick: jump every device to just
                // before the earliest cycle anything can happen anywhere,
                // clamped so the watchdog still runs at its exact
                // cadence and the run still ends at max_cycles.
                // kNeverCycle (a dead machine) is left to the watchdog at
                // normal speed. The counter audit does not clamp the
                // jump: its identities depend only on counter state,
                // which is frozen across idle ticks, and an overdue
                // audit fires right after the jump.
                Cycle wake = fabric != nullptr
                    ? fabric->nextEventCycle(cycle)
                    : kNeverCycle;
                for (const Gpu *gpu : devices) {
                    if (wake <= cycle + 1) {
                        break;   // nothing can wake earlier
                    }
                    wake = std::min(wake, gpu->nextWakeCycle());
                }
                Cycle limit = max_cycles;
                if (interval != 0) {
                    limit = std::min(limit, next_check);
                }
                if (wake != kNeverCycle &&
                    std::min(wake, limit) > cycle + 1) {
                    const Cycle target = std::min(wake, limit) - 1;
                    for (Gpu *gpu : devices) {
                        gpu->fastForwardTo(target);
                    }
                }
            }
            last_work = w;
        }
        const bool check_due = interval != 0 && cycle >= next_check;
        const bool audit_due = audit_interval != 0 && cycle >= next_audit;
        if (!check_due && !audit_due) {
            continue;
        }

        std::vector<integrity::InvariantViolation> violations;
        std::vector<integrity::HangReport::MshrLeakRow> leaks;
        bool hung = false;
        if (check_due) {
            next_check = cycle + interval;
            const uint64_t sig = signature();
            if (sig != last_sig) {
                last_sig = sig;
                last_progress = cycle;
            }
            if (opts.checkInvariants) {
                integrity::checkConservation(
                    all_sms, l2s,
                    fabric != nullptr ? fabric->readsInFlight() : 0, cycle,
                    violations);
                integrity::checkSmAccounting(all_sms, cycle, violations);
                for (size_t d = 0; d < devices.size(); ++d) {
                    // A remote miss is live on the fabric or at a peer.
                    const uint32_t id = devices[d]->deviceId_;
                    std::function<bool(uint32_t, Addr)> elsewhere;
                    if (fabric != nullptr) {
                        elsewhere = [&](uint32_t sm, Addr line) {
                            return fabric->lineInFlightFor(id, sm, line);
                        };
                    }
                    std::vector<integrity::HangReport::MshrLeakRow> rows =
                        integrity::findMshrLeaks(device_sms[d], *l2s[d],
                                                 cycle, leak_age,
                                                 &violations, elsewhere);
                    leaks.insert(leaks.end(), rows.begin(), rows.end());
                }
                integrity::checkBoundedRetryWait(all_sms, cycle,
                                                 retry_bound, violations);
                for (const Gpu *gpu : devices) {
                    gpu->checkStreamLiveness(violations);
                    gpu->checkCtaSchedulerSleep(violations);
                }
            }
            hung = cycle - last_progress >= hang_threshold &&
                   std::none_of(devices.begin(), devices.end(),
                                [](const Gpu *gpu) {
                                    return gpu->progressImminent();
                                });
        }
        if (audit_due) {
            next_audit = cycle + audit_interval;
            audit(cycle, violations);
        }
        if (violations.empty() && !hung) {
            continue;
        }

        std::string reason;
        if (hung) {
            reason = logging_detail::formatMessage(
                "no forward progress for %" PRIu64 " cycles",
                cycle - last_progress);
        } else {
            reason = "invariant violation: " + violations.front().check;
        }
        // The report's SM, stream and memory tables describe one device:
        // the first one that still has work.
        const Gpu *culprit = devices.front();
        for (const Gpu *gpu : devices) {
            if (!gpu->done()) {
                culprit = gpu;
                break;
            }
        }
        if (devices.size() > 1) {
            reason = logging_detail::formatMessage(
                "device %u: %s", culprit->deviceId_, reason.c_str());
        }
        integrity::HangReport report = culprit->buildHangReport(
            last_progress, std::move(reason), std::move(violations),
            std::move(leaks));
        if (opts.onHang == integrity::RunOptions::OnHang::Panic) {
            panic("%s", report.render().c_str());
        }
        result.hang = std::move(report);
        break;
    }
    result.cycles = cycle;
    result.completed = !result.hang && done();
    return result;
}

uint32_t
Gpu::busyStreams() const
{
    uint32_t count = 0;
    for (const auto &[id, ss] : streams_) {
        if (!ss.active.empty() || !ss.queue.empty()) {
            ++count;
        }
    }
    return count;
}

uint64_t
Gpu::pendingKernels() const
{
    uint64_t count = 0;
    for (const auto &[id, ss] : streams_) {
        count += ss.queue.size() + ss.active.size();
    }
    return count;
}

uint64_t
Gpu::pendingKernels(StreamId stream) const
{
    auto it = streams_.find(stream);
    return it == streams_.end()
        ? 0
        : it->second.queue.size() + it->second.active.size();
}

Cycle
Gpu::streamFinishCycle(StreamId stream) const
{
    auto it = streams_.find(stream);
    fatal_if(it == streams_.end(), "unknown stream %u", stream);
    return it->second.finishCycle;
}

uint32_t
Gpu::refusingBank(const MemRequest &req) const
{
    // A line a peer owns goes over the fabric, whose refusals are polled.
    if (remote_ != nullptr && remote_->ownerOf(req.line) != deviceId_) {
        return kNoBank;
    }
    return l2_->refusingBank(req);
}

bool
Gpu::submitToL2(MemRequest req, Cycle now)
{
    req.srcDevice = deviceId_;
    if (remote_ != nullptr && remote_->ownerOf(req.line) != deviceId_) {
        if (!remote_->submitRemote(req, now)) {
            return false;
        }
        stats_.stream(req.stream).remoteAccesses++;
        return true;
    }
    return l2_->submit(std::move(req), now);
}

void
Gpu::setStreamIdBase(StreamId base)
{
    fatal_if(!streams_.empty(),
             "setStreamIdBase after streams were created");
    nextStream_ = base;
}

bool
Gpu::acceptRemoteRequest(MemRequest req, Cycle now)
{
    return l2_->submit(std::move(req), now);
}

void
Gpu::deliverRemoteResponse(const MemRequest &resp, Cycle now)
{
    panic_if(resp.srcDevice != deviceId_,
             "remote response routed to device %u for device %u",
             deviceId_, resp.srcDevice);
    panic_if(resp.smId >= sms_.size(), "remote response for unknown SM %u",
             resp.smId);
    stats_.stream(resp.stream).remoteResponses++;
    sms_[resp.smId]->memResponse(resp, now);
    markMemAwake(resp.smId);
}

} // namespace crisp
