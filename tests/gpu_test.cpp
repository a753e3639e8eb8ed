#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>

#include "audit/audit.hpp"
#include "gpu/gpu.hpp"
#include "isa/trace_builder.hpp"
#include "workloads/compute.hpp"

namespace crisp
{
namespace
{

GpuConfig
tinyGpu(uint32_t sms = 4)
{
    GpuConfig cfg;
    cfg.name = "tiny";
    cfg.numSms = sms;
    cfg.coreClockMhz = 1000.0;
    cfg.memoryBandwidthGBs = 128.0;
    cfg.l2.numBanks = 4;
    cfg.l2.bankGeometry = {64 * 1024, 8, kLineBytes};
    cfg.finalize();
    return cfg;
}

ComputeKernelDesc
simpleDesc(const std::string &name, uint32_t ctas)
{
    ComputeKernelDesc d;
    d.name = name;
    d.ctas = ctas;
    d.threadsPerCta = 128;
    d.regsPerThread = 32;
    d.fp32Ops = 16;
    d.intOps = 4;
    d.loads = {{MemPatternKind::Streaming, 0x100000, 1 << 20, 4, 2, 128}};
    d.store = {MemPatternKind::Streaming, 0x200000, 1 << 20, 4, 1, 128};
    d.hasStore = true;
    return d;
}

TEST(GpuTest, ConfigPresetsMatchTableII)
{
    const GpuConfig rtx = GpuConfig::rtx3070();
    EXPECT_EQ(rtx.numSms, 46u);
    EXPECT_EQ(rtx.sm.registers, 65536u);
    EXPECT_EQ(rtx.sm.maxWarps, 64u);
    EXPECT_EQ(rtx.sm.numSchedulers, 4u);
    EXPECT_DOUBLE_EQ(rtx.memoryBandwidthGBs, 448.0);
    // 4 MB L2 total.
    EXPECT_EQ(rtx.l2.numBanks * rtx.l2.bankGeometry.sizeBytes,
              4ull * 1024 * 1024);

    const GpuConfig orin = GpuConfig::jetsonOrin();
    EXPECT_EQ(orin.numSms, 14u);
    EXPECT_DOUBLE_EQ(orin.memoryBandwidthGBs, 200.0);
    EXPECT_EQ(orin.l2.numBanks * orin.l2.bankGeometry.sizeBytes,
              4ull * 1024 * 1024);
    // Orin's bytes-per-cycle is lower despite the same L2 size.
    EXPECT_LT(orin.dramBytesPerCycle(), rtx.dramBytesPerCycle());
}

TEST(GpuTest, RunsOneKernelToCompletion)
{
    Gpu gpu(tinyGpu());
    const StreamId s = gpu.createStream("compute");
    gpu.enqueueKernel(s, buildComputeKernel(simpleDesc("k", 8)));
    const auto result = gpu.run(2'000'000);
    ASSERT_TRUE(result.completed);
    const auto &st = gpu.stats().stream(s);
    EXPECT_EQ(st.ctasLaunched, 8u);
    EXPECT_EQ(st.kernelsCompleted, 1u);
    EXPECT_GT(st.instructions, 0u);
    EXPECT_GT(st.l1Accesses, 0u);
    EXPECT_GT(st.l2Accesses, 0u);
}

TEST(GpuTest, StreamKernelsExecuteInOrder)
{
    Gpu gpu(tinyGpu());
    const StreamId s = gpu.createStream("ordered");

    struct Watcher : GpuController
    {
        std::vector<KernelId> launches;
        std::vector<KernelId> completions;
        void
        onKernelLaunch(Gpu &, const KernelInfo &, KernelId id) override
        {
            launches.push_back(id);
        }
        void
        onKernelComplete(Gpu &, StreamId, KernelId id) override
        {
            completions.push_back(id);
        }
    } watcher;
    gpu.addController(&watcher);

    const KernelId k1 =
        gpu.enqueueKernel(s, buildComputeKernel(simpleDesc("k1", 4)));
    const KernelId k2 =
        gpu.enqueueKernel(s, buildComputeKernel(simpleDesc("k2", 4)));
    ASSERT_TRUE(gpu.run(2'000'000).completed);

    ASSERT_EQ(watcher.launches.size(), 2u);
    ASSERT_EQ(watcher.completions.size(), 2u);
    EXPECT_EQ(watcher.launches[0], k1);
    EXPECT_EQ(watcher.completions[0], k1);
    // The second kernel launches only after the first completes.
    EXPECT_EQ(watcher.launches[1], k2);
}

TEST(GpuTest, TwoStreamsBothComplete)
{
    Gpu gpu(tinyGpu());
    const StreamId a = gpu.createStream("gfx");
    const StreamId b = gpu.createStream("compute");
    gpu.enqueueKernel(a, buildComputeKernel(simpleDesc("ka", 6)));
    gpu.enqueueKernel(b, buildComputeKernel(simpleDesc("kb", 6)));
    ASSERT_TRUE(gpu.run(2'000'000).completed);
    EXPECT_EQ(gpu.stats().stream(a).kernelsCompleted, 1u);
    EXPECT_EQ(gpu.stats().stream(b).kernelsCompleted, 1u);
    EXPECT_GT(gpu.streamFinishCycle(a), 0u);
    EXPECT_GT(gpu.streamFinishCycle(b), 0u);
}

/** Controller that samples per-stream SM residency every cycle. */
struct ResidencySampler : GpuController
{
    StreamId a;
    StreamId b;
    bool sawShared = false;       ///< Some SM ran both streams at once.
    bool sawAOnHighSm = false;    ///< Stream A resident on the top SM.
    bool sawBOnLowSm = false;     ///< Stream B resident on SM 0.

    void
    onCycle(Gpu &gpu, Cycle) override
    {
        for (uint32_t s = 0; s < gpu.numSms(); ++s) {
            const bool has_a = gpu.sm(s).activeCtasOf(a) > 0;
            const bool has_b = gpu.sm(s).activeCtasOf(b) > 0;
            sawShared |= has_a && has_b;
            if (s == gpu.numSms() - 1) {
                sawAOnHighSm |= has_a;
            }
            if (s == 0) {
                sawBOnLowSm |= has_b;
            }
        }
    }
};

TEST(GpuTest, MpsPartitionSeparatesSms)
{
    Gpu gpu(tinyGpu(4));
    const StreamId a = gpu.createStream("gfx");
    const StreamId b = gpu.createStream("compute");
    gpu.enqueueKernel(a, buildComputeKernel(simpleDesc("ka", 16)));
    gpu.enqueueKernel(b, buildComputeKernel(simpleDesc("kb", 16)));
    PartitionConfig part;
    part.policy = PartitionPolicy::Mps;
    gpu.setPartition(part);

    ResidencySampler sampler;
    sampler.a = a;
    sampler.b = b;
    gpu.addController(&sampler);
    ASSERT_TRUE(gpu.run(2'000'000).completed);

    // Inter-SM partitioning: no SM ever runs both streams; stream A gets
    // the low half, stream B the high half.
    EXPECT_FALSE(sampler.sawShared);
    EXPECT_FALSE(sampler.sawAOnHighSm);
    EXPECT_FALSE(sampler.sawBOnLowSm);
}

TEST(GpuTest, FineGrainedSharesEverySm)
{
    Gpu gpu(tinyGpu(2));
    const StreamId a = gpu.createStream("gfx");
    const StreamId b = gpu.createStream("compute");
    gpu.enqueueKernel(a, buildComputeKernel(simpleDesc("ka", 32)));
    gpu.enqueueKernel(b, buildComputeKernel(simpleDesc("kb", 32)));
    PartitionConfig part;
    part.policy = PartitionPolicy::FineGrained;
    gpu.setPartition(part);

    ResidencySampler sampler;
    sampler.a = a;
    sampler.b = b;
    gpu.addController(&sampler);
    ASSERT_TRUE(gpu.run(4'000'000).completed);
    EXPECT_TRUE(sampler.sawShared);
}

TEST(GpuTest, ExhaustivePolicyPrioritizesFirstStream)
{
    // One kernel big enough to fill the machine: with the default policy
    // the second stream only starts once stream 0 cannot issue more.
    Gpu gpu(tinyGpu(2));
    const StreamId a = gpu.createStream("first");
    const StreamId b = gpu.createStream("second");
    gpu.enqueueKernel(a, buildComputeKernel(simpleDesc("ka", 64)));
    gpu.enqueueKernel(b, buildComputeKernel(simpleDesc("kb", 4)));
    ASSERT_TRUE(gpu.run(4'000'000).completed);
    const auto &sa = gpu.stats().stream(a);
    const auto &sb = gpu.stats().stream(b);
    EXPECT_EQ(sa.ctasLaunched, 64u);
    EXPECT_EQ(sb.ctasLaunched, 4u);
    // Stream a started first.
    EXPECT_LE(sa.firstCycle, sb.firstCycle);
}

TEST(GpuTest, MigAppliesBankMasks)
{
    Gpu gpu(tinyGpu(4));
    const StreamId a = gpu.createStream("gfx");
    const StreamId b = gpu.createStream("compute");
    gpu.enqueueKernel(a, buildComputeKernel(simpleDesc("ka", 8)));
    gpu.enqueueKernel(b, buildComputeKernel(simpleDesc("kb", 8)));
    PartitionConfig part;
    part.policy = PartitionPolicy::Mig;
    gpu.setPartition(part);
    ASSERT_TRUE(gpu.run(4'000'000).completed);
    EXPECT_EQ(gpu.stats().stream(a).kernelsCompleted, 1u);
    EXPECT_EQ(gpu.stats().stream(b).kernelsCompleted, 1u);
}

TEST(GpuTest, QuotaFromShare)
{
    Gpu gpu(tinyGpu());
    const SmQuota half = gpu.quotaFromShare(0.5);
    EXPECT_EQ(half.maxThreads, gpu.config().sm.maxWarps * kWarpSize / 2);
    EXPECT_EQ(half.maxRegisters, gpu.config().sm.registers / 2);
    EXPECT_EQ(half.maxSmemBytes, gpu.config().sm.smemBytes / 2);
}

TEST(GpuTest, PendingKernelsAndBusyStreams)
{
    Gpu gpu(tinyGpu());
    const StreamId s = gpu.createStream("q");
    gpu.enqueueKernel(s, buildComputeKernel(simpleDesc("k1", 2)));
    gpu.enqueueKernel(s, buildComputeKernel(simpleDesc("k2", 2)));
    EXPECT_EQ(gpu.pendingKernels(), 2u);
    EXPECT_EQ(gpu.busyStreams(), 1u);
    ASSERT_TRUE(gpu.run(2'000'000).completed);
    EXPECT_EQ(gpu.pendingKernels(), 0u);
    EXPECT_EQ(gpu.busyStreams(), 0u);
}

TEST(GpuTest, PerStreamStatsAreSeparate)
{
    Gpu gpu(tinyGpu());
    const StreamId a = gpu.createStream("a");
    const StreamId b = gpu.createStream("b");
    auto desc_a = simpleDesc("ka", 4);
    auto desc_b = simpleDesc("kb", 4);
    desc_b.fp32Ops = 64;  // b issues more instructions per thread
    gpu.enqueueKernel(a, buildComputeKernel(desc_a));
    gpu.enqueueKernel(b, buildComputeKernel(desc_b));
    PartitionConfig part;
    part.policy = PartitionPolicy::FineGrained;
    gpu.setPartition(part);
    ASSERT_TRUE(gpu.run(4'000'000).completed);
    EXPECT_GT(gpu.stats().stream(b).instructions,
              gpu.stats().stream(a).instructions);
}


TEST(GpuTest, KernelLogRecordsExecutionWindows)
{
    Gpu gpu(tinyGpu());
    const StreamId s = gpu.createStream("log");
    gpu.enqueueKernel(s, buildComputeKernel(simpleDesc("k1", 4)));
    gpu.enqueueKernel(s, buildComputeKernel(simpleDesc("k2", 4)));
    ASSERT_TRUE(gpu.run(2'000'000).completed);
    const auto &log = gpu.kernelLog();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].name, "k1");
    EXPECT_EQ(log[1].name, "k2");
    for (const auto &rec : log) {
        EXPECT_EQ(rec.ctas, 4u);
        EXPECT_GE(rec.completeCycle, rec.launchCycle);
    }
    // In-order stream: k2 launches after k1 completes.
    EXPECT_GE(log[1].launchCycle, log[0].completeCycle);
}

TEST(GpuTest, MidFlightCancellationLeavesCoherentState)
{
    Gpu gpu(tinyGpu());
    const StreamId s = gpu.createStream("compute");
    gpu.enqueueKernel(s, buildComputeKernel(simpleDesc("big", 64)));

    // A controller raises the cancellation token mid-kernel; the run
    // must stop at the next watchdog check, between ticks.
    struct Trigger : GpuController
    {
        std::atomic<bool> cancel{false};
        void
        onCycle(Gpu &, Cycle now) override
        {
            if (now >= 300) {
                cancel.store(true);
            }
        }
    } trigger;
    gpu.addController(&trigger);

    integrity::RunOptions opts;
    opts.checkInterval = 64;
    opts.cancel = &trigger.cancel;
    const auto r = gpu.run(2'000'000, opts);

    EXPECT_TRUE(r.cancelled);
    EXPECT_FALSE(r.completed);
    EXPECT_FALSE(r.hang.has_value());
    EXPECT_GE(r.cycles, 300u);
    // Stopped at a check boundary shortly after the token was raised,
    // not at the cycle budget.
    EXPECT_LT(r.cycles, 300u + 2 * opts.checkInterval);

    // The truncated run is partial but coherent: work was launched and
    // counted, nothing was fabricated as finished.
    const auto &st = gpu.stats().stream(s);
    EXPECT_GT(st.instructions, 0u);
    EXPECT_GT(st.ctasLaunched, 0u);
    EXPECT_LE(st.ctasLaunched, 64u);
    EXPECT_EQ(st.kernelsCompleted, 0u);

    // Every cross-layer counter identity holds at the truncation point.
    std::vector<integrity::InvariantViolation> violations;
    audit::auditAll(gpu.stats(), gpu.constSms(), gpu.l2(), r.cycles,
                    violations);
    for (const auto &v : violations) {
        ADD_FAILURE() << v.check << ": " << v.detail;
    }
}

// --- Memory-phase sleep: the retry stage --------------------------------

/** A kernel of @p ctas one-warp CTAs, each running @p warp. */
KernelInfo
warpKernel(const std::string &name, const WarpTrace &warp, uint32_t ctas)
{
    CtaTrace cta;
    cta.warps.push_back(warp);
    KernelInfo k;
    k.name = name;
    k.grid = {ctas, 1, 1};
    k.cta = {32, 1, 1};
    k.regsPerThread = 16;
    k.source = std::make_shared<VectorCtaSource>(
        std::vector<CtaTrace>(ctas, cta));
    return k;
}

TEST(MemPhaseSleep, BankRefusedRetryWakesOnThatBanksPop)
{
    // Two banks of one queue slot, no icnt latency, one target per L2
    // MSHR entry. Line blocks below 128 map to bank (block % 2).
    //  - SM 0 loads 32 even blocks (bank 0). The first goes straight in
    //    at 2; the other 31 park. From cycle 3 the retry head sleeps on
    //    bank 0, which pops every 4 cycles (a 128 B line at 32 B/cycle):
    //    pops at 2, 6, ..., 126, each retry granted the cycle after the
    //    pop that woke it (3, 7, ..., 123).
    //  - SMs 1-3 load odd block 101 (bank 1). SM 2's request misses at
    //    2; SM 3's copy waits at the head of bank 1 (the line's only
    //    MSHR target is taken) until the DRAM fill; SM 1's retry sleeps
    //    on bank 1 through all of bank 0's pops, and is granted the cycle
    //    after bank 1 pops again.
    GpuConfig cfg = tinyGpu(4);
    cfg.l2.numBanks = 2;
    cfg.l2.bankQueueCapacity = 1;
    cfg.l2.mshrTargetsPerEntry = 1;
    cfg.l2.icntLatency = 0;
    cfg.finalize();
    Gpu gpu(cfg);
    const StreamId even = gpu.createStream("even");
    const StreamId odd = gpu.createStream("odd");
    TraceBuilder gather(32);
    gather.memStrided(Opcode::LDG, 4, 0, 2 * kLineBytes, 4,
                      DataClass::Compute);
    gather.exit();
    TraceBuilder shared(32);
    shared.memUniform(Opcode::LDG, 4, 101 * kLineBytes, 4,
                      DataClass::Compute);
    shared.exit();
    gpu.enqueueKernel(even, warpKernel("even", gather.take(), 1));
    gpu.enqueueKernel(odd, warpKernel("odd", shared.take(), 3));

    std::vector<Cycle> bank0_pops, sm0_grants;
    Cycle sm1_slept = 0, bank1_pop = 0, sm1_granted = 0;
    uint64_t accepted = gpu.l2().readsAccepted();
    size_t sm1_depth = 0;
    while (!gpu.done() && gpu.now() < 2000) {
        gpu.tick();
        const Cycle now = gpu.now();
        const std::vector<uint32_t> &popped = gpu.l2().poppedBanks();
        const bool pop0 =
            std::find(popped.begin(), popped.end(), 0u) != popped.end();
        const bool pop1 =
            std::find(popped.begin(), popped.end(), 1u) != popped.end();
        if (pop0) {
            bank0_pops.push_back(now);
        }
        Sm &sm1 = gpu.sm(1);
        const uint64_t new_reads = gpu.l2().readsAccepted() - accepted;
        accepted = gpu.l2().readsAccepted();
        // After cycle 2 only SM 0 (and SM 3's one retry, at 3) reach
        // the L2 while SM 1's retry queue holds still.
        if (now > 2 && new_reads > 0 && sm1.fabricRetryDepth() == sm1_depth) {
            sm0_grants.push_back(now);
        }
        if (sm1_slept == 0 && sm1.retryWaitBank() == 1) {
            sm1_slept = now;
        }
        if (sm1_slept != 0 && bank1_pop == 0) {
            if (pop1) {
                bank1_pop = now;
                EXPECT_EQ(sm1.retryWaitBank(), kNoBank) << "cycle " << now;
            } else {
                EXPECT_EQ(sm1.retryWaitBank(), 1u) << "cycle " << now;
            }
        }
        if (sm1_granted == 0 && sm1_depth == 1 &&
            sm1.fabricRetryDepth() == 0) {
            sm1_granted = now;
        }
        sm1_depth = sm1.fabricRetryDepth();
        for (uint32_t i = 0; i < gpu.numSms(); ++i) {
            std::string detail;
            EXPECT_TRUE(gpu.sm(i).auditAccounting(now, &detail)) << detail;
        }
    }
    ASSERT_TRUE(gpu.done());
    std::vector<Cycle> want_pops, want_grants;
    for (Cycle k = 0; k < 32; ++k) {
        want_pops.push_back(2 + 4 * k);
        if (k < 31) {
            want_grants.push_back(3 + 4 * k);
        }
    }
    EXPECT_EQ(bank0_pops, want_pops);
    EXPECT_EQ(sm0_grants, want_grants);
    EXPECT_EQ(sm1_slept, 3u);
    // The DRAM round trip (180 cycles) outlasts all 32 bank-0 pops.
    EXPECT_GT(bank1_pop, 180u);
    EXPECT_EQ(sm1_granted, bank1_pop + 1);
}

TEST(MemPhaseSleep, BankMaskChangeWakesRetriesAsleepOnABank)
{
    // SM 1's retry head sleeps on bank 1 behind a line waiting for its
    // DRAM fill (as above). Restricting its stream to bank 0 re-routes
    // the head: the next memory phase must poll it again (granted, or
    // asleep on bank 0) instead of leaving it asleep on bank 1.
    GpuConfig cfg = tinyGpu(4);
    cfg.l2.numBanks = 2;
    cfg.l2.bankQueueCapacity = 1;
    cfg.l2.mshrTargetsPerEntry = 1;
    cfg.l2.icntLatency = 0;
    cfg.finalize();
    Gpu gpu(cfg);
    const StreamId s = gpu.createStream("odd");
    TraceBuilder shared(32);
    shared.memUniform(Opcode::LDG, 4, 101 * kLineBytes, 4,
                      DataClass::Compute);
    shared.exit();
    gpu.enqueueKernel(s, warpKernel("odd", shared.take(), 3));
    while (gpu.now() < 20) {
        gpu.tick();
    }
    ASSERT_EQ(gpu.sm(1).retryWaitBank(), 1u);
    gpu.l2().setStreamBankMask(s, 0b01);
    gpu.tick();
    EXPECT_NE(gpu.sm(1).retryWaitBank(), 1u);
    integrity::RunOptions opts;
    opts.checkInterval = 1;
    const Gpu::RunResult result = gpu.run(100'000, opts);
    EXPECT_FALSE(result.hang) << result.hang->render();
    EXPECT_TRUE(result.completed);
}

TEST(MemPhaseSleep, MoreThan64SmsRunCleanWithTheAuditEveryCycle)
{
    // 72 SMs (a two-word awake set) gathering 32 lines per warp through
    // four narrow banks: retry and LDST stages sleep all over the
    // machine, including on SMs 64-71, and the missed-wake invariants
    // stay quiet with the watchdog at cadence 1.
    GpuConfig cfg = tinyGpu(72);
    cfg.l2.bankQueueCapacity = 2;
    cfg.sm.l1MshrEntries = 8;
    cfg.finalize();
    Gpu gpu(cfg);
    const StreamId s = gpu.createStream("gather");
    TraceBuilder tb(32);
    tb.memStrided(Opcode::LDG, 4, 0x40000, 3 * kLineBytes, 4,
                  DataClass::Compute);
    tb.alu(Opcode::FFMA, 5, 4, 4);
    tb.memStrided(Opcode::LDG, 6, 0x80000, 5 * kLineBytes, 4,
                  DataClass::Compute);
    tb.exit();
    gpu.enqueueKernel(s, warpKernel("gather", tb.take(), 144));

    bool high_retry_slept = false;
    bool high_sm_asleep = false;
    while (gpu.now() < 200) {
        gpu.tick();
        for (uint32_t i = 64; i < gpu.numSms(); ++i) {
            const Sm &sm = gpu.sm(i);
            high_retry_slept |= sm.retryWaitBank() != kNoBank;
            const bool has_work = sm.fabricRetryDepth() > 0 ||
                                  sm.probe(gpu.now()).ldstQueueDepth > 0;
            high_sm_asleep |= has_work && !sm.memPhaseAwake();
        }
    }
    EXPECT_TRUE(high_retry_slept);
    EXPECT_TRUE(high_sm_asleep);

    integrity::RunOptions opts;
    opts.checkInterval = 1;
    const Gpu::RunResult result = gpu.run(1'000'000, opts);
    EXPECT_FALSE(result.hang) << result.hang->render();
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(gpu.stats().stream(s).ctasLaunched, 144u);
    for (uint32_t i = 64; i < gpu.numSms(); ++i) {
        EXPECT_GT(gpu.sm(i).l1Mshr().primaryAllocations(), 0u) << i;
    }
}

// --- CTA-scheduler sleep ---------------------------------------------------

TEST(CtaSchedulerSleep, DirectSmQuotaChangeWakesTheScheduler)
{
    // A zero quota keeps every CTA off both SMs, so the scheduler sleeps;
    // lifting SM 1's quota directly on the Sm (not through the Gpu)
    // must still launch a CTA on the very next tick.
    Gpu gpu(tinyGpu(2));
    const StreamId s = gpu.createStream("compute");
    gpu.enqueueKernel(s, buildComputeKernel(simpleDesc("k", 4)));
    gpu.setUniformQuota(s, 0.0);
    for (int i = 0; i < 10; ++i) {
        gpu.tick();
    }
    EXPECT_EQ(gpu.stats().stream(s).ctasLaunched, 0u);
    gpu.sm(1).setQuota(s, gpu.quotaFromShare(1.0));
    gpu.tick();
    EXPECT_EQ(gpu.stats().stream(s).ctasLaunched, 1u);
    EXPECT_EQ(gpu.sm(1).activeCtas(), 1u);
    gpu.setUniformQuota(s, 1.0);
    integrity::RunOptions opts;
    opts.checkInterval = 1;
    const Gpu::RunResult result = gpu.run(2'000'000, opts);
    EXPECT_FALSE(result.hang) << result.hang->render();
    EXPECT_TRUE(result.completed);
}

TEST(CtaSchedulerSleep, TimersAndCompletionsLaunchOnTime)
{
    // A kernel arriving at 500 launches at 500; one held by a 300-cycle
    // fixed-function delay after its dependency launches exactly 300
    // cycles after that kernel completes; one with a plain dependency
    // launches the cycle after it completes (a CTA commit wakes the
    // scheduler). The scheduler sleeps in between, and the watchdog runs
    // its missed-wake check every cycle.
    Gpu gpu(tinyGpu(2));
    const StreamId a = gpu.createStream("arrival");
    const StreamId b = gpu.createStream("delayed");
    const StreamId c = gpu.createStream("chained");
    gpu.enqueueKernelAt(a, buildComputeKernel(simpleDesc("late", 2)), 500);
    const KernelId first =
        gpu.enqueueKernel(b, buildComputeKernel(simpleDesc("first", 2)));
    gpu.enqueueKernelAfter(b, buildComputeKernel(simpleDesc("second", 2)),
                           first, 300);
    gpu.enqueueKernel(c, buildComputeKernel(simpleDesc("head", 1)));
    gpu.enqueueKernel(c, buildComputeKernel(simpleDesc("tail", 1)));
    integrity::RunOptions opts;
    opts.checkInterval = 1;
    const Gpu::RunResult result = gpu.run(2'000'000, opts);
    EXPECT_FALSE(result.hang) << result.hang->render();
    ASSERT_TRUE(result.completed);
    std::map<std::string, Gpu::KernelRecord> log;
    for (const Gpu::KernelRecord &rec : gpu.kernelLog()) {
        log[rec.name] = rec;
    }
    ASSERT_EQ(log.size(), 5u);
    EXPECT_EQ(log["late"].launchCycle, 500u);
    EXPECT_EQ(log["second"].launchCycle, log["first"].completeCycle + 300);
    EXPECT_EQ(log["tail"].launchCycle, log["head"].completeCycle + 1);
}

} // namespace
} // namespace crisp
