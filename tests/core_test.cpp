#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "core/sm.hpp"
#include "isa/trace_builder.hpp"

namespace crisp
{
namespace
{

/** Fabric stub: answers every read a fixed delay after submission. */
class TestFabric : public MemFabricPort
{
  public:
    explicit TestFabric(Cycle delay = 100) : delay_(delay) {}

    bool
    submitToL2(MemRequest req, Cycle now) override
    {
        ++submissions_;
        if (req.write) {
            ++writes_;
            return true;
        }
        readCycles_.push_back(now);
        pending_.emplace(now + delay_, req);
        return true;
    }

    /** Deliver due responses into @p sm. */
    void
    step(Sm &sm, Cycle now)
    {
        while (!pending_.empty() && pending_.begin()->first <= now) {
            auto node = pending_.extract(pending_.begin());
            sm.memResponse(node.mapped(), now);
        }
    }

    uint64_t submissions() const { return submissions_; }
    uint64_t writes() const { return writes_; }
    /** Cycle of every read submission, in order. */
    const std::vector<Cycle> &readCycles() const { return readCycles_; }

  private:
    Cycle delay_;
    std::vector<Cycle> readCycles_;
    uint64_t submissions_ = 0;
    uint64_t writes_ = 0;
    std::multimap<Cycle, MemRequest> pending_;
};

/** One CTA of one warp per trace, warp i in warp slot i. */
KernelInfo
ctaKernel(std::vector<WarpTrace> warps, uint32_t regs = 16)
{
    CtaTrace cta;
    cta.warps = std::move(warps);
    KernelInfo k;
    k.name = "test";
    k.grid = {1, 1, 1};
    k.cta = {static_cast<uint32_t>(32 * cta.warps.size()), 1, 1};
    k.regsPerThread = regs;
    k.source = std::make_shared<VectorCtaSource>(
        std::vector<CtaTrace>{std::move(cta)});
    return k;
}

KernelInfo
oneWarpKernel(WarpTrace warp, uint32_t regs = 16)
{
    std::vector<WarpTrace> warps;
    warps.push_back(std::move(warp));
    return ctaKernel(std::move(warps), regs);
}

struct SmHarness
{
    SmConfig cfg;
    TestFabric fabric;
    StatsRegistry stats;
    std::unique_ptr<Sm> sm;
    Cycle now = 0;

    explicit SmHarness(Cycle mem_delay = 100) : SmHarness(SmConfig{}, mem_delay)
    {
    }

    SmHarness(const SmConfig &config, Cycle mem_delay)
        : cfg(config), fabric(mem_delay)
    {
        sm = std::make_unique<Sm>(0, cfg, &fabric, &stats);
    }

    /** Step until the SM idles; returns cycles taken. */
    Cycle
    runToIdle(Cycle budget = 100000)
    {
        const Cycle start = now;
        while (!sm->idle() && now - start < budget) {
            ++now;
            sm->step(now);
            fabric.step(*sm, now);
        }
        return now - start;
    }
};

TEST(SmTest, RunsSimpleAluWarp)
{
    SmHarness h;
    TraceBuilder tb(32);
    for (int i = 0; i < 10; ++i) {
        tb.alu(Opcode::FFMA, static_cast<uint8_t>(4 + i), 1, 2);
    }
    tb.exit();
    auto k = oneWarpKernel(tb.take());
    ASSERT_TRUE(h.sm->canAccept(k));
    h.sm->launchCta(k, 1, 0, h.now);
    h.runToIdle();
    EXPECT_TRUE(h.sm->idle());
    EXPECT_EQ(h.stats.stream(0).instructions, 11u);
    EXPECT_EQ(h.stats.stream(0).warpsLaunched, 1u);
    EXPECT_EQ(h.stats.stream(0).ctasLaunched, 1u);
}

TEST(SmTest, DependentChainSlowerThanIndependent)
{
    // Dependent chain of 32 FFMA.
    SmHarness h1;
    TraceBuilder tb1(32);
    tb1.aluChain(Opcode::FFMA, 5, 2, 32);
    tb1.exit();
    auto k1 = oneWarpKernel(tb1.take());
    h1.sm->launchCta(k1, 1, 0, 0);
    const Cycle dep_cycles = h1.runToIdle();

    // 32 independent FFMA (distinct dests, no chains).
    SmHarness h2;
    TraceBuilder tb2(32);
    for (int i = 0; i < 32; ++i) {
        tb2.alu(Opcode::FFMA, static_cast<uint8_t>(8 + (i % 32)), 1, 2);
    }
    tb2.exit();
    auto k2 = oneWarpKernel(tb2.take());
    h2.sm->launchCta(k2, 1, 0, 0);
    const Cycle indep_cycles = h2.runToIdle();

    EXPECT_GT(dep_cycles, indep_cycles * 2);
}

TEST(SmTest, SfuHasLowerThroughputThanFp32)
{
    SmHarness h1;
    TraceBuilder tb1(32);
    for (int i = 0; i < 64; ++i) {
        tb1.alu(Opcode::FFMA, static_cast<uint8_t>(8 + (i % 8)), 1, 2);
    }
    tb1.exit();
    auto k1 = oneWarpKernel(tb1.take());
    h1.sm->launchCta(k1, 1, 0, 0);
    const Cycle fp = h1.runToIdle();

    SmHarness h2;
    TraceBuilder tb2(32);
    for (int i = 0; i < 64; ++i) {
        tb2.alu(Opcode::MUFU_SIN, static_cast<uint8_t>(8 + (i % 8)), 1);
    }
    tb2.exit();
    auto k2 = oneWarpKernel(tb2.take());
    h2.sm->launchCta(k2, 1, 0, 0);
    const Cycle sfu = h2.runToIdle();

    EXPECT_GT(sfu, fp * 2);
}

TEST(SmTest, LoadMissRoundTripAndL1Hit)
{
    SmHarness h(/*mem_delay=*/200);
    TraceBuilder tb(32);
    tb.memUniform(Opcode::LDG, 4, 0x1000, 4, DataClass::Compute);
    tb.alu(Opcode::FFMA, 5, 4, 4);  // depends on the load
    tb.exit();
    auto k = oneWarpKernel(tb.take());
    h.sm->launchCta(k, 1, 0, 0);
    const Cycle first = h.runToIdle();
    EXPECT_GT(first, 200u);  // paid the fabric latency
    EXPECT_EQ(h.fabric.submissions(), 1u);
    EXPECT_EQ(h.stats.stream(0).l1Accesses, 1u);
    EXPECT_EQ(h.stats.stream(0).l1Hits, 0u);

    // Second CTA loads the same line: an L1 hit, no fabric traffic.
    auto k2 = oneWarpKernel([&] {
        TraceBuilder t(32);
        t.memUniform(Opcode::LDG, 4, 0x1000, 4, DataClass::Compute);
        t.alu(Opcode::FFMA, 5, 4, 4);
        t.exit();
        return t.take();
    }());
    h.sm->launchCta(k2, 2, 0, h.now);
    const Cycle second = h.runToIdle();
    EXPECT_EQ(h.fabric.submissions(), 1u);
    EXPECT_EQ(h.stats.stream(0).l1Hits, 1u);
    EXPECT_LT(second, first);
}

TEST(SmTest, TexCountsAsTextureAccess)
{
    SmHarness h;
    TraceBuilder tb(32);
    tb.memStrided(Opcode::TEX, 4, 0x8000, 4, 4, DataClass::Texture);
    tb.exit();
    auto k = oneWarpKernel(tb.take());
    h.sm->launchCta(k, 1, 0, 0);
    h.runToIdle();
    EXPECT_EQ(h.stats.stream(0).l1TexAccesses, 1u);
}

TEST(SmTest, StoresAreFireAndForget)
{
    SmHarness h;
    TraceBuilder tb(32);
    tb.memStrided(Opcode::STG, 4, 0x2000, 4, 4, DataClass::Compute);
    tb.exit();
    auto k = oneWarpKernel(tb.take());
    h.sm->launchCta(k, 1, 0, 0);
    const Cycle cycles = h.runToIdle();
    EXPECT_LT(cycles, 50u);  // no latency dependence on the store
    EXPECT_EQ(h.fabric.writes(), 1u);
}

TEST(SmTest, CoalescedLoadProducesOneRequest)
{
    SmHarness h;
    TraceBuilder tb(32);
    tb.memStrided(Opcode::LDG, 4, 0x4000, 4, 4, DataClass::Compute);
    tb.exit();
    auto k = oneWarpKernel(tb.take());
    h.sm->launchCta(k, 1, 0, 0);
    h.runToIdle();
    EXPECT_EQ(h.fabric.submissions(), 1u);
}

TEST(SmTest, UncoalescedLoadProducesManyRequests)
{
    SmHarness h;
    TraceBuilder tb(32);
    tb.memStrided(Opcode::LDG, 4, 0x40000, kLineBytes, 4,
                  DataClass::Compute);
    tb.exit();
    auto k = oneWarpKernel(tb.take());
    h.sm->launchCta(k, 1, 0, 0);
    h.runToIdle();
    EXPECT_EQ(h.fabric.submissions(), 32u);
    EXPECT_EQ(h.stats.stream(0).l1Accesses, 32u);
}

TEST(SmTest, SharedMemoryConflictsAreCounted)
{
    // All lanes hit the same bank with distinct words: 32-way conflict.
    SmHarness h;
    TraceBuilder tb(32);
    tb.memStrided(Opcode::LDS, 4, 0, 32 * 4, 4, DataClass::Compute);
    tb.exit();
    auto k = oneWarpKernel(tb.take());
    h.sm->launchCta(k, 1, 0, 0);
    h.runToIdle();
    EXPECT_EQ(h.stats.stream(0).smemAccesses, 1u);
    EXPECT_EQ(h.stats.stream(0).smemBankConflicts, 31u);

    // Lane-linear words are conflict-free.
    SmHarness h2;
    TraceBuilder tb2(32);
    tb2.memStrided(Opcode::LDS, 4, 0, 4, 4, DataClass::Compute);
    tb2.exit();
    auto k2 = oneWarpKernel(tb2.take());
    h2.sm->launchCta(k2, 1, 0, 0);
    h2.runToIdle();
    EXPECT_EQ(h2.stats.stream(0).smemBankConflicts, 0u);
}

TEST(SmTest, BarrierSynchronizesWarps)
{
    SmHarness h(/*mem_delay=*/500);
    // Warp 0: slow load then barrier. Warp 1: barrier then ALU.
    CtaTrace cta;
    {
        TraceBuilder tb(32);
        tb.memUniform(Opcode::LDG, 4, 0x9000, 4, DataClass::Compute);
        tb.alu(Opcode::FFMA, 5, 4, 4);
        tb.bar();
        tb.exit();
        cta.warps.push_back(tb.take());
    }
    {
        TraceBuilder tb(32);
        tb.bar();
        tb.alu(Opcode::FFMA, 5, 1, 2);
        tb.exit();
        cta.warps.push_back(tb.take());
    }
    KernelInfo k;
    k.name = "barrier";
    k.grid = {1, 1, 1};
    k.cta = {64, 1, 1};
    k.regsPerThread = 16;
    k.source = std::make_shared<VectorCtaSource>(
        std::vector<CtaTrace>{std::move(cta)});
    h.sm->launchCta(k, 1, 0, 0);
    const Cycle cycles = h.runToIdle();
    // Warp 1 must have waited for warp 0's 500-cycle load.
    EXPECT_GT(cycles, 500u);
    EXPECT_TRUE(h.sm->idle());
}

/** A CTA whose warps park on a long-latency load (stays resident). */
CtaTrace
parkedCta(uint32_t warps)
{
    CtaTrace cta;
    for (uint32_t w = 0; w < warps; ++w) {
        TraceBuilder tb(32);
        tb.memUniform(Opcode::LDG, 4, 0xB000 + 0x40 * w, 4,
                      DataClass::Compute);
        tb.alu(Opcode::FFMA, 5, 4, 4);
        tb.exit();
        cta.warps.push_back(tb.take());
    }
    return cta;
}

TEST(SmTest, ResourceAccounting)
{
    SmHarness h(/*mem_delay=*/50000);
    KernelInfo big;
    big.name = "big";
    big.grid = {4, 1, 1};
    big.cta = {1024, 1, 1};
    big.regsPerThread = 64;  // 64K regs per CTA: only one fits
    big.source = std::make_shared<VectorCtaSource>(std::vector<CtaTrace>(
        4, parkedCta(32)));
    ASSERT_TRUE(h.sm->canAccept(big));
    h.sm->launchCta(big, 1, 0, 0);
    for (int i = 0; i < 10; ++i) {
        ++h.now;
        h.sm->step(h.now);
    }
    // 1024 threads * 64 regs = 65536 = all registers: no second CTA.
    EXPECT_FALSE(h.sm->canAccept(big));
    h.runToIdle(200000);
    EXPECT_TRUE(h.sm->canAccept(big));  // resources freed at CTA commit
}

TEST(SmTest, QuotaRestrictsStream)
{
    SmHarness h(/*mem_delay=*/50000);
    SmQuota q;
    q.maxThreads = 128;
    h.sm->setQuota(0, q);
    KernelInfo k;
    k.name = "quota";
    k.grid = {2, 1, 1};
    k.cta = {128, 1, 1};
    k.regsPerThread = 16;
    k.source = std::make_shared<VectorCtaSource>(std::vector<CtaTrace>(
        2, parkedCta(4)));
    ASSERT_TRUE(h.sm->canAccept(k));
    h.sm->launchCta(k, 1, 0, 0);
    for (int i = 0; i < 10; ++i) {
        ++h.now;
        h.sm->step(h.now);
    }
    EXPECT_FALSE(h.sm->canAccept(k));  // quota, not capacity, blocks
    h.sm->clearQuotas();
    EXPECT_TRUE(h.sm->canAccept(k));
    h.runToIdle(200000);
}

TEST(SmTest, CtaDoneHandlerFires)
{
    SmHarness h;
    int done = 0;
    h.sm->setCtaDoneHandler(
        [&](uint32_t, StreamId, KernelId) { ++done; });
    TraceBuilder tb(32);
    tb.alu(Opcode::MOV, 1).exit();
    auto k = oneWarpKernel(tb.take());
    h.sm->launchCta(k, 1, 0, 0);
    h.runToIdle();
    EXPECT_EQ(done, 1);
    EXPECT_EQ(h.sm->activeWarps(), 0u);
    EXPECT_EQ(h.sm->activeCtas(), 0u);
}

TEST(SmTest, PerStreamOccupancyTracked)
{
    SmHarness h(/*mem_delay=*/10000);
    // A warp parked on a long load keeps the CTA resident.
    TraceBuilder tb(32);
    tb.memUniform(Opcode::LDG, 4, 0xA000, 4, DataClass::Compute);
    tb.alu(Opcode::FFMA, 5, 4, 4);
    tb.exit();
    auto k = oneWarpKernel(tb.take());
    k.stream = 7;
    h.sm->launchCta(k, 1, 0, 0);
    for (int i = 0; i < 50; ++i) {
        ++h.now;
        h.sm->step(h.now);
    }
    EXPECT_EQ(h.sm->activeWarpsOf(7), 1u);
    EXPECT_EQ(h.sm->activeWarpsOf(3), 0u);
    EXPECT_EQ(h.sm->usedThreadsOf(7), 32u);
    EXPECT_GT(h.sm->issuedInstrsOf(7), 0u);
    h.runToIdle(20000);
}

// --- Issue-stage sleep: one test per wake cause --------------------------
//
// Each test steps a standalone SM cycle by cycle and pins the cycle of
// every issue against a hand-computed timeline. A missed wake shows as a
// late (or never) issue; every cycle also runs the SM's audit, whose
// missed-wake check must stay quiet.

/** Instructions issued per cycle, for the cycles that issued any. */
using Timeline = std::map<Cycle, uint64_t>;

/**
 * Step @p h until idle (at most @p budget cycles), calling @p after_step
 * after each cycle, and return its issue timeline.
 */
Timeline
issueTimeline(SmHarness &h,
              const std::function<void(Cycle)> &after_step = {},
              Cycle budget = 1000)
{
    Timeline issued;
    uint64_t seen = 0;
    const Cycle start = h.now;
    while (!h.sm->idle() && h.now - start < budget) {
        ++h.now;
        h.sm->step(h.now);
        h.fabric.step(*h.sm, h.now);
        if (after_step) {
            after_step(h.now);
        }
        std::string detail;
        EXPECT_TRUE(h.sm->auditAccounting(h.now, &detail)) << detail;
        const uint64_t total = h.stats.stream(0).instructions;
        if (total != seen) {
            issued[h.now] = total - seen;
            seen = total;
        }
    }
    EXPECT_TRUE(h.sm->idle()) << "SM still busy after " << budget
                              << " cycles";
    return issued;
}

TEST(SmIssueWake, BusyExecutionPoolWakesWhenAUnitFrees)
{
    // One unit, blocked 5 (FP32) or 6 (tensor) cycles per instruction;
    // results land at +20, so the second, independent instruction waits
    // only on the pool: issue at 1, then at 1 + interval, EXIT right
    // after.
    for (const auto &[op, expected] :
         {std::pair{Opcode::FFMA, Timeline{{1, 1}, {6, 1}, {7, 1}}},
          std::pair{Opcode::HMMA, Timeline{{1, 1}, {7, 1}, {8, 1}}}}) {
        SmConfig cfg;
        cfg.fp32Units = 1;
        cfg.fp32Interval = 5;
        cfg.fp32Latency = 20;
        cfg.tensorUnits = 1;
        cfg.tensorInterval = 6;
        cfg.tensorLatency = 20;
        SmHarness h(cfg, 100);
        TraceBuilder tb(32);
        tb.alu(op, 4).alu(op, 5).exit();
        h.sm->launchCta(oneWarpKernel(tb.take()), 1, 0, h.now);
        EXPECT_EQ(issueTimeline(h), expected) << opcodeName(op);
    }
}

TEST(SmIssueWake, BusySharedMemoryPortWakesWhenItFrees)
{
    // A 32-way bank conflict holds the port for 32 cycles (1..32); the
    // second LDS goes at 33. Its result is due at 1 + 24 + 31 = 56, so
    // only the port timer can wake the warp in time.
    SmHarness h;
    TraceBuilder tb(32);
    tb.memStrided(Opcode::LDS, 4, 0, 32 * 4, 4, DataClass::Compute);
    tb.memStrided(Opcode::LDS, 5, 0, 4, 4, DataClass::Compute);
    tb.exit();
    h.sm->launchCta(oneWarpKernel(tb.take()), 1, 0, h.now);
    EXPECT_EQ(issueTimeline(h), (Timeline{{1, 1}, {33, 1}, {34, 1}}));
}

TEST(SmIssueWake, FullLdstQueueWakesWhenTheEntryRetires)
{
    // A one-entry LDST queue holding a 32-line store: the LDST unit
    // drains 4 lines a cycle over cycles 2..9 and retires the entry at
    // 9, before that cycle's walk, so the second store issues at 9.
    SmConfig cfg;
    cfg.ldstQueueDepth = 1;
    SmHarness h(cfg, 100);
    TraceBuilder tb(32);
    tb.memStrided(Opcode::STG, 0, 0x20000, kLineBytes, 4,
                  DataClass::Compute);
    tb.memStrided(Opcode::STG, 0, 0x40000, kLineBytes, 4,
                  DataClass::Compute);
    tb.exit();
    h.sm->launchCta(oneWarpKernel(tb.take()), 1, 0, h.now);
    EXPECT_EQ(issueTimeline(h), (Timeline{{1, 1}, {9, 1}, {10, 1}}));
}

TEST(SmIssueWake, ScoreboardStallWakesOnTheFillWriteback)
{
    // The load's line goes to the fabric at 2 and fills at 102; the
    // writeback commits at the start of 103, when the dependent FFMA
    // issues.
    SmHarness h(/*mem_delay=*/100);
    TraceBuilder tb(32);
    tb.memUniform(Opcode::LDG, 4, 0x1000, 4, DataClass::Compute);
    tb.alu(Opcode::FFMA, 5, 4, 4);
    tb.exit();
    h.sm->launchCta(oneWarpKernel(tb.take()), 1, 0, h.now);
    EXPECT_EQ(issueTimeline(h), (Timeline{{1, 1}, {103, 1}, {104, 1}}));
}

TEST(SmIssueWake, BarrierReleaseWakesTheWaitingWarp)
{
    // Warp 0 (scheduler 0) waits at the barrier from cycle 1. Warp 1
    // (scheduler 1) loads (fill at 102), uses it at 103 and arrives at
    // 104, after scheduler 0's turn that cycle: warp 0 goes at 105,
    // alongside warp 1's EXIT, and exits at 106.
    std::vector<WarpTrace> warps(2);
    {
        TraceBuilder tb(32);
        tb.bar().alu(Opcode::FFMA, 5, 1, 2).exit();
        warps[0] = tb.take();
    }
    {
        TraceBuilder tb(32);
        tb.memUniform(Opcode::LDG, 4, 0x9000, 4, DataClass::Compute);
        tb.alu(Opcode::FFMA, 5, 4, 4).bar().exit();
        warps[1] = tb.take();
    }
    SmHarness h(/*mem_delay=*/100);
    h.sm->launchCta(ctaKernel(std::move(warps)), 1, 0, h.now);
    EXPECT_EQ(issueTimeline(h),
              (Timeline{{1, 2}, {103, 1}, {104, 1}, {105, 2}, {106, 1}}));
}

TEST(SmIssueWake, PriorityChangeWakesAWarpHeldByTheLdstLimit)
{
    // With another stream prioritized, stream 0 may fill only half of
    // the 2-entry LDST queue, so its second store sleeps from cycle 2.
    // Prioritizing stream 0 after cycle 4 lifts the limit: the store
    // issues at 5, not when the first one retires at 9.
    SmConfig cfg;
    cfg.ldstQueueDepth = 2;
    SmHarness h(cfg, 100);
    h.sm->setIssuePriority(5, 0);
    TraceBuilder tb(32);
    tb.memStrided(Opcode::STG, 0, 0x20000, kLineBytes, 4,
                  DataClass::Compute);
    tb.memStrided(Opcode::STG, 0, 0x40000, kLineBytes, 4,
                  DataClass::Compute);
    tb.exit();
    h.sm->launchCta(oneWarpKernel(tb.take()), 1, 0, h.now);
    const Timeline issued = issueTimeline(h, [&](Cycle now) {
        if (now == 4) {
            h.sm->setIssuePriority(0, -1);
        }
    });
    EXPECT_EQ(issued, (Timeline{{1, 1}, {5, 1}, {6, 1}}));
}

TEST(SmIssueWake, FreezeThenUnfreezeResumesIssue)
{
    // The second FFMA sleeps on the pool until 6; the SM is frozen after
    // cycle 2 and thawed after cycle 9, so it issues at 10.
    SmConfig cfg;
    cfg.fp32Units = 1;
    cfg.fp32Interval = 5;
    cfg.fp32Latency = 20;
    SmHarness h(cfg, 100);
    TraceBuilder tb(32);
    tb.alu(Opcode::FFMA, 4).alu(Opcode::FFMA, 5).exit();
    h.sm->launchCta(oneWarpKernel(tb.take()), 1, 0, h.now);
    const Timeline issued = issueTimeline(h, [&](Cycle now) {
        if (now == 2) {
            h.sm->setIssueFrozen(true);
        } else if (now == 9) {
            h.sm->setIssueFrozen(false);
        }
    });
    EXPECT_EQ(issued, (Timeline{{1, 1}, {10, 1}, {11, 1}}));
}

// --- Memory-phase sleep: the LDST stage --------------------------------
//
// A head blocked on the L1 MSHR sleeps until an L1 fill or a new head.
// The timelines pin when lines reach the fabric; memPhaseAwake() shows
// the stage really slept in between, and the per-cycle audit checks that
// a sleeping head is still blocked.

TEST(SmMemSleep, FullMshrResumesTheCycleAfterTheFill)
{
    // One MSHR entry. Line A leaves at 2 and fills at 102 (end of that
    // cycle); line B's head sleeps from 3 and goes at 103.
    SmConfig cfg;
    cfg.l1MshrEntries = 1;
    SmHarness h(cfg, 100);
    TraceBuilder tb(32);
    tb.memUniform(Opcode::LDG, 4, 0x1000, 4, DataClass::Compute);
    tb.memUniform(Opcode::LDG, 5, 0x2000, 4, DataClass::Compute);
    tb.exit();
    h.sm->launchCta(oneWarpKernel(tb.take()), 1, 0, h.now);
    std::vector<Cycle> asleep;
    issueTimeline(h, [&](Cycle now) {
        if (h.sm->probe(now).ldstQueueDepth > 0 &&
            !h.sm->memPhaseAwake()) {
            asleep.push_back(now);
        }
    });
    EXPECT_EQ(h.fabric.readCycles(), (std::vector<Cycle>{2, 103}));
    ASSERT_FALSE(asleep.empty());
    EXPECT_EQ(asleep.front(), 3u);
    EXPECT_EQ(asleep.back(), 101u);
    EXPECT_EQ(asleep.size(), 99u);
}

TEST(SmMemSleep, FullTargetListResumesTheCycleAfterTheFill)
{
    // One target per MSHR entry: the second load of line A cannot merge
    // and sleeps until A fills at 102, then hits in the L1 at 103.
    SmConfig cfg;
    cfg.l1MshrTargets = 1;
    SmHarness h(cfg, 100);
    TraceBuilder tb(32);
    tb.memUniform(Opcode::LDG, 4, 0x1000, 4, DataClass::Compute);
    tb.memUniform(Opcode::LDG, 5, 0x1000, 4, DataClass::Compute);
    tb.exit();
    h.sm->launchCta(oneWarpKernel(tb.take()), 1, 0, h.now);
    uint64_t hits_at_102 = 0;
    issueTimeline(h, [&](Cycle now) {
        if (now == 50) {
            EXPECT_FALSE(h.sm->memPhaseAwake());
        }
        if (now == 102) {
            hits_at_102 = h.stats.stream(0).l1Hits;
            EXPECT_TRUE(h.sm->memPhaseAwake());
        }
    });
    EXPECT_EQ(h.fabric.readCycles(), (std::vector<Cycle>{2}));
    EXPECT_EQ(hits_at_102, 0u);
    EXPECT_EQ(h.stats.stream(0).l1Hits, 1u);
}

TEST(SmMemSleep, PriorityEntryAheadOfASleepingHeadGoesAtOnce)
{
    // Stream 0's second load sleeps on the full MSHR from cycle 3. A
    // prioritized stream-1 load of the pending line, issued after two
    // dependent FFMAs, lands ahead of it and merges the next cycle —
    // long before the fill at 102 would have woken the old head.
    SmConfig cfg;
    cfg.l1MshrEntries = 1;
    SmHarness h(cfg, 100);
    h.sm->setIssuePriority(1, -1);
    TraceBuilder low(32);
    low.memUniform(Opcode::LDG, 4, 0x1000, 4, DataClass::Compute);
    low.memUniform(Opcode::LDG, 5, 0x2000, 4, DataClass::Compute);
    low.exit();
    h.sm->launchCta(oneWarpKernel(low.take()), 1, 0, h.now);
    TraceBuilder high(32);
    high.alu(Opcode::FFMA, 4, 1, 2).alu(Opcode::FFMA, 5, 4, 4);
    high.memUniform(Opcode::LDG, 6, 0x1000, 4, DataClass::Compute);
    high.exit();
    KernelInfo k = oneWarpKernel(high.take());
    k.stream = 1;
    h.sm->launchCta(k, 2, 0, h.now);

    Cycle load_issued = 0;
    Cycle merged = 0;
    uint64_t issued = 0;
    issueTimeline(h, [&](Cycle now) {
        const StreamStats &st = h.stats.stream(1);
        if (st.instructions == 3 && issued == 2) {
            load_issued = now;
            EXPECT_TRUE(h.sm->memPhaseAwake());
        }
        issued = st.instructions;
        if (merged == 0 && st.l1MshrMerges == 1) {
            merged = now;
        }
    });
    ASSERT_GT(load_issued, 3u);
    EXPECT_EQ(merged, load_issued + 1);
    EXPECT_EQ(h.fabric.readCycles(), (std::vector<Cycle>{2, 103}));
}

} // namespace
} // namespace crisp
