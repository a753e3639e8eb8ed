/**
 * @file
 * crisp::mgpu tests: remote round-trip accounting against the hand
 * model, page-migration conservation, the shared run loop on a machine
 * (fast-forward vs ticked, sliced vs whole, thread counts, cancellation,
 * the watchdog's hang report), a 1-device machine against a bare Gpu,
 * and the multi-GPU scenario schema
 * (num_gpus, placement, per-stream/per-buffer device fields, Poisson
 * arrivals).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "integrity/fault_injector.hpp"
#include "common/table.hpp"
#include "mgpu/multi_gpu.hpp"
#include "partition/warped_slicer.hpp"
#include "scenario/build.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/sink.hpp"
#include "workloads/compute.hpp"

using namespace crisp;

namespace
{

/** A small streaming-read kernel over @p base. */
KernelInfo
readerKernel(Addr base, uint64_t region_bytes, uint32_t iterations = 4)
{
    ComputeKernelDesc d;
    d.name = "reader";
    d.ctas = 8;
    d.threadsPerCta = 64;
    d.regsPerThread = 32;
    d.iterations = iterations;
    MemPattern p;
    p.kind = MemPatternKind::Streaming;
    p.base = base;
    p.regionBytes = region_bytes;
    p.accessBytes = 16;
    p.count = 2;
    d.loads.push_back(p);
    return buildComputeKernel(d);
}

/** Two small devices so the micro tests stay fast. */
mgpu::MultiGpuConfig
smallDual()
{
    mgpu::MultiGpuConfig cfg = mgpu::MultiGpuConfig::dualRtx3070();
    cfg.gpu.numSms = 4;
    cfg.gpu.finalize();
    return cfg;
}

/** Run a reader on device 1 over a buffer homed on @p home_device.
 *  Audits at cadence 1 — every conservation identity must hold every
 *  cycle, remote traffic in flight included. */
mgpu::MultiGpu::RunResult
runReader(mgpu::MultiGpu &machine, uint32_t home_device,
          uint64_t bytes = 1 << 20)
{
    AddressSpace heap = machine.heapFor(home_device);
    const Addr base = heap.alloc(bytes);
    Gpu &dev1 = machine.device(1);
    const StreamId s = dev1.createStream("compute");
    dev1.enqueueKernel(s, readerKernel(base, bytes));
    return machine.run(4'000'000, 1);
}

} // namespace

TEST(MgpuFabric, StaticWindowOwnership)
{
    mgpu::MultiGpu machine(smallDual());
    const mgpu::InterGpuFabric &fabric = machine.fabric();
    EXPECT_EQ(fabric.ownerOf(0), 0u);
    EXPECT_EQ(fabric.ownerOf(machine.windowBase(1)), 1u);
    EXPECT_EQ(fabric.ownerOf(machine.windowBase(1) - 128), 0u);
    // The last device owns everything above its window base.
    EXPECT_EQ(fabric.ownerOf(~0ull), 1u);
}

TEST(MgpuFabric, RemoteRoundTripAccounting)
{
    // Same kernel, local vs remote buffer: the remote run pays at least
    // one extra link traversal on the makespan, and its traffic matches
    // the wire model exactly.
    mgpu::MultiGpu local_machine(smallDual());
    const auto local = runReader(local_machine, 1);
    ASSERT_TRUE(local.completed);
    EXPECT_TRUE(local.violations.empty());
    EXPECT_EQ(local_machine.fabric().requestsAccepted(), 0u);

    mgpu::MultiGpu remote_machine(smallDual());
    const auto remote = runReader(remote_machine, 0);
    ASSERT_TRUE(remote.completed);
    EXPECT_TRUE(remote.violations.empty());

    const mgpu::InterGpuFabric &fabric = remote_machine.fabric();
    const uint64_t reqs = fabric.requestsAccepted();
    ASSERT_GT(reqs, 0u);
    EXPECT_GT(remote.cycles,
              local.cycles + fabric.config().linkLatency);

    // Drained: nothing in flight, every request delivered and answered.
    EXPECT_EQ(fabric.requestsInFlight(), 0u);
    EXPECT_EQ(fabric.responsesInFlight(), 0u);
    EXPECT_EQ(fabric.requestsDelivered(), reqs);
    EXPECT_EQ(fabric.responsesAccepted(), reqs);
    EXPECT_EQ(fabric.responsesDelivered(), reqs);

    // Wire model: a read request is one header, its response a header
    // plus the line payload.
    const mgpu::FabricConfig &fc = fabric.config();
    EXPECT_EQ(fabric.bytesTransferred(),
              reqs * fc.headerBytes + reqs * (fc.headerBytes + 128));

    // Per-stream counters pair with the fabric totals on both sides:
    // device 1's stream counted every remote access and response, and
    // device 0's L2 saw exactly the delivered requests for that stream.
    Gpu &dev1 = remote_machine.device(1);
    const StreamId s = remote_machine.config().streamIdStride;
    EXPECT_EQ(dev1.stats().stream(s).remoteAccesses, reqs);
    EXPECT_EQ(dev1.stats().stream(s).remoteResponses, reqs);
    EXPECT_EQ(remote_machine.device(0).stats().stream(s).l2Accesses, reqs);
}

TEST(MgpuFabric, PageMigrationConservation)
{
    mgpu::MultiGpuConfig cfg = smallDual();
    cfg.fabric.migrateAfter = 2;
    mgpu::MultiGpu machine(cfg);

    AddressSpace heap = machine.heapFor(0);
    const uint64_t bytes = 8192;  // Two 4 KiB pages in device 0's window.
    const Addr base = heap.alloc(bytes);
    Gpu &dev1 = machine.device(1);
    const StreamId s = dev1.createStream("compute");
    dev1.enqueueKernel(s, readerKernel(base, bytes, 16));
    const auto r = machine.run(4'000'000, 1);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.violations.empty());

    const mgpu::InterGpuFabric &fabric = machine.fabric();
    ASSERT_GT(fabric.pageMigrations(), 0u);
    EXPECT_LE(fabric.pageMigrations(), 2u);
    EXPECT_EQ(fabric.migratedBytes(),
              fabric.pageMigrations() * cfg.fabric.pageBytes);
    // The hot page now belongs to the toucher; the per-stream counter
    // attributes the migrations it triggered.
    EXPECT_EQ(fabric.ownerOf(base), 1u);
    EXPECT_EQ(dev1.stats().stream(s).pageMigrations,
              fabric.pageMigrations());
}

TEST(MgpuFabric, BoundedQueueRefusesThenDrains)
{
    // A one-entry request queue with a slow wire forces refusals; the
    // SMs park and retry, and the run still drains with every identity
    // intact (the cadence-1 audit would catch a lost request).
    mgpu::MultiGpuConfig cfg = smallDual();
    cfg.fabric.requestQueueCapacity = 1;
    cfg.fabric.linkBytesPerCycle = 8.0;
    mgpu::MultiGpu machine(cfg);
    const auto r = runReader(machine, 0);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.violations.empty());
    EXPECT_GT(machine.fabric().requestsAccepted(), 0u);
    EXPECT_EQ(machine.fabric().requestsInFlight(), 0u);
}

namespace
{

/** Counter-audit cadence of the scenario runs (the golden benches'). */
constexpr Cycle kAudit = 4096;

/**
 * What a run leaves behind: its cycle count, every stream's merged
 * StreamStats and the fabric's counters. Two runs that claim identical
 * output must agree on all of it.
 */
struct RunPrint
{
    Cycle cycles = 0;
    std::vector<uint64_t> counters;
    /** Cycles each device fast-forwarded (not part of the output). */
    std::vector<uint64_t> ffCycles;

    bool
    operator==(const RunPrint &o) const
    {
        return cycles == o.cycles && counters == o.counters;
    }
};

RunPrint
printOf(const mgpu::MultiGpu &machine, Cycle cycles)
{
    RunPrint print;
    print.cycles = cycles;
    const StatsRegistry merged = machine.mergedStats();
    for (const auto &[id, st] : merged.allStreams()) {
        print.counters.insert(
            print.counters.end(),
            {id, st.cycles, st.instructions, st.warpsLaunched,
             st.ctasLaunched, st.kernelsCompleted, st.l1Accesses, st.l1Hits,
             st.l1MshrMerges, st.l1TexAccesses, st.l2Accesses, st.l2Hits,
             st.l2MshrMerges, st.dramReads, st.dramWrites, st.smemAccesses,
             st.smemBankConflicts, st.remoteAccesses, st.remoteResponses,
             st.pageMigrations, st.firstCycle, st.lastCycle});
    }
    const mgpu::InterGpuFabric &f = machine.fabric();
    print.counters.insert(
        print.counters.end(),
        {f.requestsAccepted(), f.requestsDelivered(), f.responsesAccepted(),
         f.responsesDelivered(), f.bytesTransferred(), f.pageMigrations(),
         f.migratedBytes()});
    return print;
}

const scenario::Scenario &
mgpuScenario()
{
    static const scenario::Scenario scn = [] {
        scenario::Scenario s;
        scenario::ScenarioError err;
        const bool ok = scenario::loadScenarioFile(
            std::string(CRISP_SCENARIO_DIR) + "/game_inference_mgpu.json",
            s, err);
        EXPECT_TRUE(ok) << err.str();
        return s;
    }();
    return scn;
}

/** How to run the two-GPU scenario. */
struct RunSpec
{
    uint32_t threads = 1;
    bool fastForward = false;
    uint32_t migrateAfter = 0;
    /** Non-zero: run to multiples of this, one run() call each. */
    Cycle slice = 0;
};

RunPrint
runScenario(const RunSpec &spec)
{
    const scenario::Scenario &scn = mgpuScenario();
    mgpu::MultiGpuConfig cfg;
    cfg.numGpus = scn.gpu.numGpus;
    cfg.gpu = scenario::gpuConfigFor(scn);
    cfg.fabric.migrateAfter = spec.migrateAfter;
    mgpu::MultiGpu machine(cfg);
    engine::EngineConfig ec;
    ec.threads = spec.threads;
    ec.fastForward = spec.fastForward;
    machine.setEngine(ec);
    scenario::Materialized mat;
    scenario::submitScenarioMulti(scn, machine, mat);

    mgpu::MultiGpu::RunResult r;
    if (spec.slice == 0) {
        r = machine.run(50'000'000, kAudit);
    } else {
        for (Cycle limit = spec.slice;; limit += spec.slice) {
            r = machine.run(limit, kAudit);
            EXPECT_EQ(r.cycles, r.completed ? r.cycles : limit);
            if (r.completed || !r.violations.empty() ||
                limit >= 50'000'000) {
                break;
            }
        }
    }
    EXPECT_TRUE(r.completed);
    for (const auto &v : r.violations) {
        ADD_FAILURE() << v.check << ": " << v.detail;
    }
    RunPrint print = printOf(machine, r.cycles);
    for (uint32_t d = 0; d < machine.numGpus(); ++d) {
        print.ffCycles.push_back(machine.device(d).fastForwardCycles());
    }
    return print;
}

/** The ticked, one-thread run every fast-forwarded variant must match. */
const RunPrint &
tickedReference()
{
    static const RunPrint ref = runScenario({});
    return ref;
}

void
expectBothDevicesJumped(const RunPrint &print)
{
    ASSERT_EQ(print.ffCycles.size(), 2u);
    EXPECT_GT(print.ffCycles[0], 0u);
    EXPECT_GT(print.ffCycles[1], 0u);
}

} // namespace

TEST(MgpuFastForward, MatchesTickedRunOnTwoGpuScenario)
{
    const RunPrint &ticked = tickedReference();
    const RunPrint jumped = runScenario({.fastForward = true});
    expectBothDevicesJumped(jumped);
    EXPECT_EQ(jumped, ticked);
}

TEST(MgpuFastForward, MatchesTickedRunWithPageMigration)
{
    const RunPrint ticked = runScenario({.migrateAfter = 4});
    const RunPrint jumped =
        runScenario({.fastForward = true, .migrateAfter = 4});
    expectBothDevicesJumped(jumped);
    EXPECT_EQ(jumped, ticked);
    EXPECT_NE(ticked, tickedReference()) << "migration changed nothing";
}

TEST(MgpuFastForward, SlicedRunMatchesWholeRun)
{
    const RunPrint whole = runScenario({.fastForward = true});
    const RunPrint sliced =
        runScenario({.fastForward = true, .slice = 65536});
    expectBothDevicesJumped(sliced);
    EXPECT_EQ(sliced, whole);
}

TEST(MgpuDeterminism, ThreadCountsAgreeOnTwoGpuScenario)
{
    ASSERT_EQ(mgpuScenario().gpu.numGpus, 2u);
    ASSERT_TRUE(mgpuScenario().compute.schedule.poisson);
    const RunPrint &ticked = tickedReference();
    for (uint32_t threads : {1u, 2u, 4u}) {
        const RunPrint jumped =
            runScenario({.threads = threads, .fastForward = true});
        expectBothDevicesJumped(jumped);
        EXPECT_EQ(jumped, ticked) << threads << " threads";
    }
}

TEST(MgpuRun, PresetCancelStopsAtACleanBoundary)
{
    mgpu::MultiGpu machine(smallDual());
    AddressSpace heap = machine.heapFor(0);
    const uint64_t bytes = 1 << 20;
    const Addr base = heap.alloc(bytes);
    Gpu &dev1 = machine.device(1);
    dev1.enqueueKernel(dev1.createStream("compute"),
                       readerKernel(base, bytes));

    // Part-way, with remote traffic in flight.
    const auto first = machine.run(3000, 1);
    ASSERT_FALSE(first.completed);
    ASSERT_TRUE(first.violations.empty());
    ASSERT_GT(machine.fabric().requestsInFlight() +
                  machine.fabric().responsesInFlight(),
              0u);

    const std::atomic<bool> cancel{true};
    integrity::RunOptions opts;
    opts.auditInterval = 1;
    opts.checkInterval = 1;
    opts.cancel = &cancel;
    const auto stopped = machine.run(4'000'000, opts);
    EXPECT_TRUE(stopped.cancelled);
    EXPECT_FALSE(stopped.completed);
    EXPECT_FALSE(stopped.hang.has_value());
    EXPECT_EQ(stopped.cycles, first.cycles);
    EXPECT_EQ(machine.now(), first.cycles);
    EXPECT_TRUE(stopped.violations.empty());   // the end-of-run audit

    // Nothing was lost: the run resumes and drains.
    const auto rest = machine.run(4'000'000, 1);
    EXPECT_TRUE(rest.completed);
    EXPECT_TRUE(rest.violations.empty());
}

TEST(MgpuRun, FrozenSmOnSecondDeviceEndsInAHangReport)
{
    for (const bool frozen : {false, true}) {
        SCOPED_TRACE(frozen ? "frozen" : "control");
        // The fault injector disarms the (default) fast-forward.
        mgpu::MultiGpu machine(smallDual());
        integrity::FaultConfig fc;
        if (frozen) {
            fc.freezeSm = 1;
            fc.freezeAtCycle = 500;
        }
        integrity::FaultInjector inj(fc);
        machine.device(1).setFaultInjector(&inj);

        // Device 1 reads weights homed on device 0, so the watchdog's
        // conservation and leak checks see remote misses in flight.
        AddressSpace heap = machine.heapFor(0);
        const uint64_t bytes = 1 << 20;
        const Addr base = heap.alloc(bytes);
        Gpu &dev1 = machine.device(1);
        dev1.enqueueKernel(dev1.createStream("compute"),
                           readerKernel(base, bytes));

        integrity::RunOptions opts;
        opts.checkInterval = 64;
        opts.hangThreshold = 4000;
        opts.auditInterval = 64;
        const auto r = machine.run(10'000'000, opts);
        EXPECT_EQ(machine.device(0).fastForwardCycles(), 0u);
        EXPECT_EQ(machine.device(1).fastForwardCycles(), 0u);
        if (!frozen) {
            EXPECT_TRUE(r.completed);
            EXPECT_FALSE(r.hang.has_value())
                << (r.hang ? r.hang->render() : "");
            EXPECT_GT(machine.fabric().requestsAccepted(), 0u);
            continue;
        }
        ASSERT_FALSE(r.completed);
        ASSERT_TRUE(r.hang.has_value());
        EXPECT_LT(r.cycles, 100'000u);
        EXPECT_NE(r.hang->reason.find("device 1: no forward progress"),
                  std::string::npos)
            << r.hang->reason;
        EXPECT_TRUE(r.violations.empty());
        ASSERT_EQ(r.hang->sms.size(), 4u);
        EXPECT_TRUE(r.hang->sms[1].issueFrozen);
        EXPECT_EQ(r.hang->sms[1].dominantStall, "frozen");
    }
}

TEST(MgpuSchedule, PoissonBasesAreSeededAndMonotonic)
{
    scenario::ScheduleNode s;
    s.bursts = 16;
    s.poisson = true;
    s.rateHz = 1000.0;
    s.seed = 42;
    const std::vector<Cycle> a = scenario::burstBases(s, 1000.0);
    const std::vector<Cycle> b = scenario::burstBases(s, 1000.0);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), 16u);
    for (size_t i = 1; i < a.size(); ++i) {
        EXPECT_GE(a[i], a[i - 1]);
    }
    // The mean gap should be around core_clock/rate = 1e6 cycles; with
    // 16 samples allow a generous band.
    EXPECT_GT(a.back(), 2'000'000u);
    EXPECT_LT(a.back(), 100'000'000u);

    s.seed = 43;
    EXPECT_NE(scenario::burstBases(s, 1000.0), a);

    s.poisson = false;
    s.period = 500;
    const std::vector<Cycle> periodic = scenario::burstBases(s, 1000.0);
    for (size_t i = 0; i < periodic.size(); ++i) {
        EXPECT_EQ(periodic[i], i * 500);
    }
}

namespace
{

std::string
scenarioText(const std::string &gpu, const std::string &compute_extra,
             const std::string &schedule)
{
    return R"({
        "crisp_scenario": 1,
        "name": "t",
        "gpu": {)" + gpu + R"(},
        "compute": {
            "buffers": [{ "name": "b", "bytes": 65536)" + compute_extra +
           R"( }],
            "kernels": [{ "name": "k",
                          "loads": [{ "buffer": "b" }] }])" + schedule +
           R"(
        }
    })";
}

} // namespace

TEST(MgpuScenario, LoaderCoordinatesTable)
{
    struct Case
    {
        const char *label;
        std::string text;
        const char *needle;
    };
    const Case cases[] = {
        {"num_gpus zero", scenarioText(R"("num_gpus": 0)", "", ""),
         "num_gpus must be in [1, 8]"},
        {"num_gpus nine", scenarioText(R"("num_gpus": 9)", "", ""),
         "num_gpus must be in [1, 8]"},
        {"placement single-gpu",
         scenarioText(R"("placement": "split")", "", ""),
         "\"placement\" needs num_gpus > 1"},
        {"placement unknown",
         scenarioText(R"("num_gpus": 2, "placement": "sideways")", "", ""),
         "placement must be one of split|colocated|mig"},
        {"buffer device single-gpu",
         scenarioText("", R"(, "device": 0)", ""),
         "\"device\" needs gpu.num_gpus > 1"},
        {"buffer device out of range",
         scenarioText(R"("num_gpus": 2)", R"(, "device": 2)", ""),
         "device must be in [0, 1]"},
        {"arrivals with period",
         scenarioText(R"("num_gpus": 2)", "",
                      R"(,
            "schedule": { "bursts": 2, "period": 1000,
                          "arrivals": { "kind": "poisson",
                                        "rate_hz": 100 } })"),
         "\"arrivals\" and \"period\" are mutually exclusive"},
        {"arrivals missing rate",
         scenarioText("", "",
                      R"(,
            "schedule": { "bursts": 2,
                          "arrivals": { "kind": "poisson" } })"),
         "\"arrivals\" needs a \"rate_hz\""},
        {"arrivals unknown kind",
         scenarioText("", "",
                      R"(,
            "schedule": { "bursts": 2,
                          "arrivals": { "kind": "uniform",
                                        "rate_hz": 100 } })"),
         "kind must be one of poisson"},
    };
    for (const Case &c : cases) {
        scenario::Scenario scn;
        scenario::ScenarioError err;
        ASSERT_FALSE(scenario::loadScenarioText(c.text, "t.json", scn, err))
            << c.label;
        EXPECT_NE(err.message.find(c.needle), std::string::npos)
            << c.label << ": got \"" << err.message << "\"";
        EXPECT_GT(err.line, 0u) << c.label;
        EXPECT_GT(err.col, 0u) << c.label;
    }
}

TEST(MgpuScenario, PlacementResolvesDevices)
{
    const auto parse = [](const std::string &gpu,
                          const std::string &extra) {
        scenario::Scenario scn;
        scenario::ScenarioError err;
        const std::string text = scenarioText(gpu, extra, "");
        EXPECT_TRUE(scenario::loadScenarioText(text, "t.json", scn, err))
            << err.str();
        return scn;
    };

    const scenario::Scenario split =
        parse(R"("num_gpus": 2, "placement": "split")", "");
    EXPECT_EQ(split.gpu.placement, scenario::Placement::Split);
    mgpu::MultiGpuConfig cfg = smallDual();
    {
        mgpu::MultiGpu machine(cfg);
        scenario::Materialized mat;
        const auto sr = scenario::submitScenarioMulti(split, machine, mat);
        // Compute-only split scenario: the compute stream owns device 1.
        EXPECT_EQ(sr.cmpDevice, 1u);
        EXPECT_EQ(sr.gfx, kInvalidStream);
    }
    const scenario::Scenario colo =
        parse(R"("num_gpus": 2, "placement": "colocated")", "");
    EXPECT_EQ(colo.gpu.placement, scenario::Placement::Colocated);
    {
        mgpu::MultiGpu machine(cfg);
        scenario::Materialized mat;
        const auto sr = scenario::submitScenarioMulti(colo, machine, mat);
        EXPECT_EQ(sr.cmpDevice, 0u);
    }
    // A per-buffer device homes the allocation in that window even when
    // the stream runs elsewhere.
    const scenario::Scenario homed =
        parse(R"("num_gpus": 2)", R"(, "device": 0)");
    {
        mgpu::MultiGpu machine(cfg);
        scenario::Materialized mat;
        const auto sr = scenario::submitScenarioMulti(homed, machine, mat);
        EXPECT_EQ(sr.cmpDevice, 1u);
        const auto r = machine.run(4'000'000, 1);
        EXPECT_TRUE(r.completed);
        EXPECT_TRUE(r.violations.empty());
        EXPECT_GT(machine.fabric().requestsAccepted(), 0u);
    }
}

namespace
{

/** What a 1-device machine must reproduce of a bare Gpu's run. */
struct SoloRun
{
    Cycle cycles = 0;
    std::map<StreamId, StreamStats> streams;
    std::string timeline;
};

/**
 * Run scenarios/@p file on a bare Gpu or on a 1-device MultiGpu, under
 * fine-grained Warped-Slicer partitioning when @p fg_slicer, with the
 * counter audit every cycle and counters sampled every 1000 cycles.
 */
SoloRun
runSolo(const char *file, bool fg_slicer, bool on_machine)
{
    scenario::Scenario sc;
    scenario::ScenarioError err;
    EXPECT_TRUE(scenario::loadScenarioFile(
        std::string(CRISP_SCENARIO_DIR) + "/" + file, sc, err))
        << err.str();
    mgpu::MultiGpuConfig cfg;
    cfg.numGpus = 1;
    cfg.gpu = scenario::gpuConfigFor(sc);
    std::unique_ptr<mgpu::MultiGpu> machine;
    std::unique_ptr<Gpu> bare;
    Gpu *gpu = nullptr;
    if (on_machine) {
        machine = std::make_unique<mgpu::MultiGpu>(cfg);
        gpu = &machine->device(0);
    } else {
        bare = std::make_unique<Gpu>(cfg.gpu);
        gpu = bare.get();
    }
    telemetry::TelemetryConfig tc;
    tc.sampleInterval = 1000;
    telemetry::TelemetrySink sink(tc);
    gpu->setTelemetry(&sink);

    scenario::Materialized mat;
    AddressSpace heap;
    const scenario::SubmitResult sr = on_machine
        ? scenario::submitScenarioMulti(sc, *machine, mat)
        : scenario::submitScenario(sc, *gpu, heap, mat);
    std::unique_ptr<WarpedSlicer> slicer;
    if (fg_slicer) {
        PartitionConfig part;
        part.policy = PartitionPolicy::FineGrained;
        part.share[sr.gfx] = 0.5;
        part.priorityStream = sr.gfx;
        gpu->setPartition(part);
        WarpedSlicerConfig wc;
        wc.streamA = sr.gfx;
        wc.streamB = sr.cmp;
        slicer = std::make_unique<WarpedSlicer>(wc);
        gpu->addController(slicer.get());
    }

    integrity::RunOptions opts;
    opts.auditInterval = 1;
    Gpu::RunResult r;
    if (on_machine) {
        const mgpu::MultiGpu::RunResult mr = machine->run(50'000'000, opts);
        for (const auto &v : mr.violations) {
            ADD_FAILURE() << v.check << ": " << v.detail;
        }
        r = mr;
    } else {
        r = gpu->run(50'000'000, opts);
    }
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(r.hang.has_value());
    return {r.cycles, gpu->stats().allStreams(),
            sink.series().toTable().toCsv()};
}

void
expectSameRun(const SoloRun &machine, const SoloRun &bare)
{
    EXPECT_EQ(machine.cycles, bare.cycles);
    EXPECT_EQ(machine.timeline, bare.timeline);
    ASSERT_EQ(machine.streams.size(), bare.streams.size());
    for (const auto &[id, st] : bare.streams) {
        ASSERT_EQ(machine.streams.count(id), 1u) << "stream " << id;
        for (const StreamStatsField &f : kStreamStatsFields) {
            EXPECT_EQ(machine.streams.at(id).*f.member, st.*f.member)
                << "stream " << id << " " << f.name;
        }
    }
}

} // namespace

TEST(MgpuOneDevice, EqualsABareGpuOnSponzaVioUnderFgSlicer)
{
    expectSameRun(runSolo("sponza_vio.json", true, true),
                  runSolo("sponza_vio.json", true, false));
}

TEST(MgpuOneDevice, EqualsABareGpuOnRayTraversal)
{
    expectSameRun(runSolo("ray_traversal.json", false, true),
                  runSolo("ray_traversal.json", false, false));
}

TEST(MgpuOneDevice, MachineSizeIsOneToEight)
{
    mgpu::MultiGpuConfig cfg = smallDual();
    cfg.numGpus = 1;
    mgpu::MultiGpu one(cfg);
    EXPECT_EQ(one.numGpus(), 1u);
    EXPECT_EQ(one.heapFor(0).allocatedEnd(), AddressSpace().allocatedEnd());
    EXPECT_EQ(one.device(0).createStream("s"), 0u);
    EXPECT_EXIT(one.fabric(), ::testing::ExitedWithCode(1), "no fabric");
    for (const uint32_t n : {0u, 9u}) {
        cfg.numGpus = n;
        EXPECT_EXIT(mgpu::MultiGpu{cfg}, ::testing::ExitedWithCode(1),
                    "1..8 devices");
    }
}
