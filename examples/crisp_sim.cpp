/**
 * @file
 * crisp_sim: the command-line simulator driver.
 *
 * Runs the workload a scenario file describes — any rendering scene
 * paired with any compute workload, on the machine its "gpu" section
 * names — under any partitioning method, and prints (optionally
 * CSV-dumps) per-stream statistics: the front door a user points their
 * own experiments at. The scenarios/ directory holds examples.
 *
 * Usage:
 *   crisp_sim --scenario FILE [options]
 *     --scenario FILE   the scenario JSON file to run (required)
 *     --policy NAME     exhaustive|mps|mig|fg|fg-slicer|mps-tap
 *     --share F         graphics resource share under fg (default 0.5)
 *     --image FILE      dump the rendered frame as PPM
 *     --csv FILE        dump per-stream stats as CSV
 *     --kernels         print the per-kernel execution log
 *     --trace FILE      write a Chrome trace_event JSON (Perfetto-loadable)
 *     --max-cycles N    stop the simulation after N cycles; a capped
 *                       run that did not drain is reported, not fatal
 *     --sample N        sample counters every N cycles (see --timeline)
 *     --timeline FILE   dump the sampled counter time-series as CSV
 *     --profile         print the simulator's wall-clock self-profile
 *     --threads N       worker threads stepping SM shards    (default 1)
 *     --fast-forward    jump over machine-wide idle cycles
 *     --quiet           suppress the banner
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "common/logging.hpp"
#include "common/table.hpp"
#include "gpu/gpu.hpp"
#include "mgpu/multi_gpu.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/sink.hpp"
#include "graphics/pipeline.hpp"
#include "partition/tap.hpp"
#include "partition/warped_slicer.hpp"
#include "scenario/build.hpp"
#include "scenario/scenario.hpp"

using namespace crisp;

namespace
{

struct Options
{
    std::string scenario;
    std::string policy = "exhaustive";
    double share = 0.5;
    std::string image;
    std::string csv;
    bool kernels = false;
    std::string trace;
    Cycle maxCycles = 8'000'000'000ull;
    bool maxCyclesSet = false;
    Cycle sample = 0;
    std::string timeline;
    bool profile = false;
    uint32_t threads = 1;
    bool fastForward = false;
    bool quiet = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    auto need = [&](int &i) -> const char * {
        fatal_if(i + 1 >= argc, "missing value for %s", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--scenario") {
            opt.scenario = need(i);
        } else if (a == "--policy") {
            opt.policy = need(i);
        } else if (a == "--share") {
            opt.share = std::atof(need(i));
        } else if (a == "--image") {
            opt.image = need(i);
        } else if (a == "--csv") {
            opt.csv = need(i);
        } else if (a == "--kernels") {
            opt.kernels = true;
        } else if (a == "--trace") {
            opt.trace = need(i);
        } else if (a == "--max-cycles") {
            opt.maxCycles = static_cast<Cycle>(std::atoll(need(i)));
            opt.maxCyclesSet = true;
        } else if (a == "--sample") {
            opt.sample = static_cast<Cycle>(std::atoll(need(i)));
        } else if (a == "--timeline") {
            opt.timeline = need(i);
        } else if (a == "--profile") {
            opt.profile = true;
        } else if (a == "--threads") {
            opt.threads = static_cast<uint32_t>(std::atoi(need(i)));
        } else if (a == "--fast-forward") {
            opt.fastForward = true;
        } else if (a == "--quiet") {
            opt.quiet = true;
        } else if (a == "--help" || a == "-h") {
            std::printf("see the header of examples/crisp_sim.cpp\n");
            std::exit(0);
        } else {
            fatal("unknown option %s", a.c_str());
        }
    }
    fatal_if(opt.scenario.empty(),
             "nothing to simulate: pass --scenario FILE (see scenarios/)");
    return opt;
}

/**
 * Multi-GPU scenarios (gpu.num_gpus > 1) run here: one Gpu per device
 * plus the inter-GPU fabric, with the scenario's placement deciding the
 * per-device partitioning — the --policy/--share flags do not apply.
 */
int
runMultiGpu(const Options &opt, const scenario::Scenario &scn)
{
    mgpu::MultiGpuConfig mcfg;
    mcfg.numGpus = scn.gpu.numGpus;
    mcfg.gpu = scenario::gpuConfigFor(scn);
    mgpu::MultiGpu machine(mcfg);
    {
        engine::EngineConfig ec;
        ec.threads = opt.threads;
        ec.fastForward = opt.fastForward;
        machine.setEngine(ec);
    }

    // One telemetry sink per device; the Chrome trace merges them into
    // labelled "gpu<d>" process groups, the timeline CSV gets one file
    // per device (path.gpu<d>).
    std::vector<std::unique_ptr<telemetry::TelemetrySink>> sinks;
    const bool wants_telemetry = !opt.trace.empty() || opt.sample != 0 ||
        !opt.timeline.empty() || opt.profile;
    if (wants_telemetry) {
        for (uint32_t d = 0; d < mcfg.numGpus; ++d) {
            telemetry::TelemetryConfig tc;
            tc.eventCapacity = 1 << 20;
            tc.sampleInterval = opt.sample;
            if (!opt.timeline.empty() && tc.sampleInterval == 0) {
                tc.sampleInterval = 1000;
            }
            tc.selfProfile = opt.profile && d == 0;
            sinks.push_back(
                std::make_unique<telemetry::TelemetrySink>(tc));
            machine.device(d).setTelemetry(sinks.back().get());
        }
    }

    scenario::Materialized mat;
    const scenario::MultiSubmitResult sr =
        scenario::submitScenarioMulti(scn, machine, mat);
    if (!sinks.empty() && opt.profile && mat.pipeline) {
        mat.pipeline->setProfiler(&sinks[0]->profiler());
    }

    if (!opt.quiet) {
        const char *placement =
            scn.gpu.placement == scenario::Placement::Split ? "split"
            : scn.gpu.placement == scenario::Placement::Colocated
                ? "colocated"
                : "mig";
        std::printf("crisp_sim: scenario=%s (\"%s\") gpus=%ux%s "
                    "placement=%s\n",
                    opt.scenario.c_str(), scn.name.c_str(), mcfg.numGpus,
                    mcfg.gpu.name.c_str(), placement);
    }

    const mgpu::MultiGpu::RunResult r = machine.run(opt.maxCycles);
    for (const auto &v : r.violations) {
        std::fprintf(stderr, "audit violation [%s] %s\n", v.check.c_str(),
                     v.detail.c_str());
    }
    fatal_if(!r.violations.empty(), "multi-GPU audit failed");
    if (!r.completed && opt.maxCyclesSet) {
        std::printf("stopped at --max-cycles %llu before draining\n",
                    static_cast<unsigned long long>(opt.maxCycles));
    } else {
        fatal_if(!r.completed, "simulation did not drain");
    }

    if (!sinks.empty() && !opt.trace.empty()) {
        std::vector<const telemetry::TelemetrySink *> views;
        for (const auto &s : sinks) {
            views.push_back(s.get());
        }
        telemetry::writeChromeTrace(views, opt.trace);
        std::printf("wrote %s (%u devices)\n", opt.trace.c_str(),
                    mcfg.numGpus);
    }
    if (!sinks.empty() && !opt.timeline.empty()) {
        for (uint32_t d = 0; d < mcfg.numGpus; ++d) {
            const std::string path =
                opt.timeline + ".gpu" + std::to_string(d);
            sinks[d]->series().toTable().writeCsv(path);
            std::printf("wrote %s (%zu samples)\n", path.c_str(),
                        sinks[d]->series().rows());
        }
    }
    if (!opt.image.empty() && mat.pipeline) {
        mat.pipeline->framebuffer().writePpm(opt.image);
    }

    const mgpu::InterGpuFabric &fabric = machine.fabric();
    std::printf("total: %llu cycles = %.4f ms on %u x %s (fabric: %llu "
                "remote reqs, %llu migrations, %llu bytes)\n\n",
                static_cast<unsigned long long>(r.cycles),
                mcfg.gpu.cyclesToMs(r.cycles), mcfg.numGpus,
                mcfg.gpu.name.c_str(),
                static_cast<unsigned long long>(fabric.requestsAccepted()),
                static_cast<unsigned long long>(fabric.pageMigrations()),
                static_cast<unsigned long long>(
                    fabric.bytesTransferred()));
    if (opt.fastForward) {
        uint64_t jumps = 0;
        uint64_t skipped = 0;
        for (uint32_t d = 0; d < mcfg.numGpus; ++d) {
            jumps += machine.device(d).fastForwardJumps();
            skipped += machine.device(d).fastForwardCycles();
        }
        std::printf("fast-forward: %llu jumps skipped %llu idle cycles\n",
                    static_cast<unsigned long long>(jumps),
                    static_cast<unsigned long long>(skipped));
    }

    Table t({"stream", "device", "cycles(first..last)", "kernels",
             "instructions", "IPC", "L2 hit%", "remote", "dram rd"});
    auto add_stream = [&](const char *name, StreamId id, uint32_t dev) {
        if (id == kInvalidStream) {
            return;
        }
        Gpu &gpu = machine.device(dev);
        const StreamStats &st = gpu.stats().stream(id);
        t.addRow({name, std::to_string(dev),
                  std::to_string(st.firstCycle) + ".." +
                      std::to_string(gpu.streamFinishCycle(id)),
                  std::to_string(st.kernelsCompleted),
                  std::to_string(st.instructions), Table::num(st.ipc(), 2),
                  Table::num(100 * st.l2HitRate(), 1),
                  std::to_string(st.remoteAccesses),
                  std::to_string(st.dramReads)});
    };
    add_stream("graphics", sr.gfx, sr.gfxDevice);
    add_stream("compute", sr.cmp, sr.cmpDevice);
    std::printf("%s", t.toText().c_str());
    if (!opt.csv.empty()) {
        t.writeCsv(opt.csv);
        std::printf("wrote %s\n", opt.csv.c_str());
    }
    if (opt.kernels) {
        std::printf("\nper-kernel execution log:\n");
        Table kt({"kernel", "device", "stream", "CTAs", "launch",
                  "complete", "cycles"});
        for (uint32_t d = 0; d < mcfg.numGpus; ++d) {
            for (const auto &rec : machine.device(d).kernelLog()) {
                kt.addRow({rec.name, std::to_string(d),
                           rec.stream == sr.gfx ? "graphics" : "compute",
                           std::to_string(rec.ctas),
                           std::to_string(rec.launchCycle),
                           std::to_string(rec.completeCycle),
                           std::to_string(rec.completeCycle -
                                          rec.launchCycle)});
            }
        }
        std::printf("%s", kt.toText().c_str());
    }
    if (!sinks.empty() && opt.profile) {
        std::printf("\nsimulator self-profile (wall clock):\n%s",
                    sinks[0]->profiler().render(r.cycles).c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const Options opt = parseArgs(argc, argv);

    scenario::Scenario scn;
    scenario::ScenarioError serr;
    if (!scenario::loadScenarioFile(opt.scenario, scn, serr)) {
        fatal("%s", serr.str().c_str());
    }
    if (scn.gpu.numGpus > 1) {
        return runMultiGpu(opt, scn);
    }

    const GpuConfig gpu_cfg = scenario::gpuConfigFor(scn);
    Gpu gpu(gpu_cfg);
    {
        engine::EngineConfig ec;
        ec.threads = opt.threads;
        ec.fastForward = opt.fastForward;
        gpu.setEngine(ec);
    }

    // Telemetry: one sink serves --trace, --sample/--timeline, --profile.
    // Attached before the scenario is submitted so the self-profiler
    // also sees the functional rasterization work.
    std::unique_ptr<telemetry::TelemetrySink> sink;
    const bool wants_telemetry = !opt.trace.empty() || opt.sample != 0 ||
        !opt.timeline.empty() || opt.profile;
    if (wants_telemetry) {
        telemetry::TelemetryConfig tc;
        tc.eventCapacity = 1 << 20;
        tc.sampleInterval = opt.sample;
        if (!opt.timeline.empty() && tc.sampleInterval == 0) {
            tc.sampleInterval = 1000;
        }
        tc.selfProfile = opt.profile;
        sink = std::make_unique<telemetry::TelemetrySink>(tc);
        gpu.setTelemetry(sink.get());
    }

    // Queue the work.
    AddressSpace heap;
    scenario::Materialized mat;
    const scenario::SubmitResult sr =
        scenario::submitScenario(scn, gpu, heap, mat);
    const StreamId gfx = sr.gfx;
    const StreamId cmp = sr.cmp;
    if (sink && opt.profile && mat.pipeline) {
        mat.pipeline->setProfiler(&sink->profiler());
    }

    // Partitioning.
    PartitionConfig part;
    std::unique_ptr<WarpedSlicer> slicer;
    std::unique_ptr<TapController> tap;
    if (opt.policy == "exhaustive") {
        part.policy = PartitionPolicy::Exhaustive;
    } else if (opt.policy == "mps" || opt.policy == "mps-tap") {
        part.policy = PartitionPolicy::Mps;
    } else if (opt.policy == "mig") {
        part.policy = PartitionPolicy::Mig;
    } else if (opt.policy == "fg" || opt.policy == "fg-slicer") {
        part.policy = PartitionPolicy::FineGrained;
        if (gfx != kInvalidStream) {
            part.share[gfx] = opt.share;
            part.priorityStream = gfx;
        }
    } else {
        fatal("unknown policy %s", opt.policy.c_str());
    }
    gpu.setPartition(part);
    if (opt.policy == "fg-slicer" && gfx != kInvalidStream &&
        cmp != kInvalidStream) {
        WarpedSlicerConfig wc;
        wc.streamA = gfx;
        wc.streamB = cmp;
        slicer = std::make_unique<WarpedSlicer>(wc);
        gpu.addController(slicer.get());
    }
    if (opt.policy == "mps-tap" && gfx != kInvalidStream &&
        cmp != kInvalidStream) {
        TapConfig tc;
        tc.gfxStream = gfx;
        tc.computeStream = cmp;
        tap = std::make_unique<TapController>(tc, gpu);
        gpu.addController(tap.get());
    }

    if (!opt.quiet) {
        std::printf("crisp_sim: scenario=%s (\"%s\") gpu=%s policy=%s\n",
                    opt.scenario.c_str(), scn.name.c_str(),
                    gpu_cfg.name.c_str(), opt.policy.c_str());
    }

    const auto r = gpu.run(opt.maxCycles);
    if (!r.completed && opt.maxCyclesSet) {
        std::printf("stopped at --max-cycles %llu before draining\n",
                    static_cast<unsigned long long>(opt.maxCycles));
    } else {
        fatal_if(!r.completed, "simulation did not drain");
    }

    if (sink && !opt.trace.empty()) {
        telemetry::writeChromeTrace(*sink, opt.trace);
        std::printf("wrote %s (%llu events, %llu dropped)\n",
                    opt.trace.c_str(),
                    static_cast<unsigned long long>(sink->emitted()),
                    static_cast<unsigned long long>(sink->dropped()));
    }
    if (sink && !opt.timeline.empty()) {
        sink->series().toTable().writeCsv(opt.timeline);
        std::printf("wrote %s (%zu samples)\n", opt.timeline.c_str(),
                    sink->series().rows());
    }

    if (!opt.image.empty() && mat.pipeline) {
        mat.pipeline->framebuffer().writePpm(opt.image);
    }

    Table t({"stream", "cycles(first..last)", "kernels", "instructions",
             "IPC", "L1 hit%", "L2 hit%", "tex acc", "dram rd"});
    auto add_stream = [&](const char *name, StreamId id) {
        if (id == kInvalidStream) {
            return;
        }
        const StreamStats &st = gpu.stats().stream(id);
        t.addRow({name,
                  std::to_string(st.firstCycle) + ".." +
                      std::to_string(gpu.streamFinishCycle(id)),
                  std::to_string(st.kernelsCompleted),
                  std::to_string(st.instructions), Table::num(st.ipc(), 2),
                  Table::num(100 * st.l1HitRate(), 1),
                  Table::num(100 * st.l2HitRate(), 1),
                  std::to_string(st.l1TexAccesses),
                  std::to_string(st.dramReads)});
    };
    add_stream("graphics", gfx);
    add_stream("compute", cmp);
    std::printf("total: %llu cycles = %.4f ms on %s (L2 hit %.1f%%, DRAM "
                "busy %.1f%%)\n\n",
                static_cast<unsigned long long>(r.cycles),
                gpu_cfg.cyclesToMs(r.cycles), gpu_cfg.name.c_str(),
                100.0 * gpu.l2().hitRate(),
                100.0 * gpu.l2().dramBusyCycles() / r.cycles);
    if (opt.fastForward) {
        std::printf("fast-forward: %llu jumps skipped %llu idle cycles\n",
                    static_cast<unsigned long long>(gpu.fastForwardJumps()),
                    static_cast<unsigned long long>(
                        gpu.fastForwardCycles()));
    }
    std::printf("%s", t.toText().c_str());
    if (!opt.csv.empty()) {
        t.writeCsv(opt.csv);
        std::printf("wrote %s\n", opt.csv.c_str());
    }
    if (opt.kernels) {
        std::printf("\nper-kernel execution log:\n");
        Table kt({"kernel", "stream", "CTAs", "launch", "complete",
                  "cycles"});
        for (const auto &rec : gpu.kernelLog()) {
            kt.addRow({rec.name,
                       rec.stream == gfx ? "graphics" : "compute",
                       std::to_string(rec.ctas),
                       std::to_string(rec.launchCycle),
                       std::to_string(rec.completeCycle),
                       std::to_string(rec.completeCycle -
                                      rec.launchCycle)});
        }
        std::printf("%s", kt.toText().c_str());
    }
    if (sink && opt.profile) {
        std::printf("\nsimulator self-profile (wall clock):\n%s",
                    sink->profiler().render(r.cycles).c_str());
    }
    return 0;
}
