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
 *                       (one-GPU scenarios; gpu.placement partitions a
 *                       multi-GPU machine)
 *     --share F         graphics resource share under fg (default 0.5)
 *     --image FILE      dump the rendered frame as PPM
 *     --csv FILE        dump per-stream stats as CSV
 *     --kernels         print the per-kernel execution log
 *     --trace FILE      write a Chrome trace_event JSON (Perfetto-loadable)
 *     --max-cycles N    stop the simulation after N cycles; a capped
 *                       run that did not drain is reported, not fatal
 *     --sample N        sample counters every N cycles (see --timeline)
 *     --timeline FILE   dump the sampled counter time-series as CSV
 *                       (FILE.gpu<d> per device on several GPUs)
 *     --profile         print the simulator's wall-clock self-profile
 *                       (every device's, summed)
 *     --profile-json FILE  write the self-profile as a ranked hotspot
 *                       JSON report (see docs/PROFILING.md)
 *     --threads N       worker threads stepping SM shards    (default 1)
 *     --quiet           suppress the banner
 *
 * Every scenario, one GPU or several, runs on one mgpu::MultiGpu built
 * from its gpu section; idle cycles are always fast-forwarded.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "gpu/gpu.hpp"
#include "mgpu/multi_gpu.hpp"
#include "graphics/pipeline.hpp"
#include "partition/tap.hpp"
#include "partition/warped_slicer.hpp"
#include "scenario/build.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/sink.hpp"

using namespace crisp;

namespace
{

struct Options
{
    std::string scenario;
    std::string policy = "exhaustive";
    double share = 0.5;
    bool partitionFlags = false;   ///< --policy or --share given.
    std::string image;
    std::string csv;
    bool kernels = false;
    std::string trace;
    Cycle maxCycles = 8'000'000'000ull;
    bool maxCyclesSet = false;
    Cycle sample = 0;
    std::string timeline;
    bool profile = false;
    std::string profileJson;
    uint32_t threads = 1;
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
            opt.partitionFlags = true;
        } else if (a == "--share") {
            opt.share = std::atof(need(i));
            opt.partitionFlags = true;
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
        } else if (a == "--profile-json") {
            opt.profileJson = need(i);
        } else if (a == "--threads") {
            opt.threads = static_cast<uint32_t>(std::atoi(need(i)));
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
 * Write the ranked hotspot report: per-component exclusive wall time,
 * descending, plus whole-run throughput so successive runs form a
 * comparable series (docs/PROFILING.md).
 */
void
writeProfileJson(const std::string &path, const scenario::Scenario &scn,
                 const telemetry::SelfProfiler &prof, Cycle cycles,
                 double wall_sec)
{
    std::vector<telemetry::Component> order;
    for (size_t i = 0;
         i < static_cast<size_t>(telemetry::Component::NumComponents); ++i) {
        order.push_back(static_cast<telemetry::Component>(i));
    }
    std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
        return prof.nanos(a) > prof.nanos(b);
    });
    const double total_ns = prof.totalNanos();
    Json hotspots = Json::array();
    for (const telemetry::Component c : order) {
        Json h = Json::object();
        h.set("component", Json::str(telemetry::componentName(c)));
        h.set("seconds", Json::number(prof.nanos(c) / 1e9));
        h.set("share", Json::number(total_ns > 0 ? prof.nanos(c) / total_ns
                                                 : 0.0));
        h.set("ns_per_cycle",
              Json::number(cycles > 0 ? prof.nanos(c) /
                                            static_cast<double>(cycles)
                                      : 0.0));
        hotspots.push(std::move(h));
    }
    Json j = Json::object();
    j.set("scenario", Json::str(scn.name));
    j.set("cycles", Json::number(uint64_t{cycles}));
    j.set("wall_sec", Json::number(wall_sec));
    j.set("cycles_per_sec",
          Json::number(static_cast<double>(cycles) / wall_sec));
    j.set("profiled_sec", Json::number(total_ns / 1e9));
    j.set("hotspots", std::move(hotspots));
    std::ofstream f(path);
    f << j.dump() << "\n";
    fatal_if(!f, "cannot write %s", path.c_str());
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
    const uint32_t n = scn.gpu.numGpus;
    fatal_if(n > 1 && opt.partitionFlags,
             "--policy and --share do not apply to a %u-GPU scenario: "
             "its gpu.placement partitions a multi-GPU machine",
             n);

    mgpu::MultiGpuConfig mcfg;
    mcfg.numGpus = n;
    mcfg.gpu = scenario::gpuConfigFor(scn);
    mgpu::MultiGpu machine(mcfg);
    {
        engine::EngineConfig ec;
        ec.threads = opt.threads;
        machine.setEngine(ec);
    }

    // Telemetry: one sink per device serves --trace, --sample/--timeline
    // and the self-profile.
    const bool profile = opt.profile || !opt.profileJson.empty();
    std::vector<std::unique_ptr<telemetry::TelemetrySink>> sinks;
    if (!opt.trace.empty() || opt.sample != 0 || !opt.timeline.empty() ||
        profile) {
        telemetry::TelemetryConfig tc;
        tc.eventCapacity = 1 << 20;
        tc.sampleInterval = opt.sample;
        if (!opt.timeline.empty() && tc.sampleInterval == 0) {
            tc.sampleInterval = 1000;
        }
        tc.selfProfile = profile;
        for (Gpu *gpu : machine.devices()) {
            sinks.push_back(
                std::make_unique<telemetry::TelemetrySink>(tc));
            gpu->setTelemetry(sinks.back().get());
        }
    }

    // Queue the work.
    scenario::Materialized mat;
    const scenario::SubmitResult sr =
        scenario::submitScenarioMulti(scn, machine, mat);
    const StreamId gfx = sr.gfx;
    const StreamId cmp = sr.cmp;
    if (profile && mat.pipeline) {
        mat.pipeline->setProfiler(&sinks[sr.gfxDevice]->profiler());
    }

    // Partitioning: --policy on one device; a multi-GPU scenario's
    // placement already partitioned its devices.
    PartitionConfig part;
    std::unique_ptr<WarpedSlicer> slicer;
    std::unique_ptr<TapController> tap;
    Gpu &gpu = machine.device(0);
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
    if (n == 1) {
        gpu.setPartition(part);
    }
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

    const std::string machine_name = n == 1
        ? mcfg.gpu.name
        : std::to_string(n) + " x " + mcfg.gpu.name;
    if (!opt.quiet) {
        const char *placement =
            scn.gpu.placement == scenario::Placement::Split ? "split"
            : scn.gpu.placement == scenario::Placement::Colocated
                ? "colocated"
                : "mig";
        std::printf("crisp_sim: scenario=%s (\"%s\") gpu=%s %s=%s\n",
                    opt.scenario.c_str(), scn.name.c_str(),
                    machine_name.c_str(), n == 1 ? "policy" : "placement",
                    n == 1 ? opt.policy.c_str() : placement);
    }

    const auto t0 = std::chrono::steady_clock::now();
    const mgpu::MultiGpu::RunResult r = machine.run(opt.maxCycles);
    const double wall_sec = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    if (!r.completed && opt.maxCyclesSet) {
        std::printf("stopped at --max-cycles %llu before draining\n",
                    static_cast<unsigned long long>(opt.maxCycles));
    } else {
        fatal_if(!r.completed, "simulation did not drain");
    }

    if (!opt.trace.empty()) {
        std::vector<const telemetry::TelemetrySink *> views;
        uint64_t emitted = 0;
        uint64_t dropped = 0;
        for (const auto &sink : sinks) {
            views.push_back(sink.get());
            emitted += sink->emitted();
            dropped += sink->dropped();
        }
        telemetry::writeChromeTrace(views, opt.trace);
        std::printf("wrote %s (%llu events, %llu dropped)\n",
                    opt.trace.c_str(),
                    static_cast<unsigned long long>(emitted),
                    static_cast<unsigned long long>(dropped));
    }
    if (!opt.timeline.empty()) {
        // One device writes FILE, several write FILE.gpu<d>.
        for (uint32_t d = 0; d < n; ++d) {
            const std::string path = n == 1
                ? opt.timeline
                : opt.timeline + ".gpu" + std::to_string(d);
            sinks[d]->series().toTable().writeCsv(path);
            std::printf("wrote %s (%zu samples)\n", path.c_str(),
                        sinks[d]->series().rows());
        }
    }
    if (!opt.image.empty() && mat.pipeline) {
        mat.pipeline->framebuffer().writePpm(opt.image);
    }

    uint64_t l2_accesses = 0;
    uint64_t l2_hits = 0;
    double dram_busy = 0.0;
    uint64_t ff_jumps = 0;
    uint64_t ff_cycles = 0;
    for (const Gpu *dev : machine.devices()) {
        l2_accesses += dev->l2().accesses();
        l2_hits += dev->l2().hits();
        dram_busy += dev->l2().dramBusyCycles();
        ff_jumps += dev->fastForwardJumps();
        ff_cycles += dev->fastForwardCycles();
    }
    std::printf("total: %llu cycles = %.4f ms on %s (L2 hit %.1f%%, DRAM "
                "busy %.1f%%)\n\n",
                static_cast<unsigned long long>(r.cycles),
                mcfg.gpu.cyclesToMs(r.cycles), machine_name.c_str(),
                l2_accesses == 0 ? 0.0
                                 : 100.0 * static_cast<double>(l2_hits) /
                                       static_cast<double>(l2_accesses),
                100.0 * dram_busy / n / r.cycles);
    if (n > 1) {
        const mgpu::InterGpuFabric &fabric = machine.fabric();
        std::printf("fabric: %llu remote reqs, %llu migrations, %llu "
                    "bytes\n",
                    static_cast<unsigned long long>(
                        fabric.requestsAccepted()),
                    static_cast<unsigned long long>(fabric.pageMigrations()),
                    static_cast<unsigned long long>(
                        fabric.bytesTransferred()));
    }
    std::printf("fast-forward: %llu jumps skipped %llu idle cycles\n",
                static_cast<unsigned long long>(ff_jumps),
                static_cast<unsigned long long>(ff_cycles));

    Table t({"stream", "device", "cycles(first..last)", "kernels",
             "instructions", "IPC", "L1 hit%", "L2 hit%", "tex acc",
             "remote", "dram rd"});
    auto add_stream = [&](const char *name, StreamId id, uint32_t dev) {
        if (id == kInvalidStream) {
            return;
        }
        Gpu &g = machine.device(dev);
        const StreamStats &st = g.stats().stream(id);
        t.addRow({name, std::to_string(dev),
                  std::to_string(st.firstCycle) + ".." +
                      std::to_string(g.streamFinishCycle(id)),
                  std::to_string(st.kernelsCompleted),
                  std::to_string(st.instructions), Table::num(st.ipc(), 2),
                  Table::num(100 * st.l1HitRate(), 1),
                  Table::num(100 * st.l2HitRate(), 1),
                  std::to_string(st.l1TexAccesses),
                  std::to_string(st.remoteAccesses),
                  std::to_string(st.dramReads)});
    };
    add_stream("graphics", gfx, sr.gfxDevice);
    add_stream("compute", cmp, sr.cmpDevice);
    std::printf("%s", t.toText().c_str());
    if (!opt.csv.empty()) {
        t.writeCsv(opt.csv);
        std::printf("wrote %s\n", opt.csv.c_str());
    }
    if (opt.kernels) {
        std::printf("\nper-kernel execution log:\n");
        Table kt({"kernel", "device", "stream", "CTAs", "launch",
                  "complete", "cycles"});
        for (uint32_t d = 0; d < n; ++d) {
            for (const auto &rec : machine.device(d).kernelLog()) {
                kt.addRow({rec.name, std::to_string(d),
                           rec.stream == gfx ? "graphics" : "compute",
                           std::to_string(rec.ctas),
                           std::to_string(rec.launchCycle),
                           std::to_string(rec.completeCycle),
                           std::to_string(rec.completeCycle -
                                          rec.launchCycle)});
            }
        }
        std::printf("%s", kt.toText().c_str());
    }
    if (profile) {
        // Every device's profile, summed.
        telemetry::SelfProfiler total;
        for (const auto &sink : sinks) {
            total.absorb(sink->profiler());
        }
        if (opt.profile) {
            std::printf("\nsimulator self-profile (wall clock):\n%s",
                        total.render(r.cycles).c_str());
        }
        if (!opt.profileJson.empty()) {
            writeProfileJson(opt.profileJson, scn, total, r.cycles,
                             wall_sec);
            std::printf("wrote %s\n", opt.profileJson.c_str());
        }
    }
    return 0;
}
