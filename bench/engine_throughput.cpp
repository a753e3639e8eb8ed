// Parallel cycle-engine throughput: simulated cycles per wall-clock second
// at 1/2/4/8 worker threads on a compute-heavy many-SM machine, plus a
// determinism cross-check (all thread counts must produce identical stats).
//
// Runs two machine sizes by default — the historical 16-SM config and a
// 64-SM config with a proportionally larger workload, where each worker
// lane has enough per-cycle work to hide the fork/join barrier. Pass
// `--num-sms N` to run a single size.
//
// Emits BENCH_engine_throughput.json next to the binary.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "engine/engine_config.hpp"
#include "workloads/cached.hpp"

namespace crisp::bench
{
namespace
{

GpuConfig
bigGpu(uint32_t num_sms)
{
    GpuConfig cfg;
    cfg.name = "engine-bench";
    cfg.numSms = num_sms;
    cfg.coreClockMhz = 1000.0;
    cfg.memoryBandwidthGBs = 256.0;
    cfg.l2.numBanks = 8;
    cfg.l2.bankGeometry = {256 * 1024, 8, kLineBytes};
    cfg.finalize();
    return cfg;
}

/** Compute-heavy workload sized to keep @p num_sms SMs busy (16 CTAs per
 *  SM per kernel). Routed through the trace cache (CRISP_TRACE_CACHE) so
 *  the bench can report generation vs replay build cost. */
std::vector<KernelInfo>
buildWorkload(AddressSpace &heap, uint32_t num_sms, bool *cache_hit)
{
    const uint32_t ctas = 16 * num_sms;
    const std::string key = computeCacheKey(
        "engine_dense",
        "k=4/ctas=" + std::to_string(ctas) +
            "/tpc=256/regs=48/iter=8/fp32=24/int=8",
        heap.allocatedEnd());
    return traceCache().loadOrBuild(
        key, heap,
        [ctas](AddressSpace &h) {
            std::vector<KernelInfo> kernels;
            for (int i = 0; i < 4; ++i) {
                ComputeKernelDesc d;
                d.name = "dense" + std::to_string(i);
                d.ctas = ctas;
                d.threadsPerCta = 256;
                d.regsPerThread = 48;
                d.iterations = 8;
                d.fp32Ops = 24;
                d.intOps = 8;
                d.loads = {{MemPatternKind::Broadcast, h.alloc(1 << 16),
                            1 << 16, 4, 2, 128}};
                kernels.push_back(buildComputeKernel(d));
            }
            return kernels;
        },
        cache_hit);
}

std::string
statsFingerprint(const StatsRegistry &stats)
{
    std::ostringstream os;
    for (const auto &[id, st] : stats.allStreams()) {
        os << id << ':' << st.cycles << ',' << st.instructions << ','
           << st.l1Accesses << ',' << st.l2Accesses << ','
           << st.dramReads << ',' << st.dramWrites << ';';
    }
    return os.str();
}

struct Measurement
{
    uint32_t threads = 1;
    /** Lanes actually used after the host-core/SM clamp. */
    uint32_t threadsEffective = 1;
    Cycle cycles = 0;
    double wallSec = 0.0;
    double cyclesPerSec = 0.0;
    /** Wall-clock cost of obtaining the workload (generate or replay). */
    double buildSec = 0.0;
    bool cacheHit = false;
    std::string fingerprint;
};

Measurement
measure(uint32_t num_sms, uint32_t threads)
{
    Measurement m;
    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(bigGpu(num_sms));
    engine::EngineConfig ec;
    ec.threads = threads;
    ec.fastForward = false;   // cycles/sec of the tick loop itself
    gpu.setEngine(ec);
    const StreamId s = gpu.createStream("compute");
    const auto b0 = std::chrono::steady_clock::now();
    const std::vector<KernelInfo> kernels =
        buildWorkload(heap, num_sms, &m.cacheHit);
    m.buildSec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - b0)
                     .count();
    for (const KernelInfo &k : kernels) {
        gpu.enqueueKernel(s, k);
    }

    const auto t0 = std::chrono::steady_clock::now();
    const auto r = gpu.run(2'000'000'000ull);
    const auto t1 = std::chrono::steady_clock::now();
    fatal_if(!r.completed, "engine bench workload did not drain");

    m.threads = threads;
    m.threadsEffective = gpu.engineConfig().threads;
    m.cycles = r.cycles;
    m.wallSec = std::chrono::duration<double>(t1 - t0).count();
    m.cyclesPerSec = static_cast<double>(r.cycles) / m.wallSec;
    m.fingerprint = statsFingerprint(gpu.stats());
    return m;
}

struct ConfigResult
{
    uint32_t numSms = 0;
    bool deterministic = true;
    double generationSec = -1.0;
    double replaySec = -1.0;
    std::vector<Measurement> runs;
};

ConfigResult
runConfig(uint32_t num_sms)
{
    ConfigResult cr;
    cr.numSms = num_sms;
    std::printf("-- num_sms=%u --\n", num_sms);
    if (traceCache().enabled()) {
        // Cold-populate the trace cache up front so every measured run
        // replays: generation and replay drive different CtaGenerators,
        // and mixing them would skew the thread-scaling comparison.
        AddressSpace warm_heap(0x8000'0000ull);
        bool hit = false;
        const auto w0 = std::chrono::steady_clock::now();
        buildWorkload(warm_heap, num_sms, &hit);
        const double warm_sec = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - w0)
                                    .count();
        if (!hit) {
            cr.generationSec = warm_sec;
        }
        std::printf("trace cache %s in %.3fs\n",
                    hit ? "warm" : "populated", warm_sec);
    }
    // One untimed warmup simulation: the first run on a quiet host pays
    // page-cache and frequency-ramp costs that the later thread counts
    // don't, which would systematically understate the threads=1 rate
    // every other speedup is normalized to.
    (void)measure(num_sms, 1);
    // Best-of-5 per thread count, with repetitions interleaved
    // round-robin across thread counts: individual runs are short enough
    // that scheduler noise on a shared host swings them several percent,
    // and slow load drift would otherwise bias whichever count happened
    // to run during the quiet stretch. Min-wall is the standard estimator
    // for the noise-free rate.
    constexpr int kReps = 5;
    const std::vector<uint32_t> counts = {1u, 2u, 4u, 8u};
    std::vector<Measurement> best;
    for (uint32_t threads : counts) {
        best.push_back(measure(num_sms, threads));
    }
    for (int rep = 1; rep < kReps; ++rep) {
        for (size_t i = 0; i < counts.size(); ++i) {
            Measurement next = measure(num_sms, counts[i]);
            fatal_if(next.fingerprint != best[i].fingerprint ||
                         next.cycles != best[i].cycles,
                     "nondeterminism across repetitions");
            if (next.wallSec < best[i].wallSec) {
                best[i] = next;
            }
        }
    }
    for (const Measurement &picked : best) {
        cr.runs.push_back(picked);
        const Measurement &m = cr.runs.back();
        std::printf("threads=%u (eff %u)  cycles=%llu  wall=%.3fs  "
                    "%.3fM cycles/s  speedup=%.2fx  build=%.3fs (%s)\n",
                    m.threads, m.threadsEffective,
                    static_cast<unsigned long long>(m.cycles), m.wallSec,
                    m.cyclesPerSec / 1e6,
                    m.cyclesPerSec / cr.runs.front().cyclesPerSec,
                    m.buildSec, m.cacheHit ? "trace replay" : "generated");
    }
    for (const Measurement &m : cr.runs) {
        if (m.cycles != cr.runs.front().cycles ||
            m.fingerprint != cr.runs.front().fingerprint) {
            cr.deterministic = false;
        }
        if (!m.cacheHit && cr.generationSec < 0) {
            cr.generationSec = m.buildSec;
        }
        if (m.cacheHit && cr.replaySec < 0) {
            cr.replaySec = m.buildSec;
        }
    }
    std::printf("deterministic across thread counts: %s\n\n",
                cr.deterministic ? "yes" : "NO");
    return cr;
}

} // namespace
} // namespace crisp::bench

int
main(int argc, char **argv)
{
    using namespace crisp;
    using namespace crisp::bench;

    std::vector<uint32_t> sizes = {16u, 64u};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--num-sms" && i + 1 < argc) {
            sizes = {static_cast<uint32_t>(std::atoi(argv[++i]))};
        } else {
            std::fprintf(stderr, "usage: %s [--num-sms N]\n", argv[0]);
            return 2;
        }
    }

    header("engine_throughput",
           "parallel cycle-engine scaling, compute workload");
    const uint32_t cores = std::thread::hardware_concurrency();
    std::printf("host cores: %u%s\n\n", cores,
                cores < 4 ? "  (speedup needs >= 4; thread counts above "
                            "the core count clamp to serial)"
                          : "");

    std::vector<ConfigResult> configs;
    for (uint32_t num_sms : sizes) {
        configs.push_back(runConfig(num_sms));
    }

    FILE *f = std::fopen("BENCH_engine_throughput.json", "w");
    fatal_if(f == nullptr, "cannot write BENCH_engine_throughput.json");
    std::fprintf(f, "{\n  \"bench\": \"engine_throughput\",\n");
    std::fprintf(f, "  \"host_cores\": %u,\n", cores);
    std::fprintf(f, "  \"trace_cache_enabled\": %s,\n",
                 traceCache().enabled() ? "true" : "false");
    std::fprintf(f, "  \"configs\": [\n");
    for (size_t c = 0; c < configs.size(); ++c) {
        const ConfigResult &cr = configs[c];
        std::fprintf(f, "    {\"num_sms\": %u, \"deterministic\": %s,\n",
                     cr.numSms, cr.deterministic ? "true" : "false");
        if (cr.generationSec >= 0) {
            std::fprintf(f, "     \"generation_wall_sec\": %.6f,\n",
                         cr.generationSec);
        }
        if (cr.replaySec >= 0) {
            std::fprintf(f, "     \"replay_wall_sec\": %.6f,\n",
                         cr.replaySec);
        }
        std::fprintf(f, "     \"runs\": [\n");
        for (size_t i = 0; i < cr.runs.size(); ++i) {
            const Measurement &m = cr.runs[i];
            std::fprintf(
                f,
                "      {\"threads\": %u, \"threads_effective\": %u, "
                "\"cycles\": %llu, "
                "\"wall_sec\": %.6f, \"cycles_per_sec\": %.1f, "
                "\"speedup\": %.3f, \"trace_cache_hit\": %s, "
                "\"build_wall_sec\": %.6f}%s\n",
                m.threads, m.threadsEffective,
                static_cast<unsigned long long>(m.cycles), m.wallSec,
                m.cyclesPerSec,
                m.cyclesPerSec / cr.runs.front().cyclesPerSec,
                m.cacheHit ? "true" : "false", m.buildSec,
                i + 1 < cr.runs.size() ? "," : "");
        }
        std::fprintf(f, "     ]}%s\n",
                     c + 1 < configs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_engine_throughput.json\n");
    return 0;
}
