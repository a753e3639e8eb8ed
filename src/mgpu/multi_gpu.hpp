#ifndef CRISP_MGPU_MULTI_GPU_HPP
#define CRISP_MGPU_MULTI_GPU_HPP

#include <memory>
#include <vector>

#include "engine/engine_config.hpp"
#include "gpu/gpu.hpp"
#include "graphics/address_space.hpp"
#include "integrity/report.hpp"
#include "mgpu/fabric.hpp"

namespace crisp
{
namespace mgpu
{

/** Largest machine MultiGpu models (and a scenario may ask for). */
constexpr uint32_t kMaxGpus = 8;

/** Configuration of an N-device machine: per-device GPU + fabric knobs. */
struct MultiGpuConfig
{
    /** 1..kMaxGpus devices; one device has no fabric. */
    uint32_t numGpus = 2;

    /** Every device runs the same per-device configuration. */
    GpuConfig gpu = GpuConfig::rtx3070();

    FabricConfig fabric;

    /**
     * Static heap window per device: device d owns addresses
     * [d * windowBytes, (d+1) * windowBytes). 16 GiB keeps every
     * single-device heap convention (scene 0x1000'0000, framebuffer
     * 0x4000'0000, compute 0x8000'0000) inside device 0's window.
     */
    Addr windowBytes = 1ull << 34;

    /**
     * Stream-id stride between devices: device d allocates stream ids
     * from d * streamIdStride, so per-stream statistics keyed by id stay
     * unambiguous machine-wide (the merged registry and the Chrome trace
     * both rely on this).
     */
    StreamId streamIdStride = 32;

    /** Two/four RTX 3070-class devices over an NVLink-ish mesh. */
    static MultiGpuConfig dualRtx3070();
    static MultiGpuConfig quadRtx3070();
};

/**
 * The simulated machine every front end runs: owns N Gpu devices and,
 * for N > 1, the InterGpuFabric between them, runs them through
 * Gpu::runMachine (lockstep ticks, fabric first, then devices in id
 * order — all serial on the main thread, so the per-device parallel
 * engines keep threads 1/2/4 byte-identical), and closes the
 * conservation identities machine-wide. A 1-device machine is exactly a
 * bare Gpu: stream ids from 0, heapFor(0) at the single-GPU heap base,
 * and the single-GPU counter audit.
 */
class MultiGpu
{
  public:
    explicit MultiGpu(const MultiGpuConfig &cfg);
    ~MultiGpu();

    uint32_t numGpus() const { return cfg_.numGpus; }
    Gpu &device(uint32_t d);
    const Gpu &device(uint32_t d) const;
    /** Every device, in id order. */
    const std::vector<Gpu *> &devices() { return devices_; }
    /** The inter-GPU fabric (numGpus() > 1 only). */
    InterGpuFabric &fabric();
    const InterGpuFabric &fabric() const;
    const MultiGpuConfig &config() const { return cfg_; }

    /** First byte of device @p d's static heap window. */
    Addr windowBase(uint32_t d) const;

    /**
     * A heap inside device @p d's window, at the same local offset the
     * single-GPU entry points use — allocate a buffer from heapFor(0)
     * and read it from a stream on device 1 to generate remote traffic.
     */
    AddressSpace heapFor(uint32_t d, Addr local_base = 0x1000'0000ull) const;

    /** Configure every device's cycle engine (before the first tick). */
    void setEngine(const engine::EngineConfig &engine);

    /** The machine clock (every device runs in lockstep with it). */
    Cycle now() const { return devices_.front()->now(); }

    /** Gpu::RunResult plus every audit violation that stopped the run. */
    struct RunResult : Gpu::RunResult
    {
        std::vector<integrity::InvariantViolation> violations;
    };

    /**
     * Run until every device drains and the fabric is empty, or
     * @p max_cycles elapse, through Gpu::runMachine: @p opts arms the
     * watchdog, cancellation and the machine-wide counter audit
     * (auditInterval, plus once at the end unless the watchdog or an
     * audit already stopped the run); any violation stops the run and
     * is listed in RunResult::violations.
     */
    RunResult run(Cycle max_cycles, const integrity::RunOptions &opts);

    /** run() with only the machine-wide audit, every @p audit_interval. */
    RunResult run(Cycle max_cycles = ~0ull, Cycle audit_interval = 0);

    /**
     * Union of every device's per-stream statistics (disjoint stream-id
     * ranges make this a disjoint merge for local counters; remote
     * traffic genuinely splits one stream across registries, which is
     * why machine-wide identities only close on the merged view).
     */
    StatsRegistry mergedStats() const;

    /** Machine-wide conservation audit (see audit::auditMachine). */
    void audit(Cycle now,
               std::vector<integrity::InvariantViolation> &out) const;

  private:
    MultiGpuConfig cfg_;
    std::unique_ptr<InterGpuFabric> fabric_;   ///< Null on one device.
    std::vector<std::unique_ptr<Gpu>> owned_;
    std::vector<Gpu *> devices_;
};

} // namespace mgpu
} // namespace crisp

#endif // CRISP_MGPU_MULTI_GPU_HPP
