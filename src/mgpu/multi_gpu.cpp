#include "mgpu/multi_gpu.hpp"

#include "audit/audit.hpp"
#include "common/logging.hpp"

namespace crisp
{
namespace mgpu
{

MultiGpuConfig
MultiGpuConfig::dualRtx3070()
{
    MultiGpuConfig cfg;
    cfg.numGpus = 2;
    cfg.gpu = GpuConfig::rtx3070();
    return cfg;
}

MultiGpuConfig
MultiGpuConfig::quadRtx3070()
{
    MultiGpuConfig cfg;
    cfg.numGpus = 4;
    cfg.gpu = GpuConfig::rtx3070();
    return cfg;
}

MultiGpu::MultiGpu(const MultiGpuConfig &cfg) : cfg_(cfg)
{
    fatal_if(cfg_.numGpus < 1 || cfg_.numGpus > kMaxGpus,
             "MultiGpu models 1..%u devices, not %u", kMaxGpus,
             cfg_.numGpus);
    fatal_if(cfg_.streamIdStride == 0, "stream-id stride must be non-zero");
    if (cfg_.numGpus > 1) {
        fabric_ = std::make_unique<InterGpuFabric>(
            cfg_.fabric, cfg_.numGpus, cfg_.windowBytes);
    }
    for (uint32_t d = 0; d < cfg_.numGpus; ++d) {
        owned_.push_back(std::make_unique<Gpu>(cfg_.gpu));
        Gpu &gpu = *owned_.back();
        devices_.push_back(&gpu);
        gpu.setDeviceId(d);
        gpu.setStreamIdBase(d * cfg_.streamIdStride);
        if (fabric_) {
            gpu.setRemotePort(fabric_.get());
            fabric_->attachDevice(d, &gpu);
        }
    }
}

MultiGpu::~MultiGpu() = default;

Gpu &
MultiGpu::device(uint32_t d)
{
    fatal_if(d >= devices_.size(), "device %u out of range", d);
    return *devices_[d];
}

const Gpu &
MultiGpu::device(uint32_t d) const
{
    fatal_if(d >= devices_.size(), "device %u out of range", d);
    return *devices_[d];
}

InterGpuFabric &
MultiGpu::fabric()
{
    fatal_if(!fabric_, "a 1-device machine has no fabric");
    return *fabric_;
}

const InterGpuFabric &
MultiGpu::fabric() const
{
    fatal_if(!fabric_, "a 1-device machine has no fabric");
    return *fabric_;
}

Addr
MultiGpu::windowBase(uint32_t d) const
{
    fatal_if(d >= cfg_.numGpus, "device %u out of range", d);
    return static_cast<Addr>(d) * cfg_.windowBytes;
}

AddressSpace
MultiGpu::heapFor(uint32_t d, Addr local_base) const
{
    fatal_if(local_base >= cfg_.windowBytes,
             "heap base beyond the device window");
    return AddressSpace(windowBase(d) + local_base);
}

void
MultiGpu::setEngine(const engine::EngineConfig &engine)
{
    for (Gpu *gpu : devices_) {
        gpu->setEngine(engine);
    }
}

MultiGpu::RunResult
MultiGpu::run(Cycle max_cycles, const integrity::RunOptions &opts)
{
    fatal_if(opts.telemetry != nullptr,
             "attach telemetry per device (Gpu::setTelemetry)");
    RunResult result;
    static_cast<Gpu::RunResult &>(result) = Gpu::runMachine(
        devices_, fabric_.get(), max_cycles, opts,
        [this](Cycle now,
               std::vector<integrity::InvariantViolation> &out) {
            audit(now, out);
        });
    if (result.hang) {
        result.violations = result.hang->violations;
    } else if (opts.auditInterval != 0) {
        audit(now(), result.violations);
        result.completed &= result.violations.empty();
    }
    return result;
}

MultiGpu::RunResult
MultiGpu::run(Cycle max_cycles, Cycle audit_interval)
{
    integrity::RunOptions opts;
    opts.auditInterval = audit_interval;
    return run(max_cycles, opts);
}

StatsRegistry
MultiGpu::mergedStats() const
{
    StatsRegistry merged;
    for (const Gpu *gpu : devices_) {
        // absorbShadow mutates its source; fold a copy instead.
        StatsRegistry shadow = gpu->stats();
        merged.absorbShadow(shadow);
    }
    return merged;
}

void
MultiGpu::audit(Cycle now,
                std::vector<integrity::InvariantViolation> &out) const
{
    if (!fabric_) {
        // One device: the single-GPU identities, exactly as Gpu::run.
        const Gpu &gpu = *devices_.front();
        audit::auditAll(gpu.stats(), gpu.constSms(), gpu.l2(), now, out);
        return;
    }
    const StatsRegistry merged = mergedStats();
    std::vector<const Sm *> sms;
    std::vector<const L2Subsystem *> l2s;
    for (const Gpu *gpu : devices_) {
        const std::vector<const Sm *> dev_sms = gpu->constSms();
        sms.insert(sms.end(), dev_sms.begin(), dev_sms.end());
        l2s.push_back(&gpu->l2());
    }
    SmallFlatMap<StreamId, uint64_t> fabric_in_flight;
    fabric_->countInFlightByStream(fabric_in_flight);
    audit::auditMachine(merged, sms, l2s, fabric_in_flight, now, out);

    // Fabric conservation: every accepted packet is delivered or still
    // in flight, and migration byte accounting pairs with the count.
    using integrity::InvariantViolation;
    using logging_detail::formatMessage;
    if (fabric_->requestsAccepted() !=
        fabric_->requestsDelivered() + fabric_->requestsInFlight()) {
        out.push_back(
            {"counter-fabric-conservation",
             formatMessage("fabric requests accepted (%llu) != delivered "
                           "(%llu) + in flight (%llu)",
                           static_cast<unsigned long long>(
                               fabric_->requestsAccepted()),
                           static_cast<unsigned long long>(
                               fabric_->requestsDelivered()),
                           static_cast<unsigned long long>(
                               fabric_->requestsInFlight())),
             now});
    }
    if (fabric_->responsesAccepted() !=
        fabric_->responsesDelivered() + fabric_->responsesInFlight()) {
        out.push_back(
            {"counter-fabric-conservation",
             formatMessage("fabric responses accepted (%llu) != delivered "
                           "(%llu) + in flight (%llu)",
                           static_cast<unsigned long long>(
                               fabric_->responsesAccepted()),
                           static_cast<unsigned long long>(
                               fabric_->responsesDelivered()),
                           static_cast<unsigned long long>(
                               fabric_->responsesInFlight())),
             now});
    }
    if (fabric_->migratedBytes() !=
        fabric_->pageMigrations() * fabric_->config().pageBytes) {
        out.push_back(
            {"counter-fabric-conservation",
             formatMessage("fabric migrated bytes (%llu) != migrations "
                           "(%llu) * page size (%llu)",
                           static_cast<unsigned long long>(
                               fabric_->migratedBytes()),
                           static_cast<unsigned long long>(
                               fabric_->pageMigrations()),
                           static_cast<unsigned long long>(
                               fabric_->config().pageBytes)),
             now});
    }
    // The per-stream remote counters pair with the fabric totals: every
    // accepted request was counted remoteAccesses by its source device,
    // every delivered response was counted remoteResponses.
    const uint64_t remote_accesses =
        merged.sumOver(&StreamStats::remoteAccesses);
    if (remote_accesses != fabric_->requestsAccepted()) {
        out.push_back(
            {"counter-fabric-conservation",
             formatMessage("stream remoteAccesses sum (%llu) != fabric "
                           "requests accepted (%llu)",
                           static_cast<unsigned long long>(remote_accesses),
                           static_cast<unsigned long long>(
                               fabric_->requestsAccepted())),
             now});
    }
    const uint64_t remote_responses =
        merged.sumOver(&StreamStats::remoteResponses);
    if (remote_responses != fabric_->responsesDelivered()) {
        out.push_back(
            {"counter-fabric-conservation",
             formatMessage("stream remoteResponses sum (%llu) != fabric "
                           "responses delivered (%llu)",
                           static_cast<unsigned long long>(remote_responses),
                           static_cast<unsigned long long>(
                               fabric_->responsesDelivered())),
             now});
    }
}

} // namespace mgpu
} // namespace crisp
