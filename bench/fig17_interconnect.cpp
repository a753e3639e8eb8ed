/**
 * @file
 * Fig 17: frame time and remote-traffic share vs inter-GPU link
 * bandwidth, remote access vs page migration. A rendered frame owns
 * device 0 while an inference-style reader on device 1 streams over a
 * buffer homed in device 0's window; every miss rides the fabric. The
 * sweep shows the makespan collapsing as the link widens, and page
 * migration converting steady remote traffic into a one-time copy — at
 * narrow links the migration mode wins decisively, at wide links the
 * two converge.
 */

#include "bench_util.hpp"
#include "mgpu/multi_gpu.hpp"

using namespace crisp;
using namespace crisp::bench;

namespace
{

/** The device-1 reader: inference-style streaming over remote weights. */
KernelInfo
remoteReader(Addr base, uint64_t bytes)
{
    ComputeKernelDesc d;
    d.name = "weights.reader";
    d.ctas = 16;
    d.threadsPerCta = 128;
    d.regsPerThread = 32;
    d.iterations = 8;
    d.fp32Ops = 8;
    MemPattern p;
    p.kind = MemPatternKind::Streaming;
    p.base = base;
    p.regionBytes = bytes;
    p.accessBytes = 16;
    p.count = 2;
    d.loads.push_back(p);
    return buildComputeKernel(d);
}

} // namespace

int
main()
{
    setVerbose(false);
    header("Fig 17", "frame time and remote share vs link bandwidth, "
                     "remote access vs page migration");

    Table t({"link B/cyc", "mode", "cycles", "frame ms", "remote reqs",
             "migrations", "remote share%", "fabric KiB"});

    const double bandwidths[] = {8.0, 32.0, 128.0};
    const struct
    {
        const char *name;
        uint32_t migrateAfter;
    } modes[] = {{"remote-access", 0}, {"page-migration", 4}};

    for (const double bw : bandwidths) {
        for (const auto &mode : modes) {
            mgpu::MultiGpuConfig cfg = mgpu::MultiGpuConfig::dualRtx3070();
            cfg.gpu.numSms = 16;
            cfg.gpu.finalize();
            cfg.fabric.linkBytesPerCycle = bw;
            cfg.fabric.migrateAfter = mode.migrateAfter;
            mgpu::MultiGpu machine(cfg);

            // Device 0 renders; its window also homes the weights the
            // device-1 reader streams over.
            AddressSpace heap;
            const Scene scene = buildSceneByName("PT", heap);
            AddressSpace fb_heap(0x4000'0000ull);
            PipelineConfig pc;
            pc.width = 320;
            pc.height = 240;
            RenderPipeline pipe(pc, fb_heap);
            const RenderSubmission sub = pipe.submit(scene);
            Gpu &dev0 = machine.device(0);
            const StreamId gfx = dev0.createStream("graphics");
            submitFrame(dev0, gfx, sub);

            AddressSpace weights_heap(0x8000'0000ull);
            const uint64_t weights_bytes = 1ull << 20;
            const Addr weights = weights_heap.alloc(weights_bytes);
            Gpu &dev1 = machine.device(1);
            const StreamId cmp = dev1.createStream("compute");
            dev1.enqueueKernel(cmp, remoteReader(weights, weights_bytes));

            const auto r = machine.run(2'000'000'000ull, auditInterval());
            for (const auto &v : r.violations) {
                std::fprintf(stderr, "audit violation [%s] %s\n",
                             v.check.c_str(), v.detail.c_str());
            }
            fatal_if(!r.violations.empty(), "machine audit failed");
            fatal_if(!r.completed, "bw %.0f mode %s did not drain", bw,
                     mode.name);

            const mgpu::InterGpuFabric &fabric = machine.fabric();
            const StreamStats &cst = dev1.stats().stream(cmp);
            // Local L2 accesses on device 1 plus remote ones are the
            // stream's total L1-miss traffic; the share is the fraction
            // that crossed the fabric.
            const double total = static_cast<double>(cst.l2Accesses) +
                static_cast<double>(cst.remoteAccesses);
            const double share = total > 0.0
                ? 100.0 * static_cast<double>(cst.remoteAccesses) / total
                : 0.0;
            t.addRow({Table::num(bw, 0), mode.name,
                      std::to_string(r.cycles),
                      Table::num(cfg.gpu.cyclesToMs(
                                     dev0.streamFinishCycle(gfx)),
                                 4),
                      std::to_string(fabric.requestsAccepted()),
                      std::to_string(fabric.pageMigrations()),
                      Table::num(share, 1),
                      std::to_string(fabric.bytesTransferred() / 1024)});
        }
    }

    t.emit("fig17_interconnect.csv");
    return 0;
}
