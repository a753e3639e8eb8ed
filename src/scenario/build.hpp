#ifndef CRISP_SCENARIO_BUILD_HPP
#define CRISP_SCENARIO_BUILD_HPP

#include <memory>
#include <string>
#include <vector>

#include "gpu/gpu.hpp"
#include "graphics/pipeline.hpp"
#include "mgpu/multi_gpu.hpp"
#include "scenario/scenario.hpp"

namespace crisp::scenario
{

/** The GpuConfig a scenario asks for (preset plus num_sms override). */
GpuConfig gpuConfigFor(const Scenario &sc);

/**
 * Everything the enqueued kernels reference — the scene (trace generators
 * sample its textures at replay time), the pipeline and the functional
 * frame reports. Must outlive the Gpu::run that replays the kernels.
 */
struct Materialized
{
    std::vector<std::unique_ptr<Scene>> scenes;
    std::unique_ptr<RenderPipeline> pipeline;
    std::vector<RenderSubmission> frames;
};

/** Stream ids the scenario's work landed on (kInvalidStream = no side)
 *  and the device each stream runs on under the scenario's placement. */
struct SubmitResult
{
    StreamId gfx = kInvalidStream;
    StreamId cmp = kInvalidStream;
    uint32_t gfxDevice = 0;
    uint32_t cmpDevice = 0;
};
using MultiSubmitResult = SubmitResult;

/**
 * Materialize a scenario and enqueue all of its work on @p mgpu, which
 * must have the scenario's gpu.num_gpus devices (1..8).
 *
 * The call sequence is fixed — scene, pipeline, graphics stream, compute
 * stream, per-frame submission, compute enqueue — with the same
 * heap-allocation pattern as assembling those pieces by hand from the
 * workloads library, so a preset-backed scenario file replays
 * bit-identically to the equivalent hand-built submission. Device d
 * allocates from mgpu.heapFor(d).
 *
 * The gpu.placement knob resolves each stream to a device — split puts
 * graphics on device 0 and compute on device 1, colocated/mig put both
 * on device 0 (with the matching MPS/MiG partition applied) — and
 * per-stream "device" fields override it. A buffer's own "device" field
 * homes it in that device's window; a buffer homed away from the stream
 * that touches it makes every L1 miss a remote access over the
 * inter-GPU fabric. A 1-device scenario gets no partition here: callers
 * pick the policy and call Gpu::setPartition after this returns.
 */
SubmitResult submitScenarioMulti(const Scenario &sc, mgpu::MultiGpu &mgpu,
                                 Materialized &out);

/** submitScenarioMulti on a bare Gpu allocating from @p heap (a
 *  1-device scenario only). */
SubmitResult submitScenario(const Scenario &sc, Gpu &gpu,
                            AddressSpace &heap, Materialized &out);

/**
 * Arrival cycle of each burst of @p s: b*period for the periodic model,
 * or seeded cumulative exponential gaps with mean core_clock/rate_hz
 * for the Poisson model — deterministic for a fixed seed.
 */
std::vector<Cycle> burstBases(const ScheduleNode &s, double core_clock_mhz);

/**
 * A scenario flattened to the packed-trace shape: per-stream kernel lists
 * with dependency indices (-1 = none). Only dependency-expressible
 * scenarios flatten; arrival schedules (bursts, "at", "delay",
 * fixed_function_delay) have no CRTR representation.
 */
struct Flattened
{
    std::vector<KernelInfo> gfxKernels;
    std::vector<int> gfxDependsOn;
    std::vector<KernelInfo> cmpKernels;
    std::vector<int> cmpDependsOn;
};

/**
 * Whether the scenario can be expressed in the packed-trace shape at
 * all. False (with @p why set) for arrival schedules — bursts, "at",
 * "delay", fixed_function_delay — which only run live.
 */
bool flattenable(const Scenario &sc, std::string &why);

/**
 * Whether the compute side samples the rendered frame (the ATW preset
 * or a "frame_color" load with a graphics side present). Such sides
 * cannot be built without the graphics pipeline, so a cache cannot
 * treat the two sides as independent entries.
 */
bool computeReadsFrame(const Scenario &sc);

/**
 * Flatten only the graphics side: functionally render every frame and
 * collect the kernels with cross-frame-adjusted dependency indices.
 * Requires sc.graphics.present and flattenable().
 */
void flattenGraphicsSide(const Scenario &sc, AddressSpace &heap,
                         Materialized &out,
                         std::vector<KernelInfo> &kernels,
                         std::vector<int> &deps);

/**
 * Flatten only the compute side. @p pipeline resolves frame_color/ATW
 * references (may be nullptr when computeReadsFrame() is false).
 * Requires sc.compute.present and flattenable(). Preset workloads get
 * the serial chain deps the live path's stream order implies.
 */
void flattenComputeSide(const Scenario &sc, AddressSpace &heap,
                        RenderPipeline *pipeline,
                        std::vector<KernelInfo> &kernels,
                        std::vector<int> &deps);

/**
 * Flatten the whole scenario without a Gpu (trace packing, cache
 * population): graphics side first, then compute, matching the live
 * path's heap-allocation order. Returns false with @p why set when not
 * flattenable(); such scenarios still run live through
 * submitScenarioMulti.
 */
bool flattenScenario(const Scenario &sc, AddressSpace &heap,
                     Materialized &out, Flattened &flat, std::string &why);

} // namespace crisp::scenario

#endif // CRISP_SCENARIO_BUILD_HPP
