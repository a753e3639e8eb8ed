/**
 * @file
 * Fig 16: per-device occupancy timeline for the two-GPU game+inference
 * scenario under the three placements. Split gives each stream its own
 * device (remote weight fetches ride the fabric), colocated folds both
 * onto device 0 under an MPS SM split, and mig additionally partitions
 * the L2 banks. The timeline shows device 1 going dark outside split —
 * the capacity/isolation trade the placement knob buys.
 *
 * Sampling runs through one telemetry sink per device (occ.graphics /
 * occ.compute columns), mirroring how crisp_sim --timeline tags devices.
 */

#include <memory>

#include "bench_util.hpp"
#include "mgpu/multi_gpu.hpp"
#include "scenario/build.hpp"
#include "scenario/scenario.hpp"

using namespace crisp;
using namespace crisp::bench;

namespace
{

const char *
placementName(scenario::Placement p)
{
    switch (p) {
      case scenario::Placement::Split: return "split";
      case scenario::Placement::Colocated: return "colocated";
      default: return "mig";
    }
}

double
sampleOcc(const telemetry::TelemetrySink &sink, const char *col, size_t i)
{
    if (!sink.series().hasColumn(col)) {
        return 0.0;
    }
    const std::vector<double> &v = sink.series().values(col);
    return i < v.size() ? v[i] : 0.0;
}

} // namespace

int
main()
{
    setVerbose(false);
    header("Fig 16", "per-device occupancy, 2-GPU game+inference, three "
                     "placements");

    scenario::Scenario scn;
    scenario::ScenarioError err;
    fatal_if(!scenario::loadScenarioFile(
                 "scenarios/game_inference_mgpu.json", scn, err),
             "%s", err.str().c_str());

    Table t({"placement", "cycle", "gpu0 gfx%", "gpu0 cmp%", "gpu1 gfx%",
             "gpu1 cmp%"});
    const scenario::Placement placements[] = {
        scenario::Placement::Split, scenario::Placement::Colocated,
        scenario::Placement::Mig};
    for (const scenario::Placement p : placements) {
        scn.gpu.placement = p;
        mgpu::MultiGpuConfig cfg;
        cfg.numGpus = scn.gpu.numGpus;
        cfg.gpu = scenario::gpuConfigFor(scn);
        // The burst gaps are machine-wide idle; the fast-forward jump
        // stops at every 500-cycle sample, so the sampled rows are the
        // ticked run's.
        mgpu::MultiGpu machine(cfg);

        std::vector<std::unique_ptr<telemetry::TelemetrySink>> sinks;
        for (uint32_t d = 0; d < cfg.numGpus; ++d) {
            sinks.push_back(std::make_unique<telemetry::TelemetrySink>(
                makeSamplingSink(500)));
            machine.device(d).setTelemetry(sinks.back().get());
        }

        scenario::Materialized mat;
        scenario::submitScenarioMulti(scn, machine, mat);
        const auto r = machine.run(200'000'000ull, auditInterval());
        for (const auto &v : r.violations) {
            std::fprintf(stderr, "audit violation [%s] %s\n",
                         v.check.c_str(), v.detail.c_str());
        }
        fatal_if(!r.violations.empty(), "machine audit failed under %s",
                 placementName(p));
        fatal_if(!r.completed, "placement %s did not drain",
                 placementName(p));

        // The schedule is bursty: long idle gaps separate short active
        // windows. A uniform subsample alone would mostly show zeros, so
        // emit every active sample (bounded by the actual busy time)
        // plus a uniform idle backbone.
        const auto &cycles = sinks[0]->series().cycles();
        const size_t step = std::max<size_t>(1, cycles.size() / 24);
        size_t active_emitted = 0;
        for (size_t i = 0; i < cycles.size(); ++i) {
            const double g0g = sampleOcc(*sinks[0], "occ.graphics", i);
            const double g0c = sampleOcc(*sinks[0], "occ.compute", i);
            const double g1g = sampleOcc(*sinks[1], "occ.graphics", i);
            const double g1c = sampleOcc(*sinks[1], "occ.compute", i);
            const bool active = g0g + g0c + g1g + g1c > 0.0;
            if (!active && i % step != 0) {
                continue;
            }
            if (active && ++active_emitted > 400) {
                continue;   // keep the golden bounded
            }
            t.addRow({placementName(p), std::to_string(cycles[i]),
                      Table::num(100 * g0g, 1), Table::num(100 * g0c, 1),
                      Table::num(100 * g1g, 1),
                      Table::num(100 * g1c, 1)});
        }

        std::printf("%-9s makespan %llu cycles (%.4f ms), fabric %llu "
                    "remote reqs\n",
                    placementName(p),
                    static_cast<unsigned long long>(r.cycles),
                    cfg.gpu.cyclesToMs(r.cycles),
                    static_cast<unsigned long long>(
                        machine.fabric().requestsAccepted()));
    }

    std::printf("\n");
    t.emit("fig16_mgpu_occupancy.csv");
    return 0;
}
