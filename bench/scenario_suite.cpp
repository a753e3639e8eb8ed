/**
 * @file
 * Scenario-driven golden bench: runs the three checked-in stress
 * scenarios (deforming flag, ray traversal, game + inference) end to end
 * through the scenario loader and pins their counters. The suite proves
 * the data-driven path — loader, builders, arrival schedules — produces
 * the same machine behaviour run over run; any drift in the generators
 * or the scheduler shows up as a golden diff naming the scenario.
 *
 * Runs from the repository root (the golden suite's working directory)
 * so the scenario files resolve as scenarios/<name>.json.
 */

#include "bench_util.hpp"
#include "scenario/build.hpp"
#include "scenario/scenario.hpp"

using namespace crisp;
using namespace crisp::bench;

namespace
{

struct Row
{
    const char *file;
    uint64_t gfxKernels = 0;
    uint64_t cmpKernels = 0;
    Cycle cycles = 0;
    uint64_t instructions = 0;
    uint64_t dramReads = 0;
    uint64_t dramWrites = 0;
};

Row
runScenario(const char *file)
{
    Row row;
    row.file = file;

    scenario::Scenario sc;
    scenario::ScenarioError err;
    fatal_if(!scenario::loadScenarioFile(
                 std::string("scenarios/") + file, sc, err),
             "%s", err.str().c_str());

    Gpu gpu(scenario::gpuConfigFor(sc));

    AddressSpace heap;
    scenario::Materialized mat;
    const scenario::SubmitResult sr =
        scenario::submitScenario(sc, gpu, heap, mat);
    const auto r = runAudited(gpu, 8'000'000'000ull);
    fatal_if(!r.completed, "scenario %s did not drain", file);

    row.cycles = r.cycles;
    if (sr.gfx != kInvalidStream) {
        row.gfxKernels = gpu.stats().stream(sr.gfx).kernelsCompleted;
    }
    if (sr.cmp != kInvalidStream) {
        row.cmpKernels = gpu.stats().stream(sr.cmp).kernelsCompleted;
    }
    row.instructions = gpu.stats().sumOver(&StreamStats::instructions);
    row.dramReads = gpu.stats().sumOver(&StreamStats::dramReads);
    row.dramWrites = gpu.stats().sumOver(&StreamStats::dramWrites);
    return row;
}

} // namespace

int
main()
{
    setVerbose(false);
    header("Scenario suite", "checked-in stress scenarios, counters pinned");

    const char *files[] = {
        "deforming_flag.json",
        "ray_traversal.json",
        "game_inference.json",
    };

    Table t({"scenario", "gfx kernels", "cmp kernels", "cycles",
             "instructions", "dram reads", "dram writes"});
    for (const char *f : files) {
        const Row row = runScenario(f);
        t.addRow({row.file, std::to_string(row.gfxKernels),
                  std::to_string(row.cmpKernels),
                  std::to_string(row.cycles),
                  std::to_string(row.instructions),
                  std::to_string(row.dramReads),
                  std::to_string(row.dramWrites)});
    }
    t.emit("scenario_suite.csv");
    return 0;
}
