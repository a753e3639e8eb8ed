#ifndef CRISP_ENGINE_ENGINE_CONFIG_HPP
#define CRISP_ENGINE_ENGINE_CONFIG_HPP

#include <cstdint>

namespace crisp
{
namespace engine
{

/**
 * Cycle-engine configuration: how the per-cycle work of the GPU model is
 * scheduled onto host threads.
 *
 * The default (one thread, no staging, no fast-forward) is the bit-exact
 * legacy path: SMs step serially and talk to the L2 fabric directly.
 * Raising `threads` shards SM stepping across a persistent worker pool
 * with deterministic merge points, so simulation outputs are identical
 * for any thread count (see docs/ARCHITECTURE.md, "Parallel cycle
 * engine").
 */
struct EngineConfig
{
    /**
     * Worker lanes stepping SM shards (including the calling thread).
     * 0 and 1 both mean serial execution. Values above the SM count are
     * clamped: an SM is the unit of sharding. Values above the host's
     * core count are also clamped (oversubscribed lanes time-slice one
     * core and the per-cycle barrier makes that strictly slower than
     * serial) unless allowOversubscribe is set.
     */
    uint32_t threads = 1;

    /**
     * Permit more lanes than host cores. Engine outputs are identical
     * for any thread count, so determinism/stress tests set this to
     * exercise the multi-lane code paths on small hosts; performance
     * runs leave it off and get the clamp.
     */
    bool allowOversubscribe = false;

    /**
     * Force staged fabric semantics even when stepping serially. With
     * more than one thread staging is always on; this knob exists so
     * determinism tests can run the staged path at one thread and prove
     * the outputs do not depend on the thread count.
     */
    bool stagedFabric = false;

    /**
     * Idle-cycle fast-forward: when a tick performs no work anywhere in
     * the machine, compute the earliest cycle at which anything can
     * happen (writeback, L2/DRAM event, kernel promotion, counter
     * sample, controller epoch) and jump there in one step, crediting
     * the skipped cycles to the per-stream active-cycle counters. It
     * is exact, so it is always on; fault injection disarms it. Only
     * the tick-vs-jump differential tests (their ticked reference),
     * bench/engine_throughput (a cycle-loop figure) and perfbench set
     * the field, and it goes once perfbench stops setting it.
     */
    bool fastForward = true;

    /** True when SM stepping must stage instead of submitting directly. */
    bool staged() const { return threads > 1 || stagedFabric; }
};

} // namespace engine
} // namespace crisp

#endif // CRISP_ENGINE_ENGINE_CONFIG_HPP
