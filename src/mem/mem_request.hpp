#ifndef CRISP_MEM_MEM_REQUEST_HPP
#define CRISP_MEM_MEM_REQUEST_HPP

#include <cstdint>

#include "common/types.hpp"

namespace crisp
{

/** "No L2 bank": a refusal that must be re-polled every cycle. */
constexpr uint32_t kNoBank = ~0u;

/**
 * A cache-line-granularity memory request flowing between an SM and the
 * L2/DRAM subsystem.
 *
 * Requests are created by the LDST unit after coalescing, carry the issuing
 * SM and a completion key so responses can wake the right warp instruction,
 * and are tagged with the stream and data class for per-stream statistics
 * and L2 composition accounting.
 */
struct MemRequest
{
    Addr line = 0;              ///< 128 B aligned line address.
    bool write = false;
    StreamId stream = 0;
    DataClass dataClass = DataClass::Unknown;
    uint32_t smId = 0;
    /**
     * Opaque completion key assigned by the issuing SM; responses echo it.
     * Writes use kNoCompletion and are fire-and-forget.
     */
    uint64_t completionKey = kNoCompletion;
    Cycle readyAt = 0;          ///< Earliest cycle the current stage may act.
    /**
     * Device that issued the request. Stamped by the owning Gpu on submit
     * and echoed by the L2 in the response, so a multi-GPU fabric can
     * route a remote fill back to the requesting device. Single-GPU runs
     * leave it 0 throughout.
     */
    uint32_t srcDevice = 0;

    static constexpr uint64_t kNoCompletion = ~0ull;

    bool expectsResponse() const { return completionKey != kNoCompletion; }
};

} // namespace crisp

#endif // CRISP_MEM_MEM_REQUEST_HPP
