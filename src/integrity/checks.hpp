#ifndef CRISP_INTEGRITY_CHECKS_HPP
#define CRISP_INTEGRITY_CHECKS_HPP

#include <functional>
#include <vector>

#include "core/sm.hpp"
#include "integrity/report.hpp"
#include "mem/l2_subsystem.hpp"

namespace crisp
{
namespace integrity
{

/**
 * Cross-layer invariant checkers over the machine's memory fabric and
 * cores. The Gpu runs them on every watchdog tick; each appends
 * violations instead of panicking so the caller decides the on-hang
 * policy and can bundle everything into one HangReport.
 */

/**
 * Conservation of in-flight memory reads, checked two ways:
 *  1. cumulative, L2-side, per L2: reads accepted == responses delivered
 *     + outstanding (bank queues + MSHR targets + response queue);
 *  2. structural, cross-layer, over the whole machine: every outstanding
 *     L1 MSHR line must have exactly one representative in its SM's
 *     retry queue, in some L2 subsystem, or among the @p fabric_reads
 *     reads in flight between devices (0 for a single GPU).
 * A dropped response breaks both; a leaked-but-consistent MSHR entry
 * breaks neither (the age-based leak scan exists for that).
 */
void checkConservation(const std::vector<const Sm *> &sms,
                       const std::vector<const L2Subsystem *> &l2s,
                       uint64_t fabric_reads, Cycle now,
                       std::vector<InvariantViolation> &out);

/**
 * Per-SM resource accounting audit (tracked vs recomputed vs quota), plus
 * the issue-stage missed-wake check (an SM asleep past @p now + 1 with a
 * warp that could issue then).
 */
void checkSmAccounting(const std::vector<const Sm *> &sms, Cycle now,
                       std::vector<InvariantViolation> &out);

/**
 * Bounded-stall invariant over the fabric-retry queues: the round-robin
 * arbiter guarantees every SM a grant per round, so no parked request
 * should ever wait anywhere near @p bound cycles (the caller derives it
 * from the arbitration worst case times a safety factor; see
 * RunOptions::retryWaitBoundFactor). One "fabric-retry-starvation"
 * violation per offending SM, naming the age and the bound.
 */
void checkBoundedRetryWait(const std::vector<const Sm *> &sms, Cycle now,
                           Cycle bound,
                           std::vector<InvariantViolation> &out);

/**
 * MSHR leak scan over every SM's L1 MSHR and the L2's banked MSHRs. An
 * entry is leaked when it is older than @p max_age *and* orphaned —
 * nothing between the SM and DRAM (fabric-retry queue, bank queues,
 * merged L2 MSHR target, pending fill or response) will ever complete
 * it. Age alone is not enough: under DRAM saturation a live request can
 * legitimately queue for tens of thousands of cycles (the divergent-
 * gather scenarios do this), while a dropped fill or response leaves no
 * in-flight trace. Returns structured rows (for the HangReport) and
 * appends one violation per leaked entry, naming the line address and
 * the owning SM/bank — the acceptance-test contract for dropped-fill
 * hangs. On a multi-GPU machine @p live_elsewhere answers whether an L1
 * entry's read is live beyond this device (on the fabric or at a peer).
 */
std::vector<HangReport::MshrLeakRow>
findMshrLeaks(const std::vector<const Sm *> &sms, const L2Subsystem &l2,
              Cycle now, Cycle max_age,
              std::vector<InvariantViolation> *out,
              const std::function<bool(uint32_t sm, Addr line)>
                  &live_elsewhere = {});

/** Build a HangReport SM row from a live SM. */
HangReport::SmRow smRow(const Sm &sm, Cycle now);

/** Fill the report's memory-system row from the L2 subsystem. */
HangReport::MemRow memRow(const L2Subsystem &l2, Cycle now);

} // namespace integrity
} // namespace crisp

#endif // CRISP_INTEGRITY_CHECKS_HPP
