#ifndef CRISP_TELEMETRY_CHROME_TRACE_HPP
#define CRISP_TELEMETRY_CHROME_TRACE_HPP

#include <string>
#include <vector>

#include "telemetry/sink.hpp"

namespace crisp
{
namespace telemetry
{

/**
 * Render a sink's retained events as Chrome trace_event JSON (the JSON
 * Array Format), loadable in Perfetto / chrome://tracing.
 *
 * Track mapping:
 *  - pid 0 is the machine ("gpu"): repartition / TAP-window decisions, L2
 *    miss bursts and DRAM row-conflict bursts, one tid per event kind;
 *  - each stream is a process (pid = stream id + 1) named after it:
 *    tid 0 carries kernels and tid 1 drawcalls as duration ("X") events,
 *    tid 2+k is SM k, carrying CTA dispatch/retire instants.
 *
 * Timestamps are simulated cycles, not microseconds: 1 ts unit = 1 core
 * cycle. Kernels whose launch or completion fell out of the ring are
 * skipped (only complete pairs become durations).
 */
std::string chromeTraceJson(const TelemetrySink &sink);

/**
 * Multi-device variant: sinks[d] is device d's sink (null entries are
 * skipped). Device d's tracks keep the single-sink mapping but live in
 * their own pid range (machine process at d*2^20, streams behind it)
 * with process names prefixed "gpu<d> ", so an N-GPU run renders as N
 * labelled process groups on one shared timeline. One sink renders
 * exactly as the single-sink overload.
 */
std::string chromeTraceJson(const std::vector<const TelemetrySink *> &sinks);

/** Write chromeTraceJson to @p path; false (with a warning) on failure. */
bool writeChromeTrace(const TelemetrySink &sink, const std::string &path);

/** Multi-device writeChromeTrace. */
bool writeChromeTrace(const std::vector<const TelemetrySink *> &sinks,
                      const std::string &path);

/** Write already-rendered trace JSON to @p path. */
bool writeChromeTrace(const std::string &json, const std::string &path);

} // namespace telemetry
} // namespace crisp

#endif // CRISP_TELEMETRY_CHROME_TRACE_HPP
