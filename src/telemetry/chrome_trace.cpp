#include "telemetry/chrome_trace.hpp"

#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "common/logging.hpp"

namespace crisp
{
namespace telemetry
{

namespace
{

/** Escape a string for embedding in a JSON string literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

class TraceWriter
{
  public:
    void
    append(const std::string &name, const char *ph, Cycle ts, uint64_t pid,
           uint64_t tid, const std::string &extra = "")
    {
        if (!first_) {
            out_ += ",\n";
        }
        first_ = false;
        out_ += logging_detail::formatMessage(
            "{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%llu,\"pid\":%llu,"
            "\"tid\":%llu%s%s}",
            jsonEscape(name).c_str(), ph,
            static_cast<unsigned long long>(ts),
            static_cast<unsigned long long>(pid),
            static_cast<unsigned long long>(tid),
            extra.empty() ? "" : ",", extra.c_str());
    }

    void
    metadata(const char *what, const std::string &name, uint64_t pid,
             uint64_t tid)
    {
        append(what, "M", 0, pid, tid,
               logging_detail::formatMessage(
                   "\"args\":{\"name\":\"%s\"}",
                   jsonEscape(name).c_str()));
    }

    std::string
    finish()
    {
        return "[\n" + out_ + "\n]\n";
    }

  private:
    std::string out_;
    bool first_ = true;
};

// Machine-track (pid 0) tids per event kind.
constexpr uint64_t kTidRepartition = 0;
constexpr uint64_t kTidTapWindow = 1;
constexpr uint64_t kTidMissBurst = 2;
constexpr uint64_t kTidRowConflict = 3;

// Per-stream-process tids.
constexpr uint64_t kTidKernels = 0;
constexpr uint64_t kTidDrawcalls = 1;
constexpr uint64_t kTidSmBase = 2;

// Devices are separated by pid range: device d's machine process sits at
// d*kPidStride and its stream processes at d*kPidStride + stream + 1.
// Stream ids are machine-global (MultiGpu spaces them by its stream-id
// stride), so stream pids cannot collide across devices either way.
constexpr uint64_t kPidStride = 1ull << 20;

/** Emit one sink's events with all pids offset by @p pid_base and the
 *  process names prefixed by @p prefix (e.g. "gpu1 "). */
void
appendSink(TraceWriter &w, const TelemetrySink &sink, uint64_t pid_base,
           const std::string &prefix)
{
    const std::vector<Event> events = sink.events();

    // Process/thread metadata. SM thread names are derived from the CTA
    // events actually present so the exporter needs no machine config.
    w.metadata("process_name", prefix + "gpu", pid_base, 0);
    w.metadata("thread_name", "repartition", pid_base, kTidRepartition);
    w.metadata("thread_name", "tap-window", pid_base, kTidTapWindow);
    w.metadata("thread_name", "l2-miss-bursts", pid_base, kTidMissBurst);
    w.metadata("thread_name", "dram-row-conflicts", pid_base,
               kTidRowConflict);
    for (const auto &[id, name] : sink.streams()) {
        const uint64_t pid = pid_base + static_cast<uint64_t>(id) + 1;
        w.metadata("process_name", prefix + "stream " + name, pid, 0);
        w.metadata("thread_name", "kernels", pid, kTidKernels);
        w.metadata("thread_name", "drawcalls", pid, kTidDrawcalls);
    }
    std::set<std::pair<uint64_t, uint32_t>> sm_tracks;
    for (const Event &e : events) {
        if (e.kind == EventKind::CtaDispatch ||
            e.kind == EventKind::CtaRetire) {
            const uint64_t pid =
                pid_base + static_cast<uint64_t>(e.stream) + 1;
            if (sm_tracks.emplace(pid, e.unit).second) {
                w.metadata("thread_name",
                           logging_detail::formatMessage("sm%u", e.unit),
                           pid, kTidSmBase + e.unit);
            }
        }
    }

    // Pair begin/end kinds into duration events; everything else becomes
    // an instant on its track.
    std::map<std::pair<StreamId, uint64_t>, Event> open_kernels;
    std::map<std::pair<StreamId, uint64_t>, Event> open_drawcalls;
    for (const Event &e : events) {
        const uint64_t pid = pid_base + static_cast<uint64_t>(e.stream) + 1;
        switch (e.kind) {
          case EventKind::KernelLaunch:
            open_kernels[{e.stream, e.a}] = e;
            break;
          case EventKind::KernelComplete: {
            auto it = open_kernels.find({e.stream, e.a});
            if (it == open_kernels.end()) {
                break;   // launch fell out of the ring
            }
            w.append(sink.name(static_cast<uint32_t>(e.b)), "X",
                     it->second.cycle, pid, kTidKernels,
                     logging_detail::formatMessage(
                         "\"dur\":%llu,\"args\":{\"kernel\":%llu}",
                         static_cast<unsigned long long>(
                             e.cycle - it->second.cycle),
                         static_cast<unsigned long long>(e.a)));
            open_kernels.erase(it);
            break;
          }
          case EventKind::DrawcallBegin:
            open_drawcalls[{e.stream, e.a}] = e;
            break;
          case EventKind::DrawcallEnd: {
            auto it = open_drawcalls.find({e.stream, e.a});
            if (it == open_drawcalls.end()) {
                break;
            }
            w.append(sink.name(static_cast<uint32_t>(e.b)), "X",
                     it->second.cycle, pid, kTidDrawcalls,
                     logging_detail::formatMessage(
                         "\"dur\":%llu,\"args\":{\"drawcall\":%llu}",
                         static_cast<unsigned long long>(
                             e.cycle - it->second.cycle),
                         static_cast<unsigned long long>(e.a)));
            open_drawcalls.erase(it);
            break;
          }
          case EventKind::CtaDispatch:
          case EventKind::CtaRetire:
            w.append(eventKindName(e.kind), "i", e.cycle, pid,
                     kTidSmBase + e.unit,
                     logging_detail::formatMessage(
                         "\"s\":\"t\",\"args\":{\"kernel\":%llu,\"cta\":"
                         "%llu}",
                         static_cast<unsigned long long>(e.a),
                         static_cast<unsigned long long>(e.b)));
            break;
          case EventKind::Repartition:
            w.append(eventKindName(e.kind), "i", e.cycle, pid_base,
                     kTidRepartition,
                     logging_detail::formatMessage(
                         "\"s\":\"p\",\"args\":{\"shareA_permille\":%llu}",
                         static_cast<unsigned long long>(e.a)));
            break;
          case EventKind::TapWindow:
            w.append(eventKindName(e.kind), "i", e.cycle, pid_base,
                     kTidTapWindow,
                     logging_detail::formatMessage(
                         "\"s\":\"p\",\"args\":{\"gfxSets\":%llu,"
                         "\"computeSets\":%llu}",
                         static_cast<unsigned long long>(e.a),
                         static_cast<unsigned long long>(e.b)));
            break;
          case EventKind::MissBurst:
            w.append(eventKindName(e.kind), "i", e.cycle, pid_base,
                     kTidMissBurst,
                     logging_detail::formatMessage(
                         "\"s\":\"p\",\"args\":{\"bank\":%u,\"stream\":%u,"
                         "\"streak\":%llu}",
                         e.unit, e.stream,
                         static_cast<unsigned long long>(e.a)));
            break;
          case EventKind::RowConflictBurst:
            w.append(eventKindName(e.kind), "i", e.cycle, pid_base,
                     kTidRowConflict,
                     logging_detail::formatMessage(
                         "\"s\":\"p\",\"args\":{\"conflicts\":%llu}",
                         static_cast<unsigned long long>(e.a)));
            break;
          default:
            break;
        }
    }

    // Kernels/drawcalls still open at export time: emit as zero-length
    // markers so a truncated run is still visible on the timeline.
    for (const auto &[key, e] : open_kernels) {
        w.append(sink.name(static_cast<uint32_t>(e.b)) + " (running)", "i",
                 e.cycle, pid_base + static_cast<uint64_t>(e.stream) + 1,
                 kTidKernels, "\"s\":\"t\"");
    }
    for (const auto &[key, e] : open_drawcalls) {
        w.append(sink.name(static_cast<uint32_t>(e.b)) + " (running)", "i",
                 e.cycle, pid_base + static_cast<uint64_t>(e.stream) + 1,
                 kTidDrawcalls, "\"s\":\"t\"");
    }
}

} // namespace

std::string
chromeTraceJson(const TelemetrySink &sink)
{
    TraceWriter w;
    appendSink(w, sink, 0, "");
    return w.finish();
}

std::string
chromeTraceJson(const std::vector<const TelemetrySink *> &sinks)
{
    TraceWriter w;
    for (size_t d = 0; d < sinks.size(); ++d) {
        if (sinks[d] == nullptr) {
            continue;
        }
        appendSink(w, *sinks[d], d * kPidStride,
                   sinks.size() == 1
                       ? std::string()
                       : logging_detail::formatMessage("gpu%zu ", d));
    }
    return w.finish();
}

bool
writeChromeTrace(const TelemetrySink &sink, const std::string &path)
{
    return writeChromeTrace(chromeTraceJson(sink), path);
}

bool
writeChromeTrace(const std::vector<const TelemetrySink *> &sinks,
                 const std::string &path)
{
    return writeChromeTrace(chromeTraceJson(sinks), path);
}

bool
writeChromeTrace(const std::string &json, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot open %s for writing", path.c_str());
        return false;
    }
    const size_t written = std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    if (written != json.size()) {
        warn("short write to %s", path.c_str());
        return false;
    }
    return true;
}

} // namespace telemetry
} // namespace crisp
