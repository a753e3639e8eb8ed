#include "service/job.hpp"

#include <cstring>

#include "common/logging.hpp"

namespace crisp::service
{

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Completed: return "completed";
      case JobState::Failed: return "failed";
      case JobState::Cancelled: return "cancelled";
      case JobState::TimedOut: return "timed-out";
      case JobState::OverQuota: return "over-quota";
      case JobState::Hung: return "hung";
    }
    return "?";
}

bool
jobStateTerminal(JobState s)
{
    return s != JobState::Queued && s != JobState::Running;
}

namespace
{

JobState
stateFromName(const std::string &name)
{
    for (JobState s : {JobState::Queued, JobState::Running,
                       JobState::Completed, JobState::Failed,
                       JobState::Cancelled, JobState::TimedOut,
                       JobState::OverQuota, JobState::Hung}) {
        if (name == jobStateName(s)) {
            return s;
        }
    }
    return JobState::Failed;
}

} // namespace

JobSpec
JobSpec::fromJson(const Json &j)
{
    JobSpec spec;
    spec.name = j.at("name").asString();
    if (const Json *g = j.find("gpu")) {
        spec.gpuPreset = g->asString();
    }
    spec.numSms = static_cast<uint32_t>(j.at("num_sms").asU64(0));
    spec.tracePath = j.at("trace").asString();
    spec.scenarioText = j.at("scenario").asString();
    if (const Json *q = j.find("quota")) {
        spec.quota.maxCycles = q->at("max_cycles").asU64(
            spec.quota.maxCycles);
        spec.quota.maxWallSec = q->at("max_wall_sec").asDouble(
            spec.quota.maxWallSec);
        spec.quota.maxEngineThreads = static_cast<uint32_t>(
            q->at("max_threads").asU64(spec.quota.maxEngineThreads));
    }
    if (const Json *f = j.find("fault")) {
        spec.fault.enabled = true;
        spec.fault.seed = f->at("seed").asU64(spec.fault.seed);
        spec.fault.freezeSmAt = f->at("freeze_sm_at").asU64(0);
        spec.fault.corruptNthDependency = static_cast<uint32_t>(
            f->at("corrupt_dependency").asU64(0));
        spec.fault.dropFillProb = f->at("drop_fill_prob").asDouble(0.0);
    }
    return spec;
}

Json
JobSpec::toJson() const
{
    Json j = Json::object();
    j.set("name", Json::str(name));
    if (!scenarioText.empty()) {
        j.set("scenario", Json::str(scenarioText));
    }
    if (!tracePath.empty()) {
        j.set("trace", Json::str(tracePath));
        j.set("gpu", Json::str(gpuPreset));
        if (numSms != 0) {
            j.set("num_sms", Json::number(uint64_t{numSms}));
        }
    }
    Json q = Json::object();
    q.set("max_cycles", Json::number(quota.maxCycles));
    q.set("max_wall_sec", Json::number(quota.maxWallSec));
    q.set("max_threads", Json::number(uint64_t{quota.maxEngineThreads}));
    j.set("quota", std::move(q));
    if (fault.enabled) {
        Json f = Json::object();
        f.set("seed", Json::number(fault.seed));
        if (fault.freezeSmAt != 0) {
            f.set("freeze_sm_at", Json::number(fault.freezeSmAt));
        }
        if (fault.corruptNthDependency != 0) {
            f.set("corrupt_dependency",
                  Json::number(uint64_t{fault.corruptNthDependency}));
        }
        if (fault.dropFillProb != 0.0) {
            f.set("drop_fill_prob", Json::number(fault.dropFillProb));
        }
        j.set("fault", std::move(f));
    }
    return j;
}

Json
JobReport::toJson() const
{
    Json j = Json::object();
    j.set("id", Json::number(id));
    j.set("name", Json::str(name));
    j.set("state", Json::str(jobStateName(state)));
    j.set("message", Json::str(message));
    j.set("retries", Json::number(uint64_t{retries}));
    j.set("cycles", Json::number(cycles));
    j.set("wall_sec", Json::number(wallSec));
    j.set("instructions", Json::number(instructions));
    j.set("kernels_completed", Json::number(kernelsCompleted));
    Json v = Json::array();
    for (const std::string &check : violations) {
        v.push(Json::str(check));
    }
    j.set("violations", std::move(v));
    Json streams_json = Json::array();
    for (const auto &[sid, st] : streams) {
        Json s = Json::object();
        s.set("id", Json::number(uint64_t{sid}));
        for (const StreamStatsField &f : kStreamStatsFields) {
            s.set(f.name, Json::number(st.*f.member));
        }
        streams_json.push(std::move(s));
    }
    j.set("streams", std::move(streams_json));
    return j;
}

JobReport
JobReport::fromJson(const Json &j)
{
    JobReport r;
    r.id = j.at("id").asU64(0);
    r.name = j.at("name").asString();
    r.state = stateFromName(j.at("state").asString());
    r.message = j.at("message").asString();
    r.retries = static_cast<uint32_t>(j.at("retries").asU64(0));
    r.cycles = j.at("cycles").asU64(0);
    r.wallSec = j.at("wall_sec").asDouble(0.0);
    r.instructions = j.at("instructions").asU64(0);
    r.kernelsCompleted = j.at("kernels_completed").asU64(0);
    for (const Json &v : j.at("violations").items()) {
        r.violations.push_back(v.asString());
    }
    for (const Json &s : j.at("streams").items()) {
        StreamStats &st =
            r.streams[static_cast<StreamId>(s.at("id").asU64(0))];
        for (const StreamStatsField &f : kStreamStatsFields) {
            st.*f.member = s.at(f.name).asU64(0);
        }
    }
    return r;
}

} // namespace crisp::service
