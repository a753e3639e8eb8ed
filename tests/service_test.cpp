#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "integrity/report.hpp"
#include "mgpu/multi_gpu.hpp"
#include "scenario/build.hpp"
#include "scenario/scenario.hpp"
#include "service/chaos.hpp"
#include "service/job.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/retry.hpp"
#include "service/server.hpp"
#include "traceio/writer.hpp"
#include "workloads/compute.hpp"

namespace crisp
{
namespace
{

using namespace crisp::service;

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

void
writeBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<uint8_t>
readBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(f)),
                                std::istreambuf_iterator<char>());
}

/**
 * A micro-kernel scenario: one explicit kernel of @p ctas 128-thread
 * CTAs (32 regs, 8 fp32 + 2 int ops per iteration) with one broadcast
 * load over a 16 KiB buffer.
 */
std::string
microScenario(uint32_t ctas = 2, uint32_t iterations = 2)
{
    return R"({
        "crisp_scenario": 1, "name": "micro",
        "compute": {
            "buffers": [ { "name": "b", "bytes": 16384 } ],
            "kernels": [ { "name": "micro", "ctas": )" +
        std::to_string(ctas) + R"(,
                "threads_per_cta": 128, "regs_per_thread": 32,
                "iterations": )" +
        std::to_string(iterations) + R"(,
                "fp32_ops": 8, "int_ops": 2,
                "loads": [ { "buffer": "b", "pattern": "broadcast" } ] } ]
        }
    })";
}

/** A tiny valid micro-kernel job (~600 simulated cycles). */
JobSpec
microSpec(const char *name = "micro", uint32_t ctas = 2,
          uint32_t iterations = 2)
{
    JobSpec spec;
    spec.name = name;
    spec.scenarioText = microScenario(ctas, iterations);
    return spec;
}

/**
 * A job guaranteed to make no forward progress: SM 0's issue stage
 * freezes at cycle 64. Under the server's default hang threshold the
 * watchdog contains it as Hung; with a huge threshold it just burns
 * cycles until something else (deadline, cancel, cycle quota) stops
 * it — which is exactly what the deadline/cancel/queue tests need.
 */
JobSpec
frozenSpec(const char *name = "frozen")
{
    JobSpec spec = microSpec(name, 2, 64);
    spec.fault.enabled = true;
    spec.fault.freezeSmAt = 64;
    return spec;
}

/** Pack a small valid compute kernel as a CRTR trace file. */
std::string
writeSmallTrace(const char *name)
{
    ComputeKernelDesc desc;
    desc.name = "svc-trace";
    desc.ctas = 2;
    desc.threadsPerCta = 64;
    desc.regsPerThread = 32;
    desc.iterations = 2;
    desc.fp32Ops = 4;
    desc.intOps = 2;
    const KernelInfo kernel = buildComputeKernel(desc);
    const std::string path = tempPath(name);
    traceio::TraceError err;
    EXPECT_TRUE(traceio::writeTrace(path, "service-test", {kernel}, {-1},
                                    1 << 20, err))
        << err.render();
    return path;
}

// --- JSON -----------------------------------------------------------------

TEST(ServiceJson, RoundTripNestedDocument)
{
    Json doc = Json::object();
    doc.set("name", Json::str("line1\nline2\t\"quoted\""));
    doc.set("count", Json::number(uint64_t{123456789}));
    doc.set("ratio", Json::number(0.25));
    doc.set("flag", Json::boolean(true));
    doc.set("none", Json::null());
    Json arr = Json::array();
    arr.push(Json::number(uint64_t{1}));
    arr.push(Json::str("two"));
    Json inner = Json::object();
    inner.set("deep", Json::boolean(false));
    arr.push(std::move(inner));
    doc.set("items", std::move(arr));

    const std::string text = doc.dump();
    // Protocol lines must be single-line even when strings carry \n.
    EXPECT_EQ(text.find('\n'), std::string::npos);

    Json back;
    std::string err;
    ASSERT_TRUE(Json::parse(text, back, err)) << err;
    EXPECT_EQ(back.at("name").asString(), "line1\nline2\t\"quoted\"");
    EXPECT_EQ(back.at("count").asU64(), 123456789u);
    EXPECT_DOUBLE_EQ(back.at("ratio").asDouble(), 0.25);
    EXPECT_TRUE(back.at("flag").asBool());
    EXPECT_TRUE(back.at("none").isNull());
    ASSERT_EQ(back.at("items").items().size(), 3u);
    EXPECT_EQ(back.at("items").items()[1].asString(), "two");
    EXPECT_FALSE(back.at("items").items()[2].at("deep").asBool(true));
}

TEST(ServiceJson, MalformedInputsAreRejectedNotCrashes)
{
    const char *bad[] = {
        "",
        "{",
        "}",
        "{\"a\":}",
        "{\"a\":1,}",
        "[1,2",
        "\"unterminated",
        "{\"a\" 1}",
        "nul",
        "truex",
        "{\"a\":1} trailing",
        "\"bad escape \\q\"",
        "{\"dup\":1 \"dup\":2}",
        "01",
        "- 1",
        "\x01",
    };
    for (const char *text : bad) {
        Json out;
        std::string err;
        EXPECT_FALSE(Json::parse(text, out, err))
            << "accepted: " << text;
        EXPECT_FALSE(err.empty());
    }
}

TEST(ServiceJson, NumberAccessorsFallBackOnMismatch)
{
    Json doc;
    std::string err;
    ASSERT_TRUE(Json::parse(
        "{\"neg\":-4,\"frac\":1.5,\"big\":4294967296,\"s\":\"7\"}", doc,
        err))
        << err;
    // asU64 refuses negatives and non-integers, not just non-numbers.
    EXPECT_EQ(doc.at("neg").asU64(99), 99u);
    EXPECT_EQ(doc.at("frac").asU64(99), 99u);
    EXPECT_EQ(doc.at("big").asU64(), 4294967296ull);
    EXPECT_EQ(doc.at("s").asU64(99), 99u);
    EXPECT_DOUBLE_EQ(doc.at("neg").asDouble(), -4.0);
    EXPECT_EQ(doc.find("missing"), nullptr);
    EXPECT_TRUE(doc.at("missing").isNull());
}

// --- Retry backoff --------------------------------------------------------

TEST(ServiceRetry, BackoffIsBoundedAndCapped)
{
    RetryPolicy policy;
    policy.baseDelaySec = 0.01;
    policy.maxDelaySec = 0.05;
    Rng rng(42);
    for (uint32_t attempt = 0; attempt < 16; ++attempt) {
        const double ceiling =
            std::min(policy.baseDelaySec * double(1ull << attempt),
                     policy.maxDelaySec);
        for (int trial = 0; trial < 50; ++trial) {
            const double d = backoffDelaySec(policy, attempt, rng);
            EXPECT_GE(d, 0.0);
            EXPECT_LT(d, ceiling + 1e-12)
                << "attempt " << attempt;
        }
    }
}

TEST(ServiceRetry, BackoffIsDeterministicGivenTheRng)
{
    RetryPolicy policy;
    Rng a(7), b(7);
    for (uint32_t attempt = 0; attempt < 8; ++attempt) {
        EXPECT_DOUBLE_EQ(backoffDelaySec(policy, attempt, a),
                         backoffDelaySec(policy, attempt, b));
    }
}

// --- Chaos planning -------------------------------------------------------

TEST(ServiceChaos, PlansAreDeterministicPerJobId)
{
    ChaosConfig cfg;
    cfg.seed = 0xc4a05;
    ChaosMonkey monkey(cfg);
    ASSERT_TRUE(monkey.enabled());
    for (JobId id = 1; id <= 64; ++id) {
        const ChaosPlan x = monkey.planFor(id);
        const ChaosPlan y = monkey.planFor(id);
        EXPECT_EQ(x.injectFault, y.injectFault);
        EXPECT_EQ(x.corruptCache, y.corruptCache);
        EXPECT_DOUBLE_EQ(x.disconnectAfterSec, y.disconnectAfterSec);
        EXPECT_EQ(x.fault.seed, y.fault.seed);
        EXPECT_LE(x.disconnectAfterSec, cfg.maxDisconnectDelaySec);
    }
}

TEST(ServiceChaos, SeedZeroDisablesEverything)
{
    ChaosMonkey monkey(ChaosConfig{});
    EXPECT_FALSE(monkey.enabled());
    for (JobId id = 1; id <= 16; ++id) {
        const ChaosPlan p = monkey.planFor(id);
        EXPECT_FALSE(p.injectFault);
        EXPECT_FALSE(p.corruptCache);
        EXPECT_LT(p.disconnectAfterSec, 0.0);
    }
}

// --- Job spec / report serialization --------------------------------------

TEST(ServiceJob, SpecJsonRoundTrip)
{
    JobSpec spec = microSpec("rt", 3, 5);
    spec.quota.maxCycles = 123456;
    spec.quota.maxWallSec = 2.5;
    spec.quota.maxEngineThreads = 2;
    spec.fault.enabled = true;
    spec.fault.seed = 99;
    spec.fault.freezeSmAt = 1000;
    spec.fault.dropFillProb = 0.125;

    const JobSpec back = JobSpec::fromJson(spec.toJson());
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.scenarioText, spec.scenarioText);
    EXPECT_TRUE(back.tracePath.empty());
    EXPECT_EQ(back.quota.maxCycles, spec.quota.maxCycles);
    EXPECT_DOUBLE_EQ(back.quota.maxWallSec, spec.quota.maxWallSec);
    EXPECT_EQ(back.quota.maxEngineThreads, spec.quota.maxEngineThreads);
    EXPECT_EQ(back.fault.enabled, spec.fault.enabled);
    EXPECT_EQ(back.fault.seed, spec.fault.seed);
    EXPECT_EQ(back.fault.freezeSmAt, spec.fault.freezeSmAt);
    EXPECT_DOUBLE_EQ(back.fault.dropFillProb, spec.fault.dropFillProb);
}

TEST(ServiceJob, TraceSpecJsonRoundTripKeepsItsMachine)
{
    JobSpec spec;
    spec.name = "rt-trace";
    spec.tracePath = "/tmp/run.crtr";
    spec.gpuPreset = "orin";
    spec.numSms = 4;

    const JobSpec back = JobSpec::fromJson(spec.toJson());
    EXPECT_EQ(back.tracePath, spec.tracePath);
    EXPECT_TRUE(back.scenarioText.empty());
    EXPECT_EQ(back.gpuPreset, spec.gpuPreset);
    EXPECT_EQ(back.numSms, spec.numSms);
}

TEST(ServiceJob, ReportJsonRoundTrip)
{
    JobReport rep;
    rep.id = 17;
    rep.name = "boom";
    rep.state = JobState::Hung;
    rep.message = "no forward progress for 3072 cycles";
    rep.retries = 2;
    rep.cycles = 4096;
    rep.wallSec = 0.75;
    rep.instructions = 1440;
    rep.kernelsCompleted = 1;
    rep.violations = {"counter-l2-fills", "forward-progress"};
    rep.streams[0].instructions = 1000;
    rep.streams[0].firstCycle = 3;
    rep.streams[32].remoteAccesses = 7;
    rep.streams[32].lastCycle = 4095;

    const JobReport back = JobReport::fromJson(rep.toJson());
    EXPECT_EQ(back.id, rep.id);
    EXPECT_EQ(back.name, rep.name);
    EXPECT_EQ(back.state, rep.state);
    EXPECT_EQ(back.message, rep.message);
    EXPECT_EQ(back.retries, rep.retries);
    EXPECT_EQ(back.cycles, rep.cycles);
    EXPECT_DOUBLE_EQ(back.wallSec, rep.wallSec);
    EXPECT_EQ(back.instructions, rep.instructions);
    EXPECT_EQ(back.kernelsCompleted, rep.kernelsCompleted);
    EXPECT_EQ(back.violations, rep.violations);
    ASSERT_EQ(back.streams.size(), 2u);
    EXPECT_EQ(back.streams.at(0).instructions, 1000u);
    EXPECT_EQ(back.streams.at(0).firstCycle, 3u);
    EXPECT_EQ(back.streams.at(32).remoteAccesses, 7u);
    EXPECT_EQ(back.streams.at(32).lastCycle, 4095u);
}

TEST(ServiceJob, StateNamesAndTerminality)
{
    EXPECT_STREQ(jobStateName(JobState::Queued), "queued");
    EXPECT_STREQ(jobStateName(JobState::TimedOut), "timed-out");
    EXPECT_FALSE(jobStateTerminal(JobState::Queued));
    EXPECT_FALSE(jobStateTerminal(JobState::Running));
    EXPECT_TRUE(jobStateTerminal(JobState::Completed));
    EXPECT_TRUE(jobStateTerminal(JobState::Failed));
    EXPECT_TRUE(jobStateTerminal(JobState::Cancelled));
    EXPECT_TRUE(jobStateTerminal(JobState::TimedOut));
    EXPECT_TRUE(jobStateTerminal(JobState::OverQuota));
    EXPECT_TRUE(jobStateTerminal(JobState::Hung));
}

// --- Server fixture -------------------------------------------------------

class ServiceTest : public ::testing::Test
{
  protected:
    /** Small, fast server config suitable for a single-core CI box. */
    ServerConfig
    baseConfig()
    {
        ServerConfig cfg;
        cfg.workers = 2;
        cfg.queueCapacity = 16;
        cfg.retry.baseDelaySec = 0.001;
        cfg.retry.maxDelaySec = 0.01;
        cfg.monitorPeriodSec = 0.002;
        return cfg;
    }

    /** Spin until the server reports @p n running jobs (or time out). */
    static bool
    waitRunning(const JobServer &server, size_t n, double timeout_sec = 5.0)
    {
        const auto deadline = std::chrono::steady_clock::now() +
            std::chrono::duration<double>(timeout_sec);
        while (std::chrono::steady_clock::now() < deadline) {
            if (server.runningJobs() >= n) {
                return true;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return false;
    }
};

// --- Admission control ----------------------------------------------------

TEST_F(ServiceTest, AdmissionValidatesPayloadAndQuota)
{
    JobServer server(baseConfig());

    EXPECT_TRUE(server.admissionError(microSpec()).empty());

    JobSpec none;
    EXPECT_NE(server.admissionError(none).find("malformed"),
              std::string::npos);

    JobSpec both = microSpec();
    both.tracePath = "/tmp/run.crtr";
    EXPECT_NE(server.admissionError(both).find("malformed"),
              std::string::npos);

    JobSpec badPreset;
    badPreset.tracePath = "/tmp/run.crtr";
    badPreset.gpuPreset = "h100";
    EXPECT_NE(server.admissionError(badPreset).find("unknown gpu preset"),
              std::string::npos);

    const JobSpec hugeCtas = microSpec("huge", 8192);
    EXPECT_NE(server.admissionError(hugeCtas).find("ctas out of range"),
              std::string::npos);

    const JobSpec longLoop = microSpec("long", 2, 4096);
    EXPECT_NE(
        server.admissionError(longLoop).find("iterations out of range"),
        std::string::npos);

    JobSpec badProb = microSpec();
    badProb.fault.enabled = true;
    badProb.fault.dropFillProb = 1.5;
    EXPECT_NE(server.admissionError(badProb).find("drop_fill_prob"),
              std::string::npos);

    JobSpec overCycles = microSpec();
    overCycles.quota.maxCycles =
        server.config().maxQuota.maxCycles + 1;
    EXPECT_EQ(server.admissionError(overCycles).rfind("over-quota", 0), 0u);

    JobSpec overWall = microSpec();
    overWall.quota.maxWallSec = server.config().maxQuota.maxWallSec * 2;
    EXPECT_EQ(server.admissionError(overWall).rfind("over-quota", 0), 0u);

    JobSpec overThreads = microSpec();
    overThreads.quota.maxEngineThreads =
        server.config().maxQuota.maxEngineThreads + 1;
    EXPECT_EQ(server.admissionError(overThreads).rfind("over-quota", 0),
              0u);

    JobSpec zeroCycles = microSpec();
    zeroCycles.quota.maxCycles = 0;
    EXPECT_NE(server.admissionError(zeroCycles).find("max_cycles"),
              std::string::npos);

    const JobServer::Counters c = server.counters();
    // admissionError() alone must not move the rejection counters.
    EXPECT_EQ(c.rejectedInvalid + c.rejectedOverQuota, 0u);
}

TEST_F(ServiceTest, SubmitCountsRejectionsByKind)
{
    JobServer server(baseConfig());

    JobSpec invalid;
    const JobServer::Admission a = server.submit(invalid);
    EXPECT_FALSE(a.accepted);
    EXPECT_EQ(a.error.rfind("malformed", 0), 0u);

    JobSpec over = microSpec();
    over.quota.maxCycles = server.config().maxQuota.maxCycles + 1;
    const JobServer::Admission b = server.submit(over);
    EXPECT_FALSE(b.accepted);
    EXPECT_EQ(b.error.rfind("over-quota", 0), 0u);

    const JobServer::Counters c = server.counters();
    EXPECT_EQ(c.rejectedInvalid, 1u);
    EXPECT_EQ(c.rejectedOverQuota, 1u);
    EXPECT_EQ(c.accepted, 0u);
}

TEST_F(ServiceTest, FullQueueRejectsInsteadOfBlocking)
{
    ServerConfig cfg = baseConfig();
    cfg.workers = 1;
    cfg.queueCapacity = 2;
    // Huge hang threshold: the frozen job occupies the worker instead
    // of being contained, which is what this test needs.
    cfg.hangThreshold = 1'000'000'000;
    JobServer server(cfg);

    const JobServer::Admission running = server.submit(frozenSpec());
    ASSERT_TRUE(running.accepted) << running.error;
    ASSERT_TRUE(waitRunning(server, 1));

    const JobServer::Admission q1 = server.submit(microSpec("q1"));
    const JobServer::Admission q2 = server.submit(microSpec("q2"));
    ASSERT_TRUE(q1.accepted);
    ASSERT_TRUE(q2.accepted);
    EXPECT_EQ(server.queueDepth(), 2u);

    const JobServer::Admission q3 = server.submit(microSpec("q3"));
    EXPECT_FALSE(q3.accepted);
    EXPECT_EQ(q3.error, "queue-full");
    EXPECT_EQ(server.counters().rejectedFull, 1u);
    EXPECT_EQ(server.counters().queuePeak, 2u);

    // Unblock the worker and let the queued jobs finish.
    EXPECT_TRUE(server.cancel(running.id));
    const auto rep = server.wait(running.id);
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->state, JobState::Cancelled);
    EXPECT_TRUE(server.drain(30.0));
}

TEST_F(ServiceTest, ShutdownRejectsNewAdmissions)
{
    JobServer server(baseConfig());
    server.beginShutdown();
    const JobServer::Admission a = server.submit(microSpec());
    EXPECT_FALSE(a.accepted);
    EXPECT_EQ(a.error, "shutting-down");
    EXPECT_EQ(server.counters().rejectedShutdown, 1u);
    EXPECT_TRUE(server.drain(1.0));
}

// --- Lifecycle ------------------------------------------------------------

TEST_F(ServiceTest, SmallJobCompletesWithStats)
{
    JobServer server(baseConfig());
    const JobServer::Admission a = server.submit(microSpec());
    ASSERT_TRUE(a.accepted) << a.error;

    const auto rep = server.wait(a.id);
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->state, JobState::Completed);
    EXPECT_TRUE(rep->message.empty()) << rep->message;
    EXPECT_GT(rep->cycles, 0u);
    EXPECT_GT(rep->instructions, 0u);
    EXPECT_EQ(rep->kernelsCompleted, 1u);
    EXPECT_EQ(rep->retries, 0u);
    EXPECT_GE(rep->wallSec, 0.0);
    EXPECT_EQ(server.counters().completed, 1u);
    EXPECT_FALSE(server.wait(a.id + 999).has_value());
}

TEST_F(ServiceTest, WallClockDeadlineTimesTheJobOut)
{
    ServerConfig cfg = baseConfig();
    cfg.hangThreshold = 1'000'000'000; // Let the deadline fire first.
    JobServer server(cfg);

    JobSpec spec = frozenSpec("deadline");
    spec.quota.maxCycles = 1'000'000'000ull;
    spec.quota.maxWallSec = 0.2;
    const JobServer::Admission a = server.submit(spec);
    ASSERT_TRUE(a.accepted) << a.error;

    const auto rep = server.wait(a.id);
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->state, JobState::TimedOut);
    EXPECT_NE(rep->message.find("deadline"), std::string::npos)
        << rep->message;
    EXPECT_GE(rep->wallSec, 0.2);
    EXPECT_EQ(server.counters().timedOut, 1u);
}

TEST_F(ServiceTest, ClientCancelStopsARunningJob)
{
    ServerConfig cfg = baseConfig();
    cfg.hangThreshold = 1'000'000'000;
    JobServer server(cfg);

    JobSpec spec = frozenSpec("cancel-me");
    spec.quota.maxCycles = 1'000'000'000ull;
    const JobServer::Admission a = server.submit(spec);
    ASSERT_TRUE(a.accepted) << a.error;
    ASSERT_TRUE(waitRunning(server, 1));

    EXPECT_TRUE(server.cancel(a.id));
    const auto rep = server.wait(a.id);
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->state, JobState::Cancelled);
    EXPECT_NE(rep->message.find("cancelled by client"), std::string::npos);
    // A terminal job cannot be cancelled again.
    EXPECT_FALSE(server.cancel(a.id));
    EXPECT_FALSE(server.cancel(a.id + 999));
}

TEST_F(ServiceTest, FrozenSmIsContainedAsHung)
{
    JobServer server(baseConfig()); // Default (derived) hang threshold.
    const JobServer::Admission a = server.submit(frozenSpec());
    ASSERT_TRUE(a.accepted) << a.error;

    const auto rep = server.wait(a.id);
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->state, JobState::Hung);
    EXPECT_NE(rep->message.find("progress"), std::string::npos)
        << rep->message;
    EXPECT_EQ(server.counters().hung, 1u);

    // The server survives and runs the next job normally.
    const JobServer::Admission b = server.submit(microSpec("after-hang"));
    ASSERT_TRUE(b.accepted);
    const auto rep2 = server.wait(b.id);
    ASSERT_TRUE(rep2.has_value());
    EXPECT_EQ(rep2->state, JobState::Completed);
}

TEST_F(ServiceTest, CycleQuotaExhaustionIsOverQuota)
{
    ServerConfig cfg = baseConfig();
    cfg.hangThreshold = 1'000'000'000;
    JobServer server(cfg);

    JobSpec spec = frozenSpec("tiny-budget");
    spec.quota.maxCycles = 20'000; // Frozen: burns this quickly.
    const JobServer::Admission a = server.submit(spec);
    ASSERT_TRUE(a.accepted) << a.error;

    const auto rep = server.wait(a.id);
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->state, JobState::OverQuota);
    EXPECT_NE(rep->message.find("quota"), std::string::npos);
    EXPECT_EQ(server.counters().overQuota, 1u);
}

// --- Trace jobs: retry, structural failure, success -----------------------

TEST_F(ServiceTest, CorruptTraceRetriesThenFails)
{
    const std::string path = writeSmallTrace("svc-corrupt.crtr");
    std::vector<uint8_t> bytes = readBytes(path);
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() / 2] ^= 0x5a; // Payload corruption -> CRC Corrupt.
    writeBytes(path, bytes);

    ServerConfig cfg = baseConfig();
    cfg.retry.maxRetries = 2;
    JobServer server(cfg);

    JobSpec spec;
    spec.name = "corrupt-trace";
    spec.tracePath = path;
    const JobServer::Admission a = server.submit(spec);
    ASSERT_TRUE(a.accepted) << a.error;

    const auto rep = server.wait(a.id);
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->state, JobState::Failed);
    // A transient (Corrupt) failure spends the full retry budget.
    EXPECT_EQ(rep->retries, 2u);
    EXPECT_FALSE(rep->message.empty());
    EXPECT_EQ(server.counters().retries, 2u);
    EXPECT_EQ(server.counters().failed, 1u);
}

TEST_F(ServiceTest, StructurallyInvalidTraceFailsWithoutRetry)
{
    const std::string path = tempPath("svc-junk.crtr");
    writeBytes(path, {'n', 'o', 't', ' ', 'a', ' ',
                      't', 'r', 'a', 'c', 'e', '!'});

    JobServer server(baseConfig());
    JobSpec spec;
    spec.name = "junk-trace";
    spec.tracePath = path;
    const JobServer::Admission a = server.submit(spec);
    ASSERT_TRUE(a.accepted) << a.error;

    const auto rep = server.wait(a.id);
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->state, JobState::Failed);
    // BadMagic is structural: retrying cannot help, so none are spent.
    EXPECT_EQ(rep->retries, 0u);
    EXPECT_EQ(server.counters().retries, 0u);
}

TEST_F(ServiceTest, ValidTraceReplaysToCompletion)
{
    const std::string path = writeSmallTrace("svc-valid.crtr");
    JobServer server(baseConfig());
    JobSpec spec;
    spec.name = "valid-trace";
    spec.tracePath = path;
    const JobServer::Admission a = server.submit(spec);
    ASSERT_TRUE(a.accepted) << a.error;

    const auto rep = server.wait(a.id);
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->state, JobState::Completed) << rep->message;
    EXPECT_GT(rep->instructions, 0u);
    EXPECT_EQ(rep->kernelsCompleted, 1u);
}

// --- Protocol dispatch ----------------------------------------------------

TEST_F(ServiceTest, ProtocolHandlesTheFullRequestSurface)
{
    JobServer server(baseConfig());
    bool shutdown = false;

    auto call = [&](const std::string &line) {
        const std::string resp = handleRequestLine(server, line, shutdown);
        Json j;
        std::string err;
        EXPECT_TRUE(Json::parse(resp, j, err)) << resp;
        return j;
    };

    // Malformed transport-level input never crashes the dispatcher.
    EXPECT_FALSE(call("this is not json").at("ok").asBool(true));
    EXPECT_FALSE(call("[1,2,3]").at("ok").asBool(true));
    EXPECT_FALSE(call("{\"no\":\"cmd\"}").at("ok").asBool(true));
    EXPECT_FALSE(call("{\"cmd\":\"warp-ten\"}").at("ok").asBool(true));
    EXPECT_FALSE(call("{\"cmd\":\"submit\"}").at("ok").asBool(true));
    EXPECT_FALSE(call("{\"cmd\":\"status\"}").at("ok").asBool(true));

    EXPECT_TRUE(call("{\"cmd\":\"ping\"}").at("pong").asBool());

    // Submit a real job through the wire format and wait on it.
    Json submit = Json::object();
    submit.set("cmd", Json::str("submit"));
    submit.set("job", microSpec("wire").toJson());
    const Json accepted = call(submit.dump());
    ASSERT_TRUE(accepted.at("ok").asBool());
    const JobId id = accepted.at("id").asU64();
    ASSERT_GT(id, 0u);

    Json wait = Json::object();
    wait.set("cmd", Json::str("wait"));
    wait.set("id", Json::number(id));
    const Json done = call(wait.dump());
    ASSERT_TRUE(done.at("ok").asBool());
    EXPECT_EQ(done.at("report").at("state").asString(), "completed");

    // Rejections surface the admission reason verbatim.
    Json badJob = Json::object();
    badJob.set("cmd", Json::str("submit"));
    badJob.set("job", Json::object());
    const Json rejected = call(badJob.dump());
    EXPECT_FALSE(rejected.at("ok").asBool(true));
    EXPECT_EQ(rejected.at("error").asString().rfind("malformed", 0), 0u);

    // Unknown ids are an error, not a crash or a hang.
    const Json unknown = call("{\"cmd\":\"wait\",\"id\":424242}");
    EXPECT_FALSE(unknown.at("ok").asBool(true));
    EXPECT_EQ(unknown.at("error").asString(), "unknown-job");

    const Json counters = call("{\"cmd\":\"counters\"}");
    ASSERT_TRUE(counters.at("ok").asBool());
    EXPECT_EQ(counters.at("counters").at("completed").asU64(), 1u);
    EXPECT_GE(counters.at("counters").at("rejected_invalid").asU64(), 1u);

    EXPECT_FALSE(shutdown);
    EXPECT_TRUE(call("{\"cmd\":\"shutdown\"}").at("ok").asBool());
    EXPECT_TRUE(shutdown);
    EXPECT_FALSE(call(submit.dump()).at("ok").asBool(true));
    EXPECT_TRUE(server.drain(5.0));
}

// --- Drain ----------------------------------------------------------------

TEST_F(ServiceTest, DrainForceCancelsStragglersButStaysTerminal)
{
    ServerConfig cfg = baseConfig();
    cfg.workers = 1;
    cfg.hangThreshold = 1'000'000'000;
    JobServer server(cfg);

    JobSpec spec = frozenSpec("straggler");
    spec.quota.maxCycles = 1'000'000'000ull;
    const JobServer::Admission a = server.submit(spec);
    ASSERT_TRUE(a.accepted) << a.error;
    ASSERT_TRUE(waitRunning(server, 1));

    // Zero grace: the frozen job cannot finish, so the drain is forced.
    EXPECT_FALSE(server.drain(0.0));
    const auto rep = server.report(a.id);
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->state, JobState::Cancelled);
    EXPECT_NE(rep->message.find("shutting down"), std::string::npos)
        << rep->message;
}

// --- Spool ----------------------------------------------------------------

TEST_F(ServiceTest, TerminalReportsAreSpooledAsJson)
{
    const std::string spool = tempPath("svc-spool");
    std::filesystem::remove_all(spool);

    ServerConfig cfg = baseConfig();
    cfg.spoolDir = spool;
    JobServer server(cfg);

    const JobServer::Admission ok = server.submit(microSpec("spooled"));
    const JobServer::Admission hang = server.submit(frozenSpec());
    ASSERT_TRUE(ok.accepted);
    ASSERT_TRUE(hang.accepted);
    ASSERT_TRUE(server.wait(ok.id).has_value());
    ASSERT_TRUE(server.wait(hang.id).has_value());

    size_t files = 0;
    bool sawCompleted = false, sawHung = false;
    for (const auto &e : std::filesystem::directory_iterator(spool)) {
        ++files;
        std::ifstream f(e.path());
        std::string text((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
        Json j;
        std::string err;
        ASSERT_TRUE(Json::parse(text, j, err))
            << e.path() << ": " << err;
        const JobReport rep = JobReport::fromJson(j);
        sawCompleted |= rep.state == JobState::Completed;
        sawHung |= rep.state == JobState::Hung;
    }
    EXPECT_EQ(files, 2u);
    EXPECT_TRUE(sawCompleted);
    EXPECT_TRUE(sawHung);
}

// --- Scenario jobs ---------------------------------------------------------

/** A tiny flattenable compute-only scenario (one small kernel chain). */
const char *kTinyScenario = R"({
    "crisp_scenario": 1, "name": "svc-scn",
    "compute": {
        "buffers": [ { "name": "b", "bytes": 65536 } ],
        "kernels": [
            { "name": "k0", "ctas": 2, "threads_per_cta": 64,
              "regs_per_thread": 16, "iterations": 2, "fp32_ops": 4,
              "loads": [ { "buffer": "b", "access_bytes": 4,
                           "count": 1 } ] },
            { "name": "k1", "after": "k0", "ctas": 2,
              "threads_per_cta": 64, "regs_per_thread": 16,
              "iterations": 2, "int_ops": 2 }
        ]
    }
})";

JobSpec
scenarioSpec(const std::string &text, const char *name = "scn")
{
    JobSpec spec;
    spec.name = name;
    spec.scenarioText = text;
    return spec;
}

std::string
mgpuScenarioText()
{
    std::ifstream f(std::string(CRISP_SCENARIO_DIR) +
                    "/game_inference_mgpu.json");
    return std::string((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
}

/** The run options every crispd job runs under. */
integrity::RunOptions
jobRunOptions(const JobServer &server)
{
    integrity::RunOptions opts;
    opts.checkInterval = server.config().watchdogInterval;
    opts.hangThreshold = server.config().hangThreshold;
    opts.auditInterval = server.config().auditInterval;
    return opts;
}

/** Every field of every stream, named on a mismatch. */
void
expectSameStreams(const std::map<StreamId, StreamStats> &job,
                  const std::map<StreamId, StreamStats> &direct)
{
    ASSERT_EQ(job.size(), direct.size());
    for (const auto &[id, st] : direct) {
        ASSERT_EQ(job.count(id), 1u) << "stream " << id;
        for (const StreamStatsField &f : kStreamStatsFields) {
            EXPECT_EQ(job.at(id).*f.member, st.*f.member)
                << "stream " << id << " " << f.name;
        }
    }
}

TEST_F(ServiceTest, ScenarioAdmissionValidatesDocumentAndCaps)
{
    JobServer server(baseConfig());

    EXPECT_TRUE(server.admissionError(scenarioSpec(kTinyScenario)).empty());

    // A scenario is a payload like any other: exactly one per job.
    JobSpec both = scenarioSpec(kTinyScenario);
    both.tracePath = "/tmp/run.crtr";
    EXPECT_NE(server.admissionError(both).find("exactly one"),
              std::string::npos);

    // Malformed documents are rejected with the loader's coordinates.
    const std::string bad =
        server.admissionError(scenarioSpec("{\"crisp_scenario\": 2}"));
    EXPECT_EQ(bad.rfind("malformed: scenario", 0), 0u) << bad;
    EXPECT_NE(bad.find(":1:"), std::string::npos) << bad;

    // The daemon's caps are stricter than the loader's schema bounds.
    const JobSpec frames = scenarioSpec(R"({
        "crisp_scenario": 1, "name": "x",
        "graphics": { "preset": "SPL", "width": 64, "height": 64,
                      "frames": 12 }
    })");
    EXPECT_NE(server.admissionError(frames).find("frames out of range"),
              std::string::npos);

    const JobSpec ctas = scenarioSpec(R"({
        "crisp_scenario": 1, "name": "x",
        "compute": { "kernels": [ { "name": "k", "ctas": 8192 } ] }
    })");
    EXPECT_NE(server.admissionError(ctas).find("ctas out of range"),
              std::string::npos);

    const JobSpec bursts = scenarioSpec(R"({
        "crisp_scenario": 1, "name": "x",
        "compute": {
            "kernels": [ { "name": "k", "ctas": 2 } ],
            "schedule": { "bursts": 512, "period": 1000 }
        }
    })");
    EXPECT_EQ(server.admissionError(bursts).rfind("over-quota", 0), 0u);
}

TEST_F(ServiceTest, MultiGpuScenarioJobMatchesADirectRun)
{
    // A multi-GPU job runs on the machine its gpu section names, with
    // its placement and per-buffer devices — the direct run's machine.
    const std::string text = mgpuScenarioText();
    ASSERT_FALSE(text.empty());
    JobServer server(baseConfig());
    const JobServer::Admission a = server.submit(scenarioSpec(text, "mgpu"));
    ASSERT_TRUE(a.accepted) << a.error;
    const auto rep = server.wait(a.id);
    ASSERT_TRUE(rep.has_value());
    ASSERT_EQ(rep->state, JobState::Completed) << rep->message;

    scenario::Scenario sc;
    scenario::ScenarioError serr;
    ASSERT_TRUE(scenario::loadScenarioText(text, "mgpu", sc, serr))
        << serr.str();
    mgpu::MultiGpuConfig mcfg;
    mcfg.numGpus = sc.gpu.numGpus;
    mcfg.gpu = scenario::gpuConfigFor(sc);
    mgpu::MultiGpu machine(mcfg);
    scenario::Materialized mat;
    scenario::submitScenarioMulti(sc, machine, mat);
    const mgpu::MultiGpu::RunResult r =
        machine.run(JobSpec().quota.maxCycles, jobRunOptions(server));
    ASSERT_TRUE(r.completed);

    EXPECT_EQ(rep->cycles, r.cycles);
    const StatsRegistry merged = machine.mergedStats();
    expectSameStreams(rep->streams, merged.allStreams());
    EXPECT_EQ(rep->instructions,
              merged.sumOver(&StreamStats::instructions));
    EXPECT_EQ(rep->kernelsCompleted,
              merged.sumOver(&StreamStats::kernelsCompleted));

    // The job's remote traffic is the direct run's fabric traffic.
    const mgpu::InterGpuFabric &fabric = machine.fabric();
    EXPECT_GT(fabric.requestsAccepted(), 0u);
    uint64_t remote = 0;
    uint64_t responses = 0;
    uint64_t migrations = 0;
    for (const auto &[id, st] : rep->streams) {
        remote += st.remoteAccesses;
        responses += st.remoteResponses;
        migrations += st.pageMigrations;
    }
    EXPECT_EQ(remote, fabric.requestsAccepted());
    EXPECT_EQ(responses, fabric.responsesDelivered());
    EXPECT_EQ(migrations, fabric.pageMigrations());
}

TEST_F(ServiceTest, FrozenMultiGpuJobIsContainedAsHung)
{
    JobServer server(baseConfig());
    JobSpec spec = scenarioSpec(mgpuScenarioText(), "mgpu-frozen");
    spec.fault.enabled = true;
    spec.fault.freezeSmAt = 64;
    const JobServer::Admission a = server.submit(spec);
    ASSERT_TRUE(a.accepted) << a.error;

    const auto rep = server.wait(a.id);
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->state, JobState::Hung);
    EXPECT_NE(rep->message.find("progress"), std::string::npos)
        << rep->message;
    EXPECT_EQ(server.counters().hung, 1u);
}

TEST_F(ServiceTest, LegacyWorkloadJobIsMalformed)
{
    // Scenario text is the only workload description: a job object
    // naming a preset workload carries no payload and must be refused.
    JobServer server(baseConfig());
    bool shutdown = false;
    const std::string resp = handleRequestLine(
        server,
        "{\"cmd\":\"submit\",\"job\":{\"name\":\"old\","
        "\"workload\":\"MICRO\",\"ctas\":4}}",
        shutdown);
    Json j;
    std::string err;
    ASSERT_TRUE(Json::parse(resp, j, err)) << resp;
    EXPECT_FALSE(j.at("ok").asBool(true)) << resp;
    EXPECT_EQ(j.at("error").asString().rfind("malformed:", 0), 0u) << resp;
    EXPECT_EQ(server.counters().accepted, 0u);
    EXPECT_EQ(server.counters().rejectedInvalid, 1u);
}

TEST_F(ServiceTest, ScenarioJobMatchesADirectRunExactly)
{
    JobServer server(baseConfig());
    const JobServer::Admission a =
        server.submit(scenarioSpec(kTinyScenario));
    ASSERT_TRUE(a.accepted) << a.error;
    const auto rep = server.wait(a.id);
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->state, JobState::Completed);
    EXPECT_EQ(rep->kernelsCompleted, 2u);

    // Rebuild the job's machine by hand: same preset, same engine, same
    // heap base, same run options. The daemon adds nothing to the
    // simulation itself.
    scenario::Scenario sc;
    scenario::ScenarioError serr;
    ASSERT_TRUE(
        scenario::loadScenarioText(kTinyScenario, "mem", sc, serr))
        << serr.str();
    Gpu gpu(scenario::gpuConfigFor(sc));
    AddressSpace heap;
    scenario::Materialized mat;
    scenario::submitScenario(sc, gpu, heap, mat);
    const Gpu::RunResult r =
        gpu.run(JobSpec().quota.maxCycles, jobRunOptions(server));
    ASSERT_TRUE(r.completed);

    EXPECT_EQ(rep->cycles, r.cycles);
    expectSameStreams(rep->streams, gpu.stats().allStreams());
    EXPECT_EQ(rep->instructions,
              gpu.stats().sumOver(&StreamStats::instructions));
    EXPECT_EQ(rep->kernelsCompleted,
              gpu.stats().sumOver(&StreamStats::kernelsCompleted));
}

TEST_F(ServiceTest, ScenarioResubmissionHitsTheCacheIdentically)
{
    const std::string cacheDir = tempPath("svc-scn-cache");
    std::filesystem::remove_all(cacheDir);
    ServerConfig cfg = baseConfig();
    cfg.cacheDir = cacheDir;
    JobServer server(cfg);

    const JobServer::Admission a =
        server.submit(scenarioSpec(kTinyScenario, "scn-miss"));
    ASSERT_TRUE(a.accepted) << a.error;
    const auto first = server.wait(a.id);
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(first->state, JobState::Completed);
    const uint64_t missesAfterFirst = server.cache().stats().misses;
    EXPECT_GT(missesAfterFirst, 0u);

    const JobServer::Admission b =
        server.submit(scenarioSpec(kTinyScenario, "scn-hit"));
    ASSERT_TRUE(b.accepted) << b.error;
    const auto second = server.wait(b.id);
    ASSERT_TRUE(second.has_value());
    ASSERT_EQ(second->state, JobState::Completed);
    EXPECT_GT(server.cache().stats().hits, 0u);
    EXPECT_EQ(server.cache().stats().misses, missesAfterFirst);

    // The replayed submission is the built one, bit for bit.
    EXPECT_EQ(first->cycles, second->cycles);
    EXPECT_EQ(first->instructions, second->instructions);
    EXPECT_EQ(first->kernelsCompleted, second->kernelsCompleted);
}

TEST_F(ServiceTest, ScenarioGpuSectionOverridesTheSpecMachine)
{
    JobServer server(baseConfig());
    // Same workload on a 4-SM machine vs the full preset: fewer SMs must
    // cost cycles, proving the scenario's "gpu" section reached runJob.
    const char *narrow = R"({
        "crisp_scenario": 1, "name": "narrow",
        "gpu": { "preset": "rtx3070", "num_sms": 2 },
        "compute": {
            "kernels": [ { "name": "k", "ctas": 64,
                           "threads_per_cta": 128,
                           "regs_per_thread": 32, "iterations": 8,
                           "fp32_ops": 8 } ]
        }
    })";
    const char *wide = R"({
        "crisp_scenario": 1, "name": "wide",
        "compute": {
            "kernels": [ { "name": "k", "ctas": 64,
                           "threads_per_cta": 128,
                           "regs_per_thread": 32, "iterations": 8,
                           "fp32_ops": 8 } ]
        }
    })";
    const JobServer::Admission a = server.submit(scenarioSpec(narrow));
    const JobServer::Admission b = server.submit(scenarioSpec(wide));
    ASSERT_TRUE(a.accepted) << a.error;
    ASSERT_TRUE(b.accepted) << b.error;
    const auto ra = server.wait(a.id);
    const auto rb = server.wait(b.id);
    ASSERT_TRUE(ra.has_value());
    ASSERT_TRUE(rb.has_value());
    ASSERT_EQ(ra->state, JobState::Completed);
    ASSERT_EQ(rb->state, JobState::Completed);
    EXPECT_GT(ra->cycles, rb->cycles);
}

// --- The chaos soak -------------------------------------------------------

/**
 * The acceptance soak: a few hundred mixed jobs — valid, malformed,
 * over-quota, guaranteed-hanging, and client-cancelled — through a
 * 4-worker chaos-mode server. Every admitted job must reach exactly one
 * terminal state, the queue must respect its bound, and the counters
 * must conserve. Chaos mode stacks random fault injection, cache
 * corruption, and simulated disconnects on top of the scripted mix.
 */
TEST_F(ServiceTest, SoakMixedJobsAllReachTerminalStates)
{
    const std::string spool = tempPath("svc-soak-spool");
    const std::string cacheDir = tempPath("svc-soak-cache");
    std::filesystem::remove_all(spool);
    std::filesystem::remove_all(cacheDir);

    const std::string goodTrace = writeSmallTrace("svc-soak.crtr");
    const std::string badTrace = tempPath("svc-soak-bad.crtr");
    {
        std::vector<uint8_t> bytes = readBytes(goodTrace);
        bytes[bytes.size() / 2] ^= 0x5a;
        writeBytes(badTrace, bytes);
    }

    ServerConfig cfg;
    cfg.workers = 4;
    cfg.queueCapacity = 32;
    cfg.retry.maxRetries = 1;
    cfg.retry.baseDelaySec = 0.001;
    cfg.retry.maxDelaySec = 0.005;
    cfg.monitorPeriodSec = 0.002;
    cfg.spoolDir = spool;
    cfg.cacheDir = cacheDir;
    cfg.chaos.seed = 0x5047c4a05ull;
    cfg.chaos.maxDisconnectDelaySec = 0.02;
    JobServer server(cfg);

    constexpr int kJobs = 220;
    std::vector<JobId> admitted;
    std::vector<JobId> toCancel;
    uint64_t rejected = 0;

    for (int i = 0; i < kJobs; ++i) {
        JobSpec spec;
        bool cancelAfter = false;
        switch (i % 10) {
          case 0: // Malformed: no payload at all.
            spec.name = "soak-malformed";
            break;
          case 1: { // Over-quota ask.
            spec = microSpec("soak-over");
            spec.quota.maxCycles = cfg.maxQuota.maxCycles + 1;
            break;
          }
          case 2: // Guaranteed hang (contained by the watchdog).
            spec = frozenSpec("soak-frozen");
            break;
          case 3: // Client cancels straight after submitting.
            spec = microSpec("soak-cancelled", 2, 64);
            cancelAfter = true;
            break;
          case 4: // Trace replay.
            spec.name = "soak-trace";
            spec.tracePath = (i % 20 == 4) ? badTrace : goodTrace;
            break;
          case 5: // Dropped-fill fault: audit evidence, still terminal.
            spec = microSpec("soak-dropfill");
            spec.fault.enabled = true;
            spec.fault.seed = 0x5eed + uint64_t(i);
            spec.fault.dropFillProb = 0.5;
            break;
          default: // Plain small jobs, lightly varied.
            spec = microSpec("soak-micro", 1 + (i % 3), 1 + (i % 4));
            break;
        }

        // The queue is much smaller than the job count; pace the
        // submissions so the mix actually flows through the workers
        // instead of the tail bouncing off a full queue (a handful of
        // "queue-full" rejections can still race through, and that is
        // part of the contract being tested).
        const auto spaceDeadline = std::chrono::steady_clock::now() +
            std::chrono::seconds(20);
        while (server.queueDepth() + 1 >= cfg.queueCapacity &&
               std::chrono::steady_clock::now() < spaceDeadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        const JobServer::Admission a = server.submit(spec);
        if (!a.accepted) {
            ++rejected;
            const bool expectedReason = a.error == "queue-full" ||
                a.error.rfind("malformed", 0) == 0 ||
                a.error.rfind("over-quota", 0) == 0;
            EXPECT_TRUE(expectedReason) << a.error;
            continue;
        }
        admitted.push_back(a.id);
        if (cancelAfter) {
            toCancel.push_back(a.id);
        }
        EXPECT_LE(server.queueDepth(), cfg.queueCapacity);
        if (!toCancel.empty() && (i % 4) == 3) {
            server.cancel(toCancel.back());
            toCancel.pop_back();
        }
        // Brief pause every few jobs so the queue drains instead of
        // rejecting the whole tail on a single-core box.
        if (i % 8 == 7) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }
    for (JobId id : toCancel) {
        server.cancel(id);
    }

    ASSERT_GE(admitted.size(), 150u);
    EXPECT_TRUE(server.drain(60.0) || server.queueDepth() == 0);

    // Every admitted job is terminal with a coherent report.
    uint64_t terminalByScan = 0;
    for (JobId id : admitted) {
        const auto rep = server.report(id);
        ASSERT_TRUE(rep.has_value()) << "job " << id;
        EXPECT_TRUE(jobStateTerminal(rep->state))
            << "job " << id << " state " << jobStateName(rep->state);
        ++terminalByScan;
        if (rep->state == JobState::Completed) {
            EXPECT_GT(rep->instructions, 0u) << "job " << id;
            EXPECT_TRUE(rep->message.empty()) << rep->message;
        } else {
            EXPECT_FALSE(rep->message.empty())
                << "job " << id << " state " << jobStateName(rep->state);
        }
    }
    EXPECT_EQ(terminalByScan, admitted.size());

    // Counters conserve: accepted == sum of terminal outcomes, and the
    // queue never exceeded its bound.
    const JobServer::Counters c = server.counters();
    EXPECT_EQ(c.accepted, admitted.size());
    EXPECT_EQ(c.accepted, c.completed + c.failed + c.cancelled +
                  c.timedOut + c.overQuota + c.hung);
    EXPECT_LE(c.queuePeak, cfg.queueCapacity);
    EXPECT_EQ(c.rejectedInvalid + c.rejectedOverQuota + c.rejectedFull +
                  c.rejectedShutdown,
              rejected);
    EXPECT_GT(c.completed, 0u);
    EXPECT_GT(c.hung, 0u);
    EXPECT_GT(c.cancelled, 0u);

    // Exactly one spooled report per admitted job.
    size_t files = 0;
    for (const auto &e : std::filesystem::directory_iterator(spool)) {
        (void)e;
        ++files;
    }
    EXPECT_EQ(files, admitted.size());
}

} // namespace
} // namespace crisp
