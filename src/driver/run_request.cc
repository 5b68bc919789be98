#include "driver/run_request.hh"

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "baseline/perfect.hh"
#include "baseline/traditional.hh"
#include "common/kv.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "core/datascalar.hh"
#include "driver/driver.hh"
#include "driver/trace_cache.hh"
#include "obs/flight_recorder.hh"
#include "obs/perfetto.hh"
#include "obs/sampler.hh"
#include "workloads/workloads.hh"

namespace dscalar {
namespace driver {

namespace kv = common::kv;

core::SimConfig
paperConfig()
{
    // Section 4.2: 8-way issue, 256-entry RUU, LSQ = RUU/2, 16 KB
    // direct-mapped single-cycle split L1s (write-back,
    // write-noallocate data cache), 8 ns on-chip banks behind a
    // 256-bit bus at core clock, an 8-byte global bus at 1/10 core
    // clock, 2-cycle interface penalties, 128-entry 1 ns BSHRs.
    core::SimConfig cfg;
    cfg.core = ooo::CoreParams{};
    cfg.mem = mem::MainMemoryParams{};
    cfg.bus = interconnect::BusParams{};
    cfg.numNodes = 2;
    cfg.bshrLatency = 1;
    cfg.bshrCapacity = 128;
    return cfg;
}

const char *
systemKindName(SystemKind kind)
{
    auto i = static_cast<std::size_t>(kind);
    panic_if(i >= std::size(kSystemKindNames), "unknown SystemKind %zu", i);
    return kSystemKindNames[i];
}

std::optional<SystemKind>
parseSystemKind(const std::string &name)
{
    int i = kv::nameIndex(kSystemKindNames, name);
    if (i < 0)
        return std::nullopt;
    return static_cast<SystemKind>(i);
}

const char *
interconnectKindName(core::InterconnectKind kind)
{
    auto i = static_cast<std::size_t>(kind);
    panic_if(i >= std::size(kInterconnectKindNames),
             "unknown InterconnectKind %zu", i);
    return kInterconnectKindNames[i];
}

std::optional<core::InterconnectKind>
parseInterconnectKind(const std::string &name)
{
    int i = kv::nameIndex(kInterconnectKindNames, name);
    if (i < 0)
        return std::nullopt;
    return static_cast<core::InterconnectKind>(i);
}

// -------------------------------------------------------------------
// Serialization
// -------------------------------------------------------------------

namespace {

// F(field, extra Ref arguments, which may name the request r): the
// row's accessor.
#define F(m, ...)                                                      \
    [](void *o) {                                                      \
        auto *r = static_cast<RunRequest *>(o);                        \
        return kv::Ref(r->m __VA_OPT__(, ) __VA_ARGS__);               \
    }

constexpr kv::Range kWorkload{.min = 1, .noun = "workload name"};
constexpr kv::Range kScale{1, 4096, "scale"};
constexpr kv::Range kBlock{.min = 1, .noun = "page count"};

constexpr kv::Key kRunRequestKeys[] = {
    {"workload", F(workload), "registered workload name", kWorkload},
    {"scale", F(scale), "workload build scale", kScale},
    {"system", F(system, kSystemKindNames), "simulated system"},
    {"nodes", F(config.numNodes), "node count", kNodesRange},
    {"interconnect", F(config.interconnect, kInterconnectKindNames),
     "global interconnect"},
    {"max_insts", F(config.maxInsts), "instruction budget, 0 = no limit"},
    {"block_pages", F(blockPages), "page-distribution block", kBlock},
    {"event_driven", F(config.eventDriven), "event-driven cycle skipping"},
    {"fault_drop", F(config.fault.dropProb), "drop probability"},
    {"fault_dup", F(config.fault.dupProb), "duplication probability"},
    {"fault_delay", F(config.fault.delayProb), "delay probability"},
    {"fault_max_delay", F(config.fault.maxDelay), "delay ceiling (cycles)"},
    {"fault_seed", F(config.fault.seed), "fault decision-stream seed"},
    {"rerequest_timeout",
     F(config.rerequestTimeout, &r->rerequestTimeoutSet),
     "re-request timeout (cycles), 0 = off; default 2000 under "
     "fault_drop or bshr_hard"},
    {"bshr_hard", F(config.bshrHardCapacity), "enforce BSHR capacity"},
    {"bshr_capacity", F(config.bshrCapacity), "BSHR bank capacity",
     kBshrCapacityRange},
    {"sample_interval", F(sampleInterval), "timeline period (cycles), 0 = off"},
    {"profile", F(profile), "wall-clock phase profile (numbers unchanged)",
     {}, kv::kOptional},
    {"perfetto", F(perfettoPath), "Perfetto trace file (\"-\" = stdout)", {},
     kv::kOptional},
};

#undef F

} // namespace

std::span<const kv::Key>
runRequestKeys()
{
    return kRunRequestKeys;
}

bool
applyRunRequestKey(RunRequest &req, const std::string &key,
                   const std::string &value, std::string &error)
{
    return kv::applyKey(kRunRequestKeys, &req, key, value, error) !=
           nullptr;
}

void
finalizeRunRequest(RunRequest &req)
{
    // Dropped data must be recoverable: arm re-request recovery by
    // default whenever drops or hard BSHR capacity are configured
    // without an explicit timeout (the dsrun rule since PR 2).
    if (!req.rerequestTimeoutSet &&
        (req.config.fault.dropProb > 0.0 || req.config.bshrHardCapacity))
        req.config.rerequestTimeout = 2000;
}

bool
parseRunRequest(std::istream &in, RunRequest &out, std::string &error)
{
    RunRequest r;
    int keys = kv::parseBlock(in, kRunRequestKeys, &r, true, error);
    if (keys == 0)
        error = "empty request";
    if (keys <= 0)
        return false;
    finalizeRunRequest(r);
    out = std::move(r);
    return true;
}

std::string
formatRunRequest(const RunRequest &req)
{
    std::ostringstream os;
    kv::format(os, kRunRequestKeys, &req);
    return os.str();
}

stats::RunMeta
runMeta(const RunRequest &req)
{
    stats::RunMeta meta;
    meta.add("system", systemKindName(req.system));
    meta.add("target", req.workload);
    meta.add("scale", std::uint64_t(req.scale));
    meta.add("nodes", std::uint64_t(req.config.numNodes));
    meta.add("interconnect",
             interconnectKindName(req.config.interconnect));
    meta.add("block_pages", std::uint64_t(req.blockPages));
    meta.add("max_insts", std::uint64_t(req.config.maxInsts));
    meta.add("event_driven",
             std::uint64_t(req.config.eventDriven ? 1 : 0));
    // Constant: a run is single-threaded. The line stays so every
    // exported stats JSON keeps its layout.
    meta.add("tick_threads", std::uint64_t(1));
    if (req.sampleInterval)
        meta.add("sample_interval", std::uint64_t(req.sampleInterval));
    if (req.profile)
        meta.add("profile", std::uint64_t(1));
    return meta;
}

std::string
RunResponse::statsJson() const
{
    if (!result.stats)
        return "";
    std::ostringstream os;
    stats::JsonWriter::ExtraWriter extra;
    if (!timelineJson.empty())
        extra = [this](std::ostream &o) { o << timelineJson; };
    stats::JsonWriter::write(os, meta, *result.stats, extra);
    return os.str();
}

// -------------------------------------------------------------------
// Execution
// -------------------------------------------------------------------

namespace {

/**
 * Observability wiring for any timing system: optional
 * stderr tracing and Perfetto export (fanned out via the system's
 * TeeTraceSink; path "-" streams to stdout), an optional flight
 * recorder dumped to stderr by a run that ends in an error (a
 * deadlock, an unreachable owner) or by any panic, an optional
 * sampled timeline, optional request spans / the wall-clock
 * phase profiler (@p spans), and the run itself. @return false with
 * resp.error set when an attachment cannot be created or the run
 * ended in an expected failure.
 */
bool
runAttached(core::TimingSystem &sys, const RunRequest &req,
            RunResponse &resp, obs::SpanRecorder *spans)
{
    TextTraceSink text_sink(std::cerr);
    if (req.traceToStderr)
        sys.addTraceSink(&text_sink);

    std::ofstream perfetto_file;
    std::unique_ptr<obs::PerfettoTraceSink> perfetto;
    if (!req.perfettoPath.empty()) {
        std::ostream *perfetto_out = &std::cout;
        if (req.perfettoPath != "-") {
            perfetto_file.open(req.perfettoPath);
            if (!perfetto_file) {
                resp.error = "cannot write perfetto file '" +
                             req.perfettoPath + "'";
                return false;
            }
            perfetto_out = &perfetto_file;
        }
        perfetto =
            std::make_unique<obs::PerfettoTraceSink>(*perfetto_out);
        sys.addTraceSink(perfetto.get());
    }

    obs::FlightRecorder flight;
    if (req.flightRecorder) {
        sys.addTraceSink(&flight);
        flight.installPanicDump();
    }

    std::optional<obs::Sampler> sampler;
    if (req.sampleInterval)
        sys.setSampler(&sampler.emplace(req.sampleInterval));

    if (spans && req.profile)
        sys.setProfiler(spans);

    {
        obs::SpanScope run_span(spans, "sim_run");
        resp.result = sys.run();
    }
    resp.output = sys.output();
    if (perfetto) {
        // The wall-clock track rides along in the same trace file,
        // next to the sim-time tracks (spans closed so far: build,
        // trace acquisition, sim_run).
        if (spans)
            perfetto->appendWallSpans(*spans);
        perfetto->finish();
    }
    if (sampler) {
        std::ostringstream os;
        sampler->writeJson(os);
        resp.timelineJson = os.str();
    }
    resp.error = resp.result.error;
    if (req.flightRecorder && !resp.ok())
        flight.dump(std::cerr);
    return resp.ok();
}

} // namespace

RunResponse
runOne(const RunRequest &req, TraceCache *cache)
{
    RunResponse resp;
    resp.meta = runMeta(req);

    // The system constructors refuse a bad config as a fatal error;
    // refuse it here, as a value, so one request cannot end the
    // process that serves it.
    resp.error =
        core::validate(req.config, req.system == SystemKind::DataScalar);
    if (!resp.ok())
        return resp;

    // Request spans: an external recorder (the serving path's), or a
    // private one when only the profile group was asked for. The
    // recorder observes wall time only — attach one to any request
    // and every simulated byte stays identical.
    obs::SpanRecorder local_spans(req.spans == nullptr && req.profile);
    obs::SpanRecorder *spans = req.spans;
    if (!spans && req.profile)
        spans = &local_spans;

    std::shared_ptr<const prog::Program> program = req.program;
    if (!program) {
        obs::SpanScope span(spans, "build");
        const workloads::Workload *w =
            workloads::lookupWorkload(req.workload);
        if (!w) {
            resp.error = "unknown workload '" + req.workload + "'";
            return resp;
        }
        program = cache ? cache->program(req.workload, req.scale)
                        : std::make_shared<const prog::Program>(
                              w->build(req.scale));
    }

    std::shared_ptr<const func::InstTrace> trace = req.trace;
    if (!trace && !req.program) {
        // The acquisition path only learns where the trace came from
        // as it runs; the span is renamed to what actually happened.
        obs::SpanScope span(spans, "trace_capture");
        if (cache) {
            bool hit = false;
            trace = cache->acquire(req.workload, req.scale,
                                   req.config.maxInsts, hit);
            resp.cacheHit = hit;
            if (hit)
                span.setName("trace_cache_hit");
        }
    }

    const core::SimConfig &cfg = req.config;
    switch (req.system) {
      case SystemKind::Perfect: {
        baseline::PerfectSystem sys(*program, cfg, std::move(trace));
        runAttached(sys, req, resp, spans);
        break;
      }
      case SystemKind::Traditional: {
        baseline::TraditionalSystem sys(
            *program, cfg,
            figure7PageTable(*program, cfg.numNodes, req.blockPages),
            std::move(trace));
        runAttached(sys, req, resp, spans);
        break;
      }
      case SystemKind::DataScalar: {
        core::DataScalarSystem sys(
            *program, cfg,
            figure7PageTable(*program, cfg.numNodes, req.blockPages),
            std::move(trace));
        if (runAttached(sys, req, resp, spans))
            resp.drained = sys.protocolDrained();
        break;
      }
    }
    return resp;
}

std::vector<RunResponse>
runMany(const std::vector<RunRequest> &requests, TraceCache &cache,
        unsigned jobs)
{
    // Every request gets its own simulator state; the shared writes
    // are each task's pre-assigned response slot and the (internally
    // synchronized) trace cache.
    std::vector<RunResponse> responses(requests.size());
    common::parallelFor(jobs, requests.size(), [&](std::size_t i) {
        responses[i] = runOne(requests[i], &cache);
    });
    return responses;
}

} // namespace driver
} // namespace dscalar
