#include "driver/run_request.hh"

#include <fstream>
#include <iostream>
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
    switch (kind) {
      case SystemKind::Perfect: return "perfect";
      case SystemKind::DataScalar: return "datascalar";
      case SystemKind::Traditional: return "traditional";
    }
    fatal("unknown SystemKind %d", static_cast<int>(kind));
}

std::optional<SystemKind>
parseSystemKind(const std::string &name)
{
    if (name == "perfect")
        return SystemKind::Perfect;
    if (name == "datascalar")
        return SystemKind::DataScalar;
    if (name == "traditional")
        return SystemKind::Traditional;
    return std::nullopt;
}

const char *
interconnectKindName(core::InterconnectKind kind)
{
    switch (kind) {
      case core::InterconnectKind::Bus: return "bus";
      case core::InterconnectKind::Ring: return "ring";
    }
    fatal("unknown InterconnectKind %d", static_cast<int>(kind));
}

std::optional<core::InterconnectKind>
parseInterconnectKind(const std::string &name)
{
    if (name == "bus")
        return core::InterconnectKind::Bus;
    if (name == "ring")
        return core::InterconnectKind::Ring;
    return std::nullopt;
}

// -------------------------------------------------------------------
// Serialization
// -------------------------------------------------------------------

bool
applyRunRequestKey(RunRequest &req, const std::string &key,
                   const std::string &value, std::string &error)
{
    auto bad = [&](const char *expected) {
        error = "bad value '" + value + "' for '" + key +
                "' (expected " + expected + ")";
        return false;
    };

    // String-valued keys.
    if (key == "workload") {
        if (value.empty())
            return bad("a workload name");
        req.workload = value;
        return true;
    }
    if (key == "perfetto") {
        req.perfettoPath = value;
        return true;
    }
    if (key == "system") {
        std::optional<SystemKind> kind = parseSystemKind(value);
        if (!kind) {
            error = "unknown system '" + value + "'";
            return false;
        }
        req.system = *kind;
        return true;
    }
    if (key == "interconnect") {
        std::optional<core::InterconnectKind> kind =
            parseInterconnectKind(value);
        if (!kind) {
            error = "unknown interconnect '" + value + "'";
            return false;
        }
        req.config.interconnect = *kind;
        return true;
    }

    // Probability-valued keys.
    if (key == "fault_drop" || key == "fault_dup" ||
        key == "fault_delay") {
        double p = 0.0;
        if (!kv::parseF64(value, p) || p < 0.0 || p > 1.0)
            return bad("a probability in [0,1]");
        if (key == "fault_drop")
            req.config.fault.dropProb = p;
        else if (key == "fault_dup")
            req.config.fault.dupProb = p;
        else
            req.config.fault.delayProb = p;
        return true;
    }

    // Everything else is an unsigned integer.
    std::uint64_t v = 0;
    if (!kv::parseU64(value, v)) {
        if (key == "scale" || key == "nodes" || key == "max_insts" ||
            key == "block_pages" || key == "event_driven" ||
            key == "fault_max_delay" || key == "fault_seed" ||
            key == "rerequest_timeout" ||
            key == "bshr_hard" || key == "bshr_capacity" ||
            key == "trace_reuse" || key == "sample_interval" ||
            key == "profile")
            return bad("an unsigned integer");
        error = "unknown key '" + key + "'";
        return false;
    }
    auto u = [v] { return static_cast<unsigned>(v); };
    if (key == "scale") {
        if (v == 0 || v > 4096)
            return bad("a scale in 1..4096");
        req.scale = u();
    } else if (key == "nodes") {
        if (v == 0 || v > 256)
            return bad("a node count in 1..256");
        req.config.numNodes = u();
    } else if (key == "block_pages") {
        if (v == 0)
            return bad("a positive page count");
        req.blockPages = u();
    } else if (key == "max_insts")
        req.config.maxInsts = v;
    else if (key == "event_driven")
        req.config.eventDriven = v != 0;
    else if (key == "fault_max_delay")
        req.config.fault.maxDelay = v;
    else if (key == "fault_seed")
        req.config.fault.seed = v;
    else if (key == "rerequest_timeout") {
        req.config.rerequestTimeout = v;
        req.rerequestTimeoutSet = true;
    } else if (key == "bshr_hard")
        req.config.bshrHardCapacity = v != 0;
    else if (key == "bshr_capacity") {
        if (v == 0)
            return bad("a positive entry count");
        req.config.bshrCapacity = u();
    } else if (key == "trace_reuse")
        req.traceReuse = v != 0;
    else if (key == "sample_interval")
        req.sampleInterval = v;
    else if (key == "profile")
        req.profile = v != 0;
    else {
        error = "unknown key '" + key + "'";
        return false;
    }
    return true;
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
    bool any = false;
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::string t = kv::trim(line);
        if (t.empty()) {
            if (any)
                break; // a blank line terminates the block
            continue;
        }
        if (t[0] == '#')
            continue;
        std::string key, value;
        if (!kv::splitLine(t, key, value)) {
            error = "line " + std::to_string(lineno) + ": missing '=' or malformed value";
            return false;
        }
        if (!applyRunRequestKey(r, key, value, error)) {
            error = "line " + std::to_string(lineno) + ": " + error;
            return false;
        }
        any = true;
    }
    if (!any) {
        error = "empty request";
        return false;
    }
    finalizeRunRequest(r);
    out = std::move(r);
    return true;
}

std::string
formatRunRequest(const RunRequest &req)
{
    std::ostringstream os;
    kv::emit(os, "workload", req.workload);
    kv::emit(os, "scale", std::uint64_t(req.scale));
    kv::emit(os, "system", systemKindName(req.system));
    kv::emit(os, "nodes", std::uint64_t(req.config.numNodes));
    kv::emit(os, "interconnect",
             interconnectKindName(req.config.interconnect));
    kv::emit(os, "max_insts", std::uint64_t(req.config.maxInsts));
    kv::emit(os, "block_pages", std::uint64_t(req.blockPages));
    kv::emit(os, "event_driven",
             std::uint64_t(req.config.eventDriven ? 1 : 0));
    kv::emit(os, "fault_drop", req.config.fault.dropProb);
    kv::emit(os, "fault_dup", req.config.fault.dupProb);
    kv::emit(os, "fault_delay", req.config.fault.delayProb);
    kv::emit(os, "fault_max_delay",
             std::uint64_t(req.config.fault.maxDelay));
    kv::emit(os, "fault_seed", req.config.fault.seed);
    kv::emit(os, "rerequest_timeout",
             std::uint64_t(req.config.rerequestTimeout));
    kv::emit(os, "bshr_hard",
             std::uint64_t(req.config.bshrHardCapacity ? 1 : 0));
    kv::emit(os, "bshr_capacity",
             std::uint64_t(req.config.bshrCapacity));
    kv::emit(os, "trace_reuse", std::uint64_t(req.traceReuse ? 1 : 0));
    kv::emit(os, "sample_interval", std::uint64_t(req.sampleInterval));
    if (req.profile)
        kv::emit(os, "profile", std::uint64_t(1));
    if (!req.perfettoPath.empty())
        kv::emit(os, "perfetto", req.perfettoPath);
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

bool
isRegisteredWorkload(const std::string &name)
{
    for (const auto &w : workloads::allWorkloads())
        if (name == w.name)
            return true;
    return false;
}

/**
 * Observability wiring for any timing system: optional
 * stderr tracing and Perfetto export (fanned out via the system's
 * TeeTraceSink; path "-" streams to stdout), an optional flight
 * recorder dumped by any panic (e.g. the run-loop watchdog), an
 * optional sampled timeline, optional request spans / the wall-clock
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

    obs::Sampler local_sampler(req.sampleInterval ? req.sampleInterval
                                                  : 1);
    obs::Sampler *sampler = req.sampler;
    if (!sampler && req.sampleInterval)
        sampler = &local_sampler;
    if (sampler)
        sys.setSampler(sampler);

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
    if (sampler == &local_sampler) {
        std::ostringstream os;
        local_sampler.writeJson(os);
        resp.timelineJson = os.str();
    }
    resp.error = resp.result.error;
    return resp.ok();
}

} // namespace

RunResponse
runOne(const RunRequest &req, TraceCache *cache)
{
    RunResponse resp;
    resp.meta = runMeta(req);

    // A hard BSHR drops broadcasts at a full bank, and only re-request
    // recovery brings them back. DataScalarSystem refuses the pair as
    // a fatal config error; refuse it here, as a value, so one request
    // cannot end the process that serves it.
    if (req.system == SystemKind::DataScalar &&
        req.config.bshrHardCapacity && req.config.rerequestTimeout == 0) {
        resp.error = "bshr_hard needs re-request recovery "
                     "(rerequest_timeout > 0)";
        return resp;
    }

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
        if (!isRegisteredWorkload(req.workload)) {
            resp.error = "unknown workload '" + req.workload + "'";
            return resp;
        }
        program =
            cache ? cache->program(req.workload, req.scale)
                  : std::make_shared<const prog::Program>(
                        workloads::findWorkload(req.workload)
                            .build(req.scale));
    }

    std::shared_ptr<const func::InstTrace> trace = req.trace;
    if (!trace && req.traceReuse && !req.program) {
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
