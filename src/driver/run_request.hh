/**
 * @file
 * The one driver entry point: a serializable RunRequest describing a
 * timing run, and runOne/runMany executing it.
 *
 * Every way of asking for a simulation goes through this type — the
 * dsrun CLI flags, the dsserve wire protocol, and library callers
 * (benches, tests, the fuzz oracle) — so a run can be described
 * once, shipped anywhere, and reproduced byte-for-byte. The
 * serialized form is line-oriented `key = value` text in the same
 * convention as dsfuzz repro files (common/kv.hh); parse and format
 * are exact inverses over the serializable subset, locked by
 * tests/test_run_request.cc.
 *
 * runOne and runMany are the only ways to run a timing simulation: a
 * caller with a program built in place attaches it as
 * RunRequest::program; a registered workload is named by
 * RunRequest::workload and shares a TraceCache across runs.
 */

#ifndef DSCALAR_DRIVER_RUN_REQUEST_HH
#define DSCALAR_DRIVER_RUN_REQUEST_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/kv.hh"
#include "core/sim_config.hh"
#include "func/inst_trace.hh"
#include "obs/span.hh"
#include "prog/program.hh"
#include "stats/json_writer.hh"

namespace dscalar {
namespace driver {

class TraceCache;

/** The paper's Section 4.2 system parameters. */
core::SimConfig paperConfig();

/** Simulated system family for a timing run. */
enum class SystemKind : std::uint8_t {
    Perfect,     ///< perfect-data-cache upper bound
    DataScalar,  ///< the paper's machine
    Traditional  ///< request/response baseline
};

/** SystemKind names, in value order. */
inline constexpr const char *kSystemKindNames[] = {"perfect", "datascalar",
                                                   "traditional"};

/** InterconnectKind names, in value order. */
inline constexpr const char *kInterconnectKindNames[] = {"bus", "ring"};

/** The ranges of the keys a repro file shares with a request. */
inline constexpr common::kv::Range kNodesRange{1, core::kMaxNodes,
                                               "node count"};
inline constexpr common::kv::Range kBshrCapacityRange{
    .min = 1, .noun = "entry count"};

/** @return printable name of @p kind ("perfect" | "datascalar" |
 *  "traditional"). */
const char *systemKindName(SystemKind kind);

/** Parse a system name; std::nullopt when @p name matches no
 *  SystemKind. */
std::optional<SystemKind> parseSystemKind(const std::string &name);

/** @return printable name of @p kind ("bus" | "ring"). */
const char *interconnectKindName(core::InterconnectKind kind);

/** Parse an interconnect name; std::nullopt when @p name matches no
 *  InterconnectKind. */
std::optional<core::InterconnectKind>
parseInterconnectKind(const std::string &name);

/**
 * One timing run, fully described.
 *
 * The serializable subset (everything formatRunRequest emits) covers
 * the registered-workload surface that dsrun flags and the dsserve
 * wire protocol expose. Library callers may additionally attach a
 * pre-built program or a pre-captured trace — those fields do not
 * serialize and are documented as such.
 */
struct RunRequest
{
    // --- serializable: what to run -------------------------------
    std::string workload;    ///< registered workload name (key
                             ///  `workload`; CLI also accepts a .s
                             ///  path together with @ref program)
    unsigned scale = 1;      ///< workload build scale (key `scale`)
    SystemKind system = SystemKind::DataScalar; ///< key `system`
    /** Full simulator configuration. Parsing writes the serialized
     *  keys (`nodes`, `interconnect`, `max_insts`, `event_driven`,
     *  `fault_*`, `rerequest_timeout`, `bshr_hard`, `bshr_capacity`)
     *  into it on top of paperConfig(); unlisted SimConfig fields
     *  keep the paper defaults and can be adjusted directly by
     *  library callers (fig8-style parameter studies). */
    core::SimConfig config = paperConfig();
    unsigned blockPages = 1; ///< page-distribution block size
                             ///  (key `block_pages`)

    // --- serializable: run attachments ---------------------------
    /** Sample a per-node timeline every N cycles into the stats JSON
     *  (key `sample_interval`; 0 = off). */
    Cycle sampleInterval = 0;
    /** Write a Perfetto trace to this (server-side) file
     *  (key `perfetto`; "" = off). */
    std::string perfettoPath;
    /** Instrument the run loop with the wall-clock phase profiler and
     *  append the `profile` stats group to the JSON export (key
     *  `profile`, emitted only when set; 0/absent = off). Wall-clock
     *  only — every simulated number stays byte-identical, so replies
     *  to profiled and unprofiled requests differ exactly by the
     *  profile group and the run_meta `profile` line. */
    bool profile = false;

    /** Bookkeeping: true once `rerequest_timeout` was set explicitly
     *  (finalizeRunRequest only applies the fault/hard-BSHR recovery
     *  default when it was not). */
    bool rerequestTimeoutSet = false;

    // --- non-serialized library attachments ----------------------
    /** Pre-built program; overrides @ref workload lookup. */
    std::shared_ptr<const prog::Program> program;
    /** Pre-captured trace to replay; overrides TraceCache lookup. */
    std::shared_ptr<const func::InstTrace> trace;
    /** Stream protocol events to stderr (dsrun --trace). */
    bool traceToStderr = false;
    /** Keep a flight recorder attached and dump it on panic (dsrun
     *  and dsserve turn this on; library sweeps stay lean). */
    bool flightRecorder = false;
    /** External span recorder: runOne opens request-phase spans on it
     *  (build, trace acquisition, sim_run, ...) and, when @ref
     *  profile is also set, attaches it to the system as the phase
     *  profiler. dsserve threads its per-request recorder through
     *  here; nullptr (with profile set) makes runOne use a private
     *  one so the profile group still appears. */
    obs::SpanRecorder *spans = nullptr;
};

/** Outcome of one RunRequest. */
struct RunResponse
{
    core::RunResult result;   ///< cycles / instructions / IPC / stats
    std::string output;       ///< program syscall output
    bool drained = true;      ///< DataScalar protocolDrained()
    bool cacheHit = false;    ///< trace served from a warm cache entry
    stats::RunMeta meta;      ///< run_meta block of the stats JSON
    std::string timelineJson; ///< sampler timeline ("" when unsampled)
    /** Non-empty when the request was rejected (the run never
     *  started) or the run ended in an expected failure such as an
     *  unreachable owner (core::RunResult::error). */
    std::string error;

    bool ok() const { return error.empty(); }

    /** The full stats JSON document (run_meta + groups + timeline) —
     *  byte-identical for the same request whether produced by a
     *  cold dsrun, a warm dsserve, or a direct runOne call. */
    std::string statsJson() const;
};

/** Every serialized RunRequest key, in format order (the schema
 *  applyRunRequestKey, parseRunRequest, formatRunRequest and dsrun's
 *  usage are generated from). */
std::span<const common::kv::Key> runRequestKeys();

/**
 * Apply one serialized key to @p req.
 * @return false with @p error set ("unknown key ...", "unknown
 * system ...", "bad value ...") on any unrecognized or malformed
 * input; @p req is unchanged in that case.
 */
bool applyRunRequestKey(RunRequest &req, const std::string &key,
                        const std::string &value, std::string &error);

/**
 * Apply the CLI/auto recovery rule: when `rerequest_timeout` was
 * never set explicitly but drop faults or hard BSHR capacity are on,
 * arm re-request recovery at 2000 cycles (dropped data must be
 * recoverable). Parsing calls this; CLI front ends call it after
 * their flag loop.
 */
void finalizeRunRequest(RunRequest &req);

/**
 * Parse one newline-delimited `key = value` block: '#' comments and
 * leading/trailing blanks are ignored, the block ends at the first
 * blank line after any content (or EOF). Applies finalizeRunRequest.
 * @return false with @p error set on malformed input or when the
 * block contains no keys at all.
 */
bool parseRunRequest(std::istream &in, RunRequest &out,
                     std::string &error);

/** Serialize the full serializable subset, one `key = value` line
 *  per field, parseRunRequest-compatible. */
std::string formatRunRequest(const RunRequest &req);

/** The run_meta block every stats JSON export of @p req carries
 *  (shared by dsrun and dsserve so their documents byte-match). */
stats::RunMeta runMeta(const RunRequest &req);

/**
 * Execute one request. The program comes from @ref
 * RunRequest::program, else @p cache (built once per (workload,
 * scale)), else a fresh registry build; the replayed trace from
 * @ref RunRequest::trace, else @p cache when the program came from
 * the workload registry, else the run executes live (byte-identical
 * numbers either way). Unknown workloads, unwritable perfetto
 * paths and hopeless runs (an owner unreachable after every
 * re-request) come back as RunResponse::error rather than aborting
 * (the serving path must survive bad requests).
 */
RunResponse runOne(const RunRequest &req, TraceCache *cache = nullptr);

/**
 * Execute every request on up to @p jobs worker threads (1 = serial,
 * 0 = hardware concurrency), sharing @p cache. Responses come back
 * in request order regardless of scheduling, byte-identical to a
 * serial loop.
 */
std::vector<RunResponse> runMany(const std::vector<RunRequest> &requests,
                                 TraceCache &cache, unsigned jobs = 1);

} // namespace driver
} // namespace dscalar

#endif // DSCALAR_DRIVER_RUN_REQUEST_HH
