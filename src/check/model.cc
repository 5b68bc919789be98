#include "check/model.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "common/logging.hh"

namespace dscalar {
namespace check {

namespace {

using core::ProtocolMutation;

constexpr unsigned kMaxNodes = 4;
constexpr unsigned kMaxLines = 4;
constexpr unsigned kMaxEpisodes = 6;

/** Lifecycle of one episode on one node. Commits are in-order, so
 *  every node's stage array is a Committed prefix followed by the
 *  active window. */
enum Stage : std::uint8_t {
    NotIssued = 0,
    WaitData,     ///< fetched on a non-owner; BSHR waiter outstanding
    ReadyFetched, ///< fetched, data in hand (claim at commit)
    ReadyNoFetch, ///< never fetched (pure false hit at commit)
    Committed
};

/**
 * One abstract protocol state. Everything is a small saturating
 * counter; the encoding below packs exactly the bytes the configured
 * shape uses, so the hashed visited-set stays dense.
 */
struct State
{
    std::uint8_t stage[kMaxNodes][kMaxEpisodes]{};
    // BSHR bank per (node, line).
    std::uint8_t waiters[kMaxNodes][kMaxLines]{};
    std::uint8_t buffered[kMaxNodes][kMaxLines]{};
    std::uint8_t pending[kMaxNodes][kMaxLines]{};
    // Per-node consumption/delivery accounting (conservation).
    std::uint8_t woken[kMaxNodes]{};
    std::uint8_t bufferedHits[kMaxNodes]{};
    std::uint8_t squashes[kMaxNodes]{};
    std::uint8_t received[kMaxNodes]{};
    // In-flight broadcast copies per (line, destination).
    std::uint8_t inflight[kMaxLines][kMaxNodes]{};
    // Fault budgets consumed so far.
    std::uint8_t dups = 0;
    std::uint8_t drops = 0;
    std::uint8_t rerequests[kMaxNodes][kMaxLines]{};
};

/** Event kinds; the outcome is folded in so traces read on their
 *  own ("deliver ... wake waiter" vs a bare "deliver"). */
enum class Ev : std::uint8_t {
    IssueFetchOwner, ///< owner fetch: ESP broadcast at issue
    IssueFetchWait,  ///< non-owner fetch: BSHR waiter allocated
    IssueFetchHit,   ///< non-owner fetch: buffered broadcast consumed
    IssueNoFetch,    ///< no DCUB entry this episode
    CommitClaim,     ///< canonical miss claims the episode's fetch
    CommitReparative,    ///< owner false hit: reparative broadcast
    CommitSquashBuffered, ///< false hit squashes a buffered broadcast
    CommitSquashPending,  ///< false hit registers a pending squash
    DeliverWake,   ///< broadcast wakes the oldest waiter
    DeliverBuffer, ///< broadcast buffered for a future request
    DeliverSquash, ///< broadcast consumed by a pending squash
    FaultDup,      ///< fault: duplicate one in-flight copy
    FaultDrop,     ///< fault: lose one in-flight copy
    Rerequest      ///< stranded waiter re-requests; owner re-floods
};

/** Packed event: kind | node | episode (0xff = n/a) | line. */
std::uint32_t
packEvent(Ev kind, unsigned node, unsigned ep, unsigned line)
{
    return (static_cast<std::uint32_t>(kind) << 24) |
           (node << 16) | (ep << 8) | line;
}

std::string
eventName(std::uint32_t packed)
{
    auto kind = static_cast<Ev>(packed >> 24);
    unsigned node = (packed >> 16) & 0xff;
    unsigned ep = (packed >> 8) & 0xff;
    unsigned line = packed & 0xff;
    char buf[96];
    switch (kind) {
      case Ev::IssueFetchOwner:
        std::snprintf(buf, sizeof(buf),
                      "issue   n%u ep%u line%u: fetch, owner "
                      "broadcast", node, ep, line);
        break;
      case Ev::IssueFetchWait:
        std::snprintf(buf, sizeof(buf),
                      "issue   n%u ep%u line%u: fetch, BSHR waiter",
                      node, ep, line);
        break;
      case Ev::IssueFetchHit:
        std::snprintf(buf, sizeof(buf),
                      "issue   n%u ep%u line%u: fetch, buffered hit",
                      node, ep, line);
        break;
      case Ev::IssueNoFetch:
        std::snprintf(buf, sizeof(buf),
                      "issue   n%u ep%u line%u: no fetch (false "
                      "hit)", node, ep, line);
        break;
      case Ev::CommitClaim:
        std::snprintf(buf, sizeof(buf),
                      "commit  n%u ep%u line%u: claim fetch", node,
                      ep, line);
        break;
      case Ev::CommitReparative:
        std::snprintf(buf, sizeof(buf),
                      "commit  n%u ep%u line%u: reparative "
                      "broadcast", node, ep, line);
        break;
      case Ev::CommitSquashBuffered:
        std::snprintf(buf, sizeof(buf),
                      "commit  n%u ep%u line%u: squash buffered "
                      "broadcast", node, ep, line);
        break;
      case Ev::CommitSquashPending:
        std::snprintf(buf, sizeof(buf),
                      "commit  n%u ep%u line%u: register pending "
                      "squash", node, ep, line);
        break;
      case Ev::DeliverWake:
        std::snprintf(buf, sizeof(buf),
                      "deliver line%u -> n%u: wake waiter", line,
                      node);
        break;
      case Ev::DeliverBuffer:
        std::snprintf(buf, sizeof(buf),
                      "deliver line%u -> n%u: buffer", line, node);
        break;
      case Ev::DeliverSquash:
        std::snprintf(buf, sizeof(buf),
                      "deliver line%u -> n%u: consume pending "
                      "squash", line, node);
        break;
      case Ev::FaultDup:
        std::snprintf(buf, sizeof(buf),
                      "fault   duplicate line%u -> n%u", line, node);
        break;
      case Ev::FaultDrop:
        std::snprintf(buf, sizeof(buf),
                      "fault   drop line%u -> n%u", line, node);
        break;
      case Ev::Rerequest:
        std::snprintf(buf, sizeof(buf),
                      "rerequest n%u line%u: owner re-broadcasts",
                      node, line);
        break;
      default:
        std::snprintf(buf, sizeof(buf), "event %#x", packed);
    }
    return buf;
}

unsigned
ownerOf(const ModelConfig &cfg, unsigned line)
{
    return line % cfg.nodes;
}

/** Pack exactly the bytes the configured shape uses. */
std::string
encode(const ModelConfig &cfg, const State &s)
{
    std::string out;
    out.reserve(cfg.nodes * (cfg.episodes + 3 * cfg.lines + 4) +
                cfg.lines * cfg.nodes + 2 +
                (cfg.faults ? cfg.nodes * cfg.lines : 0));
    for (unsigned n = 0; n < cfg.nodes; ++n) {
        for (unsigned e = 0; e < cfg.episodes; ++e)
            out.push_back(static_cast<char>(s.stage[n][e]));
        for (unsigned l = 0; l < cfg.lines; ++l) {
            out.push_back(static_cast<char>(s.waiters[n][l]));
            out.push_back(static_cast<char>(s.buffered[n][l]));
            out.push_back(static_cast<char>(s.pending[n][l]));
        }
        out.push_back(static_cast<char>(s.woken[n]));
        out.push_back(static_cast<char>(s.bufferedHits[n]));
        out.push_back(static_cast<char>(s.squashes[n]));
        out.push_back(static_cast<char>(s.received[n]));
    }
    for (unsigned l = 0; l < cfg.lines; ++l)
        for (unsigned n = 0; n < cfg.nodes; ++n)
            out.push_back(static_cast<char>(s.inflight[l][n]));
    out.push_back(static_cast<char>(s.dups));
    out.push_back(static_cast<char>(s.drops));
    if (cfg.faults)
        for (unsigned n = 0; n < cfg.nodes; ++n)
            for (unsigned l = 0; l < cfg.lines; ++l)
                out.push_back(static_cast<char>(s.rerequests[n][l]));
    return out;
}

State
decode(const ModelConfig &cfg, const std::string &in)
{
    State s;
    std::size_t i = 0;
    auto u8 = [&in, &i] {
        return static_cast<std::uint8_t>(in[i++]);
    };
    for (unsigned n = 0; n < cfg.nodes; ++n) {
        for (unsigned e = 0; e < cfg.episodes; ++e)
            s.stage[n][e] = u8();
        for (unsigned l = 0; l < cfg.lines; ++l) {
            s.waiters[n][l] = u8();
            s.buffered[n][l] = u8();
            s.pending[n][l] = u8();
        }
        s.woken[n] = u8();
        s.bufferedHits[n] = u8();
        s.squashes[n] = u8();
        s.received[n] = u8();
    }
    for (unsigned l = 0; l < cfg.lines; ++l)
        for (unsigned n = 0; n < cfg.nodes; ++n)
            s.inflight[l][n] = u8();
    s.dups = u8();
    s.drops = u8();
    if (cfg.faults)
        for (unsigned n = 0; n < cfg.nodes; ++n)
            for (unsigned l = 0; l < cfg.lines; ++l)
                s.rerequests[n][l] = u8();
    panic_if(i != in.size(), "model state decode size mismatch");
    return s;
}

bool
isTerminal(const ModelConfig &cfg, const State &s)
{
    for (unsigned n = 0; n < cfg.nodes; ++n)
        if (s.stage[n][cfg.episodes - 1] != Committed)
            return false;
    for (unsigned l = 0; l < cfg.lines; ++l)
        for (unsigned n = 0; n < cfg.nodes; ++n)
            if (s.inflight[l][n])
                return false;
    return true;
}

/** The broadcast fan-out: one copy in flight per other node. */
void
flood(const ModelConfig &cfg, State &s, unsigned from, unsigned line)
{
    for (unsigned n = 0; n < cfg.nodes; ++n)
        if (n != from)
            ++s.inflight[line][n];
}

/** Bshr::deliver, abstractly: squash, wake, or buffer (in the
 *  concrete priority order), honouring the planted mutation. */
std::uint32_t
applyDeliver(const ModelConfig &cfg,
             const std::vector<unsigned> &script, State &s,
             unsigned line, unsigned dest)
{
    ++s.received[dest];
    if (s.pending[dest][line] > 0) {
        --s.pending[dest][line];
        ++s.squashes[dest];
        if (cfg.mutation == ProtocolMutation::DeliverSquashBuffers)
            ++s.buffered[dest][line];
        return packEvent(Ev::DeliverSquash, dest, 0, line);
    }
    if (s.waiters[dest][line] > 0) {
        --s.waiters[dest][line];
        ++s.woken[dest];
        // Per-line FIFO matching: the oldest waiting episode of this
        // line wakes, exactly as the concrete BSHR matches arrivals.
        for (unsigned e = 0; e < cfg.episodes; ++e) {
            if (s.stage[dest][e] == WaitData && script[e] == line) {
                s.stage[dest][e] = ReadyFetched;
                return packEvent(Ev::DeliverWake, dest, e, line);
            }
        }
        panic("model: waiter count with no WaitData episode");
    }
    ++s.buffered[dest][line];
    return packEvent(Ev::DeliverBuffer, dest, 0, line);
}

struct Succ
{
    std::uint32_t event;
    State next;
};

void
successors(const ModelConfig &cfg, const std::vector<unsigned> &script,
           const State &s, std::vector<Succ> &out)
{
    out.clear();

    for (unsigned n = 0; n < cfg.nodes; ++n) {
        // Issue: the first not-yet-issued episode, with a free
        // fetched / not-fetched choice (the abstraction of every
        // issue-order and DCUB-occupancy outcome the OoO core can
        // produce).
        unsigned issue = cfg.episodes;
        for (unsigned e = 0; e < cfg.episodes; ++e) {
            if (s.stage[n][e] == NotIssued) {
                issue = e;
                break;
            }
        }
        if (issue < cfg.episodes) {
            unsigned line = script[issue];
            if (ownerOf(cfg, line) == n) {
                State t = s;
                t.stage[n][issue] = ReadyFetched;
                flood(cfg, t, n, line);
                out.push_back({packEvent(Ev::IssueFetchOwner, n,
                                         issue, line),
                               t});
            } else if (s.buffered[n][line] > 0) {
                State t = s;
                if (cfg.mutation !=
                    ProtocolMutation::BufferedHitKeepsData)
                    --t.buffered[n][line];
                ++t.bufferedHits[n];
                t.stage[n][issue] = ReadyFetched;
                out.push_back({packEvent(Ev::IssueFetchHit, n, issue,
                                         line),
                               t});
            } else {
                State t = s;
                ++t.waiters[n][line];
                t.stage[n][issue] = WaitData;
                out.push_back({packEvent(Ev::IssueFetchWait, n,
                                         issue, line),
                               t});
            }
            State t = s;
            t.stage[n][issue] = ReadyNoFetch;
            out.push_back(
                {packEvent(Ev::IssueNoFetch, n, issue, line), t});
        }

        // Commit: in order; WaitData blocks until the waiter wakes.
        unsigned pc = 0;
        while (pc < cfg.episodes && s.stage[n][pc] == Committed)
            ++pc;
        if (pc < cfg.episodes) {
            unsigned line = script[pc];
            if (s.stage[n][pc] == ReadyFetched) {
                State t = s;
                t.stage[n][pc] = Committed;
                out.push_back(
                    {packEvent(Ev::CommitClaim, n, pc, line), t});
            } else if (s.stage[n][pc] == ReadyNoFetch) {
                State t = s;
                t.stage[n][pc] = Committed;
                if (ownerOf(cfg, line) == n) {
                    flood(cfg, t, n, line);
                    out.push_back({packEvent(Ev::CommitReparative, n,
                                             pc, line),
                                   t});
                } else if (s.buffered[n][line] > 0) {
                    --t.buffered[n][line];
                    ++t.squashes[n];
                    out.push_back(
                        {packEvent(Ev::CommitSquashBuffered, n, pc,
                                   line),
                         t});
                } else {
                    if (cfg.mutation !=
                        ProtocolMutation::SquashPendingLost)
                        ++t.pending[n][line];
                    out.push_back(
                        {packEvent(Ev::CommitSquashPending, n, pc,
                                   line),
                         t});
                }
            }
        }
    }

    // Deliveries: any in-flight copy may arrive next (arbitrary
    // order subsumes every delay pattern).
    for (unsigned l = 0; l < cfg.lines; ++l) {
        for (unsigned n = 0; n < cfg.nodes; ++n) {
            if (!s.inflight[l][n])
                continue;
            State t = s;
            --t.inflight[l][n];
            std::uint32_t ev = applyDeliver(cfg, script, t, l, n);
            out.push_back({ev, t});
        }
    }

    if (!cfg.faults)
        return;

    const unsigned rerequestBudget =
        cfg.episodes + cfg.maxDrops + 1;
    for (unsigned l = 0; l < cfg.lines; ++l) {
        for (unsigned n = 0; n < cfg.nodes; ++n) {
            if (s.inflight[l][n]) {
                if (s.dups < cfg.maxDups) {
                    State t = s;
                    ++t.inflight[l][n];
                    ++t.dups;
                    out.push_back(
                        {packEvent(Ev::FaultDup, n, 0xff, l), t});
                }
                if (s.drops < cfg.maxDrops) {
                    State t = s;
                    --t.inflight[l][n];
                    ++t.drops;
                    out.push_back(
                        {packEvent(Ev::FaultDrop, n, 0xff, l), t});
                }
            } else if (s.waiters[n][l] > 0 &&
                       s.rerequests[n][l] < rerequestBudget) {
                // Re-request recovery, as the concrete protocol does
                // it: the stranded node asks, the owner re-reads
                // memory and re-broadcasts to everyone. Guarded on
                // "nothing in flight for me" so enumeration cannot
                // burn the budget while data is already on the way.
                State t = s;
                ++t.rerequests[n][l];
                flood(cfg, t, ownerOf(cfg, l), l);
                out.push_back(
                    {packEvent(Ev::Rerequest, n, 0xff, l), t});
            }
        }
    }
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    char buf[256];
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

/** Invariants of a finished (terminal) state — the oracle's checks,
 *  strict on a reliable medium, relaxed under faults. */
std::string
checkTerminal(const ModelConfig &cfg, const State &s)
{
    for (unsigned n = 0; n < cfg.nodes; ++n) {
        for (unsigned l = 0; l < cfg.lines; ++l) {
            if (s.waiters[n][l])
                return format("stranded waiter: node %u line %u has "
                              "%u waiters after completion",
                              n, l, s.waiters[n][l]);
            if (cfg.faults)
                continue; // residue is benign once delivery faults
            if (s.buffered[n][l] || s.pending[n][l])
                return format(
                    "protocol not drained: node %u line %u left %u "
                    "buffered / %u pending squashes",
                    n, l, s.buffered[n][l], s.pending[n][l]);
        }
        if (!cfg.faults) {
            unsigned consumed = s.woken[n] + s.bufferedHits[n] +
                                s.squashes[n];
            if (consumed != s.received[n])
                return format("broadcast conservation violation on "
                              "node %u: consumed %u of %u received",
                              n, consumed, s.received[n]);
        }
    }
    return "";
}

std::string
describeDeadlock(const ModelConfig &cfg,
                 const std::vector<unsigned> &script, const State &s)
{
    for (unsigned n = 0; n < cfg.nodes; ++n)
        for (unsigned e = 0; e < cfg.episodes; ++e)
            if (s.stage[n][e] == WaitData)
                return format("deadlock: node %u episode %u still "
                              "waits for line %u with no broadcast "
                              "in flight",
                              n, e, script[e]);
    return "deadlock: no event enabled before completion";
}

struct Rec
{
    std::uint32_t parent;
    std::uint32_t event;
    std::uint16_t depth;
};

std::vector<std::string>
buildTrace(const std::vector<Rec> &recs, std::uint32_t idx)
{
    std::vector<std::string> out;
    while (idx != 0) {
        out.push_back(eventName(recs[idx].event));
        idx = recs[idx].parent;
    }
    std::reverse(out.begin(), out.end());
    return out;
}

} // namespace

std::string
describeModelConfig(const ModelConfig &c)
{
    std::ostringstream os;
    os << "nodes=" << c.nodes << " lines=" << c.lines
       << " episodes=" << c.episodes
       << " faults=" << (c.faults ? 1 : 0);
    if (c.faults)
        os << " maxdups=" << c.maxDups << " maxdrops=" << c.maxDrops;
    if (c.depthBound)
        os << " depth<=" << c.depthBound;
    if (c.mutation != ProtocolMutation::None)
        os << " mutation=" << protocolMutationName(c.mutation);
    return os.str();
}

std::string
ModelConfig::validate() const
{
    const struct
    {
        const char *what;
        unsigned value, lo, hi;
    } bounds[] = {{"model nodes", nodes, 2, kMaxNodes},
                  {"model lines", lines, 1, kMaxLines},
                  {"model episodes", episodes, 1, kMaxEpisodes}};
    for (const auto &b : bounds)
        if (b.value < b.lo || b.value > b.hi)
            return std::string(b.what) + " " + std::to_string(b.value) +
                   " outside " + std::to_string(b.lo) + ".." +
                   std::to_string(b.hi);
    return "";
}

ModelResult
checkScript(const ModelConfig &cfg,
            const std::vector<unsigned> &script)
{
    std::string shape_error = cfg.validate();
    fatal_if(!shape_error.empty(), "%s", shape_error.c_str());
    fatal_if(script.size() != cfg.episodes,
             "model: script length %zu != episodes %u",
             script.size(), cfg.episodes);
    for (unsigned line : script)
        fatal_if(line >= cfg.lines, "model: script line %u out of "
                 "range", line);

    ModelResult res;
    res.scriptsChecked = 1;
    res.script = script;

    std::vector<std::string> keys;
    std::vector<Rec> recs;
    std::unordered_map<std::string, std::uint32_t> seen;

    State init{};
    keys.push_back(encode(cfg, init));
    recs.push_back({0, 0, 0});
    seen.emplace(keys[0], 0);

    std::vector<Succ> succs;
    for (std::uint32_t idx = 0; idx < keys.size(); ++idx) {
        const State s = decode(cfg, keys[idx]);
        const unsigned depth = recs[idx].depth;
        res.maxDepth = std::max(res.maxDepth, depth);

        if (isTerminal(cfg, s)) {
            std::string bad = checkTerminal(cfg, s);
            if (!bad.empty()) {
                res.ok = false;
                res.violation = std::move(bad);
                res.trace = buildTrace(recs, idx);
                res.states = keys.size();
                return res;
            }
            continue;
        }

        successors(cfg, script, s, succs);
        if (succs.empty()) {
            res.ok = false;
            res.violation = describeDeadlock(cfg, script, s);
            res.trace = buildTrace(recs, idx);
            res.states = keys.size();
            return res;
        }

        if (cfg.depthBound && depth >= cfg.depthBound) {
            res.exhaustive = false;
            continue;
        }

        for (Succ &succ : succs) {
            ++res.transitions;
            std::string key = encode(cfg, succ.next);
            auto [it, inserted] =
                seen.emplace(std::move(key), keys.size());
            if (!inserted)
                continue;
            if (keys.size() >= cfg.maxStates) {
                seen.erase(it);
                res.exhaustive = false;
                continue;
            }
            keys.push_back(it->first);
            recs.push_back({idx, succ.event,
                            static_cast<std::uint16_t>(depth + 1)});
        }
    }

    res.states = keys.size();
    return res;
}

ModelResult
checkModel(const ModelConfig &cfg)
{
    ModelResult total;
    total.scriptsChecked = 0;

    std::vector<unsigned> script(cfg.episodes, 0);
    for (;;) {
        ModelResult one = checkScript(cfg, script);
        total.states += one.states;
        total.transitions += one.transitions;
        total.maxDepth = std::max(total.maxDepth, one.maxDepth);
        total.exhaustive = total.exhaustive && one.exhaustive;
        ++total.scriptsChecked;
        if (!one.ok) {
            total.ok = false;
            total.violation = std::move(one.violation);
            total.script = std::move(one.script);
            total.trace = std::move(one.trace);
            return total;
        }
        // Next script, counting in base `lines`.
        unsigned pos = 0;
        while (pos < cfg.episodes && ++script[pos] == cfg.lines) {
            script[pos] = 0;
            ++pos;
        }
        if (pos == cfg.episodes)
            break;
    }
    return total;
}

TrialConfig
modelTrialConfig(const ModelConfig &cfg)
{
    TrialConfig c;
    c.system = driver::SystemKind::DataScalar;
    c.nodes = cfg.nodes;
    c.mutation = cfg.mutation;
    // The model's fault mode (duplicates/drops with recovery and
    // relaxed invariants) maps to concrete fault injection with
    // re-request recovery armed.
    c.faults = cfg.faults;
    return c;
}

std::string
formatCounterexample(const ModelConfig &cfg, const ModelResult &res)
{
    if (res.ok)
        return "";
    std::ostringstream os;
    os << "model counterexample (" << describeModelConfig(cfg)
       << ")\n";
    os << "script:";
    for (std::size_t e = 0; e < res.script.size(); ++e)
        os << " ep" << e << "=line" << res.script[e] << "(owner n"
           << (res.script[e] % cfg.nodes) << ")";
    os << "\nviolation: " << res.violation << "\n";
    for (std::size_t i = 0; i < res.trace.size(); ++i) {
        char num[32];
        std::snprintf(num, sizeof(num), "%3zu. ", i + 1);
        os << num << res.trace[i] << "\n";
    }
    return os.str();
}

} // namespace check
} // namespace dscalar
