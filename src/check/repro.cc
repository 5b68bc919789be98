#include "check/repro.hh"

#include <fstream>
#include <optional>
#include <sstream>

#include "common/kv.hh"
#include "driver/driver.hh"

namespace dscalar {
namespace check {

// The `key = value` line convention is shared with RunRequest
// serialization and the dsserve wire protocol (common/kv.hh), so the
// three formats cannot drift apart.
using common::kv::emit;
using common::kv::parseU64;
using common::kv::splitLine;
using common::kv::trim;

namespace {

constexpr char kMagic[] = "# dsfuzz repro v1";

} // namespace

std::string
formatRepro(const ReproCase &r)
{
    std::ostringstream os;
    os << kMagic << "\n";
    os << "# " << describeConfig(r.config) << "\n";
    emit(os, "seed", r.seed);

    const GenParams &p = r.params;
    emit(os, "min_data_pages", p.minDataPages);
    emit(os, "max_data_pages", p.maxDataPages);
    emit(os, "min_iters", p.minIters);
    emit(os, "max_iters", p.maxIters);
    emit(os, "min_block_ops", p.minBlockOps);
    emit(os, "max_block_ops", p.maxBlockOps);
    emit(os, "mix_load_accum", p.mix.loadAccum);
    emit(os, "mix_store_data", p.mix.storeData);
    emit(os, "mix_load_xor", p.mix.loadXor);
    emit(os, "mix_branch_skip", p.mix.branchSkip);
    emit(os, "mix_cursor_mul", p.mix.cursorMul);
    emit(os, "mix_cursor_hash", p.mix.cursorHash);
    emit(os, "mix_fp_mix", p.mix.fpMix);
    emit(os, "mix_print_syscall", p.mix.printSyscall);
    emit(os, "mix_alias_store_load", p.mix.aliasStoreLoad);
    emit(os, "mix_byte_ops", p.mix.byteOps);
    emit(os, "mix_page_cross", p.mix.pageCross);

    const TrialConfig &c = r.config;
    emit(os, "system", driver::systemKindName(c.system));
    emit(os, "nodes", c.nodes);
    emit(os, "interconnect", driver::interconnectKindName(c.interconnect));
    emit(os, "dcache_bytes", c.dcacheBytes);
    emit(os, "dcache_assoc", c.dcacheAssoc);
    emit(os, "write_allocate", c.writeAllocate ? 1 : 0);
    emit(os, "event_driven", c.eventDriven ? 1 : 0);
    emit(os, "cross_event_driven", c.crossEventDriven ? 1 : 0);
    emit(os, "cross_replay", c.crossReplay ? 1 : 0);
    emit(os, "faults", c.faults ? 1 : 0);
    emit(os, "hard_bshr", c.hardBshr ? 1 : 0);
    emit(os, "faults_no_recovery", c.faultsNoRecovery ? 1 : 0);
    emit(os, "bshr_capacity", c.bshrCapacity);
    emit(os, "max_insts", c.maxInsts);
    emit(os, "fault_seed", c.faultSeed);
    // Only mutation-sensitivity repros carry this key; ordinary
    // repro files omit it.
    if (c.mutation != core::ProtocolMutation::None)
        emit(os, "mutation", core::protocolMutationName(c.mutation));

    emit(os, "mismatch", r.mismatch.c_str());
    return os.str();
}

bool
parseRepro(std::istream &in, ReproCase &out, std::string &error)
{
    ReproCase r;
    bool saw_seed = false;
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::string t = trim(line);
        if (t.empty() || t[0] == '#')
            continue;
        std::string key, value;
        if (!splitLine(t, key, value)) {
            error = "line " + std::to_string(lineno) + ": missing '=' or malformed value";
            return false;
        }

        // String-valued keys first.
        if (key == "mismatch") {
            r.mismatch = value;
            continue;
        }
        if (key == "system") {
            std::optional<driver::SystemKind> kind =
                driver::parseSystemKind(value);
            if (!kind) {
                error = "line " + std::to_string(lineno) +
                        ": unknown system '" + value + "'";
                return false;
            }
            r.config.system = *kind;
            continue;
        }
        if (key == "interconnect") {
            std::optional<core::InterconnectKind> net =
                driver::parseInterconnectKind(value);
            if (!net) {
                error = "line " + std::to_string(lineno) +
                        ": unknown interconnect '" + value + "'";
                return false;
            }
            r.config.interconnect = *net;
            continue;
        }
        if (key == "mutation") {
            if (!core::parseProtocolMutation(value,
                                             r.config.mutation)) {
                error = "line " + std::to_string(lineno) +
                        ": unknown mutation '" + value + "'";
                return false;
            }
            continue;
        }

        // The key is matched before the value is judged, so a key
        // this format does not know is named as such.
        std::uint64_t v = 0;
        bool numeric = parseU64(value, v);
        auto u = [v] { return static_cast<unsigned>(v); };
        if (key == "seed") {
            r.seed = v;
            saw_seed = true;
        } else if (key == "min_data_pages")
            r.params.minDataPages = u();
        else if (key == "max_data_pages")
            r.params.maxDataPages = u();
        else if (key == "min_iters")
            r.params.minIters = u();
        else if (key == "max_iters")
            r.params.maxIters = u();
        else if (key == "min_block_ops")
            r.params.minBlockOps = u();
        else if (key == "max_block_ops")
            r.params.maxBlockOps = u();
        else if (key == "mix_load_accum")
            r.params.mix.loadAccum = u();
        else if (key == "mix_store_data")
            r.params.mix.storeData = u();
        else if (key == "mix_load_xor")
            r.params.mix.loadXor = u();
        else if (key == "mix_branch_skip")
            r.params.mix.branchSkip = u();
        else if (key == "mix_cursor_mul")
            r.params.mix.cursorMul = u();
        else if (key == "mix_cursor_hash")
            r.params.mix.cursorHash = u();
        else if (key == "mix_fp_mix")
            r.params.mix.fpMix = u();
        else if (key == "mix_print_syscall")
            r.params.mix.printSyscall = u();
        else if (key == "mix_alias_store_load")
            r.params.mix.aliasStoreLoad = u();
        else if (key == "mix_byte_ops")
            r.params.mix.byteOps = u();
        else if (key == "mix_page_cross")
            r.params.mix.pageCross = u();
        else if (key == "nodes")
            r.config.nodes = u();
        else if (key == "dcache_bytes")
            r.config.dcacheBytes = v;
        else if (key == "dcache_assoc")
            r.config.dcacheAssoc = u();
        else if (key == "write_allocate")
            r.config.writeAllocate = v != 0;
        else if (key == "event_driven")
            r.config.eventDriven = v != 0;
        else if (key == "cross_event_driven")
            r.config.crossEventDriven = v != 0;
        else if (key == "cross_replay")
            r.config.crossReplay = v != 0;
        else if (key == "faults")
            r.config.faults = v != 0;
        else if (key == "hard_bshr")
            r.config.hardBshr = v != 0;
        else if (key == "faults_no_recovery")
            r.config.faultsNoRecovery = v != 0;
        else if (key == "bshr_capacity")
            r.config.bshrCapacity = u();
        else if (key == "max_insts")
            r.config.maxInsts = v;
        else if (key == "fault_seed")
            r.config.faultSeed = v;
        else {
            error = "line " + std::to_string(lineno) +
                    ": unknown key '" + key + "'";
            return false;
        }
        if (!numeric) {
            error = "line " + std::to_string(lineno) +
                    ": non-numeric value for '" + key + "'";
            return false;
        }
    }
    if (!saw_seed) {
        error = "repro file has no 'seed' key";
        return false;
    }
    out = r;
    return true;
}

bool
saveRepro(const std::string &path, const ReproCase &repro)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << formatRepro(repro);
    return static_cast<bool>(out);
}

bool
loadRepro(const std::string &path, ReproCase &out, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open '" + path + "'";
        return false;
    }
    return parseRepro(in, out, error);
}

} // namespace check
} // namespace dscalar
