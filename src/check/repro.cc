#include "check/repro.hh"

#include <fstream>
#include <sstream>

#include "common/kv.hh"
#include "driver/driver.hh"

namespace dscalar {
namespace check {

namespace kv = common::kv;

namespace {

constexpr char kMagic[] = "# dsfuzz repro v1";

// Ceilings that keep a replay finite: an op adds at most 16 words to
// the loop body, so 2000 trips of 1000 ops stay inside a branch
// offset (32767 words) and the golden run's 50M-instruction budget; a
// weight of w puts w entries in the op table; a cache above 1 MiB per
// node is far outside the sampled 256 B..64 KB.
constexpr kv::Range kPages{1, GenParams::kMaxDataPages, "page count"};
constexpr kv::Range kIters{1, 2000, "trip count"};
constexpr kv::Range kOps{1, 1000, "block op count"};
constexpr kv::Range kWeight{0, 1000, "weight"};
constexpr kv::Range kDcache{32, 1 << 20, "byte count"};
constexpr kv::Range kWays{1, (1 << 20) / 32, "way count"};

// F(field, enum names...): the row's accessor.
#define F(m, ...)                                                      \
    [](void *o) {                                                      \
        auto *r = static_cast<ReproCase *>(o);                         \
        return kv::Ref(r->m __VA_OPT__(, ) __VA_ARGS__);               \
    }

constexpr kv::Key kReproKeys[] = {
    {"seed", F(seed), "program seed", {}, kv::kRequired},
    {"min_data_pages", F(params.minDataPages), "least data pages", kPages},
    {"max_data_pages", F(params.maxDataPages), "most data pages", kPages},
    {"min_iters", F(params.minIters), "least loop trips", kIters},
    {"max_iters", F(params.maxIters), "most loop trips", kIters},
    {"min_block_ops", F(params.minBlockOps), "least block ops", kOps},
    {"max_block_ops", F(params.maxBlockOps), "most block ops", kOps},
    {"mix_load_accum", F(params.mix.loadAccum), "op weight", kWeight},
    {"mix_store_data", F(params.mix.storeData), "op weight", kWeight},
    {"mix_load_xor", F(params.mix.loadXor), "op weight", kWeight},
    {"mix_branch_skip", F(params.mix.branchSkip), "op weight", kWeight},
    {"mix_cursor_mul", F(params.mix.cursorMul), "op weight", kWeight},
    {"mix_cursor_hash", F(params.mix.cursorHash), "op weight", kWeight},
    {"mix_fp_mix", F(params.mix.fpMix), "op weight", kWeight},
    {"mix_print_syscall", F(params.mix.printSyscall), "op weight", kWeight},
    {"mix_alias_store_load", F(params.mix.aliasStoreLoad), "op weight",
     kWeight},
    {"mix_byte_ops", F(params.mix.byteOps), "op weight", kWeight},
    {"mix_page_cross", F(params.mix.pageCross), "op weight", kWeight},
    {"system", F(config.system, driver::kSystemKindNames),
     "simulated system"},
    {"nodes", F(config.nodes), "node count", driver::kNodesRange},
    {"interconnect", F(config.interconnect, driver::kInterconnectKindNames),
     "global interconnect"},
    {"dcache_bytes", F(config.dcacheBytes), "L1D size", kDcache},
    {"dcache_assoc", F(config.dcacheAssoc), "L1D ways", kWays},
    {"write_allocate", F(config.writeAllocate), "L1D write-allocate"},
    {"event_driven", F(config.eventDriven), "event-driven run loop"},
    {"cross_event_driven", F(config.crossEventDriven),
     "also run the other loop mode"},
    {"cross_replay", F(config.crossReplay), "also replay the trace"},
    {"faults", F(config.faults), "faults with recovery"},
    {"hard_bshr", F(config.hardBshr), "hard BSHR capacity"},
    {"faults_no_recovery", F(config.faultsNoRecovery),
     "faults without recovery (testing hook)"},
    {"bshr_capacity", F(config.bshrCapacity), "BSHR bank capacity",
     driver::kBshrCapacityRange},
    {"max_insts", F(config.maxInsts), "instruction budget, 0 = no limit"},
    {"fault_seed", F(config.faultSeed), "fault decision-stream seed"},
    {"mutation", F(config.mutation, core::kProtocolMutationNames),
     "planted protocol bug (testing hook)", {}, kv::kOptional},
    {"mismatch", F(mismatch), "summary observed when saved"},
};

#undef F

} // namespace

std::span<const kv::Key>
reproKeys()
{
    return kReproKeys;
}

std::string
formatRepro(const ReproCase &r)
{
    std::ostringstream os;
    os << kMagic << "\n# " << describeConfig(r.config) << "\n";
    kv::format(os, kReproKeys, &r);
    return os.str();
}

bool
parseRepro(std::istream &in, ReproCase &out, std::string &error)
{
    ReproCase r;
    if (kv::parseBlock(in, kReproKeys, &r, false, error) < 0)
        return false;
    // The cross-field rules, each owned by the component it
    // configures.
    error = r.params.validate();
    if (error.empty())
        error = core::validate(toSimConfig(r.config),
                               r.config.system ==
                                   driver::SystemKind::DataScalar);
    if (!error.empty())
        return false;
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
