#include "core/protocol_mutation.hh"

#include <atomic>

#include "common/kv.hh"

namespace dscalar {
namespace core {

namespace {

std::atomic<ProtocolMutation> g_mutation{ProtocolMutation::None};

} // namespace

const char *
protocolMutationName(ProtocolMutation m)
{
    auto i = static_cast<unsigned>(m);
    return i < numProtocolMutations ? kProtocolMutationNames[i] : "?";
}

bool
parseProtocolMutation(const std::string &name, ProtocolMutation &out)
{
    int i = common::kv::nameIndex(kProtocolMutationNames, name);
    if (i < 0)
        return false;
    out = static_cast<ProtocolMutation>(i);
    return true;
}

ProtocolMutation
activeProtocolMutation()
{
    return g_mutation.load(std::memory_order_relaxed);
}

void
setProtocolMutation(ProtocolMutation m)
{
    g_mutation.store(m, std::memory_order_relaxed);
}

} // namespace core
} // namespace dscalar
