/**
 * @file
 * Protocol-mutation testing hook.
 *
 * A ProtocolMutation is one deliberately planted single-line bug in
 * the ESP/BSHR consume path, switchable at runtime. The concrete
 * BSHR (core/bshr.cc) and the abstract model checker
 * (check/model.cc) both honour the same enum, so the mutation-
 * sensitivity tests can assert that exhaustive enumeration *and*
 * differential fuzzing each catch every planted bug — and that a
 * counterexample found on the abstract model reproduces on the
 * concrete simulator.
 *
 * Off (None) by default; nothing in the simulator's normal
 * configuration space ever enables a mutation. The hook is a relaxed
 * atomic so oracle runs under TSan stay clean; the cost on the BSHR
 * paths (one relaxed load per consume operation) is noise.
 */

#ifndef DSCALAR_CORE_PROTOCOL_MUTATION_HH
#define DSCALAR_CORE_PROTOCOL_MUTATION_HH

#include <cstdint>
#include <string>

namespace dscalar {
namespace core {

/** Planted single-line protocol bugs (testing hook, default None). */
enum class ProtocolMutation : std::uint8_t {
    None = 0,
    /**
     * The PR 4 squash-condition bug: registerSquash with nothing
     * buffered forgets to record the pending squash, so the episode's
     * broadcast later arrives unclaimed and parks in the buffer
     * forever — strict-drain and broadcast-conservation violations.
     */
    SquashPendingLost,
    /**
     * A buffered hit returns the data without consuming the entry:
     * the broadcast is double-counted as consumed and the buffer
     * never drains.
     */
    BufferedHitKeepsData,
    /**
     * A delivery consumed by a pending squash also buffers the data
     * (missing early-out), leaving residue no local request ever
     * claims.
     */
    DeliverSquashBuffers,
};

/** Number of ProtocolMutation values, None included. */
inline constexpr unsigned numProtocolMutations = 4;

/** ProtocolMutation names, in value order. */
inline constexpr const char *kProtocolMutationNames[numProtocolMutations] =
    {"none", "squash-pending-lost", "buffered-hit-keeps-data",
     "deliver-squash-buffers"};

/** Stable lower-case name of @p m (repro keys, CLI flags). */
const char *protocolMutationName(ProtocolMutation m);

/** Parse a mutation name. @return false on unknown input. */
bool parseProtocolMutation(const std::string &name,
                           ProtocolMutation &out);

/** Currently active mutation (None unless a test planted one). */
ProtocolMutation activeProtocolMutation();

/** Plant @p m process-wide. Testing hook — never set by any
 *  simulator configuration path. */
void setProtocolMutation(ProtocolMutation m);

/** RAII planting: active for the scope's lifetime, restored after. */
class ScopedProtocolMutation
{
  public:
    explicit ScopedProtocolMutation(ProtocolMutation m)
        : previous_(activeProtocolMutation())
    {
        setProtocolMutation(m);
    }
    ~ScopedProtocolMutation() { setProtocolMutation(previous_); }

    ScopedProtocolMutation(const ScopedProtocolMutation &) = delete;
    ScopedProtocolMutation &
    operator=(const ScopedProtocolMutation &) = delete;

  private:
    ProtocolMutation previous_;
};

} // namespace core
} // namespace dscalar

#endif // DSCALAR_CORE_PROTOCOL_MUTATION_HH
