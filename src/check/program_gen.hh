/**
 * @file
 * Reusable random-program generator for property tests and the
 * dsfuzz differential fuzzer.
 *
 * Generation is a pure function of (seed, GenParams): the same pair
 * always produces a byte-identical program image on every host.
 * The default parameters reproduce, draw for draw, the historical
 * randomProgram() from tests/test_properties.cc, so seeds that
 * passed there keep generating the exact same programs here.
 *
 * Every generated program terminates by construction: a bounded
 * outer loop over a straight-line block of randomized operations,
 * closed by PrintInt/Exit/HALT. The op mix is tunable — loads,
 * stores, data-dependent branches, FP arithmetic, mid-loop
 * syscalls, store-to-load aliasing, byte-granularity accesses, and
 * page-boundary-straddling access pairs — so the fuzzer can dial in
 * pressure the fixed test seeds never reach.
 */

#ifndef DSCALAR_CHECK_PROGRAM_GEN_HH
#define DSCALAR_CHECK_PROGRAM_GEN_HH

#include <cstdint>
#include <string>

#include "prog/program.hh"

namespace dscalar {
namespace check {

/**
 * Relative weights of the per-op choice inside the loop block.
 * Defaults reproduce the historical test_properties mix: the first
 * six ops equally weighted, the extended ops off. Field order is
 * load-bearing — the selection table is built in declaration order,
 * so the default table maps draw n to historical switch case n.
 */
struct OpMix
{
    unsigned loadAccum = 1;      ///< ld + add into the checksum
    unsigned storeData = 1;      ///< sd of the checksum
    unsigned loadXor = 1;        ///< lw + xor into the checksum
    unsigned branchSkip = 1;     ///< data-dependent forward branch
    unsigned cursorMul = 1;      ///< cursor *= random odd constant
    unsigned cursorHash = 1;     ///< cursor xorshift mix
    // Extended ops (weight 0 keeps legacy seed streams untouched).
    unsigned fpMix = 0;          ///< cvtif/fadd/fmul/fslt/cvtfi chain
    unsigned printSyscall = 0;   ///< mid-loop PrintInt of checksum byte
    unsigned aliasStoreLoad = 0; ///< sd then overlapping ld/lw reload
    unsigned byteOps = 0;        ///< sb/lbu at byte granularity
    unsigned pageCross = 0;      ///< access pair straddling a page edge

    unsigned
    total() const
    {
        return loadAccum + storeData + loadXor + branchSkip +
               cursorMul + cursorHash + fpMix + printSyscall +
               aliasStoreLoad + byteOps + pageCross;
    }
};

/** Structural generation ranges; values are drawn uniformly. */
struct GenParams
{
    unsigned minDataPages = 4;  ///< multi-page data area
    unsigned maxDataPages = 15;
    unsigned minIters = 40;     ///< outer-loop trip count
    unsigned maxIters = 160;
    unsigned minBlockOps = 10;  ///< randomized ops per block
    unsigned maxBlockOps = 39;
    OpMix mix;

    /** Data-page ceiling: a 4 MB data image. */
    static constexpr unsigned kMaxDataPages = 512;

    /** The fuzzer's default mix: legacy ops plus every extended op,
     *  biased toward memory traffic. */
    static GenParams fuzzDefault();

    /** @return "" when ProgramGen accepts these parameters (nonempty
     *  mix, each range ordered and starting at 1, data pages within
     *  the ceiling), else the rule they break. */
    std::string validate() const;
};

/** The concrete values one generation drew (diagnostics, repros). */
struct GenChoices
{
    unsigned dataPages = 0;
    unsigned iters = 0;
    unsigned blockOps = 0;
};

/** Deterministic generator over a fixed parameter set. */
class ProgramGen
{
  public:
    explicit ProgramGen(GenParams params = {});

    const GenParams &params() const { return params_; }

    /**
     * Generate the program for @p seed. Pure: same (params, seed)
     * in, byte-identical image out. @p choices optionally receives
     * the drawn structural values.
     */
    prog::Program generate(std::uint64_t seed,
                           GenChoices *choices = nullptr) const;

  private:
    GenParams params_;
};

} // namespace check
} // namespace dscalar

#endif // DSCALAR_CHECK_PROGRAM_GEN_HH
