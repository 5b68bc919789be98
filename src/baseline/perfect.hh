/**
 * @file
 * The paper's upper bound: an identical processor with a perfect
 * data cache — single-cycle access to any operand (Section 4.3).
 * Instruction fetch still goes through a real I-cache backed by
 * local memory.
 */

#ifndef DSCALAR_BASELINE_PERFECT_HH
#define DSCALAR_BASELINE_PERFECT_HH

#include <memory>

#include "baseline/single_core.hh"
#include "mem/main_memory.hh"

namespace dscalar {
namespace baseline {

/** Single-processor system with a perfect data cache. */
class PerfectSystem : public SingleCoreSystem
{
  public:
    /** A non-null @p trace replays a captured stream instead of
     *  executing the program functionally (see driver::TraceCache). */
    PerfectSystem(const prog::Program &program,
                  const core::SimConfig &config,
                  std::shared_ptr<const func::InstTrace> trace =
                      nullptr);

  private:
    ooo::FillResult startLineFetch(Addr line, Cycle now) override;
    void onUnclaimedCanonicalMiss(Addr line, Cycle now) override;
    void writeBack(Addr line, Cycle now) override;
    void storeMiss(Addr line, Cycle now) override;
    Cycle fetchInstLine(Addr line, Cycle now) override;

    mem::MainMemory localMem_;
};

} // namespace baseline
} // namespace dscalar

#endif // DSCALAR_BASELINE_PERFECT_HH
