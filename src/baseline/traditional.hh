/**
 * @file
 * The paper's "more traditional" comparison system (Section 4.3,
 * Figure 6a): the same out-of-order core and commit-time cache
 * update, with 1/N of main memory on-chip and the remainder on dumb
 * memory chips across the same global bus, reached with explicit
 * request/response transactions and off-chip write-backs.
 */

#ifndef DSCALAR_BASELINE_TRADITIONAL_HH
#define DSCALAR_BASELINE_TRADITIONAL_HH

#include <cstdint>
#include <memory>

#include "baseline/single_core.hh"
#include "interconnect/bus.hh"
#include "mem/main_memory.hh"
#include "mem/page_table.hh"

namespace dscalar {
namespace baseline {

/**
 * Single-processor system with a partitioned (on-chip/off-chip)
 * memory. The supplied page table's node-0 local set (replicated
 * pages plus pages owned by node 0) defines the on-chip fraction,
 * matching "the same amount of on-chip memory as does one chip in
 * each DataScalar experiment".
 */
class TraditionalSystem : public SingleCoreSystem
{
  public:
    /** A non-null @p trace replays a captured stream instead of
     *  executing the program functionally (see driver::TraceCache). */
    TraditionalSystem(const prog::Program &program,
                      const core::SimConfig &config,
                      mem::PageTable ptable,
                      std::shared_ptr<const func::InstTrace> trace =
                          nullptr);

    const interconnect::Bus &bus() const { return bus_; }
    std::uint64_t offChipReads() const { return offChipReads_; }
    std::uint64_t offChipWrites() const { return offChipWrites_; }

  private:
    bool onChip(Addr line) const { return ptable_.isLocal(line, 0); }

    // MemBackend ------------------------------------------------------
    ooo::FillResult startLineFetch(Addr line, Cycle now) override;
    void onUnclaimedCanonicalMiss(Addr line, Cycle now) override;
    void writeBack(Addr line, Cycle now) override;
    void storeMiss(Addr line, Cycle now) override;
    Cycle fetchInstLine(Addr line, Cycle now) override;

    /** Bus occupancy and off-chip traffic, after the core columns. */
    void addSamplerColumns(obs::Sampler &sampler) override;
    void addSystemStats(stats::Snapshot &snap,
                        stats::Snapshot::GroupEntry &sys) const override;

    /** Request/response round trip for an off-chip line. */
    Cycle offChipLineRead(Addr line, Cycle now);

    mem::PageTable ptable_;
    interconnect::Bus bus_;
    mem::MainMemory onChipMem_;
    mem::MainMemory offChipMem_;
    std::uint64_t offChipReads_ = 0;
    std::uint64_t offChipWrites_ = 0;
};

} // namespace baseline
} // namespace dscalar

#endif // DSCALAR_BASELINE_TRADITIONAL_HH
