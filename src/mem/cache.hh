/**
 * @file
 * Set-associative cache tag model.
 *
 * Only tags and state live here; architectural data values are held
 * by the functional oracle. The timing cores drive this model at
 * instruction *commit* (canonical, in program order — the cache
 * correspondence requirement of Section 4.1), probing it read-only at
 * issue time.
 */

#ifndef DSCALAR_MEM_CACHE_HH
#define DSCALAR_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace dscalar {
namespace mem {

/** Geometry and policy parameters of one cache. */
struct CacheParams
{
    std::uint64_t sizeBytes = 16 * 1024;
    unsigned assoc = 1;
    unsigned lineSize = 32;
    /** Allocate a line on a write miss? The paper's DataScalar L1D is
     *  write-noallocate ("with a write-allocate protocol, a write miss
     *  requires sending an inter-processor message, only to overwrite
     *  the received data"); the Table 1 study cache is write-allocate. */
    bool writeAllocate = false;

    /** @return "" for a buildable geometry (2^n-byte lines, nonzero
     *  associativity, 2^n sets), else the rule it breaks. */
    std::string validate() const;
};

/** Outcome of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** A line was filled (miss that allocates). */
    bool allocated = false;
    /** A valid victim was evicted. */
    bool evicted = false;
    bool victimDirty = false;
    Addr victimAddr = invalidAddr;
};

/** Write-back set-associative cache with true-LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    const CacheParams &params() const { return params_; }

    Addr lineAlign(Addr a) const { return a & ~lineMask_; }
    std::size_t numSets() const { return numSets_; }

    /** Read-only presence check (no LRU or state update). */
    bool probe(Addr addr) const;

    /** Read-only dirty check; false when not present. */
    bool probeDirty(Addr addr) const;

    /**
     * Perform an access with full policy effects (fill, eviction,
     * LRU update, dirty marking).
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /** Drop a line if present; @return true when it was present. */
    bool invalidate(Addr addr);

    /** Reset every line to invalid. */
    void flush();

    /** Count of currently valid lines (for tests). */
    std::size_t validLineCount() const;

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lruStamp = 0;
    };

    std::size_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;

    CacheParams params_;
    std::size_t numSets_;
    Addr lineMask_;
    std::vector<Line> lines_; // numSets_ * assoc, set-major
    std::uint64_t lruClock_ = 0;
};

} // namespace mem
} // namespace dscalar

#endif // DSCALAR_MEM_CACHE_HH
