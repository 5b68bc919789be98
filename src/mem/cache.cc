#include "mem/cache.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace dscalar {
namespace mem {

std::string
CacheParams::validate() const
{
    const std::uint64_t way = std::uint64_t(lineSize) * assoc;
    return !isPowerOf2(lineSize)          ? "line size must be 2^n"
           : assoc == 0                   ? "associativity must be nonzero"
           : sizeBytes % way != 0         ? "cache size not divisible by "
                                            "way size"
           : !isPowerOf2(sizeBytes / way) ? "set count must be 2^n"
                                          : "";
}

Cache::Cache(const CacheParams &params)
    : params_(params)
{
    std::string error = params_.validate();
    fatal_if(!error.empty(), "%s", error.c_str());
    numSets_ = params_.sizeBytes / (params_.lineSize * params_.assoc);
    lineMask_ = params_.lineSize - 1;
    lines_.resize(numSets_ * params_.assoc);
}

std::size_t
Cache::setIndex(Addr addr) const
{
    return (addr / params_.lineSize) & (numSets_ - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr / params_.lineSize / numSets_;
}

Cache::Line *
Cache::findLine(Addr addr)
{
    std::size_t set = setIndex(addr);
    Addr tag = tagOf(addr);
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &line = lines_[set * params_.assoc + w];
        if (line.valid && line.tag == tag)
            return &line;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

bool
Cache::probe(Addr addr) const
{
    return findLine(addr) != nullptr;
}

bool
Cache::probeDirty(Addr addr) const
{
    const Line *line = findLine(addr);
    return line && line->dirty;
}

CacheAccessResult
Cache::access(Addr addr, bool is_write)
{
    CacheAccessResult result;
    ++lruClock_;

    if (Line *line = findLine(addr)) {
        result.hit = true;
        line->lruStamp = lruClock_;
        if (is_write)
            line->dirty = true;
        return result;
    }

    // Miss. Write-noallocate writes bypass the cache entirely.
    if (is_write && !params_.writeAllocate)
        return result;

    std::size_t set = setIndex(addr);
    Line *victim = nullptr;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &cand = lines_[set * params_.assoc + w];
        if (!cand.valid) {
            victim = &cand;
            break;
        }
        if (!victim || cand.lruStamp < victim->lruStamp)
            victim = &cand;
    }

    if (victim->valid) {
        result.evicted = true;
        result.victimDirty = victim->dirty;
        result.victimAddr =
            (victim->tag * numSets_ + set) * params_.lineSize;
    }

    victim->valid = true;
    victim->dirty = is_write;
    victim->tag = tagOf(addr);
    victim->lruStamp = lruClock_;
    result.allocated = true;
    return result;
}

bool
Cache::invalidate(Addr addr)
{
    if (Line *line = findLine(addr)) {
        line->valid = false;
        line->dirty = false;
        return true;
    }
    return false;
}

void
Cache::flush()
{
    for (Line &line : lines_)
        line = Line{};
}

std::size_t
Cache::validLineCount() const
{
    std::size_t n = 0;
    for (const Line &line : lines_)
        if (line.valid)
            ++n;
    return n;
}

} // namespace mem
} // namespace dscalar
