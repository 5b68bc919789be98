/**
 * @file
 * Time-series sampling of simulator counters.
 *
 * A Sampler snapshots a set of registered columns (pull callbacks)
 * every `interval` simulated cycles into a columnar buffer. Systems
 * register their columns in setSampler() (per-node commit rate, BSHR
 * occupancy, DCUB depth, bus occupancy, leading-node id) and call
 * advance() from the run loop.
 *
 * Event-driven awareness: run loops that fast-forward over provably
 * idle cycles call advance(upto) with the last cycle whose state is
 * already final. Because skipped cycles change no state, every
 * nominal sample cycle inside the skipped window observes exactly the
 * current values — so the emitted timeline is byte-identical between
 * event-driven and single-stepped runs (locked by
 * tests/test_identity.cc). Sampling only reads; it never perturbs
 * simulation state or cycle counts.
 */

#ifndef DSCALAR_OBS_SAMPLER_HH
#define DSCALAR_OBS_SAMPLER_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace dscalar {
namespace obs {

class Sampler
{
  public:
    /** How a column's pulled value is recorded. */
    enum class Mode {
        Level, ///< record the instantaneous value
        Delta  ///< record the change since the previous sample
    };

    explicit Sampler(Cycle interval);

    /** Register a column; @p pull reads the instantaneous value. */
    void addColumn(std::string name, Mode mode,
                   std::function<std::uint64_t()> pull);

    /** Forget all columns and samples (systems re-register on
     *  setSampler; lets one Sampler be reused across runs). */
    void clear();

    /**
     * State is final through simulated cycle @p upto: emit one sample
     * row for every nominal cycle k*interval in (lastEmitted, upto].
     * Values are pulled once; when several nominal cycles collapse
     * into one advance (skip window wider than the interval), Level
     * columns repeat the value and Delta columns attribute the whole
     * change to the first row and 0 to the rest.
     */
    void advance(Cycle upto);

    Cycle interval() const { return interval_; }

    std::size_t sampleCount() const { return cycles_.size(); }
    const std::vector<Cycle> &cycles() const { return cycles_; }

    /** Column values by registration order (tests). */
    const std::vector<std::uint64_t> &column(std::size_t i) const
    {
        return columns_.at(i).values;
    }
    const std::string &columnName(std::size_t i) const
    {
        return columns_.at(i).name;
    }
    std::size_t columnCount() const { return columns_.size(); }

    /**
     * Emit the timeline as one JSON value:
     * {"interval":N,"cycles":[...],"columns":{"name":[...],...}}.
     */
    void writeJson(std::ostream &os) const;

  private:
    struct Column
    {
        std::string name;
        Mode mode;
        std::function<std::uint64_t()> pull;
        std::uint64_t prevRaw = 0;
        std::vector<std::uint64_t> values;
    };

    Cycle interval_;
    bool started_ = false; ///< true once any sample was emitted
    Cycle lastEmitted_ = 0;
    std::vector<Cycle> cycles_;
    std::vector<Column> columns_;
};

} // namespace obs
} // namespace dscalar

#endif // DSCALAR_OBS_SAMPLER_HH
