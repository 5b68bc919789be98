/**
 * @file
 * Owning end-of-run stat snapshots.
 *
 * A Snapshot is a self-contained copy of a system's statistics,
 * organised as named StatGroups of owned stat objects. Systems build
 * one in snapshotStats() and render BOTH the legacy text dump and the
 * JSON export from it, so the two can never disagree; RunResult
 * carries it (shared_ptr) so every sweep point keeps its full stats.
 */

#ifndef DSCALAR_STATS_SNAPSHOT_HH
#define DSCALAR_STATS_SNAPSHOT_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "stats/stats.hh"

namespace dscalar {
namespace stats {

class Snapshot
{
  public:
    /** One named group; @p title is the verbatim text-dump heading
     *  (e.g. "---- DataScalarSystem (2 nodes) ----" or "node0:"). */
    struct GroupEntry
    {
        std::string name;  ///< stable JSON key
        std::string title; ///< text-dump heading line
        StatGroup group;

        GroupEntry(std::string n, std::string t)
            : name(std::move(n)), title(std::move(t)),
              group(name) {}
    };

    /** Append a group; the reference stays valid for the lifetime of
     *  the snapshot (deque storage). */
    GroupEntry &addGroup(std::string name, std::string title);

    Counter &addCounter(GroupEntry &g, std::string name,
                        std::uint64_t value, std::string desc);
    Scalar &addScalar(GroupEntry &g, std::string name, double value,
                      std::string desc);
    /** Deep-copy @p src (layout and contents) into the snapshot. */
    Histogram &addHistogram(GroupEntry &g, std::string name,
                            const Histogram &src, std::string desc);

    const std::deque<GroupEntry> &groups() const { return groups_; }

    /** The counter @p name of group @p group; nullptr when the
     *  snapshot has no such group or the group no such counter. */
    const Counter *counter(const std::string &group,
                           const std::string &name) const;

    /**
     * Render the legacy text format: each group's title line followed
     * by "  name" padded to 34 columns, the value, and "  # desc".
     * Byte-identical to the historical hand-rolled dumpStats output.
     */
    void dump(std::ostream &os) const;

  private:
    std::deque<GroupEntry> groups_;
    std::vector<std::unique_ptr<StatBase>> stats_;
};

} // namespace stats
} // namespace dscalar

#endif // DSCALAR_STATS_SNAPSHOT_HH
