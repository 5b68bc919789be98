/**
 * @file
 * Plain-text table formatter used by the bench binaries to print
 * rows/columns shaped like the paper's tables.
 */

#ifndef DSCALAR_STATS_TABLE_HH
#define DSCALAR_STATS_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace dscalar {
namespace stats {

/** Column-aligned text table with a header row. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append one row; must have as many cells as there are headers. */
    void addRow(std::vector<std::string> cells);

    /** Format a double with @p prec digits after the decimal point. */
    static std::string num(double v, int prec = 2);
    /** Format a value as a percentage string, e.g.\ "37%". */
    static std::string pct(double fraction, int prec = 0);

    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace stats
} // namespace dscalar

#endif // DSCALAR_STATS_TABLE_HH
