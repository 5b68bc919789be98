#include "stats/table.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"

namespace dscalar {
namespace stats {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    panic_if(cells.size() != headers_.size(),
             "table row has %zu cells, expected %zu",
             cells.size(), headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::num(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

std::string
Table::pct(double fraction, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", prec, fraction * 100.0);
    return buf;
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "" : "  ");
            os << row[c];
            for (std::size_t pad = row[c].size(); pad < widths[c]; ++pad)
                os << ' ';
        }
        os << '\n';
    };

    print_row(headers_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
    for (const auto &row : rows_)
        print_row(row);
}

} // namespace stats
} // namespace dscalar
