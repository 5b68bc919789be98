#include "stats/stats.hh"

#include <iomanip>
#include <sstream>

#include "common/logging.hh"

namespace dscalar {
namespace stats {

std::string
formatDouble(double v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

StatBase::StatBase(StatGroup *parent, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    if (parent)
        parent->registerStat(this);
}

void
Counter::dump(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << ' '
       << std::right << std::setw(16) << value_
       << "  # " << desc() << '\n';
}

void
Scalar::dump(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << ' '
       << std::right << std::setw(16) << formatDouble(value_)
       << "  # " << desc() << '\n';
}

void
Average::dump(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << ' '
       << std::right << std::setw(16) << std::fixed
       << std::setprecision(4) << mean()
       << "  # " << desc() << " (n=" << count_ << ")\n";
}

Histogram::Histogram(StatGroup *parent, std::string name, std::string desc,
                     std::uint64_t bucket_width, std::size_t bucket_count)
    : StatBase(parent, std::move(name), std::move(desc)),
      bucketWidth_(bucket_width), buckets_(bucket_count, 0)
{
}

void
Histogram::sample(std::uint64_t v)
{
    std::size_t idx = v / bucketWidth_;
    if (idx < buckets_.size())
        ++buckets_[idx];
    else
        ++overflow_;
    ++count_;
    sum_ += static_cast<double>(v);
}

void
Histogram::merge(const Histogram &other)
{
    panic_if(other.bucketWidth_ != bucketWidth_ ||
                 other.buckets_.size() != buckets_.size(),
             "histogram merge '%s': layout mismatch "
             "(%llu x %zu vs %llu x %zu)",
             name().c_str(), (unsigned long long)bucketWidth_,
             buckets_.size(), (unsigned long long)other.bucketWidth_,
             other.buckets_.size());
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    overflow_ += other.overflow_;
    count_ += other.count_;
    sum_ += other.sum_;
}

void
Histogram::dump(std::ostream &os) const
{
    os << std::left << std::setw(40) << name()
       << " mean=" << std::fixed << std::setprecision(3) << mean()
       << " n=" << count_ << "  # " << desc() << '\n';
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        os << "  [" << i * bucketWidth_ << ',' << (i + 1) * bucketWidth_
           << ") " << buckets_[i] << '\n';
    }
    os << "  overflow " << overflow_ << '\n';
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    overflow_ = 0;
    count_ = 0;
    sum_ = 0.0;
}

void
StatGroup::registerStat(StatBase *stat)
{
    for (const StatBase *s : stats_) {
        panic_if(s->name() == stat->name(),
                 "duplicate stat '%s' in group '%s'",
                 stat->name().c_str(), name_.c_str());
    }
    stats_.push_back(stat);
}

void
StatGroup::dump(std::ostream &os) const
{
    os << "---- " << name_ << " ----\n";
    for (const StatBase *s : stats_)
        s->dump(os);
}

void
StatGroup::resetAll()
{
    for (StatBase *s : stats_)
        s->reset();
}

} // namespace stats
} // namespace dscalar
