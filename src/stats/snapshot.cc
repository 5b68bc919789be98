#include "stats/snapshot.hh"

namespace dscalar {
namespace stats {

Snapshot::GroupEntry &
Snapshot::addGroup(std::string name, std::string title)
{
    groups_.emplace_back(std::move(name), std::move(title));
    return groups_.back();
}

Counter &
Snapshot::addCounter(GroupEntry &g, std::string name,
                     std::uint64_t value, std::string desc)
{
    auto c = std::make_unique<Counter>(&g.group, std::move(name),
                                       std::move(desc));
    Counter &ref = *c;
    ref += value;
    stats_.push_back(std::move(c));
    return ref;
}

Scalar &
Snapshot::addScalar(GroupEntry &g, std::string name, double value,
                    std::string desc)
{
    auto s = std::make_unique<Scalar>(&g.group, std::move(name),
                                      std::move(desc));
    Scalar &ref = *s;
    ref.set(value);
    stats_.push_back(std::move(s));
    return ref;
}

Histogram &
Snapshot::addHistogram(GroupEntry &g, std::string name,
                       const Histogram &src, std::string desc)
{
    auto h = std::make_unique<Histogram>(&g.group, std::move(name),
                                         std::move(desc),
                                         src.bucketWidth(),
                                         src.bucketCount());
    Histogram &ref = *h;
    ref.merge(src);
    stats_.push_back(std::move(h));
    return ref;
}

const Counter *
Snapshot::counter(const std::string &group, const std::string &name) const
{
    for (const GroupEntry &g : groups_)
        for (const StatBase *s : g.group.statList())
            if (g.name == group && s->name() == name)
                return dynamic_cast<const Counter *>(s);
    return nullptr;
}

namespace {

/** Renders one stat in the historical dumpStats line format. */
class LegacyLineVisitor final : public StatVisitor
{
  public:
    explicit LegacyLineVisitor(std::ostream &os) : os_(os) {}

    void
    visitCounter(const Counter &c) override
    {
        line(c.name());
        os_ << c.value() << "  # " << c.desc() << '\n';
    }

    void
    visitScalar(const Scalar &s) override
    {
        line(s.name());
        os_ << formatDouble(s.value()) << "  # " << s.desc() << '\n';
    }

    void
    visitAverage(const Average &a) override { a.dump(os_); }

    void
    visitHistogram(const Histogram &h) override { h.dump(os_); }

  private:
    void
    line(const std::string &name)
    {
        os_ << "  " << name;
        for (std::size_t i = name.size(); i < 34; ++i)
            os_ << ' ';
    }

    std::ostream &os_;
};

} // namespace

void
Snapshot::dump(std::ostream &os) const
{
    LegacyLineVisitor v(os);
    for (const GroupEntry &g : groups_) {
        os << g.title << '\n';
        for (const StatBase *s : g.group.statList())
            s->visit(v);
    }
}

} // namespace stats
} // namespace dscalar
