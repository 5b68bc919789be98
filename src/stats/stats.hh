/**
 * @file
 * Minimal statistics package: named counters, running averages and
 * histograms that register themselves with a StatGroup so whole
 * subsystems can be dumped uniformly.
 */

#ifndef DSCALAR_STATS_STATS_HH
#define DSCALAR_STATS_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace dscalar {
namespace stats {

/**
 * Shared floating-point rendering used by both the text dump and the
 * JSON export, so the two are byte-identical for any given value
 * (default ostream `operator<<` formatting; always valid JSON).
 */
std::string formatDouble(double v);

class StatGroup;
class Counter;
class Scalar;
class Average;
class Histogram;

/**
 * Typed double-dispatch over the concrete stat classes. Structured
 * exporters (stats::JsonWriter) implement this instead of parsing the
 * text dump.
 */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;
    virtual void visitCounter(const Counter &c) = 0;
    virtual void visitScalar(const Scalar &s) = 0;
    virtual void visitAverage(const Average &a) = 0;
    virtual void visitHistogram(const Histogram &h) = 0;
};

/** Base class for anything dumpable by a StatGroup. */
class StatBase
{
  public:
    StatBase(StatGroup *parent, std::string name, std::string desc);
    virtual ~StatBase() = default;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Write "name value # desc" lines to @p os. */
    virtual void dump(std::ostream &os) const = 0;
    /** Return the stat to its initial state. */
    virtual void reset() = 0;
    /** Double-dispatch to the matching StatVisitor method. */
    virtual void visit(StatVisitor &v) const = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** Monotonic event counter. */
class Counter : public StatBase
{
  public:
    using StatBase::StatBase;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t v) { value_ += v; return *this; }

    std::uint64_t value() const { return value_; }

    void dump(std::ostream &os) const override;
    void reset() override { value_ = 0; }
    void visit(StatVisitor &v) const override { v.visitCounter(*this); }

  private:
    std::uint64_t value_ = 0;
};

/** A point-in-time gauge (derived values such as IPC). */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    void set(double v) { value_ = v; }
    double value() const { return value_; }

    void dump(std::ostream &os) const override;
    void reset() override { value_ = 0.0; }
    void visit(StatVisitor &v) const override { v.visitScalar(*this); }

  private:
    double value_ = 0.0;
};

/** Running arithmetic mean of submitted samples. */
class Average : public StatBase
{
  public:
    using StatBase::StatBase;

    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    void dump(std::ostream &os) const override;
    void reset() override { sum_ = 0.0; count_ = 0; }
    void visit(StatVisitor &v) const override { v.visitAverage(*this); }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/** Fixed-bucket histogram over [0, bucketCount * bucketWidth). */
class Histogram : public StatBase
{
  public:
    Histogram(StatGroup *parent, std::string name, std::string desc,
              std::uint64_t bucket_width, std::size_t bucket_count);

    void sample(std::uint64_t v);

    /** Add @p other's samples into this histogram; panics unless the
     *  bucket layouts (width and count) match exactly. Used to copy
     *  live histograms into owning Snapshots. */
    void merge(const Histogram &other);

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double sum() const { return sum_; }
    std::uint64_t bucketWidth() const { return bucketWidth_; }
    std::size_t bucketCount() const { return buckets_.size(); }
    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    std::uint64_t overflow() const { return overflow_; }

    void dump(std::ostream &os) const override;
    void reset() override;
    void visit(StatVisitor &v) const override { v.visitHistogram(*this); }

  private:
    std::uint64_t bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

/**
 * A named collection of stats; subsystems own one and expose it so
 * drivers can dump or reset everything at once.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Add @p stat; panics if the group already holds the name. */
    void registerStat(StatBase *stat);

    const std::string &name() const { return name_; }
    const std::vector<StatBase *> &statList() const { return stats_; }

    void dump(std::ostream &os) const;
    void resetAll();

  private:
    std::string name_;
    std::vector<StatBase *> stats_;
};

} // namespace stats
} // namespace dscalar

#endif // DSCALAR_STATS_STATS_HH
