/** @file Unit tests for the statistics package and table printer. */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/snapshot.hh"
#include "stats/stats.hh"
#include "stats/table.hh"

namespace dscalar {
namespace stats {
namespace {

TEST(Counter, IncrementAndAdd)
{
    StatGroup group("g");
    Counter c(&group, "c", "a counter");
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Average, Mean)
{
    StatGroup group("g");
    Average avg(&group, "a", "an average");
    EXPECT_DOUBLE_EQ(avg.mean(), 0.0);
    avg.sample(1.0);
    avg.sample(2.0);
    avg.sample(6.0);
    EXPECT_DOUBLE_EQ(avg.mean(), 3.0);
    EXPECT_EQ(avg.count(), 3u);
}

TEST(HistogramTest, BucketsAndOverflow)
{
    StatGroup group("g");
    Histogram h(&group, "h", "a histogram", 10, 4);
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(39);
    h.sample(40);   // overflow
    h.sample(1000); // overflow
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_NEAR(h.mean(), (0 + 9 + 10 + 39 + 40 + 1000) / 6.0, 1e-9);
}

TEST(StatGroupTest, DumpContainsAllStats)
{
    StatGroup group("memsys");
    Counter c1(&group, "reads", "read count");
    Counter c2(&group, "writes", "write count");
    ++c1;
    std::ostringstream os;
    group.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("memsys"), std::string::npos);
    EXPECT_NE(out.find("reads"), std::string::npos);
    EXPECT_NE(out.find("writes"), std::string::npos);
}

TEST(StatGroupTest, ResetAll)
{
    StatGroup group("g");
    Counter c(&group, "c", "");
    Average a(&group, "a", "");
    c += 5;
    a.sample(1.0);
    group.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(a.count(), 0u);
}

TEST(TableTest, AlignedOutput)
{
    Table t({"bench", "ipc"});
    t.addRow({"compress", "1.95"});
    t.addRow({"go", "2.50"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("bench"), std::string::npos);
    EXPECT_NE(out.find("compress"), std::string::npos);
    EXPECT_NE(out.find("2.50"), std::string::npos);
    // header + separator + 2 rows = 4 lines
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TableTest, Formatters)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
    EXPECT_EQ(Table::pct(0.37), "37%");
    EXPECT_EQ(Table::pct(0.375, 1), "37.5%");
}

TEST(StatGroupTest, DuplicateNamePanics)
{
    StatGroup group("g");
    Counter c(&group, "twice", "first registration");
    EXPECT_DEATH(Counter(&group, "twice", "second registration"),
                 "duplicate stat 'twice' in group 'g'");
}

TEST(HistogramTest, DumpAlwaysPrintsOverflow)
{
    StatGroup group("g");
    Histogram h(&group, "h", "a histogram", 10, 2);
    h.sample(5); // no overflow samples
    std::ostringstream os;
    h.dump(os);
    EXPECT_NE(os.str().find("overflow"), std::string::npos)
        << os.str();
}

TEST(ScalarTest, SetAndDump)
{
    StatGroup group("g");
    Scalar s(&group, "ipc", "instructions per cycle");
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    s.set(1.25);
    EXPECT_DOUBLE_EQ(s.value(), 1.25);
    std::ostringstream os;
    s.dump(os);
    EXPECT_NE(os.str().find("1.25"), std::string::npos);
}

/** Records which visit method ran, proving typed dispatch. */
struct KindVisitor : StatVisitor
{
    std::string last;
    void visitCounter(const Counter &) override { last = "counter"; }
    void visitScalar(const Scalar &) override { last = "scalar"; }
    void visitAverage(const Average &) override { last = "average"; }
    void
    visitHistogram(const Histogram &) override
    {
        last = "histogram";
    }
};

TEST(StatVisitorTest, TypedDispatch)
{
    StatGroup group("g");
    Counter c(&group, "c", "");
    Scalar s(&group, "s", "");
    Average a(&group, "a", "");
    Histogram h(&group, "h", "", 1, 1);
    KindVisitor v;
    c.visit(v);
    EXPECT_EQ(v.last, "counter");
    s.visit(v);
    EXPECT_EQ(v.last, "scalar");
    a.visit(v);
    EXPECT_EQ(v.last, "average");
    h.visit(v);
    EXPECT_EQ(v.last, "histogram");
}

TEST(SnapshotTest, CounterLookup)
{
    Snapshot snap;
    Snapshot::GroupEntry &sys = snap.addGroup("system", "system:");
    snap.addCounter(sys, "bus_messages", 42, "");
    snap.addScalar(sys, "ipc", 1.5, "");
    Snapshot::GroupEntry &node = snap.addGroup("node0", "node0:");
    snap.addCounter(node, "bshr_squashes", 7, "");

    const Counter *c = snap.counter("system", "bus_messages");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value(), 42u);
    EXPECT_EQ(snap.counter("node0", "bshr_squashes")->value(), 7u);
    EXPECT_EQ(snap.counter("system", "bus_bytes"), nullptr);
    EXPECT_EQ(snap.counter("node1", "bshr_squashes"), nullptr);
    // A stat of another kind is not a counter.
    EXPECT_EQ(snap.counter("system", "ipc"), nullptr);
}

} // namespace
} // namespace stats
} // namespace dscalar
