/** @file Tests for the structured stats export (stats::JsonWriter). */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "core/datascalar.hh"
#include "driver/driver.hh"
#include "prog/assembler.hh"
#include "stats/json_writer.hh"
#include "stats/snapshot.hh"

#include "mini_json.hh"

namespace dscalar {
namespace {

using namespace prog::reg;

mini_json::Value
parseOrDie(const std::string &text)
{
    std::string error;
    mini_json::Value v = mini_json::parse(text, error);
    EXPECT_EQ(error, "") << text;
    return v;
}

prog::Program
loopProgram()
{
    prog::Program p;
    Addr g = p.allocGlobal(4 * prog::pageSize);
    prog::Assembler a(p);
    a.la(s1, g);
    a.li(s0, 4 * static_cast<std::int32_t>(prog::pageSize) / 64);
    a.label("loop");
    a.ld(t0, s1, 0);
    a.addi(s1, s1, 64);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.halt();
    a.finalize();
    return p;
}

TEST(JsonEscape, ControlAndQuoteCharacters)
{
    EXPECT_EQ(stats::jsonEscape("plain"), "plain");
    EXPECT_EQ(stats::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(stats::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(stats::jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(stats::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriterTest, SchemaGolden)
{
    stats::Snapshot snap;
    auto &g = snap.addGroup("system", "---- Golden ----");
    snap.addCounter(g, "cycles", 123, "total cycles");
    snap.addScalar(g, "ipc", 1.5, "instructions per cycle");

    stats::RunMeta meta;
    meta.add("system", "datascalar");
    meta.add("nodes", std::uint64_t(2));

    std::ostringstream os;
    stats::JsonWriter::write(os, meta, snap);
    EXPECT_EQ(os.str(),
              "{\"run_meta\":{\"system\":\"datascalar\","
              "\"nodes\":2},"
              "\"groups\":{\"system\":{"
              "\"cycles\":{\"value\":123},"
              "\"ipc\":{\"value\":1.5}}}}\n");
}

TEST(JsonWriterTest, RoundTripAllStatKinds)
{
    stats::Snapshot snap;
    auto &g = snap.addGroup("grp", "grp:");
    snap.addCounter(g, "count", 7, "a counter");
    snap.addScalar(g, "gauge", 0.25, "a scalar");
    // Average and Histogram enter snapshots through StatGroup
    // registration; build them directly against the group.
    stats::Average avg(&g.group, "avg", "an average");
    avg.sample(2.0);
    avg.sample(4.0);
    stats::Histogram h(&g.group, "hist", "a histogram", 10, 2);
    h.sample(5);
    h.sample(15);
    h.sample(999);

    stats::RunMeta meta;
    meta.add("weird", "a\"b\\c\nd");

    std::ostringstream os;
    stats::JsonWriter::write(os, meta, snap);
    mini_json::Value doc = parseOrDie(os.str());

    const mini_json::Value *weird =
        doc.find("run_meta")->find("weird");
    ASSERT_NE(weird, nullptr);
    EXPECT_EQ(weird->str, "a\"b\\c\nd");

    const mini_json::Value *grp = doc.find("groups")->find("grp");
    ASSERT_NE(grp, nullptr);
    EXPECT_EQ(grp->find("count")->find("value")->number, 7);
    EXPECT_EQ(grp->find("gauge")->find("value")->number, 0.25);
    EXPECT_EQ(grp->find("avg")->find("mean")->number, 3.0);
    EXPECT_EQ(grp->find("avg")->find("count")->number, 2);
    const mini_json::Value *hist = grp->find("hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->find("count")->number, 3);
    EXPECT_EQ(hist->find("bucket_width")->number, 10);
    ASSERT_EQ(hist->find("buckets")->array.size(), 2u);
    EXPECT_EQ(hist->find("buckets")->array[0].number, 1);
    EXPECT_EQ(hist->find("buckets")->array[1].number, 1);
    EXPECT_EQ(hist->find("overflow")->number, 1);
}

/** name -> value text, per group, parsed from the legacy dump. */
std::map<std::string, std::map<std::string, std::string>>
parseTextDump(const std::string &dump, const stats::Snapshot &snap)
{
    std::map<std::string, std::map<std::string, std::string>> out;
    std::istringstream lines(dump);
    std::string line;
    auto group = snap.groups().end();
    while (std::getline(lines, line)) {
        bool isTitle = false;
        for (auto it = snap.groups().begin();
             it != snap.groups().end(); ++it) {
            if (line == it->title) {
                group = it;
                isTitle = true;
                break;
            }
        }
        if (isTitle || group == snap.groups().end())
            continue;
        // "  name<pad>value  # desc"
        std::istringstream fields(line);
        std::string name, value;
        if (fields >> name >> value)
            out[group->name][name] = value;
    }
    return out;
}

TEST(JsonWriterTest, ScalarValuesByteMatchTextDump)
{
    prog::Program p = loopProgram();
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    core::DataScalarSystem sys(p, cfg,
                               driver::figure7PageTable(p, 2));
    sys.run();

    auto snap = sys.snapshotStats();
    std::ostringstream text;
    snap->dump(text);
    auto expected = parseTextDump(text.str(), *snap);

    std::ostringstream js;
    stats::JsonWriter::write(js, {}, *snap);
    mini_json::Value doc = parseOrDie(js.str());

    const mini_json::Value *groups = doc.find("groups");
    ASSERT_NE(groups, nullptr);
    unsigned compared = 0;
    for (const auto &kv : groups->object) {
        const auto git = expected.find(kv.first);
        ASSERT_NE(git, expected.end()) << kv.first;
        for (const auto &stat : kv.second.object) {
            const mini_json::Value *value =
                stat.second.find("value");
            if (!value)
                continue; // averages/histograms have no text twin
            auto sit = git->second.find(stat.first);
            ASSERT_NE(sit, git->second.end())
                << kv.first << "." << stat.first;
            // Byte-for-byte: the JSON number token must equal the
            // text-dump value field.
            EXPECT_EQ(value->raw, sit->second)
                << kv.first << "." << stat.first;
            ++compared;
        }
    }
    EXPECT_GT(compared, 20u);
}

TEST(JsonWriterTest, TimelineHookEmitsExtraKey)
{
    stats::Snapshot snap;
    auto &g = snap.addGroup("g", "g:");
    snap.addCounter(g, "c", 1, "");
    std::ostringstream os;
    stats::JsonWriter::write(os, {}, snap, [](std::ostream &o) {
        o << "{\"interval\":5}";
    });
    mini_json::Value doc = parseOrDie(os.str());
    const mini_json::Value *timeline = doc.find("timeline");
    ASSERT_NE(timeline, nullptr);
    EXPECT_EQ(timeline->find("interval")->number, 5);
}

} // namespace
} // namespace dscalar
