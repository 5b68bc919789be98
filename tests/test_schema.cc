/**
 * @file
 * The key schemas of RunRequest and ReproCase (common/kv.hh): every
 * ranged key accepts its bounds and refuses one step beyond them by
 * name, and the key tables of docs/SERVING.md and docs/FUZZING.md
 * list exactly the schema's keys.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/oracle.hh"
#include "check/repro.hh"
#include "common/random.hh"
#include "driver/run_request.hh"

#ifndef DOCS_DIR
#error "DOCS_DIR must point at the docs directory"
#endif

namespace dscalar {
namespace {

namespace kv = common::kv;

/** Parse @p text; on success @p formatted is the parsed value
 *  formatted again. */
using ParseFn = bool (*)(const std::string &text, std::string &formatted,
                         std::string &error);

bool
parseRequestText(const std::string &text, std::string &formatted,
                 std::string &error)
{
    std::istringstream in(text + "\n");
    driver::RunRequest req;
    if (!driver::parseRunRequest(in, req, error))
        return false;
    formatted = driver::formatRunRequest(req);
    return true;
}

bool
parseReproText(const std::string &text, std::string &formatted,
               std::string &error)
{
    std::istringstream in(text);
    check::ReproCase repro;
    if (!check::parseRepro(in, repro, error))
        return false;
    formatted = check::formatRepro(repro);
    return true;
}

/** Every single-key boundary of @p keys, each appended to @p base (a
 *  block that stays valid at any one key's bounds). */
void
checkBoundaries(std::span<const kv::Key> keys, void *defaults,
                const std::string &base, ParseFn parse)
{
    std::set<std::string> names;
    for (const kv::Key &key : keys) {
        EXPECT_TRUE(names.insert(key.name).second)
            << key.name << " declared twice";
        kv::Kind kind = key.field(defaults).kind;
        std::vector<std::string> bad, good;
        if (kind == kv::Kind::Prob) {
            bad = {"-1", "2"};
            good = {"0", "1"};
        } else if (kind == kv::Kind::U32 || kind == kv::Kind::U64) {
            std::uint64_t lo = key.range.min;
            std::uint64_t hi = std::min<std::uint64_t>(
                key.range.max,
                kind == kv::Kind::U32 ? UINT32_MAX : UINT64_MAX);
            bad = {lo ? std::to_string(lo - 1) : "-1",
                   hi == UINT64_MAX ? "18446744073709551616"
                                    : std::to_string(hi + 1)};
            good = {std::to_string(lo), std::to_string(hi)};
        } else {
            continue;
        }
        for (const std::string &v : bad) {
            std::string text = base + key.name + " = " + v + "\n";
            std::string formatted, error;
            EXPECT_FALSE(parse(text, formatted, error)) << text;
            EXPECT_NE(error.find(std::string("'") + key.name + "'"),
                      std::string::npos)
                << text << "-> " << error;
        }
        for (const std::string &v : good) {
            std::string text = base + key.name + " = " + v + "\n";
            std::string once, twice, error;
            ASSERT_TRUE(parse(text, once, error)) << text << error;
            ASSERT_TRUE(parse(once, twice, error)) << once << error;
            EXPECT_EQ(once, twice) << text;
        }
    }
}

TEST(KeySchema, RunRequestBoundaries)
{
    driver::RunRequest defaults;
    checkBoundaries(driver::runRequestKeys(), &defaults,
                    "workload = go_s\n", parseRequestText);
}

TEST(KeySchema, ReproBoundaries)
{
    // Widest generation ranges and cache, so that moving any one key
    // to a bound keeps every cross-field rule.
    check::ReproCase defaults;
    checkBoundaries(check::reproKeys(), &defaults,
                    "seed = 1\nmin_data_pages = 1\n"
                    "max_data_pages = 512\nmin_iters = 1\n"
                    "max_iters = 2000\nmin_block_ops = 1\n"
                    "max_block_ops = 1000\ndcache_bytes = 1048576\n",
                    parseReproText);
}

TEST(KeySchema, SampledConfigsParse)
{
    // Every config the oracle samples, saved as a repro, loads back:
    // the repro ranges and rules refuse nothing a campaign can write.
    check::Oracle oracle;
    Random rng(7);
    for (int i = 0; i < 2000; ++i) {
        check::ReproCase repro{1, check::GenParams::fuzzDefault(),
                               oracle.sampleConfig(rng), "x"};
        std::string text = check::formatRepro(repro), again, error;
        ASSERT_TRUE(parseReproText(text, again, error)) << text << error;
        EXPECT_EQ(again, text);
    }
}

/**
 * The backquoted names in column @p column of the markdown table
 * whose header line is @p header in docs/@p file, leaving out
 * parenthesised remarks (enum values, notes).
 */
std::set<std::string>
docKeys(const std::string &file, const std::string &header,
        unsigned column)
{
    std::ifstream in(std::string(DOCS_DIR) + "/" + file);
    EXPECT_TRUE(in) << file;
    std::string line;
    while (std::getline(in, line) && line != header) {
    }
    std::getline(in, line); // the separator row
    std::set<std::string> keys;
    while (std::getline(in, line) && !line.empty() && line[0] == '|') {
        for (std::size_t p; (p = line.find("\\|")) != std::string::npos;)
            line.replace(p, 2, "/"); // an escaped '|' splits no cell
        std::istringstream cells(line);
        std::string cell;
        for (unsigned i = 0; i <= column; ++i)
            std::getline(cells, cell, '|');
        std::string plain;
        int depth = 0;
        for (char c : cell) {
            depth += c == '(';
            if (!depth)
                plain += c;
            depth -= c == ')' && depth;
        }
        for (std::size_t b = plain.find('`'); b != std::string::npos;) {
            std::size_t e = plain.find('`', b + 1);
            keys.insert(plain.substr(b + 1, e - b - 1));
            b = plain.find('`', e + 1);
        }
    }
    return keys;
}

std::set<std::string>
schemaKeys(std::span<const kv::Key> keys)
{
    std::set<std::string> names;
    for (const kv::Key &key : keys)
        names.insert(key.name);
    return names;
}

TEST(KeySchema, DocsListEveryKey)
{
    EXPECT_EQ(docKeys("SERVING.md", "| key | meaning | default |", 1),
              schemaKeys(driver::runRequestKeys()));
    EXPECT_EQ(docKeys("FUZZING.md", "| Group | Keys |", 2),
              schemaKeys(check::reproKeys()));
}

} // namespace
} // namespace dscalar
