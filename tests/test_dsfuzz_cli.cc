/** @file
 * dsfuzz CLI contract tests: exit codes (0 = clean / time budget,
 * 1 = mismatch or model counterexample found, 2 = usage or file
 * error), the repro files it writes (flight-log and model-trace '#'
 * comments must survive a parse round-trip), and the model mode's
 * counterexample-to-repro conversion — all through the real binary,
 * the way CI and humans drive it.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "check/repro.hh"

#ifndef DSFUZZ_BIN
#error "DSFUZZ_BIN must point at the dsfuzz executable"
#endif
#ifndef REPRO_DIR
#error "REPRO_DIR must point at the committed repro corpus"
#endif

namespace dscalar {
namespace {

struct CliResult
{
    int exitCode = -1;
    std::string output;
};

/** Run dsfuzz with @p args, capturing combined stdout+stderr. */
CliResult
runDsfuzz(const std::string &args)
{
    // ctest runs each case as its own process, concurrently under
    // -j: the pid keeps their capture files apart.
    static int counter = 0;
    std::string outFile = ::testing::TempDir() + "/dsfuzz_cli_out." +
                          std::to_string(::getpid()) + "." +
                          std::to_string(counter++);
    std::string cmd = std::string(DSFUZZ_BIN) + " " + args + " > " +
                      outFile + " 2>&1";
    int status = std::system(cmd.c_str());
    CliResult res;
    if (WIFEXITED(status))
        res.exitCode = WEXITSTATUS(status);
    {
        std::ifstream in(outFile);
        std::ostringstream os;
        os << in.rdbuf();
        res.output = os.str();
    }
    std::remove(outFile.c_str());
    return res;
}

TEST(DsfuzzCli, CleanCampaignExitsZero)
{
    CliResult res = runDsfuzz("--runs=2 --seed=1");
    EXPECT_EQ(res.exitCode, 0) << res.output;
    EXPECT_NE(res.output.find("OK:"), std::string::npos)
        << res.output;
}

TEST(DsfuzzCli, TimeBudgetExitsZero)
{
    // A huge run count with a tiny budget: the campaign must stop at
    // the budget check, report it, and still exit clean.
    CliResult res = runDsfuzz(
        "--runs=1000000 --time-budget=0.05 --seed=1");
    EXPECT_EQ(res.exitCode, 0) << res.output;
    EXPECT_NE(res.output.find("time budget reached"),
              std::string::npos)
        << res.output;
}

TEST(DsfuzzCli, BadFlagExitsTwo)
{
    // --trace-dir named the removed persistent trace store.
    for (const char *args : {"--wibble", "--trace-dir=x"}) {
        CliResult res = runDsfuzz(args);
        EXPECT_EQ(res.exitCode, 2) << args << ": " << res.output;
        EXPECT_NE(res.output.find("usage:"), std::string::npos)
            << args;
    }
}

TEST(DsfuzzCli, UnknownMutationExitsTwo)
{
    CliResult res = runDsfuzz("--mutate=not-a-mutation");
    EXPECT_EQ(res.exitCode, 2) << res.output;
}

TEST(DsfuzzCli, BadNumericValueExitsTwo)
{
    // Junk, and a value that would silently truncate into unsigned,
    // are usage errors rather than uncaught exceptions or wrap-round.
    for (const char *args :
         {"--runs=abc", "--time-budget=x", "--ngram=4294967296"}) {
        CliResult res = runDsfuzz(args);
        EXPECT_EQ(res.exitCode, 2) << args << ": " << res.output;
        EXPECT_NE(res.output.find("usage:"), std::string::npos)
            << args;
    }
}

TEST(DsfuzzCli, MissingReproFileExitsTwo)
{
    CliResult res =
        runDsfuzz("--repro=/nonexistent/dsfuzz-repro.txt");
    EXPECT_EQ(res.exitCode, 2) << res.output;
}

TEST(DsfuzzCli, OutOfRangeReproValueExitsTwo)
{
    // The clean baseline with one value a replay cannot build: the
    // file is refused (exit 2, naming the key), never replayed.
    std::ifstream in(std::string(REPRO_DIR) + "/clean-baseline.txt");
    std::ostringstream os;
    os << in.rdbuf();
    const std::string clean = os.str();
    ASSERT_FALSE(clean.empty());
    const std::string path =
        ::testing::TempDir() + "/dsfuzz_cli_bad_repro." +
        std::to_string(::getpid()) + ".txt";
    for (const char *line :
         {"min_data_pages = 0", "max_data_pages = 100000",
          "min_iters = 0", "dcache_bytes = 1000", "dcache_assoc = 0",
          "nodes = 0", "nodes = 100000", "bshr_capacity = 0",
          "mix_load_accum = 4294967296"}) {
        const std::string key(line, std::strchr(line, ' ') - line);
        std::size_t at = clean.find("\n" + key + " = ");
        ASSERT_NE(at, std::string::npos) << key;
        std::size_t end = clean.find('\n', at + 1);
        std::ofstream(path) << clean.substr(0, at + 1) << line
                            << clean.substr(end);
        CliResult res = runDsfuzz("--repro=" + path);
        EXPECT_EQ(res.exitCode, 2) << line << ": " << res.output;
        EXPECT_NE(res.output.find(key), std::string::npos)
            << line << ": " << res.output;
    }
    std::remove(path.c_str());
}

TEST(DsfuzzCli, ModelShapeOutOfBoundsExitsTwo)
{
    // A shape the model cannot enumerate is a usage error, named by
    // its bound; exit 1 would claim a counterexample.
    for (const char *args :
         {"--model --model-nodes=100", "--model --model-nodes=1",
          "--model --model-lines=5", "--model --model-episodes=7"}) {
        CliResult res = runDsfuzz(args);
        EXPECT_EQ(res.exitCode, 2) << args << ": " << res.output;
        EXPECT_NE(res.output.find("outside"), std::string::npos)
            << args << ": " << res.output;
        EXPECT_NE(res.output.find("usage:"), std::string::npos) << args;
    }
}

TEST(DsfuzzCli, ModelCleanExitsZero)
{
    CliResult res = runDsfuzz(
        "--model --model-nodes=2 --model-lines=2 --model-episodes=2");
    EXPECT_EQ(res.exitCode, 0) << res.output;
    EXPECT_NE(res.output.find("model OK"), std::string::npos);
}

TEST(DsfuzzCli, MutationCampaignWritesCommentedRepro)
{
    // The planted bug must be found (exit 1), the repro must carry
    // the failing run's flight log as '#' comments, and the file
    // must still parse — comments and all — back into the exact
    // mutated config.
    std::string repro =
        ::testing::TempDir() + "/dsfuzz_cli_mutation_repro.txt";
    CliResult res = runDsfuzz(
        "--mutate=squash-pending-lost --runs=20 --seed=1 "
        "--repro-out=" + repro);
    ASSERT_EQ(res.exitCode, 1) << res.output;
    EXPECT_NE(res.output.find("repro written"), std::string::npos);

    std::ifstream in(repro);
    std::ostringstream os;
    os << in.rdbuf();
    std::string text = os.str();
    EXPECT_NE(text.find("# flight recorder"), std::string::npos)
        << text;
    EXPECT_NE(text.find("mutation = squash-pending-lost"),
              std::string::npos);

    check::ReproCase loaded;
    std::string error;
    ASSERT_TRUE(check::loadRepro(repro, loaded, error)) << error;
    EXPECT_EQ(loaded.config.mutation,
              core::ProtocolMutation::SquashPendingLost);
    EXPECT_FALSE(loaded.mismatch.empty());

    // And the written file replays to the same verdict.
    CliResult replay = runDsfuzz("--repro=" + repro);
    EXPECT_EQ(replay.exitCode, 1) << replay.output;
    EXPECT_NE(replay.output.find("REPRODUCED"), std::string::npos);
}

TEST(DsfuzzCli, ModelCounterexampleConvertsToRepro)
{
    std::string repro =
        ::testing::TempDir() + "/dsfuzz_cli_model_repro.txt";
    CliResult res = runDsfuzz(
        "--model --mutate=deliver-squash-buffers --seed=1 "
        "--repro-out=" + repro);
    ASSERT_EQ(res.exitCode, 1) << res.output;
    EXPECT_NE(res.output.find("VIOLATION:"), std::string::npos);
    EXPECT_NE(res.output.find("model counterexample"),
              std::string::npos);

    // The repro carries the abstract trace as comments and replays.
    std::ifstream in(repro);
    std::ostringstream os;
    os << in.rdbuf();
    EXPECT_NE(os.str().find("# model counterexample"),
              std::string::npos);
    check::ReproCase loaded;
    std::string error;
    ASSERT_TRUE(check::loadRepro(repro, loaded, error)) << error;
    EXPECT_EQ(loaded.config.mutation,
              core::ProtocolMutation::DeliverSquashBuffers);
    CliResult replay = runDsfuzz("--repro=" + repro);
    EXPECT_EQ(replay.exitCode, 1) << replay.output;
}

} // namespace
} // namespace dscalar
