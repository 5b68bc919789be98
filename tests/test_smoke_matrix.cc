/** @file
 * Broad smoke matrix: every registered workload through every
 * timing system at a small instruction budget — the cheapest way to
 * catch regressions in corners the focused tests don't reach
 * (unusual miss mixes, indirect jumps, byte traffic, big text).
 */

#include <gtest/gtest.h>

#include "core/datascalar.hh"
#include "driver/driver.hh"
#include "workloads/workloads.hh"

namespace dscalar {
namespace {

constexpr InstSeq kBudget = 15'000;

class SmokeMatrixTest
    : public ::testing::TestWithParam<const char *>
{
  protected:
    std::shared_ptr<const prog::Program> program_ =
        std::make_shared<const prog::Program>(
            workloads::findWorkload(GetParam()).build(1));

    /** A live run of this workload on @p system at @p nodes. */
    driver::RunResponse
    run(driver::SystemKind system, unsigned nodes) const
    {
        driver::RunRequest req;
        req.program = program_;
        req.system = system;
        req.config.maxInsts = kBudget;
        req.config.numNodes = nodes;
        return driver::runOne(req);
    }
};

TEST_P(SmokeMatrixTest, PerfectSystem)
{
    driver::RunResponse resp = run(driver::SystemKind::Perfect, 2);
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_EQ(resp.result.instructions, kBudget);
    EXPECT_GT(resp.result.ipc, 0.0);
}

TEST_P(SmokeMatrixTest, TraditionalSystem)
{
    driver::RunResponse resp = run(driver::SystemKind::Traditional, 4);
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_EQ(resp.result.instructions, kBudget);
}

TEST_P(SmokeMatrixTest, DataScalarBusAndRing)
{
    for (auto kind : {core::InterconnectKind::Bus,
                      core::InterconnectKind::Ring}) {
        core::SimConfig cfg = driver::paperConfig();
        cfg.maxInsts = kBudget;
        cfg.numNodes = 4;
        cfg.interconnect = kind;
        core::DataScalarSystem sys(
            *program_, cfg, driver::figure7PageTable(*program_, 4));
        core::RunResult r = sys.run();
        EXPECT_EQ(r.instructions, kBudget);
        EXPECT_TRUE(sys.protocolDrained()) << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SmokeMatrixTest,
    ::testing::Values("tomcatv_s", "swim_s", "hydro2d_s", "mgrid_s",
                      "applu_s", "m88ksim_s", "turb3d_s", "gcc_s",
                      "compress_s", "li_s", "perl_s", "fpppp_s",
                      "wave5_s", "go_s"));

} // namespace
} // namespace dscalar
