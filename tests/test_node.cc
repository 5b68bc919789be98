/** @file
 * Unit tests for DataScalarNode's protocol glue, using a mock
 * broadcast port — the Figure 2 semantics (replicated vs
 * communicated loads and stores) verified path by path.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/node.hh"
#include "core/sim_config.hh"
#include "driver/driver.hh"
#include "ooo/oracle_stream.hh"
#include "prog/assembler.hh"

namespace dscalar {
namespace core {
namespace {

struct SentMsg
{
    NodeId src;
    Addr line;
    interconnect::MsgKind kind;
    Cycle ready;
};

class MockPort : public BroadcastPort
{
  public:
    void
    broadcast(NodeId src, Addr line, interconnect::MsgKind kind,
              Cycle ready) override
    {
        sent.push_back(SentMsg{src, line, kind, ready});
    }
    std::vector<SentMsg> sent;
};

/** Fixture: a 2-node page table with one owned page per node plus
 *  a replicated page; node under test is node 0. */
class NodeTest : public ::testing::Test
{
  protected:
    NodeTest()
        : table_(2), program_(), stream_((prepare(), program_)),
          cfg_(driver::paperConfig()),
          node_(0, cfg_, table_, stream_, port_)
    {
    }

    void
    prepare()
    {
        prog::Assembler a(program_);
        a.halt();
        a.finalize();
        table_.setReplicated(replPage);
        table_.setOwned(ownPage, 0);
        table_.setOwned(remotePage, 1);
    }

    static constexpr Addr replPage = 0x10 * prog::pageSize;
    static constexpr Addr ownPage = 0x20 * prog::pageSize;
    static constexpr Addr remotePage = 0x30 * prog::pageSize;

    mem::PageTable table_;
    prog::Program program_;
    ooo::OracleStream stream_;
    SimConfig cfg_;
    MockPort port_;
    DataScalarNode node_{0, cfg_, table_, stream_, port_};
};

TEST_F(NodeTest, OwnedLoadFetchesLocallyAndBroadcasts)
{
    ooo::FillResult r = node_.startLineFetch(ownPage, 100);
    EXPECT_NE(r.readyAt, cycleMax);
    EXPECT_FALSE(r.foundWaiting);
    ASSERT_EQ(port_.sent.size(), 1u);
    EXPECT_EQ(port_.sent[0].line, ownPage);
    EXPECT_EQ(port_.sent[0].kind,
              interconnect::MsgKind::Broadcast);
    // Broadcast leaves after the local fill completes.
    EXPECT_GE(port_.sent[0].ready, 100u);
    EXPECT_EQ(node_.nodeStats().ownerBroadcasts, 1u);
}

TEST_F(NodeTest, ReplicatedLoadIsLocalAndSilent)
{
    ooo::FillResult r = node_.startLineFetch(replPage, 100);
    EXPECT_NE(r.readyAt, cycleMax);
    EXPECT_TRUE(port_.sent.empty());
}

TEST_F(NodeTest, RemoteLoadWaitsOnBshr)
{
    ooo::FillResult r = node_.startLineFetch(remotePage, 100);
    EXPECT_EQ(r.readyAt, cycleMax); // deferred
    EXPECT_TRUE(port_.sent.empty());
    EXPECT_EQ(node_.bshr().bshrStats().waiterAllocs, 1u);
    EXPECT_EQ(node_.nodeStats().remoteFetches, 1u);
}

TEST_F(NodeTest, RemoteLoadFindsBufferedBroadcast)
{
    node_.deliverBroadcast(remotePage, 50);
    ooo::FillResult r = node_.startLineFetch(remotePage, 100);
    EXPECT_TRUE(r.foundWaiting);
    EXPECT_EQ(r.readyAt, 100u + cfg_.bshrLatency);
    EXPECT_EQ(node_.bshr().bshrStats().bufferedHits, 1u);
}

TEST_F(NodeTest, UnclaimedMissAtOwnerSendsReparative)
{
    node_.onUnclaimedCanonicalMiss(ownPage, 200);
    ASSERT_EQ(port_.sent.size(), 1u);
    EXPECT_EQ(port_.sent[0].kind,
              interconnect::MsgKind::ReparativeBroadcast);
    EXPECT_EQ(node_.nodeStats().reparativeBroadcasts, 1u);
}

TEST_F(NodeTest, UnclaimedMissAtNonOwnerSquashes)
{
    node_.onUnclaimedCanonicalMiss(remotePage, 200);
    EXPECT_TRUE(port_.sent.empty());
    // The squash consumes the broadcast when it arrives.
    node_.deliverBroadcast(remotePage, 250);
    EXPECT_EQ(node_.bshr().bshrStats().squashes, 1u);
    EXPECT_TRUE(node_.bshr().drained());
}

TEST_F(NodeTest, UnclaimedMissOnReplicatedIsLocal)
{
    node_.onUnclaimedCanonicalMiss(replPage, 200);
    EXPECT_TRUE(port_.sent.empty());
    EXPECT_TRUE(node_.bshr().drained());
}

TEST_F(NodeTest, WriteBackCompletesOnlyWhereLocal)
{
    node_.writeBack(ownPage, 10);
    node_.writeBack(replPage, 10);
    node_.writeBack(remotePage, 10);
    EXPECT_EQ(node_.nodeStats().localWriteBacks, 2u);
    EXPECT_EQ(node_.nodeStats().droppedWriteBacks, 1u);
    EXPECT_TRUE(port_.sent.empty()); // never any bus traffic
}

TEST_F(NodeTest, StoreMissCompletesOnlyWhereLocal)
{
    node_.storeMiss(ownPage, 10);
    node_.storeMiss(remotePage, 10);
    EXPECT_EQ(node_.nodeStats().localStoreWrites, 1u);
    EXPECT_EQ(node_.nodeStats().droppedStoreWrites, 1u);
    EXPECT_TRUE(port_.sent.empty());
}

TEST_F(NodeTest, InstructionFetchIsLocal)
{
    Cycle done = node_.fetchInstLine(replPage, 5);
    EXPECT_GT(done, 5u);
    EXPECT_TRUE(port_.sent.empty());
}

TEST_F(NodeTest, RemoteInstructionFetchIsFatal)
{
    EXPECT_EXIT(node_.fetchInstLine(remotePage, 5),
                ::testing::ExitedWithCode(1), "replicated");
}

} // namespace
} // namespace core
} // namespace dscalar
