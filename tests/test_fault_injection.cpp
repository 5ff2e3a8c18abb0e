// Fault-injection layer: plan parsing, the FaultyTransport decorator, and
// how an injected kill plays out across a live cluster — the faulted rank
// dies with InjectedFault, the survivors observe it as PeerFailureError /
// TimeoutError instead of hanging.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cluster/faulty_transport.h"
#include "cluster/transport.h"

namespace tinge::cluster {
namespace {

// ---- plan parsing ----------------------------------------------------------

TEST(FaultPlanTransportTest, ParsesFullSpec) {
  const FaultPlan plan = parse_fault_plan(
      "rank=2,delay-ms=5,jitter-ms=3,drop-after=7,kill-after=11,mode=exit,"
      "exit-code=42,seed=99");
  EXPECT_EQ(plan.rank, 2);
  EXPECT_DOUBLE_EQ(plan.delay_ms, 5.0);
  EXPECT_DOUBLE_EQ(plan.jitter_ms, 3.0);
  EXPECT_EQ(plan.drop_after, 7);
  EXPECT_EQ(plan.kill_after, 11);
  EXPECT_EQ(plan.kill_mode, KillMode::Exit);
  EXPECT_EQ(plan.exit_code, 42);
  EXPECT_EQ(plan.seed, 99u);
}

TEST(FaultPlanTransportTest, DefaultsAreInert) {
  const FaultPlan plan = parse_fault_plan("");
  EXPECT_EQ(plan.rank, -1);
  EXPECT_EQ(plan.drop_after, -1);
  EXPECT_EQ(plan.kill_after, -1);
  EXPECT_EQ(plan.kill_mode, KillMode::Throw);
}

TEST(FaultPlanTransportTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_plan("bogus-key=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("rank"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("rank=one"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("delay-ms=fast"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("mode=segfault"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("rank=1,kill-at=0.5"), std::invalid_argument);
}

// ---- the decorator against a live endpoint ---------------------------------

/// A 1-rank loopback endpoint: enough to exercise the decorator's own
/// logic (arming, op counting, drops, kills) without a full mesh.
std::unique_ptr<Transport> loopback() {
  return make_transport(TransportKind::InProcess, TransportOptions{});
}

TEST(FaultyTransportTest, DisarmedOnOtherRanksAndForwards) {
  const auto inner = loopback();
  FaultPlan plan = parse_fault_plan("rank=1,kill-after=1");
  FaultyTransport faulty(*inner, plan);  // loopback is rank 0: plan inert
  EXPECT_FALSE(faulty.armed());
  Comm comm(faulty);
  comm.send_vector(0, std::vector<int>{5}, 1);
  EXPECT_EQ(comm.recv_vector<int>(0, 1).at(0), 5);
  EXPECT_EQ(faulty.ops(), 2);  // ops are counted even when disarmed
  EXPECT_EQ(faulty.dropped_sends(), 0);
}

TEST(FaultyTransportTest, KillAfterThrowsAtTheConfiguredOp) {
  const auto inner = loopback();
  FaultPlan plan = parse_fault_plan("rank=0,kill-after=3,mode=throw");
  FaultyTransport faulty(*inner, plan);
  ASSERT_TRUE(faulty.armed());
  Comm comm(faulty);
  comm.send_vector(0, std::vector<int>{1}, 1);               // op 1
  EXPECT_EQ(comm.recv_vector<int>(0, 1).at(0), 1);           // op 2
  EXPECT_THROW(comm.send_vector(0, std::vector<int>{2}, 1),  // op 3: boom
               InjectedFault);
  EXPECT_EQ(faulty.ops(), 3);
}

TEST(FaultyTransportTest, ArmedKillAlsoFiresAtABarrier) {
  // kill-after=0 means "dead before any data op"; a barrier-only phase
  // must still fire the kill rather than let the doomed rank slip through.
  const auto inner = loopback();
  const FaultPlan plan = parse_fault_plan("kill-after=0");
  FaultyTransport faulty(*inner, plan);
  Comm comm(faulty);
  EXPECT_THROW(comm.barrier(), InjectedFault);
}

TEST(FaultyTransportTest, DropAfterSwallowsSendsSilently) {
  const auto inner = loopback();
  FaultPlan plan = parse_fault_plan("rank=0,drop-after=1");
  FaultyTransport faulty(*inner, plan);
  Comm comm(faulty);
  comm.send_vector(0, std::vector<int>{1}, 1);  // delivered
  comm.send_vector(0, std::vector<int>{2}, 1);  // dropped
  comm.send_vector(0, std::vector<int>{3}, 1);  // dropped
  EXPECT_EQ(faulty.dropped_sends(), 2);
  EXPECT_EQ(comm.recv_vector<int>(0, 1).at(0), 1);
  // Only the delivered message reached the inner endpoint's accounting.
  EXPECT_EQ(inner->messages_sent(), 1u);
}

// ---- fault playing out across a cluster ------------------------------------

TEST(FaultyClusterTest, SurvivorsObserveAnInjectedKill) {
  // Rank 1 dies on its 2nd data op (the recv below); rank 0, blocked on a
  // recv from it, must observe PeerFailureError via the done-roster — the
  // cluster terminates with the injected fault, nobody hangs.
  const auto cluster = make_cluster(TransportKind::InProcess, 2);
  const FaultPlan plan = parse_fault_plan("rank=1,kill-after=2,mode=throw");
  std::atomic<int> peer_failures{0};
  EXPECT_THROW(cluster->run([&](Comm& comm) {
                 FaultyTransport faulty(comm.transport(), plan);
                 Comm faulted(faulty);
                 if (comm.rank() == 1) {
                   faulted.send_vector(0, std::vector<int>{1}, 1);  // op 1
                   faulted.recv(0, 2);  // op 2: killed here
                 } else {
                   try {
                     comm.recv(1, 3);  // never sent: fails via done-roster
                   } catch (const PeerFailureError&) {
                     ++peer_failures;
                     throw;
                   }
                 }
               }),
               std::runtime_error);  // first error wins; either side's works
  EXPECT_EQ(peer_failures.load(), 1);
}

TEST(FaultyClusterTest, DroppedMessageSurfacesAsRecvTimeout) {
  // The classic lost-message fault: the sender keeps running but its send
  // was swallowed, so only the receiver's deadline can catch it.
  const auto cluster = make_cluster(TransportKind::InProcess, 2);
  const FaultPlan plan = parse_fault_plan("rank=1,drop-after=0");
  std::atomic<bool> timed_out{false};
  EXPECT_THROW(cluster->run([&](Comm& comm) {
                 FaultyTransport faulty(comm.transport(), plan);
                 Comm faulted(faulty);
                 if (comm.rank() == 1) {
                   faulted.send_vector(0, std::vector<int>{9}, 1);  // dropped
                   faulted.recv(0, 2);  // stays alive, waiting forever
                 } else {
                   try {
                     comm.recv(1, 1, /*timeout_seconds=*/0.3);
                   } catch (const TimeoutError&) {
                     timed_out = true;
                     throw;
                   }
                 }
               }),
               std::runtime_error);
  EXPECT_TRUE(timed_out.load());
}

}  // namespace
}  // namespace tinge::cluster
