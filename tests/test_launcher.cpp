// Launcher failure attribution: exit sentinels, reap-order bookkeeping,
// first_failure / describe_worker_exit, and the ECHILD path where workers
// are reaped out from under us (unknown outcome must read as failure).
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/launcher.h"

namespace tinge::cluster {
namespace {

TEST(ClusterLauncherTest, UnreapedWorkerIsAFailureByDefault) {
  // The sentinel state — before (or without) a successful waitpid — must
  // never read as success.
  const WorkerExit exit;
  EXPECT_FALSE(exit.reaped());
  EXPECT_TRUE(exit.failed());
  EXPECT_EQ(exit.exit_code, kWorkerExitUnreaped);
  EXPECT_FALSE(all_workers_succeeded({exit}));
}

TEST(ClusterLauncherTest, NoWorkersIsNotSuccess) {
  EXPECT_FALSE(all_workers_succeeded({}));
}

TEST(ClusterLauncherTest, FirstFailureIsByReapOrderNotRank) {
  // Rank 2 died first (reap_order 0); ranks 0 and 1 were torn down after.
  // Attribution must follow reap order, not rank numbering.
  std::vector<WorkerExit> exits(3);
  exits[0] = {/*rank=*/0, /*exit_code=*/143, /*reap_order=*/2};
  exits[1] = {/*rank=*/1, /*exit_code=*/kWorkerExitPeerFailure,
              /*reap_order=*/1};
  exits[2] = {/*rank=*/2, /*exit_code=*/40, /*reap_order=*/0};
  const WorkerExit* first = first_failure(exits);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->rank, 2);
}

TEST(ClusterLauncherTest, FirstFailureSkipsPeerFailureWatchersReapedFirst) {
  // The exits of a 4-rank run whose rank 1 was crash-killed (exit 40):
  // under load all four had exited before the launcher woke, so waitpid
  // returned them in spawn order and watcher rank 0 was reaped first.
  // Reaping rank 0 SIGTERMed the other three, corpses included.
  std::vector<WorkerExit> exits(4);
  exits[0] = {/*rank=*/0, /*exit_code=*/kWorkerExitPeerFailure,
              /*reap_order=*/0};
  exits[1] = {/*rank=*/1, /*exit_code=*/40, /*reap_order=*/1,
              /*terminated_by_launcher=*/true};
  exits[2] = {/*rank=*/2, /*exit_code=*/kWorkerExitPeerFailure,
              /*reap_order=*/2, /*terminated_by_launcher=*/true};
  exits[3] = {/*rank=*/3, /*exit_code=*/kWorkerExitPeerFailure,
              /*reap_order=*/3, /*terminated_by_launcher=*/true};
  const WorkerExit* first = first_failure(exits);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->rank, 1);
}

TEST(ClusterLauncherTest, FirstFailureSkipsLauncherTerminatedSurvivors) {
  // A survivor the launcher SIGTERMed (143) is reaped before the culprit:
  // teardown is not a failure of its own.
  std::vector<WorkerExit> exits(4);
  exits[0] = {/*rank=*/0, /*exit_code=*/kWorkerExitPeerFailure,
              /*reap_order=*/0};
  exits[1] = {/*rank=*/1, /*exit_code=*/40, /*reap_order=*/2,
              /*terminated_by_launcher=*/true};
  exits[2] = {/*rank=*/2, /*exit_code=*/128 + SIGTERM, /*reap_order=*/1,
              /*terminated_by_launcher=*/true};
  exits[3] = {/*rank=*/3, /*exit_code=*/128 + SIGTERM, /*reap_order=*/3,
              /*terminated_by_launcher=*/true};
  const WorkerExit* first = first_failure(exits);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->rank, 1);
  EXPECT_NE(describe_worker_exit(exits[2]).find("launcher"),
            std::string::npos);

  // A SIGTERM the launcher did not send is the worker's own failure.
  exits[2].terminated_by_launcher = false;
  first = first_failure(exits);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->rank, 2);
}

TEST(ClusterLauncherTest, FirstFailureFallsBackToReapOrderAmongWatchers) {
  // Only watchers failed (e.g. the culprit wedged and was torn down):
  // plain reap order decides.
  std::vector<WorkerExit> exits(3);
  exits[0] = {/*rank=*/0, /*exit_code=*/kWorkerExitPeerFailure,
              /*reap_order=*/1};
  exits[1] = {/*rank=*/1, /*exit_code=*/128 + SIGTERM, /*reap_order=*/0,
              /*terminated_by_launcher=*/true};
  exits[2] = {/*rank=*/2, /*exit_code=*/0, /*reap_order=*/2};
  const WorkerExit* first = first_failure(exits);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->rank, 1);

  // A worker of unknown outcome is a likelier culprit than a watcher.
  exits[2] = {/*rank=*/2, /*exit_code=*/kWorkerExitUnreaped,
              /*reap_order=*/-1};
  first = first_failure(exits);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->rank, 2);
}

TEST(ClusterLauncherTest, CleanExitsAreSkippedByFirstFailure) {
  std::vector<WorkerExit> exits(2);
  exits[0] = {/*rank=*/0, /*exit_code=*/0, /*reap_order=*/0};
  exits[1] = {/*rank=*/1, /*exit_code=*/1, /*reap_order=*/1};
  const WorkerExit* first = first_failure(exits);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->rank, 1);

  exits[1].exit_code = 0;
  EXPECT_EQ(first_failure(exits), nullptr);
}

TEST(ClusterLauncherTest, UnreapedFailureWinsOnlyWithoutReapedOnes) {
  // A reaped failure beats an unreaped sentinel (its timing is known)...
  std::vector<WorkerExit> exits(2);
  exits[0] = {/*rank=*/0, /*exit_code=*/kWorkerExitUnreaped,
              /*reap_order=*/-1};
  exits[1] = {/*rank=*/1, /*exit_code=*/9, /*reap_order=*/0};
  const WorkerExit* first = first_failure(exits);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->rank, 1);

  // ...but with nothing reaped, the sentinel is all we can report.
  exits[1] = {/*rank=*/1, /*exit_code=*/0, /*reap_order=*/0};
  first = first_failure(exits);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->rank, 0);
}

TEST(ClusterLauncherTest, DescribeWorkerExitCoversTheCodeSpace) {
  WorkerExit exit;
  EXPECT_NE(describe_worker_exit(exit).find("never reaped"),
            std::string::npos);
  exit.reap_order = 0;
  exit.exit_code = 0;
  EXPECT_EQ(describe_worker_exit(exit), "exited cleanly");
  exit.exit_code = kWorkerExitPeerFailure;
  EXPECT_NE(describe_worker_exit(exit).find("peer failure"),
            std::string::npos);
  exit.exit_code = 127;
  EXPECT_NE(describe_worker_exit(exit).find("exec"), std::string::npos);
  exit.exit_code = 128 + SIGTERM;
  EXPECT_NE(describe_worker_exit(exit).find("signal 15"), std::string::npos);
  exit.exit_code = 40;
  EXPECT_EQ(describe_worker_exit(exit), "exited with code 40");
}

TEST(ClusterLauncherTest, LaunchReapsAllWorkersInOrder) {
  // The launcher appends --cluster-rank=... etc.; `sh -c 'exit 0' sh`
  // ignores those extra argv words, so /bin/sh stands in for a worker.
  std::vector<WorkerExit> exits =
      launch_workers("/bin/sh", {"-c", "exit 0", "sh"}, 2, "/tmp");
  ASSERT_EQ(exits.size(), 2u);
  EXPECT_TRUE(all_workers_succeeded(exits));
  std::vector<bool> orders(2, false);
  for (const WorkerExit& exit : exits) {
    EXPECT_TRUE(exit.reaped());
    EXPECT_EQ(exit.exit_code, 0);
    ASSERT_GE(exit.reap_order, 0);
    ASSERT_LT(exit.reap_order, 2);
    orders[static_cast<std::size_t>(exit.reap_order)] = true;
  }
  EXPECT_TRUE(orders[0] && orders[1]);  // reap orders are a permutation
}

TEST(ClusterLauncherTest, LaunchReportsAFailedWorkersExitCode) {
  // One worker (no survivors to tear down, so no SIGTERM race on the
  // expected code): its exit status must come back verbatim.
  std::vector<WorkerExit> exits =
      launch_workers("/bin/sh", {"-c", "exit 7", "sh"}, 1, "/tmp");
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_TRUE(exits[0].reaped());
  EXPECT_EQ(exits[0].exit_code, 7);
  EXPECT_FALSE(all_workers_succeeded(exits));
  const WorkerExit* first = first_failure(exits);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->rank, 0);
}

TEST(ClusterLauncherTest, LaunchMarksTheSurvivorsItTearsDown) {
  // Rank 1 fails; ranks 0 and 2 would sleep for 30 s but are SIGTERMed by
  // the launcher's teardown. The launcher appends --cluster-rank=<r> as
  // the script's $1.
  const std::vector<WorkerExit> exits = launch_workers(
      "/bin/sh",
      {"-c", "case \"$1\" in --cluster-rank=1) exit 40;; esac; exec sleep 30",
       "sh"},
      3, "/tmp");
  ASSERT_EQ(exits.size(), 3u);
  EXPECT_EQ(exits[1].exit_code, 40);
  EXPECT_FALSE(exits[1].terminated_by_launcher);
  for (const int rank : {0, 2}) {
    const WorkerExit& survivor = exits[static_cast<std::size_t>(rank)];
    EXPECT_TRUE(survivor.terminated_by_launcher) << "rank " << rank;
    EXPECT_EQ(survivor.exit_code, 128 + SIGTERM) << "rank " << rank;
  }
  const WorkerExit* first = first_failure(exits);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->rank, 1);
}

TEST(ClusterLauncherTest, EchildLeavesFailureSentinels) {
  // With SIGCHLD set to SIG_IGN the kernel auto-reaps children and waitpid
  // fails with ECHILD: the launcher must report every rank as an unreaped
  // failure rather than hang or claim success.
  struct sigaction previous = {};
  struct sigaction ignore = {};
  ignore.sa_handler = SIG_IGN;
  ASSERT_EQ(::sigaction(SIGCHLD, &ignore, &previous), 0);
  std::vector<WorkerExit> exits =
      launch_workers("/bin/sh", {"-c", "exit 0", "sh"}, 2, "/tmp");
  ::sigaction(SIGCHLD, &previous, nullptr);
  ASSERT_EQ(exits.size(), 2u);
  EXPECT_FALSE(all_workers_succeeded(exits));
  for (const WorkerExit& exit : exits) {
    EXPECT_FALSE(exit.reaped());
    EXPECT_EQ(exit.exit_code, kWorkerExitUnreaped);
  }
  ASSERT_NE(first_failure(exits), nullptr);
}

TEST(ClusterLauncherTest, ScrubPortFilesRemovesOnlyPortArtifacts) {
  // Stale rendezvous state from a crashed run is exactly *.port and
  // *.port.tmp; anything else in the directory is not ours to delete.
  const std::string dir = make_rendezvous_dir();
  for (const char* name : {"rank-0.port", "rank-1.port", "rank-2.port.tmp"})
    ASSERT_TRUE(std::ofstream(dir + "/" + name) << "1234\n");
  ASSERT_TRUE(std::ofstream(dir + "/notes.txt") << "keep me\n");

  scrub_port_files(dir);
  EXPECT_NE(::access((dir + "/rank-0.port").c_str(), F_OK), 0);
  EXPECT_NE(::access((dir + "/rank-1.port").c_str(), F_OK), 0);
  EXPECT_NE(::access((dir + "/rank-2.port.tmp").c_str(), F_OK), 0);
  EXPECT_EQ(::access((dir + "/notes.txt").c_str(), F_OK), 0);

  scrub_port_files(dir + "/does-not-exist");  // quietly a no-op
  remove_rendezvous_dir(dir);
}

TEST(ClusterLauncherTest, RunNoncesAreNonzeroAndDistinct) {
  // Zero means "unstamped" on the wire, so a real nonce must never be 0,
  // and it is parsed back through a signed CLI integer, so the top bit
  // must stay clear.
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t nonce = make_run_nonce();
    EXPECT_NE(nonce, 0u);
    EXPECT_EQ(nonce >> 63, 0u);
  }
  EXPECT_NE(make_run_nonce(), make_run_nonce());
}

TEST(ClusterLauncherTest, FailedLaunchScrubsStalePortFiles) {
  // A launch over a directory holding a crashed run's port files must
  // scrub them before spawning (so workers can't rendezvous with a
  // corpse) and leave the directory clean after the failure too.
  const std::string dir = make_rendezvous_dir();
  ASSERT_TRUE(std::ofstream(dir + "/rank-0.port") << "4242 999\n");

  const std::vector<WorkerExit> exits =
      launch_workers("/bin/false", {}, /*size=*/2, dir);
  EXPECT_FALSE(all_workers_succeeded(exits));
  EXPECT_NE(::access((dir + "/rank-0.port").c_str(), F_OK), 0);
  remove_rendezvous_dir(dir);
}

TEST(ClusterLauncherTest, SiblingBinaryPathResolvesNextToThisBinary) {
  const std::string path = sibling_binary_path("argv0-unused", "neighbor");
  // Resolved via /proc/self/exe: must end with /neighbor and the directory
  // must be this test binary's own directory.
  ASSERT_GE(path.size(), std::string("/neighbor").size());
  EXPECT_EQ(path.substr(path.size() - 9), "/neighbor");
  EXPECT_NE(path.find('/'), std::string::npos);
}

TEST(ClusterLauncherTest, SiblingBinaryPathFallsBackToArgv0) {
  // When /proc/self/exe is unavailable or truncated the argv0 directory is
  // used; with a bare argv0 the sibling lands in ".". We can't break
  // /proc here, but the argv0 fallback's slash handling is still checkable
  // through a relative argv0 (the dir split is shared code).
  const std::string path = sibling_binary_path("./build/tool", "peer");
  EXPECT_EQ(path.substr(path.size() - 5), "/peer");
}

}  // namespace
}  // namespace tinge::cluster
