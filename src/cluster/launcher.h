// Multi-process launch support for the TCP transport: rendezvous directory
// lifecycle plus a fork/exec worker launcher. tinge_cli uses this to spawn
// N tinge_worker processes that join one mesh; each worker calls
// make_transport(TransportKind::Tcp, ...) with the rendezvous directory the
// launcher hands it on the command line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tinge::cluster {

/// Creates a fresh private directory for TCP rendezvous port files under
/// $TMPDIR (or /tmp). Remove it with remove_rendezvous_dir when the run is
/// over.
std::string make_rendezvous_dir();

/// Best-effort removal of a rendezvous directory and the files inside it.
void remove_rendezvous_dir(const std::string& dir);

/// Best-effort removal of rendezvous debris (`*.port`, `*.port.tmp`) from
/// `dir` without touching the directory itself or anything else in it.
/// The launcher runs this before spawning a mesh into a reused directory
/// (a crashed prior run leaves its port files behind) and again after an
/// abnormal worker exit, so the next run never dials a dead port.
void scrub_port_files(const std::string& dir);

/// A fresh nonzero run nonce for stamping rendezvous port files
/// (TransportOptions::run_nonce): mixes a system random source with the
/// pid and clock so two runs — even back-to-back in one process — never
/// share one.
std::uint64_t make_run_nonce();

/// Exit code a worker uses when it observed a *peer* failure
/// (PeerFailureError / TimeoutError) rather than failing itself — lets the
/// launcher separate the rank that caused a failure from the ranks that
/// merely watched it happen (see first_failure).
inline constexpr int kWorkerExitPeerFailure = 3;

/// Sentinel exit_code for a worker the launcher never reaped (waitpid
/// failed, e.g. ECHILD because something reaped our children). Unknown
/// outcome must read as failure, never as success.
inline constexpr int kWorkerExitUnreaped = -2;

/// One worker process's outcome.
struct WorkerExit {
  int rank = 0;
  /// 0 on success; 128+signal if killed by a signal; kWorkerExitUnreaped
  /// until the launcher actually reaps the process.
  int exit_code = kWorkerExitUnreaped;
  /// 0-based order in which the launcher reaped this worker (-1 if never
  /// reaped): the order the launcher *noticed* exits, not the order they
  /// happened — waitpid hands back workers that exited together in spawn
  /// order.
  int reap_order = -1;
  /// True if the launcher SIGTERMed this worker (survivor teardown after
  /// another worker's bad exit) before reaping it.
  bool terminated_by_launcher = false;

  bool reaped() const { return reap_order >= 0; }
  bool failed() const { return exit_code != 0; }
};

/// Spawns `size` copies of `program`, appending
///   --cluster-rank=<r> --cluster-size=<size> --rendezvous=<dir>
///   --rendezvous-nonce=<fresh nonce>
/// to `common_args`, and reaps them all. Stale port files in `dir` are
/// scrubbed before spawning, and scrubbed again after a failed run, so a
/// crashed mesh never leaves port files a later run could dial. If any
/// worker fails, the survivors are SIGTERMed so a half-dead mesh cannot
/// hang the launcher past the workers' own rendezvous timeout (and are
/// marked terminated_by_launcher). Returns per-worker exits indexed by
/// rank; ranks the launcher could not reap keep the kWorkerExitUnreaped
/// sentinel.
std::vector<WorkerExit> launch_workers(
    const std::string& program, const std::vector<std::string>& common_args,
    int size, const std::string& rendezvous_dir);

/// True iff every worker was reaped and exited with status 0.
bool all_workers_succeeded(const std::vector<WorkerExit>& exits);

/// The worker to blame for a failed run: the earliest-reaped failure that
/// is not a *watcher*. A watcher exited with kWorkerExitPeerFailure, or
/// with 128+SIGTERM after the launcher SIGTERMed it; it only reacted to
/// another worker's failure, and under load it can be reaped before the
/// culprit. Next come unreaped workers (outcome unknown; lowest rank
/// first), then watchers in reap order. nullptr when the run succeeded.
const WorkerExit* first_failure(const std::vector<WorkerExit>& exits);

/// Human-readable cause for one worker's exit: "exited with code 40",
/// "killed by signal 15 (Terminated)", "observed a peer failure (exit
/// code 3)", "terminated by the launcher after another worker failed
/// (signal 15)", "was never reaped (outcome unknown)".
std::string describe_worker_exit(const WorkerExit& exit);

/// Path of the binary `name` living next to the currently running
/// executable (resolved via /proc/self/exe, falling back to argv0's
/// directory) — how tinge_cli finds tinge_worker without an install step.
std::string sibling_binary_path(const char* argv0, const std::string& name);

}  // namespace tinge::cluster
