#include "cluster/launcher.h"

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <stdexcept>
#include <utility>

#include "util/str.h"

namespace tinge::cluster {

std::string make_rendezvous_dir() {
  const char* tmpdir = std::getenv("TMPDIR");
  if (tmpdir == nullptr || tmpdir[0] == '\0') tmpdir = "/tmp";
  std::string pattern = strprintf("%s/tingex-rdv-XXXXXX", tmpdir);
  if (::mkdtemp(pattern.data()) == nullptr)
    throw std::runtime_error(strprintf("mkdtemp(%s): %s", pattern.c_str(),
                                       std::strerror(errno)));
  return pattern;
}

void remove_rendezvous_dir(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle != nullptr) {
    while (const dirent* entry = ::readdir(handle)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(handle);
  }
  ::rmdir(dir.c_str());
}

namespace {

bool ends_with(const std::string& value, const std::string& suffix) {
  return value.size() >= suffix.size() &&
         value.compare(value.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

}  // namespace

void scrub_port_files(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return;
  while (const dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (ends_with(name, ".port") || ends_with(name, ".port.tmp"))
      ::unlink((dir + "/" + name).c_str());
  }
  ::closedir(handle);
}

std::uint64_t make_run_nonce() {
  std::random_device device;
  std::uint64_t nonce = (static_cast<std::uint64_t>(device()) << 32) ^
                        static_cast<std::uint64_t>(device());
  nonce ^= static_cast<std::uint64_t>(::getpid()) << 48;
  nonce ^= static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  // Keep it in the positive signed-64 range: the nonce rides through a
  // command-line flag parsed with a signed integer parser.
  nonce &= (std::uint64_t(1) << 63) - 1;
  // 0 means "accept any port file" to the transport, so a nonce must never
  // be 0 — that would disable exactly the check it exists to arm.
  return nonce != 0 ? nonce : 1;
}

std::vector<WorkerExit> launch_workers(
    const std::string& program, const std::vector<std::string>& common_args,
    int size, const std::string& rendezvous_dir) {
  std::vector<pid_t> pids(static_cast<std::size_t>(size), -1);
  std::vector<WorkerExit> exits(static_cast<std::size_t>(size));

  // A reused rendezvous directory may still hold port files from a mesh
  // that crashed before cleaning up; this run's workers must never read
  // them. The nonce stamp is the second line of defense (a concurrently
  // crashed run could re-litter after this scrub).
  scrub_port_files(rendezvous_dir);
  const std::uint64_t nonce = make_run_nonce();

  for (int rank = 0; rank < size; ++rank) {
    std::vector<std::string> args;
    args.push_back(program);
    args.insert(args.end(), common_args.begin(), common_args.end());
    args.push_back(strprintf("--cluster-rank=%d", rank));
    args.push_back(strprintf("--cluster-size=%d", size));
    args.push_back("--rendezvous=" + rendezvous_dir);
    args.push_back(strprintf("--rendezvous-nonce=%llu",
                             static_cast<unsigned long long>(nonce)));

    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
      // Could not spawn the full mesh: tear down what we started and fail.
      for (int started = 0; started < rank; ++started)
        ::kill(pids[static_cast<std::size_t>(started)], SIGTERM);
      for (int started = 0; started < rank; ++started)
        ::waitpid(pids[static_cast<std::size_t>(started)], nullptr, 0);
      throw std::runtime_error(
          strprintf("fork failed for worker rank %d: %s", rank,
                    std::strerror(errno)));
    }
    if (pid == 0) {
      ::execv(program.c_str(), argv.data());
      std::fprintf(stderr, "exec %s: %s\n", program.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    pids[static_cast<std::size_t>(rank)] = pid;
    exits[static_cast<std::size_t>(rank)].rank = rank;
  }

  // Reap whichever worker exits next so one crashed worker fails the run
  // promptly instead of after the survivors' rendezvous/recv timeouts
  // (workers that exited together come back in spawn order, so
  // reap_order is not exit order). Every exits[] entry starts at the
  // kWorkerExitUnreaped sentinel: if waitpid fails outright (ECHILD —
  // something else reaped our children), the unreaped ranks must report
  // as failures, not as default successes.
  const auto terminate_unreaped = [&](int except_rank) {
    for (int r = 0; r < size; ++r) {
      WorkerExit& survivor = exits[static_cast<std::size_t>(r)];
      const pid_t pid = pids[static_cast<std::size_t>(r)];
      // A reaped worker's pid may already belong to another process.
      if (r == except_rank || survivor.reaped() || pid <= 0) continue;
      survivor.terminated_by_launcher = true;
      ::kill(pid, SIGTERM);
    }
  };
  int remaining = size;
  int reap_counter = 0;
  bool terminated_survivors = false;
  while (remaining > 0) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, 0);
    if (pid < 0) {
      if (errno == EINTR) continue;
      break;  // ECHILD: nothing left to reap; sentinels mark the rest
    }
    int rank = -1;
    for (int r = 0; r < size; ++r)
      if (pids[static_cast<std::size_t>(r)] == pid) rank = r;
    if (rank < 0) continue;  // not one of ours (caller had other children)
    --remaining;
    WorkerExit& exit = exits[static_cast<std::size_t>(rank)];
    exit.reap_order = reap_counter++;
    if (WIFEXITED(status))
      exit.exit_code = WEXITSTATUS(status);
    else if (WIFSIGNALED(status))
      exit.exit_code = 128 + WTERMSIG(status);
    else
      exit.exit_code = -1;
    if (exit.exit_code != 0 && !terminated_survivors) {
      terminated_survivors = true;
      terminate_unreaped(rank);
    }
  }
  // waitpid gave up with workers outstanding: best-effort teardown so an
  // unreapable (but possibly live) mesh does not outlive the launcher.
  if (remaining > 0) terminate_unreaped(-1);
  // Abnormal exit: workers killed mid-rendezvous had no chance to tidy up,
  // and their published ports are now dead. Scrub so a later run against
  // the same directory starts clean even without the nonce check.
  if (!all_workers_succeeded(exits)) scrub_port_files(rendezvous_dir);
  return exits;
}

bool all_workers_succeeded(const std::vector<WorkerExit>& exits) {
  for (const WorkerExit& exit : exits)
    if (exit.exit_code != 0) return false;
  return !exits.empty();
}

namespace {

bool terminated_by_launcher_signal(const WorkerExit& exit) {
  return exit.terminated_by_launcher && exit.exit_code == 128 + SIGTERM;
}

/// How little an exit implicates its worker: 0 = failed on its own,
/// 1 = outcome unknown (never reaped), 2 = a watcher of another's failure.
int blame_tier(const WorkerExit& exit) {
  if (!exit.reaped()) return 1;
  const bool watcher = exit.exit_code == kWorkerExitPeerFailure ||
                       terminated_by_launcher_signal(exit);
  return watcher ? 2 : 0;
}

}  // namespace

const WorkerExit* first_failure(const std::vector<WorkerExit>& exits) {
  // Within a tier the earliest reap wins; unreaped workers all carry
  // reap_order -1, so the strict comparison keeps the lowest rank.
  const WorkerExit* first = nullptr;
  for (const WorkerExit& exit : exits) {
    if (!exit.failed()) continue;
    if (first == nullptr ||
        std::pair(blame_tier(exit), exit.reap_order) <
            std::pair(blame_tier(*first), first->reap_order))
      first = &exit;
  }
  return first;
}

std::string describe_worker_exit(const WorkerExit& exit) {
  if (!exit.reaped())
    return "was never reaped (outcome unknown; treated as failed)";
  if (exit.exit_code == 0) return "exited cleanly";
  if (exit.exit_code == kWorkerExitPeerFailure)
    return strprintf("observed a peer failure (exit code %d)",
                     kWorkerExitPeerFailure);
  if (terminated_by_launcher_signal(exit))
    return strprintf(
        "terminated by the launcher after another worker failed (signal %d)",
        SIGTERM);
  if (exit.exit_code == 127) return "could not exec the worker binary (127)";
  if (exit.exit_code > 128)
    return strprintf("killed by signal %d (%s)", exit.exit_code - 128,
                     strsignal(exit.exit_code - 128));
  return strprintf("exited with code %d", exit.exit_code);
}

std::string sibling_binary_path(const char* argv0, const std::string& name) {
  char self[4096];
  const ssize_t len = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  std::string dir;
  // readlink does not NUL-terminate and silently truncates at the buffer
  // size; a full buffer means the path *may* be cut short, so fall back to
  // argv0 rather than exec a mangled prefix.
  if (len > 0 && len < static_cast<ssize_t>(sizeof(self) - 1)) {
    self[len] = '\0';
    dir = self;
  } else if (argv0 != nullptr) {
    dir = argv0;
  }
  const std::size_t slash = dir.rfind('/');
  dir = (slash == std::string::npos) ? "." : dir.substr(0, slash);
  return dir + "/" + name;
}

}  // namespace tinge::cluster
