// Child processes: spawn, wait (with peak memory), and launch-to-ready
// timing for the setup_s metric.
#pragma once
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <string>
#include <vector>

namespace transbench {

/// Spawn argv[0] with stdout on `stdout_fd` (-1 = /dev/null), stdin and
/// stderr on /dev/null. The child gets SIGKILL when this process dies, so no
/// server outlives an interrupted run. Returns the pid, or -1.
inline pid_t spawn(const std::vector<std::string>& argv, int stdout_fd = -1) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid != 0) return pid; // parent (or -1 on failure)
  // Child: only async-signal-safe calls until exec.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) _exit(127); // parent already gone
  const int null_fd = open("/dev/null", O_RDWR);
  if (null_fd < 0) _exit(127);
  dup2(null_fd, STDIN_FILENO);
  dup2(stdout_fd >= 0 ? stdout_fd : null_fd, STDOUT_FILENO);
  dup2(null_fd, STDERR_FILENO);
  execv(args[0], args.data());
  _exit(127);
}

/// Wait for `pid`; returns its exit status (-1 on abnormal exit) and its
/// peak resident set in MiB through `peak_rss_mb`.
inline int wait_child(pid_t pid, double* peak_rss_mb = nullptr) {
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) return -1;
  }
  if (peak_rss_mb != nullptr)
    *peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Kill and reap `pid` if it is set; clears it so it is never signalled
/// twice (the number may be reused once reaped).
inline void kill_and_wait(pid_t& pid) {
  if (pid <= 0) return;
  kill(pid, SIGKILL);
  wait_child(pid);
  pid = -1;
}

inline double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace transbench
