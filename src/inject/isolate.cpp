#include "inject/isolate.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/failpoint.h"

namespace tfsim {
namespace {

using Clock = std::chrono::steady_clock;

// Parent -> child: one 8-byte trial index per hand-off; the sentinel (or
// pipe EOF) shuts the worker down.
constexpr std::uint64_t kShutdown = ~std::uint64_t{0};

// Child -> parent: fixed header, then `payload_len` bytes holding the error
// message and each failed attempt's message, each as a 16-bit length and at
// most 4096 bytes. Parent and child are the same binary in the same address
// space family, so the struct layout is identical on both ends; memcpy in
// and out keeps the protocol alignment-safe.
struct WireFrame {
  std::uint64_t index = 0;
  std::uint64_t dur_us = 0;
  std::uint8_t outcome = 0;
  std::uint8_t mode = 0;
  std::uint8_t cat = 0;
  std::uint8_t storage = 0;
  std::uint32_t cycles = 0;
  std::uint32_t valid_instrs = 0;
  std::uint32_t inflight = 0;
  std::uint8_t quarantined = 0;
  std::uint8_t reason = 0;
  std::uint8_t failed_attempts = 0;
  std::uint32_t payload_len = 0;
};

void PutString(std::string& out, const std::string& s) {
  const auto len =
      static_cast<std::uint16_t>(std::min<std::size_t>(s.size(), 4096));
  out.append(reinterpret_cast<const char*>(&len), sizeof(len));
  out.append(s, 0, len);
}

std::string GetString(const char*& p) {
  std::uint16_t len = 0;
  std::memcpy(&len, p, sizeof(len));
  p += sizeof(len);
  std::string s(p, len);
  p += len;
  return s;
}

bool WriteFull(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t w = ::write(fd, p, len);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    len -= static_cast<std::size_t>(w);
  }
  return true;
}

bool ReadFull(int fd, void* data, std::size_t len) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t r = ::read(fd, p, len);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF
    p += r;
    len -= static_cast<std::size_t>(r);
  }
  return true;
}

// Worker child: one TrialRunner, no threads (the single discipline that
// makes fork from a multi-threaded parent safe — and keeps TSan quiet).
// Reads trial indices off `rfd`, writes result frames to `wfd`, exits on
// the shutdown sentinel or pipe EOF. A crash here is the point: it takes
// down only this process, and the supervisor harvests the wreckage.
[[noreturn]] void RunWorkerChild(int rfd, int wfd,
                                 const std::shared_ptr<const GoldenRun>& golden,
                                 const std::vector<TrialSpec>& specs,
                                 const TrialPolicy& policy,
                                 const CampaignOptions& opt) {
  // The parent owns interruption policy; a tty SIGINT reaches the whole
  // process group, and a worker dying to it would be recorded as a crash.
  std::signal(SIGINT, SIG_IGN);
  TrialRunner runner(golden, policy);
  std::size_t cur = 0;
  std::function<void()> before_attempt;
  if (opt.trial_fault_hook)
    before_attempt = [&] { opt.trial_fault_hook(cur); };
  std::string frame;
  for (;;) {
    std::uint64_t idx = 0;
    if (!ReadFull(rfd, &idx, sizeof(idx)) || idx == kShutdown) ::_exit(0);
    cur = static_cast<std::size_t>(idx);
    const TrialRunner::Result res =
        runner.Run(specs[cur], /*want_trace=*/false, before_attempt);
    WireFrame f;
    f.index = idx;
    f.dur_us = res.dur_us;
    f.outcome = static_cast<std::uint8_t>(res.record.outcome);
    f.mode = static_cast<std::uint8_t>(res.record.mode);
    f.cat = static_cast<std::uint8_t>(res.record.cat);
    f.storage = static_cast<std::uint8_t>(res.record.storage);
    f.cycles = res.record.cycles;
    f.valid_instrs = res.record.valid_instrs;
    f.inflight = res.record.inflight;
    f.quarantined = res.quarantined ? 1 : 0;
    f.reason = static_cast<std::uint8_t>(res.reason);
    f.failed_attempts = static_cast<std::uint8_t>(res.failed_attempts.size());
    frame.assign(sizeof(f), '\0');
    PutString(frame, res.error);
    for (const std::string& m : res.failed_attempts) PutString(frame, m);
    f.payload_len = static_cast<std::uint32_t>(frame.size() - sizeof(f));
    std::memcpy(frame.data(), &f, sizeof(f));
    if (!WriteFull(wfd, frame.data(), frame.size()))
      ::_exit(3);  // parent gone; nothing left to report to
  }
}

struct Worker {
  pid_t pid = -1;
  int to_fd = -1;    // parent writes trial indices
  int from_fd = -1;  // parent reads result frames
  bool alive = false;
  bool busy = false;
  bool killed = false;  // parent SIGKILLed it (hard deadline)
  std::size_t trial = 0;
  Clock::time_point started{};
  std::string buf;  // partially received frame bytes
};

const char* SignalName(int sig) {
  const char* s = strsignal(sig);
  return s ? s : "unknown signal";
}

// A quarantined stand-in whose record is the default-constructed
// kTrialError one — byte-identical to what TrialRunner::Run produces for an
// in-process quarantine, so isolated and in-process campaigns disagree on
// nothing but the diagnostics.
TrialRunner::Result Quarantined(QuarantineReason reason, std::string error) {
  TrialRunner::Result res;
  res.record.outcome = Outcome::kTrialError;
  res.quarantined = true;
  res.reason = reason;
  res.error = std::move(error);
  return res;
}

}  // namespace

IsolateReport RunTrialsIsolated(
    const std::shared_ptr<const GoldenRun>& golden,
    const std::vector<TrialSpec>& specs, std::size_t first, int jobs_wanted,
    const TrialPolicy& policy, const CampaignOptions& opt,
    const std::function<void(std::size_t index, int worker,
                             TrialRunner::Result&&)>& on_result) {
  IsolateReport report;
  const std::size_t total = specs.size();
  if (first >= total) return report;

  // A worker that dies mid-campaign leaves its pipe write-end open in every
  // *other* child (inherited at their forks), which would mask the EOF the
  // supervisor relies on — so children close every descriptor that is not
  // their own pair, and the supervisor re-derives the open set per spawn.
  const int jobs = std::max(
      1, std::min<int>(jobs_wanted, static_cast<int>(total - first)));
  std::vector<Worker> workers(static_cast<std::size_t>(jobs));

  // Writes to a worker that died race with the supervisor noticing; EPIPE
  // must be an errno, not a process-killing signal.
  using SigHandler = void (*)(int);
  SigHandler old_pipe = std::signal(SIGPIPE, SIG_IGN);

  // Parent-side hard deadline per trial: generously above the child's own
  // watchdog so it only fires when the child is too wedged to enforce it.
  const std::int64_t hard_ms =
      policy.timeout_ms > 0 ? policy.timeout_ms * 2 + 250 : 0;

  int restarts_left = std::max(opt.max_worker_restarts, 0);
  std::size_t next = first;
  std::vector<std::size_t> requeued;  // hand-offs that never reached a child
  bool exhausted = false;
  bool interrupted = false;

  auto spawn = [&](std::size_t slot) -> bool {
    int to[2] = {-1, -1}, from[2] = {-1, -1};
    if (::pipe(to) != 0) return false;
    if (::pipe(from) != 0) {
      ::close(to[0]);
      ::close(to[1]);
      return false;
    }
    // The failpoint registry mutex must not be mid-acquisition across the
    // fork (children evaluate trial-scoped failpoints); these hooks pin it.
    fail::detail::PrepareFork();
    const pid_t pid = ::fork();
    if (pid == 0) {
      fail::detail::ChildAfterFork();
      for (std::size_t s = 0; s < workers.size(); ++s) {
        if (workers[s].to_fd >= 0) ::close(workers[s].to_fd);
        if (workers[s].from_fd >= 0) ::close(workers[s].from_fd);
      }
      ::close(to[1]);
      ::close(from[0]);
      RunWorkerChild(to[0], from[1], golden, specs, policy, opt);
    }
    fail::detail::ParentAfterFork();
    ::close(to[0]);
    ::close(from[1]);
    if (pid < 0) {
      ::close(to[1]);
      ::close(from[0]);
      return false;
    }
    Worker& w = workers[slot];
    w.pid = pid;
    w.to_fd = to[1];
    w.from_fd = from[0];
    w.alive = true;
    w.busy = false;
    w.killed = false;
    w.buf.clear();
    return true;
  };

  // Reaps a dead worker: harvest the exit status, synthesize the quarantined
  // result for any trial it held, and decide whether the restart budget
  // covers a replacement.
  auto reap = [&](std::size_t slot) {
    Worker& w = workers[slot];
    ::close(w.to_fd);
    ::close(w.from_fd);
    w.to_fd = w.from_fd = -1;
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.alive = false;
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (w.busy) {
      const std::string who = "worker " + std::to_string(slot);
      TrialRunner::Result res;
      if (w.killed) {
        res = Quarantined(QuarantineReason::kTimeout,
                          who + " hard-killed after " +
                              std::to_string(hard_ms) +
                              "ms (trial unresponsive)");
        res.status = SIGKILL;
      } else if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        res = Quarantined(QuarantineReason::kCrash,
                          who + " killed by signal " + std::to_string(sig) +
                              " (" + SignalName(sig) + ")");
        res.status = static_cast<std::uint64_t>(sig);
      } else {
        res = Quarantined(QuarantineReason::kCrash,
                          who + " exited with status " +
                              std::to_string(WEXITSTATUS(status)));
        res.status = static_cast<std::uint64_t>(WEXITSTATUS(status));
      }
      res.dur_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                w.started)
              .count());
      if (opt.verbose)
        std::fprintf(stderr, "[isolate] trial %zu lost: %s\n", w.trial,
                     res.error.c_str());
      w.busy = false;
      on_result(w.trial, static_cast<int>(slot), std::move(res));
    } else if (!clean && opt.verbose) {
      std::fprintf(stderr, "[isolate] idle worker %zu died (status %d)\n",
                   slot, status);
    }
    const bool work_remains =
        !interrupted && !exhausted &&
        (next < total || !requeued.empty());
    // An idle worker exiting cleanly is shutdown, not a failure.
    if (clean && !w.killed && !work_remains) return;
    if (!work_remains) return;
    if (restarts_left <= 0) {
      exhausted = true;
      if (opt.verbose)
        std::fprintf(stderr,
                     "[isolate] restart budget exhausted; quarantining the "
                     "remaining trials\n");
      return;
    }
    --restarts_left;
    ++report.restarts;
    if (!spawn(slot)) exhausted = true;
  };

  // Drains complete frames out of a worker's receive buffer.
  auto drain_frames = [&](std::size_t slot) {
    Worker& w = workers[slot];
    for (;;) {
      if (w.buf.size() < sizeof(WireFrame)) return;
      WireFrame f;
      std::memcpy(&f, w.buf.data(), sizeof(f));
      const std::size_t len = sizeof(f) + f.payload_len;
      if (w.buf.size() < len) return;
      TrialRunner::Result res;
      res.record.outcome = static_cast<Outcome>(f.outcome);
      res.record.mode = static_cast<FailureMode>(f.mode);
      res.record.cat = static_cast<StateCat>(f.cat);
      res.record.storage = static_cast<Storage>(f.storage);
      res.record.cycles = f.cycles;
      res.record.valid_instrs = f.valid_instrs;
      res.record.inflight = f.inflight;
      res.quarantined = f.quarantined != 0;
      res.reason = static_cast<QuarantineReason>(f.reason);
      res.dur_us = f.dur_us;
      const char* p = w.buf.data() + sizeof(f);
      res.error = GetString(p);
      for (int k = 0; k < f.failed_attempts; ++k)
        res.failed_attempts.push_back(GetString(p));
      w.buf.erase(0, len);
      w.busy = false;
      on_result(static_cast<std::size_t>(f.index), static_cast<int>(slot),
                std::move(res));
    }
  };

  for (int s = 0; s < jobs; ++s) {
    if (!spawn(static_cast<std::size_t>(s))) {
      // Could not even field the initial crew: contain what we can with the
      // workers that did start; with none, every trial is a budget hole.
      if (s == 0) exhausted = true;
      break;
    }
  }

  for (;;) {
    if (opt.cancel && opt.cancel->cancelled()) interrupted = true;

    // Hand out work to idle workers.
    if (!exhausted && !interrupted) {
      for (std::size_t s = 0; s < workers.size(); ++s) {
        Worker& w = workers[s];
        if (!w.alive || w.busy) continue;
        std::size_t idx;
        if (!requeued.empty()) {
          idx = requeued.back();
          requeued.pop_back();
        } else if (next < total) {
          idx = next++;
        } else {
          break;
        }
        const std::uint64_t wire = idx;
        if (!WriteFull(w.to_fd, &wire, sizeof(wire))) {
          // The child died between trials; the hand-off never landed, so the
          // trial goes back in the queue and the death is handled as usual.
          requeued.push_back(idx);
          reap(s);
          continue;
        }
        w.busy = true;
        w.trial = idx;
        w.started = Clock::now();
      }
    }

    bool any_busy = false;
    for (const Worker& w : workers) any_busy |= w.alive && w.busy;
    const bool work_remains =
        !exhausted && !interrupted && (next < total || !requeued.empty());
    if (!any_busy && !work_remains) break;

    // Wait for frames (or deaths: EOF) on every live worker's pipe.
    std::vector<pollfd> fds;
    std::vector<std::size_t> slots;
    for (std::size_t s = 0; s < workers.size(); ++s) {
      if (!workers[s].alive) continue;
      fds.push_back({workers[s].from_fd, POLLIN, 0});
      slots.push_back(s);
    }
    if (fds.empty()) {
      // Workers all gone but trials owed: reap() marked exhaustion (or a
      // spawn failed); the synthesis pass below settles the books.
      if (work_remains) exhausted = true;
      if (!work_remains && !any_busy) break;
      if (exhausted) break;
      continue;
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 20);

    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const std::size_t s = slots[k];
      char chunk[4096];
      const ssize_t r = ::read(workers[s].from_fd, chunk, sizeof(chunk));
      if (r > 0) {
        workers[s].buf.append(chunk, static_cast<std::size_t>(r));
        drain_frames(s);
      } else if (r == 0 || (r < 0 && errno != EINTR && errno != EAGAIN)) {
        reap(s);
      }
    }

    // Hard deadline: a child too wedged to run its own watchdog (or stuck
    // before reaching a check) gets SIGKILLed; reap() then records the
    // timeout when the pipe EOF arrives.
    if (hard_ms > 0) {
      const auto now = Clock::now();
      for (Worker& w : workers) {
        if (!w.alive || !w.busy || w.killed) continue;
        const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                                now - w.started)
                                .count();
        if (waited > hard_ms) {
          w.killed = true;
          ::kill(w.pid, SIGKILL);
        }
      }
    }
  }

  // Containment exhausted: every un-run trial still gets exactly one result
  // — an explicit budget hole, clearly distinct from machine behaviour.
  if (exhausted) {
    report.exhausted = true;
    std::vector<std::size_t> leftovers = std::move(requeued);
    for (std::size_t i = next; i < total; ++i) leftovers.push_back(i);
    for (std::size_t idx : leftovers)
      on_result(idx, 0,
                Quarantined(QuarantineReason::kBudget,
                            "not executed: worker restart budget exhausted"));
  }

  // Shutdown: closing the command pipe EOFs every child's next read.
  for (std::size_t s = 0; s < workers.size(); ++s) {
    Worker& w = workers[s];
    if (!w.alive) continue;
    const std::uint64_t bye = kShutdown;
    WriteFull(w.to_fd, &bye, sizeof(bye));  // best-effort; EOF also works
    ::close(w.to_fd);
    ::close(w.from_fd);
    w.to_fd = w.from_fd = -1;
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.alive = false;
  }

  std::signal(SIGPIPE, old_pipe);
  return report;
}

}  // namespace tfsim
