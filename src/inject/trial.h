// Single fault-injection trial: restore the machine at the injection cycle,
// flip one bit, then co-compare against the golden timeline for up to the
// observation window, classifying the paper's four outcomes and seven
// failure modes.
//
// Trials execute through TrialRunner, which owns its core replica and an
// explicit TrialPolicy. With the fast path enabled (the default) and a
// golden run recorded with a FastPathPlan, a trial starts *at* its injection
// cycle from a pre-captured delta snapshot instead of replaying `offset`
// cycles from a checkpoint — and most trials never simulate at all: the
// recorder's first-access data proves a flipped word was either overwritten
// at a known cycle (μArch Match, exact re-convergence latency) or never
// touched inside the window (Gray Area). Only trials whose flipped word is
// *read* while divergent execute the differential loop. Fast and slow paths
// produce byte-identical TrialRecords and propagation traces.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "inject/golden.h"
#include "inject/outcome.h"
#include "obs/prop_trace.h"
#include "uarch/core.h"

namespace tfsim {

struct TrialSpec {
  int checkpoint = 0;            // start point
  std::uint64_t offset = 0;      // cycles from the checkpoint to injection
  std::uint64_t bit_index = 0;   // uniform index into the eligible bit space
  bool include_ram = true;       // latches+RAMs (true) or latches only
  // Extension beyond the paper (whose Section 6 flags the single-bit model
  // as a threat to validity): flip `flips` bits per trial. When `adjacent`,
  // the extra flips hit neighbouring bits of the same element (a spatially
  // correlated strike); otherwise they land uniformly at random.
  int flips = 1;
  bool adjacent = false;
};

// Execution attempts per trial: a throwing attempt is retried once, which
// absorbs transient host-level failures (resource exhaustion) without
// masking deterministic trial bugs. Timeouts are never retried.
inline constexpr int kTrialAttempts = 2;

// How TrialRunner executes trials. Execution policy only: every combination
// classifies a given TrialSpec identically.
struct TrialPolicy {
  bool fast_path = true;        // use fast-path data when the golden has it
  bool check_invariants = false;  // run the replica with the cycle checker
  // Watchdog deadline per execution attempt, in wall milliseconds; 0 = off.
  // A fault-corrupted machine that wedges the simulation loop (or a hook
  // that stalls) is converted into a TrialTimeoutError — quarantined as a
  // Trial Error with a distinct timeout reason, never retried (a
  // deterministic hang would hang every retry too). The deadline is checked
  // at attempt start and every 256 simulated cycles, so enforcement
  // granularity is a few hundred cycles, not instructions.
  std::int64_t timeout_ms = 0;
};

// Why a trial's record is the kTrialError stand-in.
enum class QuarantineReason : std::uint8_t {
  kException,  // execution threw on every attempt or violated an invariant
  kTimeout,    // watchdog deadline (TrialPolicy::timeout_ms)
  kCrash,      // isolated worker died (signal / nonzero exit)
  kBudget,     // never ran: isolation restart budget exhausted
};

// Thrown by the trial runner when an attempt exceeds TrialPolicy::timeout_ms.
// Distinct from other trial failures so hosts can report kTrialTimeout
// instead of a generic quarantine (and skip pointless retries).
struct TrialTimeoutError : std::runtime_error {
  explicit TrialTimeoutError(const std::string& what)
      : std::runtime_error(what) {}
};

// Where a TrialSpec lands: the resolved timeline cycles and flipped bits.
// The single source of truth shared by trial execution, fast-path capture
// planning, and heatmap site re-derivation (inject/report.cpp), so the three
// can never drift.
struct InjectionSite {
  std::uint64_t base = 0;       // checkpoint cycle (timeline index)
  std::uint64_t inj_cycle = 0;  // first cycle executed after injection
  // Timeline index whose recorded state the injected machine was in
  // (utilization sampling; equals inj_cycle - 1 except at offset 0).
  std::uint64_t inj_index = 0;
  BitLocation primary;              // the uniformly drawn bit
  std::vector<BitLocation> flips;   // all flips in application order
};

// Resolves a trial's injection site against a registry of the golden
// machine's layout (any core built from the same config and program).
InjectionSite ResolveInjectionSite(const GoldenSpec& spec,
                                   const TrialSpec& trial,
                                   const StateRegistry& registry);
inline InjectionSite ResolveInjectionSite(const GoldenRun& golden,
                                          const TrialSpec& trial,
                                          const StateRegistry& registry) {
  return ResolveInjectionSite(golden.spec, trial, registry);
}

// Derives the golden recorder's fast-path capture plan (injection-cycle
// snapshots + first-access watches) from a campaign's trial specs.
FastPathPlan PlanFastPath(const GoldenSpec& spec,
                          const std::vector<TrialSpec>& trials,
                          const StateRegistry& registry);

// Runs fault-injection trials against one golden run on a privately owned
// core replica (campaign workers hold one runner each; the golden run is
// shared read-only). Classification depends only on the golden run, the
// TrialSpec, and the golden run's window — never on fast_path, retries, or
// how many trials ran before.
class TrialRunner {
 public:
  explicit TrialRunner(std::shared_ptr<const GoldenRun> golden,
                       TrialPolicy policy = {});

  // One finished trial, as a campaign's completion routine consumes it from
  // an in-process worker or over an isolated worker's pipe.
  struct Result {
    TrialRecord record;
    // Populated when Run() was asked to trace; identical to a slow traced
    // trial's on every path.
    obs::PropagationTrace trace;
    bool fast = false;        // classified from first-access data, no sim
    bool quarantined = false; // record is the kTrialError stand-in
    QuarantineReason reason = QuarantineReason::kException;  // if quarantined
    std::string error;        // last failure message when quarantined
    // Messages of the attempts that threw, in attempt order (a quarantined
    // exception holds kTrialAttempts of them, the last equal to `error`).
    std::vector<std::string> failed_attempts;
    std::uint64_t status = 0;  // kCrash: the signal number or exit status
    std::uint64_t dur_us = 0;  // wall time of all attempts together
  };

  // Runs one trial: up to kTrialAttempts attempts, then quarantine.
  // `before_attempt`, when set, runs before each attempt; a throw takes the
  // same retry/quarantine path as a throwing trial. Under check_invariants,
  // a structurally inconsistent machine also quarantines (the violating
  // attempt's trace is kept; the checker state stays readable via core()
  // until the next Run).
  Result Run(const TrialSpec& spec, bool want_trace = false,
             const std::function<void()>& before_attempt = nullptr);

  // The owned replica: registry layout for site introspection, and the
  // invariant checker's verdicts after a checked Run(). Mutated by Run().
  Core& core() { return *core_; }
  const Core& core() const { return *core_; }

  // The observation window Run() classifies against.
  std::uint64_t window() const { return golden_->spec.window; }

 private:
  // Watchdog: armed per attempt; CheckDeadline throws TrialTimeoutError once
  // the attempt has outlived policy_.timeout_ms.
  void ArmDeadline();
  void CheckDeadline() const;

  TrialRecord RunOnce(const TrialSpec& spec, obs::PropagationTrace* trace,
                      bool* fast);
  TrialRecord Simulate(const TrialSpec& spec, const InjectionSite& site,
                       obs::PropagationTrace* trace);
  bool TryShortcut(const TrialSpec& spec, const InjectionSite& site,
                   TrialRecord& rec, obs::PropagationTrace* trace);

  std::shared_ptr<const GoldenRun> golden_;
  TrialPolicy policy_;
  std::unique_ptr<Core> core_;
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace tfsim
