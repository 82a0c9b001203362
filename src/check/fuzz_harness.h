// Lockstep differential harness: runs a program on the detailed core in
// lockstep with the FunctionalSim oracle, with the per-cycle invariant
// checker enabled, and greedily shrinks failing generated cases by
// disabling program blocks (see progfuzz.h). The one core-vs-oracle loop:
// `tfi fuzz` runs it over generated programs, `tfi cosim` over the
// workload suite, and the differential test suites over fixed seeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/progfuzz.h"
#include "isa/assemble.h"
#include "uarch/config.h"
#include "uarch/core.h"

namespace tfsim::check {

struct FuzzRunOptions {
  std::uint64_t cycles = 15000;
  bool check_invariants = true;
  // Healthy programs retire continuously (generated ones end in a
  // self-retiring spin loop); this many retire-less cycles is a deadlock.
  std::uint64_t deadlock_cycles = 2000;
  // Core geometry under test (differential fuzzing sweeps shapes, not just
  // programs). check_invariants above wins over core.check_invariants.
  CoreConfig core;
};

struct FuzzCaseResult {
  bool ok = true;
  std::string failure;           // first mismatch/violation/deadlock report
  std::uint64_t retired = 0;     // retire events compared in lockstep
  std::uint64_t violations = 0;  // invariant violations observed
  CoreStats stats;               // the core's counters when the run stopped
};

// Runs `prog` on the core against the functional simulator for up to
// opt.cycles cycles, stopping early when the core exits, and failing on the
// first retire mismatch, invariant violation, pipeline exception, I-TLB
// miss, or retirement deadlock.
FuzzCaseResult RunLockstep(const Program& prog, const FuzzRunOptions& opt);

struct ShrinkResult {
  std::vector<bool> enabled;  // minimal failing block mask
  std::string source;         // shrunk assembly source
  std::string failure;        // failure report of the shrunk case
  int runs = 0;               // lockstep executions spent shrinking
};

// Greedy shrink to a fixpoint: repeatedly re-runs with each still-enabled
// block disabled, keeping every disable under which the case still fails.
ShrinkResult ShrinkFailure(const FuzzProgram& prog, const FuzzRunOptions& opt);

}  // namespace tfsim::check
