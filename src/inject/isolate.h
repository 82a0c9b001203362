// Crash containment for fault-injection trials: execute trials in forked
// worker subprocesses under a single-threaded parent supervisor, so a trial
// that segfaults (or wedges past every in-process watchdog) kills only its
// worker. The supervisor harvests the exit status, synthesizes a quarantined
// record for the trial that was in flight, respawns the worker within a
// bounded restart budget, and keeps the campaign running.
//
// Why fork: each worker inherits the (immutable, already-recorded) golden
// run and the pre-generated TrialSpecs by copy-on-write — no serialization
// of the multi-megabyte timeline, and byte-identical TrialRunner behaviour
// to in-process execution. Children run exactly one TrialRunner and spawn no
// threads (fork from a multi-threaded parent is safe only on that
// discipline; it also keeps TSan happy). Trial results return over a pipe as
// framed TrialRunner::Results and reach the same completion routine as an
// in-process worker's, so surviving records and their telemetry are
// byte-identical to an in-process run at any worker count.
//
// This is the substrate of RunCampaign's --isolate-trials mode.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "inject/campaign.h"
#include "inject/golden.h"
#include "inject/trial.h"

namespace tfsim {

struct IsolateReport {
  bool exhausted = false;       // restart budget ran out mid-campaign
  std::uint64_t restarts = 0;   // workers respawned
};

// Runs specs[first..size) in `jobs` forked workers, each a TrialRunner under
// `policy` that calls opt.trial_fault_hook (in the child) before every
// attempt. Every index in [first, size) reaches `on_result` exactly once, in
// completion order, from the calling thread (never concurrently), with the
// slot of the worker that ran it: the child's Result as it crossed the
// pipe, or a quarantined stand-in for a worker that died (kCrash), was
// hard-killed (kTimeout) or never ran it (kBudget). policy.timeout_ms is
// doubly enforced: the child's own watchdog converts in-loop hangs into
// clean timeouts, and the parent SIGKILLs any worker silent for
// 2*timeout_ms + 250ms. Dead workers are respawned up to
// opt.max_worker_restarts times; opt.cancel stops new hand-outs.
IsolateReport RunTrialsIsolated(
    const std::shared_ptr<const GoldenRun>& golden,
    const std::vector<TrialSpec>& specs, std::size_t first, int jobs,
    const TrialPolicy& policy, const CampaignOptions& opt,
    const std::function<void(std::size_t index, int worker,
                             TrialRunner::Result&&)>& on_result);

}  // namespace tfsim
