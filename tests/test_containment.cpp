// Trial containment: the TrialRunner watchdog deadline (hung trials become
// quarantined timeout records instead of stalling workers) and the
// forked-worker isolation mode (crashing trials kill only their worker; the
// supervisor records the loss, respawns, and surviving records stay
// byte-identical to an in-process run at any worker count).
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "campaign_fixture.h"
#include "inject/cache.h"
#include "inject/campaign.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace tfsim {
namespace {

// Watchdog deadlines and simulated hangs below are calibrated for optimized
// builds. Sanitizer builds simulate trials 10-30x slower, so there both
// stretch by the same factor and still only the hung trial crosses the
// deadline.
constexpr int kTimeScale =
    std::string_view(TFI_SANITIZE_NAME) == "off" ? 1 : 20;
std::chrono::milliseconds Ms(int ms) {
  return std::chrono::milliseconds(ms * kTimeScale);
}

// `r`'s records without the quarantined trial `skip`.
std::vector<TrialRecord> Survivors(const CampaignResult& r, std::size_t skip) {
  std::vector<TrialRecord> out = r.trials;
  if (skip < out.size())
    out.erase(out.begin() + static_cast<std::ptrdiff_t>(skip));
  return out;
}

TEST(Watchdog, HungHookIsQuarantinedAsTimeout) {
  const CampaignSpec spec = SmallCampaign(6);
  const CampaignResult reference = RunCampaign(spec, QuietLive());

  for (int jobs : {1, 4}) {
    obs::MetricsRegistry metrics;
    CampaignOptions opt = QuietLive();
    opt.jobs = jobs;
    opt.trial_timeout_ms = Ms(50).count();
    opt.obs.sinks.metrics = &metrics;
    opt.trial_fault_hook = [](std::size_t i) {
      // Trial 2 wedges: the hook outlives the deadline; the in-loop check
      // fires on the first cycle batch after the hook returns.
      if (i == 2) std::this_thread::sleep_for(Ms(120));
    };
    const CampaignResult r = RunCampaign(spec, opt);

    ASSERT_EQ(r.trials.size(), 6u) << "jobs=" << jobs;
    EXPECT_EQ(r.trials[2].outcome, Outcome::kTrialError);
    ASSERT_EQ(r.quarantined.size(), 1u);
    EXPECT_EQ(r.quarantined[0].index, 2u);
    EXPECT_EQ(r.quarantined[0].reason, QuarantinedTrial::Reason::kTimeout);
    EXPECT_NE(r.quarantined[0].message.find("watchdog"), std::string::npos);
    EXPECT_EQ(metrics.GetCounter("campaign.trials.timeout").value(), 1u);
    // Surviving trials classified exactly as the clean run's.
    EXPECT_EQ(Survivors(r, 2), Survivors(reference, 2));
  }
}

TEST(Watchdog, RunnerReportsTimedOutWithoutRetrying) {
  const CampaignSpec spec = SmallCampaign(1);
  CampaignOptions opt = QuietLive();
  const CampaignResult warm = RunCampaign(spec, opt);
  ASSERT_EQ(warm.trials.size(), 1u);

  // Re-create the golden run and drive the runner directly.
  // (Cheapest route: a one-trial campaign with a hook that always stalls.)
  obs::MetricsRegistry metrics;
  CampaignOptions hung = QuietLive();
  hung.trial_timeout_ms = Ms(40).count();
  hung.obs.sinks.metrics = &metrics;
  int calls = 0;
  hung.trial_fault_hook = [&calls](std::size_t) {
    ++calls;
    std::this_thread::sleep_for(Ms(100));
  };
  const CampaignResult r = RunCampaign(spec, hung);
  // One attempt only: timeouts skip the retry loop (a deterministic hang
  // would hang every retry too).
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(r.quarantined.size(), 1u);
  EXPECT_EQ(r.quarantined[0].reason, QuarantinedTrial::Reason::kTimeout);
}

TEST(Watchdog, EnvOverrideArmsTheDeadline) {
  ::setenv("TFI_TRIAL_TIMEOUT", std::to_string(Ms(45).count()).c_str(), 1);
  const CampaignSpec spec = SmallCampaign(3);
  CampaignOptions opt = QuietLive();  // trial_timeout_ms left at 0
  opt.trial_fault_hook = [](std::size_t i) {
    if (i == 1) std::this_thread::sleep_for(Ms(110));
  };
  const CampaignResult r = RunCampaign(spec, opt);
  ::unsetenv("TFI_TRIAL_TIMEOUT");
  ASSERT_EQ(r.quarantined.size(), 1u);
  EXPECT_EQ(r.quarantined[0].index, 1u);
  EXPECT_EQ(r.quarantined[0].reason, QuarantinedTrial::Reason::kTimeout);
}

TEST(Isolate, CleanRunMatchesInProcessByteForByte) {
  const CampaignSpec spec = SmallCampaign(10);
  const CampaignResult reference = RunCampaign(spec, QuietLive());

  for (int jobs : {1, 4}) {
    CampaignOptions opt = QuietLive();
    opt.jobs = jobs;
    opt.isolate_trials = true;
    const CampaignResult r = RunCampaign(spec, opt);
    EXPECT_FALSE(r.interrupted) << "jobs=" << jobs;
    EXPECT_FALSE(r.containment_exhausted);
    EXPECT_EQ(r.worker_restarts, 0u);
    EXPECT_TRUE(r.quarantined.empty());
    EXPECT_EQ(r.trials, reference.trials);
  }
}

TEST(Isolate, CrashingTrialIsContainedAndRecorded) {
  const CampaignSpec spec = SmallCampaign(10);
  const CampaignResult reference = RunCampaign(spec, QuietLive());

  for (int jobs : {1, 4}) {
    obs::MetricsRegistry metrics;
    CampaignOptions opt = QuietLive();
    opt.jobs = jobs;
    opt.isolate_trials = true;
    opt.obs.sinks.metrics = &metrics;
    // The hook runs in the forked child: trial 4 takes its whole worker
    // down with a real SIGSEGV-class death.
    opt.trial_fault_hook = [](std::size_t i) {
      if (i == 4) std::raise(SIGKILL);
    };
    const CampaignResult r = RunCampaign(spec, opt);

    ASSERT_EQ(r.trials.size(), 10u) << "jobs=" << jobs;
    EXPECT_FALSE(r.interrupted);
    EXPECT_FALSE(r.containment_exhausted);
    EXPECT_EQ(r.trials[4].outcome, Outcome::kTrialError);
    ASSERT_EQ(r.quarantined.size(), 1u);
    EXPECT_EQ(r.quarantined[0].index, 4u);
    EXPECT_EQ(r.quarantined[0].reason, QuarantinedTrial::Reason::kCrash);
    EXPECT_NE(r.quarantined[0].message.find("signal"), std::string::npos);
    EXPECT_EQ(metrics.GetCounter("campaign.trials.crash").value(), 1u);
    if (jobs == 1) {
      // Serial: trials 5..9 were still owed when the worker died, so the
      // supervisor must have respawned exactly once. (At jobs=4 the other
      // workers may drain the queue before the death is even noticed, so
      // the respawn is scheduling-dependent.)
      EXPECT_EQ(r.worker_restarts, 1u);
      EXPECT_EQ(metrics.GetCounter("campaign.workers.restarts").value(), 1u);
    } else {
      EXPECT_LE(r.worker_restarts, 1u);
    }
    // Every surviving record byte-identical to the in-process clean run.
    EXPECT_EQ(Survivors(r, 4), Survivors(reference, 4));
  }
}

TEST(Isolate, ChildWatchdogConvertsHangsToTimeouts) {
  const CampaignSpec spec = SmallCampaign(8);
  const CampaignResult reference = RunCampaign(spec, QuietLive());

  CampaignOptions opt = QuietLive();
  opt.jobs = 2;
  opt.isolate_trials = true;
  // The slowest legitimate trial (a 4000-cycle Gray Area, ~16 ms on an idle
  // host) stays 20x under the deadline, so a loaded host cannot push it over;
  // the hang overshoots the deadline but stays under the parent's hard kill
  // (2 x deadline + 250 ms), so the child's own watchdog fires.
  opt.trial_timeout_ms = Ms(400).count();
  opt.trial_fault_hook = [](std::size_t i) {
    if (i == 3) std::this_thread::sleep_for(Ms(600));
  };
  const CampaignResult r = RunCampaign(spec, opt);

  ASSERT_EQ(r.trials.size(), 8u);
  ASSERT_EQ(r.quarantined.size(), 1u);
  EXPECT_EQ(r.quarantined[0].index, 3u);
  EXPECT_EQ(r.quarantined[0].reason, QuarantinedTrial::Reason::kTimeout);
  // The worker survived (the child's own watchdog fired, no kill needed).
  EXPECT_EQ(r.worker_restarts, 0u);
  EXPECT_EQ(Survivors(r, 3), Survivors(reference, 3));
}

TEST(Isolate, ExhaustedRestartBudgetQuarantinesTheRemainder) {
  ScopedCacheDir cache("tfi_isolate_budget");
  const CampaignSpec spec = SmallCampaign(10);

  CampaignOptions opt = QuietLive();
  opt.use_cache = true;  // prove the poisoned result is NOT cached
  opt.jobs = 1;
  opt.isolate_trials = true;
  opt.max_worker_restarts = 1;
  opt.checkpoint_every = 1;
  // Every trial from 2 on crashes its worker: crash at 2, respawn (budget
  // spent), crash at 3, budget exhausted -> 4..9 are synthesized holes.
  opt.trial_fault_hook = [](std::size_t i) {
    if (i >= 2) std::raise(SIGKILL);
  };
  const CampaignResult r = RunCampaign(spec, opt);

  ASSERT_EQ(r.trials.size(), 10u);
  EXPECT_TRUE(r.containment_exhausted);
  EXPECT_EQ(r.worker_restarts, 1u);
  ASSERT_EQ(r.quarantined.size(), 8u);  // 2 crashes + 6 budget holes
  EXPECT_EQ(r.quarantined[0].reason, QuarantinedTrial::Reason::kCrash);
  EXPECT_EQ(r.quarantined[1].reason, QuarantinedTrial::Reason::kCrash);
  for (std::size_t q = 2; q < r.quarantined.size(); ++q)
    EXPECT_EQ(r.quarantined[q].reason, QuarantinedTrial::Reason::kBudget);

  // The poisoned result must not enter the cache; the checkpoint journal
  // holds only trials that actually EXECUTED (0, 1, and the two recorded
  // crashes) — never the synthesized budget holes — so a re-run resumes
  // past them and finishes the job.
  EXPECT_FALSE(LoadCachedCampaign(spec).has_value());
  const auto ckpt = LoadCampaignCheckpoint(spec);
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_EQ(ckpt->size(), 4u);

  CampaignOptions clean = QuietLive();
  clean.use_cache = true;
  clean.checkpoint_every = 4;
  const CampaignResult healed = RunCampaign(spec, clean);
  EXPECT_FALSE(healed.containment_exhausted);
  ASSERT_EQ(healed.trials.size(), 10u);
  // The crash records persisted (indices 2 and 3, like any quarantine); the
  // budget holes did not — trials 4..9 executed for real this time.
  EXPECT_EQ(healed.quarantined.size(), 2u);
  for (std::size_t i = 4; i < 10; ++i)
    EXPECT_NE(healed.trials[i].outcome, Outcome::kTrialError) << i;
}

// Collects the journal's events; read only after RunCampaign flushed it.
class CollectSink : public obs::EventSink {
 public:
  void OnEvent(const obs::Event& e) override {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(e);
  }
  std::vector<obs::Event> Events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<obs::Event> events_;
};

// Runs `spec` with a journal attached and returns its events.
std::vector<obs::Event> JournaledRun(const CampaignSpec& spec,
                                     CampaignOptions opt) {
  obs::EventJournal journal;
  CollectSink collect;
  journal.AddSink(&collect);
  opt.obs.events = &journal;
  RunCampaign(spec, opt);
  journal.RemoveSink(&collect);
  return collect.Events();
}

// The kTrialDone events of a run, by trial index.
std::map<std::int64_t, obs::Event> TrialDoneByIndex(
    const std::vector<obs::Event>& events) {
  std::map<std::int64_t, obs::Event> done;
  for (const obs::Event& e : events)
    if (e.kind == obs::EventKind::kTrialDone) done.emplace(e.trial, e);
  return done;
}

TEST(Isolate, TrialDonePayloadMatchesInProcess) {
  const CampaignSpec spec = SmallCampaign(10);
  const auto reference = TrialDoneByIndex(JournaledRun(spec, QuietLive()));
  ASSERT_EQ(reference.size(), 10u);

  for (bool isolate : {false, true}) {
    for (int jobs : {1, 4}) {
      CampaignOptions opt = QuietLive();
      opt.jobs = jobs;
      opt.isolate_trials = isolate;
      const auto done = TrialDoneByIndex(JournaledRun(spec, opt));
      ASSERT_EQ(done.size(), reference.size())
          << "isolate=" << isolate << " jobs=" << jobs;
      for (const auto& [i, ref] : reference) {
        const obs::Event& e = done.at(i);
        SCOPED_TRACE("isolate=" + std::to_string(isolate) +
                     " jobs=" + std::to_string(jobs) +
                     " trial=" + std::to_string(i));
        EXPECT_EQ(e.outcome, ref.outcome);
        EXPECT_EQ(e.mode, ref.mode);
        EXPECT_EQ(e.cat, ref.cat);
        EXPECT_EQ(e.storage, ref.storage);
        EXPECT_EQ(e.cycles, ref.cycles);
        EXPECT_EQ(e.field, ref.field);
        EXPECT_EQ(e.field_bits, ref.field_bits);
      }
    }
  }
}

TEST(Isolate, CrashYieldsOneCrashAndOneTrialDone) {
  const CampaignSpec spec = SmallCampaign(10);
  for (int jobs : {1, 4}) {
    CampaignOptions opt = QuietLive();
    opt.jobs = jobs;
    opt.isolate_trials = true;
    opt.trial_fault_hook = [](std::size_t i) {
      if (i == 4) std::raise(SIGKILL);
    };
    int crashes = 0, done = 0;
    for (const obs::Event& e : JournaledRun(spec, opt)) {
      if (e.trial != 4) continue;
      if (e.kind == obs::EventKind::kTrialCrash) ++crashes;
      if (e.kind == obs::EventKind::kTrialDone) ++done;
    }
    EXPECT_EQ(crashes, 1) << "jobs=" << jobs;
    EXPECT_EQ(done, 1) << "jobs=" << jobs;
  }
}

TEST(Isolate, FallsBackInProcessWhenTracing) {
  // Tracing needs the trial core in-process; --isolate-trials must degrade
  // to normal execution, not silently drop traces.
  const CampaignSpec spec = SmallCampaign(4);
  CampaignOptions opt = QuietLive();
  opt.isolate_trials = true;
  opt.obs.collect_prop_traces = true;
  const CampaignResult r = RunCampaign(spec, opt);
  EXPECT_EQ(r.prop_traces.size(), 4u);
  EXPECT_FALSE(r.containment_exhausted);
}

}  // namespace
}  // namespace tfsim
