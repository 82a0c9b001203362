// Trial fast path: word-first-access tracking, the dormancy shortcut, and
// the inject-point snapshot restore. The load-bearing property throughout is
// byte-identity with the slow path — the fast path is pure execution policy.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign_fixture.h"
#include "inject/cache.h"
#include "inject/campaign.h"
#include "inject/report.h"
#include "inject/trial.h"
#include "obs/metrics.h"
#include "obs/prop_trace.h"
#include "state/state_registry.h"
#include "uarch/core.h"
#include "util/cancel.h"
#include "workloads/workloads.h"

namespace tfsim {
namespace {

// ---------------------------------------------------------------------------
// WordFirstAccessTracker
// ---------------------------------------------------------------------------

TEST(WordFirstAccessTracker, ReportsEarliestAccessAtOrAfterWatchCycle) {
  WordFirstAccessTracker t(8);
  t.Watch(3, 10);
  t.Seal();
  t.SetCycle(8);
  t.OnAccess(3, /*is_write=*/true);  // before the watch window: ignored
  EXPECT_FALSE(t.Done());
  t.SetCycle(12);
  t.OnAccess(3, /*is_write=*/false);
  EXPECT_TRUE(t.Done());
  t.SetCycle(13);
  t.OnAccess(3, /*is_write=*/true);  // later accesses must not overwrite
  const auto fa = t.Lookup(3, 10);
  EXPECT_EQ(fa.cycle, 12);
  EXPECT_FALSE(fa.is_write);
}

TEST(WordFirstAccessTracker, LaterWatchOnSameWordResolvesIndependently) {
  WordFirstAccessTracker t(8);
  t.Watch(5, 4);
  t.Watch(5, 9);
  t.Seal();
  t.SetCycle(6);
  t.OnAccess(5, /*is_write=*/true);
  t.SetCycle(11);
  t.OnAccess(5, /*is_write=*/false);
  const auto a = t.Lookup(5, 4);
  EXPECT_EQ(a.cycle, 6);
  EXPECT_TRUE(a.is_write);
  const auto b = t.Lookup(5, 9);
  EXPECT_EQ(b.cycle, 11);
  EXPECT_FALSE(b.is_write);
}

TEST(WordFirstAccessTracker, OneAccessResolvesEveryPendingEarlierWatch) {
  WordFirstAccessTracker t(4);
  t.Watch(2, 3);
  t.Watch(2, 7);
  t.Seal();
  t.SetCycle(9);
  t.OnAccess(2, /*is_write=*/true);
  EXPECT_EQ(t.Lookup(2, 3).cycle, 9);
  EXPECT_EQ(t.Lookup(2, 7).cycle, 9);
  EXPECT_TRUE(t.Done());
}

TEST(WordFirstAccessTracker, DuplicatePairsCollapse) {
  WordFirstAccessTracker t(4);
  t.Watch(2, 7);
  t.Watch(2, 7);
  t.Seal();
  EXPECT_FALSE(t.Done());
  t.SetCycle(7);
  t.OnAccess(2, /*is_write=*/true);
  EXPECT_TRUE(t.Done());  // one access retires the collapsed pair
}

TEST(WordFirstAccessTracker, WatchedDistinguishesNoDataFromNoAccess) {
  WordFirstAccessTracker t(4);
  t.Watch(1, 5);
  t.Seal();
  // Never accessed: a provable "latent" verdict...
  EXPECT_TRUE(t.Watched(1, 5));
  EXPECT_EQ(t.Lookup(1, 5).cycle, -1);
  // ...which Lookup alone cannot distinguish from "never watched".
  EXPECT_FALSE(t.Watched(1, 6));
  EXPECT_FALSE(t.Watched(0, 5));
  EXPECT_EQ(t.Lookup(0, 5).cycle, -1);
}

TEST(WordFirstAccessTracker, RejectsLateWatchAndBadWord) {
  WordFirstAccessTracker t(4);
  EXPECT_THROW(t.Watch(4, 0), std::out_of_range);
  t.Seal();
  EXPECT_THROW(t.Watch(0, 0), std::logic_error);
}

// A value-preserving Set must still count as a write: the golden machine
// overwrote the word, so an injected bit there is gone from that cycle on.
TEST(StateRegistryTracking, ValuePreservingSetCountsAsWrite) {
  StateRegistry reg;
  StateField f = reg.Allocate("f", StateCat::kCtrl, Storage::kLatch, 4, 16);
  f.Set(1, 42);
  WordFirstAccessTracker t(reg.WordCount());
  for (std::size_t w = 0; w < reg.WordCount(); ++w) t.Watch(w, 1);
  t.Seal();
  reg.SetAccessTracker(&t);
  t.SetCycle(2);
  f.Set(1, 42);  // no-change write
  reg.SetAccessTracker(nullptr);
  int resolved = 0;
  for (std::size_t w = 0; w < reg.WordCount(); ++w) {
    const auto fa = t.Lookup(w, 1);
    if (fa.cycle < 0) continue;
    ++resolved;
    EXPECT_EQ(fa.cycle, 2);
    EXPECT_TRUE(fa.is_write);
  }
  EXPECT_EQ(resolved, 1);
}

TEST(StateRegistryTracking, ReadBeforeWriteReportsRead) {
  StateRegistry reg;
  StateField f = reg.Allocate("f", StateCat::kData, Storage::kRam, 2, 32);
  WordFirstAccessTracker t(reg.WordCount());
  for (std::size_t w = 0; w < reg.WordCount(); ++w) t.Watch(w, 1);
  t.Seal();
  reg.SetAccessTracker(&t);
  t.SetCycle(3);
  (void)f.Get(0);
  t.SetCycle(4);
  f.Set(0, 7);
  reg.SetAccessTracker(nullptr);
  int resolved = 0;
  for (std::size_t w = 0; w < reg.WordCount(); ++w) {
    const auto fa = t.Lookup(w, 1);
    if (fa.cycle < 0) continue;
    ++resolved;
    EXPECT_EQ(fa.cycle, 3);
    EXPECT_FALSE(fa.is_write);  // the read wins; simulation is required
  }
  EXPECT_EQ(resolved, 1);
}

// ---------------------------------------------------------------------------
// TrialRunner fast path vs slow path
// ---------------------------------------------------------------------------

struct FastpathRig {
  CampaignSpec spec;
  std::shared_ptr<const GoldenRun> golden;
  std::vector<TrialSpec> specs;
};

// Shorter than the fixture's window: more trials end in a Gray Area.
constexpr std::uint64_t kWindow = 2500;

const FastpathRig& Rig() {
  static const FastpathRig rig = [] {
    FastpathRig r;
    r.spec = SmallCampaign(160, "gzip", kWindow);
    const Program program =
        BuildWorkload(WorkloadByName(r.spec.workload), kCampaignIters);
    Core probe(r.spec.core, program);
    r.specs = MakeTrialSpecs(
        r.spec, probe.registry().InjectableBits(r.spec.include_ram));
    const FastPathPlan plan =
        PlanFastPath(r.spec.golden, r.specs, probe.registry());
    r.golden = RecordGolden(r.spec.core, program, r.spec.golden, nullptr,
                            &plan);
    return r;
  }();
  return rig;
}

std::string TraceRow(const obs::PropagationTrace& tr, const std::string& wl,
                     std::size_t i) {
  std::ostringstream os;
  obs::WritePropTraceRow(tr, wl, i, os);
  return os.str();
}

// Every record and every propagation trace must be byte-identical between
// the two execution policies, over a population that exercises shortcut
// Matches, latent Grays, and read-forced fallbacks.
TEST(TrialFastPath, RecordsAndTracesByteIdenticalToSlowPath) {
  const FastpathRig& rig = Rig();
  TrialRunner fast(rig.golden);
  TrialPolicy slow_policy;
  slow_policy.fast_path = false;
  TrialRunner slow(rig.golden, slow_policy);
  int shortcut = 0, match_late = 0, gray_latent = 0;
  for (std::size_t i = 0; i < rig.specs.size(); ++i) {
    const TrialRunner::Result f = fast.Run(rig.specs[i], /*want_trace=*/true);
    const TrialRunner::Result s = slow.Run(rig.specs[i], /*want_trace=*/true);
    EXPECT_FALSE(s.fast);
    EXPECT_EQ(f.record, s.record) << "trial " << i;
    EXPECT_EQ(TraceRow(f.trace, rig.spec.workload, i),
              TraceRow(s.trace, rig.spec.workload, i))
        << "trial " << i;
    if (!f.fast) continue;
    ++shortcut;
    if (f.record.outcome == Outcome::kMicroArchMatch && f.record.cycles > 1)
      ++match_late;
    if (f.record.outcome == Outcome::kGrayArea) {
      EXPECT_EQ(f.record.cycles, rig.spec.golden.window);
      ++gray_latent;
    }
  }
  // The population must actually exercise the shortcut's verdicts, or this
  // test proves nothing.
  EXPECT_GT(shortcut, 0);
  EXPECT_GT(match_late, 0);
  EXPECT_GT(gray_latent, 0);
}

// The cutoff may only fire at *full* re-convergence. A shortcut Match at
// cycle c must agree with the simulating loop's classification cycle — a
// machine that transiently looks converged (e.g. the injected category's
// hash matches while the fault lives on elsewhere) must not cut early, and
// the tracker's write cycle must be exactly the convergence cycle.
TEST(TrialFastPath, ConvergenceCutoffFiresAtExactConvergenceCycle) {
  const FastpathRig& rig = Rig();
  TrialRunner fast(rig.golden);
  TrialPolicy slow_policy;
  slow_policy.fast_path = false;
  TrialRunner slow(rig.golden, slow_policy);
  const WordFirstAccessTracker& access = *rig.golden->fastpath.access;
  int checked = 0;
  for (const TrialSpec& ts : rig.specs) {
    const TrialRunner::Result f = fast.Run(ts);
    if (!f.fast || f.record.outcome != Outcome::kMicroArchMatch) continue;
    const InjectionSite site =
        ResolveInjectionSite(rig.golden->spec, ts, fast.core().registry());
    std::uint64_t expect_c = 1;
    for (const BitLocation& loc : site.flips) {
      const auto fa =
          access.Lookup(fast.core().registry().WordIndexOf(loc),
                        site.inj_cycle);
      ASSERT_GE(fa.cycle, 0);
      ASSERT_TRUE(fa.is_write);
      expect_c = std::max(
          expect_c, static_cast<std::uint64_t>(fa.cycle) - site.inj_cycle + 1);
    }
    EXPECT_EQ(f.record.cycles, expect_c);
    EXPECT_EQ(slow.Run(ts).record.cycles, f.record.cycles);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// Multi-bit bursts: several flipped words per trial (and possibly cancelled
// flips revisiting a bit) — the shortcut must wait for the *last* divergent
// word and still agree with the slow path byte-for-byte.
TEST(TrialFastPath, MultiFlipBurstsByteIdentical) {
  CampaignSpec spec = SmallCampaign(48, "gzip", kWindow);
  spec.flips = 3;
  spec.adjacent = true;
  const Program program =
      BuildWorkload(WorkloadByName(spec.workload), kCampaignIters);
  Core probe(spec.core, program);
  const std::vector<TrialSpec> specs =
      MakeTrialSpecs(spec, probe.registry().InjectableBits(spec.include_ram));
  const FastPathPlan plan = PlanFastPath(spec.golden, specs, probe.registry());
  const auto golden =
      RecordGolden(spec.core, program, spec.golden, nullptr, &plan);
  TrialRunner fast(golden);
  TrialPolicy slow_policy;
  slow_policy.fast_path = false;
  TrialRunner slow(golden, slow_policy);
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(fast.Run(specs[i]).record, slow.Run(specs[i]).record)
        << "trial " << i;
}

// Non-default geometry: the fast path plans over the registry's live word
// space, which a reshaped core changes completely (different field widths,
// different word count). Fast and slow paths must stay byte-identical on a
// shape nothing in the defaults exercises.
TEST(TrialFastPath, NonDefaultGeometryByteIdentical) {
  CampaignSpec spec = SmallCampaign(48, "gzip", kWindow);
  spec.core.rob_entries = 16;
  spec.core.lq_entries = 8;
  spec.core.sq_entries = 8;
  spec.core.phys_regs = 48;
  const Program program =
      BuildWorkload(WorkloadByName(spec.workload), kCampaignIters);
  Core probe(spec.core, program);
  const std::vector<TrialSpec> specs =
      MakeTrialSpecs(spec, probe.registry().InjectableBits(spec.include_ram));
  const FastPathPlan plan = PlanFastPath(spec.golden, specs, probe.registry());
  const auto golden =
      RecordGolden(spec.core, program, spec.golden, nullptr, &plan);
  TrialRunner fast(golden);
  TrialPolicy slow_policy;
  slow_policy.fast_path = false;
  TrialRunner slow(golden, slow_policy);
  int shortcut = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TrialRunner::Result f = fast.Run(specs[i]);
    EXPECT_EQ(f.record, slow.Run(specs[i]).record) << "trial " << i;
    if (f.fast) ++shortcut;
  }
  EXPECT_GT(shortcut, 0) << "the reshaped core never took the fast path";
}

// Golden runs recorded without a fast-path plan (fuzz harness, ad-hoc
// tools) must silently take the slow path even when the policy allows fast.
TEST(TrialFastPath, NoPlanMeansSlowPath) {
  const CampaignSpec spec = SmallCampaign(8, "gzip", kWindow);
  const Program program =
      BuildWorkload(WorkloadByName(spec.workload), kCampaignIters);
  const auto golden = RecordGolden(spec.core, program, spec.golden);
  EXPECT_FALSE(golden->fastpath.enabled);
  Core probe(spec.core, program);
  const std::vector<TrialSpec> specs =
      MakeTrialSpecs(spec, probe.registry().InjectableBits(spec.include_ram));
  TrialRunner runner(golden);
  for (const TrialSpec& ts : specs) EXPECT_FALSE(runner.Run(ts).fast);
}

// A changed observation window must never alias cached results.
TEST(TrialFastPath, WindowIsPartOfTheCacheKey) {
  CampaignSpec a = SmallCampaign(40, "gzip", kWindow);
  CampaignSpec b = a;
  b.golden.window += 1;
  EXPECT_NE(a.CacheKey(), b.CacheKey());
}

// Whole-campaign A/B at jobs 1 and 4 over the default shape, adjacent
// 3-bit bursts (no early cutoff: cancelled flips, several watched words per
// trial) and a reshaped core (a different registry word space for the plan
// and the snapshots): records, outcome and failure-mode mix, metrics JSON
// (timer-less export is byte-deterministic), propagation traces and heatmap
// exports must all be byte-identical to the slow path at jobs 1.
TEST(TrialFastPath, CampaignDistributionsMetricsAndHeatmapsIdentical) {
  CampaignSpec burst = SmallCampaign(48);
  burst.flips = 3;
  burst.adjacent = true;
  CampaignSpec shaped = SmallCampaign(48);
  shaped.core.rob_entries = 16;
  shaped.core.lq_entries = 8;
  shaped.core.sq_entries = 8;
  shaped.core.phys_regs = 48;
  struct Out {
    CampaignResult result;
    std::string metrics, traces, heatmap;
  };
  for (const CampaignSpec& spec :
       {SmallCampaign(40, "gzip", kWindow), burst, shaped}) {
    const auto run = [&](bool fast_path, int jobs) {
      obs::MetricsRegistry metrics;
      CampaignOptions opt = QuietLive();
      opt.jobs = jobs;
      opt.fast_path = fast_path;
      opt.obs.collect_prop_traces = true;
      opt.obs.sinks.metrics = &metrics;
      Out out{RunCampaign(spec, opt), {}, {}, {}};
      std::ostringstream m, t, h;
      metrics.WriteJson(m, /*include_timers=*/false);
      for (std::size_t i = 0; i < out.result.prop_traces.size(); ++i)
        obs::WritePropTraceRow(out.result.prop_traces[i], spec.workload, i, t);
      // A fixed stamp: the default is the wall clock, which can tick over a
      // second between two runs.
      BuildHeatmap(out.result).WriteJson(h, spec.workload,
                                         "2026-01-01T00:00:00Z");
      out.metrics = m.str();
      out.traces = t.str();
      out.heatmap = h.str();
      return out;
    };
    const Out slow1 = run(/*fast_path=*/false, /*jobs=*/1);
    ASSERT_EQ(slow1.result.trials.size(),
              static_cast<std::size_t>(spec.trials));
    for (int jobs : {1, 4}) {
      const Out f = run(/*fast_path=*/true, jobs);
      SCOPED_TRACE("flips=" + std::to_string(spec.flips) +
                   " rob=" + std::to_string(spec.core.rob_entries) +
                   " jobs=" + std::to_string(jobs));
      EXPECT_EQ(f.result.trials, slow1.result.trials);
      EXPECT_EQ(f.result.ByOutcome(), slow1.result.ByOutcome());
      EXPECT_EQ(f.result.ByFailureMode(), slow1.result.ByFailureMode());
      EXPECT_EQ(f.metrics, slow1.metrics);
      EXPECT_EQ(f.traces, slow1.traces);
      EXPECT_EQ(f.heatmap, slow1.heatmap);
    }
  }
}

// Interrupt a fast-path campaign mid-flight, then resume it with the fast
// path disabled: the journaled fast-path prefix and the slow-path suffix
// must splice into a result byte-identical to an uninterrupted slow run.
TEST(TrialFastPath, ResumeCrossesFastSlowBoundary) {
  ScopedCacheDir cache("tfi_fastpath_resume_test");
  const CampaignSpec spec = SmallCampaign(30, "gzip", kWindow);
  CampaignOptions slow_opt = QuietLive();
  slow_opt.fast_path = false;
  const CampaignResult reference = RunCampaign(spec, slow_opt);

  CancellationToken cancel;
  CampaignOptions interrupted = QuietLive();  // fast path on (default)
  interrupted.jobs = 2;
  interrupted.checkpoint_every = 5;
  interrupted.cancel = &cancel;
  interrupted.trial_fault_hook = [&cancel](std::size_t i) {
    if (i == 12) cancel.Request();
  };
  const CampaignResult partial = RunCampaign(spec, interrupted);
  ASSERT_TRUE(partial.interrupted);
  ASSERT_FALSE(partial.trials.empty());
  ASSERT_LT(partial.trials.size(), reference.trials.size());
  // The interruption flushed exactly the completed prefix.
  const auto journal = LoadCampaignCheckpoint(spec);
  ASSERT_TRUE(journal.has_value());
  EXPECT_EQ(journal->size(), partial.trials.size());

  CampaignOptions resume = QuietLive();
  resume.fast_path = false;  // the suffix runs on the slow path
  resume.checkpoint_every = 5;
  const CampaignResult resumed = RunCampaign(spec, resume);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.trials, reference.trials);
  // The completed result subsumes the journal.
  EXPECT_FALSE(std::filesystem::exists(CampaignCheckpointPath(spec)));
}

}  // namespace
}  // namespace tfsim
