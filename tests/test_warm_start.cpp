// Golden warm starts: the machine after a golden run's detailed warm-up,
// persisted in the cache directory and shared by every campaign on the same
// machine, program and warm-up length. Loading one must leave golden runs,
// trial records and golden statistics byte-identical to a live run.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <sstream>

#include "campaign_fixture.h"
#include "inject/cache.h"
#include "inject/campaign.h"
#include "obs/metrics.h"
#include "soft/harden.h"
#include "util/checksum.h"

namespace tfsim {
namespace {

namespace fs = std::filesystem;

// Quiet options that consult the results cache when `use_cache`.
CampaignOptions Quiet(bool use_cache) {
  CampaignOptions opt = QuietLive();
  opt.use_cache = use_cache;
  return opt;
}

void ExpectSameResult(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.golden_ipc, b.golden_ipc);
  EXPECT_EQ(a.golden_bp_accuracy, b.golden_bp_accuracy);
  EXPECT_EQ(a.golden_dcache_misses, b.golden_dcache_misses);
}

// Backdates `path` by an hour and returns the new stamp. A campaign that
// finds a valid warm start never stores one, so an unchanged stamp after a
// run proves the run loaded the file rather than simulating its warm-up.
fs::file_time_type Backdate(const std::string& path) {
  const fs::file_time_type t =
      fs::last_write_time(path) - std::chrono::hours(1);
  fs::last_write_time(path, t);
  return t;
}

TEST(WarmStart, GoldenRunFromALoadedWarmStartIsBitIdentical) {
  ScopedCacheDir cache("tfi_test_warm_golden");
  const CampaignSpec spec = SmallCampaign(40, "gcc");
  const Program program = ResolveCampaignProgram(spec.workload);
  const Core probe(spec.core, program);
  const std::vector<TrialSpec> specs = MakeTrialSpecs(
      spec, probe.registry().InjectableBits(spec.include_ram));
  const FastPathPlan plan = PlanFastPath(spec.golden, specs, probe.registry());

  ASSERT_TRUE(StoreGoldenWarmStart(
      spec, WarmUpGolden(spec.core, program, spec.golden.warmup)));
  const auto warm = LoadGoldenWarmStart(spec);
  ASSERT_TRUE(warm.has_value());

  const auto live = RecordGolden(spec.core, program, spec.golden, nullptr,
                                 &plan);
  const auto loaded = RecordGolden(spec.core, program, spec.golden, nullptr,
                                   &plan, &*warm);

  const GoldenTimeline& a = live->timeline;
  const GoldenTimeline& b = loaded->timeline;
  EXPECT_EQ(a.state_hash, b.state_hash);
  EXPECT_EQ(a.cat_hash, b.cat_hash);
  EXPECT_EQ(a.arch_hash, b.arch_hash);
  EXPECT_EQ(a.mem_hash, b.mem_hash);
  EXPECT_EQ(a.sb_empty, b.sb_empty);
  EXPECT_EQ(a.retired_total, b.retired_total);
  EXPECT_TRUE(a.events == b.events);
  EXPECT_EQ(a.base_retired, b.base_retired);
  EXPECT_EQ(a.count_to_cycle, b.count_to_cycle);
  EXPECT_EQ(a.seq_range, b.seq_range);
  EXPECT_EQ(a.inflight, b.inflight);
  EXPECT_EQ(a.seq_retired, b.seq_retired);

  ASSERT_EQ(live->checkpoints.size(), loaded->checkpoints.size());
  for (std::size_t k = 0; k < live->checkpoints.size(); ++k) {
    const Core::Snapshot& x = live->checkpoints[k];
    const Core::Snapshot& y = loaded->checkpoints[k];
    EXPECT_EQ(x.words, y.words) << k;
    EXPECT_TRUE(x.mem == y.mem) << k;
    EXPECT_EQ(x.mem.ContentHash(), y.mem.ContentHash()) << k;
    EXPECT_EQ(x.retired_total, y.retired_total) << k;
    EXPECT_EQ(x.seq_counter, y.seq_counter) << k;
    EXPECT_EQ(x.rob_seq, y.rob_seq) << k;
  }
  ASSERT_EQ(live->fastpath.points.size(), loaded->fastpath.points.size());
  for (const auto& [cycle, point] : live->fastpath.points) {
    const auto it = loaded->fastpath.points.find(cycle);
    ASSERT_NE(it, loaded->fastpath.points.end()) << cycle;
    EXPECT_EQ(point.base_checkpoint, it->second.base_checkpoint);
    EXPECT_EQ(point.delta.words, it->second.delta.words) << cycle;
    EXPECT_EQ(point.delta.mem, it->second.delta.mem) << cycle;
  }
  for (const auto& [word, cycle] : plan.watches) {
    const auto x = live->fastpath.access->Lookup(word, cycle);
    const auto y = loaded->fastpath.access->Lookup(word, cycle);
    EXPECT_EQ(x.cycle, y.cycle);
    EXPECT_EQ(x.is_write, y.is_write);
  }

  const CoreStats& s = live->stats;
  const CoreStats& t = loaded->stats;
  EXPECT_EQ(s.cycles, t.cycles);
  EXPECT_EQ(s.retired, t.retired);
  EXPECT_EQ(s.branches, t.branches);
  EXPECT_EQ(s.mispredicts, t.mispredicts);
  EXPECT_EQ(s.loads, t.loads);
  EXPECT_EQ(s.dcache_misses, t.dcache_misses);
  EXPECT_EQ(s.replays, t.replays);
  EXPECT_EQ(s.full_flushes, t.full_flushes);
  EXPECT_EQ(live->tlb.InsnPageList(), loaded->tlb.InsnPageList());
  EXPECT_EQ(live->tlb.DataPageList(), loaded->tlb.DataPageList());
}

// The oracle independent of warm starts: one Core simulated continuously
// from reset. Every golden run now resumes from a warm start, so this is
// what pins the resumed machine, statistics and learned TLB to the truth.
TEST(WarmStart, GoldenRunMatchesAContinuousSimulation) {
  const CampaignSpec spec = SmallCampaign(1, "mcf");
  const Program program = ResolveCampaignProgram(spec.workload);
  const auto golden = RecordGolden(spec.core, program, spec.golden);

  Core core(spec.core, program);
  core.tlb().SetLearning(true);
  for (std::uint64_t c = 0; c < spec.golden.warmup; ++c) core.Cycle();
  const GoldenTimeline& tl = golden->timeline;
  EXPECT_EQ(tl.base_retired, core.RetiredTotal());
  for (std::size_t i = 0; i < tl.state_hash.size(); ++i) {
    core.Cycle();
    ASSERT_EQ(tl.state_hash[i], core.StateHash()) << "cycle " << i;
    ASSERT_EQ(tl.cat_hash[i], core.registry().CatHashes()) << "cycle " << i;
    ASSERT_EQ(tl.retired_total[i], core.RetiredTotal()) << "cycle " << i;
  }
  const CoreStats& s = golden->stats;
  const CoreStats& t = core.stats();
  EXPECT_EQ(s.cycles, t.cycles);
  EXPECT_EQ(s.retired, t.retired);
  EXPECT_EQ(s.branches, t.branches);
  EXPECT_EQ(s.mispredicts, t.mispredicts);
  EXPECT_EQ(s.loads, t.loads);
  EXPECT_EQ(s.dcache_misses, t.dcache_misses);
  EXPECT_EQ(s.replays, t.replays);
  EXPECT_EQ(s.full_flushes, t.full_flushes);
  EXPECT_EQ(golden->tlb.InsnPageList(), core.tlb().InsnPageList());
  EXPECT_EQ(golden->tlb.DataPageList(), core.tlb().DataPageList());
}

// The retire-gap counters carry over: a warm-up that ended having stalled
// past the locked-pipeline threshold fails the golden run, as a continuous
// run would.
TEST(WarmStart, StalledWarmUpFailsTheGoldenRun) {
  const CampaignSpec spec = SmallCampaign(1);
  const Program program = ResolveCampaignProgram(spec.workload);
  GoldenWarmStart warm =
      WarmUpGolden(spec.core, program, spec.golden.warmup);
  EXPECT_NO_THROW(
      RecordGolden(spec.core, program, spec.golden, nullptr, nullptr, &warm));
  warm.max_retire_gap = kLockedThresholdCycles;
  EXPECT_THROW(
      RecordGolden(spec.core, program, spec.golden, nullptr, nullptr, &warm),
      std::runtime_error);
}

TEST(WarmStart, MismatchedWarmStartIsRejected) {
  const CampaignSpec spec = SmallCampaign(1);
  const Program program = ResolveCampaignProgram(spec.workload);
  const GoldenWarmStart shorter =
      WarmUpGolden(spec.core, program, spec.golden.warmup - 1);
  EXPECT_THROW(RecordGolden(spec.core, program, spec.golden, nullptr, nullptr,
                            &shorter),
               std::invalid_argument);
  // A warm start from a smaller machine does not fit this one.
  CoreConfig small = spec.core;
  small.rob_entries = 32;
  const GoldenWarmStart other_shape =
      WarmUpGolden(small, program, spec.golden.warmup);
  EXPECT_THROW(RecordGolden(spec.core, program, spec.golden, nullptr, nullptr,
                            &other_shape),
               std::invalid_argument);
}

// One campaign shape per case; together they cover both worker counts, both
// trial paths, both injection populations, the Section 4 protection, a
// software-hardened workload and a non-default geometry.
struct ShareCase {
  const char* name;
  const char* workload;
  bool include_ram;
  int jobs;
  bool fast_path;
  bool protect;
  bool small_core;
};

void PrintTo(const ShareCase& c, std::ostream* os) { *os << c.name; }

class WarmStartShare : public ::testing::TestWithParam<ShareCase> {};

TEST_P(WarmStartShare, LoadedWarmStartGivesByteIdenticalCampaigns) {
  const ShareCase& c = GetParam();
  CampaignSpec spec = SmallCampaign(16, c.workload);
  spec.include_ram = c.include_ram;
  if (c.protect) spec.core.protect = ProtectionConfig::All();
  if (c.small_core) {
    spec.core.rob_entries = 32;
    spec.core.sched_entries = 16;
    spec.core.phys_regs = 64;
  }
  CampaignOptions live_opt = Quiet(false);
  live_opt.jobs = c.jobs;
  live_opt.fast_path = c.fast_path;
  const CampaignResult live = RunCampaign(spec, live_opt);

  ScopedCacheDir cache(std::string("tfi_test_warm_share_") + c.name);
  // The other injection population and another seed record the warm start.
  CampaignSpec other = spec;
  other.include_ram = !spec.include_ram;
  other.seed = spec.seed + 1;
  ASSERT_EQ(other.WarmStartKey(), spec.WarmStartKey());
  (void)RunCampaign(other, Quiet(true));
  const std::string path = GoldenWarmStartPath(spec);
  ASSERT_TRUE(LoadGoldenWarmStart(spec).has_value());
  const fs::file_time_type stamp = Backdate(path);

  CampaignOptions opt = live_opt;
  opt.use_cache = true;
  const CampaignResult shared = RunCampaign(spec, opt);
  EXPECT_EQ(fs::last_write_time(path), stamp)
      << "the campaign simulated its warm-up instead of loading it";
  ExpectSameResult(shared, live);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WarmStartShare,
    ::testing::Values(
        ShareCase{"lr_jobs1_fast", "gzip", true, 1, true, false, false},
        ShareCase{"l_jobs4_fast", "gzip", false, 4, true, false, false},
        ShareCase{"lr_jobs4_slow", "mcf", true, 4, false, false, false},
        ShareCase{"l_jobs1_slow", "mcf", false, 1, false, false, false},
        ShareCase{"protect_all", "parser", true, 4, true, true, false},
        ShareCase{"hardened_sw", "gzip+sw", false, 1, true, false, false},
        ShareCase{"small_core", "gcc", true, 4, true, false, true}),
    [](const ::testing::TestParamInfo<ShareCase>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(WarmStart, KeyCoversMachineProgramAndWarmupOnly) {
  const CampaignSpec base = SmallCampaign(10);
  const std::string key = base.WarmStartKey();

  auto expect_differs = [&](const char* what, auto mutate) {
    CampaignSpec s = base;
    mutate(s);
    EXPECT_NE(s.WarmStartKey(), key) << what;
  };
  expect_differs("warmup", [](CampaignSpec& s) { s.golden.warmup += 1; });
  expect_differs("workload", [](CampaignSpec& s) { s.workload = "gcc"; });
  expect_differs("hardened", [](CampaignSpec& s) { s.workload = "gzip+sw"; });
  expect_differs("protection", [](CampaignSpec& s) {
    s.core.protect.regfile_ecc = true;
  });
  expect_differs("rob", [](CampaignSpec& s) { s.core.rob_entries = 32; });
  expect_differs("timeout",
                 [](CampaignSpec& s) { s.core.timeout_cycles = 99; });
  expect_differs("miss", [](CampaignSpec& s) { s.core.miss_cycles = 9; });

  auto expect_same = [&](const char* what, auto mutate) {
    CampaignSpec s = base;
    mutate(s);
    EXPECT_EQ(s.WarmStartKey(), key) << what;
    EXPECT_NE(s.CacheKey(), base.CacheKey()) << what;
  };
  expect_same("seed", [](CampaignSpec& s) { s.seed += 1; });
  expect_same("trials", [](CampaignSpec& s) { s.trials += 1; });
  expect_same("include_ram", [](CampaignSpec& s) { s.include_ram = false; });
  expect_same("flips", [](CampaignSpec& s) { s.flips = 2; });
  expect_same("points", [](CampaignSpec& s) { s.golden.points += 1; });
  expect_same("window", [](CampaignSpec& s) { s.golden.window += 1; });
}

// The results-cache keys are unchanged by sharing their machine hash with
// the warm-start key: cached results from before stay addressable.
TEST(WarmStart, CacheKeyStringsArePinned) {
  CampaignSpec spec;
  spec.workload = "gzip";
  spec.trials = 100;
  EXPECT_EQ(spec.CacheKey(), "gzip_lr_base_15fc2540aa01ac08");
  spec.include_ram = false;
  EXPECT_EQ(spec.CacheKey(), "gzip_l_base_fe1c8b6505fd77ca");
  CampaignSpec prot = SmallCampaign(16, "parser+sw");
  prot.core.protect = ProtectionConfig::All();
  prot.core.rob_entries = 32;
  EXPECT_EQ(prot.CacheKey(), "parser+sw_lr_prot_987dd6b1771f2e83");
}

TEST(WarmStart, DamagedOrForeignWarmFilesAreMissesAndRewritten) {
  ScopedCacheDir cache("tfi_test_warm_damaged");
  CampaignSpec spec = SmallCampaign(8);
  const CampaignResult live = RunCampaign(spec, Quiet(false));
  (void)RunCampaign(spec, Quiet(true));
  const std::string path = GoldenWarmStartPath(spec);
  const std::string good = SlurpFile(path);
  ASSERT_EQ(good.rfind("tfi-warm v1\n", 0), 0u);

  const std::size_t body = good.find('\n', good.find('\n') + 1) + 1;
  std::string flipped = good;
  flipped[body + (good.size() - body) / 2] ^= 0x10;
  // A checksummed envelope around a payload with a stray trailing byte.
  const std::string padded_payload = good.substr(body) + '\0';
  std::ostringstream reenveloped;
  reenveloped << "tfi-warm v1\n"
              << std::hex << Crc32(padded_payload) << std::dec << ' '
              << padded_payload.size() << '\n'
              << padded_payload;
  const std::vector<std::pair<const char*, std::string>> damaged = {
      {"checksum", flipped},
      {"truncated", good.substr(0, good.size() - 100)},
      {"padded", good + "x"},
      {"payload", reenveloped.str()},
      {"magic", "tfi-cache v2\n" + good.substr(good.find('\n') + 1)},
      {"empty", ""},
  };
  for (const auto& [what, bytes] : damaged) {
    WriteRaw(path, bytes);
    EXPECT_FALSE(LoadGoldenWarmStart(spec).has_value()) << what;
    // A new seed misses the results cache, so the campaign runs live, falls
    // back to simulating its warm-up, and rewrites the file.
    spec.seed += 1;
    (void)RunCampaign(spec, Quiet(true));
    EXPECT_EQ(SlurpFile(path), good) << what;
  }
  // A checksummed file whose delta does not fit the core (a word index past
  // the registry) is a miss too.
  GoldenWarmStart misfit = *LoadGoldenWarmStart(spec);
  misfit.delta.words.emplace_back(0x7fffffffu, 1);
  ASSERT_TRUE(StoreGoldenWarmStart(spec, misfit));
  ASSERT_TRUE(LoadGoldenWarmStart(spec).has_value());
  spec.seed += 1;
  (void)RunCampaign(spec, Quiet(true));
  EXPECT_EQ(SlurpFile(path), good) << "misfit";

  // The rewritten file serves a campaign byte-identical to a live one.
  spec.seed = live.spec.seed;
  fs::remove(fs::path(CacheDir()) / (spec.CacheKey() + ".txt"));
  ExpectSameResult(RunCampaign(spec, Quiet(true)), live);
}

TEST(WarmStart, ObservedRunsNeverLoadAWarmStart) {
  ScopedCacheDir cache("tfi_test_warm_observed");
  const CampaignSpec spec = SmallCampaign(8);
  const CampaignResult live = RunCampaign(spec, Quiet(false));
  obs::MetricsRegistry live_metrics;
  CampaignOptions observed = Quiet(false);
  observed.obs.sinks.metrics = &live_metrics;
  (void)RunCampaign(spec, observed);

  // Plant another program's warm-up under this spec's key: a run that
  // loaded it would diverge from the live golden run.
  const GoldenWarmStart foreign = WarmUpGolden(
      spec.core, ResolveCampaignProgram("gcc"), spec.golden.warmup);
  ASSERT_TRUE(StoreGoldenWarmStart(spec, foreign));
  ASSERT_TRUE(LoadGoldenWarmStart(spec).has_value());
  bool diverged = false;
  try {
    CampaignSpec probe = spec;
    probe.seed += 1;  // miss the results cache
    CampaignSpec probe_live = probe;
    diverged = RunCampaign(probe, Quiet(true)).trials !=
               RunCampaign(probe_live, Quiet(false)).trials;
  } catch (const std::exception&) {
    diverged = true;
  }
  ASSERT_TRUE(diverged) << "the planted warm start went unnoticed";
  ASSERT_TRUE(StoreGoldenWarmStart(spec, foreign));

  // With metrics attached the warm-up is simulated: results and the
  // pipeline counters match a cache-less observed run, and the simulated
  // warm start replaces the planted one.
  obs::MetricsRegistry metrics;
  CampaignOptions opt = observed;
  opt.use_cache = true;
  opt.obs.sinks.metrics = &metrics;
  ExpectSameResult(RunCampaign(spec, opt), live);
  for (const char* c : {"pipe.cycles", "pipe.retired", "pipe.dcache.misses"})
    EXPECT_EQ(metrics.GetCounter(c).value(), live_metrics.GetCounter(c).value())
        << c;
  const auto rewritten = LoadGoldenWarmStart(spec);
  ASSERT_TRUE(rewritten.has_value());
  EXPECT_EQ(rewritten->stats.retired,
            WarmUpGolden(spec.core, ResolveCampaignProgram(spec.workload),
                         spec.golden.warmup)
                .stats.retired);
  EXPECT_NE(rewritten->stats.retired, foreign.stats.retired);
}

}  // namespace
}  // namespace tfsim
