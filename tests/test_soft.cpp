// Section 5 software-level injection tests.
#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign_fixture.h"
#include "inject/cache.h"
#include "soft/soft_inject.h"
#include "workloads/workloads.h"

namespace tfsim {
namespace {

Program SmallProgram() {
  return BuildWorkload(WorkloadByName("gzip"), 3, true);
}

TEST(Soft, NamesAreTotal) {
  for (int m = 0; m < kNumSoftFaultModels; ++m)
    EXPECT_STRNE(SoftFaultModelName(static_cast<SoftFaultModel>(m)), "?");
  for (int o = 0; o < kNumSoftOutcomes; ++o)
    EXPECT_STRNE(SoftOutcomeName(static_cast<SoftOutcome>(o)), "?");
}

TEST(Soft, TrialsAreDeterministic) {
  const Program prog = SmallProgram();
  const auto a = RunSoftTrial(prog, SoftFaultModel::kRegBit64, 100, 7, 1u << 24);
  const auto b = RunSoftTrial(prog, SoftFaultModel::kRegBit64, 100, 7, 1u << 24);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.control_flow_diverged, b.control_flow_diverged);
  EXPECT_EQ(a.insns_executed, b.insns_executed);
}

TEST(Soft, BranchFlipDivergesControlFlow) {
  const Program prog = SmallProgram();
  int diverged = 0, total = 0;
  for (std::uint64_t t = 0; t < 30; ++t) {
    const auto r =
        RunSoftTrial(prog, SoftFaultModel::kBranchFlip, t * 37, t, 1u << 24);
    ++total;
    // A forced wrong branch must at least transiently leave the golden path
    // unless the run dies first.
    if (r.control_flow_diverged || r.outcome == SoftOutcome::kException)
      ++diverged;
  }
  EXPECT_EQ(diverged, total);
}

TEST(Soft, EveryModelProducesOnlyValidOutcomes) {
  const Program prog = SmallProgram();
  for (int m = 0; m < kNumSoftFaultModels; ++m) {
    for (std::uint64_t t = 0; t < 10; ++t) {
      const auto r = RunSoftTrial(prog, static_cast<SoftFaultModel>(m),
                                  t * 101, t, 1u << 24);
      EXPECT_LE(static_cast<int>(r.outcome), 3);
    }
  }
}

TEST(Soft, SomeFaultsAreMaskedAndSomeAreNot) {
  const Program prog = SmallProgram();
  int ok = 0, bad = 0;
  for (std::uint64_t t = 0; t < 60; ++t) {
    const auto r =
        RunSoftTrial(prog, SoftFaultModel::kRegBit64, t * 997, t, 1u << 24);
    if (r.outcome == SoftOutcome::kStateOk) ++ok;
    if (r.outcome == SoftOutcome::kOutputBad) ++bad;
  }
  EXPECT_GT(ok, 5) << "software masking should be significant (paper: ~50%)";
  EXPECT_GT(bad, 5) << "register corruption must be able to break output";
}

// The 60 trials of SomeFaultsAreMaskedAndSomeAreNot on a fresh thread (so
// its thread-local reference cache starts empty), optionally primed with a
// trial of a larger gzip build whose program differs in only a few bytes.
std::vector<SoftTrialResult> FreshThreadTrials(bool prime) {
  std::vector<SoftTrialResult> out;
  std::thread([&] {
    if (prime)
      RunSoftTrial(BuildWorkload(WorkloadByName("gzip"), 8, true),
                   SoftFaultModel::kRegBit64, 0, 1, 1u << 24);
    const Program prog = SmallProgram();
    for (std::uint64_t t = 0; t < 60; ++t)
      out.push_back(
          RunSoftTrial(prog, SoftFaultModel::kRegBit64, t * 997, t, 1u << 24));
  }).join();
  return out;
}

TEST(Soft, ReferenceCacheNeverServesAnotherProgram) {
  const std::vector<SoftTrialResult> unprimed = FreshThreadTrials(false);
  const std::vector<SoftTrialResult> primed = FreshThreadTrials(true);
  ASSERT_EQ(primed.size(), unprimed.size());
  for (std::size_t i = 0; i < primed.size(); ++i) {
    EXPECT_EQ(primed[i].outcome, unprimed[i].outcome) << "trial " << i;
    EXPECT_EQ(primed[i].control_flow_diverged,
              unprimed[i].control_flow_diverged)
        << "trial " << i;
    EXPECT_EQ(primed[i].insns_executed, unprimed[i].insns_executed)
        << "trial " << i;
  }
}

TEST(Soft, CampaignAggregatesAndCaches) {
  ScopedCacheDir cache("tfi_soft_cache");
  SoftCampaignSpec spec;
  spec.workload = "gzip";
  spec.iters = 3;
  spec.trials = 20;
  spec.model = SoftFaultModel::kNop;
  const auto fresh = RunSoftCampaign(spec, false);
  EXPECT_EQ(fresh.trials, 20u);
  std::uint64_t sum = 0;
  for (auto v : fresh.by_outcome) sum += v;
  EXPECT_EQ(sum, 20u);
  const auto cached = RunSoftCampaign(spec, false);
  EXPECT_EQ(cached.by_outcome, fresh.by_outcome);
}

// A cache file that is torn, edited or inconsistent must be a miss: the
// campaign re-runs, returns the true counts, and rewrites the file intact.
TEST(Soft, TruncatedAndTamperedCacheFilesAreMisses) {
  ScopedCacheDir cache("tfi_soft_cache_tamper");
  SoftCampaignSpec spec;
  spec.workload = "gzip";
  spec.iters = 3;
  spec.trials = 20;
  spec.model = SoftFaultModel::kRegBit64;
  const auto fresh = RunSoftCampaign(spec, false);
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(cache.dir()))
    files.push_back(e.path());
  ASSERT_EQ(files.size(), 1u);
  const std::filesystem::path file = files[0];
  EXPECT_EQ(file.filename().string().rfind("soft_gzip_reg-bit-64_", 0), 0u);
  const std::string intact = SlurpFile(file);

  // Truncated: the length check fails.
  WriteRaw(file, intact.substr(0, intact.size() - 3));
  EXPECT_EQ(RunSoftCampaign(spec, false).by_outcome, fresh.by_outcome);
  EXPECT_EQ(SlurpFile(file), intact);

  // Tampered at the same length: swap the Output OK and Output Bad counts,
  // which leaves a payload that parses and sums to the trial count, so
  // only the checksum can catch it. Layout: magic line, checksum line,
  // trial count line, outcome counts line.
  const std::size_t payload = intact.find('\n', intact.find('\n') + 1) + 1;
  const std::size_t counts = intact.find('\n', payload) + 1;
  const std::size_t counts_end = intact.find('\n', counts);
  std::istringstream tokens(intact.substr(counts, counts_end - counts));
  std::vector<std::string> v{std::istream_iterator<std::string>(tokens), {}};
  ASSERT_EQ(v.size(), 4u);
  std::swap(v[2], v[3]);
  std::string tampered = intact;
  tampered.replace(counts, counts_end - counts,
                   v[0] + " " + v[1] + " " + v[2] + " " + v[3] + " ");
  ASSERT_EQ(tampered.size(), intact.size());
  ASSERT_NE(tampered, intact);
  WriteRaw(file, tampered);
  EXPECT_EQ(RunSoftCampaign(spec, false).by_outcome, fresh.by_outcome);
  EXPECT_EQ(SlurpFile(file), intact);

  // Intact envelope, inconsistent payload: counts that miss the trial count.
  ASSERT_TRUE(StoreEnvelope(file, "tfi-soft v2", "20\n1 1 1 1 \n0\n",
                            "cache.store", "soft.cache.store_failures"));
  EXPECT_EQ(RunSoftCampaign(spec, false).by_outcome, fresh.by_outcome);
  EXPECT_EQ(SlurpFile(file), intact);
}

}  // namespace
}  // namespace tfsim
