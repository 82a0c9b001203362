// chaos_smoke — end-to-end resilience verification under injected faults.
//
// Three phases, each compared record-for-record against a clean reference:
//
//   1. Durability chaos: every cache/checkpoint/atomic-write seam armed with
//      intermittent failpoint errors (TFI_FAILPOINTS syntax via
//      fail::ConfigureFromSpec). The campaign must retry/degrade and still
//      produce byte-identical records at --jobs 1 and --jobs 4.
//   2. Watchdog containment: a trial hook that wedges past the
//      trial_timeout_ms deadline must be quarantined as a timeout while
//      every other trial's record survives unchanged.
//   3. Fork isolation: a trial hook that SIGKILLs the worker under
//      --isolate-trials must be contained as a crash quarantine, the worker
//      respawned, and the surviving records byte-identical.
//
// Registered as the `chaos_smoke` ctest; also built under -DTFI_SANITIZE=thread
// so the supervisor/watchdog paths get TSan coverage.
//
//   chaos_smoke [workload] [--trials N]
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string_view>

#include "inject/campaign.h"
#include "util/argparse.h"
#include "util/failpoint.h"

using namespace tfsim;

namespace {

int Fail(const char* what) {
  std::fprintf(stderr, "chaos_smoke: FAIL: %s\n", what);
  return 1;
}

bool SameRecord(const TrialRecord& a, const TrialRecord& b) {
  return a.outcome == b.outcome && a.mode == b.mode && a.cat == b.cat &&
         a.storage == b.storage && a.cycles == b.cycles &&
         a.valid_instrs == b.valid_instrs && a.inflight == b.inflight;
}

// All records identical except the quarantined index `skip` (SIZE_MAX = none).
bool SurvivorsMatch(const CampaignResult& got, const CampaignResult& ref,
                    std::size_t skip) {
  if (got.trials.size() != ref.trials.size()) return false;
  for (std::size_t i = 0; i < ref.trials.size(); ++i) {
    if (i == skip) continue;
    if (!SameRecord(got.trials[i], ref.trials[i])) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t trials = 24;
  ArgParser p;
  p.AddInt("trials", &trials, "campaign size");
  if (!p.Parse(argc, argv) || p.positional().size() > 1) {
    std::fprintf(stderr, "chaos_smoke: %s\n%s", p.error().c_str(),
                 p.Help().c_str());
    return 2;
  }

  // Private cache dir: the durability seams under chaos must not touch a
  // real cache, and reruns must start clean.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tfi_chaos_smoke").string();
  std::filesystem::remove_all(dir);
  ::setenv("TFI_CACHE_DIR", dir.c_str(), 1);

  CampaignSpec spec;
  spec.workload = p.positional().empty() ? "gzip" : p.positional()[0];
  spec.trials = static_cast<int>(trials);
  spec.golden.warmup = 12000;
  spec.golden.points = 3;
  spec.golden.spacing = 500;
  spec.golden.window = 4000;
  spec.golden.slack = 1000;

  CampaignOptions base;
  base.verbose = false;
  base.use_cache = false;

  fail::Reset();
  const CampaignResult reference = RunCampaign(spec, base);
  if (reference.trials.size() != static_cast<std::size_t>(trials))
    return Fail("reference run has the wrong trial count");
  if (!reference.quarantined.empty())
    return Fail("reference run quarantined trials");

  // Phase 1: durability chaos. Intermittent failures on every seam a
  // campaign persists through; the engine must retry/degrade, never corrupt.
  for (int jobs : {1, 4}) {
    std::filesystem::remove_all(dir);
    std::string err;
    if (!fail::ConfigureFromSpec(
            "fs.atomic_write=error@1in3;cache.load=error@1in2;"
            "cache.store=error@1in2;ckpt.load=error@1in2;ckpt.store=error@1in2",
            &err)) {
      std::fprintf(stderr, "chaos_smoke: bad spec: %s\n", err.c_str());
      return 1;
    }
    CampaignOptions chaos = base;
    chaos.use_cache = true;
    chaos.jobs = jobs;
    chaos.checkpoint_every = 3;
    const CampaignResult stormy = RunCampaign(spec, chaos);
    fail::Reset();
    if (stormy.interrupted) return Fail("durability chaos: run interrupted");
    if (!stormy.quarantined.empty())
      return Fail("durability chaos: I/O failures leaked into trial records");
    if (!SurvivorsMatch(stormy, reference, static_cast<std::size_t>(-1)))
      return Fail("durability chaos: records differ from the clean reference");
  }

  // Phase 2: watchdog. A wedged trial must become a timeout quarantine; the
  // rest of the campaign must be untouched.
  {
    std::filesystem::remove_all(dir);
    const std::size_t victim = 2;
    CampaignOptions hang = base;
    // Calibrated for optimized builds; sanitizer builds simulate trials
    // 10-30x slower, so the deadline and the hang stretch together there.
    constexpr int kTimeScale =
        std::string_view(TFI_SANITIZE_NAME) == "off" ? 1 : 20;
    hang.trial_timeout_ms = 50 * kTimeScale;
    hang.trial_fault_hook = [victim](std::size_t i) {
      if (i == victim) {
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(150 * kTimeScale);
        while (std::chrono::steady_clock::now() < until) {
        }
      }
    };
    const CampaignResult hung = RunCampaign(spec, hang);
    if (hung.quarantined.size() != 1 || hung.quarantined[0].index != victim)
      return Fail("watchdog: hung trial was not quarantined");
    if (hung.quarantined[0].reason != QuarantinedTrial::Reason::kTimeout)
      return Fail("watchdog: quarantine reason is not timeout");
    if (!SurvivorsMatch(hung, reference, victim))
      return Fail("watchdog: surviving records differ from the reference");
  }

  // Phase 3: fork isolation. A trial that kills its worker process must be
  // contained as a crash quarantine with the worker respawned.
  {
    std::filesystem::remove_all(dir);
    const std::size_t victim = 4;
    CampaignOptions iso = base;
    iso.isolate_trials = true;
    iso.jobs = 2;
    iso.trial_fault_hook = [victim](std::size_t i) {
      if (i == victim) std::raise(SIGKILL);
    };
    const CampaignResult crashed = RunCampaign(spec, iso);
    if (crashed.quarantined.size() != 1 ||
        crashed.quarantined[0].index != victim)
      return Fail("isolation: crashing trial was not quarantined");
    if (crashed.quarantined[0].reason != QuarantinedTrial::Reason::kCrash)
      return Fail("isolation: quarantine reason is not crash");
    if (!SurvivorsMatch(crashed, reference, victim))
      return Fail("isolation: surviving records differ from the reference");
  }

  std::printf(
      "chaos_smoke: OK (%zu trials; durability chaos, watchdog, and fork "
      "isolation all byte-identical to the clean run)\n",
      reference.trials.size());
  std::filesystem::remove_all(dir);
  return 0;
}
