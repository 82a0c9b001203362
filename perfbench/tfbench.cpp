// Measurement core of the tfsim benchmark. perfbench/run.py builds this
// binary, runs one workload with it, and turns the JSON it prints into the
// benchmark's metrics; the JSON carries raw samples, record digests and the
// traced per-layer split, and the verdicts are left to run.py.
//
//   tfbench --workload NAME --seed N --seconds S --trace 0|1
//           --scratch DIR [--spans FILE] [--passes N]
//
// Untraced (--trace 0): repeated set-up, then closed-loop passes over the
// workload's campaigns through RunCampaign / RunSoftCampaign until S seconds
// are spent (or exactly N passes), each pass with its own campaign seed and
// against a fresh, empty cache directory under DIR. One campaign of the
// first pass is then replayed call by call to check the records against the
// live run.
//
// Traced (--trace 1): untraced passes around one with an
// obs::MetricsRegistry attached, a call-by-call replay of every campaign with
// each call timed as a span (written to FILE as JSONL), and timings of the
// uarch, protect, arch, soft and cache calls on the workload's own programs
// and specs. Every span is taken here, around public entry points; nothing
// inside the library is instrumented.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/functional_sim.h"
#include "inject/cache.h"
#include "inject/campaign.h"
#include "inject/golden.h"
#include "inject/trial.h"
#include "isa/isa.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "soft/harden.h"
#include "soft/soft_inject.h"
#include "uarch/core.h"
#include "util/rng.h"
#include "workloads/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace fs = std::filesystem;
using namespace tfsim;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Value at quantile q by linear interpolation between order statistics.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// Highest whole percentile that leaves at least ten samples beyond it, or
// the maximum when no percentile above the median does (run.py's rule).
double Tail(const std::vector<double>& v) {
  const std::size_t n = v.size();
  if (n < 20) return Quantile(v, 1.0);
  const double pct = std::floor(100.0 * static_cast<double>(n - 10) /
                                static_cast<double>(n));
  return Quantile(v, pct / 100.0);
}

// --- workloads -----------------------------------------------------------------

struct Workload {
  std::string name;
  std::vector<CampaignSpec> campaigns;  // pipeline campaigns, in pass order
  std::vector<SoftCampaignSpec> soft;   // architectural campaigns
  int jobs = 1;
  // Passes an untraced run makes even when --seconds is spent sooner, so
  // the campaign-latency percentiles always have their sample base.
  int min_passes = 1;
};

constexpr std::uint64_t kSoftIters = 8;  // tfi soft / Figure 11 size

// Campaign seed of pass k. Every pass draws fresh trials, so one run averages
// over as many distinct trials as its time allows; pass 0 runs the seed
// itself. Reference digests cover passes [0, kMaxPasses) of the paper seeds.
constexpr int kMaxPasses = 24;
std::uint64_t PassSeed(std::uint64_t seed, int k) {
  return k == 0 ? seed : Mix64(seed) + static_cast<std::uint64_t>(k);
}

Workload MakeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "campaign_suite") {
    // Figures 3-5: three behaviour-distinct programs, l+r and l populations,
    // stock specs, tfi campaign's default trial count, one worker per core.
    for (const char* prog : {"gzip", "gcc", "mcf"}) {
      for (bool ram : {true, false}) {
        CampaignSpec s;
        s.workload = prog;
        s.include_ram = ram;
        s.trials = 300;
        s.seed = seed;
        w.campaigns.push_back(s);
      }
    }
    w.jobs = 4;
    w.min_passes = 6;
  } else if (name == "protected_dense") {
    // Figure 9: all four Section 4 mechanisms, many trials per golden run.
    CampaignSpec s;
    s.workload = "gcc";
    s.core.protect = ProtectionConfig::All();
    s.include_ram = true;
    s.trials = 400;
    s.seed = seed;
    w.campaigns.push_back(s);
    w.jobs = 1;
    w.min_passes = 5;
  } else if (name == "soft_models") {
    // Figure 11: the six architectural fault models on two programs.
    for (const char* prog : {"vortex", "gcc"}) {
      for (int m = 0; m < kNumSoftFaultModels; ++m) {
        SoftCampaignSpec s;
        s.workload = prog;
        s.iters = kSoftIters;
        s.model = static_cast<SoftFaultModel>(m);
        s.trials = 100;
        s.seed = seed;
        w.soft.push_back(s);
      }
    }
    w.min_passes = 3;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::string Label(const CampaignSpec& s) {
  return s.workload + (s.core.protect.Any() ? "+protect" : "") +
         (s.include_ram ? "/l+r" : "/l");
}
std::string Label(const SoftCampaignSpec& s) {
  return s.workload + "/" + SoftFaultModelName(s.model);
}

CampaignOptions CliOptions(int jobs) {
  // tfi campaign's defaults (fast path, results cache, a checkpoint every
  // 250 trials), minus its stderr progress notes.
  CampaignOptions o;
  o.jobs = jobs;
  o.verbose = false;
  o.checkpoint_every = 250;
  return o;
}

Program SoftProgram(const std::string& workload) {
  return BuildWorkload(WorkloadByName(workload), kSoftIters,
                       /*emit_each_iteration=*/true);
}

// --- record digests ------------------------------------------------------------

// Every field of every record, in index order: the bytes the byte-identity
// checks compare and the digests hash.
std::string RecordBytes(const std::vector<TrialRecord>& recs) {
  std::string out;
  out.reserve(recs.size() * 16);
  auto u32 = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  };
  for (const TrialRecord& r : recs) {
    out.push_back(static_cast<char>(r.outcome));
    out.push_back(static_cast<char>(r.mode));
    out.push_back(static_cast<char>(r.cat));
    out.push_back(static_cast<char>(r.storage));
    u32(r.cycles);
    u32(r.valid_instrs);
    u32(r.inflight);
  }
  return out;
}

std::string Fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string SoftDigest(const SoftCampaignResult& r) {
  std::string d;
  for (std::uint64_t v : r.by_outcome) d += std::to_string(v) + ",";
  return d + std::to_string(r.state_ok_with_divergence);
}

// --- private cold cache --------------------------------------------------------

// Points TFI_CACHE_DIR at `dir`, emptied. Every pass starts here, so no
// campaign can be served by an entry from the repository's .tfi_cache or
// from an earlier pass.
void FreshCacheDir(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  if (fs::directory_iterator(dir) != fs::directory_iterator())
    throw std::runtime_error("cache directory not empty: " + dir.string());
  ::setenv("TFI_CACHE_DIR", dir.c_str(), 1);
}

std::size_t CountPrefix(const fs::path& dir, const std::string& prefix) {
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().filename().string().rfind(prefix, 0) == 0) ++n;
  return n;
}

// --- passes --------------------------------------------------------------------

// One campaign call of a pass.
struct Call {
  std::string label;
  double wall_s = 0;
  std::uint64_t trials = 0;
  std::uint64_t quarantined = 0;
  std::string digest;              // FNV-1a of RecordBytes, or soft counts
  std::uint64_t record_cycles = 0;  // sum of TrialRecord::cycles
  std::uint64_t golden_dcache_misses = 0;
  // No cache entry (or checkpoint journal) for the campaign existed when it
  // started, and its entry existed after: it ran live and read nothing from
  // disk.
  bool cold = false;
  std::vector<std::pair<std::string, std::uint64_t>> outcomes;
};

struct Pass {
  std::uint64_t seed = 0;
  double wall_s = 0;
  std::vector<Call> calls;
  std::vector<CampaignResult> results;  // kept only when asked
};

Call Describe(const CampaignResult& r) {
  Call c;
  c.label = Label(r.spec);
  c.trials = r.trials.size();
  c.quarantined = r.quarantined.size();
  c.digest = Fnv1a(RecordBytes(r.trials));
  for (const TrialRecord& t : r.trials) c.record_cycles += t.cycles;
  c.golden_dcache_misses = r.golden_dcache_misses;
  const auto o = r.ByOutcome();
  for (int i = 0; i < kNumOutcomes; ++i)
    c.outcomes.emplace_back(OutcomeName(static_cast<Outcome>(i)), o[i]);
  return c;
}

Call Describe(const SoftCampaignResult& r) {
  Call c;
  c.label = Label(r.spec);
  c.trials = r.trials;
  c.digest = SoftDigest(r);
  for (int i = 0; i < kNumSoftOutcomes; ++i)
    c.outcomes.emplace_back(SoftOutcomeName(static_cast<SoftOutcome>(i)),
                            r.by_outcome[i]);
  return c;
}

struct CampaignTimers {
  double golden_s = 0, loop_s = 0, wall_s = 0;
};

// Runs every campaign of the workload once, one call at a time, against a
// fresh cache directory. `metrics`, when set, gets a fresh registry attached
// per campaign and receives each campaign's golden/trial-loop timer totals.
Pass RunPass(const Workload& w, const fs::path& dir, bool keep_results,
             std::vector<CampaignTimers>* metrics = nullptr) {
  FreshCacheDir(dir);
  Pass pass;
  pass.seed = w.campaigns.empty() ? w.soft.front().seed
                                  : w.campaigns.front().seed;
  const auto start = Clock::now();
  for (const CampaignSpec& spec : w.campaigns) {
    const fs::path entry = dir / (spec.CacheKey() + ".txt");
    const bool absent = !fs::exists(entry) &&
                        !fs::exists(CampaignCheckpointPath(spec));
    CampaignOptions opt = CliOptions(w.jobs);
    obs::MetricsRegistry registry;
    if (metrics) opt.obs.sinks.metrics = &registry;
    const auto t0 = Clock::now();
    CampaignResult r = RunCampaign(spec, opt);
    const auto t1 = Clock::now();
    Call c = Describe(r);
    c.wall_s = Seconds(t0, t1);
    c.cold = absent && fs::exists(entry);
    if (metrics)
      metrics->push_back({registry.GetTimer("campaign.golden_record").Seconds(),
                          registry.GetTimer("campaign.trial_loop").Seconds(),
                          c.wall_s});
    pass.calls.push_back(std::move(c));
    if (keep_results) pass.results.push_back(std::move(r));
  }
  for (const SoftCampaignSpec& spec : w.soft) {
    const std::string prefix = "soft_" + spec.workload + "_" +
                               SoftFaultModelName(spec.model) + "_";
    const bool absent = CountPrefix(dir, prefix) == 0;
    const auto t0 = Clock::now();
    const SoftCampaignResult r = RunSoftCampaign(spec, /*verbose=*/false);
    const auto t1 = Clock::now();
    Call c = Describe(r);
    c.wall_s = Seconds(t0, t1);
    c.cold = absent && CountPrefix(dir, prefix) == 1;
    pass.calls.push_back(std::move(c));
  }
  pass.wall_s = Seconds(start, Clock::now());
  return pass;
}

// What a user does before the first campaign can start: build every program
// the workload runs, exactly as the campaigns build them, and prepare the
// private empty cache directory.
double SetupOnce(const Workload& w, const fs::path& dir) {
  const auto t0 = Clock::now();
  std::uint64_t sink = 0;
  for (const CampaignSpec& s : w.campaigns)
    sink += ResolveCampaignProgram(s.workload).chunks.size();
  for (const SoftCampaignSpec& s : w.soft)
    sink += SoftProgram(s.workload).chunks.size();
  FreshCacheDir(dir);
  const auto t1 = Clock::now();
  if (sink == 0) throw std::runtime_error("workload built no program");
  return Seconds(t0, t1);
}

// --- spans ---------------------------------------------------------------------

struct Span {
  std::string name;
  std::string campaign;
  double start_us = 0, dur_us = 0;
  int parent = -1;  // index into the span list, -1 for a root
};

class Spans {
 public:
  Spans() : epoch_(Clock::now()) {}
  // Opens a span; Close() records its end.
  int Open(std::string name, std::string campaign, int parent) {
    spans_.push_back({std::move(name), std::move(campaign),
                      Us(Clock::now()), 0, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  double Close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.dur_us = Us(Clock::now()) - s.start_us;
    return s.dur_us * 1e-6;
  }
  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      obs::JsonWriter j(out);
      j.BeginObject()
          .Field("id", static_cast<std::uint64_t>(i))
          .Field("parent", static_cast<std::int64_t>(s.parent))
          .Field("name", s.name)
          .Field("campaign", s.campaign)
          .Field("start_us", s.start_us)
          .Field("dur_us", s.dur_us)
          .End();
      out << '\n';
    }
  }

 private:
  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// --- call-by-call replay of a pipeline campaign --------------------------------

struct Replay {
  std::vector<TrialRecord> records;
  double plan_s = 0, golden_s = 0;
  std::vector<double> fast_s, sim_s;  // per-trial spans by path
  std::uint64_t golden_cycles = 0;
  std::uint64_t sim_cycles = 0;  // cycles simulated by non-fast trials
  std::uint64_t fast_trials = 0;
  std::uint64_t fastpath_points = 0;
  std::uint64_t golden_bytes = 0;  // checkpoints + fast-path deltas held
};

template <typename T>
std::uint64_t VecBytes(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

std::uint64_t SnapshotBytes(const Core::Snapshot& s) {
  return VecBytes(s.words) + s.mem.MappedPages() * kPageBytes +
         VecBytes(s.output) + VecBytes(s.fq_seq) + VecBytes(s.fb_seq) +
         VecBytes(s.d1_seq) + VecBytes(s.d2_seq) + VecBytes(s.rob_seq);
}

std::uint64_t DeltaBytes(const Core::SnapshotDelta& d) {
  return VecBytes(d.words) + VecBytes(d.mem) + VecBytes(d.output) +
         VecBytes(d.fq_seq) + VecBytes(d.fb_seq) + VecBytes(d.d1_seq) +
         VecBytes(d.d2_seq) + VecBytes(d.rob_seq);
}

// The steps RunCampaign takes for a cold, fast-path campaign, made one public
// call at a time: MakeTrialSpecs + PlanFastPath, RecordGolden, then
// TrialRunner::Run for each spec in index order on one runner.
Replay ReplayCampaign(const CampaignSpec& spec, Spans& spans) {
  Replay rp;
  const std::string label = Label(spec);
  const int root = spans.Open("replay", label, -1);
  const Program program = ResolveCampaignProgram(spec.workload);
  const Core probe(spec.core, program);

  int id = spans.Open("MakeTrialSpecs+PlanFastPath", label, root);
  const std::vector<TrialSpec> specs = MakeTrialSpecs(
      spec, probe.registry().InjectableBits(spec.include_ram));
  const FastPathPlan plan =
      PlanFastPath(spec.golden, specs, probe.registry());
  rp.plan_s = spans.Close(id);

  id = spans.Open("RecordGolden", label, root);
  const std::shared_ptr<const GoldenRun> golden =
      RecordGolden(spec.core, program, spec.golden, nullptr, &plan);
  rp.golden_s = spans.Close(id);
  rp.golden_cycles = golden->stats.cycles;
  rp.fastpath_points = golden->fastpath.points.size();
  for (const Core::Snapshot& s : golden->checkpoints)
    rp.golden_bytes += SnapshotBytes(s);
  for (const auto& [cycle, point] : golden->fastpath.points)
    rp.golden_bytes += DeltaBytes(point.delta);

  TrialRunner runner(golden);
  rp.records.reserve(specs.size());
  for (const TrialSpec& ts : specs) {
    id = spans.Open("TrialRunner::Run", label, root);
    const TrialRunner::Result res = runner.Run(ts);
    const double s = spans.Close(id);
    rp.records.push_back(res.record);
    if (res.fast) {
      ++rp.fast_trials;
      rp.fast_s.push_back(s);
    } else {
      rp.sim_cycles += res.record.cycles;
      rp.sim_s.push_back(s);
    }
  }
  spans.Close(root);
  return rp;
}

// --- call-by-call replay of a soft campaign ------------------------------------

bool SoftEligible(SoftFaultModel m, const DecodedInst& d) {
  switch (m) {
    case SoftFaultModel::kRegBit32:
    case SoftFaultModel::kRegBit64:
    case SoftFaultModel::kRegRandom:
      return d.dst != kNoReg;
    case SoftFaultModel::kInsnBit:
    case SoftFaultModel::kNop:
      return true;
    case SoftFaultModel::kBranchFlip:
      return d.cls == InsnClass::kCondBranch;
  }
  return false;
}

struct SoftReplay {
  SoftCampaignResult result;
  std::vector<double> trial_s;
  std::uint64_t insns = 0;
};

// RunSoftCampaign's trial draws, made one RunSoftTrial call at a time. The
// reference length and the eligible-instruction count come from a fault-free
// functional run of the same program.
SoftReplay ReplaySoft(const SoftCampaignSpec& spec, Spans& spans) {
  SoftReplay rp;
  rp.result.spec = spec;
  const std::string label = Label(spec);
  const int root = spans.Open("replay", label, -1);
  const Program program = SoftProgram(spec.workload);

  int id = spans.Open("reference", label, root);
  std::uint64_t total = 0, eligible = 0;
  {
    FunctionalSim sim(program);
    while (sim.Running()) {
      const DecodedInst d = Decode(static_cast<std::uint32_t>(
          sim.state().mem.Read(sim.state().pc, 4)));
      if (SoftEligible(spec.model, d)) ++eligible;
      sim.Step();
      ++total;
    }
  }
  spans.Close(id);

  Rng rng(spec.seed);
  for (int t = 0; t < spec.trials; ++t) {
    const std::uint64_t target = rng.NextBelow(eligible);
    const std::uint64_t seed = rng.Next();
    id = spans.Open("RunSoftTrial", label, root);
    const SoftTrialResult r = RunSoftTrial(program, spec.model, target, seed,
                                           total * spec.max_insn_factor);
    rp.trial_s.push_back(spans.Close(id));
    rp.insns += r.insns_executed;
    rp.result.by_outcome[static_cast<int>(r.outcome)]++;
    if (r.outcome == SoftOutcome::kStateOk && r.control_flow_diverged)
      ++rp.result.state_ok_with_divergence;
    ++rp.result.trials;
  }
  spans.Close(root);
  return rp;
}

// --- module timings on fixed inputs --------------------------------------------

// Bare Core::Cycle cost: `cycles` cycles after a short warm-up.
double NsPerCycle(const CoreConfig& cfg, const Program& program,
                  std::uint64_t cycles) {
  Core core(cfg, program);
  for (int i = 0; i < 2000; ++i) core.Cycle();
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < cycles; ++i) core.Cycle();
  return Seconds(t0, Clock::now()) * 1e9 / static_cast<double>(cycles);
}

double NsPerInsn(const Program& program, std::uint64_t insns) {
  FunctionalSim sim(program);
  std::uint64_t n = 0;
  const auto t0 = Clock::now();
  while (n < insns && sim.Running()) {
    sim.Step();
    ++n;
  }
  return Seconds(t0, Clock::now()) * 1e9 / static_cast<double>(n);
}

// Median microseconds of `reps` calls of f.
template <typename F>
double MedianUs(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    v.push_back(Seconds(t0, Clock::now()) * 1e6);
  }
  return Median(v);
}

// Mean microseconds per call over `reps` back-to-back calls of f, for calls
// too short to time one at a time.
template <typename F>
double MeanUs(int reps, F&& f) {
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) f();
  return Seconds(t0, Clock::now()) * 1e6 / reps;
}

void TimeUarch(const CoreConfig& cfg, std::map<std::string, double>& m) {
  Core core(cfg, ResolveCampaignProgram("gcc"));
  for (int i = 0; i < 5000; ++i) core.Cycle();
  const Core::Snapshot base = core.Save();
  for (int i = 0; i < 150; ++i) core.Cycle();
  const Core::SnapshotDelta delta = core.SaveDelta(base);
  std::uint64_t sink = 0;
  m["uarch.save_delta_us"] =
      MedianUs(200, [&] { sink += core.SaveDelta(base).words.size(); });
  m["uarch.state_hash_us"] = MeanUs(100000, [&] { sink += core.StateHash(); });
  m["uarch.arch_view_hash_us"] =
      MeanUs(20000, [&] { sink += core.ArchViewHash(); });
  m["uarch.load_us"] = MedianUs(200, [&] { core.Load(base); });
  m["uarch.load_delta_us"] =
      MedianUs(200, [&] { core.LoadDelta(base, delta); });
  if (sink == 0) std::fprintf(stderr, "(uarch timings saw only zeros)\n");
}

// --- output --------------------------------------------------------------------

void WriteCall(obs::JsonWriter& j, const Call& c) {
  j.BeginObject()
      .Field("label", c.label)
      .Field("wall_s", c.wall_s)
      .Field("trials", c.trials)
      .Field("quarantined", c.quarantined)
      .Field("digest", c.digest)
      .Field("record_cycles", c.record_cycles)
      .Field("golden_dcache_misses", c.golden_dcache_misses)
      .Field("cold", c.cold);
  j.BeginObject("outcomes");
  for (const auto& [name, n] : c.outcomes) j.Field(name, n);
  j.End().End();
}

std::uint64_t PeakRssKb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  fs::path scratch;
  std::string spans;
  int passes = 0;  // exact pass count (reference runs); 0 = time-bounded
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v), have_seed = true;
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v != "0";
    else if (k == "--scratch") a.scratch = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--passes") a.passes = std::stoi(v);
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.workload.empty() || !have_seed || a.scratch.empty())
    throw std::invalid_argument("--workload, --seed and --scratch are required");
  return a;
}

// Refuses timings from a build whose numbers would not be comparable.
const char* BuildProblem() {
  if (std::strcmp(TFI_SANITIZE_NAME, "off") != 0)
    return "a library built with a sanitizer";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a benchmark built with a sanitizer";
#endif
#ifndef __OPTIMIZE__
  return "an unoptimised build";
#endif
  return nullptr;
}

// Untraced run: timed passes, set-up samples, one replayed campaign.
void Untraced(const Args& a, const Workload& w, obs::JsonWriter& j) {
  // Closed loop: whole passes while another one still fits in the budget.
  std::vector<Pass> passes;
  const auto start = Clock::now();
  for (int k = 0; k < kMaxPasses; ++k) {
    const double spent = Seconds(start, Clock::now());
    if (a.passes > 0 ? k == a.passes
                     : k >= w.min_passes && spent + spent / k > a.seconds)
      break;
    passes.push_back(RunPass(MakeWorkload(w.name, PassSeed(a.seed, k)),
                             a.scratch / "pass", k == 0));
  }
  const std::uint64_t rss_kb = PeakRssKb();

  // Set-up is timed after the passes: a process's first milliseconds run
  // while the CPU clock ramps up, which moved its median by half between
  // otherwise identical runs.
  j.BeginArray("setup_s");
  for (int i = 0; i < 31; ++i) j.Value(SetupOnce(w, a.scratch / "setup"));
  j.End();

  // Replay one campaign of the first pass, chosen by seed, call by call.
  Spans spans;
  j.BeginArray("replay");
  if (!w.campaigns.empty()) {
    const std::size_t k = a.seed % w.campaigns.size();
    const Replay rp = ReplayCampaign(w.campaigns[k], spans);
    j.BeginObject()
        .Field("label", Label(w.campaigns[k]))
        .Field("equal", RecordBytes(rp.records) ==
                            RecordBytes(passes[0].results[k].trials))
        .Field("pass", 0)
        .End();
  } else {
    const std::size_t k = a.seed % w.soft.size();
    const SoftReplay rp = ReplaySoft(w.soft[k], spans);
    j.BeginObject()
        .Field("label", Label(w.soft[k]))
        .Field("equal", SoftDigest(rp.result) == passes[0].calls[k].digest)
        .Field("pass", 0)
        .End();
  }
  j.End();

  j.Field("peak_rss_kb", rss_kb);
  j.BeginArray("passes");
  for (const Pass& p : passes) {
    j.BeginObject().Field("seed", p.seed).Field("wall_s", p.wall_s);
    j.BeginArray("calls");
    for (const Call& c : p.calls) WriteCall(j, c);
    j.End().End();
  }
  j.End();
}

// Traced run: per-layer split of one pass.
void Traced(const Args& a, const Workload& w, obs::JsonWriter& j) {
  std::map<std::string, double> m;  // per-layer metrics
  Spans spans;

  // Untraced passes before and after the observed one: their mean wall time
  // is the base of obs.trace_overhead.
  const Pass plain = RunPass(w, a.scratch / "pass", /*keep_results=*/true);
  std::vector<CampaignTimers> timers;
  const Pass observed = RunPass(w, a.scratch / "pass", false, &timers);
  const double plain_s =
      0.5 * (plain.wall_s + RunPass(w, a.scratch / "pass", false).wall_s);

  j.BeginArray("replay");
  // Attaching the metrics registry (or, for soft campaigns, running again)
  // must leave every record unchanged.
  const char* again =
      w.campaigns.empty() ? " run again" : " with metrics attached";
  for (std::size_t k = 0; k < plain.calls.size(); ++k)
    j.BeginObject()
        .Field("label", plain.calls[k].label + again)
        .Field("equal", observed.calls[k].digest == plain.calls[k].digest)
        .Field("pass", 0)
        .End();
  if (!w.campaigns.empty()) {
    double golden = 0, loop = 0, wall = 0;
    for (const CampaignTimers& t : timers) {
      golden += t.golden_s;
      loop += t.loop_s;
      wall += t.wall_s;
    }
    m["inject.campaign.golden_s"] = golden;
    m["inject.campaign.trial_loop_s"] = loop;
    m["inject.campaign.other_s"] = wall - golden - loop;
    m["inject.campaign.golden_share"] = golden / wall;
    m["obs.trace_overhead"] = observed.wall_s / plain_s - 1.0;

    double plan_s = 0, golden_s = 0, sim_s = 0;
    std::uint64_t golden_cycles = 0, sim_cycles = 0, fast = 0, trials = 0,
                  points = 0, bytes = 0;
    std::vector<double> fast_s, sim_trial_s;
    for (std::size_t k = 0; k < w.campaigns.size(); ++k) {
      const Replay rp = ReplayCampaign(w.campaigns[k], spans);
      j.BeginObject()
          .Field("label", Label(w.campaigns[k]))
          .Field("equal", RecordBytes(rp.records) ==
                              RecordBytes(plain.results[k].trials))
          .Field("pass", 0)
          .Field("golden_cycles", rp.golden_cycles)
          .Field("sim_cycles", rp.sim_cycles)
          .Field("fast_trials", rp.fast_trials)
          .End();
      plan_s += rp.plan_s;
      golden_s += rp.golden_s;
      golden_cycles += rp.golden_cycles;
      sim_cycles += rp.sim_cycles;
      fast += rp.fast_trials;
      trials += rp.records.size();
      points += rp.fastpath_points;
      bytes += rp.golden_bytes;
      fast_s.insert(fast_s.end(), rp.fast_s.begin(), rp.fast_s.end());
      sim_trial_s.insert(sim_trial_s.end(), rp.sim_s.begin(), rp.sim_s.end());
      for (double s : rp.sim_s) sim_s += s;
    }
    m["inject.golden.record_s"] = golden_s;
    m["inject.golden.cycles"] = static_cast<double>(golden_cycles);
    m["inject.golden.ns_per_cycle"] = golden_s * 1e9 / golden_cycles;
    m["inject.golden.fastpath_points"] = static_cast<double>(points);
    m["inject.golden.bytes"] = static_cast<double>(bytes);
    m["inject.trial.plan_ms"] = plan_s * 1e3;
    m["inject.trial.trials"] = static_cast<double>(trials);
    m["inject.trial.fast_frac"] =
        static_cast<double>(fast) / static_cast<double>(trials);
    m["inject.trial.fast_us_p50"] = Median(fast_s) * 1e6;
    m["inject.trial.sim_ms_p50"] = Median(sim_trial_s) * 1e3;
    m["inject.trial.sim_ms_tail"] = Tail(sim_trial_s) * 1e3;
    m["inject.trial.sim_trials"] = static_cast<double>(sim_trial_s.size());
    m["inject.trial.sim_cycles"] = static_cast<double>(sim_cycles);
    m["inject.trial.ns_per_sim_cycle"] =
        sim_cycles ? sim_s * 1e9 / static_cast<double>(sim_cycles) : 0.0;

    // Results cache and checkpoint journal on this pass's own results.
    FreshCacheDir(a.scratch / "cache_calls");
    std::vector<double> store, load, ckpt;
    std::uint64_t cache_bytes = 0;
    for (const CampaignResult& r : plain.results) {
      store.push_back(MedianUs(5, [&] { StoreCachedCampaign(r); }));
      load.push_back(MedianUs(5, [&] {
        if (!LoadCachedCampaign(r.spec))
          throw std::runtime_error("cache entry did not load back");
      }));
      ckpt.push_back(
          MedianUs(5, [&] { StoreCampaignCheckpoint(r.spec, r.trials); }));
      cache_bytes += fs::file_size(a.scratch / "cache_calls" /
                                   (r.spec.CacheKey() + ".txt"));
    }
    m["inject.cache.store_ms"] = Median(store) * 1e-3;
    m["inject.cache.load_ms"] = Median(load) * 1e-3;
    m["inject.cache.ckpt_store_ms"] = Median(ckpt) * 1e-3;
    m["inject.cache.bytes"] = static_cast<double>(cache_bytes);
  } else {
    std::map<std::string, std::vector<double>> by_model;
    std::uint64_t insns = 0, n = 0;
    double replay_s = 0;
    for (std::size_t k = 0; k < w.soft.size(); ++k) {
      const SoftReplay rp = ReplaySoft(w.soft[k], spans);
      j.BeginObject()
          .Field("label", Label(w.soft[k]))
          .Field("equal", SoftDigest(rp.result) == plain.calls[k].digest)
          .Field("pass", 0)
          .End();
      auto& v = by_model[SoftFaultModelName(w.soft[k].model)];
      v.insert(v.end(), rp.trial_s.begin(), rp.trial_s.end());
      insns += rp.insns;
      n += rp.trial_s.size();
      for (double s : rp.trial_s) replay_s += s;
    }
    for (const auto& [model, v] : by_model)
      m["soft.trial_ms_p50." + model] = Median(v) * 1e3;
    m["soft.insns_per_trial"] = static_cast<double>(insns) / n;
    m["obs.trace_overhead"] = replay_s / plain_s - 1.0;
    // Zero-trial campaigns: program build plus the fault-free reference run.
    std::vector<double> ref;
    for (const char* prog : {"vortex", "gcc"}) {
      for (int rep = 0; rep < 3; ++rep) {
        FreshCacheDir(a.scratch / "soft_reference");
        SoftCampaignSpec s = w.soft.front();
        s.workload = prog;
        s.trials = 0;
        ref.push_back(
            MedianUs(1, [&] { RunSoftCampaign(s, /*verbose=*/false); }));
      }
    }
    m["soft.reference_ms"] = Median(ref) * 1e-3;
  }
  j.End();

  // Module timings. Cycle cost on the campaign programs (and gcc under
  // protection), instruction cost on the soft programs, snapshot and hash
  // calls on gcc under the workload's own machine configuration.
  CoreConfig plain_cfg;
  CoreConfig prot_cfg;
  prot_cfg.protect = ProtectionConfig::All();
  for (const char* prog : {"gzip", "gcc", "mcf"})
    m[std::string("uarch.ns_per_cycle.") + prog] =
        NsPerCycle(plain_cfg, ResolveCampaignProgram(prog), 20000);
  m["uarch.ns_per_cycle.gcc_protect"] =
      NsPerCycle(prot_cfg, ResolveCampaignProgram("gcc"), 20000);
  m["protect.cycle_overhead"] = m["uarch.ns_per_cycle.gcc_protect"] /
                                    m["uarch.ns_per_cycle.gcc"] -
                                1.0;
  for (const char* prog : {"gzip", "gcc", "mcf", "vortex"})
    m[std::string("arch.ns_per_insn.") + prog] =
        NsPerInsn(SoftProgram(prog), 2000000);
  const bool protected_machine =
      !w.campaigns.empty() && w.campaigns.front().core.protect.Any();
  TimeUarch(protected_machine ? prot_cfg : plain_cfg, m);

  j.BeginObject("layers");
  for (const auto& [name, v] : m) j.Field(name, v);
  j.End();
  j.BeginArray("passes");
  j.BeginObject()
      .Field("seed", plain.seed)
      .Field("wall_s", plain.wall_s)
      .BeginArray("calls");
  for (const Call& c : plain.calls) WriteCall(j, c);
  j.End().End();
  j.End();
  if (!a.spans.empty()) spans.Write(a.spans);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = ParseArgs(argc, argv);
    if (const char* problem = BuildProblem()) {
      std::fprintf(stderr, "tfbench: refusing to time %s\n", problem);
      return 3;
    }
    const Workload w = MakeWorkload(a.workload, a.seed);
    obs::JsonWriter j(std::cout);
    j.BeginObject()
        .Field("workload", a.workload)
        .Field("seed", a.seed)
        .Field("trace", a.trace)
        .Field("min_calls",
               static_cast<std::uint64_t>(w.min_passes) *
                   (w.campaigns.size() + w.soft.size()));
    j.BeginObject("env")
        .Field("build_type", PERFBENCH_BUILD_TYPE)
        .Field("compiler", PERFBENCH_COMPILER)
        .Field("compiler_version", __VERSION__)
        .Field("sanitizer", TFI_SANITIZE_NAME)
        .Field("nproc",
               static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
        .Field("jobs", w.jobs)
        .End();
    if (a.trace) Traced(a, w, j);
    else Untraced(a, w, j);
    j.End();
    std::cout << '\n';
    fs::remove_all(a.scratch);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tfbench: %s\n", e.what());
    return 1;
  }
}
