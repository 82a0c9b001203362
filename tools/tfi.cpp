// tfi — command-line driver for the transient-fault-injection toolkit.
//
// Each subcommand accepts only the flags listed with it; any other --flag is
// a usage error (exit 2) that prints the subcommand's options, never
// silently ignored or treated as a positional workload name.
//
//   tfi run <workload|file.s> [--cycles N] [--iters N] [--trace N]
//       run on the pipeline (default 200000 cycles, 4 iterations)
//   tfi exec <workload|file.s> [--iters N]     functional execution
//   tfi campaign <workload> [--trials N] [--latches-only] [--protect]
//                 [--flips N] [--adjacent] [--jobs N]    one injection campaign
//                 [--window N] (observation window in cycles; default 10000,
//                 env TFI_WINDOW; part of the results-cache key)
//                 [--fast-path|--no-fast-path] (inject-point snapshotting +
//                 early-convergence cutoff; fast is the default and produces
//                 byte-identical results — --no-fast-path replays every
//                 trial from its checkpoint)
//                 [--check] (per-cycle invariant checker; bypasses the cache)
//       telemetry: [--metrics-json FILE] [--prop-trace FILE]
//                  [--chrome-trace FILE] [--progress]
//                  [--events-jsonl FILE] (structured campaign event journal)
//                  [--heatmap-json FILE] [--heatmap-csv FILE] (per-field
//                  vulnerability heatmap)
//       resilience: [--checkpoint-every N] (0 disables; SIGINT drains
//                   in-flight trials, flushes the checkpoint + partial
//                   exports, and a rerun resumes from the journal)
//                   [--trial-timeout MS] (watchdog: hung trials quarantine
//                   as Trial Error; env TFI_TRIAL_TIMEOUT overrides)
//                   [--isolate-trials] (forked-worker crash containment;
//                   POSIX only)
//                   TFI_FAILPOINTS=<spec> arms the chaos failpoints
//                   (util/failpoint.h) for fault drills
//   tfi sweep [workload] [--suite default|smoke] [--axis A]
//             [--sweep-json FILE] [--sweep-csv FILE] [--json]
//       geometry sweep; also takes campaign's flags except telemetry
//   tfi soft <workload> <model> [--trials N] [--iters N]
//       Section 5 campaign (default 8 iterations)
//   tfi inventory [--protect]                   Table 1 state listing
//       audit: [--json] [--coverage] [--check --baseline FILE]
//              [--write-baseline --baseline FILE]
//   tfi statelint --src DIR [--allow FILE] [--no-runtime] [--list]
//       injection-surface lint: every mutable member of a registry-backed
//       class must be a registered StateField or an audited exception
//   tfi asmlint [unit|file.s ...] [--allow FILE] [--dump]
//       static program lint (CFG, dataflow, stack discipline) of workloads
//       and .s files; all workloads when none is named
//       [--harden cfc|dup|full]  also statically verify the hardened variant
//   tfi fuzz [--seeds N] [--seed-base N] [--cycles N] [--shape S] [--print]
//            [--rob N] [--sched N] [--lq N] [--sq N] [--pregs N]
//            [--no-check] [--no-shrink] [--quiet]
//       differential fuzzing: generated programs on the core in lockstep
//       with the functional simulator (default 25 seeds per shape, 15000
//       cycles); failing cases are shrunk. TFI_SMOKE_SEEDS overrides --seeds.
//   tfi cosim [--cycles N] [--workload W] [--no-check]
//       every workload in lockstep with the functional simulator (default
//       20000 cycles)
//   tfi workloads                               list the suite
//   tfi version                                 build configuration
//
// Exit codes: 0 success; 1 an error, or a check that found problems (lint
// findings, fuzz or cosim failures, inventory drift); 2 usage error; 130
// SIGINT (partial results checkpointed); 3 the --isolate-trials
// worker-restart budget was exhausted (remaining trials quarantined, result
// not cached; rerun to resume).
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/asm/asmlint.h"
#include "analyze/inventory.h"
#include "analyze/statelint.h"
#include "arch/functional_sim.h"
#include "check/fuzz_harness.h"
#include "inject/campaign.h"
#include "inject/report.h"
#include "inject/sweep.h"
#include "obs/chrome_trace.h"
#include "obs/events.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "soft/harden.h"
#include "soft/soft_inject.h"
#include "uarch/core.h"
#include "util/argparse.h"
#include "util/cancel.h"
#include "util/env.h"
#include "util/failpoint.h"
#include "workloads/workloads.h"

// Active sanitizer configuration, stamped in by CMake from TFI_SANITIZE so
// campaign records always say which instrumentation produced them.
#ifndef TFI_SANITIZE_NAME
#define TFI_SANITIZE_NAME "off"
#endif

namespace tfsim {
namespace {

// SIGINT requests cooperative cancellation: the campaign drains in-flight
// trials, flushes its checkpoint journal, and CmdCampaign still writes the
// partial telemetry exports before exiting with 130. A second Ctrl-C kills
// the process the traditional way (the handler restores SIG_DFL).
CancellationToken g_interrupt;

extern "C" void HandleSigint(int) {
  g_interrupt.Request();
  std::signal(SIGINT, SIG_DFL);
}

// Every subcommand's options. Each subcommand binds only the fields it reads
// (its *Flags function); a *Flags function that needs another default sets
// it before binding (fuzz and cosim --cycles, soft --iters).
struct Args {
  std::vector<std::string> positional;
  std::int64_t cycles = 200000;
  std::int64_t trials = 300;
  std::int64_t iters = 4;
  std::int64_t trace = 0;
  std::int64_t flips = 1;
  std::int64_t jobs = 1;
  std::int64_t checkpoint_every = 250;
  std::int64_t trial_timeout = 0;  // ms; 0 = no watchdog
  bool isolate_trials = false;
  std::int64_t window = 0;  // 0 = GoldenSpec default (or TFI_WINDOW)
  bool fast_path = false;   // accepted for symmetry; fast is the default
  bool no_fast_path = false;
  bool latches_only = false;
  bool protect = false;
  bool adjacent = false;
  // Telemetry exports (campaign).
  std::string metrics_json;
  std::string prop_trace;
  std::string chrome_trace;
  std::string events_jsonl;
  std::string heatmap_json;
  std::string heatmap_csv;
  bool progress = false;
  bool check = false;
  // Geometry sweep (sweep).
  std::string suite = "default";
  std::string axis;
  std::string sweep_json;
  std::string sweep_csv;
  // Static lints (statelint, asmlint).
  std::string src;
  std::string allow;
  std::string harden;
  bool no_runtime = false;
  bool list = false;
  bool dump = false;
  // Inventory audit (inventory).
  bool json = false;
  bool coverage = false;
  bool write_baseline = false;
  std::string baseline;
  // Lockstep checks (fuzz, cosim). Geometry overrides: 0 keeps the
  // CoreConfig default.
  std::int64_t seeds = 25;
  std::int64_t seed_base = 0;
  std::string shape;
  std::string workload;
  std::int64_t rob = 0, sched = 0, lq = 0, sq = 0, pregs = 0;
  bool no_check = false;
  bool no_shrink = false;
  bool print = false;
  bool quiet = false;
};

void RunFlags(ArgParser& p, Args& a) {
  p.AddInt("cycles", &a.cycles, "pipeline cycles to run (default 200000)");
  p.AddInt("iters", &a.iters, "workload iterations (default 4)");
  p.AddInt("trace", &a.trace, "dump the last N pipeline cycles");
}

void ExecFlags(ArgParser& p, Args& a) {
  p.AddInt("iters", &a.iters, "workload iterations (default 4)");
}

// The injection spec and trial-loop options shared by campaign and sweep.
void InjectionFlags(ArgParser& p, Args& a) {
  p.AddInt("trials", &a.trials, "injection trials (per point for sweep)");
  p.AddFlag("latches-only", &a.latches_only, "inject latches only, not RAMs");
  p.AddFlag("protect", &a.protect,
            "enable the Section 4 protection mechanisms");
  p.AddInt("flips", &a.flips, "bits flipped per trial");
  p.AddFlag("adjacent", &a.adjacent, "extra flips hit adjacent bits");
  p.AddInt("window", &a.window,
           "trial observation window in cycles; 0 = default 10000 or "
           "TFI_WINDOW (part of the results-cache key)");
  p.AddInt("jobs", &a.jobs,
           "trial-loop worker threads; 0 = all hardware threads");
  p.AddInt("checkpoint-every", &a.checkpoint_every,
           "flush a resume journal every N trials; 0 disables");
  p.AddInt("trial-timeout", &a.trial_timeout,
           "watchdog deadline per trial in ms; hung trials quarantine as "
           "Trial Error instead of stalling a worker; 0 disables "
           "(TFI_TRIAL_TIMEOUT overrides)");
  p.AddFlag("isolate-trials", &a.isolate_trials,
            "run trials in forked worker subprocesses so a crashing trial "
            "is contained, recorded and the campaign continues (POSIX only)");
  p.AddFlag("fast-path", &a.fast_path,
            "inject-point snapshotting + early-convergence cutoff (the "
            "default — results are byte-identical either way)");
  p.AddFlag("no-fast-path", &a.no_fast_path,
            "replay every trial from its checkpoint instead");
  p.AddFlag("progress", &a.progress, "periodic trials/sec progress lines");
  p.AddFlag("check", &a.check,
            "run trials with the per-cycle invariant checker; violations "
            "quarantine the trial (bypasses the results cache)");
}

void CampaignFlags(ArgParser& p, Args& a) {
  InjectionFlags(p, a);
  p.AddStr("metrics-json", &a.metrics_json, "metrics registry export path");
  p.AddStr("prop-trace", &a.prop_trace, "propagation-trace JSONL path");
  p.AddStr("chrome-trace", &a.chrome_trace, "chrome trace-event export path");
  p.AddStr("events-jsonl", &a.events_jsonl,
           "structured campaign event journal path (JSONL)");
  p.AddStr("heatmap-json", &a.heatmap_json,
           "per-field vulnerability heatmap JSON path");
  p.AddStr("heatmap-csv", &a.heatmap_csv,
           "per-field vulnerability heatmap CSV path");
}

void SweepFlags(ArgParser& p, Args& a) {
  InjectionFlags(p, a);
  p.AddStr("suite", &a.suite,
           "geometry suite: default (all axes) or smoke (3 points)");
  p.AddStr("axis", &a.axis,
           "restrict the sweep to one axis: rob, sched, lsq, pregs, width");
  p.AddStr("sweep-json", &a.sweep_json,
           "vulnerability-vs-utilization curves JSON path; '-' = stdout");
  p.AddStr("sweep-csv", &a.sweep_csv,
           "per-point per-structure CSV path; '-' = stdout");
  p.AddFlag("json", &a.json, "sweep curves JSON on stdout");
}

void SoftFlags(ArgParser& p, Args& a) {
  a.iters = 8;
  p.AddInt("trials", &a.trials, "injection trials");
  p.AddInt("iters", &a.iters, "workload iterations (default 8)");
}

void InventoryFlags(ArgParser& p, Args& a) {
  p.AddFlag("protect", &a.protect,
            "enable the Section 4 protection mechanisms");
  p.AddFlag("json", &a.json, "emit the canonical audit JSON");
  p.AddFlag("coverage", &a.coverage, "per-mechanism protection coverage");
  p.AddFlag("check", &a.check, "compare against --baseline; fail on drift");
  p.AddStr("baseline", &a.baseline,
           "pinned inventory JSON for --check/--write-baseline");
  p.AddFlag("write-baseline", &a.write_baseline,
            "regenerate the pinned --baseline file");
}

void StatelintFlags(ArgParser& p, Args& a) {
  p.AddStr("src", &a.src, "directory of pipeline sources to lint");
  p.AddStr("allow", &a.allow, "allowlist of audited exceptions");
  p.AddFlag("no-runtime", &a.no_runtime,
            "skip the live-registry cross-check (pure static run)");
  p.AddFlag("list", &a.list, "dump the extracted classes and allocations");
}

void AsmlintFlags(ArgParser& p, Args& a) {
  p.AddStr("allow", &a.allow, "allowlist of audited exceptions");
  p.AddStr("harden", &a.harden,
           "also verify the hardened variant: cfc, dup or full");
  p.AddFlag("dump", &a.dump, "print each unit's lifted disassembly");
}

void FuzzFlags(ArgParser& p, Args& a) {
  a.cycles = 15000;
  p.AddInt("seeds", &a.seeds, "seeds per shape (default 25)");
  p.AddInt("seed-base", &a.seed_base, "first seed value");
  p.AddInt("cycles", &a.cycles, "lockstep cycles per case (default 15000)");
  p.AddStr("shape", &a.shape, "only this shape (mixed|alu|store|branch|mem)");
  p.AddInt("rob", &a.rob, "ROB entries (0 = default)");
  p.AddInt("sched", &a.sched, "scheduler entries (0 = default)");
  p.AddInt("lq", &a.lq, "load-queue entries (0 = default)");
  p.AddInt("sq", &a.sq, "store-queue entries (0 = default)");
  p.AddInt("pregs", &a.pregs, "physical registers (0 = default)");
  p.AddFlag("no-check", &a.no_check, "disable the invariant checker");
  p.AddFlag("no-shrink", &a.no_shrink, "skip shrinking failing cases");
  p.AddFlag("print", &a.print, "echo each generated program");
  p.AddFlag("quiet", &a.quiet, "only report failures and the final tally");
}

void CosimFlags(ArgParser& p, Args& a) {
  a.cycles = 20000;
  p.AddInt("cycles", &a.cycles,
           "lockstep cycles per workload (default 20000)");
  p.AddStr("workload", &a.workload, "run only this workload");
  p.AddFlag("no-check", &a.no_check,
            "disable the per-cycle invariant checker");
}

void NoFlags(ArgParser&, Args&) {}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Opens `path` for writing, exiting with a diagnostic on failure.
std::ofstream OpenExport(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  return out;
}

// Loads a program: a workload name from the suite, or a .s assembly file.
Program LoadProgram(const std::string& what, std::uint64_t iters) {
  if (what.size() > 2 && what.substr(what.size() - 2) == ".s")
    return Assemble(ReadFile(what));
  return BuildWorkload(WorkloadByName(what), iters);
}

// Reads an allowlist of audited lint exceptions; no path means none.
std::vector<analyze::AllowEntry> ReadAllowlist(const std::string& path) {
  std::vector<analyze::AllowEntry> allow;
  std::string error;
  if (!path.empty() && !analyze::ParseAllowlist(ReadFile(path), &allow, &error))
    throw std::runtime_error(error);
  return allow;
}

// `tfi statelint`: the injection-surface lint over the C++ sources in
// --src, cross-checked against a live fully-protected core's registry.
int CmdStatelint(const Args& a) {
  if (a.src.empty()) {
    std::fprintf(stderr, "tfi statelint: missing --src\n");
    return 2;
  }
  std::vector<std::string> sources;
  for (const auto& entry : std::filesystem::directory_iterator(a.src)) {
    const std::string ext = entry.path().extension().string();
    if (entry.is_regular_file() &&
        (ext == ".h" || ext == ".cpp" || ext == ".cc" || ext == ".hpp"))
      sources.push_back(entry.path().string());
  }
  if (sources.empty())
    throw std::runtime_error("no sources under " + a.src);
  std::sort(sources.begin(), sources.end());
  const analyze::CppModel model = analyze::ParseCppFiles(sources);
  std::vector<analyze::AllowEntry> allow = ReadAllowlist(a.allow);

  if (a.list) {
    for (const analyze::CppClass& c : model.classes) {
      std::printf("class %s (%s:%d)%s\n", c.name.c_str(), c.file.c_str(),
                  c.line, c.registry_ctor ? " [registry ctor]" : "");
      for (const analyze::CppMember& m : c.members)
        std::printf("  %-24s %s%s%s%s\n", m.name.c_str(), m.type.c_str(),
                    m.is_state_field ? " [field]" : "",
                    m.is_static ? " [static]" : "",
                    m.is_const ? " [const]" : "");
    }
    for (const analyze::CppAllocation& al : model.allocations)
      std::printf("alloc %-28s %s.%s cat=%s storage=%s count=%s width=%s\n",
                  (al.name_is_suffix ? "*" + al.reg_name : al.reg_name).c_str(),
                  al.class_name.c_str(), al.member.c_str(), al.cat.c_str(),
                  al.storage.c_str(), al.count_expr.c_str(),
                  al.width_expr.c_str());
  }

  analyze::LintOptions opt;
  std::vector<StateRegistry::FieldInfo> runtime;
  if (!a.no_runtime) {
    // Fully-protected configuration so conditionally-allocated fields
    // (parity, ECC, timeout counter) are present for the cross-check.
    CoreConfig cfg;
    cfg.protect = ProtectionConfig::All();
    runtime = Core(cfg, Program{}).registry().Fields();
    opt.runtime_fields = &runtime;
  }
  const auto findings = analyze::RunStateLint(model, allow, opt);
  for (const analyze::Finding& f : findings)
    std::fprintf(stderr, "%s\n", f.Format().c_str());
  if (!findings.empty()) {
    std::fprintf(stderr, "statelint: %zu finding(s)\n", findings.size());
    return 1;
  }
  std::printf(
      "statelint: %zu classes, %zu allocations, %zu allowlisted "
      "exceptions — injection surface verified\n",
      model.classes.size(), model.allocations.size(), allow.size());
  return 0;
}

// `tfi asmlint`: the static program lint, sharing LoadProgram's
// workload-or-.s-file convention.
int CmdAsmlint(const Args& a) {
  std::vector<std::string> units = a.positional;
  if (units.empty())
    for (const auto& w : AllWorkloads()) units.push_back(w.name);
  std::vector<analyze::AllowEntry> allow = ReadAllowlist(a.allow);

  std::optional<HardenMode> mode;
  if (!a.harden.empty()) {
    if (a.harden == "cfc") mode = HardenMode::kCfc;
    else if (a.harden == "dup") mode = HardenMode::kDup;
    else if (a.harden == "full") mode = HardenMode::kFull;
    else throw std::runtime_error("unknown --harden mode: " + a.harden);
  }

  std::size_t total = 0;
  std::size_t insts = 0;
  for (const std::string& u : units) {
    const std::size_t slash = u.find_last_of('/');
    const std::string unit =
        slash == std::string::npos ? u : u.substr(slash + 1);
    const Program prog = LoadProgram(u, kCampaignIters);
    const analyze::AsmProgram lifted = analyze::Lift(prog);
    insts += lifted.insts.size();
    if (a.dump) std::fputs(analyze::DisassembleProgram(prog).c_str(), stdout);
    analyze::AsmLintOptions opt;
    opt.unit = unit;
    std::vector<analyze::AsmFinding> findings =
        analyze::RunAsmLint(lifted, allow, opt);
    if (mode) {
      const HardenedProgram hp = Harden(prog, *mode);
      const auto hf = VerifyHardened(prog, hp.program, *mode,
                                     unit + "+" + HardenModeName(*mode));
      findings.insert(findings.end(), hf.begin(), hf.end());
    }
    for (const auto& f : findings)
      std::fprintf(stderr, "%s\n", f.Format().c_str());
    total += findings.size();
  }
  // Unused allowlist entries only become findings once every unit has had
  // a chance to consume them (the file spans the whole suite).
  const auto unused = analyze::UnusedAllowFindings(allow);
  for (const auto& f : unused)
    std::fprintf(stderr, "%s\n", f.Format().c_str());
  total += unused.size();
  if (total != 0) {
    std::fprintf(stderr, "asmlint: %zu finding(s)\n", total);
    return 1;
  }
  std::printf(
      "asmlint: %zu unit(s), %zu instruction(s), %zu allowlisted "
      "exception(s) — programs verified\n",
      units.size(), insts, allow.size());
  return 0;
}

// `tfi fuzz`: generated trap-free programs of every shape (see
// src/check/progfuzz.h) through the lockstep harness, shrinking failures.
int CmdFuzz(const Args& a) {
  const std::int64_t seeds =
      std::max<std::int64_t>(1, EnvInt("TFI_SMOKE_SEEDS", a.seeds));
  std::vector<check::FuzzShape> shapes = check::AllFuzzShapes();
  if (!a.shape.empty()) {
    const auto sh = check::FuzzShapeFromName(a.shape);
    if (!sh) {
      std::fprintf(stderr,
                   "tfi fuzz: unknown --shape '%s' "
                   "(mixed|alu|store|branch|mem)\n",
                   a.shape.c_str());
      return 2;
    }
    shapes = {*sh};
  }

  check::FuzzRunOptions opt;
  opt.cycles = static_cast<std::uint64_t>(a.cycles);
  opt.check_invariants = !a.no_check;
  CoreConfig& geo = opt.core;
  if (a.rob > 0) geo.rob_entries = static_cast<int>(a.rob);
  if (a.sched > 0) geo.sched_entries = static_cast<int>(a.sched);
  if (a.lq > 0) geo.lq_entries = static_cast<int>(a.lq);
  if (a.sq > 0) geo.sq_entries = static_cast<int>(a.sq);
  if (a.pregs > 0) geo.phys_regs = static_cast<int>(a.pregs);
  if (const std::vector<ConfigIssue> issues = geo.Validate();
      !issues.empty()) {
    for (const ConfigIssue& i : issues)
      std::fprintf(stderr, "tfi fuzz: invalid geometry: %s: %s\n",
                   i.field.c_str(), i.message.c_str());
    return 2;
  }

  int failures = 0;
  int cases = 0;
  std::uint64_t total_retired = 0;
  for (const check::FuzzShape sh : shapes) {
    for (std::int64_t s = 0; s < seeds; ++s) {
      const long long id = static_cast<long long>(a.seed_base + s);
      const check::FuzzProgram prog = check::GenerateFuzzProgram(
          static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ULL + 17, sh);
      if (a.print)
        std::printf("--- shape=%s seed=%lld ---\n%s\n",
                    check::FuzzShapeName(sh), id, prog.Source().c_str());
      const check::FuzzCaseResult r =
          check::RunLockstep(Assemble(prog.Source()), opt);
      ++cases;
      total_retired += r.retired;
      if (r.ok) {
        if (!a.quiet)
          std::printf("[%-6s seed %4lld] ok: %llu retires compared\n",
                      check::FuzzShapeName(sh), id,
                      (unsigned long long)r.retired);
        continue;
      }
      ++failures;
      std::printf("[%-6s seed %4lld] FAIL: %s\n", check::FuzzShapeName(sh),
                  id, r.failure.c_str());
      if (a.no_shrink) continue;
      const check::ShrinkResult sr = check::ShrinkFailure(prog, opt);
      const auto kept = std::count(sr.enabled.begin(), sr.enabled.end(), true);
      std::printf(
          "  shrunk to %zu/%zu blocks in %d runs; failure: %s\n"
          "--- shrunk reproducer ---\n%s-------------------------\n",
          static_cast<std::size_t>(kept), sr.enabled.size(), sr.runs,
          sr.failure.c_str(), sr.source.c_str());
    }
  }
  std::printf("fuzz: %d/%d cases failed, %llu retires compared%s\n", failures,
              cases, (unsigned long long)total_retired,
              a.no_check ? " (invariant checker off)" : "");
  return failures ? 1 : 0;
}

// `tfi cosim`: every workload through the same lockstep harness, with the
// per-cycle invariant checker on unless --no-check.
int CmdCosim(const Args& a) {
  check::FuzzRunOptions opt;
  opt.cycles = static_cast<std::uint64_t>(a.cycles);
  opt.check_invariants = !a.no_check;
  int failures = 0;
  for (const auto& w : AllWorkloads()) {
    if (!a.workload.empty() && w.name != a.workload) continue;
    const check::FuzzCaseResult r =
        check::RunLockstep(BuildWorkload(w, kCampaignIters), opt);
    if (!r.ok) {
      std::printf("[%s] %s\n", w.name.c_str(), r.failure.c_str());
      ++failures;
    }
    const CoreStats& st = r.stats;
    std::printf(
        "[%-7s] %s: retired=%llu cycles=%llu IPC=%.2f bp=%.1f%% "
        "d$miss=%llu repl=%llu viol=%llu\n",
        w.name.c_str(), r.ok ? "OK" : "FAIL", (unsigned long long)st.retired,
        (unsigned long long)st.cycles, st.Ipc(),
        st.branches
            ? 100.0 * (1.0 - (double)st.mispredicts / (double)st.branches)
            : 0.0,
        (unsigned long long)st.dcache_misses, (unsigned long long)st.replays,
        (unsigned long long)st.order_violations);
  }
  return failures ? 1 : 0;
}

int CmdWorkloads(const Args&) {
  for (const auto& w : AllWorkloads())
    std::printf("%-8s %s\n", w.name.c_str(), w.description.c_str());
  return 0;
}

int CmdInventory(const Args& a) {
  // Audit modes work on the canonical JSON (deterministic byte-for-byte, so
  // it can be pinned as tools/inventory_baseline.json and diffed in review).
  if (a.json || a.check || a.write_baseline) {
    const std::string json = analyze::BuildInventoryJsonFromCores();
    if (a.json) std::fputs(json.c_str(), stdout);
    if (a.write_baseline) {
      if (a.baseline.empty())
        throw std::runtime_error("--write-baseline needs --baseline FILE");
      auto out = OpenExport(a.baseline);
      out << json;
      std::fprintf(stderr, "wrote inventory baseline to %s\n",
                   a.baseline.c_str());
    }
    if (a.check) {
      if (a.baseline.empty())
        throw std::runtime_error("inventory --check needs --baseline FILE");
      std::string message;
      if (!analyze::CheckInventoryBaseline(json, ReadFile(a.baseline),
                                           &message)) {
        std::fprintf(stderr, "tfi inventory: %s\n", message.c_str());
        return 1;
      }
      std::printf("inventory matches %s\n", a.baseline.c_str());
    }
    return 0;
  }
  CoreConfig cfg;
  if (a.protect) cfg.protect = ProtectionConfig::All();
  Core core(cfg, BuildWorkload(AllWorkloads()[0], kCampaignIters));
  if (a.coverage) {
    if (!a.protect)
      std::fprintf(stderr,
                   "note: --coverage without --protect shows what the "
                   "mechanisms would leave uncovered in this build\n");
    std::printf("%-16s %10s %10s %10s\n", "mechanism", "covered", "uncovered",
                "check bits");
    for (const auto& m :
         analyze::ComputeProtectionCoverage(core.registry().Fields())) {
      std::printf("%-16s %10llu %10llu %10llu\n", m.mechanism.c_str(),
                  (unsigned long long)m.covered_bits,
                  (unsigned long long)m.uncovered_bits,
                  (unsigned long long)m.check_bits);
      for (const auto& f : m.uncovered_fields)
        std::printf("  uncovered: %s\n", f.c_str());
    }
    return 0;
  }
  std::printf("%-14s %10s %10s\n", "category", "latch bits", "RAM bits");
  std::uint64_t lt = 0, rt = 0;
  for (int c = 0; c < kNumStateCats; ++c) {
    const auto inv = core.registry().Inventory(static_cast<StateCat>(c));
    if (inv.latch_bits + inv.ram_bits == 0) continue;
    lt += inv.latch_bits;
    rt += inv.ram_bits;
    std::printf("%-14s %10llu %10llu\n",
                StateCatName(static_cast<StateCat>(c)),
                (unsigned long long)inv.latch_bits,
                (unsigned long long)inv.ram_bits);
  }
  std::printf("%-14s %10llu %10llu\n", "total", (unsigned long long)lt,
              (unsigned long long)rt);
  return 0;
}

int CmdVersion(const Args&) {
  std::printf("tfi (transient-fault-injection toolkit)\n");
  std::printf("  sanitizer: %s\n", TFI_SANITIZE_NAME);
#ifdef NDEBUG
  std::printf("  assertions: off\n");
#else
  std::printf("  assertions: on\n");
#endif
  return 0;
}

int CmdRun(const Args& a) {
  const Program prog = LoadProgram(a.positional.at(0), a.iters);
  Core core(CoreConfig{}, prog);
  for (std::int64_t c = 0; c < a.cycles && !core.exited(); ++c) {
    if (a.trace > 0 && c >= a.cycles - a.trace) core.DumpPipeline(std::cout);
    core.Cycle();
    if (core.halted_exception() != Exception::kNone) {
      std::printf("exception: %s\n", ExceptionName(core.halted_exception()));
      return 1;
    }
  }
  const auto& st = core.stats();
  std::printf(
      "cycles=%llu retired=%llu IPC=%.2f bp=%.1f%% d$miss=%llu "
      "mispredicts=%llu flushes=%llu%s\n",
      (unsigned long long)st.cycles, (unsigned long long)st.retired, st.Ipc(),
      st.branches ? 100.0 * (1.0 - (double)st.mispredicts / (double)st.branches) : 0.0,
      (unsigned long long)st.dcache_misses,
      (unsigned long long)st.mispredicts,
      (unsigned long long)st.full_flushes,
      core.exited() ? " [exited]" : "");
  if (!core.output().empty()) {
    std::printf("output (%zu bytes):", core.output().size());
    for (std::size_t i = 0; i < core.output().size() && i < 32; ++i)
      std::printf(" %02x", core.output()[i]);
    std::printf("\n");
  }
  return 0;
}

int CmdExec(const Args& a) {
  const Program prog = LoadProgram(a.positional.at(0), a.iters);
  FunctionalSim sim(prog);
  sim.Run(1ULL << 33);
  std::printf("instructions=%llu %s exit=%llu output=%zu bytes\n",
              (unsigned long long)sim.InsnCount(),
              sim.state().exited ? "[exited]"
                                 : ExceptionName(sim.pending_exception()),
              (unsigned long long)sim.state().exit_code,
              sim.state().output.size());
  return sim.state().exited ? 0 : 1;
}

// The trial-loop options campaign and sweep share. Observation window: the
// flag wins, then TFI_WINDOW, then the GoldenSpec default; GoldenSpec::window
// is the single source of truth downstream (trial classification, fast-path
// planning, the cache key).
CampaignOptions TrialLoopOptions(const Args& a, GoldenSpec* golden) {
  const std::int64_t window = a.window > 0 ? a.window : EnvInt("TFI_WINDOW", 0);
  if (window > 0) golden->window = static_cast<std::uint64_t>(window);
  CampaignOptions opt;
  opt.jobs = static_cast<int>(a.jobs);
  opt.checkpoint_every = static_cast<int>(a.checkpoint_every);
  opt.trial_timeout_ms = a.trial_timeout;
  opt.isolate_trials = a.isolate_trials;
  opt.cancel = &g_interrupt;
  opt.obs.progress = a.progress;
  opt.check_invariants = a.check;
  opt.fast_path = !a.no_fast_path;
  return opt;
}

int CmdCampaign(const Args& a) {
  CampaignSpec spec;
  spec.workload = a.positional.at(0);
  spec.trials = static_cast<int>(a.trials);
  spec.include_ram = !a.latches_only;
  spec.flips = static_cast<int>(a.flips);
  spec.adjacent = a.adjacent;
  if (a.protect) spec.core.protect = ProtectionConfig::All();
  CampaignOptions opt = TrialLoopOptions(a, &spec.golden);

  // Observability: attach only the sinks whose export files were requested.
  obs::MetricsRegistry metrics;
  obs::ChromeTraceWriter chrome;
  if (!a.metrics_json.empty()) opt.obs.sinks.metrics = &metrics;
  if (!a.chrome_trace.empty()) opt.obs.sinks.chrome = &chrome;
  opt.obs.collect_prop_traces = !a.prop_trace.empty();

  // Event journal feeding the JSONL file sink (--progress attaches its own
  // consumer inside the campaign).
  obs::EventJournal journal;
  std::ofstream events_out;
  std::optional<obs::JsonlEventSink> events_sink;
  if (!a.events_jsonl.empty()) {
    opt.obs.events = &journal;
    events_out = OpenExport(a.events_jsonl);
    events_sink.emplace(events_out);
    journal.AddSink(&*events_sink);
  }

  std::signal(SIGINT, HandleSigint);
  const CampaignResult r = RunCampaign(spec, opt);
  std::signal(SIGINT, SIG_DFL);

  // The campaign flushed the journal before returning; detach our sink.
  if (events_sink) {
    journal.RemoveSink(&*events_sink);
    std::fprintf(stderr, "wrote %llu events to %s\n",
                 (unsigned long long)journal.emitted(),
                 a.events_jsonl.c_str());
  }

  if (!a.heatmap_json.empty() || !a.heatmap_csv.empty()) {
    const obs::VulnerabilityHeatmap hm = BuildHeatmap(r);
    if (!a.heatmap_json.empty()) {
      auto out = OpenExport(a.heatmap_json);
      hm.WriteJson(out, spec.workload);
      std::fprintf(stderr, "wrote heatmap (%zu fields) to %s\n",
                   hm.cells().size(), a.heatmap_json.c_str());
    }
    if (!a.heatmap_csv.empty()) {
      auto out = OpenExport(a.heatmap_csv);
      hm.WriteCsv(out);
      std::fprintf(stderr, "wrote heatmap CSV to %s\n", a.heatmap_csv.c_str());
    }
  }

  if (!a.metrics_json.empty()) {
    auto out = OpenExport(a.metrics_json);
    metrics.WriteJson(out);
    std::fprintf(stderr, "wrote metrics to %s\n", a.metrics_json.c_str());
  }
  if (!a.prop_trace.empty()) {
    auto out = OpenExport(a.prop_trace);
    WritePropTraceJsonl(r, out);
    std::fprintf(stderr, "wrote %zu propagation traces to %s\n",
                 r.prop_traces.size(), a.prop_trace.c_str());
  }
  if (!a.chrome_trace.empty()) {
    auto out = OpenExport(a.chrome_trace);
    chrome.WriteTo(out);
    std::fprintf(stderr,
                 "wrote chrome trace to %s (open in https://ui.perfetto.dev "
                 "or chrome://tracing)\n",
                 a.chrome_trace.c_str());
  }

  const auto o = r.ByOutcome();
  const double n = static_cast<double>(r.trials.size());
  std::printf("workload=%s trials=%zu ipc=%.2f sanitizer=%s\n",
              spec.workload.c_str(), r.trials.size(), r.golden_ipc,
              TFI_SANITIZE_NAME);
  for (int i = 0; i < kNumOutcomes; ++i)
    if (o[i] || static_cast<Outcome>(i) != Outcome::kTrialError)
      std::printf("  %-12s %5.1f%%\n", OutcomeName(static_cast<Outcome>(i)),
                  n > 0 ? 100.0 * o[i] / n : 0.0);
  const auto m = r.ByFailureMode();
  for (int i = 1; i < kNumFailureModes; ++i)
    if (m[i])
      std::printf("    %-8s %llu\n", FailureModeName(static_cast<FailureMode>(i)),
                  (unsigned long long)m[i]);
  for (const auto& q : r.quarantined)
    std::fprintf(stderr, "  quarantined trial %llu [%s]: %s\n",
                 (unsigned long long)q.index, QuarantineReasonName(q.reason),
                 q.message.c_str());
  if (r.interrupted) {
    std::fprintf(stderr,
                 "interrupted: %zu/%d trials completed%s; rerun the same "
                 "command to resume\n",
                 r.trials.size(), spec.trials,
                 a.checkpoint_every > 0 ? " (checkpoint saved)" : "");
    return 130;
  }
  if (r.containment_exhausted) {
    std::fprintf(stderr,
                 "containment exhausted: worker restart budget spent after "
                 "%llu respawns; un-run trials were quarantined and the "
                 "result was NOT cached — rerun to resume from the "
                 "checkpoint\n",
                 (unsigned long long)r.worker_restarts);
    return 3;
  }
  return 0;
}

int CmdSoft(const Args& a) {
  SoftCampaignSpec spec;
  spec.workload = a.positional.at(0);
  spec.trials = static_cast<int>(a.trials);
  spec.iters = static_cast<std::uint64_t>(a.iters);
  const std::string model = a.positional.at(1);
  bool found = false;
  for (int m = 0; m < kNumSoftFaultModels; ++m) {
    if (model == SoftFaultModelName(static_cast<SoftFaultModel>(m))) {
      spec.model = static_cast<SoftFaultModel>(m);
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown model '%s'; options:", model.c_str());
    for (int m = 0; m < kNumSoftFaultModels; ++m)
      std::fprintf(stderr, " %s", SoftFaultModelName(static_cast<SoftFaultModel>(m)));
    std::fprintf(stderr, "\n");
    return 2;
  }
  const SoftCampaignResult r = RunSoftCampaign(spec);
  for (int o = 0; o < kNumSoftOutcomes; ++o)
    std::printf("  %-11s %5.1f%%\n", SoftOutcomeName(static_cast<SoftOutcome>(o)),
                100.0 * r.Rate(static_cast<SoftOutcome>(o)).value);
  return 0;
}

// tfi sweep [workload] — geometry sensitivity sweep. Expands --suite
// (optionally restricted to --axis) into per-point campaigns run through the
// ordinary machinery, so the per-point results cache, checkpoint/resume and
// byte-identical records at any --jobs value all carry over. The exports
// join per-structure failure rates with golden-run occupancy into
// vulnerability-vs-utilization curves.
int CmdSweep(const Args& a) {
  SweepSpec spec;
  if (!a.positional.empty()) spec.workload = a.positional[0];
  spec.suite = a.suite;
  spec.trials = static_cast<int>(a.trials);
  spec.include_ram = !a.latches_only;
  spec.flips = static_cast<int>(a.flips);
  spec.adjacent = a.adjacent;
  if (a.protect) spec.base.protect = ProtectionConfig::All();
  const CampaignOptions opt = TrialLoopOptions(a, &spec.golden);

  std::signal(SIGINT, HandleSigint);
  const SweepResult r = RunSweep(spec, a.axis, opt);
  std::signal(SIGINT, SIG_DFL);

  bool exported = false;
  if (!a.sweep_json.empty() || a.json) {
    if (a.sweep_json.empty() || a.sweep_json == "-") {
      WriteSweepJson(r, std::cout);
    } else {
      auto out = OpenExport(a.sweep_json);
      WriteSweepJson(r, out);
      std::fprintf(stderr, "wrote sweep curves (%zu points) to %s\n",
                   r.points.size(), a.sweep_json.c_str());
    }
    exported = true;
  }
  if (!a.sweep_csv.empty()) {
    if (a.sweep_csv == "-") {
      WriteSweepCsv(r, std::cout);
    } else {
      auto out = OpenExport(a.sweep_csv);
      WriteSweepCsv(r, out);
      std::fprintf(stderr, "wrote sweep CSV to %s\n", a.sweep_csv.c_str());
    }
    exported = true;
  }
  if (!exported) {
    std::printf("suite=%s%s%s workload=%s trials/point=%d sanitizer=%s\n",
                spec.suite.c_str(), a.axis.empty() ? "" : " axis=",
                a.axis.c_str(), spec.workload.c_str(), spec.trials,
                TFI_SANITIZE_NAME);
    for (const SweepPointResult& p : r.points) {
      std::printf("  %-10s ipc=%.2f failures=%5.1f%%%s\n",
                  p.point.label.c_str(), p.golden_ipc, 100.0 * p.failure_rate,
                  p.from_cache ? "  (cached)" : "");
      for (const StructureCell& c : p.structures)
        if (c.utilization >= 0.0)
          std::printf("    %-6s util=%5.1f%% vuln=%5.1f%% trials=%llu\n",
                      c.structure.c_str(), 100.0 * c.utilization,
                      100.0 * c.vulnerability, (unsigned long long)c.trials);
    }
  }
  if (r.interrupted) {
    std::fprintf(stderr,
                 "interrupted: %zu point(s) completed; rerun the same "
                 "command to resume from the checkpoint\n",
                 r.points.size());
    return 130;
  }
  return 0;
}

struct Command {
  const char* name;
  const char* operands;  // positional synopsis for the usage line
  std::size_t min_positional;
  std::size_t max_positional;
  void (*flags)(ArgParser&, Args&);
  int (*run)(const Args&);
};

constexpr std::size_t kAny = static_cast<std::size_t>(-1);

constexpr Command kCommands[] = {
    {"run", "<workload|file.s>", 1, 1, RunFlags, CmdRun},
    {"exec", "<workload|file.s>", 1, 1, ExecFlags, CmdExec},
    {"campaign", "<workload>", 1, 1, CampaignFlags, CmdCampaign},
    {"sweep", "[workload]", 0, 1, SweepFlags, CmdSweep},
    {"soft", "<workload> <model>", 2, 2, SoftFlags, CmdSoft},
    {"inventory", "", 0, 0, InventoryFlags, CmdInventory},
    {"statelint", "", 0, 0, StatelintFlags, CmdStatelint},
    {"asmlint", "[unit|file.s ...]", 0, kAny, AsmlintFlags, CmdAsmlint},
    {"fuzz", "", 0, 0, FuzzFlags, CmdFuzz},
    {"cosim", "", 0, 0, CosimFlags, CmdCosim},
    {"workloads", "", 0, 0, NoFlags, CmdWorkloads},
    {"version", "", 0, 0, NoFlags, CmdVersion},
};

// Without a subcommand: the list of subcommands. With one: its flags.
int Usage(const Command* cmd) {
  if (!cmd) {
    std::string names;
    for (const Command& c : kCommands) {
      if (!names.empty()) names += '|';
      names += c.name;
    }
    std::fprintf(stderr,
                 "usage: tfi <%s> ...\nsee the header of tools/tfi.cpp for "
                 "each subcommand's options\n",
                 names.c_str());
    return 2;
  }
  Args dummy;
  ArgParser p;
  cmd->flags(p, dummy);
  std::fprintf(stderr, "usage: tfi %s%s%s\n", cmd->name,
               *cmd->operands ? " " : "", cmd->operands);
  const std::string help = p.Help();
  if (!help.empty()) std::fprintf(stderr, "options:\n%s", help.c_str());
  return 2;
}

}  // namespace
}  // namespace tfsim

int main(int argc, char** argv) {
  using namespace tfsim;
  if (argc < 2) return Usage(nullptr);
  const std::string name =
      std::strcmp(argv[1], "--version") == 0 ? "version" : argv[1];
  const Command* cmd = nullptr;
  for (const Command& c : kCommands)
    if (name == c.name) cmd = &c;
  if (!cmd) {
    std::fprintf(stderr, "tfi: unknown subcommand '%s'\n", name.c_str());
    return Usage(nullptr);
  }
  Args args;
  ArgParser parser;
  cmd->flags(parser, args);
  if (!parser.Parse(argc, argv, /*begin=*/2)) {
    std::fprintf(stderr, "tfi %s: %s\n", cmd->name, parser.error().c_str());
    return Usage(cmd);
  }
  args.positional = parser.positional();
  if (args.positional.size() < cmd->min_positional ||
      args.positional.size() > cmd->max_positional) {
    std::fprintf(stderr, "tfi %s: wrong number of operands\n", cmd->name);
    return Usage(cmd);
  }
  // Chaos failpoints are armed exclusively by TFI_FAILPOINTS (fault drills);
  // without it this is one env read and the per-site probes stay a single
  // relaxed atomic load.
  if (const int sites = fail::ConfigureFromEnv(); sites > 0)
    std::fprintf(stderr, "tfi: %d failpoint(s) armed from TFI_FAILPOINTS\n",
                 sites);
  try {
    return cmd->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tfi %s: %s\n", cmd->name, e.what());
    return 1;
  }
}
