#!/usr/bin/env python3
"""tfsim benchmark: fault-injection campaign throughput and latency.

Run from the repository root:

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (closed loop: one process issues one campaign at a time):
  campaign_suite   {gzip, gcc, mcf} x {latches+RAMs, latches-only}, stock
                   specs, tfi campaign's default options, 4 workers
                   (Figures 3-5).
  protected_dense  one gcc campaign with all four Section 4 mechanisms,
                   400 trials, 1 worker (Figure 9). Not listed in
                   BENCHMARK.json: its campaign time depends on which trials
                   the seed draws (a few window-long simulations dominate),
                   3.6-5.8 s across five seeds, a spread no bound allows.
  soft_models      the six architectural fault models on {vortex, gcc}
                   through RunSoftCampaign (Figure 11).

The script builds the tfsim library and perfbench/tfbench.cpp with CMake
(RelWithDebInfo, the repository's default) under $CARGO_TARGET_DIR or
.bench_build, runs the workload, checks every result and prints a report
whose last line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones; the traced run's call spans are written to
<build dir>/spans/ and every result, with its environment stamp, to
<build dir>/results/.

Each pass of a run draws fresh trials from its own campaign seed, derived
from --seed (pass 0 uses --seed itself), so one run averages over as many
distinct trials as its time allows.

Correctness: every pass runs against a fresh, empty private cache
directory, and every campaign must have run live. At the paper seeds
(20040628 for campaigns, 5 for soft campaigns, the default) each
campaign's record digest must match perfbench/reference.json, and a traced
run also checks the exact golden cycles, simulated trial cycles and
fast-classified trial counts there. At any other seed the call-by-call
replay of the first pass, which must give byte-identical records, is the
check. A failing pass counts all its trials as failed.

tfbench refuses to time a sanitizer or unoptimised build (exit code 3); to
see that, configure perfbench/CMakeLists.txt by hand with -DTFI_SANITIZE=
address or -DCMAKE_BUILD_TYPE=Debug and run the binary.

  python3 perfbench/run.py --workload NAME --write-reference

regenerates NAME's reference digests; do that only for a deliberate model
change.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
PAPER_SEED = {"campaign_suite": 20040628, "protected_dense": 20040628,
              "soft_models": 5}
RUN_LIMIT_S = 170  # a run must exit within 180 s
MAX_PASSES = 24  # tfbench's kMaxPasses: passes with reference digests


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds tfbench; returns (build dir, binary)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no tfsim sources (src/CMakeLists.txt) under the current "
             "directory; run from the repository root")
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    bdir = base / "perfbench"
    # Compiler and benchmark temporaries stay inside the checkout too.
    (bdir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(bdir / "tmp")
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "-j",
                  str(min(os.cpu_count() or 1, 4))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return bdir, bdir / "tfbench"


def source_digest():
    """sha256 over the library and benchmark sources (the checkout need not
    be a git repository, so this identifies the code when no commit does)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".h", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def tail_percentile(n):
    """Highest whole percentile that leaves at least ten of n samples beyond
    it; 100 (the maximum) when no percentile above the median does."""
    if n < 20:
        return 100
    return math.floor(100 * (n - 10) / n)


CALL_FIELDS = ("trials", "digest", "record_cycles", "golden_dcache_misses")
REPLAY_FIELDS = ("golden_cycles", "sim_cycles", "fast_trials")


def check(data, ref):
    """Returns (attempted, failed, problems). A pass fails when any of its
    campaigns did not run live, differs from its reference entry, or fails
    its replay. Without a reference (any seed but the paper seed) the replay
    is the record check."""
    passes = data["passes"]
    problems, bad_passes = [], set()
    for i, p in enumerate(passes):
        want_pass = None
        if ref is not None:
            want_pass = ref["passes"][i] if i < len(ref["passes"]) else {}
        for c in p["calls"]:
            why = []
            if not c["cold"]:
                why.append("did not run live against an empty private cache")
            if want_pass is not None:
                want = want_pass.get(c["label"])
                if want is None:
                    why.append("has no reference entry")
                else:
                    why += [f"{k} {c[k]} != {want[k]}" for k in CALL_FIELDS
                            if c[k] != want[k]]
            if why:
                bad_passes.add(i)
                problems.append(f"pass {i} {c['label']}: " + "; ".join(why))
    for r in data["replay"]:
        why = [] if r["equal"] else ["replayed records differ from the live run"]
        if ref is not None and "golden_cycles" in r:
            want = ref["replay"].get(r["label"], {})
            why += [f"{k} {r[k]} != {want.get(k)}" for k in REPLAY_FIELDS
                    if r[k] != want.get(k)]
        if why:
            bad_passes.add(r["pass"])
            problems.append(f"replay {r['label']}: " + "; ".join(why))
    attempted = failed = 0
    for i, p in enumerate(passes):
        for c in p["calls"]:
            attempted += c["trials"]
            failed += c["trials"] if i in bad_passes else c["quarantined"]
    return attempted, failed, problems


def end_to_end(data):
    passes = data["passes"]
    walls = [c["wall_s"] for p in passes for c in p["calls"]]
    by_label = {}
    for p in passes:
        for c in p["calls"]:
            by_label.setdefault(c["label"], []).append(c["wall_s"])
    pct = tail_percentile(data["min_calls"])
    values = {
        "setup_s": statistics.median(data["setup_s"]),
        "trials_per_s": statistics.median(
            sum(c["trials"] for c in p["calls"]) / p["wall_s"]
            for p in passes),
        # The median campaign's median call. The calls fall in clusters by
        # program, and a plain median over all of them sits in the gap
        # between two clusters, where it jumps from run to run.
        "campaign_s_p50": statistics.median(
            statistics.median(v) for v in by_label.values()),
        "campaign_s_tail": max(walls) if pct == 100 else statistics.quantiles(
            walls, n=100, method="inclusive")[pct - 1],
        "peak_rss_mb": data["peak_rss_kb"] / 1024,
    }
    beyond = sum(1 for w in walls if w > values["campaign_s_tail"])
    notes = {
        "setup_s": f"median of {len(data['setup_s'])} set-ups",
        "trials_per_s": f"median over {len(passes)} passes",
        "campaign_s_p50": (f"median over {len(by_label)} campaigns of "
                           f"each one's median call, n={len(walls)}"),
        "campaign_s_tail": (f"p{pct} of n={len(walls)}, {beyond} beyond"
                            if pct < 100 else
                            f"max of n={len(walls)}: too few calls for a "
                            "percentile with 10 beyond"),
        "peak_rss_mb": "getrusage ru_maxrss after the timed passes",
    }
    return values, notes


def outcome_mix(data):
    total = {}
    for p in data["passes"]:
        for c in p["calls"]:
            for name, n in c["outcomes"].items():
                total[name] = total.get(name, 0) + n
    n = sum(total.values()) or 1
    return " | ".join(f"{k} {100 * v / n:.1f}%" for k, v in total.items())


def write_reference(exe, scratch, workload):
    """Records the paper seed's digests for every pass a run can make, and
    the exact counts of the first pass's replay."""
    seed = PAPER_SEED[workload]
    untraced = run_tfbench(exe, scratch, workload, seed, 0, 0, passes=MAX_PASSES)
    traced = run_tfbench(exe, scratch, workload, seed, 0, 1)
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    refs[workload] = {
        "seed": seed,
        "passes": [{c["label"]: {k: c[k] for k in CALL_FIELDS}
                    for c in p["calls"]} for p in untraced["passes"]],
        "replay": {r["label"]: {k: r[k] for k in REPLAY_FIELDS if k in r}
                   for r in traced["replay"]},
    }
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workload} reference digests for "
          f"{len(untraced['passes'])} passes to {REFERENCE.relative_to(ROOT)}")


def run_tfbench(exe, scratch, workload, seed, seconds, trace, spans=None,
                passes=0, timeout=None):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(scratch), "--passes", str(passes)]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("tfbench did not finish in time", 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"tfbench exited with {proc.returncode}", proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PAPER_SEED))
    ap.add_argument("--seed", type=int, help="workload seed (default: the "
                    "paper seed, the only one with reference digests)")
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    seed = PAPER_SEED[args.workload] if args.seed is None else args.seed
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bdir, exe = build()
    start = time.monotonic()  # a first run's build may take longer
    scratch = bdir / f"scratch-{os.getpid()}"
    if args.write_reference:
        write_reference(exe, scratch, args.workload)
        return
    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    spans = None
    if args.trace:
        (bdir / "spans").mkdir(exist_ok=True)
        spans = bdir / "spans" / (tag + ".jsonl")
    data = run_tfbench(exe, scratch, args.workload, seed, args.seconds,
                       args.trace, spans=spans,
                       timeout=max(RUN_LIMIT_S - (time.monotonic() - start), 1))

    ref = None
    if seed == PAPER_SEED[args.workload]:
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        if args.workload not in refs:
            fail(f"no reference digests for {args.workload}")
        ref = refs[args.workload]
    attempted, failed, problems = check(data, ref)

    env = dict(data["env"], git_commit=git_commit(),
               src_sha256=source_digest())
    print(f"tfsim benchmark: workload={args.workload} seed={seed} "
          f"trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("correctness: " + (
        "digests and exact counts vs perfbench/reference.json"
        if ref is not None else
        "not the paper seed: replayed records must match the live run"))
    for p in problems:
        print("  FAILED " + p)

    if args.trace:
        values = data["layers"]
        notes = {m["name"]: "n/a: this workload does not run the layer"
                 for m in wanted if m["name"] not in values}
        for r in data["replay"]:
            print(f"  replay {r['label']}: records "
                  + ("byte-identical" if r["equal"] else "DIFFER"))
    else:
        values, notes = end_to_end(data)
    metrics = {}
    for m in wanted:
        v = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<36} {v:>14.6g} {m['unit']:<6} {note}")
    frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':<36} {frac:>14.6g} ratio  "
          f"{failed} of {attempted} trials failed")
    print("outcome mix: " + outcome_mix(data))
    print("model validity: tfsim is not validated against hardware. The "
          "paper's ~85% (pipeline) and ~88% (architectural) masking come "
          "from RTL running SPEC, not from these inputs, so the mix above "
          "is no error figure.")

    correct = failed == 0 and not problems and attempted > 0
    results = bdir / "results"
    results.mkdir(exist_ok=True)
    (results / (tag + ".json")).write_text(json.dumps(
        {"env": env, "metrics": metrics, "attempted": attempted,
         "failed": failed, "problems": problems, "raw": data}, indent=1)
        + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
