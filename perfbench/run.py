#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench harness from source, runs one or
all workloads, checks the outputs and prints every metric by name and unit.

    python3 perfbench/run.py                      # every workload, timed and traced
    python3 perfbench/run.py --workload fig6-40n --seed 3 --seconds 40 --trace 0

Each rep is its own process (own set-up, own peak RSS). --trace 0 repeats
untraced reps, each on inputs drawn from the seed and the rep index, for
--seconds and reports the interquartile mean of each end-to-end metric.
--trace 1 alternates untraced and traced reps on the seed's own inputs and
reports the per-layer metrics; a rep whose results differ from the first untraced rep,
or whose counts differ from the first traced rep, counts as failed. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exits non-zero when a check fails or the harness cannot be built.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["fig6-40n", "serve-40n", "deep-10k"]
# A run measures for at most 60 s, so a hung rep is killed well inside the
# 180 s a run may take.
REP_TIMEOUT_S = 110

END_TO_END = [  # name, unit
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
]
# Per-layer metrics that time something; every other layer metric is a
# deterministic count and must repeat exactly across traced reps.
TIMED_LAYERS = {"policy.profile_s", "engine.events_per_s", "runner.sim_ms_p50",
                "runner.sim_ms_p99"}
LAYER_UNITS = {
    "policy.profile_calls": "count", "policy.profile_s": "s",
    "policy.estimate_calls": "count", "policy.mode_calls": "count", "policy.train_s": "s",
    "dispatch.decisions": "count", "dispatch.predicate_calls": "count",
    "dispatch.predicates_per_decision": "ratio",
    "engine.events": "count", "engine.events_per_s": "1/s", "engine.spawns": "count",
    "engine.ooms": "count", "monitor.reports": "count",
    "admission.calls": "count", "admission.defers": "count", "admission.drops": "count",
    "admission.calls_per_arrival": "ratio",
    "runner.sims": "count", "race.saved_pct": "%", "runner.sim_ms_p50": "ms",
    "runner.sim_ms_p99": "ms",
    "pool.participants": "count", "pool.parallelism": "ratio", "pool.idle_core_s": "s",
    "pool.low_parallelism_reps": "count",
    "trace.overhead_pct": "%", "failed_frac": "ratio",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the harness; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no sparkmoe sources under {ROOT / 'src'}")
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (out if out.is_absolute() else ROOT / out) / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs], check=True,
                   stdout=sys.stderr)
    return build_dir / "perfbench"


def rep(binary, workload, seed, traced):
    """One harness process; returns its JSON report or a failure stub."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
                              cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return json.loads(lines[-1])
    except (subprocess.TimeoutExpired, RuntimeError, json.JSONDecodeError) as e:
        return {"sims": 1, "sims_failed": 1, "failures": [f"harness rep failed: {e}"],
                "digest": None}


def more(start, seconds, done, minimum):
    """Start another rep while one more fits in the time left."""
    elapsed = time.monotonic() - start
    return done < minimum or elapsed + elapsed / done <= seconds


def interquartile_mean(values):
    """Mean of the middle half: a rep slowed by a noisy neighbour drops out,
    and the rest average over inputs more tightly than a median does."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.mean(values[cut:len(values) - cut])


def rep_seed(seed, index):
    return (seed * 1_000_003 + index) % 2**63


def low_parallelism(r):
    """ROADMAP item 3: flag a rep that got under half its participants' cores."""
    return r["cpu_s"] / r["run_s"] < r["participants"] / 2


class Tally:
    def __init__(self):
        self.reps = 0
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, r, extra_failure=None):
        self.attempted += r["sims"]
        failures = list(r["failures"])
        if extra_failure:
            failures.append(extra_failure)
        self.failed += r["sims"] if extra_failure else r["sims_failed"]
        self.messages += failures


def run_timed(binary, workload, seed, seconds):
    tally, reps = Tally(), []
    start = time.monotonic()
    while more(start, seconds, tally.reps, 3):
        # Each rep draws its own inputs from (seed, rep index), so the result
        # averages over inputs as well as over machine noise.
        r = rep(binary, workload, rep_seed(seed, tally.reps), traced=False)
        tally.reps += 1
        tally.add(r)
        if r["digest"] is not None:
            reps.append(r)
            log(f"  rep {len(reps)}: setup {r['setup_s']:.3f} s, run {r['run_s']:.3f} s, "
                f"cpu {r['cpu_s']:.3f} s, rss {r['peak_rss_mib']:.1f} MiB, "
                f"{r['sims']} sims, digest {r['digest']}")
            if low_parallelism(r):
                log(f"  FLAG: parallelism {r['cpu_s'] / r['run_s']:.2f} is under half "
                    f"of {r['participants']} participants")
    metrics = {}
    if reps:
        for name, unit in END_TO_END:
            metrics[name] = {"value": interquartile_mean(x[name] for x in reps),
                             "unit": unit}
    return tally, metrics


def counts_of(r):
    return {k: v for k, v in r["layers"].items() if k not in TIMED_LAYERS}


def run_traced(binary, workload, seed, seconds):
    tally, plain, traced = Tally(), [], []
    start = time.monotonic()
    while more(start, seconds, tally.reps, 2):
        tally.reps += 1
        u = rep(binary, workload, seed, traced=False)
        t = rep(binary, workload, seed, traced=True)
        ref = plain[0]["digest"] if plain else u["digest"]
        tally.add(u, None if u["digest"] == ref else "untraced results differ across reps")
        why = None
        if t["digest"] != ref:
            why = "traced results differ from the untraced run"
        elif traced and counts_of(t) != counts_of(traced[0]):
            why = "traced counts differ across reps"
        tally.add(t, why)
        if u["digest"] is not None:
            plain.append(u)
        if t["digest"] is not None:
            traced.append(t)
        log(f"  pair {len(traced)}: untraced {u.get('run_s', 0):.3f} s, "
            f"traced {t.get('run_s', 0):.3f} s")
    if not plain or not traced:
        return tally, {}
    med = statistics.median
    layers = dict(traced[0]["layers"])
    for name in TIMED_LAYERS:
        layers[name] = med(x["layers"][name] for x in traced)
    run_s, cpu_s = med(x["run_s"] for x in plain), med(x["cpu_s"] for x in plain)
    participants = plain[0]["participants"]
    layers["policy.train_s"] = med(x["train_s"] for x in plain + traced)
    layers["pool.participants"] = participants
    layers["pool.parallelism"] = cpu_s / run_s
    layers["pool.idle_core_s"] = participants * run_s - cpu_s
    layers["pool.low_parallelism_reps"] = sum(low_parallelism(x) for x in plain)
    layers["trace.overhead_pct"] = 100.0 * (med(x["run_s"] for x in traced) / run_s - 1.0)
    layers["failed_frac"] = tally.failed / max(1, tally.attempted)
    metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in sorted(layers.items())}
    print(f"{workload}  {'results digest':34s} {plain[0]['digest']:>16s} (seed {seed})")
    return tally, metrics


def run_workload(binary, workload, seed, seconds, trace):
    log(f"{workload} (seed {seed}, {'traced' if trace else 'timed'}, {seconds} s)")
    if trace:
        tally, metrics = run_traced(binary, workload, seed, seconds)
    else:
        tally, metrics = run_timed(binary, workload, seed, seconds)
    for name, m in metrics.items():
        print(f"{workload}  {name:34s} {m['value']:>16.6g} {m['unit']}")
    frac = tally.failed / max(1, tally.attempted)
    print(f"{workload}  {'failed sims':34s} {frac:>16.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    for msg in tally.messages:
        print(f"{workload}  CHECK FAILED: {msg}")
    return tally, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = ap.parse_args()
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.trace is None else [args.trace]
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        for trace in traces:
            tally, m = run_workload(binary, workload, args.seed, args.seconds, trace)
            attempted += tally.attempted
            failed += tally.failed
            single = len(workloads) == 1 and len(traces) == 1
            metrics.update(m if single else {f"{workload}/{k}": v for k, v in m.items()})
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
