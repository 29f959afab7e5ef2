#!/usr/bin/env python3
"""Round-level benchmark of the SPATL federated-learning reproduction.

Usage (from the repository root):

  python3 bench/round/run.py [--seed S] [--out FILE]
      Full suite: builds bench_round, runs every workload as 3 processes
      interleaved rep-major (W1 W2 W3 W4 W1 ...), 3 warm-up + 40 measured
      rounds each, then one traced process per workload. Prints every
      end-to-end and per-layer metric and writes the results to FILE.

  python3 bench/round/run.py --smoke
      1 process x 3 rounds per workload plus the traced run with 2-step
      probes: checks the output schema and the correctness gate. Makes no
      timing claim.

  python3 bench/round/run.py --workload W --seed S --seconds T --trace 0|1
      One workload in one process, sized to measure for about T seconds.
      --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
      (untraced and traced passes of half the rounds each, then probes).

  python3 bench/round/run.py --compare BASE.json[,...] HEAD.json[,...]
      Compare full-suite result files of two commits, metric by metric.

Except with --compare, the last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
An operation is one federated round. Metric names, units, directions and
bounds are read from BENCHMARK.json at the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "bench" / "round"
BUILD = ROOT / ".bench_build" / "round"
BINARY = BUILD / "bench_round"
WORKDIR = BUILD / "run"

WARMUP = 3
SUITE_REPS = 3
SUITE_ROUNDS = 40
# Every workload must have learned (accuracy gate) by this many rounds.
MIN_ROUNDS = 40
SETUPS = 5
PROBE_STEPS = 50
PROCESS_TIMEOUT_S = 150
# Typical single-thread round cost on a 4-core x86 host. It only sizes
# single-workload runs to about --seconds; it is never reported.
NOMINAL_ROUND_MS = {
    "resnet20-simd": 155.0,
    "resnet20-scalar": 320.0,
    "spatl-resnet20": 210.0,
    "cnn2-crossdevice": 225.0,
}


# Every end-to-end metric e2e_metrics computes; BENCHMARK.json gates all but
# round_ms_p90, whose spread between runs on a shared host exceeds any
# useful bound.
E2E_UNITS = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "cpu_ms_per_round": "ms",
    "peak_rss_mb": "MB",
    "comm_mb_per_round": "MB",
}


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then let the build re-check every source."""
    steps = []
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_round",
                  "-j", str(min(4, len(os.sched_getaffinity(0))))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


def bench(workload, seed, rounds, warmup=WARMUP, setups=SETUPS, trace=False,
          probe_steps=PROBE_STEPS):
    """One bench_round process; returns its parsed JSON record."""
    WORKDIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--warmup", str(warmup), "--rounds", str(rounds),
           "--setups", str(setups), "--trace", "1" if trace else "0",
           "--probe-steps", str(probe_steps), "--workdir", str(WORKDIR)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return failed_record(workload, warmup + rounds, "timed out")
    if proc.returncode != 0 or not proc.stdout.strip():
        return failed_record(workload, warmup + rounds,
                             f"exit {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failed_record(workload, rounds, why):
    log(f"{workload}: {why}")
    return {"workload": workload, "attempted": rounds, "failed": rounds,
            "errors": [why], "crashed": True}


# ------------------------------------------------------------- statistics --

def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def e2e_metrics(runs):
    """End-to-end metrics of one or more processes of one workload. Times
    are medians over rounds: contention from other tenants of a shared host
    comes in bursts, and a mean follows the share of a run they cover."""
    wall = [x for r in runs for x in r["wall_ms"]]
    cpu = [x for r in runs for x in r["cpu_ms"]]
    comm = [u + d for r in runs
            for u, d in zip(r["uplink_bytes"], r["downlink_bytes"])]
    p50 = percentile(wall, 50)
    return {
        "setup_s": statistics.median(x for r in runs for x in r["setup_s"]),
        "rounds_per_s": 1e3 / p50,
        "round_ms_p50": p50,
        "round_ms_p90": percentile(wall, 90),
        "cpu_ms_per_round": percentile(cpu, 50),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "comm_mb_per_round": sum(comm) / len(comm) / 1e6,
    }


def check(runs, spec, traced=False):
    """Correctness gate over the processes of one workload."""
    errors = []
    for r in runs:
        errors += [f"{r['workload']}: {e}" for e in r["errors"]]
    ok = [r for r in runs if not r.get("crashed")]
    if len({(r["digest"], r["final_accuracy"]) for r in ok}) > 1:
        errors.append(f"{runs[0]['workload']}: final weights or accuracy "
                      "differ between processes of one seed")
    if traced:
        for r in ok:
            missing = [m["name"] for m in spec["per_layer"]
                       if m["name"] not in r.get("layers", {})]
            if missing:
                errors.append(f"{r['workload']}: no per-layer {missing}")
    return errors


def result_line(correct, runs, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    })


def metric(value, unit):
    return {"value": value, "unit": unit}


# ------------------------------------------------------------------- modes --

def single(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload}; one of {names}")
    rounds = round(args.seconds * 1e3 / NOMINAL_ROUND_MS[args.workload])
    if args.trace:
        runs = [bench(args.workload, args.seed,
                      max(MIN_ROUNDS, rounds // 2 - WARMUP), trace=True)]
        errors = check(runs, spec, traced=True)
        layers = runs[0].get("layers", {})
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]
                   if m["name"] in layers}
    else:
        runs = [bench(args.workload, args.seed,
                      max(MIN_ROUNDS, rounds - WARMUP))]
        errors = check(runs, spec)
        values = e2e_metrics(runs) if not runs[0].get("crashed") else {}
        metrics = {m["name"]: metric(values[m["name"]], m["unit"])
                   for m in spec["end_to_end"] if m["name"] in values}
    for e in errors:
        log("FAIL", e)
    print(result_line(not errors, runs, metrics))
    return 0 if not errors else 1


def print_table(workload, spec, runs, traced):
    rounds = sum(len(r["wall_ms"]) for r in runs)
    print(f"\n== {workload}  ({len(runs)} processes, {rounds} measured "
          f"rounds, threads {runs[0]['threads']}, {runs[0]['backend']})")
    pooled = e2e_metrics(runs)
    per_run = [e2e_metrics([r]) for r in runs]
    print(f"  {'metric':<22}{'value':>12}  {'unit':<6}"
          f"{'q1..q3 over runs':>24}  bound")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, unit in E2E_UNITS.items():
        q1, _, q3 = quartiles([p[name] for p in per_run])
        print(f"  {name:<22}{pooled[name]:>12.4f}  {unit:<6}"
              f"{q1:>11.4f} ..{q3:>11.4f}  {bounds.get(name, 'not gated')}")
    for title, rows in (("per-layer", traced.get("layers", {})),
                        ("detail", traced.get("detail", {}))):
        print(f"  -- {title} (traced process)")
        for name, v in rows.items():
            print(f"  {name:<34}{v['value']:>14.4f}  {v['unit']}")
    return pooled, per_run


def suite(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    smoke = args.smoke
    reps, rounds = (1, 3) if smoke else (SUITE_REPS, SUITE_ROUNDS)
    warmup = 0 if smoke else WARMUP
    probe_steps = 2 if smoke else PROBE_STEPS
    runs = {w: [] for w in names}
    for rep in range(reps):
        for w in names:  # rep-major: slow drift hits every workload alike
            log(f"rep {rep + 1}/{reps}: {w}")
            runs[w].append(bench(w, args.seed, rounds, warmup=warmup,
                                 setups=1 if smoke else SETUPS))
    traced = {}
    for w in names:
        log(f"traced: {w}")
        traced[w] = bench(w, args.seed, rounds, warmup=warmup,
                          setups=1 if smoke else SETUPS, trace=True,
                          probe_steps=probe_steps)

    errors, metrics, results = [], {}, {}
    for w in names:
        errors += check(runs[w], spec) + check([traced[w]], spec, traced=True)
    all_runs = [r for w in names for r in runs[w] + [traced[w]]]
    if not errors:
        for w in names:
            pooled, per_run = print_table(w, spec, runs[w], traced[w])
            results[w] = {"metrics": pooled, "runs": per_run,
                          "layers": traced[w]["layers"],
                          "detail": traced[w]["detail"]}
            metrics.update({f"{w}/{k}": metric(v, E2E_UNITS[k])
                            for k, v in pooled.items()})
            metrics.update({f"{w}/{k}": v
                            for k, v in traced[w]["layers"].items()})
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"seed": args.seed, "smoke": smoke,
                                   "workloads": results}, indent=1) + "\n")
        log(f"results -> {out}")
    for e in errors:
        log("FAIL", e)
    print(result_line(not errors, all_runs, metrics))
    return 0 if not errors else 1


def load_results(arg):
    """Pool the per-process results of comma-separated result files."""
    pooled = {}
    for path in arg.split(","):
        for w, res in json.loads(Path(path).read_text())["workloads"].items():
            pooled.setdefault(w, {"runs": []})["runs"] += res["runs"]
    return pooled


def compare(args, spec):
    """Per (workload, metric): each side's median and quartiles over its
    processes, the share of (base, head) pairs head wins, and a verdict."""
    base, head = (load_results(arg) for arg in args.compare)
    summary = {}
    print(f"{'workload':<18}{'metric':<20}{'base q1/med/q3':>30}"
          f"{'head q1/med/q3':>30}{'wins':>6}  verdict")
    for w in base:
        if w not in head:
            continue
        verdicts = []
        for m in spec["end_to_end"]:
            b = [r[m["name"]] for r in base[w]["runs"]]
            h = [r[m["name"]] for r in head[w]["runs"]]
            sign = 1.0 if m["better"] == "higher" else -1.0
            pairs = [sign * (y - x) for x in b for y in h]
            wins = sum(p > 0 for p in pairs) / len(pairs)
            bq1, bmed, bq3 = quartiles(b)
            hq1, hmed, hq3 = quartiles(h)
            gap = sign * (hmed - bmed)
            if gap > 0 and wins >= 0.9 and gap > bq3 - bq1:
                verdict = "gain"
            elif (bq3 - bq1) / abs(bmed) > m["bound"] and wins < 1.0:
                verdict = "unresolved"
            elif -gap / abs(bmed) > m["bound"]:
                verdict = "regression"
            else:
                verdict = "within bound"
            verdicts.append(verdict)
            print(f"{w:<18}{m['name']:<20}"
                  f"{bq1:>10.4g}{bmed:>10.4g}{bq3:>10.4g}"
                  f"{hq1:>10.4g}{hmed:>10.4g}{hq3:>10.4g}{wins:>6.2f}  "
                  f"{verdict}")
        summary[w] = {v: verdicts.count(v) for v in sorted(set(verdicts))}
    print()
    for w, counts in summary.items():
        print(f"{w:<18}" + ", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if any("regression" in c for c in summary.values()) else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", default=str(BUILD / "results.json"))
    p.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = p.parse_args()
    try:
        spec = load_spec()
        if args.compare:
            return compare(args, spec)
        build()
        if args.workload:
            return single(args, spec)
        return suite(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("error:", e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
