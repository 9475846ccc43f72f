"""Steadiness mode: repeat the benchmark over seeds and report each metric's spread.

    python3 bench/steady.py --runs 10 [--workloads orbit-long ...] [--first-seed 1]
                            [--trace-runs 1] [--against earlier.json] [--out summary.json]

The workloads default to those in BENCHMARK.json. With ``--runs 1
--trace-runs 1 --workloads orbit-long psym-large cli-short`` it is the one
command that runs every workload and prints every end-to-end and per-layer
metric with its unit.

Runs ``bench/run.py`` once per seed and workload, one after another, and
prints for every end-to-end metric its median, quartiles and spread (the
distance between the quartiles as a share of the median) beside a third of
the metric's bound from BENCHMARK.json. ``--against`` compares the medians
with an earlier summary, within the bounds. ``--trace-runs`` adds traced runs
for the per-layer metrics. ``--out`` writes everything, with the Python and
numpy versions, core count and cache sizes, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def environment() -> dict:
    import numpy

    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (idx / "size").read_text().strip()
        except OSError:
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(), "cpu0_caches": caches}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--against", type=Path, help="earlier --out summary to compare medians with")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    report = {"environment": environment(), "workloads": {}}
    worst = 0.0
    for w in args.workloads:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs = []
        for seed in seeds:
            res = run_once(w, seed, 0)
            runs.append(res)
            vals = "  ".join(f"{k}={v['value']:.5g} {v['unit']}" for k, v in res["metrics"].items())
            print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']}  {vals}", flush=True)
        summary = {}
        print(f"{w}: median [q1, q3]  spread  (bound/3)")
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            summary[name] = s
            flag = "ok" if s["spread"] < bound / 3 else "WIDE"
            if name != "setup_s":
                worst = max(worst, s["spread"] / bound)
            line = (f"  {name:<18} {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]  "
                    f"{s['spread']:.4f} ({bound / 3:.4f}) {flag}")
            if w in earlier:
                before = earlier[w]["summary"][name]["median"]
                better = next(m["better"] for m in SPEC["end_to_end"] if m["name"] == name)
                change = (s["median"] - before) / before * (1 if better == "lower" else -1)
                line += f"  vs earlier {before:.6g}: {'worse' if change > 0 else 'better'} " \
                        f"by {abs(change):.4f}{' BEYOND BOUND' if change > bound else ''}"
            print(line, flush=True)
        report["workloads"][w] = {"seeds": seeds, "runs": runs, "summary": summary}
        traced = [run_once(w, seed, 1) for seed in seeds[:args.trace_runs]]
        for seed, res in zip(seeds, traced):
            print(f"{w} seed {seed} traced: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']}")
            for k, v in res["metrics"].items():
                print(f"  {k} = {v['value']:.6g} {v['unit']}")
        if traced:
            report["workloads"][w]["per_layer"] = traced
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
