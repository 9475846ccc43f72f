"""Seeded, checked end-to-end benchmark of the symdyn CLI.

    python3 bench/run.py --workload orbit-long --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. With ``--trace 0`` every command is its own
``python -m symdyn`` process, driven as a closed loop by one client (the
machine it was written for has 2 cores), and every output goes through the
independent checker in ``check.py``. A run makes a fixed number of passes
(``PASSES``) over one round of the workload (see ``inputs.py``): a fixed
amount of work, so that two versions of the program are timed on the same
invocations. ``--seconds`` is accepted for the common benchmark interface;
on the seed program a run spends about that long in commands. With
``--trace 1`` the inputs are replayed in-process instead, through
``cli.main`` with a span around every library call the CLI makes (see
``tracing.py``).

A readable report goes to standard output; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``correct`` is false when an invocation has a failure that
``check.KNOWN_DEFECTS`` does not name; every failing invocation, known defect
or not, counts once in ``failed`` and in ``pass_rate``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"

# Host load on a shared machine comes in bursts of a few seconds, so set-up
# is sampled this many times, spread evenly through the run.
SETUP_SAMPLES = 12
# In cli-short every command costs about the same, so the tail of one pass
# is only the host's slowest phase of a few seconds. That round runs twice,
# one pass after the other, and each invocation's time is the better of its
# two; a phase rarely slows both. An orbit-long command lasts seconds and
# averages the phases itself.
PASSES = {"orbit-long": 1, "psym-large": 1, "cli-short": 2}
SETUP_ARGV = [sys.executable, "-c", "import symdyn"]
CHILD_TIMEOUT_S = 90.0


@dataclass
class Spawned:
    wall_s: float
    exit_code: int
    maxrss_kb: int
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], workdir: Path, env: dict) -> Spawned:
    """Run one process; time it from spawn to exit and take its peak RSS from wait4."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    lock = threading.Lock()
    exited = False

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir, env=env)

        def kill() -> None:
            with lock:
                if not exited:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            # Wait without reaping, so the pid cannot be reused before the
            # timer is disarmed.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            t1 = time.perf_counter_ns()
            with lock:
                exited = True
        finally:
            timer.cancel()
            if not exited:  # interrupted: leave no child behind
                kill()
                os.wait4(proc.pid, 0)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(
        wall_s=(t1 - t0) / 1e9,
        exit_code=proc.returncode,
        maxrss_kb=usage.ru_maxrss,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def setup_time(workdir: Path, env: dict) -> float:
    """Wall time of ``python -c "import symdyn"``: interpreter, numpy and symdyn import."""
    res = spawn(SETUP_ARGV, workdir, env)
    if res.exit_code != 0:
        raise RuntimeError(f"cannot import symdyn from {SRC}: {res.stderr.strip()}")
    return res.wall_s


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and that percentile.

    Nearest rank: the value at sorted index N - 11. Below 21 samples that
    percentile is no higher than the median, so p90 by nearest rank is
    reported instead: not the maximum, which is one sample of the host's
    speed and would not repeat.
    """
    s = sorted(times)
    k = len(s) - 11 if len(s) > 20 else math.ceil(0.9 * len(s)) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def _iters(argv) -> int:
    return int(argv[argv.index("--iters") + 1]) if "--iters" in argv else 64


def _cells(path: str) -> int:
    with open(path) as fh:
        n = int(fh.read(16).split()[0])
    return n * n


def _setup_points(count: int) -> set[int]:
    """Invocation indices before which set-up is sampled, spread evenly."""
    return {round(k * count / SETUP_SAMPLES) for k in range(SETUP_SAMPLES)}


def run_e2e(workload: str, seed: int, workdir: Path) -> tuple[dict, list[str]]:
    env = child_env()
    setup_time(workdir, env)  # fills __pycache__; not counted
    setup: list[float] = []
    py = [sys.executable, "-m", "symdyn"]
    round_ = inputs.make_round(workload, seed, workdir)
    passes = PASSES[workload]
    sample_before = _setup_points(passes * len(round_))

    best: dict[int, float] = {}
    cmd_s = 0.0
    rss_kb = 0
    orbit_steps = orbit_s = 0.0
    psym_cells = psym_s = 0.0
    failures: dict[str, int] = {}
    examples: dict[str, str] = {}
    failed = unexpected = 0
    for j in range(passes * len(round_)):
        i = j % len(round_)
        inv = round_[i]
        if j in sample_before:
            setup.append(setup_time(workdir, env))
        res = spawn(py + list(inv.argv), workdir, env)
        if not inv.probe:
            best[i] = min(best.get(i, math.inf), res.wall_s)
            cmd_s += res.wall_s
            rss_kb = max(rss_kb, res.maxrss_kb)
        if inv.expect_exit == 0 and inv.command == "orbit":
            orbit_steps += _iters(inv.argv)
            orbit_s += res.wall_s
        if inv.expect_exit == 0 and inv.command == "psym":
            psym_cells += _cells(inv.argv[1])
            psym_s += res.wall_s
        found = check.check(inv.argv, inv.expect_exit, res.exit_code, res.stdout, res.stderr)
        if found:
            failed += 1
            unexpected += any(code not in check.KNOWN_DEFECTS for code, _ in found)
        for code, detail in found:
            failures[code] = failures.get(code, 0) + 1
            examples.setdefault(code, f"symdyn {' '.join(inv.argv)}: {detail}")
        for flag in ("--out", "--svg"):
            if flag in inv.argv:
                Path(inv.argv[inv.argv.index(flag) + 1]).unlink(missing_ok=True)

    attempted = passes * len(round_)
    times = list(best.values())
    n = len(times)
    spawned = passes * n
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cmd_p50_s": (statistics.median(times), "s"),
        "cmd_tail_s": (tail_s, "s"),
        "cmds_per_s": (spawned / cmd_s, "1/s"),
        "orbit_steps_per_s": (orbit_steps / orbit_s, "1/s"),
        "psym_cells_per_s": (psym_cells / psym_s, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "pass_rate": ((attempted - failed) / attempted, "ratio"),
    }
    lines = [
        f"workload {workload}  seed {seed}  {passes} x {len(round_)} invocations "
        f"({len(round_) - n} probes per pass), {cmd_s:.2f} s in workload commands",
        f"  mix: {inputs.MIXES[workload]}",
    ]
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "setup_s":
            note = (f"  (median of {len(setup)} `python -c \"import symdyn\"`, "
                    "spread through the run)")
        elif name == "cmd_tail_s":
            note = f"  (p{tail_pct:.1f} of {n} invocations, probes left out)"
            if passes > 1:
                note = note[:-1] + f"; each the better of {passes} passes)"
        elif name == "pass_rate":
            note = (f"  (error_rate = {failed}/{attempted} = {failed / attempted:.4f}; "
                    f"{failed - unexpected} with known defects only, {unexpected} with "
                    "an unexpected failure)")
        lines.append(f"  {name} = {value:.6g} {unit}{note}")
    for code, count in sorted(failures.items()):
        kind = "known defect" if code in check.KNOWN_DEFECTS else "UNEXPECTED"
        lines.append(f"  failure {code} in {count} invocations ({kind}); "
                     f"e.g. {examples[code][:300]}")
    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="accepted and not used: a run is one fixed round")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM unwind through the finally blocks, which stop the running
    # child and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "symdyn" / "__init__.py").is_file():
        print(f"error: no symdyn sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    workdir = TMP_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            import tracing  # imports symdyn, which the untraced run never does

            result, lines = tracing.run_traced(args.workload, args.seed, workdir, OUT_DIR, SRC)
        else:
            result, lines = run_e2e(args.workload, args.seed, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
