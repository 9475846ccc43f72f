"""Traced in-process replay: the per-layer numbers of the benchmark.

Each workload's generated inputs are replayed in-process through
``symdyn.cli.main(argv)``, with stdout and stderr captured and every answer
passed through the checker. While spans are on, every library function the
CLI module calls (and its own CSV/SVG renderers, file writer and parser) is
replaced in the ``symdyn.cli`` namespace by a wrapper that records a span,
so the spans follow the CLI's real order and its real rendering. A span has
a name, start, end, parent and request id; spans stay in memory and are
written to ``.bench_out/spans-<workload>-<seed>.jsonl`` when the run ends.

Every traced run replays the round of every workload for the same seed,
whatever ``--workload`` and ``--seconds`` say, so it reports every
per-layer metric; ``--workload`` picks the round whose self times are
printed. The cli-short round comes last, and each of its inputs is
replayed with spans on and with spans off (the wrappers removed), back to
back; the two summed ``cli.main`` times give the tracing overhead. That
round has the most spans per unit of work, so its overhead bounds the
others'.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import statistics
import sys
import time
import tracemalloc
import types
from pathlib import Path

import check
import inputs

MEMORY_STEPS = 20_000
APPLY_T_CALLS = 20_000
PROCESS_SAMPLES = 5
PSYM_SIZES = (16, 32, 64)
CLI_COMMANDS = ("decompose", "build", "orbit", "classify", "compose", "psym", "ortho-classify")
# The dynamics calls of the classify command.
DYNAMICS_CLASSIFY = ("dynamics.classify_orbit_cardinality", "dynamics.stable_set",
                     "dynamics.classify_convergence")

# Names in the symdyn.cli namespace that get a span, and the span's name.
TRACED = {
    "decompose": "core.decompose",
    "classify_orthogonal": "core.classify_orthogonal",
    "matrix_from_params": "core.matrix_from_params",
    "orbit": "dynamics.orbit",
    "classify_orbit_cardinality": "dynamics.classify_orbit_cardinality",
    "stable_set": "dynamics.stable_set",
    "classify_convergence": "dynamics.classify_convergence",
    "compose_rotation_reflection": "geometry.compose_rotation_reflection",
    "rotation_matrix": "geometry.rotation_matrix",
    "is_in_psym": "frobenius.is_in_psym",
    "sym0_basis": "frobenius.sym0_basis",
    "frobenius_inner": "frobenius.frobenius_inner",
    "orbit_csv": "cli.orbit_csv",
    "orbit_svg": "cli.orbit_svg",
    "_write_text": "io.write",
    "build_parser": "cli.build_parser",
}


def _cardinality(card) -> str:
    return f"Finite({card.size})" if hasattr(card, "size") else "Infinite"


def _orbit_attrs(args, rec) -> dict:
    p, m, steps, tol = args
    return {"steps": steps, "points": len(rec.points), "x": p.x, "y": p.y, "lam": m.lam,
            "phi": m.axis.phi, "eps": tol.eps, "card": _cardinality(rec.cardinality)}


# Span attributes taken from a call's arguments and result, after its end.
ATTRS = {
    "dynamics.orbit": _orbit_attrs,
    "cli.orbit_csv": lambda args, out: {"points": len(args[0]), "bytes": len(out)},
    "cli.orbit_svg": lambda args, out: {"points": len(args[0]), "bytes": len(out)},
    "io.write": lambda args, out: {"bytes": len(args[1])},
    "frobenius.from_matrix": lambda args, out: {"n": out.n},
    "frobenius.is_in_psym": lambda args, out: {"n": args[0].n},
    "frobenius.sym0_basis": lambda args, out: {"n": args[0]},
    "frobenius.frobenius_inner": lambda args, out: {"n": args[1].n},
}

_IMPORT_TIMES = (
    "import time; t0 = time.perf_counter_ns(); import numpy; "
    "t1 = time.perf_counter_ns(); import symdyn; t2 = time.perf_counter_ns(); "
    "print(t1 - t0, t2 - t1)"
)


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", rec: dict) -> None:
        self.tracer = tracer
        self.rec = rec

    def __enter__(self) -> dict:
        t = self.tracer
        self.rec["parent"] = t.stack[-1] if t.stack else None
        t.stack.append(self.rec["id"])
        self.rec["start"] = time.perf_counter_ns()
        return self.rec

    def __exit__(self, *exc) -> None:
        self.rec["end"] = time.perf_counter_ns()
        self.tracer.stack.pop()
        self.tracer.spans.append(self.rec)


class Tracer:
    """Spans kept in memory, with a stack for the parent of each new span."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.rid = 0
        self._next = 0

    def new_id(self) -> int:
        self._next += 1
        return self._next

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, {"id": self.new_id(), "rid": self.rid, "name": name, **attrs})

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if attrs:
                rec.update(attrs(args, out))
            return out

        return traced


class Spans:
    """Installs and removes the span wrappers in the ``symdyn.cli`` namespace."""

    def __init__(self, tracer: Tracer, cli) -> None:
        self.cli = cli
        self.originals = {name: getattr(cli, name) for name in (*TRACED, "SymMatN")}
        self.wrapped = {name: tracer.wrap(span, self.originals[name])
                        for name, span in TRACED.items()}
        # The CLI uses SymMatN only for SymMatN.from_matrix.
        self.wrapped["SymMatN"] = types.SimpleNamespace(from_matrix=tracer.wrap(
            "frobenius.from_matrix", cli.SymMatN.from_matrix))
        build_parser = self.wrapped["build_parser"]

        def parser_with_span():
            parser = build_parser()
            parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
            return parser

        self.wrapped["build_parser"] = parser_with_span

    def install(self) -> None:
        for name, fn in self.wrapped.items():
            setattr(self.cli, name, fn)

    def remove(self) -> None:
        for name, fn in self.originals.items():
            setattr(self.cli, name, fn)


def self_times(spans: list[dict]) -> dict[str, tuple[int, float, float]]:
    """name -> (count, total ns, self ns); self time excludes child spans."""
    child_ns: dict[int, int] = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end"] - s["start"]
    out: dict[str, list] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        agg = out.setdefault(s["name"], [0, 0, 0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child_ns.get(s["id"], 0)
    return {k: tuple(v) for k, v in out.items()}


def _spawn_probe(workdir: Path) -> dict[str, float]:
    import run

    env = run.child_env()
    run.spawn([sys.executable, "-c", _IMPORT_TIMES], workdir, env)  # fills __pycache__
    spawn_s, numpy_s, symdyn_s = [], [], []
    for _ in range(PROCESS_SAMPLES):
        spawn_s.append(run.spawn([sys.executable, "-c", "pass"], workdir, env).wall_s)
        res = run.spawn([sys.executable, "-c", _IMPORT_TIMES], workdir, env)
        if res.exit_code != 0:
            raise RuntimeError(f"import probe failed: {res.stderr.strip()}")
        a, b = res.stdout.split()
        numpy_s.append(int(a) / 1e9)
        symdyn_s.append(int(b) / 1e9)
    return {
        "process.spawn_s": statistics.median(spawn_s),
        "process.import_numpy_s": statistics.median(numpy_s),
        "process.import_symdyn_s": statistics.median(symdyn_s),
    }


def _orbit_memory(sd, cli, round_: list[inputs.Invocation]) -> float:
    """tracemalloc peak during orbit(), in KB per recorded point, for the
    round's first near-unit orbit (one that stays in range)."""
    parsed = (cli.build_parser().parse_args(list(inv.argv)) for inv in round_
              if inv.command == "orbit")
    args = next(a for a in parsed if 0.99 < abs(a.lam) < 1.01 and abs(a.lam) != 1.0)
    m = sd.ReflectScale(args.lam, sd.AxisLine(args.axis))
    steps = min(args.iters, MEMORY_STEPS)
    tracemalloc.start()
    try:
        rec = sd.orbit(sd.Point2(args.x, args.y), m, steps, sd.Tolerance(args.tol))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024.0 / len(rec.points)


def _median(values) -> float:
    values = list(values)
    if not values:
        raise RuntimeError("a per-layer metric has no samples")
    return statistics.median(values)


def _witness_search(tracer: Tracer, rid: int) -> None:
    """The CLI's witness loop as one span: from the sym0_basis call to the end
    of the last frobenius_inner call of request rid; those calls become its
    children."""
    basis = [s for s in tracer.spans if s["rid"] == rid and s["name"] == "frobenius.sym0_basis"]
    inner = [s for s in tracer.spans if s["rid"] == rid
             and s["name"] == "frobenius.frobenius_inner"]
    if not basis or not inner:
        return  # a member: no witness is searched
    rec = {"id": tracer.new_id(), "rid": rid, "name": "frobenius.witness_search",
           "n": basis[0]["n"], "parent": basis[0]["parent"], "start": basis[0]["start"],
           "end": max(s["end"] for s in inner)}
    for s in basis + inner:
        s["parent"] = rec["id"]
    tracer.spans.append(rec)


class Replay:
    """``cli.main(argv)`` in-process, its output checked like a spawned command's."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.attempted = self.failed = self.unexpected = 0
        self.problems: list[str] = []

    def __call__(self, inv: inputs.Invocation) -> int:
        """Runs one invocation and returns its cli.main time in ns."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter_ns()
            code = self.cli.main(list(inv.argv))
            t1 = time.perf_counter_ns()
        found = check.check(inv.argv, inv.expect_exit, code, out.getvalue(), err.getvalue())
        self.attempted += 1
        if found:
            self.failed += 1
            self.unexpected += any(c not in check.KNOWN_DEFECTS for c, _ in found)
            self.problems.append(f"symdyn {' '.join(inv.argv)}: {found}"[:300])
        for flag in ("--out", "--svg"):
            if flag in inv.argv:
                Path(inv.argv[inv.argv.index(flag) + 1]).unlink(missing_ok=True)
        return t1 - t0


def run_traced(workload: str, seed: int, workdir: Path, out_dir: Path,
               src: Path) -> tuple[dict, list[str]]:
    """The round of every workload, replayed with spans; see the module docstring."""
    sys.path.insert(0, str(src))
    import symdyn as sd
    from symdyn import cli

    tracer = Tracer()
    spans_on = Spans(tracer, cli)
    replay = Replay(cli)
    lines = [f"traced replay  workload {workload}  seed {seed}"]
    metrics: dict[str, tuple[float, str]] = {}
    for key, value in _spawn_probe(workdir).items():
        metrics[key] = (value, "s")

    # Probes exist for the end-to-end metrics alone.
    rounds = {w: [inv for inv in inputs.make_round(w, seed, workdir) if not inv.probe]
              for w in inputs.WORKLOADS}

    def traced(w: str, inv: inputs.Invocation) -> int:
        tracer.rid += 1
        spans_on.install()
        try:
            with tracer.span(f"cmd.{inv.command}", workload=w, ok=inv.expect_exit == 0):
                ns = replay(inv)
        finally:
            spans_on.remove()
        if inv.command == "psym":
            _witness_search(tracer, tracer.rid)
        if w == "orbit-long" and inv.command == "orbit":
            # One map step, timed over a batch on the map of this input,
            # because a span per step would cost more than the step.
            o = next(s for s in reversed(tracer.spans) if s["name"] == "dynamics.orbit")
            m, p = sd.ReflectScale(o["lam"], sd.AxisLine(o["phi"])), sd.Point2(o["x"], o["y"])
            with tracer.span("geometry.apply_T", calls=APPLY_T_CALLS):
                for _ in range(APPLY_T_CALLS):
                    p = sd.apply_T(m, p)
        return ns

    for w in ("orbit-long", "psym-large"):
        for inv in rounds[w]:
            traced(w, inv)
    # cli-short last, so it runs warm; each input is replayed with spans on
    # and off back to back, alternating which goes first.
    replay_ns = {True: 0, False: 0}
    for i, inv in enumerate(rounds["cli-short"]):
        for on in ((True, False) if i % 2 == 0 else (False, True)):
            replay_ns[on] += traced("cli-short", inv) if on else replay(inv)

    metrics["dynamics.orbit_kb_per_point"] = (
        _orbit_memory(sd, cli, rounds["orbit-long"]), "KB")

    def spans(name: str, w: str, cmd: str = "", ok_only: bool = False):
        """Spans called name in the requests of workload w (of command cmd)."""
        rids = {s["rid"] for s in tracer.spans if s["name"].startswith(f"cmd.{cmd}")
                and s["workload"] == w and (s["ok"] or not ok_only)}
        return [s for s in tracer.spans if s["name"] == name and s["rid"] in rids]

    def dur(s) -> float:
        return float(s["end"] - s["start"])

    def per_request(names, w: str, cmd: str = "") -> list[float]:
        total: dict[int, float] = {}
        for name in names:
            for s in spans(name, w, cmd):
                total[s["rid"]] = total.get(s["rid"], 0.0) + dur(s)
        return list(total.values())

    orbits = spans("dynamics.orbit", "orbit-long")
    metrics["dynamics.orbit_ns_per_step"] = (_median(dur(s) / s["steps"] for s in orbits), "ns")
    metrics["geometry.apply_T_ns"] = (
        _median(dur(s) / s["calls"] for s in spans("geometry.apply_T", "orbit-long")), "ns")
    agree = [s["card"] == check.cardinality_law(s["x"], s["y"], s["lam"], s["phi"], s["eps"])
             for s in orbits]
    metrics["dynamics.cardinality_agree_ratio"] = (sum(agree) / len(agree), "ratio")
    for kind in ("csv", "svg"):
        rendered = spans(f"cli.orbit_{kind}", "orbit-long")
        metrics[f"cli.orbit_{kind}_ns_per_point"] = (
            _median(dur(s) / s["points"] for s in rendered), "ns")
        metrics[f"cli.{kind}_bytes_per_point"] = (
            _median(s["bytes"] / s["points"] for s in rendered), "B")
    for layer in ("from_matrix", "sym0_basis", "is_in_psym", "witness_search"):
        for n in PSYM_SIZES:
            metrics[f"frobenius.{layer}_ms.n{n}"] = (
                _median(dur(s) / 1e6 for s in spans(f"frobenius.{layer}", "psym-large")
                        if s.get("n") == n), "ms")
    for name in ("core.decompose", "core.classify_orthogonal", "core.matrix_from_params",
                 "geometry.compose_rotation_reflection"):
        metrics[f"{name}_us"] = (_median(dur(s) / 1e3 for s in spans(name, "cli-short")), "us")
    metrics["dynamics.classify_us"] = (
        _median(v / 1e3 for v in per_request(DYNAMICS_CLASSIFY, "cli-short", "classify")),
        "us")
    metrics["cli.parse_us"] = (
        _median(v / 1e3 for v in per_request(("cli.build_parser", "cli.parse_args"),
                                              "cli-short")), "us")
    for cmd in CLI_COMMANDS:
        metrics[f"cli.main_us.{cmd}"] = (
            _median(dur(s) / 1e3 for s in spans(f"cmd.{cmd}", "cli-short", cmd, True)), "us")
    metrics["trace.replay_on_s"] = (replay_ns[True] / 1e9, "s")
    metrics["trace.replay_off_s"] = (replay_ns[False] / 1e9, "s")

    overhead = replay_ns[True] / replay_ns[False] - 1.0
    lines.append(f"  replay of the cli-short round: spans on {replay_ns[True] / 1e9:.3f} s, "
                 f"off {replay_ns[False] / 1e9:.3f} s, overhead {100 * overhead:+.2f}%")
    lines.append(f"  checked {replay.attempted} in-process invocations, {replay.failed} failed "
                 f"({replay.failed - replay.unexpected} with known defects only)")
    lines += [f"    {problem}" for problem in replay.problems]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    lines.append(f"  self time by span, {workload} round (spans on):")
    rids = {s["rid"] for s in tracer.spans if s["name"].startswith("cmd.")
            and s["workload"] == workload}
    # The apply_T batches are the benchmark's own calls, not the CLI's.
    table = self_times([s for s in tracer.spans
                        if s["rid"] in rids and s["name"] != "geometry.apply_T"])
    total = sum(v[2] for v in table.values())
    for name, (count, tot, self_ns) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"    {name:<40} {count:>6} calls  total {tot / 1e6:10.2f} ms  "
                     f"self {self_ns / 1e6:10.2f} ms  {100 * self_ns / total:5.1f}%")

    with open(out_dir / f"spans-{workload}-{seed}.jsonl", "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")
    result = {
        "correct": replay.unexpected == 0,
        "attempted": replay.attempted,
        "failed": replay.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if not all(math.isfinite(v) and v > 0 for v, _ in metrics.values()):
        raise RuntimeError(f"a per-layer metric is not a positive number: {metrics}")
    return result, lines
