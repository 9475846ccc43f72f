"""Seeded inputs for the symdyn benchmark workloads.

A run of a workload makes a fixed number of passes over one round: a fixed
mix of ``symdyn`` invocations whose values come from the seed. So every run
does the same amount of work whatever the program's speed, and the share of
failing invocations does not depend on the seed. ``make_round(workload, seed, workdir)`` builds the round;
the same seed gives the same argv lists and the same matrix files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

WORKLOADS = ("orbit-long", "psym-large", "cli-short")

# Short invocations of the other heavy command per round, so that
# orbit_steps_per_s and psym_cells_per_s are defined on every workload. The
# cmd_* metrics leave probes out.
PROBES = {"orbit-long": 6, "psym-large": 6}

# What one round of each workload holds; the seed picks the values inside
# each class and the order of the round.
MIXES = {
    "orbit-long": (
        "orbit --iters 95000..100000: near-unit |lam| 10 times (Infinite, twice JSON), 0, 1, "
        "-1 (JSON), |lam| 0.5, 0.9, 2 (out of range, false revisit); CSV+SVG files unless "
        "JSON; plus 6 psym n=4 probes"
    ),
    "psym-large": (
        "psym: random non-members (witness first) at n = 16 and four times at n = 32, "
        "near-scalar non-members (witness last) at n = 16, 32 and 64, a scalar member at "
        "n = 32; "
        "plus 6 orbit --iters 64 probes"
    ),
    "cli-short": (
        "14 each of decompose, build, classify, compose, ortho-classify, orbit --iters 64 "
        "and psym n<=4, half text half JSON, plus 9 inputs that must exit 2; run twice"
    ),
}


@dataclass(frozen=True)
class Invocation:
    """One ``python -m symdyn`` command and what a correct program does with it.

    ``expect_exit`` is 0 or 2; None means that both a clean exit 2 and a
    fully checked answer are right.
    """

    argv: tuple[str, ...]
    expect_exit: int | None = 0
    probe: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]


def _f(x: float) -> str:
    # The shortest digits that give x back, never in exponent form: argparse
    # reads a negative number in exponent form, such as -2e-05, as an option.
    return format(Decimal(repr(float(x))), "f")


def _start(rng: random.Random) -> tuple[float, float]:
    r = rng.uniform(0.5, 2.0)
    a = rng.uniform(0.0, 2.0 * math.pi)
    return r * math.cos(a), r * math.sin(a)


def _axis(rng: random.Random) -> float:
    # Away from the ends of [0, pi) and from multiples of pi/2, so the start
    # points are never near the axis or its perpendicular.
    return rng.choice((0.1, 0.9, 1.7, 2.5)) + rng.uniform(0.0, 0.5)


def _orbit(rng, lam, iters, workdir, tag, json_out) -> Invocation:
    x, y = _start(rng)
    argv = ["orbit", _f(x), _f(y), "--lambda", _f(lam), "--axis", _f(_axis(rng)),
            "--iters", str(iters)]
    if json_out:
        argv.append("--json")
    else:
        argv += ["--out", str(workdir / f"{tag}.csv"), "--svg", str(workdir / f"{tag}.svg")]
    return Invocation(tuple(argv))


def write_matrix(path: Path, rows: list[list[float]]) -> None:
    n = len(rows)
    with open(path, "w") as fh:
        fh.write(f"{n}\n")
        for row in rows:
            fh.write(" ".join(_f(v) for v in row) + "\n")


def _scalar(n: int, c: float) -> list[list[float]]:
    return [[c if i == j else 0.0 for j in range(n)] for i in range(n)]


def _random_sym(rng: random.Random, n: int) -> list[list[float]]:
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.uniform(-1.0, 1.0)
    return m


def _near_scalar(rng: random.Random, n: int) -> list[list[float]]:
    # c * I with only the last off-diagonal entry moved, so the witness is
    # the last trace-zero basis element.
    c = rng.uniform(0.5, 3.0)
    m = _scalar(n, c)
    m[n - 2][n - 1] = m[n - 1][n - 2] = c * rng.uniform(1e-3, 1e-2)
    return m


def _psym(path: Path, rows, json_out: bool, probe: bool = False) -> Invocation:
    write_matrix(path, rows)
    argv = ["psym", str(path)] + (["--json"] if json_out else [])
    return Invocation(tuple(argv), probe=probe)


def _orbit_long(rng: random.Random, workdir: Path) -> list[Invocation]:
    def iters() -> int:
        return rng.randint(95_000, 100_000)

    def sign() -> float:
        return rng.choice((-1.0, 1.0))

    def near_unit() -> float:
        return sign() * (1.0 + sign() * rng.uniform(5e-6, 2e-5))

    # Eleven of the sixteen orbits (near-unit and |lam| 2) cost the most, so
    # the median (between the eighth and ninth) and the p90 (the second
    # slowest) fall inside that class of costs, not on the edge between two.
    round_ = [
        _orbit(rng, near_unit(), iters(), workdir, f"near{k}", k < 2) for k in range(10)
    ] + [
        _orbit(rng, 0.0, iters(), workdir, "zero", False),
        _orbit(rng, 1.0, iters(), workdir, "plus1", False),
        _orbit(rng, -1.0, iters(), workdir, "minus1", True),
        _orbit(rng, sign() * 0.5, iters(), workdir, "half", False),
        _orbit(rng, sign() * 0.9, iters(), workdir, "nine", False),
        _orbit(rng, sign() * 2.0, iters(), workdir, "two", False),
    ]
    round_ += [_psym(workdir / f"probe{k}.txt", _scalar(4, rng.uniform(0.5, 3.0)), False,
                     probe=True)
               for k in range(PROBES["orbit-long"])]
    rng.shuffle(round_)
    return round_


def _psym_large(rng: random.Random, workdir: Path) -> list[Invocation]:
    # A random non-member (witness first) builds the basis and pairs one
    # element, a near-scalar one (witness last) pairs them all. At n = 64
    # only the witness-last case, the slowest: the round is replayed in
    # every traced run for the frobenius layer metrics, and a random n = 64
    # would add 12 s to each.
    round_ = []
    for n, kinds in ((16, "rn"), (32, "srrrrn"), (64, "n")):
        for k, kind in enumerate(kinds):
            path = workdir / f"n{n}-{k}{kind}.txt"
            if kind == "s":
                round_.append(_psym(path, _scalar(n, rng.uniform(-3.0, 3.0)), False))
            elif kind == "r":
                round_.append(_psym(path, _random_sym(rng, n), k % 2 == 0))
            else:
                round_.append(_psym(path, _near_scalar(rng, n), False))
    for _ in range(PROBES["psym-large"]):
        x, y = _start(rng)
        round_.append(Invocation(("orbit", _f(x), _f(y), "--lambda", _f(rng.uniform(0.2, 0.8)),
                                  "--axis", _f(_axis(rng)), "--iters", "64"), probe=True))
    rng.shuffle(round_)
    return round_


def _rotation(a: float) -> list[float]:
    c, s = math.cos(a), math.sin(a)
    return [c, s, -s, c]


def _reflection(b: float) -> list[float]:
    c, s = math.cos(b), math.sin(b)
    return [c, s, s, -c]


def _cli_short(rng: random.Random, workdir: Path) -> list[Invocation]:
    out: list[Invocation] = []
    for k in range(14):
        json_out = ["--json"] if k % 2 else []
        uni = rng.uniform
        lam, theta = uni(0.1, 10.0), uni(0.0, 2.0 * math.pi)
        a, b = lam * math.cos(theta), lam * math.sin(theta)
        out.append(Invocation(("decompose", _f(a), _f(b), _f(b), _f(-a), *json_out)))

        angle = ["--theta", _f(uni(-7.0, 7.0))] if k % 4 < 2 else ["--axis", _f(uni(-4.0, 4.0))]
        if k % 3 == 0:
            angle = [angle[0], _f(uni(-360.0, 360.0)), "--degrees"]
        out.append(Invocation(("build", _f(rng.choice((-1, 1)) * uni(0.1, 10.0)), *angle,
                               *json_out)))

        x, y = _start(rng)
        lam = (0.0, 1.0, -1.0, uni(0.1, 0.9), -uni(0.1, 0.9), uni(1.1, 3.0),
               -uni(1.1, 3.0), uni(0.1, 0.9))[k % 8]
        out.append(Invocation(("classify", _f(x), _f(y), "--lambda", _f(lam),
                               "--axis", _f(_axis(rng)), *json_out)))

        direction = "--cw" if (k // 2) % 2 else "--acw"
        out.append(Invocation(("compose", "--alpha", _f(uni(-7.0, 7.0)),
                               "--theta", _f(uni(0.0, 7.0)), direction, *json_out)))

        m = _rotation(uni(0.0, 7.0)) if (k // 2) % 2 else _reflection(uni(0.0, 7.0))
        out.append(Invocation(("ortho-classify", *(_f(v) for v in m), *json_out)))

        x, y = _start(rng)
        lam = (0.0, 1.0, -1.0, uni(0.2, 0.9), -uni(0.2, 0.9), uni(1.1, 1.9),
               -uni(1.1, 1.9), uni(0.2, 0.9))[k % 8]
        out.append(Invocation(("orbit", _f(x), _f(y), "--lambda", _f(lam),
                               "--axis", _f(_axis(rng)), "--iters", "64", *json_out)))

        n = 2 + k % 3
        rows = _scalar(n, uni(-3.0, 3.0)) if k % 4 < 2 else _random_sym(rng, n)
        out.append(_psym(workdir / f"small{k}.txt", rows, bool(json_out)))

    x, y = _start(rng)
    axis = _f(_axis(rng))
    bad_sym = workdir / "nonsym.txt"
    rows = _random_sym(rng, 3)
    rows[0][2] += 0.5
    write_matrix(bad_sym, rows)
    out += [
        Invocation(("decompose", "1.0", "2.0", "3.0", "-1.0"), 2),
        Invocation(("decompose", "1.0", "2.0", "2.0", "1.0"), 2),
        Invocation(("ortho-classify", "1.0", "2.0", "3.0", "4.0"), 2),
        Invocation(("orbit", _f(x), _f(y), "--lambda", "0.5", "--axis", axis,
                    "--iters", "0"), 2),
        Invocation(("orbit", _f(x), _f(y), "--lambda", "0.5", "--axis", axis,
                    "--iters", "1000001"), 2),
        Invocation(("psym", str(bad_sym)), 2),
        Invocation(("orbit", "nan", "0", "--lambda", "0.5", "--axis", axis, "--json"), 2),
        Invocation(("classify", _f(x), _f(y), "--lambda", "inf", "--axis", axis), 2),
        Invocation(("orbit", _f(x), _f(y), "--lambda", "1e200", "--axis", axis,
                    "--svg", str(workdir / "huge.svg")), None),
    ]
    rng.shuffle(out)
    return out


_ROUND = {"orbit-long": _orbit_long, "psym-large": _psym_large, "cli-short": _cli_short}


def make_round(workload: str, seed: int, workdir: Path) -> list[Invocation]:
    """The round of a workload; writes its matrix files into workdir."""
    rng = random.Random(f"{workload}/{seed}")
    return _ROUND[workload](rng, workdir)
