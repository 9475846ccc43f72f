"""End-to-end acceptance checks, one test per pinned property.

Each test prints a single PASS/FAIL line (visible with -s, or in captured
output on failure) and asserts both the property at its stated tolerance
and the stated runtime budget.
"""

import math
import pathlib
import time

import numpy as np

import oracles
from symdyn import core, dynamics, frobenius, geometry
from symdyn.cli import main
from symdyn.core import Point2
from symdyn.dynamics import Infinite
from symdyn.geometry import AxisLine, Direction, ReflectScale

GOLDEN = pathlib.Path(__file__).parent / "golden"
TAU = 2.0 * math.pi


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_structure_round_trip():
    # 10,000 random (scale, angle) pairs survive build -> decompose with
    # relative scale error < 1e-9 and angle error < 1e-9 mod 2*pi
    rng = np.random.default_rng(101)
    lams = rng.uniform(0.0, 100.0, 10_000)
    thetas = rng.uniform(0.0, TAU, 10_000)
    t0 = time.perf_counter()
    bad = 0
    for lam, theta in zip(lams, thetas):
        tz = core.decompose(core.matrix_from_params(lam, theta))
        if abs(tz.lam - lam) >= 1e-9 * lam or oracles.ang_dist(tz.theta, theta) >= 1e-9:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 1.0
    _report("structure round-trip", ok, f"10000 samples, {bad} failures, {elapsed:.2f}s")
    assert bad == 0
    assert elapsed < 1.0


def test_orthogonal_classification():
    # 2,000 random rotation/reflection templates classify to the right
    # variant with angle error < 1e-9; every reflection is symmetric and
    # trace-zero of unit scale
    rng = np.random.default_rng(202)
    angles = rng.uniform(0.0, TAU, 2_000)
    t0 = time.perf_counter()
    bad = 0
    for i, ang in enumerate(angles):
        if i % 2 == 0:
            o = core.classify_orthogonal(oracles.rotation_cw(ang))
            if o.variant is not core.OrthogonalVariant.ROTATION:
                bad += 1
                continue
        else:
            m = oracles.reflection_matrix_from_matrix_angle(ang)
            o = core.classify_orthogonal(m)
            if o.variant is not core.OrthogonalVariant.REFLECTION:
                bad += 1
                continue
            om = o.matrix()
            tz = core.decompose(om)
            if om[0, 1] != om[1, 0] or abs(om[0, 0] + om[1, 1]) > 1e-15 or abs(tz.lam - 1.0) > 1e-9:
                bad += 1
                continue
        if oracles.ang_dist(o.angle, ang) >= 1e-9:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 1.0
    _report("orthogonal classification", ok, f"2000 samples, {bad} failures, {elapsed:.2f}s")
    assert bad == 0
    assert elapsed < 1.0


def test_reflection_oracle_agreement():
    # matrix route vs secant/cosecant route on the wedge
    # 0 < alpha <= theta <= 2 theta - alpha < pi/2, componentwise 1e-9
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(2_000):
        alpha = rng.uniform(0.01, math.pi / 2.0 - 0.02)
        theta = rng.uniform(alpha, (math.pi / 2.0 + alpha) / 2.0 - 0.005)
        x0 = rng.uniform(0.1, 10.0)
        y0 = x0 * math.tan(alpha)
        x1, y1 = oracles.polar_reflect(x0, y0, alpha, theta)
        q = geometry.reflect_point(Point2(x0, y0), AxisLine(theta))
        if abs(q.x - x1) >= 1e-9 or abs(q.y - y1) >= 1e-9:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 1.0
    _report("reflection oracle agreement", ok, f"2000 samples, {bad} failures, {elapsed:.2f}s")
    assert bad == 0
    assert elapsed < 1.0


def test_power_identity_criterion():
    # exhaustive n in 1..12 and scale in {-2, -1, -0.5, 0, 0.5, 1, 2}:
    # the closed-form predicate matches "power within 1e-12 of identity"
    t0 = time.perf_counter()
    disagreements = 0
    cases = 0
    for n in range(1, 13):
        for lam in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            cases += 1
            m = ReflectScale(lam, AxisLine(0.7))
            matches = bool(np.max(np.abs(dynamics.power_T(m, n) - np.eye(2))) <= 1e-12)
            if dynamics.is_power_identity(lam, n) != matches:
                disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and cases == 84
    _report("power identity criterion", ok, f"{cases} cases, {disagreements} disagreements, {elapsed:.2f}s")
    assert cases == 84
    assert disagreements == 0


def test_orbit_finiteness_law():
    # finite scales: the oracle's distinct count of the trace equals the
    # closed form; generic scales (0.05 away from 0 and +-1, start norm
    # >= 0.1): verdict Infinite and no revisit in 50 iterations
    rng = np.random.default_rng(505)
    eps = core.DEFAULT_TOL.eps
    t0 = time.perf_counter()
    bad_finite = 0
    for _ in range(1_000):
        lam = float(rng.choice([0.0, 1.0, -1.0]))
        phi = rng.uniform(0.0, math.pi)
        p = Point2(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        if p.norm() < 0.1:
            p = Point2(p.x + 1.0, p.y)
        m = ReflectScale(lam, AxisLine(phi))
        rec = dynamics.orbit(p, m, 50)
        analytic = dynamics.classify_orbit_cardinality(p, m)
        if oracles.distinct_points(rec.xs, rec.ys, eps) != analytic.size:
            bad_finite += 1
    bad_generic = 0
    for _ in range(1_000):
        mag = rng.uniform(0.05, 2.0)
        while min(abs(mag), abs(mag - 1.0)) < 0.05:
            mag = rng.uniform(0.05, 2.0)
        lam = mag if rng.uniform() < 0.5 else -mag
        phi = rng.uniform(0.0, math.pi)
        p = Point2(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        if p.norm() < 0.1:
            p = Point2(p.x + 1.0, p.y)
        rec = dynamics.orbit(p, ReflectScale(lam, AxisLine(phi)), 50)
        if rec.cardinality != Infinite() or oracles.distinct_points(rec.xs, rec.ys, eps) != 51:
            bad_generic += 1
    elapsed = time.perf_counter() - t0
    ok = bad_finite == 0 and bad_generic == 0 and elapsed < 2.0
    _report(
        "orbit finiteness law",
        ok,
        f"1000+1000 samples, {bad_finite} finite / {bad_generic} generic failures, {elapsed:.2f}s",
    )
    assert bad_finite == 0
    assert bad_generic == 0
    assert elapsed < 2.0


def test_distance_identities():
    # iterated distance equals |lam|^n d(p, q) within 1e-9 relative, the
    # Cauchy bound holds with slack >= -1e-12, and the iterated norm
    # equals |lam|^n |p| within 1e-9 relative
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(2_000):
        lam = rng.uniform(-2.0, 2.0)
        phi = rng.uniform(0.0, math.pi)
        n = int(rng.integers(0, 31))
        m = int(rng.integers(0, 31))
        px, py = rng.uniform(-10.0, 10.0, 2)
        qx, qy = rng.uniform(-10.0, 10.0, 2)
        anx, any_ = oracles.iterate_map(px, py, lam, phi, n)
        bnx, bny = oracles.iterate_map(qx, qy, lam, phi, n)
        d_iter = oracles.dist(anx, any_, bnx, bny)
        d_closed = dynamics.distance_after_n(Point2(px, py), Point2(qx, qy), lam, n)
        if abs(d_iter - d_closed) > 1e-9 * d_closed:
            bad += 1
            continue
        amx, amy = oracles.iterate_map(px, py, lam, phi, m)
        gap = oracles.dist(anx, any_, amx, amy)
        bound = dynamics.cauchy_bound(Point2(px, py), lam, n, m)
        if bound - gap < -1e-12:
            bad += 1
            continue
        norm_iter = math.hypot(anx, any_)
        norm_closed = dynamics.distance_to_origin_after_n(Point2(px, py), lam, n)
        if abs(norm_iter - norm_closed) > 1e-9 * norm_closed:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 2.0
    _report("distance identities", ok, f"2000 samples, {bad} failures, {elapsed:.2f}s")
    assert bad == 0
    assert elapsed < 2.0


def _steps_below(mag: float, bound: float) -> int:
    # steps for d_n = |lam|**n * d_0 to fall below bound * d_0: the ceiling
    # of log(bound) / log(mag), plus one if rounding leaves mag**n at bound
    n = math.ceil(math.log(bound) / math.log(mag))
    return n + 1 if mag ** n >= bound else n


def test_stable_set_dichotomy():
    # contraction side: for |lam| in [0.05, 0.95] the distance between two
    # iterates obeys d_n = |lam|**n * d_0, so after the n steps at which
    # |lam|**n first drops below 1e-6 the distance ratio is below 1e-6 and
    # equals |lam|**n within 1e-9 relative (n runs from 5 to 270 over the
    # range); symdyn reports the whole plane as the stable set and every
    # pair as forward asymptotic. Expansion side: for |lam| >= 1 the
    # per-step distance ratio is |lam| within 1e-12, so the distance never
    # contracts, and symdyn reports the stable set as the point itself and
    # the pair as not forward asymptotic.
    rng = np.random.default_rng(707)
    t0 = time.perf_counter()
    contraction_violations = []
    library_mismatches = 0
    for _ in range(500):
        mag = rng.uniform(0.05, 0.95)
        lam = mag if rng.uniform() < 0.5 else -mag
        phi = rng.uniform(0.0, math.pi)
        px, py = rng.uniform(-1.0, 1.0, 2)
        qx, qy = rng.uniform(-1.0, 1.0, 2)
        d0 = oracles.dist(px, py, qx, qy)
        if d0 == 0.0:
            continue
        p, q = Point2(px, py), Point2(qx, qy)
        if (dynamics.stable_set(p, lam) is not dynamics.StableSet.WHOLE_PLANE
                or not dynamics.is_forward_asymptotic(p, q, lam)):
            library_mismatches += 1
        n = _steps_below(mag, 1e-6)
        predicted = mag ** n
        ax, ay = oracles.iterate_map(px, py, lam, phi, n)
        bx, by = oracles.iterate_map(qx, qy, lam, phi, n)
        ratio = oracles.dist(ax, ay, bx, by) / d0
        if ratio >= 1e-6 or abs(ratio - predicted) > 1e-9 * predicted:
            contraction_violations.append(
                f"|lam| {mag:.6f}, n {n}, ratio {ratio:.6e}, predicted |lam|**n {predicted:.6e}"
            )
    expansion_violations = 0
    for _ in range(500):
        mag = rng.uniform(1.0, 2.0)
        lam = mag if rng.uniform() < 0.5 else -mag
        phi = rng.uniform(0.0, math.pi)
        px, py = rng.uniform(-1.0, 1.0, 2)
        qx, qy = rng.uniform(-1.0, 1.0, 2)
        d_prev = oracles.dist(px, py, qx, qy)
        if d_prev == 0.0:
            continue
        p, q = Point2(px, py), Point2(qx, qy)
        if (dynamics.stable_set(p, lam) is not dynamics.StableSet.SINGLETON_SELF
                or dynamics.is_forward_asymptotic(p, q, lam)):
            library_mismatches += 1
        d0 = d_prev
        for _step in range(60):
            px, py = oracles.iterate_map(px, py, lam, phi, 1)
            qx, qy = oracles.iterate_map(qx, qy, lam, phi, 1)
            d_cur = oracles.dist(px, py, qx, qy)
            if abs(d_cur / d_prev - abs(lam)) > 1e-12 * (1.0 + abs(lam)):
                expansion_violations += 1
                break
            if d_cur < d0 * (1.0 - 1e-12):
                expansion_violations += 1
                break
            d_prev = d_cur
    elapsed = time.perf_counter() - t0
    ok = (not contraction_violations and expansion_violations == 0
          and library_mismatches == 0 and elapsed < 1.0)
    _report(
        "stable-set dichotomy",
        ok,
        f"500+500 samples, {len(contraction_violations)} contraction / "
        f"{expansion_violations} expansion failures, {library_mismatches} library "
        f"mismatches, {elapsed:.2f}s",
    )
    assert expansion_violations == 0
    assert library_mismatches == 0
    assert not contraction_violations, (
        f"{len(contraction_violations)} of 500 contraction samples break "
        f"d_n = |lam|**n * d_0 below 1e-6; first: {contraction_violations[0]}"
    )
    assert elapsed < 1.0


def test_psym_characterization():
    # 500 random symmetric + 50 scalar + 50 perturbed-scalar matrices over
    # n in 2..6: trace-pairing membership agrees with an independent "is c * I
    # within 1e-9" oracle on every case, and the scalar ones are members; the
    # complement dimension is 1 for every n, confirmed by an independent
    # flattened-vector rank oracle
    rng = np.random.default_rng(808)
    t0 = time.perf_counter()
    bad = 0
    dims = [2, 3, 4, 5, 6]
    for i in range(500):
        n = dims[i % 5]
        m = rng.uniform(-10.0, 10.0, (n, n))
        m = 0.5 * (m + m.T)
        a = frobenius.SymMatN.from_matrix(m)
        if frobenius.is_in_psym(a) != oracles.is_scalar(m.tolist(), 1e-9):
            bad += 1
    for i in range(50):
        n = dims[i % 5]
        m = rng.uniform(-10.0, 10.0) * np.eye(n)
        a = frobenius.SymMatN.from_matrix(m)
        if not (frobenius.is_in_psym(a) and oracles.is_scalar(m.tolist(), 1e-9)):
            bad += 1
    for i in range(50):
        n = dims[i % 5]
        m = rng.uniform(-10.0, 10.0) * np.eye(n)
        r, c = int(rng.integers(0, n)), int(rng.integers(0, n))
        m[r, c] += 1e-3
        m[c, r] = m[r, c]
        a = frobenius.SymMatN.from_matrix(m)
        if frobenius.is_in_psym(a) or oracles.is_scalar(m.tolist(), 1e-9):
            bad += 1
    dim_bad = 0
    for n in dims:
        if frobenius.psym_dimension(n) != 1:
            dim_bad += 1
        stacked = np.array(
            [b.to_matrix().ravel() for b in frobenius.sym0_basis(n)]
            + [np.eye(n).ravel()]
        )
        if np.linalg.matrix_rank(stacked) != n * (n + 1) // 2:
            dim_bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and dim_bad == 0 and elapsed < 2.0
    _report("psym characterization", ok, f"600 cases, {bad}+{dim_bad} failures, {elapsed:.2f}s")
    assert bad == 0
    assert dim_bad == 0
    assert elapsed < 2.0


def test_composition_law():
    # rotation times reflection equals the angle-shifted reflection,
    # entrywise within 1e-12, both senses
    rng = np.random.default_rng(909)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(2_000):
        alpha = rng.uniform(0.0, TAU)
        theta = rng.uniform(0.0, TAU)
        for direction in (Direction.CLOCKWISE, Direction.ANTICLOCKWISE):
            g = geometry.compose_rotation_reflection(alpha, theta, direction)
            lhs = geometry.rotation_matrix(alpha, direction) @ core.matrix_from_params(1.0, theta)
            rhs = core.matrix_from_params(1.0, g)
            if np.max(np.abs(lhs - rhs)) >= 1e-12:
                bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 1.0
    _report("composition law", ok, f"2000 samples x 2 senses, {bad} failures, {elapsed:.2f}s")
    assert bad == 0
    assert elapsed < 1.0


def test_cli_golden_files(tmp_path, capsys):
    # the three documented orbit traces are byte-identical to the golden
    # files, and the documented error examples exit with the right codes
    t0 = time.perf_counter()
    jobs = [
        (["orbit", "1", "0", "--lambda", "0.5", "--axis", "0.3927", "--iters", "8"],
         "orbit_half_scale.csv"),
        (["orbit", "0", "0", "--lambda", "2", "--axis", "1", "--iters", "3"],
         "orbit_origin.csv"),
        (["orbit", "1", "1", "--lambda", "1", "--axis", "0.7853981634", "--iters", "5"],
         "orbit_fixed_point.csv"),
    ]
    mismatches = 0
    for i, (argv, golden_name) in enumerate(jobs):
        out = tmp_path / f"{i}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        if out.read_bytes() != (GOLDEN / golden_name).read_bytes():
            mismatches += 1
    code_bad = 0
    if main(["decompose", "1", "2", "3", "4"]) != 2:
        code_bad += 1
    if main(["orbit", "1", "0", "--lambda", "1", "--axis", "0", "--iters", "2",
             "--out", "/nonexistent-dir-xyz/o.csv"]) != 3:
        code_bad += 1
    asym = tmp_path / "asym.txt"
    asym.write_text("2 0 1 2 0")
    if main(["psym", str(asym)]) != 2:
        code_bad += 1
    big = tmp_path / "big.txt"
    big.write_text("65 " + " ".join(["0"] * (65 * 65)))
    if main(["psym", str(big)]) != 2:
        code_bad += 1
    capsys.readouterr()  # drop CLI chatter so the report line stands alone
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and code_bad == 0 and elapsed < 1.0
    _report("cli golden files", ok, f"3 golden + 4 exit codes, {mismatches}+{code_bad} failures, {elapsed:.2f}s")
    assert mismatches == 0
    assert code_bad == 0
    assert elapsed < 1.0
