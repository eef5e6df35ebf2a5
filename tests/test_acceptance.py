"""End-to-end acceptance gate.

Each test covers one headline guarantee and prints a single PASS/FAIL line
so the suite doubles as a release checklist:

1. integrated invariant distances on the disk reproduce the Poincaré distance
2. tanh-diameter contraction constants hold on concentric disks, sharply
3. dilation contraction constants hold on disk and bidisc pairs
4. certified geometric decay and tail bounds dominate the true errors
5. Picard iteration locates fixed points to 1e-9, uniquely
6. random holomorphic self-maps never beat the Schwarz-Pick inequalities
7. forward-mode derivatives agree with central differences
8. semianalytic lower bounds are honest and nearly sharp at centers
"""

import math
import time

import numpy as np
import pytest

from conftest import central_diff_jvp, random_disk_selfmaps
from hypermetric.contraction import (
    certificate_for,
    dilation_constant,
    verify_metric_contraction,
)
from hypermetric.domains import Disk, Point, Polydisc, SemiAnalytic, sample, unit_disk
from hypermetric.errors import NonConvergenceError
from hypermetric.fixedpoint import (
    CONSISTENT,
    certify_tail,
    picard_solve,
    verify_decay,
)
from hypermetric.holomap import SUPPORTED, parse, range_check
from hypermetric.metrics import (
    caratheodory_metric,
    integrated_distance,
    metric_field,
    poincare_distance,
    poincare_metric,
)


def _report(number, label, ok, detail=""):
    """Print the PASS/FAIL line; detail carries the measured values."""
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def _polydisc_as_semianalytic(centers, radii):
    n = len(centers)
    constraints = []
    box = []
    for j, (c, r) in enumerate(zip(centers, radii)):
        c = complex(c)
        expr = f"z{j + 1}" if c == 0 else f"z{j + 1} - ({c.real}+{c.imag}i)"
        constraints.append((parse(expr, n), float(r)))
        box.append([c.real - r, c.real + r, c.imag - r, c.imag + r])
    return SemiAnalytic(constraints, box)


def test_criterion_1_disk_identity():
    start = time.monotonic()
    d = unit_disk()
    grid = sample(d, 7, seed=1)[:, 0].tolist()
    worst = 0.0
    for metric in ("caratheodory", "kobayashi"):
        field = metric_field(d, metric)
        for a in grid:
            for b in grid:
                got = integrated_distance(field, d, a, b).value
                worst = max(worst, abs(got - poincare_distance(a, b)))
    elapsed = time.monotonic() - start
    _report(
        1,
        "integrated disk identity",
        worst <= 1e-4 and elapsed < 60,
        f"worst error {worst:.3g} (bound 1e-4), elapsed {elapsed:.1f} s (bound 60 s)",
    )


def test_criterion_2_tanh_diameter_contraction():
    ok = True
    X = unit_disk()
    for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
        U = Disk(0, rho)
        k = 2 * rho / (1 + rho**2)
        assert math.isclose(k, math.tanh(2 * math.atanh(rho)), rel_tol=1e-12)
        report = verify_metric_contraction(X, U, k, samples=256)
        ok &= report.verdict == "holds"
        ok &= abs(report.max_ratio - rho) <= 1e-6
        ok &= max(abs(z) for z in report.argmax_point) <= 1e-9
    _report(2, "tanh-diameter constants on concentric disks", ok)


def test_criterion_3_dilation_constant():
    cert = dilation_constant(1.0, 0.5)
    ok = cert.k == 2 / 3
    ratio = (
        caratheodory_metric(unit_disk(), 0, 1).value
        / caratheodory_metric(Disk(0, 0.5), 0, 1).value
    )
    ok &= ratio == pytest.approx(0.5, abs=1e-12) and ratio <= cert.k

    X = Polydisc([0, 0], [1, 1])
    U = Polydisc([0, 0], [0.5, 0.5])
    cert2 = certificate_for(X, U, method="dilation")
    R, r = math.sqrt(2), 0.5
    ok &= cert2.k == pytest.approx(R / (R + r), rel=1e-12)
    ratio2 = (
        caratheodory_metric(X, (0, 0), (1, 0)).value
        / caratheodory_metric(U, (0, 0), (1, 0)).value
    )
    ok &= ratio2 <= cert2.k
    _report(3, "dilation constants on disk and bidisc pairs", ok)


def test_criterion_4_certified_decay():
    start = time.monotonic()
    f = parse("(z1^2 + 1)/4", 1)
    X, U = unit_disk(), Disk(0, 0.6)
    converged = picard_solve(f, X, U, 0.0).c.coords[0]

    # a >= 30-step trace: disable the stopping rule and let max_iter cut it
    with pytest.raises(NonConvergenceError) as exc:
        picard_solve(f, X, U, 0.0, tol=0.0, max_iter=35)
    trace = exc.value.trace
    k = trace.certificate.k
    ok = len(trace) >= 31 and trace.certificate.rigorous

    report = verify_decay(trace, k)
    ok &= report.verdict == CONSISTENT

    tail_margin = min(
        (
            certify_tail(trace, n)
            - poincare_distance(trace.points[n, 0], converged)
            for n in range(1, len(trace))
        ),
        default=math.inf,
    )
    ok &= tail_margin >= 0
    elapsed = time.monotonic() - start
    _report(
        4,
        "geometric decay and tail bounds",
        ok and elapsed < 30,
        f"trace length {len(trace)}, rigorous {trace.certificate.rigorous}, "
        f"decay {report.verdict}, smallest tail margin {tail_margin:.3g} (bound 0), "
        f"elapsed {elapsed:.1f} s (bound 30 s)",
    )


def test_criterion_5_fixed_point_accuracy():
    f = parse("(z1^2 + 1)/4", 1)
    res = picard_solve(f, unit_disk(), Disk(0, 0.6), 0.0)
    ok = abs(res.c.coords[0] - (2 - math.sqrt(3))) < 1e-9

    g = parse("z1/3 + 0.1; z2^2/4", 2)
    X = Polydisc([0, 0], [1, 1])
    U = Polydisc([0, 0], [0.6, 0.6])
    res2 = picard_solve(g, X, U, (0.5, 0.5))
    ok &= np.linalg.norm(res2.c.as_array() - np.array([0.15, 0.0])) < 1e-9

    roots = [
        picard_solve(f, unit_disk(), Disk(0, 0.6), x0).c.coords[0]
        for x0 in (0.0, 0.5, -0.5, 0.3j, -0.2 - 0.4j)
    ]
    ok &= all(abs(c - roots[0]) < 2e-9 for c in roots[1:])
    _report(5, "fixed-point accuracy and uniqueness", ok)


def test_criterion_6_schwarz_pick_suite():
    start = time.monotonic()
    maps = random_disk_selfmaps(1000, seed=2024)
    d = unit_disk()
    pts = sample(d, 6, seed=6)[:, 0].tolist()
    worst_metric = worst_distance = -math.inf
    checked = 0
    for i, f in enumerate(maps):
        if i < 20:  # spot-check that the generator really produces self-maps
            ev = range_check(f, d, d, samples=64, seed=i)
            assert ev.verdict != "refuted"
        z, w = pts[i % len(pts)], pts[(i + 3) % len(pts)]
        v = 1 + 0.5j
        fz = f.eval(z).coords[0]
        fw = f.eval(w).coords[0]
        dv = f.jvp(z, v)[0]
        worst_metric = max(worst_metric, poincare_metric(fz, dv) - poincare_metric(z, v))
        worst_distance = max(
            worst_distance, poincare_distance(fz, fw) - poincare_distance(z, w)
        )
        checked += 1
    elapsed = time.monotonic() - start
    ok = (
        checked == 1000
        and worst_metric <= 1e-9
        and worst_distance <= 1e-9
        and elapsed < 60
    )
    _report(
        6,
        "Schwarz-Pick inequalities on 1000 random self-maps",
        ok,
        f"checked {checked}/1000, worst metric excess {worst_metric:.3g}, "
        f"worst distance excess {worst_distance:.3g} (bounds 1e-9), "
        f"elapsed {elapsed:.1f} s (bound 60 s)",
    )


def test_criterion_7_derivative_correctness():
    maps = random_disk_selfmaps(100, seed=7)
    rng = np.random.default_rng(7)
    worst = 0.0
    for f in maps:
        z = np.array([0.5 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))])
        v = np.array([rng.normal() + 1j * rng.normal()])
        got = f.jvp(z, v)
        want = central_diff_jvp(f, z, v)
        denom = max(1.0, float(np.linalg.norm(want)))
        worst = max(worst, float(np.linalg.norm(got - want)) / denom)
    _report(7, "dual-number derivatives vs central differences", worst <= 1e-6)


def test_criterion_8_bound_honesty():
    ok = True
    cases = [
        ([0], [1]),
        ([0.2 + 0.1j], [0.5]),
        ([0, 0], [1, 2]),
    ]
    for centers, radii in cases:
        exactd = Disk(centers[0], radii[0]) if len(centers) == 1 else Polydisc(centers, radii)
        semid = _polydisc_as_semianalytic(centers, radii)
        v = np.ones(len(centers), dtype=complex)
        for p in sample(exactd, 12, seed=8):
            lower = caratheodory_metric(semid, p, v).value
            exact = caratheodory_metric(exactd, p, v).value
            ok &= lower <= exact + 1e-9
        center = Point(np.array(centers, dtype=complex))
        lower_c = caratheodory_metric(semid, center, v).value
        exact_c = caratheodory_metric(exactd, center, v).value
        ok &= lower_c >= 0.95 * exact_c
    _report(8, "semianalytic lower bounds honest and sharp at centers", ok)
