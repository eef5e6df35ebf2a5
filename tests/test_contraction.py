import itertools
import math

import numpy as np
import pytest

from conftest import random_disk_selfmaps
from hypermetric.contraction import (
    DILATION,
    HOLDS,
    INCONCLUSIVE,
    TANH_DIAMETER,
    VIOLATED,
    SampleVerdict,
    _extremal_probes,
    caratheodory_diameter,
    certificate_for,
    dilate_disk,
    dilation_constant,
    tanh_diameter_constant,
    verify_metric_contraction,
)
from hypermetric.domains import (
    Disk,
    Polydisc,
    SemiAnalytic,
    _sphere_directions,
    contains,
    diameter_bound,
    inner_gap,
    sample,
    unit_disk,
)
from hypermetric.errors import ArgumentError, InclusionError
from hypermetric.holomap import parse
from hypermetric.metrics import (
    EXACT,
    LOWER,
    Bound,
    caratheodory_distance,
    caratheodory_metric,
    kobayashi_metric,
)


def moebius_disk():
    """The unit disk cut out by one of its automorphisms."""
    return SemiAnalytic(
        [(parse("(z1 - 0.2)/(1 - 0.2*z1)", 1), 1.0)], [[-1.05, 1.05, -1.05, 1.05]]
    )


def moebius_bidisc():
    """The unit bidisc cut out the same way in z1 and by |z2^2| < 1."""
    box = [-1.05, 1.05, -1.05, 1.05]
    return SemiAnalytic(
        [(parse("(z1 - 0.2)/(1 - 0.2*z1)", 2), 1.0), (parse("z2^2", 2), 1.0)], [box, box]
    )


class TestCaratheodoryDiameter:
    def test_concentric_disks_exact(self):
        # 2 atanh(0.5) = ln 3
        M = caratheodory_diameter(unit_disk(), Disk(0, 0.5))
        assert M.kind == EXACT
        assert M.value == pytest.approx(math.log(3), rel=1e-12)

    def test_concentric_polydisc_exact(self):
        M = caratheodory_diameter(
            Polydisc([0, 1j], [1, 2]), Polydisc([0, 1j], [0.5, 0.6])
        )
        assert M.kind == EXACT
        assert M.value == pytest.approx(2 * math.atanh(0.5))

    # Disk(0.2, 0.3) is not concentric with the unit disk; its diameter is
    # taken between -0.1 and 0.5 on the real axis
    OFFCENTER_DIAMETER = math.atanh(0.6 / 1.05)

    def test_offcenter_disk_exact(self):
        M = caratheodory_diameter(unit_disk(), Disk(0.2, 0.3))
        assert M.kind == EXACT
        assert M.value == pytest.approx(self.OFFCENTER_DIAMETER, abs=1e-12)

    def test_offcenter_polydisc_exact(self):
        # per coordinate the extremal pairs are -0.4, 0.6 and -0.4, 0.4; the
        # first gives the diameter atanh(1/1.24)
        M = caratheodory_diameter(Polydisc([0, 0], [1, 1]), Polydisc([0.1, 0], [0.5, 0.4]))
        assert M.kind == EXACT
        assert M.value == pytest.approx(math.atanh(1 / 1.24), abs=1e-12)

    def test_far_centre_is_not_concentric(self):
        # the centres differ by 0.005, which np.allclose would call equal
        cert = certificate_for(Disk(1000, 1), Disk(1000.005, 0.5), TANH_DIAMETER)
        assert cert.rigorous and cert.M.kind == EXACT
        assert cert.k == pytest.approx(1 / 1.249975, rel=1e-12)

    def test_nested_disks_match_boundary_search(self):
        # the largest Poincaré distance between 720 points on the boundary
        # circle of U, in the coordinate of X's unit disk
        rng = np.random.default_rng(1919)
        for _ in range(50):
            cX, rX = complex(*rng.uniform(-5, 5, 2)), rng.uniform(0.5, 3)
            rho = rng.uniform(0.05, 0.9)
            c = (1 - rho) * rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.random())
            X, U = Disk(cX, rX), Disk(cX + rX * c, rX * rho)
            M = caratheodory_diameter(X, U)
            ring = U.centers[0] + U.radii[0] * np.exp(2j * np.pi * np.arange(720) / 720)
            w = (ring - X.centers[0]) / X.radii[0]
            q = np.abs((w[:, None] - w[None, :]) / (1 - np.conj(w[None, :]) * w[:, None]))
            search = float(np.arctanh(q.max()))
            assert M.kind == EXACT
            assert search - 1e-12 <= M.value <= search * (1 + 1e-6)

    @pytest.mark.parametrize("center, radius", [(0, 0.5), (0.3j, 0.4)])
    def test_semianalytic_close_to_closed_form(self, center, radius):
        # the Möbius-cut domain is the unit disk, in which Disk(c, rho) has
        # the diameter atanh(2 rho / (1 - |c|^2 + rho^2))
        X, U = moebius_disk(), Disk(center, radius)
        M = caratheodory_diameter(X, U)
        exact = math.atanh(2 * radius / (1 - abs(center) ** 2 + radius**2))
        assert M.kind == LOWER
        assert exact >= M.value - 1e-12 >= 0.99 * exact
        # on a small sample, the sup over pairs of caratheodory_distance
        pts = np.concatenate([sample(U, 24), _extremal_probes(U, 0)])
        pairs = itertools.permutations(pts, 2)
        want = max(caratheodory_distance(X, a, b).value for a, b in pairs)
        small = caratheodory_diameter(X, U, samples=24)
        assert small.value == want

    def test_not_relatively_compact(self):
        with pytest.raises(InclusionError):
            caratheodory_diameter(unit_disk(), unit_disk())


class TestTanhDiameterConstant:
    def test_tanh_of_log3(self):
        cert = tanh_diameter_constant(Bound(math.log(3), EXACT))
        assert cert.k == pytest.approx(0.8, rel=1e-12)
        assert cert.rigorous and cert.method == TANH_DIAMETER

    def test_radius_point_six(self):
        # tanh(2 atanh(rho)) = 2 rho / (1 + rho^2)
        cert = tanh_diameter_constant(Bound(2 * math.atanh(0.6), EXACT))
        assert cert.k == pytest.approx(1.2 / 1.36, rel=1e-12)

    def test_sampled_diameter_not_rigorous(self):
        cert = tanh_diameter_constant(Bound(1.0, LOWER))
        assert not cert.rigorous

    def test_rejects_negative(self):
        with pytest.raises(ArgumentError):
            tanh_diameter_constant(Bound(-1.0, EXACT))


class TestDilationConstant:
    def test_unit_example_ratio(self):
        cert = dilation_constant(1.0, 0.5)
        assert cert.k == pytest.approx(2 / 3, rel=1e-15)
        assert cert.rigorous and cert.method == DILATION

    def test_equal_radii(self):
        assert dilation_constant(1.0, 1.0).k == 0.5

    def test_tiny_gap_is_valid(self):
        cert = dilation_constant(1.0, 1e-9)
        assert 0 < cert.k < 1

    def test_monotonicity(self):
        ks = [dilation_constant(1.0, r).k for r in (0.1, 0.2, 0.5, 1.0, 2.0)]
        assert ks == sorted(ks, reverse=True)

    def test_rejects_zero_gap(self):
        with pytest.raises(ArgumentError):
            dilation_constant(1.0, 0.0)


class TestCertificateFor:
    def test_dilation_route(self):
        cert = certificate_for(unit_disk(), Disk(0, 0.6), method=DILATION)
        # R = diam(U) = 1.2, r = 0.4
        assert cert.k == pytest.approx(1.2 / 1.6, rel=1e-12)
        assert cert.rigorous

    @pytest.mark.parametrize(
        "X, U",
        [
            # a disk with a hole of radius 0.002, which the sampled gap misses
            (
                SemiAnalytic(
                    [(parse("z1", 1), 1.0), (parse("1/(z1 - (0.37+0.11i))", 1), 500.0)],
                    [[-1.05, 1.05, -1.05, 1.05]],
                ),
                Disk(0, 0.3),
            ),
            # the unit disk cut out by one of its automorphisms
            (
                SemiAnalytic(
                    [(parse("(z1 - 0.2)/(1 - 0.2*z1)", 1), 1.0)],
                    [[-1.05, 1.05, -1.05, 1.05]],
                ),
                Disk(0, 0.5),
            ),
        ],
        ids=["holed", "moebius"],
    )
    def test_sampled_gap_is_not_rigorous(self, X, U):
        cert = certificate_for(X, U, method=DILATION)
        R, r = diameter_bound(U), inner_gap(U, X)
        assert cert.rigorous is False
        assert cert.k == dilation_constant(R, r).k

    def test_tanh_route(self):
        cert = certificate_for(unit_disk(), Disk(0, 0.5), method=TANH_DIAMETER)
        assert cert.k == pytest.approx(0.8, rel=1e-12)
        assert cert.rigorous

    def test_unknown_method(self):
        with pytest.raises(ArgumentError):
            certificate_for(unit_disk(), Disk(0, 0.5), method="magic")

    def test_json_shape(self):
        doc = certificate_for(unit_disk(), Disk(0, 0.5)).to_json()
        for key in ("k", "method", "M", "R", "r", "rigorous"):
            assert key in doc


class TestDilateDisk:
    def test_linear_disk(self):
        phi = dilate_disk(parse("0.4*z1", 1), 0.2, 0.4)
        for z in (0.3, -0.5j, 0.7 + 0.1j):
            assert phi.eval(z).coords[0] == pytest.approx(0.6 * complex(z))

    def test_constant_map_fixed(self):
        phi = dilate_disk(parse("0.3+0.1i", 1), 1.0, 2.0)
        assert phi.eval(0.5).coords[0] == pytest.approx(0.3 + 0.1j)

    def test_derivative_scaled(self):
        phi = parse("(z1^2 + z1)/3", 1)
        psi = dilate_disk(phi, 0.5, 1.0)
        assert psi.jvp(0, 1)[0] == pytest.approx(1.5 * phi.jvp(0, 1)[0])

    def test_image_containment(self):
        # if phi(unit disk) sits in Disk(c0, R') with slack, the dilation stays
        # inside the enlarged disk about the same center
        maps = random_disk_selfmaps(5, seed=23)
        zs = 0.95 * np.exp(2j * np.pi * np.arange(64) / 64)
        for phi in maps:
            c0 = phi.eval(0).coords[0]
            vals = np.array([phi.eval(z).coords[0] for z in zs])
            R = float(np.abs(vals - c0).max()) + 1e-12
            r = 0.5 * R
            psi = dilate_disk(phi, r, R)
            wals = np.array([psi.eval(z).coords[0] for z in zs])
            assert np.abs(wals - c0).max() <= (1 + r / R) * R + 1e-9


class TestVerifyMetricContraction:
    def test_holds_with_slack(self):
        report = verify_metric_contraction(unit_disk(), Disk(0, 0.5), k=0.85)
        assert report.verdict == "holds"
        assert report.n_violated == 0 and report.n_inconclusive == 0

    def test_max_ratio_at_center(self):
        # sup_U E_X / E_U for Disk(0, rho) in the unit disk is rho itself,
        # attained at the center; it stays below the certified tanh constant
        rho = 0.5
        report = verify_metric_contraction(unit_disk(), Disk(0, rho), k=0.85)
        assert report.max_ratio == pytest.approx(rho, abs=1e-6)
        assert report.argmax_point == (0j,)
        assert report.max_ratio <= 2 * rho / (1 + rho**2)

    def test_violated_below_sharp_constant(self):
        report = verify_metric_contraction(unit_disk(), Disk(0, 0.5), k=0.4)
        assert report.verdict == "violated"
        assert report.n_violated > 0

    def test_kobayashi_route(self):
        report = verify_metric_contraction(
            unit_disk(), Disk(0, 0.5), k=2 / 3 + 1e-6, metric="kobayashi", samples=64
        )
        assert report.verdict == "holds"

    @pytest.mark.parametrize("metric", ["caratheodory", "kobayashi"])
    @pytest.mark.parametrize(
        "X, U",
        [
            (moebius_disk(), Disk(0, 0.5)),
            (moebius_bidisc(), Polydisc([0, 0], [0.5, 0.4])),
        ],
        ids=["disk", "bidisc"],
    )
    def test_batched_matches_pointwise(self, X, U, metric):
        # reference: the verifier's loop before batching, one point and one
        # pointwise metric call per side at a time
        k, tol, seed = 0.9, 1e-9, 0
        pointwise = {"caratheodory": caratheodory_metric, "kobayashi": kobayashi_metric}[metric]
        Z = np.concatenate([U.centers[None], sample(U, 16, seed)])
        dirs = _sphere_directions(U.dim, 4 * U.dim + 8, seed + 1)
        want = []
        for idx, x in enumerate(map(tuple, Z.tolist())):
            v = dirs[idx % len(dirs)]
            outer, inner = pointwise(X, x, v), pointwise(U, x, v)
            exact_pair = outer.kind == EXACT and inner.kind == EXACT
            ratio = outer.value / inner.value if exact_pair and inner.value > 0 else None
            up, lo = outer.upper_value(), inner.lower_value()
            if up is not None and lo is not None and up <= k * lo + tol:
                verdict = HOLDS
            else:
                verdict = VIOLATED if exact_pair else INCONCLUSIVE
            want.append(SampleVerdict(x, tuple(v), outer, inner, verdict, ratio))
        report = verify_metric_contraction(X, U, k, metric=metric, samples=16, seed=seed)
        assert len(report.samples) == len(want)
        for got, ref in zip(report.samples, want):
            assert got == ref

    def test_k_range_validated(self):
        with pytest.raises(ArgumentError):
            verify_metric_contraction(unit_disk(), Disk(0, 0.5), k=1.0)
