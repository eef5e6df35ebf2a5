import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypermetric
from hypermetric.domains import (
    GAP_SAFETY,
    Disk,
    Point,
    Polydisc,
    SemiAnalytic,
    TangentVector,
    _BLOCK_POINTS,
    _Halton,
    _RAY_STEPS,
    _sphere_directions,
    boundary_distance,
    contains,
    diameter_bound,
    domain_from_json,
    inner_gap,
    sample,
    unit_disk,
)
from hypermetric.errors import (
    ArgumentError,
    InclusionError,
    MembershipError,
)
from hypermetric.holomap import parse


def box_semianalytic():
    return SemiAnalytic(
        [(parse("z1", 2), 1.0), (parse("z2", 2), 1.0)],
        [[-1, 1, -1, 1], [-1, 1, -1, 1]],
    )


def disk_semianalytic(radius=1.0):
    r = radius
    return SemiAnalytic([(parse("z1", 1), r)], [[-r, r, -r, r]])


MOEBIUS = "(z1 - 0.2)/(1 - 0.2*z1)"
WIDE_BOX = [-1.05, 1.05, -1.05, 1.05]


def moebius_disk():
    """The unit disk, cut out by a Moebius map inside a wider box."""
    return SemiAnalytic([(parse(MOEBIUS, 1), 1.0)], [WIDE_BOX])


def moebius_bidisc():
    return SemiAnalytic(
        [(parse(MOEBIUS, 2), 1.0), (parse("(z2 + 0.3i)/(1 - 0.3i*z2)", 2), 1.0)],
        [WIDE_BOX, WIDE_BOX],
    )


def holed_disk():
    """The unit disk minus the disk of radius 0.002 at 0.37+0.11i."""
    return SemiAnalytic(
        [(parse("z1", 1), 1.0), (parse("0.002/(z1 - (0.37+0.11i))", 1), 1.0)],
        [WIDE_BOX],
    )


def scalar_membership(d, z):
    """Membership of one point as the scalar rule reads: the box, then
    |g(z)| < t with the map evaluated at that point alone."""
    if isinstance(d, Polydisc):
        return bool(np.all(np.abs(z - d.centers) < d.radii))
    b = d.box()
    if not (
        np.all(z.real > b[:, 0]) and np.all(z.real < b[:, 1])
        and np.all(z.imag > b[:, 2]) and np.all(z.imag < b[:, 3])
    ):
        return False
    return all(abs(g.eval_array(z)[0]) < t for g, t in d.constraints)


class TestPoint:
    def test_scalar_coercion(self):
        p = Point(0.5)
        assert p.dim == 1 and p.coords == (0.5 + 0j,)

    def test_rejects_nan(self):
        with pytest.raises(ArgumentError):
            Point([float("nan")])

    def test_rejects_empty(self):
        with pytest.raises(ArgumentError):
            Point([])

    def test_tangent_dimension_mismatch(self):
        with pytest.raises(ArgumentError):
            TangentVector(Point([0, 0]), [1.0])


class TestContains:
    def test_disk_center(self):
        assert contains(unit_disk(), 0)

    def test_disk_boundary_excluded(self):
        assert not contains(unit_disk(), 1)

    def test_polydisc(self):
        d = Polydisc([0, 0], [1, 1])
        assert contains(d, (0.5, 0.9j))
        assert not contains(d, (1.0, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(ArgumentError):
            contains(unit_disk(), (0, 0))


MEMBERSHIP_DOMAINS = {
    "disk": unit_disk,
    "shifted_bidisc": lambda: Polydisc([0.3 - 0.2j, -0.5j], [0.8, 1.1]),
    "moebius_disk": moebius_disk,
    "moebius_bidisc": moebius_bidisc,
    "holed_disk": holed_disk,
    "constant": lambda: SemiAnalytic([(parse("0.5", 2), 1.0)], [WIDE_BOX, WIDE_BOX]),
}

_coordinates = st.one_of(
    # inside, near and exactly on |z| = 1
    st.tuples(
        st.sampled_from([0.0, 0.3, 0.7, 0.999, 1.0, 1.001, 1.03]),
        st.floats(0, 2 * math.pi),
    ).map(lambda t: t[0] * cmath.exp(1j * t[1])),
    st.sampled_from([1, -1, 1j, -1j, 0.6 + 0.8j, -0.8 - 0.6j]),
    # outside every box, and on the edge of the wide one
    st.sampled_from([2.0, -3j, 1.5 + 1.5j, 1.05, -1.05j]),
)


class TestContainsMany:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(MEMBERSHIP_DOMAINS)),
        st.lists(st.tuples(_coordinates, _coordinates), min_size=1, max_size=24),
    )
    def test_matches_one_point_membership(self, name, rows):
        d = MEMBERSHIP_DOMAINS[name]()
        Z = np.array(rows, dtype=complex)[:, : d.dim]
        got = d.contains_many(Z)
        assert got.dtype == bool and got.shape == (len(Z),)
        for i, z in enumerate(Z):
            assert got[i] == contains(d, z) == scalar_membership(d, z)

    @pytest.mark.parametrize("name", sorted(MEMBERSHIP_DOMAINS))
    def test_wrong_shape_raises(self, name):
        d = MEMBERSHIP_DOMAINS[name]()
        for bad in (np.zeros((3, d.dim + 1)), np.zeros(d.dim), np.zeros((1, 1, d.dim))):
            with pytest.raises(ArgumentError):
                d.contains_many(bad)

    @pytest.mark.parametrize("name", sorted(MEMBERSHIP_DOMAINS))
    def test_non_finite_row_is_outside(self, name):
        d = MEMBERSHIP_DOMAINS[name]()
        Z = np.zeros((4, d.dim), dtype=complex)
        Z[1, 0] = complex(float("nan"), 0)
        Z[2, -1] = complex(0, float("inf"))
        Z[3, 0] = complex(float("-inf"), float("nan"))
        assert d.contains_many(Z).tolist() == [True, False, False, False]

    def test_empty_batch(self):
        assert moebius_bidisc().contains_many(np.zeros((0, 2))).shape == (0,)

    def test_one_point_wrapper_still_checks_the_point(self):
        for d in (unit_disk(), moebius_disk()):
            with pytest.raises(ArgumentError):
                contains(d, (0, 0))
            with pytest.raises(ArgumentError):
                contains(d, float("nan"))


class TestBoundaryDistance:
    def test_disk_center(self):
        assert boundary_distance(unit_disk(), 0) == 1.0

    def test_disk_offcenter(self):
        assert boundary_distance(unit_disk(), 0.5) == pytest.approx(0.5)

    def test_polydisc(self):
        d = Polydisc([0, 0], [1, 2])
        assert boundary_distance(d, (0, 1)) == pytest.approx(1.0)

    def test_outside_raises(self):
        with pytest.raises(MembershipError):
            boundary_distance(unit_disk(), 2)

    @pytest.mark.parametrize("make", [moebius_disk, moebius_bidisc, holed_disk])
    def test_rays_match_one_point_march(self, make):
        # reference: march in box_diagonal/64 steps, then bisect 30 times,
        # one membership test per point
        def one_ray(d, z, u):
            t_max = d.box_diagonal()
            step = t_max / 64
            t, prev = step, 0.0
            while t <= t_max + step:
                if not contains(d, z + t * u):
                    lo, hi = prev, t
                    for _ in range(30):
                        mid = 0.5 * (lo + hi)
                        lo, hi = (mid, hi) if contains(d, z + mid * u) else (lo, mid)
                    return lo
                prev = t
                t += step
            return t_max

        d = make()
        z = np.full(d.dim, 0.3 - 0.35j)
        U = np.exp(1j * np.linspace(0, 6, 7 * d.dim)).reshape(-1, d.dim)
        U /= np.linalg.norm(U, axis=1)[:, None]
        assert d._ray_exit(z, U).tolist() == [one_ray(d, z, u) for u in U]

    def test_semianalytic_is_conservative(self):
        d = disk_semianalytic()
        got = boundary_distance(d, 0.5)
        assert 0 < got <= 0.5 + 1e-9

    def test_positive_inside(self):
        d = Polydisc([1j, 0], [0.5, 3])
        for p in sample(d, 16, seed=3):
            assert boundary_distance(d, p) > 0


def reference_boundary_distances(d, Z, directions):
    """One point at a time: the polydisc gap, or the box gap and a
    single-origin ray march."""
    out = []
    for z in Z:
        if isinstance(d, Polydisc):
            out.append(float(np.min(d.radii - np.abs(z - d.centers))))
            continue
        b = d.box()
        box_gap = min(
            float(np.min(z.real - b[:, 0])), float(np.min(b[:, 1] - z.real)),
            float(np.min(z.imag - b[:, 2])), float(np.min(b[:, 3] - z.imag)),
        )
        U = _sphere_directions(d.dim, directions, seed=1)
        out.append(GAP_SAFETY * min(box_gap, float(d._ray_exit(z, U).min())))
    return out


class TestBoundaryDistanceMany:
    @pytest.mark.parametrize("name", sorted(MEMBERSHIP_DOMAINS))
    @pytest.mark.parametrize("directions", [8, 32])
    def test_matches_one_point_reference(self, name, directions):
        d = MEMBERSHIP_DOMAINS[name]()
        # enough points for the ray march to cross a block seam
        count = _BLOCK_POINTS // (directions * (_RAY_STEPS + 2)) + 3
        Z = np.array([p.as_array() for p in sample(d, count, seed=2)])
        if isinstance(d, Polydisc):
            got = d.boundary_distance_many(Z)
            one = [boundary_distance(d, z) for z in Z]
        else:
            got = d.boundary_distance_many(Z, directions)
            one = [d.boundary_distance(z, directions) for z in Z]
        assert got.shape == (count,)
        assert got.tolist() == reference_boundary_distances(d, Z, directions) == one

    @pytest.mark.parametrize("name", sorted(MEMBERSHIP_DOMAINS))
    def test_outside_or_non_finite_row_raises(self, name):
        d = MEMBERSHIP_DOMAINS[name]()
        for bad in (3.0, complex(float("nan"), 0), complex(0, float("inf"))):
            Z = np.zeros((3, d.dim), dtype=complex)
            Z[1, -1] = bad
            with pytest.raises(MembershipError):
                d.boundary_distance_many(Z)

    @pytest.mark.parametrize("name", sorted(MEMBERSHIP_DOMAINS))
    def test_wrong_shape_raises(self, name):
        d = MEMBERSHIP_DOMAINS[name]()
        for bad in (np.zeros((3, d.dim + 1)), np.zeros(d.dim), np.zeros((1, 1, d.dim))):
            with pytest.raises(ArgumentError):
                d.boundary_distance_many(bad)

    def test_empty_batch(self):
        for d in (unit_disk(), moebius_bidisc()):
            assert d.boundary_distance_many(np.zeros((0, d.dim))).shape == (0,)

    @pytest.mark.parametrize("make", [moebius_disk, moebius_bidisc, holed_disk])
    def test_ray_exit_per_ray_origins(self, make):
        d = make()
        U = np.exp(1j * np.linspace(0, 6, 9 * d.dim)).reshape(-1, d.dim)
        U /= np.linalg.norm(U, axis=1)[:, None]
        origins = np.array([p.as_array() for p in sample(d, len(U), seed=5)])
        want = [d._ray_exit(z, u[None])[0] for z, u in zip(origins, U)]
        assert d._ray_exit(origins, U).tolist() == want


class TestDiameterBound:
    def test_disk(self):
        assert diameter_bound(Disk(0, 0.5)) == pytest.approx(1.0)

    def test_translation_invariance(self):
        assert diameter_bound(Disk(3 + 4j, 0.5)) == pytest.approx(1.0)

    def test_bidisc(self):
        assert diameter_bound(Polydisc([0, 0], [1, 1])) == pytest.approx(
            2 * math.sqrt(2)
        )

    def test_matches_bruteforce_pairwise_max(self):
        # oracle: max pairwise distance over a sample padded with the
        # extremal near-boundary pair
        d = Polydisc([0.5, -1j], [1, 2])
        pts = [p.as_array() for p in sample(d, 128, seed=5)]
        eps = 1e-12
        extreme = d.radii * (1 - eps)
        pts.append(d.centers + extreme)
        pts.append(d.centers - extreme)
        arr = np.array(pts)
        diffs = arr[:, None, :] - arr[None, :, :]
        brute = float(np.linalg.norm(diffs, axis=2).max())
        assert diameter_bound(d) == pytest.approx(brute, rel=1e-9)

    def test_semianalytic_box_diagonal(self):
        d = box_semianalytic()
        assert diameter_bound(d) == pytest.approx(math.sqrt(16), rel=1e-12)


class TestInnerGap:
    def test_concentric(self):
        assert inner_gap(Disk(0, 0.5), unit_disk()) == pytest.approx(0.5)

    def test_offcenter(self):
        assert inner_gap(Disk(0.25, 0.5), unit_disk()) == pytest.approx(0.25)

    def test_degenerate_inclusion_rejected(self):
        with pytest.raises(InclusionError):
            inner_gap(unit_disk(), unit_disk())

    def test_escaping_inclusion_rejected(self):
        with pytest.raises(InclusionError):
            inner_gap(Disk(0.8, 0.5), unit_disk())

    def test_sampled_route(self):
        g = inner_gap(Disk(0, 0.5), disk_semianalytic())
        assert 0 < g <= 0.5

    def test_ball_fits_inside(self):
        # for sampled x in U and unit directions u, x + 0.999 r u stays in X
        U, X = Disk(0.2, 0.4), unit_disk()
        r = inner_gap(U, X)
        angles = np.exp(2j * np.pi * np.arange(16) / 16)
        for p in sample(U, 32, seed=9):
            for u in angles:
                assert contains(X, p.as_array() + 0.999 * r * u)


class TestSample:
    def test_membership_disk(self):
        pts = sample(unit_disk(), 10, seed=7)
        assert len(pts) == 10
        assert all(abs(p.coords[0]) < 1 for p in pts)

    def test_determinism(self):
        a = sample(unit_disk(), 10, seed=7)
        b = sample(unit_disk(), 10, seed=7)
        assert [p.coords for p in a] == [p.coords for p in b]

    def test_membership_polydisc(self):
        d = Polydisc([0, 0], [1, 1])
        assert all(contains(d, p) for p in sample(d, 100, seed=1))

    def test_membership_semianalytic(self):
        d = box_semianalytic()
        assert all(contains(d, p) for p in sample(d, 64, seed=2))

    def test_near_boundary_share(self):
        d = unit_disk()
        radii = [abs(p.coords[0]) for p in sample(d, 64, seed=4)]
        assert max(radii) > 0.95

    def test_count_validation(self):
        with pytest.raises(ArgumentError):
            sample(unit_disk(), 0)


class TestHalton:
    def test_recorded_scipy_values(self):
        # scipy.stats.qmc.Halton(d=2, seed=3): draws of 3 and 2 points, and
        # Halton(d=3, seed=7).random(2), recorded from SciPy 1.17.1
        eng = _Halton(2, 3)
        assert eng.random(3).tolist() == [
            [0.5421992425581941, 0.13813582895439427],
            [0.04219924255819407, 0.47146916228772756],
            [0.7921992425581941, 0.804802495621061],
        ]
        assert eng.random(2).tolist() == [
            [0.29219924255819407, 0.24924694006550538],
            [0.6671992425581941, 0.5825802733988389],
        ]
        assert _Halton(3, 7).random(2).tolist() == [
            [0.10224233015287731, 0.9346983862017634, 0.8943413349392959],
            [0.6022423301528773, 0.2680317195350967, 0.09434133493929588],
        ]

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8])
    @pytest.mark.parametrize("seed", [0, 1, 3, 7])
    def test_matches_scipy(self, d, seed):
        from scipy.stats import qmc

        ours, theirs = _Halton(d, seed), qmc.Halton(d=d, seed=seed)
        for count in (1, 37, 256, 5000):
            assert np.array_equal(ours.random(count), theirs.random(count))

    def test_cli_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(hypermetric.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, hypermetric.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"


class TestPinnedValues:
    """Sampled values recorded before membership was batched; they must not move."""

    # sample(unit_disk(), 7, seed=1) and sample(Polydisc([0, 0], [1, 1]), 4,
    # seed=1), as frozen in the benchmark's DISK_GRID and BIDISC_POINTS
    DISK_GRID = (
        -0.18104889496236842 - 0.3481558816470283j,
        -0.4348049499254179 + 0.6818620650929842j,
        0.634986144204641 + 0.027996731249151804j,
        0.7777418599957387 - 0.5962529657874822j,
        -0.15727926023583325 - 0.06522618026669492j,
        0.09462500320251009 + 0.7211361376754317j,
        0.1145435550071975 - 0.5156267974987602j,
    )
    BIDISC_POINTS = (
        (-0.18104889496236842 - 0.3481558816470283j, -0.34261637783363097 - 0.24278096048468853j),
        (-0.4348049499254179 + 0.6818620650929842j, -0.2900854513075701 + 0.7015547078264024j),
        (0.634986144204641 + 0.027996731249151804j, 0.6566185495067404 - 0.5875207720390572j),
        (0.7802770163601614 - 0.5981965341856527j, -0.6094660058211532 + 0.17599228064437167j),
    )
    MOEBIUS_SAMPLE = (
        0.20815573775718788 + 0.46321889989264364j,
        -0.31684426224281204 - 0.23678110010735665j,
        -0.5793442622428121 + 0.6965522332259766j,
        0.793247311587982 - 0.5769438980287682j,
        -0.05434426224281208 - 0.4701144334406899j,
        -0.9730942622428121 + 0.22988556655931003j,
        -0.4480942622428121 + 0.3854411221148655j,
        0.7578227476685357 - 0.6225430949939694j,
    )

    def test_disk_grid(self):
        assert tuple(p.coords[0] for p in sample(unit_disk(), 7, seed=1)) == self.DISK_GRID

    def test_bidisc_points(self):
        pts = sample(Polydisc([0, 0], [1, 1]), 4, seed=1)
        assert tuple(p.coords for p in pts) == self.BIDISC_POINTS

    def test_moebius_sample(self):
        pts = sample(moebius_disk(), 8, seed=0)
        assert tuple(p.coords[0] for p in pts) == self.MOEBIUS_SAMPLE

    def test_moebius_boundary_distance(self):
        got = [boundary_distance(moebius_disk(), z) for z in (0, 0.5, -0.3 + 0.4j, 0.6 - 0.6j)]
        assert got == [0.8999999999848717, 0.44999999999243584, 0.4500022696101065, 0.136345703961282]

    def test_moebius_inner_gap(self):
        assert inner_gap(Disk(0, 0.5), moebius_disk()) == 0.4131030821701029


class TestJson:
    def test_disk_roundtrip(self):
        d = Disk(1 + 2j, 0.75)
        back = domain_from_json(d.to_json())
        assert isinstance(back, Disk)
        assert back.center == d.center and back.radius == d.radius

    def test_polydisc_roundtrip(self):
        d = Polydisc([0.5, -1j], [1, 2])
        back = domain_from_json(d.to_json())
        assert np.array_equal(back.centers, d.centers)
        assert np.array_equal(back.radii, d.radii)

    def test_semianalytic_roundtrip(self):
        d = disk_semianalytic(0.5)
        back = domain_from_json(d.to_json())
        for z in (0, 0.3, 0.45 + 0.2j, 0.6):
            assert contains(back, z) == contains(d, z)

    def test_unknown_kind(self):
        with pytest.raises(ArgumentError):
            domain_from_json({"kind": "annulus"})
