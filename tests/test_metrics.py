import itertools
import math

import numpy as np
import pytest

from conftest import random_disk_selfmaps
from hypermetric import metrics
from hypermetric.domains import (
    _RAY_STEPS,
    Disk,
    Polydisc,
    SemiAnalytic,
    _sphere_directions,
    contains,
    sample,
    unit_disk,
)
from hypermetric.errors import ArgumentError, MembershipError, PathInvalidError
from hypermetric.fixedpoint import picard_solve
from hypermetric.holomap import parse
from hypermetric.metrics import (
    DEFAULT_DIRECTIONS,
    EXACT,
    LOWER,
    UPPER,
    MetricField,
    Polyline,
    _BLOCK_POINTS,
    _DISK_ANGLES,
    _competitors_for,
    _coordinate_descent,
    _gauss01,
    _lengths_of,
    _relax_vertices,
    caratheodory_distance,
    caratheodory_metric,
    integrated_distance,
    kobayashi_metric,
    metric_field,
    path_length,
    poincare_distance,
    poincare_metric,
)

ATANH_HALF = math.atanh(0.5)


def disk_as_semianalytic(center=0.0, radius=1.0):
    c, r = complex(center), float(radius)
    expr = f"z1 - ({c.real}+{c.imag}i)" if c != 0 else "z1"
    return SemiAnalytic(
        [(parse(expr, 1), r)],
        [[c.real - r, c.real + r, c.imag - r, c.imag + r]],
    )


MOEBIUS = "(z1 - 0.2)/(1 - 0.2*z1)"
BOX = [-1.05, 1.05, -1.05, 1.05]
# the unit disk cut out by one of its automorphisms, the same cut of the
# bidisc, a disk with a small hole, and a disk with a constant constraint
MOEBIUS_DISK = SemiAnalytic([(parse(MOEBIUS, 1), 1.0)], [BOX])
MOEBIUS_BIDISC = SemiAnalytic(
    [(parse(MOEBIUS, 2), 1.0), (parse("z2^2", 2), 1.0)], [BOX, BOX]
)
HOLED_DISK = SemiAnalytic(
    [(parse("z1", 1), 1.0), (parse("1/(z1 - (0.37+0.11i))", 1), 500.0)], [BOX]
)
CONSTANT_CUT = SemiAnalytic([(parse("z1", 1), 1.0), (parse("0.5", 1), 1.0)], [BOX])
semianalytic_domains = pytest.mark.parametrize(
    "d",
    [MOEBIUS_DISK, MOEBIUS_BIDISC, HOLED_DISK, CONSTANT_CUT],
    ids=["disk", "bidisc", "holed", "constant"],
)


class TestPoincareDistance:
    def test_coincident(self):
        assert poincare_distance(0, 0) == 0.0

    def test_radial(self):
        assert poincare_distance(0, 0.5) == pytest.approx(ATANH_HALF)

    def test_mobius_additivity(self):
        # omega(0.5, -0.5) = atanh(0.8) = 2 atanh(0.5)
        assert poincare_distance(0.5, -0.5) == pytest.approx(math.atanh(0.8))
        assert poincare_distance(0.5, -0.5) == pytest.approx(2 * ATANH_HALF)

    def test_symmetry(self):
        z, w = 0.3 + 0.4j, -0.2 + 0.1j
        assert poincare_distance(z, w) == pytest.approx(poincare_distance(w, z))

    def test_outside_raises(self):
        with pytest.raises(MembershipError):
            poincare_distance(1.5, 0)


class TestPoincareMetric:
    def test_origin_unit_vector(self):
        # Schwarz-Pick oracle: sup of |f'(0)| over disk self-maps is 1
        assert poincare_metric(0, 1) == pytest.approx(1.0)
        sup = max(abs(f.jvp(0, 1)[0]) for f in random_disk_selfmaps(50, seed=3))
        assert sup <= 1.0 + 1e-9

    def test_zero_vector(self):
        assert poincare_metric(0.7j, 0) == 0.0

    def test_off_center(self):
        assert poincare_metric(0.5, 1) == pytest.approx(4 / 3)


class TestCaratheodoryMetric:
    def test_unit_disk_center(self):
        b = caratheodory_metric(unit_disk(), 0, 1)
        assert b.kind == EXACT and b.value == pytest.approx(1.0)

    def test_scaled_disk(self):
        b = caratheodory_metric(Disk(0, 0.5), 0, 1)
        assert b.value == pytest.approx(2.0)

    def test_bidisc(self):
        b = caratheodory_metric(Polydisc([0, 0], [1, 1]), (0, 0), (1, 1))
        assert b.kind == EXACT and b.value == pytest.approx(1.0)

    def test_membership_required(self):
        with pytest.raises(MembershipError):
            caratheodory_metric(unit_disk(), 2, 1)

    def test_matches_poincare_on_unit_disk(self):
        for z in (0, 0.5, 0.3 - 0.6j):
            for v in (1, 1j, 2 - 1j):
                assert caratheodory_metric(unit_disk(), z, v).value == pytest.approx(
                    poincare_metric(z, v)
                )

    def test_homogeneity(self):
        fields = [
            (unit_disk(), None),
            (Polydisc([0, 1j], [1, 2]), None),
            (disk_as_semianalytic(), None),
        ]
        for d, _ in fields:
            x = [0.1] * d.dim
            v = np.array([0.7 - 0.2j] * d.dim)
            base = caratheodory_metric(d, x, v).value
            for lam in (3, 1j, -0.5 + 0.25j):
                got = caratheodory_metric(d, x, lam * v).value
                assert got == pytest.approx(abs(lam) * base, rel=1e-12)

    def test_inclusion_monotonicity(self):
        U, X = Disk(0, 0.5), unit_disk()
        for z in (0, 0.2, -0.3j, 0.25 + 0.25j):
            for v in (1, 1j):
                ex = caratheodory_metric(X, z, v).value
                eu = caratheodory_metric(U, z, v).value
                assert ex <= eu + 1e-12


class TestSemiAnalyticLowerBound:
    def test_never_exceeds_closed_form(self):
        sd = disk_as_semianalytic(radius=0.5)
        d = Disk(0, 0.5)
        for z in (0, 0.2, 0.1 - 0.3j, -0.35):
            lower = caratheodory_metric(sd, z, 1).value
            exact = caratheodory_metric(d, z, 1).value
            assert lower <= exact + 1e-9

    def test_sharp_at_center(self):
        sd = disk_as_semianalytic(radius=0.5)
        b = caratheodory_metric(sd, 0, 1)
        assert b.kind == LOWER
        assert b.value >= 0.95 * 2.0

    def test_distance_lower_bound(self):
        sd = disk_as_semianalytic()
        lower = caratheodory_distance(sd, 0, 0.25)
        exact = caratheodory_distance(unit_disk(), 0, 0.25)
        assert lower.kind == LOWER
        assert lower.value <= exact.value + 1e-9
        assert lower.value >= 0.95 * exact.value


class TestKobayashiMetric:
    def test_unit_disk_extremal(self):
        b = kobayashi_metric(unit_disk(), 0, 1)
        assert b.kind == EXACT and b.value == pytest.approx(1.0)

    def test_zero_vector(self):
        b = kobayashi_metric(unit_disk(), 0, 0)
        assert b.kind == EXACT and b.value == 0.0

    def test_equals_caratheodory_on_polydisc(self):
        d = Polydisc([0.5, 0], [1, 2])
        for z in ((0.5, 0), (0.7, 1j)):
            for v in ((1, 0), (1, 1)):
                assert kobayashi_metric(d, z, v).value == pytest.approx(
                    caratheodory_metric(d, z, v).value
                )

    def test_semianalytic_box_upper(self):
        box = SemiAnalytic(
            [(parse("z1", 2), 1.0), (parse("z2", 2), 1.0)],
            [[-1, 1, -1, 1], [-1, 1, -1, 1]],
        )
        b = kobayashi_metric(box, (0, 0), (1, 0))
        assert b.kind == UPPER
        assert b.value == pytest.approx(1.0, abs=1e-3)

    def test_moebius_upper_is_above_truth(self):
        b = kobayashi_metric(MOEBIUS_DISK, 0, 1)
        assert b.kind == UPPER and b.value + b.tol >= 1.0
        # the Möbius-cut domains are the unit disk and bidisc, so the
        # polydisc closed form is the true metric at sampled rows too
        for d in (MOEBIUS_DISK, MOEBIUS_BIDISC):
            Z, V = rows_in(d, 512, seed=11)
            field = metric_field(d, "kobayashi")
            truth = metric_field(Polydisc([0] * d.dim, [1] * d.dim)).eval(Z, V)
            for value, true in zip(field.eval(Z, V).tolist(), truth.tolist()):
                b = field.bound(value)
                assert b.kind == UPPER and b.value + b.tol >= true


class TestCaratheodoryDistance:
    def test_disk_matches_poincare(self):
        b = caratheodory_distance(unit_disk(), 0, 0.5)
        assert b.kind == EXACT and b.value == pytest.approx(ATANH_HALF)

    def test_coincident_points(self):
        assert caratheodory_distance(Polydisc([0, 0], [1, 1]), (0.3, 0), (0.3, 0)).value == 0

    def test_bidisc_max_over_coordinates(self):
        b = caratheodory_distance(Polydisc([0, 0], [1, 1]), (0, 0), (0.5, -0.5))
        assert b.value == pytest.approx(ATANH_HALF)


class TestPathLength:
    def test_radial_segment(self):
        field = metric_field(unit_disk())
        got = path_length(field, Polyline([0, 0.5]))
        assert got.value == pytest.approx(ATANH_HALF, abs=1e-10)

    def test_rotational_symmetry(self):
        field = metric_field(unit_disk())
        got = path_length(field, Polyline([0, 0.5j]))
        assert got.value == pytest.approx(ATANH_HALF, abs=1e-10)

    def test_zero_length(self):
        field = metric_field(unit_disk())
        assert path_length(field, Polyline([0.3])).value == 0.0

    def test_escaping_path_rejected(self):
        field = metric_field(unit_disk())
        with pytest.raises(PathInvalidError):
            path_length(field, Polyline([1.5, 2.0]))

    def test_vertices_form_one_array(self):
        assert Polyline([0, 0.5j]).vertices.tolist() == [[0j], [0.5j]]
        with pytest.raises(ArgumentError):
            Polyline([0, (0.1, 0.2)])

    def test_dimension_mismatch_rejected(self):
        field = metric_field(Polydisc([0, 0], [1, 1]))
        with pytest.raises(ArgumentError):
            path_length(field, Polyline([0.1, 0.2]))

    @pytest.mark.parametrize("metric", ["caratheodory", "kobayashi"])
    def test_batched_lengths_match_node_loop(self, metric):
        # reference: one membership test and one field evaluation per node,
        # in segment then node order, stopping at the first escaping node
        def node_loop(field, verts, order):
            nodes, weights = _gauss01(order)
            total = 0.0
            for s in range(len(verts) - 1):
                seg = verts[s + 1] - verts[s]
                for t, w in zip(nodes, weights):
                    z = verts[s] + t * seg
                    if not contains(field.domain, z):
                        return math.inf
                    total += w * field.eval(z[None], seg[None])[0]
            return total

        d = SemiAnalytic(
            [(parse("(z1 - 0.2)/(1 - 0.2*z1)", 1), 1.0)], [[-1.05, 1.05, -1.05, 1.05]]
        )
        field = metric_field(d, metric)
        stack = np.array(
            [
                [[0], [0.3 + 0.1j], [0.5 - 0.2j]],
                [[-0.4j], [0.2], [1.3 + 0.6j]],  # leaves the unit disk
                [[0.6], [0.1 + 0.5j], [-0.7]],
            ],
            dtype=complex,
        )
        got = _lengths_of(field, stack, 4)
        assert got.tolist() == [node_loop(field, verts, 4) for verts in stack]
        assert math.isinf(got[1]) and np.isfinite(got[[0, 2]]).all()

    @pytest.mark.parametrize("metric", ["caratheodory", "kobayashi"])
    def test_one_vertex_semianalytic(self, metric):
        field = metric_field(MOEBIUS_DISK, metric)
        assert path_length(field, Polyline([0.3j])).value == 0.0

    @pytest.mark.parametrize("order", [0, -3, 2.5, "8", None])
    def test_order_must_be_a_positive_integer(self, order):
        with pytest.raises(ArgumentError):
            Polyline([0, 0.5], order=order)

    def test_integer_order_kept(self):
        assert Polyline([0, 0.5], order=np.int64(3)).order == 3

    def test_lower_metric_carries_caveat(self):
        sd = disk_as_semianalytic()
        field = metric_field(sd, "caratheodory")
        got = path_length(field, Polyline([0, 0.4], order=8))
        assert got.kind == LOWER and got.caveat

    def test_gauss_rule_up_to_64_nodes_is_leggauss(self):
        for order in range(1, 65):
            x, w = np.polynomial.legendre.leggauss(order)
            nodes, weights = _gauss01(order)
            assert np.array_equal(nodes, 0.5 * (x + 1.0)), order
            assert np.array_equal(weights, 0.5 * w), order

    def test_gauss_panels_integrate_degree_127_exactly(self):
        # two 64-node panels: exact for polynomials of degree up to 127
        nodes, weights = _gauss01(128)
        assert nodes.size == 128 and np.all(np.diff(nodes) > 0)
        for k in range(128):
            assert np.dot(weights, nodes**k) == pytest.approx(1 / (k + 1), rel=1e-13), k

    def test_kinked_bidisc_segment_to_closed_form(self):
        # the coordinate metrics cross at the segment's midpoint, where the
        # integrand has a kink that the order doubling chases to high orders
        field = metric_field(Polydisc([0, 0], [1, 1]))
        got = path_length(field, Polyline([(0.9, 0), (0, 0.9)]))
        exact = 2 * (math.atanh(0.9) - math.atanh(0.45))
        assert abs(got.value - exact) <= 1e-12
        assert got.tol <= 1e-12


# every pointwise entry point, with the point under test as its last argument
POINTWISE = {
    "caratheodory_metric": lambda d, z: caratheodory_metric(d, z, 1),
    "kobayashi_metric": lambda d, z: kobayashi_metric(d, z, 1),
    "caratheodory_distance": lambda d, z: caratheodory_distance(d, 0, z),
    "integrated_distance": lambda d, z: integrated_distance(metric_field(d), d, 0, z),
    "picard_solve": lambda d, z: picard_solve(parse("z1/2", 1), d, Disk(0, 0.6), z),
}


@pytest.mark.parametrize("call", POINTWISE.values(), ids=POINTWISE.keys())
@pytest.mark.parametrize("d", [unit_disk(), MOEBIUS_DISK], ids=["polydisc", "semianalytic"])
def test_point_intake(d, call):
    with pytest.raises(ArgumentError):
        call(d, float("nan"))
    with pytest.raises(ArgumentError):
        call(d, (0.1, 0.2))
    with pytest.raises(MembershipError):
        call(d, 1.5)


class TestIntegratedDistance:
    def test_disk_identity_sample(self):
        d = unit_disk()
        field = metric_field(d, "caratheodory")
        for a, b in [(0, 0.5), (0.5 + 0.5j, -0.3 + 0.2j), (0.8, -0.8)]:
            got = integrated_distance(field, d, a, b)
            assert got.kind == UPPER
            assert got.value == pytest.approx(poincare_distance(a, b), abs=1e-4)

    def test_coincident_endpoints(self):
        d = unit_disk()
        field = metric_field(d)
        assert integrated_distance(field, d, 0.3, 0.3).value == 0.0

    def test_bidisc_geodesic_in_first_factor(self):
        d = Polydisc([0, 0], [1, 1])
        field = metric_field(d)
        got = integrated_distance(field, d, (0, 0), (0.5, 0))
        assert got.value == pytest.approx(ATANH_HALF, abs=1e-4)

    def test_symmetry(self):
        d = unit_disk()
        field = metric_field(d)
        ab = integrated_distance(field, d, 0.5, -0.2 + 0.4j).value
        ba = integrated_distance(field, d, -0.2 + 0.4j, 0.5).value
        assert ab == pytest.approx(ba, abs=2e-4)

    def test_triangle_inequality(self):
        d = unit_disk()
        field = metric_field(d)
        a, b, c = 0.4, -0.3j, -0.5 + 0.1j
        dab = integrated_distance(field, d, a, b).value
        dbc = integrated_distance(field, d, b, c).value
        dac = integrated_distance(field, d, a, c).value
        assert dac <= dab + dbc + 2e-4

    @pytest.mark.parametrize(
        "opts",
        [
            {"refinements": -1},
            {"refinements": 1.0},
            {"segments": 0},
            {"segments": -2},
            {"segments": 2.5},
            {"segments": True},
        ],
        ids=repr,
    )
    def test_counts_must_be_integers_in_range(self, opts):
        d = unit_disk()
        with pytest.raises(ArgumentError):
            integrated_distance(metric_field(d), d, 0, 0.5, **opts)

    @pytest.mark.parametrize("a, b", [(0.9, -0.9), (0, 0.95j), (0.8 + 0.1j, -0.3j)])
    def test_seed_segments_have_equal_metric_length(self, a, b):
        d = unit_disk()
        field = metric_field(d)
        za, zb = np.array([a], complex), np.array([b], complex)
        verts = metrics._seed_polyline(field, d, za, zb, 8, 0)
        assert verts.shape == (9, 1)
        assert verts[0] == za and verts[-1] == zb
        lengths = _lengths_of(field, np.stack([verts[:-1], verts[1:]], axis=1), 64)
        assert lengths.max() / lengths.min() <= 1.02

    def test_two_leg_seed_around_a_hole(self):
        # the straight segment from a to b crosses the hole of the annulus
        # 0.3 < |z| < 1, so the seed is a two-leg path through a sampled point
        A = SemiAnalytic([(parse("z1", 1), 1.0), (parse("0.3/z1", 1), 1.0)], [BOX])
        a, b = 0.6, -0.6 + 0.05j
        segment = a + np.linspace(0, 1, 101)[:, None] * (b - a)
        assert not A.contains_many(segment).all()
        got = integrated_distance(
            metric_field(A, "caratheodory"), A, a, b, segments=4, refinements=0
        )
        assert math.isfinite(got.value) and got.kind == UPPER
        # Schwarz-Pick for the same competitors: their distance is at most
        # the length of any path in their metric
        assert got.value >= caratheodory_distance(A, a, b).value

    def test_rounding_sized_loss_stops_refinement(self, monkeypatch):
        # the geodesic 0 -> 0.9 is straight, so the first level's descent
        # leaves the refined length within rounding of the seed's
        levels = []

        def counted(*args, **kwargs):
            levels.append(kwargs["coarse"])
            return _coordinate_descent(*args, **kwargs)

        monkeypatch.setattr(metrics, "_coordinate_descent", counted)
        d = unit_disk()
        got = integrated_distance(metric_field(d), d, 0, 0.9)
        assert len(levels) == 1
        assert got.value == pytest.approx(math.atanh(0.9), abs=1e-14)

    def test_semianalytic_disk_matches_poincare_and_repeats(self):
        # a field without a polydisc model: the descent batches _length_of calls
        d = disk_as_semianalytic()
        field = metric_field(d, "caratheodory", directions=16)
        first = integrated_distance(field, d, 0.2j, -0.3, segments=4, refinements=0)
        assert first.value == pytest.approx(poincare_distance(0.2j, -0.3), abs=1e-4)
        again = integrated_distance(field, d, 0.2j, -0.3, segments=4, refinements=0)
        assert again.value == first.value


# The descent step written one vertex and one local polyline at a time, in
# Python floats: every probe and every candidate is its own _lengths_of call.
# The batched _relax_vertices must give the same bits; both run on the same
# machine, so no literal depends on the SIMD paths of one CPU.
def _reference_relax_vertices(
    field: MetricField, verts: np.ndarray, idx: np.ndarray, order: int
) -> None:
    """Gauss-Southwell parabolic steps on the vertices idx, one at a time:
    no vertex in idx neighbours another, so each moves with its own
    neighbours fixed.  Updates verts in place."""
    n = verts.shape[1]
    for i in idx:
        left, right = verts[i - 1], verts[i + 1]

        def length(x: np.ndarray) -> float:
            mid = x[:n] + 1j * x[n:]
            return float(_lengths_of(field, np.stack([left, mid, right])[None], order)[0])

        x = np.concatenate([verts[i].real, verts[i].imag])
        f0 = length(x)
        h = 0.25 * float(max(np.abs(verts[i] - left).max(), np.abs(right - verts[i]).max()))
        for _pass in range(4):
            best_f, best_x = f0, x
            for q in range(2 * n):
                xp, xm = x.copy(), x.copy()
                xp[q] += h
                xm[q] -= h
                fp, fm = length(xp), length(xm)
                curv = fp - 2 * f0 + fm
                if curv > 0:
                    step = max(-3 * h, min(3 * h, 0.5 * h * (fm - fp) / curv))
                elif fp < f0 or fm < f0:
                    step = h if fp < fm else -h
                else:
                    continue
                xc = x.copy()
                xc[q] += step
                fc = length(xc)
                if fc < best_f:
                    best_f, best_x = fc, xc
            x, f0 = best_x, best_f
            h = h * 0.35
        verts[i] = x[:n] + 1j * x[n:]


# sample(Polydisc([0, 0], [1, 1]), 4, seed=1); the pair (2, 3) is where the
# descent stalled before the joint midpoint steps and the pattern moves
BIDISC = Polydisc([0, 0], [1, 1])
BIDISC_POINTS = [tuple(z) for z in sample(BIDISC, 4, seed=1).tolist()]
TRIDISC = Polydisc([0, 0.1j, -0.2], [1, 0.5, 2])


class TestDescentMatchesReference:
    # metric field, endpoints, integrated_distance options
    CASES = {
        "disk": (
            metric_field(unit_disk()),
            0.634986 + 0.028j,
            -0.434805 + 0.68186j,
            {},
        ),
        "bidisc": (metric_field(BIDISC), BIDISC_POINTS[0], BIDISC_POINTS[1], {}),
        "bidisc-stall": (metric_field(BIDISC), BIDISC_POINTS[2], BIDISC_POINTS[3], {}),
        "tridisc": (
            metric_field(TRIDISC),
            (0.5, 0.3j, 1.2),
            (-0.4j, 0.1 - 0.2j, -1.5j),
            {},
        ),
        # no polydisc model: the _lengths_of branch that tests membership and
        # evaluates the competitor field at the nodes
        "moebius-disk": (
            metric_field(MOEBIUS_DISK, "caratheodory", directions=16),
            0.1j,
            -0.3 + 0.2j,
            {"segments": 4, "refinements": 0},
        ),
    }

    @pytest.fixture(params=sorted(CASES))
    def case(self, request):
        return self.CASES[request.param]

    def test_integrated_distance_bitwise(self, case, monkeypatch):
        field, a, b, opts = case
        got = integrated_distance(field, field.domain, a, b, **opts)
        monkeypatch.setattr(metrics, "_relax_vertices", _reference_relax_vertices)
        want = integrated_distance(field, field.domain, a, b, **opts)
        assert got == want

    def test_coordinate_descent_bitwise(self, case, monkeypatch):
        field, a, b, _ = case
        za, zb = np.atleast_1d(a).astype(complex), np.atleast_1d(b).astype(complex)
        verts = za + np.linspace(0, 1, 9)[:, None] * (zb - za)
        got = _coordinate_descent(field, verts, 8, max_sweeps=24, rel_tol=5e-8)
        monkeypatch.setattr(metrics, "_relax_vertices", _reference_relax_vertices)
        want = _coordinate_descent(field, verts, 8, max_sweeps=24, rel_tol=5e-8)
        assert np.array_equal(got, want)
        assert not np.array_equal(got, verts)


class TestDescentSweeps:
    @staticmethod
    def start(a, b):
        za, zb = np.atleast_1d(a).astype(complex), np.atleast_1d(b).astype(complex)
        return za + np.linspace(0, 1, 9)[:, None] * (zb - za)

    @pytest.mark.parametrize("case", sorted(TestDescentMatchesReference.CASES))
    def test_one_sweep_is_one_relax_pass_per_colour(self, case):
        # the first sweep takes no midpoint step and no pattern move
        field, a, b, _ = TestDescentMatchesReference.CASES[case]
        verts = self.start(a, b)
        got = _coordinate_descent(field, verts, 8, max_sweeps=1, rel_tol=5e-8)
        want = verts.copy()
        for idx in (np.arange(1, 8, 2), np.arange(2, 8, 2)):
            _relax_vertices(field, want, idx, 8)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", sorted(TestDescentMatchesReference.CASES))
    @pytest.mark.parametrize("coarse", [False, True])
    def test_never_lengthens(self, case, coarse):
        field, a, b, _ = TestDescentMatchesReference.CASES[case]
        verts = self.start(a, b)
        for max_sweeps in (1, 2, 3, 24):
            got = _coordinate_descent(
                field, verts, 8, max_sweeps=max_sweeps, rel_tol=5e-8, coarse=coarse
            )
            assert _lengths_of(field, got[None], 8)[0] <= _lengths_of(field, verts[None], 8)[0]
            verts = got


class TestDescentAccuracy:
    # the worst errors of the one-coordinate-at-a-time rule that the
    # Gauss-Southwell steps replaced, on the same pairs: 1.41e-5 on the disk
    # grid and 1.51e-5 on the bidisc pairs other than (2, 3), where the
    # descent stalled 0.327 above the closed form before the joint midpoint
    # steps and the pattern moves
    def test_disk_grid_within_earlier_worst(self):
        d = unit_disk()
        # the grid of acceptance criterion 1
        grid = sample(d, 7, seed=1)[:, 0].tolist()
        field = metric_field(d)
        for a, b in itertools.combinations(grid, 2):
            got = integrated_distance(field, d, a, b).value
            assert abs(got - poincare_distance(a, b)) <= 1.41e-5, (a, b)

    def test_bidisc_pairs_near_closed_form(self):
        field = metric_field(BIDISC)
        for a, b in itertools.combinations(BIDISC_POINTS, 2):
            exact = max(poincare_distance(z, w) for z, w in zip(a, b))
            got = integrated_distance(field, BIDISC, a, b).value
            if (a, b) == (BIDISC_POINTS[2], BIDISC_POINTS[3]):
                assert abs(got - exact) <= 1e-4, (a, b)  # the former stall
            else:
                assert abs(got - exact) <= 1.6e-5, (a, b)

    def test_near_tie_bidisc_pair(self):
        # the two coordinate distances are close, so the geodesic family is
        # wide; the Euclidean-spaced seed ended 1.3e-3 above the closed form
        a = (
            -0.44539706916562083 - 0.3866360147944911j,
            0.7232555357470931 + 0.17865144228373295j,
        )
        b = (
            0.2983959945162678 + 0.19390878494424232j,
            0.13900940207295762 + 0.5413494622773122j,
        )
        exact = max(poincare_distance(z, w) for z, w in zip(a, b))
        got = integrated_distance(metric_field(BIDISC), BIDISC, a, b).value
        assert abs(got - exact) <= 1.6e-5

    @pytest.mark.xfail(
        strict=True,
        reason="ends 1.0e-2 above artanh 0.9 with a tol of 2.2e-3: the order-8 "
        "descent objective undershoots at the kinks of this symmetric pair",
    )
    def test_symmetric_bidisc_pair(self):
        got = integrated_distance(metric_field(BIDISC), BIDISC, (0.9, 0), (0, 0.9))
        assert abs(got.value - math.atanh(0.9)) <= 1e-4

    def test_fresh_pairs_within_earlier_worst(self):
        # pairs off the criterion-1 grid, uniform in the disk of radius r
        rng = np.random.default_rng(4242)

        def points(count, r):
            return r * np.sqrt(rng.uniform(size=count)) * np.exp(
                2j * np.pi * rng.uniform(size=count)
            )

        d = unit_disk()
        field = metric_field(d)
        for a, b in points(80, 0.95).reshape(40, 2).tolist():
            got = integrated_distance(field, d, a, b).value
            assert abs(got - poincare_distance(a, b)) <= 1.41e-5, (a, b)
        field = metric_field(BIDISC)
        for a, b in points(80, 0.9).reshape(20, 2, 2).tolist():
            exact = max(poincare_distance(z, w) for z, w in zip(a, b))
            got = integrated_distance(field, BIDISC, a, b).value
            assert abs(got - exact) <= 1.6e-5, (a, b)


class TestSchwarzPick:
    def test_metric_and_distance_contraction_sample(self):
        maps = random_disk_selfmaps(40, seed=17)
        rng = np.random.default_rng(5)
        for f in maps:
            for _ in range(5):
                z = 0.9 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
                w = 0.9 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
                v = rng.normal() + 1j * rng.normal()
                fz = f.eval(z).coords[0]
                fw = f.eval(w).coords[0]
                dv = f.jvp(z, v)[0]
                assert poincare_metric(fz, dv) <= poincare_metric(z, v) + 1e-9
                assert poincare_distance(fz, fw) <= poincare_distance(z, w) + 1e-9


def rows_in(d, count, seed):
    """(count, n) points of d and (count, n) directions."""
    Z = sample(d, count, seed)
    rng = np.random.default_rng(seed)
    V = rng.normal(size=Z.shape) + 1j * rng.normal(size=Z.shape)
    return Z, V


def competitor_reference(d, z, v, directions=64, seed=0):
    """(value, derivative) of each competitor at one point: g / t through
    eval_array and a one-point eval_dual, a·(z - q) / s through np.dot."""
    comps = [
        (complex(g.eval_array(z)[0]) / t, complex(g.components[0].eval_dual(z, v)[1]) / t)
        for g, t in d.constraints
    ]
    b = d.box()
    q = 0.5 * (b[:, 0] + b[:, 1]) + 0.5j * (b[:, 2] + b[:, 3])
    half = np.hypot(0.5 * (b[:, 1] - b[:, 0]), 0.5 * (b[:, 3] - b[:, 2]))
    for a in _sphere_directions(d.dim, directions, seed):
        scale = float(np.dot(np.abs(a), half))
        if scale > 0:
            comps.append((complex(np.dot(a, z - q)) / scale, complex(np.dot(a, v)) / scale))
    return comps


def caratheodory_reference(d, z, v):
    """Carathéodory lower bound at one point, one competitor at a time;
    competitors with |w| >= 1 are skipped."""
    best = 0.0
    for w, dw in competitor_reference(d, z, v):
        if abs(w) >= 1:
            continue
        best = max(best, abs(dw) / (1 - abs(w) ** 2))
    return best


def disk_reference(d, z, v):
    """Kobayashi upper bound at one point: |v| over the shortest exit of the
    rays from z along the rotations w·u of u = v/|v|, one ray at a time."""
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0:
        return 0.0
    u = v / vnorm
    rho = min(float(d._ray_exit(z, (w * u)[None])[0]) for w in _DISK_ANGLES)
    return vnorm / rho


class TestArrayFields:
    @semianalytic_domains
    def test_competitor_field_matches_reference_across_blocks(self, d):
        count = _BLOCK_POINTS // _competitors_for(d, DEFAULT_DIRECTIONS, 0).count + 9
        Z, V = rows_in(d, count, seed=3)
        got = metric_field(d, "caratheodory").eval(Z, V)
        assert got.tolist() == [caratheodory_reference(d, z, v) for z, v in zip(Z, V)]

    @pytest.mark.parametrize("count", [1, 2, 40])
    @semianalytic_domains
    def test_competitor_values_match_reference(self, d, count):
        Z, V = rows_in(d, count, seed=7)
        w, dw = _competitors_for(d, DEFAULT_DIRECTIONS, 0).eval(Z, V)
        for i, (z, v) in enumerate(zip(Z, V)):
            ref = competitor_reference(d, z, v)
            assert w[i].tolist() == [c[0] for c in ref]
            assert dw[i].tolist() == [c[1] for c in ref]

    def test_disk_field_matches_reference_across_blocks(self):
        # SemiAnalytic._shortest_exits takes this many rows per block
        count = _BLOCK_POINTS // (_DISK_ANGLES.size * (_RAY_STEPS + 2)) + 9
        Z, V = rows_in(MOEBIUS_DISK, count, seed=4)
        V[5] = 0
        got = metric_field(MOEBIUS_DISK, "kobayashi").eval(Z, V)
        assert got[5] == 0.0
        assert got.tolist() == [disk_reference(MOEBIUS_DISK, z, v) for z, v in zip(Z, V)]

    def test_disk_field_matches_reference_on_bidisc(self):
        Z, V = rows_in(MOEBIUS_BIDISC, 24, seed=5)
        got = metric_field(MOEBIUS_BIDISC, "kobayashi").eval(Z, V)
        assert got.tolist() == [disk_reference(MOEBIUS_BIDISC, z, v) for z, v in zip(Z, V)]

    def test_row_without_disk_raises(self):
        Z = np.array([[0.2], [1.5]], dtype=complex)  # the second row is outside
        with pytest.raises(PathInvalidError):
            metric_field(MOEBIUS_DISK, "kobayashi").eval(Z, np.ones_like(Z))
