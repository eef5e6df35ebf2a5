import csv
import math
import time

import numpy as np
import pytest

from hypermetric.contraction import TANH_DIAMETER, certificate_for
from hypermetric.domains import Disk, Polydisc, SemiAnalytic, unit_disk
from hypermetric.errors import (
    ArgumentError,
    ConfigurationError,
    NonConvergenceError,
    RangeError,
)
from hypermetric.fixedpoint import (
    CONSISTENT,
    certify_tail,
    invariant_distance_upper,
    picard_solve,
    trace_to_csv,
    verify_decay,
)
from hypermetric.holomap import parse
from hypermetric.metrics import poincare_distance


def halving_problem():
    return parse("z1/2", 1), unit_disk(), Disk(0, 0.6)


class TestPicardSolve:
    def test_halving_map(self):
        f, X, U = halving_problem()
        res = picard_solve(f, X, U, 0.9)
        assert abs(res.c.coords[0]) < 1e-10
        assert res.residual < 1e-10
        assert res.iterations <= 40

    def test_quadratic_fixed_point(self):
        # fixed point of (z^2 + 1)/4 in the unit disk is 2 - sqrt(3)
        f = parse("(z1^2 + 1)/4", 1)
        res = picard_solve(f, unit_disk(), Disk(0, 0.6), 0.0)
        assert abs(res.c.coords[0] - (2 - math.sqrt(3))) < 1e-9

    def test_quadratic_fixed_point_on_semianalytic(self):
        # the unit disk cut out by one of its automorphisms: d0 is an
        # integrated Kobayashi descent on the affine-disk field
        X = SemiAnalytic(
            [(parse("(z1 - 0.2)/(1 - 0.2*z1)", 1), 1.0)], [[-1.05, 1.05, -1.05, 1.05]]
        )
        start = time.perf_counter()
        res = picard_solve(parse("(z1^2+1)/4", 1), X, Disk(0, 0.6), 0)
        assert time.perf_counter() - start < 10
        assert abs(res.c.coords[0] - (2 - math.sqrt(3))) < 1e-9
        # x1 = 0.25: between the Poincaré distance and the integral of the
        # centred-disk bound, ln(4/3)
        d0 = res.trace.d0
        assert d0.kind == "upper"
        assert math.atanh(0.25) <= d0.value <= math.log(4 / 3) + 1e-6

    def test_bidisc(self):
        f = parse("(z1 + z2^2)/4 + 0.1; z2/3", 2)
        X = Polydisc([0, 0], [1, 1])
        U = Polydisc([0, 0], [0.7, 0.7])
        res = picard_solve(f, X, U, (0, 0))
        # first coordinate solves z = z/4 + 0.1 once z2 has collapsed to 0
        want = np.array([0.4 / 3, 0.0])
        assert np.linalg.norm(res.c.as_array() - want) < 1e-9

    def test_certificate_attached(self):
        f, X, U = halving_problem()
        res = picard_solve(f, X, U, 0.5)
        # dilation constant for Disk(0, 0.6) in the unit disk: R=1.2, r=0.4
        assert res.certificate.k == pytest.approx(0.75)
        assert res.certificate.rigorous
        assert res.certified_tail < 1e-3

    def test_tanh_method(self):
        f, X, U = halving_problem()
        res = picard_solve(f, X, U, 0.5, method=TANH_DIAMETER)
        assert res.certificate.k == pytest.approx(math.tanh(2 * math.atanh(0.6)))

    def test_identity_rejected(self):
        with pytest.raises(RangeError):
            picard_solve(parse("z1", 1), unit_disk(), Disk(0, 0.6), 0.1)

    def test_override_range(self):
        # contracting map whose image slightly exceeds the nominal U
        f = parse("0.65*z1", 1)
        res = picard_solve(
            f,
            unit_disk(),
            Disk(0, 0.7),
            0.2,
            override_range=True,
            certificate=certificate_for(unit_disk(), Disk(0, 0.7)),
        )
        assert abs(res.c.coords[0]) < 1e-9

    def test_nonconvergence_carries_trace(self):
        f, X, U = halving_problem()
        with pytest.raises(NonConvergenceError) as exc:
            picard_solve(f, X, U, 0.5, max_iter=3)
        trace = exc.value.trace
        assert len(trace) == 4
        assert trace.points[1, 0] == pytest.approx(0.25)

    @pytest.mark.parametrize("max_iter", [-3, 2.5, True])
    def test_max_iter_must_be_a_count(self, max_iter):
        f, X, U = halving_problem()
        with pytest.raises(ArgumentError, match="max_iter must be an integer >= 0"):
            picard_solve(f, X, U, 0.5, max_iter=max_iter)

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_tol_must_be_reachable(self, tol):
        # no step is below a negative or NaN tol; tol = 0 stays legal
        f, X, U = halving_problem()
        with pytest.raises(ArgumentError, match="tol must be a number >= 0"):
            picard_solve(f, X, U, 0.5, tol=tol)

    def test_step_invariant_stop(self):
        f, X, U = halving_problem()
        res = picard_solve(f, X, U, 0.5, tol=1e-8, step_invariant=True)
        assert "invariant" in res.stop_rule
        assert res.trace.step_invariant is not None
        assert abs(res.c.coords[0]) < 1e-7

    def test_uniqueness_probe(self):
        f = parse("(z1^2 + 1)/4", 1)
        roots = [
            picard_solve(f, unit_disk(), Disk(0, 0.6), x0).c.coords[0]
            for x0 in (0.0, 0.5, -0.5, 0.3j, -0.2 - 0.4j)
        ]
        for c in roots[1:]:
            assert abs(c - roots[0]) < 2e-9

    def test_iterates_form_one_array(self):
        f = parse("(z1^2 + 1)/4; z1*z2/2", 2)
        X, U = Polydisc([0, 0], [1, 1]), Polydisc([0, 0], [0.6, 0.6])
        res = picard_solve(f, X, U, (0.1, 0.2j))
        points = res.trace.points
        assert points.shape == (res.iterations + 1, 2) and points.dtype == complex
        assert not points.flags.writeable
        assert res.c.coords == tuple(points[-1].tolist())
        assert points[0].tolist() == [0.1, 0.2j]
        assert res.trace == res.trace and res.trace != picard_solve(f, X, U, (0.1, 0.2j)).trace

    def test_trace_recomputable(self):
        f, X, U = halving_problem()
        res = picard_solve(f, X, U, 0.9)
        for a, b in zip(res.trace.points, res.trace.points[1:]):
            assert f.eval(a).coords == tuple(b.tolist())


class TestCertifyTail:
    @staticmethod
    def _trace_with(k, d0):
        f, X, U = halving_problem()
        res = picard_solve(f, X, U, 0.5)
        import dataclasses

        from hypermetric.metrics import UPPER, Bound

        cert = dataclasses.replace(res.certificate, k=k)
        return dataclasses.replace(res.trace, certificate=cert, d0=Bound(d0, UPPER))

    def test_frozen_values(self):
        trace = self._trace_with(0.8, 1.0)
        assert certify_tail(trace, 0) == pytest.approx(5.0)
        assert certify_tail(trace, 10) == pytest.approx(0.8**10 / 0.2)
        assert certify_tail(trace, 10) == pytest.approx(0.5368709120)

    def test_zero_first_step(self):
        trace = self._trace_with(0.8, 0.0)
        assert certify_tail(trace, 7) == 0.0

    def test_missing_d0(self):
        import dataclasses

        trace = dataclasses.replace(self._trace_with(0.8, 1.0), d0=None)
        with pytest.raises(ConfigurationError):
            certify_tail(trace, 3)

    def test_tail_dominates_true_error(self):
        f, X, U = halving_problem()
        res = picard_solve(f, X, U, 0.9)
        c = res.c.coords[0]
        for n in range(1, res.iterations + 1):
            err = poincare_distance(res.trace.points[n, 0], c)
            assert certify_tail(res.trace, n) >= err - 1e-12


class TestVerifyDecay:
    def test_halving_consistent(self):
        f, X, U = halving_problem()
        res = picard_solve(f, X, U, 0.9)
        report = verify_decay(res.trace, res.certificate.k)
        assert report.verdict == CONSISTENT
        # the empirical contraction factor of z/2 near 0 is 1/2
        assert report.ratios[-1] == pytest.approx(0.5, abs=1e-3)

    def test_explicit_distance(self):
        f, X, U = halving_problem()
        res = picard_solve(f, X, U, 0.9)
        report = verify_decay(
            res.trace,
            res.certificate.k,
            distance=lambda a, b: invariant_distance_upper(X, a, b),
        )
        assert report.verdict == CONSISTENT

    def test_short_trace_rejected(self):
        f, X, U = halving_problem()
        with pytest.raises(NonConvergenceError) as exc:
            picard_solve(f, X, U, 0.5, max_iter=1)
        from hypermetric.errors import ArgumentError

        with pytest.raises(ArgumentError):
            verify_decay(exc.value.trace, 0.75)


class TestInvariantDistanceUpper:
    def test_polydisc_closed_form(self):
        b = invariant_distance_upper(unit_disk(), 0, 0.5)
        assert b.value == pytest.approx(math.atanh(0.5), rel=1e-12)
        assert b.kind == "upper"

    def test_coincident(self):
        assert invariant_distance_upper(Polydisc([0, 0], [1, 1]), (0, 0), (0, 0)).value == 0


class TestTraceCsv:
    def test_columns_and_values(self, tmp_path):
        f, X, U = halving_problem()
        res = picard_solve(f, X, U, 0.5)
        path = tmp_path / "trace.csv"
        trace_to_csv(res.trace, str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "re0", "im0", "step_euclid", "certified_tail"]
        assert len(rows) == len(res.trace) + 1
        assert float(rows[1][1]) == 0.5
        assert float(rows[2][1]) == 0.25
        assert float(rows[2][3]) == pytest.approx(res.trace.step_euclid[0])
        assert float(rows[2][4]) == pytest.approx(certify_tail(res.trace, 1))
