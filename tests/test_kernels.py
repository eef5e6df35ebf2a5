import math

import numpy as np
import pytest

from hypermetric import kernels


def _gauss01(order):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _batched(verts, centers, radii, nodes, weights):
    """The batched entry point on a stack holding the polyline in every row."""
    stack = np.repeat(np.asarray(verts, dtype=complex)[None], 3, axis=0)
    got = kernels.polyline_lengths(stack, centers, radii, nodes, weights)
    assert np.all(got == got[0])
    return float(got[0])


ENTRY_POINTS = [
    pytest.param(kernels.polyline_length, id="polyline_length"),
    pytest.param(_batched, id="polyline_lengths"),
]


def reference_length(verts, centers, radii, nodes, weights):
    """Per-segment, per-node quadrature of max_j r_j |v_j| / (r_j^2 - |z_j - c_j|^2)."""
    total = 0.0
    for p, q in zip(verts, verts[1:]):
        for t, w in zip(nodes, weights):
            best = 0.0
            for pj, qj, cj, rj in zip(p, q, centers, radii):
                den = rj * rj - abs(pj + t * (qj - pj) - cj) ** 2
                if den <= 0.0:
                    return -1.0
                best = max(best, rj * abs(qj - pj) / den)
            total += w * best
    return total


def _random_stack(rng, batch, m, n, centers, radii, reach=0.9):
    t = rng.uniform(0, reach, size=(batch, m, n))
    ang = rng.uniform(0, 2 * math.pi, size=(batch, m, n))
    return centers + t * radii * np.exp(1j * ang)


@pytest.mark.parametrize("length", ENTRY_POINTS)
class TestPolylineLength:
    def test_radial_segment_matches_closed_form(self, length):
        verts = np.array([[0.0 + 0j], [0.5 + 0j]])
        centers = np.zeros(1, dtype=complex)
        radii = np.ones(1)
        nodes, weights = _gauss01(32)
        got = length(verts, centers, radii, nodes, weights)
        assert got == pytest.approx(math.atanh(0.5), abs=1e-10)

    def test_escape_sentinel(self, length):
        verts = np.array([[0.0 + 0j], [1.5 + 0j]])
        centers = np.zeros(1, dtype=complex)
        radii = np.ones(1)
        nodes, weights = _gauss01(8)
        assert length(verts, centers, radii, nodes, weights) == -1.0

    def test_single_vertex_zero(self, length):
        verts = np.array([[0.3 + 0.1j]])
        centers = np.zeros(1, dtype=complex)
        radii = np.ones(1)
        nodes, weights = _gauss01(8)
        assert length(verts, centers, radii, nodes, weights) == 0.0

    def test_matches_reference(self, length):
        rng = np.random.default_rng(99)
        escaped = 0
        for order in (4, 8, 16):
            nodes, weights = _gauss01(order)
            for _ in range(20):
                n = int(rng.integers(1, 4))
                centers = rng.normal(size=n) + 1j * rng.normal(size=n)
                radii = rng.uniform(0.5, 2.0, size=n)
                m = int(rng.integers(2, 9))
                verts = _random_stack(rng, 1, m, n, centers, radii, reach=1.1)[0]
                want = reference_length(verts, centers, radii, nodes, weights)
                got = length(verts, centers, radii, nodes, weights)
                escaped += want == -1.0
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert 0 < escaped < 60


class TestBatchedFallback:
    def test_matches_single_calls(self):
        rng = np.random.default_rng(7)
        nodes, weights = _gauss01(8)
        for i in range(21):
            n = 1 + i % 3
            centers = rng.normal(size=n) + 1j * rng.normal(size=n)
            radii = rng.uniform(0.5, 2.0, size=n)
            batch, m = int(rng.integers(1, 40)), int(rng.integers(2, 9))
            stack = _random_stack(rng, batch, m, n, centers, radii, reach=1.1)
            got = kernels.polyline_lengths(stack, centers, radii, nodes, weights)
            assert got.shape == (batch,)
            want = [
                kernels.polyline_length(verts, centers, radii, nodes, weights)
                for verts in stack
            ]
            assert np.array_equal(got, want)
            # a row's length depends on that row only: a sub-batch in any
            # order gives the full batch's rows bit for bit
            idx = rng.permutation(batch)[: int(rng.integers(1, batch + 1))]
            sub = kernels.polyline_lengths(stack[idx], centers, radii, nodes, weights)
            assert np.array_equal(sub, got[idx])

    def test_escape_sentinel_only_where_escaping(self):
        rng = np.random.default_rng(11)
        centers = np.array([0.2 + 0.1j, -0.5j])
        radii = np.array([1.0, 0.7])
        nodes, weights = _gauss01(8)
        stack = _random_stack(rng, 12, 3, 2, centers, radii)
        escaping = np.zeros(12, dtype=bool)
        escaping[[2, 5, 6, 11]] = True
        # push the middle vertex of those polylines out of the second factor
        stack[escaping, 1, 1] = centers[1] + 1.5 * radii[1]
        got = kernels.polyline_lengths(stack, centers, radii, nodes, weights)
        assert np.array_equal(got == -1.0, escaping)
        assert np.all(got[~escaping] > 0)
