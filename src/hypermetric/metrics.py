"""Invariant pseudometrics and pseudodistances with exactness bookkeeping.

Closed forms on disks and polydiscs are exact; on semi-analytic domains the
supremum-type quantities are certified lower bounds (finite competitor
families of holomorphic maps into the unit disk) and the infimum-type ones
are upper bounds (affine analytic disks, polyline path minimization).  Every
numerical value travels inside a Bound that records the direction.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Optional

import numpy as np

from . import kernels
from .domains import (
    Domain,
    Polydisc,
    SemiAnalytic,
    _BLOCK_POINTS,
    _sphere_directions,
    as_point,
    as_vector,
    contains,
    diameter_bound,
    inner_gap,
    sample,
)
from .errors import (
    ArgumentError,
    ConnectivityError,
    MembershipError,
    PathInvalidError,
)

EXACT = "exact"
LOWER = "lower"
UPPER = "upper"

DEFAULT_QUAD_ORDER = 32
QUAD_REL_TOL = 1e-6
QUAD_MAX_DOUBLINGS = 10
OPT_REL_TOL = 1e-6
DEFAULT_SEGMENTS = 8
DEFAULT_REFINEMENTS = 4
DEFAULT_DIRECTIONS = 64


@dataclasses.dataclass(frozen=True)
class Bound:
    """A nonnegative value tagged with its relation to the true quantity."""

    value: float
    kind: str  # exact | lower | upper
    tol: float = 0.0
    caveat: Optional[str] = None

    def __post_init__(self):
        if self.kind not in (EXACT, LOWER, UPPER):
            raise ArgumentError(f"unknown bound kind {self.kind!r}")

    def upper_value(self) -> Optional[float]:
        """Largest the true value could be, or None if unbounded above."""
        if self.kind in (EXACT, UPPER):
            return self.value + self.tol
        return None

    def lower_value(self) -> Optional[float]:
        if self.kind in (EXACT, LOWER):
            return self.value - self.tol
        return None

    def to_json(self) -> dict:
        out = {"value": self.value, "kind": self.kind, "tol": self.tol}
        if self.caveat:
            out["caveat"] = self.caveat
        return out


# ---------------------------------------------------------------------------
# Poincaré disk


def poincare_distance(z: complex, w: complex) -> float:
    """Hyperbolic distance atanh |(z - w) / (1 - conj(w) z)| on the unit disk."""
    z, w = complex(z), complex(w)
    if abs(z) >= 1 or abs(w) >= 1:
        raise MembershipError("poincare_distance requires |z| < 1 and |w| < 1")
    num = z - w
    den = 1 - w.conjugate() * z
    ratio = abs(num / den)
    if ratio >= 1.0:  # rounding at extreme eccentricity
        ratio = math.nextafter(1.0, 0.0)
    return math.atanh(ratio)


def poincare_metric(z: complex, v: complex) -> float:
    """Infinitesimal hyperbolic metric |v| / (1 - |z|^2)."""
    z, v = complex(z), complex(v)
    if abs(z) >= 1:
        raise MembershipError("poincare_metric requires |z| < 1")
    return abs(v) / (1 - abs(z) ** 2)


# ---------------------------------------------------------------------------
# competitor families (certified lower bounds on semi-analytic domains)


def _row_dot(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """X @ A for real X of shape (N, n), rounded as np.dot of each row of X
    with each column of A: one row would go through the matrix-vector
    kernel, which rounds differently, so it is multiplied as a pair."""
    if len(X) == 1:
        return (np.concatenate([X, X]) @ A)[:1]
    return X @ A


class _Competitors:
    """Holomorphic maps of a semi-analytic domain into the unit disk: g / t
    for each defining inequality |g| < t, then z -> a·(z - q) / s for each
    direction a, with s >= sup over the bounding box of |a·(z - q)|."""

    def __init__(self, d: SemiAnalytic, directions: int, seed: int):
        self.constraints = d.constraints
        b = d.box()
        self.center = 0.5 * (b[:, 0] + b[:, 1]) + 0.5j * (b[:, 2] + b[:, 3])
        half = np.hypot(0.5 * (b[:, 1] - b[:, 0]), 0.5 * (b[:, 3] - b[:, 2]))
        dirs = _sphere_directions(d.dim, directions, seed)
        scales = np.array([np.dot(np.abs(a), half) for a in dirs])
        keep = scales > 0
        self.coeffs = dirs[keep].T  # (n, number of linear maps)
        self.scales = scales[keep]
        self.count = len(self.constraints) + self.scales.size

    def eval(self, Z: np.ndarray, V: np.ndarray) -> tuple:
        """Values at the rows of Z and derivatives along the rows of V, as
        two (N, K) arrays with one column per competitor."""
        nc = len(self.constraints)
        w = np.empty((len(Z), self.count), dtype=complex)
        dw = np.empty_like(w)
        # parts are divided one by one: numpy divides a complex array by a
        # real through its reciprocal, Python divides each part
        for i, (g, t) in enumerate(self.constraints):
            val, der = g.components[0].eval_dual(Z.T, V.T)
            w.real[:, i], w.imag[:, i] = np.real(val) / t, np.imag(val) / t
            dw.real[:, i], dw.imag[:, i] = np.real(der) / t, np.imag(der) / t
        A, s = self.coeffs, self.scales
        for out, X in ((w, Z - self.center), (dw, V)):
            re = _row_dot(X.real, A.real) - _row_dot(X.imag, A.imag)
            im = _row_dot(X.real, A.imag) + _row_dot(X.imag, A.real)
            out.real[:, nc:], out.imag[:, nc:] = re / s, im / s
        return w, dw


def _competitors_for(d: SemiAnalytic, directions: int, seed: int) -> _Competitors:
    cache = getattr(d, "_competitor_cache", None)
    key = (directions, seed)
    if cache is None:
        cache = {}
        d._competitor_cache = cache
    if key not in cache:
        cache[key] = _Competitors(d, directions, seed)
    return cache[key]


# ---------------------------------------------------------------------------
# pointwise metrics


def caratheodory_metric(
    d: Domain,
    x,
    v,
    directions: int = DEFAULT_DIRECTIONS,
    seed: int = 0,
) -> Bound:
    """Supremum of |phi'(x)·v| over holomorphic maps phi of d into the disk.

    Exact on polydiscs; a certified lower bound (finite competitor family)
    on semi-analytic domains.
    """
    x = as_point(x)
    if not contains(d, x):
        raise MembershipError(f"point {x.coords} is not in the domain")
    varr = as_vector(v, d.dim)
    field = metric_field(d, "caratheodory", directions=directions, seed=seed)
    value = float(field.eval(x.as_array()[None], varr[None])[0])
    if field.kind == EXACT:
        return Bound(value, EXACT)
    return Bound(value, LOWER, tol=1e-12 * (1 + value))


_ZETA_RADII = (0.25, 0.5, 0.75, 0.9, 0.97, 0.995, 0.9995)
_ZETA_ANGLES = 32


@functools.lru_cache(maxsize=1)
def _zeta_grid() -> np.ndarray:
    angles = np.exp(2j * np.pi * np.arange(_ZETA_ANGLES) / _ZETA_ANGLES)
    return np.concatenate([[0j]] + [[r * a for a in angles] for r in _ZETA_RADII])


def _row_norms(V: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of V, rounded as np.linalg.norm of one row:
    each (1, n) @ (n, 1) product goes through the same dot as its norm."""
    sq = [np.matmul(P[:, None, :], P[:, :, None])[:, 0, 0] for P in (V.real, V.imag)]
    return np.sqrt(sq[0] + sq[1])


def _affine_disk_radii(
    d: Domain, Z: np.ndarray, U: np.ndarray, tol: float
) -> np.ndarray:
    """Largest rho per row (sampled membership, bisection) with
    Z[i] + zeta·rho·U[i] in d for every zeta of the grid.

    The bisection starts from the box diagonal, a radius that never fits:
    the grid points of modulus 0.9995 at opposite angles would lie farther
    apart than the box that holds d.  The rows bisect in lock step, each
    with its own stopping rule and so its own midpoints; a finished row
    tests its last radius again, which changes nothing.  Rows go through in
    blocks so that one membership call tests at most _BLOCK_POINTS points.
    """
    zetas = _zeta_grid()
    step = max(1, _BLOCK_POINTS // zetas.size)
    out = np.empty(len(Z))
    for start in range(0, len(Z), step):
        z, u = Z[start : start + step, None, :], U[start : start + step, None, :]

        def fits(rho: np.ndarray) -> np.ndarray:
            pts = z + (zetas * rho[:, None])[:, :, None] * u
            return d.contains_many(pts.reshape(-1, d.dim)).reshape(len(z), -1).all(axis=1)

        lo, hi = np.zeros(len(z)), np.full(len(z), d.box_diagonal())
        for _ in range(60):
            open_ = hi - lo > tol * np.maximum(1.0, lo)
            if not open_.any():
                break
            mid = np.where(open_, 0.5 * (lo + hi), lo)
            ok = fits(mid)
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
        out[start : start + step] = lo
    return out


def kobayashi_metric(
    d: Domain,
    x,
    v,
    inner: Optional[Domain] = None,
    tol: float = 1e-6,
) -> Bound:
    """Infimum of |lambda| over analytic disks through x with lambda·phi'(0) = v.

    Exact on polydiscs (where it coincides with the Carathéodory metric).
    On semi-analytic domains, an upper bound from the largest affine analytic
    disk through x in direction v, improved by the gap dilation when a
    relatively compact inner domain containing x is supplied.
    """
    x = as_point(x)
    if not contains(d, x):
        raise MembershipError(f"point {x.coords} is not in the domain")
    varr = as_vector(v, d.dim)
    z = x.as_array()
    vnorm = float(np.linalg.norm(varr))
    if vnorm == 0.0:
        return Bound(0.0, EXACT)
    field = metric_field(d, "kobayashi", tol=tol)
    best = float(field.eval(z[None], varr[None])[0])
    if field.kind == EXACT:
        return Bound(best, EXACT)
    if inner is not None and contains(inner, x):
        R = diameter_bound(inner)
        r = inner_gap(inner, d)
        rho_inner = float(_affine_disk_radii(inner, z[None], (varr / vnorm)[None], tol)[0])
        if rho_inner > 0:
            best = min(best, vnorm / (rho_inner * (1 + r / R)))
    return Bound(best, UPPER, tol=tol * best)


def caratheodory_distance(
    d: Domain,
    a,
    b,
    directions: int = DEFAULT_DIRECTIONS,
    seed: int = 0,
) -> Bound:
    """Supremum of the Poincaré distance of images under maps into the disk."""
    a, b = as_point(a), as_point(b)
    if not (contains(d, a) and contains(d, b)):
        raise MembershipError("both points must lie in the domain")
    za, zb = a.as_array(), b.as_array()
    if isinstance(d, Polydisc):
        vals = [
            poincare_distance(
                (za[j] - d.centers[j]) / d.radii[j],
                (zb[j] - d.centers[j]) / d.radii[j],
            )
            for j in range(d.dim)
        ]
        return Bound(max(vals), EXACT)
    Z = np.stack([za, zb])
    w, _ = _competitors_for(d, directions, seed).eval(Z, np.zeros_like(Z))
    best = 0.0
    for wa, wb in w.T.tolist():
        if abs(wa) >= 1 or abs(wb) >= 1:
            continue
        best = max(best, poincare_distance(wa, wb))
    return Bound(best, LOWER, tol=1e-12 * (1 + best))


# ---------------------------------------------------------------------------
# metric fields (evaluators fed to path integration)


class MetricField:
    """Metric evaluator E(z, v) over a fixed domain."""

    kind: str
    domain: Domain
    # (centers, radii) when the closed polydisc form applies (kernel path)
    model: Optional[tuple] = None

    def eval(self, Z: np.ndarray, V: np.ndarray) -> np.ndarray:
        """E at the N rows of Z along the N rows of V, both of shape (N, n)."""
        raise NotImplementedError


class PolydiscModelField(MetricField):
    """Exact Carathéodory = Kobayashi metric of a polydisc."""

    kind = EXACT

    def __init__(self, d: Polydisc):
        self.domain = d
        self.centers = np.ascontiguousarray(d.centers, dtype=complex)
        self.radii = np.ascontiguousarray(d.radii, dtype=float)
        self.model = (self.centers, self.radii)

    def eval(self, Z, V):
        den = self.radii**2 - np.abs(Z - self.centers) ** 2
        if np.any(den <= 0):
            raise MembershipError("point is not in the polydisc")
        return (self.radii * np.abs(V) / den).max(axis=1)


class CompetitorMetricField(MetricField):
    """Lower-bound Carathéodory metric on a semi-analytic domain."""

    kind = LOWER

    def __init__(self, d: SemiAnalytic, directions: int = DEFAULT_DIRECTIONS, seed: int = 0):
        self.domain = d
        self._comps = _competitors_for(d, directions, seed)

    def eval(self, Z, V):
        # blocks of rows keep each (rows, competitors) array to _BLOCK_POINTS entries
        step = max(1, _BLOCK_POINTS // self._comps.count)
        out = np.empty(len(Z))
        for start in range(0, len(Z), step):
            rows = slice(start, start + step)
            w, dw = self._comps.eval(Z[rows], V[rows])
            # hypot rounds |w| as abs() of one complex does; np.abs may not
            absw = np.hypot(w.real, w.imag)
            rate = np.divide(
                np.hypot(dw.real, dw.imag),
                1 - absw**2,
                out=np.zeros_like(absw),
                where=absw < 1,
            )
            out[rows] = rate.max(axis=1, initial=0.0)
        return out


class AnalyticDiskField(MetricField):
    """Upper-bound Kobayashi metric on a semi-analytic domain."""

    kind = UPPER

    def __init__(self, d: SemiAnalytic, tol: float = 1e-6):
        self.domain = d
        self.tol = tol

    def eval(self, Z, V):
        vnorm = _row_norms(V)
        out = np.zeros(len(Z))
        rows = np.flatnonzero(vnorm)
        rho = _affine_disk_radii(
            self.domain, Z[rows], V[rows] / vnorm[rows, None], self.tol
        )
        if np.any(rho <= 0):
            raise PathInvalidError("no affine analytic disk fits at this point")
        out[rows] = vnorm[rows] / rho
        return out


def metric_field(d: Domain, metric: str = "caratheodory", **opts) -> MetricField:
    if metric not in ("caratheodory", "kobayashi"):
        raise ArgumentError(f"unknown metric {metric!r}")
    if isinstance(d, Polydisc):
        return PolydiscModelField(d)
    if metric == "caratheodory":
        return CompetitorMetricField(d, **opts)
    return AnalyticDiskField(d, **opts)


# ---------------------------------------------------------------------------
# path length and integrated distance


@dataclasses.dataclass(frozen=True)
class Polyline:
    """Piecewise-linear path; per-segment Gauss-Legendre quadrature order."""

    vertices: tuple
    order: int = DEFAULT_QUAD_ORDER

    def __init__(self, vertices, order: int = DEFAULT_QUAD_ORDER):
        verts = tuple(as_point(p) for p in vertices)
        for p, q in zip(verts, verts[1:]):
            if p.coords == q.coords:
                raise ArgumentError("consecutive polyline vertices must be distinct")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "order", int(order))

    def as_matrix(self) -> np.ndarray:
        return np.array([p.as_array() for p in self.vertices], dtype=complex)


@functools.lru_cache(maxsize=16)
def _gauss01(order: int) -> tuple:
    x, w = np.polynomial.legendre.leggauss(order)
    return (0.5 * (x + 1.0), 0.5 * w)


def _length_of(field: MetricField, verts: np.ndarray, order: int) -> float:
    """Quadrature length of the polyline; +inf if a node leaves the domain."""
    return float(_lengths_of(field, verts[None], order)[0])


def _refined_length(field: MetricField, verts: np.ndarray, order: int) -> tuple:
    """(length, quadrature tol) with order doubling until stable."""
    prev = _length_of(field, verts, order)
    if math.isinf(prev):
        return prev, math.inf
    for _ in range(QUAD_MAX_DOUBLINGS):
        order *= 2
        cur = _length_of(field, verts, order)
        diff = abs(cur - prev)
        if diff <= QUAD_REL_TOL * max(1e-30, abs(cur)):
            return cur, diff
        prev = cur
    return prev, abs(diff)


def path_length(field: MetricField, polyline: Polyline) -> Bound:
    """Metric length of a polyline by per-segment Gauss-Legendre quadrature."""
    verts = polyline.as_matrix()
    value, qtol = _refined_length(field, verts, polyline.order)
    if math.isinf(value):
        raise PathInvalidError("a quadrature node escapes the domain")
    if field.kind == LOWER:
        return Bound(
            value,
            LOWER,
            tol=qtol,
            caveat="length of a lower-bound metric: no valid upper direction",
        )
    return Bound(value, UPPER, tol=qtol)


def _subdivide(verts: np.ndarray) -> np.ndarray:
    mids = 0.5 * (verts[:-1] + verts[1:])
    out = np.empty((verts.shape[0] * 2 - 1, verts.shape[1]), dtype=complex)
    out[0::2] = verts
    out[1::2] = mids
    return out


def _lengths_of(field: MetricField, stack: np.ndarray, order: int) -> np.ndarray:
    """Quadrature lengths of a (B, m, n) stack of polylines; +inf where one escapes.

    Without a polydisc model for the kernel, all nodes are tested in one
    membership call, and the field is evaluated in one call at the nodes of
    the polylines where none escapes.
    """
    nodes, weights = _gauss01(order)
    if field.model is not None:
        centers, radii = field.model
        vals = kernels.polyline_lengths(stack, centers, radii, nodes, weights)
        return np.where(vals < 0, math.inf, vals)
    seg = stack[:, 1:] - stack[:, :-1]  # (B, m-1, n)
    z = stack[:, :-1, None, :] + nodes[None, None, :, None] * seg[:, :, None, :]
    B, S, Q, n = z.shape
    inside = field.domain.contains_many(z.reshape(-1, n)).reshape(B, S * Q).all(axis=1)
    out = np.full(B, math.inf)
    rows = np.flatnonzero(inside)
    if S == 0:
        out[rows] = 0.0
        return out
    vals = field.eval(
        z[rows].reshape(-1, n), np.repeat(seg[rows], Q, axis=1).reshape(-1, n)
    ).reshape(rows.size, S * Q)
    # cumsum adds node by node, in segment then node order, as a running
    # total += would
    out[rows] = np.cumsum(vals * np.tile(weights, S), axis=1)[:, -1]
    return out


def _relax_vertices(
    field: MetricField, verts: np.ndarray, idx: np.ndarray, order: int
) -> None:
    """Parabolic coordinate steps on the mutually independent vertices idx.

    No vertex in idx neighbours another, so each local objective (the length
    of [left, vertex, right]) depends on one moving vertex only and all of
    them are evaluated together: one batched call for the +/- probes of a
    coordinate, one for the parabolic candidates.  Updates verts in place.
    """
    n = verts.shape[1]
    left, right = verts[idx - 1], verts[idx + 1]
    rows = np.arange(idx.size)

    def local_lengths(at: np.ndarray, x: np.ndarray) -> np.ndarray:
        mid = x[:, :n] + 1j * x[:, n:]
        return _lengths_of(field, np.stack([left[at], mid, right[at]], axis=1), order)

    x = np.concatenate([verts[idx].real, verts[idx].imag], axis=1)
    f0 = local_lengths(rows, x)
    h = 0.25 * np.maximum(
        np.abs(verts[idx] - left).max(axis=1), np.abs(right - verts[idx]).max(axis=1)
    )
    for _pass in range(4):
        for q in range(2 * n):
            probes = np.concatenate([x, x])
            probes[:, q] += np.concatenate([h, -h])
            fp, fm = np.split(local_lengths(np.concatenate([rows, rows]), probes), 2)
            with np.errstate(divide="ignore", invalid="ignore"):
                curv = fp - 2 * f0 + fm
                parabolic = curv > 0
                # fmin/fmax drop a nan step (from inf probes) in favour of the
                # clip bound, as Python's min/max do with a nan second argument
                step = np.where(
                    parabolic,
                    np.fmax(-3 * h, np.fmin(3 * h, 0.5 * h * (fm - fp) / curv)),
                    np.where(fp < fm, h, -h),
                )
            moving = np.flatnonzero(parabolic | (fp < f0) | (fm < f0))
            if moving.size == 0:
                continue
            xc = x[moving]
            xc[:, q] += step[moving]
            fc = local_lengths(moving, xc)
            better = fc < f0[moving]
            x[moving[better]] = xc[better]
            f0[moving[better]] = fc[better]
        h = h * 0.35
    verts[idx] = x[:, :n] + 1j * x[:, n:]


def _coordinate_descent(
    field: MetricField,
    verts: np.ndarray,
    order: int,
    max_sweeps: int,
    rel_tol: float,
) -> np.ndarray:
    """Red-black sweeps of per-vertex parabolic coordinate steps until stagnation.

    Each sweep relaxes the odd interior vertices, then the even ones.  The
    vertices of one colour do not neighbour each other, so their local
    objectives are independent and their probes go through the batched
    kernel together.  Every vertex keeps its own step sizes and accepts a
    candidate only if it strictly shortens its local objective; ties and
    non-improving proposals keep the earlier iterate, so the result is
    deterministic.  Sweeps stop once one shortens the polyline by no more
    than rel_tol relative.
    """
    verts = verts.copy()
    interior = np.arange(1, verts.shape[0] - 1)
    colours = [c for c in (interior[0::2], interior[1::2]) if c.size]
    total = _lengths_of(field, verts[None], order)[0]
    for _ in range(max_sweeps):
        before = total
        for idx in colours:
            _relax_vertices(field, verts, idx, order)
        total = _lengths_of(field, verts[None], order)[0]
        if before - total <= rel_tol * max(1e-30, total):
            break
    return verts


def _seed_polyline(
    field: MetricField, d: Domain, za: np.ndarray, zb: np.ndarray, m: int, seed: int
) -> np.ndarray:
    def straight(points):
        pts = [points[0]]
        per = max(1, m // (len(points) - 1))
        for p, q in zip(points, points[1:]):
            for t in np.linspace(0, 1, per + 1)[1:]:
                pts.append(p + t * (q - p))
        return np.array(pts)

    verts = straight([za, zb])
    if math.isfinite(_length_of(field, verts, 4)):
        return verts
    from .domains import _anchor_of

    candidates = [_anchor_of(d)] + [p.as_array() for p in sample(d, 32, seed)]
    for mid in candidates:
        verts = straight([za, mid, zb])
        if math.isfinite(_length_of(field, verts, 4)):
            return verts
    raise ConnectivityError("no in-domain seed polyline between the endpoints")


def integrated_distance(
    field: MetricField,
    d: Domain,
    a,
    b,
    segments: int = DEFAULT_SEGMENTS,
    refinements: int = DEFAULT_REFINEMENTS,
    rel_tol: float = OPT_REL_TOL,
    seed: int = 0,
) -> Bound:
    """Infimum of path lengths, approximated from above by polyline descent.

    Coordinate descent on interior vertices with successive vertex doubling;
    yields the integrated Carathéodory pseudodistance when fed the
    Carathéodory metric and the Kobayashi pseudodistance when fed the
    Kobayashi metric.
    """
    a, b = as_point(a), as_point(b)
    if not (contains(d, a) and contains(d, b)):
        raise MembershipError("both endpoints must lie in the domain")
    za, zb = a.as_array(), b.as_array()
    if np.array_equal(za, zb):
        return Bound(0.0, UPPER, 0.0)
    verts = _seed_polyline(field, d, za, zb, segments, seed)
    opt_order = 8
    best, _ = _refined_length(field, verts, DEFAULT_QUAD_ORDER)
    last_improvement = math.inf
    for round_idx in range(refinements + 1):
        # sweeps stop on a much finer tolerance than the caller's so that the
        # per-sweep improvements can accumulate down to rel_tol overall
        verts = _coordinate_descent(
            field, verts, opt_order, max_sweeps=24, rel_tol=0.05 * rel_tol
        )
        cur, qtol = _refined_length(field, verts, DEFAULT_QUAD_ORDER)
        last_improvement = best - cur
        best = min(best, cur)
        if round_idx < refinements:
            if 0 <= last_improvement <= rel_tol * max(1e-30, best):
                break
            verts = _subdivide(verts)
    caveat = None
    if field.kind == LOWER:
        caveat = "infimum of a lower-bound metric: value may undershoot"
    tol = qtol + max(0.0, last_improvement)
    return Bound(best, UPPER, tol=tol, caveat=caveat)


__all__ = [
    "Bound",
    "Polyline",
    "MetricField",
    "PolydiscModelField",
    "CompetitorMetricField",
    "AnalyticDiskField",
    "metric_field",
    "poincare_distance",
    "poincare_metric",
    "caratheodory_metric",
    "kobayashi_metric",
    "caratheodory_distance",
    "path_length",
    "integrated_distance",
    "EXACT",
    "LOWER",
    "UPPER",
]
