"""Invariant pseudometrics and pseudodistances with exactness bookkeeping.

Closed forms on disks and polydiscs are exact; on semi-analytic domains the
supremum-type quantities are certified lower bounds (finite competitor
families of holomorphic maps into the unit disk) and the infimum-type ones
are upper bounds (affine analytic disks of sampled radius, polyline path
minimization).  Every numerical value travels inside a Bound that records
the direction.
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
    _anchor_of,
    _count,
    _point_rows,
    _row_norms,
    _rows_in,
    _sphere_directions,
    as_vector,
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
# above this many nodes a segment's rule is ceil(order / GAUSS_PANEL_NODES)
# equal panels of Gauss-Legendre, each of at most this many nodes
GAUSS_PANEL_NODES = 64
OPT_REL_TOL = 1e-6
DEFAULT_SEGMENTS = 8
DEFAULT_REFINEMENTS = 4
DEFAULT_DIRECTIONS = 64
# Hooke & Jeeves pattern move: after each sweep of a descent level but the
# first, the polyline is also measured at verts + beta * (verts - prev); beta
# = 0 is the sweep's own result
PATTERN_STEPS = np.array([0.0, 1.0, 3.0, 9.0, 27.0])
# the fractions of the way to the midpoint of its neighbours that a vertex
# tries after each sweep but a level's first
MIDPOINT_STEPS = np.array([0.1, 0.3, 1.0])
# the straight seed is respaced to equal metric length from the lengths of
# SEED_SUBSEGMENTS equal pieces per seed segment, each at order SEED_ORDER
SEED_SUBSEGMENTS = 16
SEED_ORDER = 1
# on every descent level but the last, sweeps also stop once one gains at
# most this fraction of the level's first-sweep gain
COARSE_GAIN_FRAC = 3e-4


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


def _poincare(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Elementwise Poincaré distance of z and w, broadcast together:
    atanh |(z - w) / (1 - conj(w) z)|, the quotient capped below 1 at
    1 - 1e-16, and 0 where |z| >= 1 or |w| >= 1."""
    inside = np.maximum(np.abs(z), np.abs(w)) < 1
    q = np.divide(z - w, 1 - np.conj(w) * z, out=np.zeros(inside.shape, complex), where=inside)
    return np.arctanh(np.minimum(np.abs(q), 1 - 1e-16))


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


def _disk_images(d: Domain, Z: np.ndarray, directions: int, seed: int) -> np.ndarray:
    """Images of the N rows of Z under maps of d into the unit disk, as an
    (N, K) array: the normalized coordinates of a polydisc, or the
    competitors of a semi-analytic domain."""
    if isinstance(d, Polydisc):
        return (Z - d.centers) / d.radii
    return _competitors_for(d, directions, seed).eval(Z, np.zeros_like(Z))[0]


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
    Z = _rows_in(d, x)
    V = as_vector(v, d.dim)[None]
    field = metric_field(d, "caratheodory", directions=directions, seed=seed)
    return field.bound(float(field.eval(Z, V)[0]))


# the 32 rotations e^{i theta_k} of a direction u whose rays from x bound the
# largest centred affine disk x + zeta·rho·u in a semi-analytic domain
_DISK_ANGLES = np.exp(2j * np.pi * np.arange(32) / 32)
# the tol reported with a Kobayashi upper bound on a semi-analytic domain,
# relative to its value
DISK_REL_TOL = 1e-6


def kobayashi_metric(d: Domain, x, v) -> Bound:
    """Infimum of |lambda| over analytic disks through x with lambda·phi'(0) = v.

    Exact on polydiscs (where it coincides with the Carathéodory metric).
    On semi-analytic domains, |v| / rho for the largest centred affine disk
    x + zeta·rho·v/|v|, with rho sampled (AnalyticDiskField): tagged upper,
    but not proven to be one.
    """
    Z = _rows_in(d, x)
    varr = as_vector(v, d.dim)
    if float(np.linalg.norm(varr)) == 0.0:
        return Bound(0.0, EXACT)
    field = metric_field(d, "kobayashi")
    return field.bound(float(field.eval(Z, varr[None])[0]))


def caratheodory_distance(
    d: Domain,
    a,
    b,
    directions: int = DEFAULT_DIRECTIONS,
    seed: int = 0,
) -> Bound:
    """Supremum of the Poincaré distance of images under maps into the disk:
    exact on polydiscs, a lower bound (the competitors) otherwise.  Images
    and formula are caratheodory_diameter's, pair for pair."""
    Z = _rows_in(d, a, b)
    W = _disk_images(d, Z, directions, seed)
    field = metric_field(d, "caratheodory", directions=directions, seed=seed)
    return field.bound(float(_poincare(W[0], W[1]).max(initial=0.0)))


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

    def bound(self, value: float) -> Bound:
        """One value of eval, tagged by how it relates to the true metric."""
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

    def bound(self, value):
        return Bound(value, EXACT)


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

    def bound(self, value):
        return Bound(value, LOWER, tol=1e-12 * (1 + value))


class AnalyticDiskField(MetricField):
    """Kobayashi metric |v| / rho on a semi-analytic domain, tagged upper.

    rho is the radius of the largest centred affine disk z + zeta·rho·u,
    u = v/|v|, in the domain: the disk fits exactly when every ray
    z + t·e^{i theta}·u with t < rho stays inside, so rho is the shortest
    exit over the rays.  It is sampled: the shortest of 32 rays, at the
    angles of _DISK_ANGLES (SemiAnalytic._shortest_exits): one march brackets
    every ray's exit, and only the rays that can be shortest are refined, to
    a point inside within 2**-30 of a march step.  The disk may poke out of
    the domain between the rays, which would make the value fall below the
    true metric.
    """

    kind = UPPER

    def __init__(self, d: SemiAnalytic):
        self.domain = d

    def eval(self, Z, V):
        vnorm = _row_norms(V)
        out = np.zeros(len(Z))
        rows = np.flatnonzero(vnorm)
        U = V[rows] / vnorm[rows, None]
        D = _DISK_ANGLES[None, :, None] * U[:, None, :]  # (rows, 32, n)
        rho = self.domain._shortest_exits(Z[rows], D)
        if np.any(rho <= 0):
            raise PathInvalidError("no affine analytic disk fits at this point")
        out[rows] = vnorm[rows] / rho
        return out

    def bound(self, value):
        return Bound(value, UPPER, tol=DISK_REL_TOL * value)


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


@dataclasses.dataclass(frozen=True, eq=False)
class Polyline:
    """Piecewise-linear path through the rows of an (m, n) vertex array, with
    a per-segment Gauss-Legendre order; compared by identity."""

    vertices: np.ndarray
    order: int = DEFAULT_QUAD_ORDER

    def __init__(self, vertices, order: int = DEFAULT_QUAD_ORDER):
        verts = _point_rows(vertices)
        if (verts[1:] == verts[:-1]).all(axis=1).any():
            raise ArgumentError("consecutive polyline vertices must be distinct")
        verts.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "order", _count("order", order, 1))


@functools.lru_cache(maxsize=16)
def _gauss01(order: int) -> tuple:
    """(nodes, weights) of an order-node rule on [0, 1]: Gauss-Legendre up to
    GAUSS_PANEL_NODES nodes, else P = ceil(order / GAUSS_PANEL_NODES) equal
    panels of ceil(order / P)-node Gauss-Legendre.  leggauss is a dense
    eigen-solve, O(order^3) in time and O(order^2) in memory, so the panels
    keep a doubled order cheap."""
    panels = -(-order // GAUSS_PANEL_NODES)
    x, w = np.polynomial.legendre.leggauss(-(-order // panels))
    x, w = 0.5 * (x + 1.0), 0.5 * w
    if panels == 1:
        return x, w
    starts = np.arange(panels)[:, None]
    return ((starts + x) / panels).ravel(), np.tile(w / panels, panels)


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
    verts = field.domain._rows(*polyline.vertices)
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
        vals[vals < 0] = math.inf
        return vals
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


@functools.lru_cache(maxsize=8)
def _unit_steps(n: int) -> np.ndarray:
    """The (2n, 1, n) unit steps E along the 2n real coordinates of C^n, one
    per block of k rows: 1 in each coordinate, then i in each.  Read-only."""
    steps = np.concatenate([np.eye(n), 1j * np.eye(n)])[:, None, :]
    steps.flags.writeable = False
    return steps


def _local_polylines(verts: np.ndarray, idx: np.ndarray, blocks: int) -> np.ndarray:
    """A (blocks, k, 3, n) buffer of [left, mid, right] rows around the k =
    idx.size vertices idx, one block per trial: left and right are written,
    the mid column is left to the caller."""
    buf = np.empty((blocks, idx.size, 3, verts.shape[1]), dtype=complex)
    buf[:, :, 0], buf[:, :, 2] = verts[idx - 1], verts[idx + 1]
    return buf


def _relax_vertices(
    field: MetricField, verts: np.ndarray, idx: np.ndarray, order: int
) -> None:
    """Gauss-Southwell parabolic steps on the mutually independent vertices idx.

    No vertex in idx neighbours another, so each local objective (the length
    of [left, vertex, right]) depends on one moving vertex only and all of
    them are evaluated together.  Each of the 4 passes makes two batched
    calls: one for the +/- h probes along all d = 2n real coordinates, one
    for each coordinate's candidate step.  A vertex then moves to its
    shortest candidate whose step is useful (parabolic, or downhill on one
    side), ties going to the lowest coordinate, if that strictly shortens
    its local objective.  Updates verts in place.

    The local polylines are complex rows of one (3d + 1, k, 3, n) buffer
    (`_local_polylines`): 2d blocks of probes cur +/- h·E in (sign,
    coordinate) order, E the unit steps (`_unit_steps`); the current
    vertices cur, measured in the first pass's probe call; and d blocks of
    candidates cur + step·E, all measured, the rows whose step is not
    useful then masked to inf.  A move copies its candidate row into cur.
    """
    n, k = verts.shape[1], idx.size
    d, E = 2 * n, _unit_steps(n)
    buf = _local_polylines(verts, idx, 3 * d + 1)
    probes = buf[: 2 * d].reshape(2, d, k, 3, n)
    cur, cand = buf[2 * d, :, 1], buf[2 * d + 1 :]
    cur[:] = verts[idx]
    rows, nprobe = buf.reshape(-1, 3, n), 2 * d * k
    # a quarter of the largest coordinate distance to either neighbour
    h = 0.25 * np.abs(buf[2 * d, :, ::2] - cur[:, None]).max(axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _pass in range(4):
            np.add(cur, h[:, None] * E, out=probes[0, :, :, 1])
            np.subtract(cur, h[:, None] * E, out=probes[1, :, :, 1])
            f = _lengths_of(field, rows[: nprobe + (k if _pass == 0 else 0)], order)
            if _pass == 0:
                f0 = f[nprobe:]
            fp, fm = f[:nprobe].reshape(2, d, k)
            curv = fp - 2 * f0 + fm
            parabolic = curv > 0
            # fmin/fmax drop a nan step (from inf probes) in favour of the
            # clip bound, as Python's min/max do with a nan second argument
            step = np.where(
                parabolic,
                np.fmax(-3 * h, np.fmin(3 * h, 0.5 * h * (fm - fp) / curv)),
                np.where(fp < fm, h, -h),
            )
            useful = parabolic | (fp < f0) | (fm < f0)
            if useful.any():
                np.add(cur, step[:, :, None] * E, out=cand[:, :, 1])
                fc = _lengths_of(field, rows[nprobe + k :], order).reshape(d, k)
                fc = np.where(useful, fc, math.inf)
                best, fbest = fc.argmin(axis=0), fc.min(axis=0)
                move = np.flatnonzero(fbest < f0)
                cur[move] = cand[best[move], move, 1]
                f0[move] = fbest[move]
            h = h * 0.35
    verts[idx] = cur


def _midpoint_moves(
    field: MetricField, verts: np.ndarray, idx: np.ndarray, order: int
) -> None:
    """Joint steps of the mutually independent vertices idx toward the
    midpoints of their neighbours.

    A vertex moves by the shortest of MIDPOINT_STEPS, ties going to the
    smallest, if that strictly shortens its local objective; one batched call
    measures all of them.  Such a step moves every coordinate at once, so it
    shortens a polydisc polyline at a kink, where two coordinate metrics tie
    for the max on both of a vertex's segments and every one-coordinate step
    of `_relax_vertices` lengthens one of them.  Updates verts in place.
    """
    n, k = verts.shape[1], idx.size
    buf = _local_polylines(verts, idx, MIDPOINT_STEPS.size + 1)
    left, mid, right = buf[0, :, 0], verts[idx], buf[0, :, 2]
    buf[0, :, 1] = mid
    buf[1:, :, 1] = mid + MIDPOINT_STEPS[:, None, None] * (0.5 * (left + right) - mid)
    f = _lengths_of(field, buf.reshape(-1, 3, n), order).reshape(-1, k)
    best = f.argmin(axis=0)
    move = np.flatnonzero(f[best, np.arange(k)] < f[0])
    verts[idx[move]] = buf[best[move], move, 1]


def _coordinate_descent(
    field: MetricField,
    verts: np.ndarray,
    order: int,
    max_sweeps: int,
    rel_tol: float,
    coarse: bool = False,
) -> np.ndarray:
    """Red-black sweeps of per-vertex Gauss-Southwell steps, then joint
    midpoint steps and a pattern move, until stagnation.

    Each sweep relaxes the odd interior vertices, then the even ones.  The
    vertices of one colour do not neighbour each other, so their local
    objectives are independent and their probes go through the batched
    kernel together, two calls per pass (`_relax_vertices`).  Every vertex
    keeps its own step size and, per pass, moves along the one coordinate
    whose candidate is shortest, only if that strictly shortens its local
    objective; ties go to the lowest coordinate and non-improving proposals
    keep the earlier iterate, so the result is deterministic.

    From the second sweep of a level on, the sweep then tries each colour's
    joint steps toward the neighbours' midpoints (`_midpoint_moves`), and
    one batched call measures the pattern move of Hooke & Jeeves: the
    polyline at verts + beta * (verts - prev) for each beta in
    PATTERN_STEPS, prev being the polyline before the sweep.  Vertex steps
    converge slowly along the polyline's smooth modes, which the pattern
    move extrapolates.  The shortest trial is kept, the sweep's own result
    (beta = 0) on a tie.  The first sweep of a level, which mostly places
    the midpoints of a subdivision, takes neither.

    Sweeps stop once one shortens the polyline by no more than rel_tol
    relative, or, if coarse, by no more than COARSE_GAIN_FRAC times the
    first sweep's gain.
    """
    verts = verts.copy()
    interior = np.arange(1, verts.shape[0] - 1)
    colours = [c for c in (interior[0::2], interior[1::2]) if c.size]
    total = _lengths_of(field, verts[None], order)[0]
    for sweep in range(max_sweeps):
        before, prev = total, verts.copy()
        for idx in colours:
            _relax_vertices(field, verts, idx, order)
        if sweep == 0:
            total = _lengths_of(field, verts[None], order)[0]
            first_gain = before - total
        else:
            for idx in colours:
                _midpoint_moves(field, verts, idx, order)
            trials = verts + PATTERN_STEPS[:, None, None] * (verts - prev)
            lengths = _lengths_of(field, trials, order)
            best = lengths.argmin()
            verts, total = trials[best], lengths[best]
        if before - total <= rel_tol * max(1e-30, total) or (
            coarse and before - total <= COARSE_GAIN_FRAC * first_gain
        ):
            break
    return verts


def _equal_metric_spacing(field: MetricField, verts: np.ndarray) -> np.ndarray:
    """The straight polyline verts with its interior vertices moved along it
    so that all its segments have the same metric length.

    The lengths of SEED_SUBSEGMENTS equal pieces per segment, at order
    SEED_ORDER and in one call, give the cumulative length at their ends;
    the vertices go where it reaches the fractions j/m of the total, by
    linear interpolation.  verts is returned as it is if a piece escapes or
    the total is 0.
    """
    za, zb = verts[0], verts[-1]
    m = verts.shape[0] - 1
    t = np.linspace(0.0, 1.0, SEED_SUBSEGMENTS * m + 1)
    points = za + t[:, None] * (zb - za)
    pieces = np.stack([points[:-1], points[1:]], axis=1)
    cum = np.concatenate([[0.0], np.cumsum(_lengths_of(field, pieces, SEED_ORDER))])
    if not 0 < cum[-1] < math.inf:
        return verts
    out = verts.copy()
    out[1:-1] = za + np.interp(cum[-1] * np.arange(1, m) / m, cum, t)[:, None] * (zb - za)
    return out


def _seed_polyline(
    field: MetricField, d: Domain, za: np.ndarray, zb: np.ndarray, m: int, seed: int
) -> np.ndarray:
    def straight(points):
        # each leg ends on its point exactly: p + 1.0 * (q - p) may round off q
        pts = [points[0]]
        per = max(1, m // (len(points) - 1))
        for p, q in zip(points, points[1:]):
            for t in np.linspace(0, 1, per + 1)[1:-1]:
                pts.append(p + t * (q - p))
            pts.append(q)
        return np.array(pts)

    verts = straight([za, zb])
    if math.isfinite(_length_of(field, verts, 4)):
        return _equal_metric_spacing(field, verts)
    for mid in np.concatenate([_anchor_of(d)[None], sample(d, 32, seed)]):
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

    Descent on the interior vertices of a `segments`-segment seed polyline,
    then on each of `refinements` successive vertex doublings, until a
    level changes the refined length by at most rel_tol relative, either
    way: a loss of rounding size stops the refinement as a gain would
    (`_coordinate_descent`).  The seed is the straight segment with its
    vertices at equal metric length (`_equal_metric_spacing`), or a
    two-leg path through a sampled point where that leaves the domain.  Each
    level stops its sweeps once one gains at most 0.05 * rel_tol relative,
    and every level but the last also once one gains at most
    COARSE_GAIN_FRAC times its first sweep's gain.  Yields the integrated
    Carathéodory pseudodistance when fed the Carathéodory metric and the
    Kobayashi pseudodistance when fed the Kobayashi metric.  Raises
    ArgumentError unless segments >= 1 and refinements >= 0 are integers.
    """
    segments = _count("segments", segments, 1)
    refinements = _count("refinements", refinements, 0)
    za, zb = _rows_in(d, a, b)
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
            field,
            verts,
            opt_order,
            max_sweeps=24,
            rel_tol=0.05 * rel_tol,
            coarse=round_idx < refinements,
        )
        cur, qtol = _refined_length(field, verts, DEFAULT_QUAD_ORDER)
        last_improvement = best - cur
        best = min(best, cur)
        if round_idx < refinements:
            if abs(last_improvement) <= rel_tol * max(1e-30, best):
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
