"""Bounded domains of C^n: membership, Euclidean geometry, seeded sampling.

The two quantities every contraction certificate needs are an upper bound R
on the Euclidean diameter of the inner domain and the gap r between the
inner domain and the boundary of the outer one.  Both are exact in closed
form for disks and polydiscs.  For semi-analytic domains R is the
bounding-box diagonal, still an upper bound, but r is sampled: a minimum
over sampled points and ray directions times a safety factor, which can
overstate the true gap when a thin feature of the boundary falls between
the samples.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    InclusionError,
    MembershipError,
    SamplingExhaustedError,
    SingularityError,
    UnsupportedDomainError,
)

DEFAULT_SAMPLES = 512
# Fraction of the box scale used when pushing sample points toward the
# boundary, so supremum estimates are not interior-biased.
NEAR_BOUNDARY_FRACTION = 0.01
# Safety factor applied to sampled gap estimates for semi-analytic domains.
GAP_SAFETY = 0.9
INCLUSION_FLOOR = 1e-9
# most points that one membership call of a batched routine tests, and most
# values that one block of such a routine holds
_BLOCK_POINTS = 2**16
# march steps per box diagonal in SemiAnalytic._march
_RAY_STEPS = 64
# SemiAnalytic._refine splits each exit bracket into _REFINE_SPLIT equal parts
# per membership call, for _REFINE_ROUNDS calls: 8**10 = 2**30, so a bracket
# ends 2**-30 of a march step wide
_REFINE_SPLIT = 8
_REFINE_ROUNDS = 10


@dataclasses.dataclass(frozen=True)
class Point:
    """A point of C^n, n >= 1."""

    coords: tuple

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(_point_rows([coords])[0].tolist()))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.array(self.coords, dtype=complex)


def _point_rows(points, dim: Optional[int] = None) -> np.ndarray:
    """The points, each a Point, a number, or a sequence or 1-D array of
    coordinates, as the rows of a (k, n) complex array.  Raises
    ArgumentError on a non-finite coordinate, on points of different
    dimensions, and unless n == dim when dim is given."""
    try:
        Z = np.array(
            [p.coords if isinstance(p, Point) else np.atleast_1d(p) for p in points],
            dtype=complex,
        )
    except (TypeError, ValueError, OverflowError):
        Z = np.empty(0)
    if Z.ndim != 2 or Z.shape[1] < 1:
        raise ArgumentError("points must be coordinates of one dimension")
    if dim is not None and Z.shape[1] != dim:
        raise ArgumentError(f"expected {dim} coordinates, got {Z.shape[1]}")
    if not np.isfinite(Z).all():
        raise ArgumentError("coordinates must be finite")
    return Z


def _count(name: str, value, least: int) -> int:
    """value as an int; ArgumentError unless it is an integer >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ArgumentError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def as_vector(v, n: int) -> np.ndarray:
    return _point_rows([v], n)[0]


class Domain:
    """A bounded open subset of C^n."""

    dim: int

    def contains(self, p) -> bool:
        raise NotImplementedError

    def contains_many(self, Z) -> np.ndarray:
        """Membership of each row of an (N, dim) complex array, as N bools.

        A row with a non-finite coordinate is outside.  Raises ArgumentError
        unless Z is 2-D with dim columns.
        """
        raise NotImplementedError

    def boundary_distance(self, p) -> float:
        raise NotImplementedError

    def boundary_distance_many(self, Z) -> np.ndarray:
        """Distance to the boundary of each row of an (N, dim) complex array.

        Raises MembershipError if a row is not in the domain (a non-finite
        row never is) and ArgumentError unless Z is 2-D with dim columns.
        """
        raise NotImplementedError

    def box(self) -> np.ndarray:
        """Per-coordinate bounding box: rows (re_lo, re_hi, im_lo, im_hi)."""
        raise NotImplementedError

    def box_scale(self) -> float:
        b = self.box()
        return float(max((b[:, 1] - b[:, 0]).max(), (b[:, 3] - b[:, 2]).max()))

    def box_diagonal(self) -> float:
        b = self.box()
        return float(
            math.sqrt(((b[:, 1] - b[:, 0]) ** 2 + (b[:, 3] - b[:, 2]) ** 2).sum())
        )

    def _rows(self, *points) -> np.ndarray:
        """The points as the rows of a (k, dim) complex array; see _point_rows."""
        return _point_rows(points, self.dim)

    def _check_rows(self, Z) -> np.ndarray:
        Z = np.asarray(Z, dtype=complex)
        if Z.ndim != 2 or Z.shape[1] != self.dim:
            raise ArgumentError(f"points must form an (N, {self.dim}) array, got {Z.shape}")
        return Z

    def to_json(self) -> dict:
        raise NotImplementedError


class Polydisc(Domain):
    """Product of coordinate disks |z_j - c_j| < rho_j."""

    def __init__(self, centers: Sequence[complex], radii: Sequence[float]):
        self.centers = _point_rows([centers])[0]
        try:
            self.radii = np.array([float(r) for r in radii], dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ArgumentError("radii must be real numbers") from None
        if self.centers.shape != self.radii.shape:
            raise ArgumentError("centers and radii must have equal positive length")
        if not np.all((self.radii > 0) & (self.radii < math.inf)):
            raise ArgumentError("radii must be positive and finite")
        self.dim = self.centers.size

    def __repr__(self):
        return f"Polydisc(centers={list(self.centers)}, radii={list(self.radii)})"

    def contains(self, p) -> bool:
        return bool(self.contains_many(self._rows(p))[0])

    def contains_many(self, Z) -> np.ndarray:
        Z = self._check_rows(Z)
        return np.all(np.abs(Z - self.centers) < self.radii, axis=1)

    def boundary_distance(self, p) -> float:
        return float(self.boundary_distance_many(self._rows(p))[0])

    def boundary_distance_many(self, Z) -> np.ndarray:
        Z = self._check_rows(Z)
        gaps = self.radii - np.abs(Z - self.centers)
        # a NaN gap fails > 0, so a non-finite row counts as outside
        _raise_outside(self, Z, ~np.all(gaps > 0, axis=1))
        return gaps.min(axis=1)

    def box(self) -> np.ndarray:
        re = self.centers.real
        im = self.centers.imag
        r = self.radii
        return np.column_stack([re - r, re + r, im - r, im + r])

    def to_json(self) -> dict:
        return {
            "kind": "polydisc",
            "centers": [[c.real, c.imag] for c in self.centers],
            "radii": [float(r) for r in self.radii],
        }


class Disk(Polydisc):
    """The n = 1 special case; Disk(0, 1) is the unit disk."""

    def __init__(self, center: complex, radius: float):
        super().__init__([center], [radius])
        self.center = complex(center)
        self.radius = float(radius)

    def __repr__(self):
        return f"Disk({self.center}, {self.radius})"

    def to_json(self) -> dict:
        return {
            "kind": "disk",
            "centers": [[self.center.real, self.center.imag]],
            "radii": [self.radius],
        }


def unit_disk() -> Disk:
    return Disk(0.0, 1.0)


class SemiAnalytic(Domain):
    """Intersection of a box with sublevel sets |g_i(z)| < t_i.

    Each constraint is a scalar-valued holomorphic expression g_i together
    with a threshold t_i; membership means strict inequality for every
    constraint and strict containment in the box.
    """

    def __init__(self, constraints, box):
        # constraints: list of (HoloMap with m=1, threshold)
        self.constraints = []
        for g, t in constraints:
            if g.m != 1:
                raise ArgumentError("constraint maps must be scalar-valued")
            t = float(t)
            if not (t > 0 and math.isfinite(t)):
                raise ArgumentError("constraint thresholds must be positive finite")
            self.constraints.append((g, t))
        box_arr = np.array(box, dtype=float)
        if box_arr.ndim != 2 or box_arr.shape[1] != 4:
            raise ArgumentError("box must be rows of (re_lo, re_hi, im_lo, im_hi)")
        if not np.all(np.isfinite(box_arr)):
            raise UnsupportedDomainError("bounding box must be finite")
        if not (np.all(box_arr[:, 1] > box_arr[:, 0]) and np.all(box_arr[:, 3] > box_arr[:, 2])):
            raise ArgumentError("box intervals must be nondegenerate")
        self._box = box_arr
        self.dim = box_arr.shape[0]
        for g, _ in self.constraints:
            if g.n != self.dim:
                raise ArgumentError("constraint dimension does not match box")
        self._anchor: Optional[np.ndarray] = None

    def __repr__(self):
        return f"SemiAnalytic({len(self.constraints)} constraints, dim={self.dim})"

    def contains(self, p) -> bool:
        return bool(self.contains_many(self._rows(p))[0])

    def contains_many(self, Z) -> np.ndarray:
        """Box test first; each constraint is evaluated only on the rows that
        passed the box and the constraints before it.  A pole of a
        constraint is outside (|g| = inf >= t there): a batch that hits one
        is finished row by row."""
        Z = self._check_rows(Z)
        b = self._box
        inside = np.all(
            (Z.real > b[:, 0]) & (Z.real < b[:, 1])
            & (Z.imag > b[:, 2]) & (Z.imag < b[:, 3]),
            axis=1,
        )
        for g, t in self.constraints:
            rows = np.flatnonzero(inside)
            try:
                w = g.eval_array(Z[rows].T)[0]
            except SingularityError:
                w = np.array([_value_or_pole(g, z) for z in Z[rows]])
            # hypot rounds |w| as abs() of one complex does; np.abs may not
            inside[rows] = np.hypot(w.real, w.imag) < t
        return inside

    def box(self) -> np.ndarray:
        return self._box

    def interior_point(self) -> np.ndarray:
        """Some point of the domain, found once by seeded sampling."""
        if self._anchor is None:
            self._anchor = _interior_sample(self, 1, seed=0)[0]
        return self._anchor

    def _march(self, z: np.ndarray, U: np.ndarray) -> tuple:
        """Bracket (lo, hi) of the first exit along each unit direction (row
        of U), from one membership call: a march in steps of
        box_diagonal/_RAY_STEPS, with hi the first point outside and lo the
        point before it (0 for the origin).  A ray that never leaves gets
        lo = hi = box_diagonal.  The origin z is one point (n,) shared by
        every ray, or one row per ray (len(U), n)."""
        t_max = self.box_diagonal()
        step = t_max / _RAY_STEPS
        # cumsum adds step by step, as a running t += step would
        ts = np.cumsum(np.full(_RAY_STEPS + 2, step))
        ts = ts[ts <= t_max + step]
        march = z[..., None, :] + ts[None, :, None] * U[:, None, :]
        out = ~self.contains_many(march.reshape(-1, self.dim)).reshape(len(U), len(ts))
        leaves = out.any(axis=1)
        first = out.argmax(axis=1)
        lo = np.where(leaves, np.where(first > 0, ts[first - 1], 0.0), t_max)
        hi = np.where(leaves, ts[first], t_max)
        return lo, hi

    def _refine(self, z: np.ndarray, U: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The exit brackets of _march narrowed to 2**-30 of their width, and
        their inside ends returned (lo where lo = hi).  Each of _REFINE_ROUNDS
        rounds tests, in one membership call, the _REFINE_SPLIT - 1 interior
        points of _REFINE_SPLIT equal parts of every bracket; the new bracket
        runs from the last of them inside before the first outside to that
        one, or from the last to hi if all are inside.  So lo is always a
        point that tested inside, and hi one that tested outside."""
        lo = lo.copy()
        rays = np.flatnonzero(lo < hi)
        if not len(rays):
            return lo
        origins = np.broadcast_to(z, U.shape)[rays]
        U = U[rays]
        a, b = lo[rays], hi[rays]
        k = np.arange(1, _REFINE_SPLIT)
        every = np.arange(len(rays))
        for _ in range(_REFINE_ROUNDS):
            ts = a[:, None] + k * ((b - a) / _REFINE_SPLIT)[:, None]
            pts = origins[:, None, :] + ts[:, :, None] * U[:, None, :]
            out = ~self.contains_many(pts.reshape(-1, self.dim)).reshape(ts.shape)
            # with hi appended as an outside point, the first outside is at
            # index f and the bracket is [points[f], points[f + 1]]
            f = np.column_stack([out, np.ones(len(rays), dtype=bool)]).argmax(axis=1)
            points = np.column_stack([a, ts, b])
            a, b = points[every, f], points[every, f + 1]
        lo[rays] = a
        return lo

    def _ray_exit(self, z: np.ndarray, U: np.ndarray) -> np.ndarray:
        """Distance along each unit direction (row of U) at which membership
        first fails, as a point that tested inside within 2**-30 of a march
        step of it: _march, then _refine of every ray.  The origin z is one
        point (n,) shared by every ray, or one row per ray (len(U), n)."""
        return self._refine(z, U, *self._march(z, U))

    def _shortest_exits(self, Z: np.ndarray, D: np.ndarray) -> np.ndarray:
        """For each row i of Z (N, n), the smallest _ray_exit from Z[i] over
        the K unit directions D[i] of the (N, K, n) array D, bit for bit.
        Every ray is marched, but only the rays whose lo lies below the
        smallest hi among their row's rays are refined: a ray's exit is at
        least its lo, and the ray of that hi exits before it.  Rows go
        through in blocks so that one march tests at most _BLOCK_POINTS
        points."""
        K = D.shape[1]
        step = max(1, _BLOCK_POINTS // (K * (_RAY_STEPS + 2)))
        out = np.empty(len(Z))
        for start in range(0, len(Z), step):
            z = np.repeat(Z[start : start + step], K, axis=0)
            u = D[start : start + step].reshape(-1, self.dim)
            lo, hi = self._march(z, u)
            rays = np.flatnonzero(lo < np.repeat(hi.reshape(-1, K).min(axis=1), K))
            lo[rays] = self._refine(z[rays], u[rays], lo[rays], hi[rays])
            out[start : start + step] = lo.reshape(-1, K).min(axis=1)
        return out

    def boundary_distance(self, p, directions: int = 32) -> float:
        return float(self.boundary_distance_many(self._rows(p), directions)[0])

    def boundary_distance_many(self, Z, directions: int = 32) -> np.ndarray:
        """The smaller of the box gap and the shortest exit over `directions`
        sampled rays, times GAP_SAFETY: a sampled estimate, not a bound."""
        Z = self._check_rows(Z)
        _raise_outside(self, Z, ~self.contains_many(Z))
        b = self._box
        box_gap = np.concatenate(
            [Z.real - b[:, 0], b[:, 1] - Z.real, Z.imag - b[:, 2], b[:, 3] - Z.imag],
            axis=1,
        ).min(axis=1)
        U = _sphere_directions(self.dim, directions, seed=1)
        rays = self._shortest_exits(Z, np.broadcast_to(U, (len(Z),) + U.shape))
        return GAP_SAFETY * np.minimum(box_gap, rays)

    def to_json(self) -> dict:
        return {
            "kind": "semianalytic",
            "constraints": [
                {"map": g.to_text(), "dim": g.n, "threshold": t}
                for g, t in self.constraints
            ],
            "box": [list(map(float, row)) for row in self._box],
        }


def _value_or_pole(g, z: np.ndarray) -> complex:
    """The scalar map g at the point z, or inf where g has a pole."""
    try:
        return complex(g.eval_array(z)[0])
    except SingularityError:
        return complex(math.inf)


def _raise_outside(d: Domain, Z: np.ndarray, outside: np.ndarray) -> None:
    if outside.any():
        z = tuple(complex(c) for c in Z[np.argmax(outside)])
        raise MembershipError(f"point {z} is not in {d!r}")


def _rows_in(d: Domain, *points) -> np.ndarray:
    """d._rows(*points), raising MembershipError unless every point is in d."""
    Z = d._rows(*points)
    _raise_outside(d, Z, ~d.contains_many(Z))
    return Z


def _json_field(data: dict, name: str, convert):
    """convert(data[name]), raising ArgumentError that names the field if it
    is missing or convert fails on it."""
    where = f"{data['kind']} domain JSON"
    if name not in data:
        raise ArgumentError(f"{where} has no field {name!r}")
    try:
        return convert(data[name])
    except (TypeError, ValueError, KeyError, IndexError):
        raise ArgumentError(f"malformed field {name!r} in {where}") from None


def domain_from_json(data: dict) -> Domain:
    """The Disk, Polydisc or SemiAnalytic of a to_json() object.  Raises
    ArgumentError naming the field that is missing or malformed."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind in ("disk", "polydisc"):
        centers = _json_field(data, "centers", lambda v: [complex(x, y) for x, y in v])
        radii = _json_field(data, "radii", list)
        if kind == "polydisc":
            return Polydisc(centers, radii)
        if len(centers) != 1 or len(radii) != 1:
            raise ArgumentError("disk domain JSON needs one center and one radius")
        return Disk(centers[0], radii[0])
    if kind == "semianalytic":
        from .holomap import parse

        # rows of (re_lo, re_hi, im_lo, im_hi)
        box = _json_field(data, "box", lambda v: np.array(v, float).reshape(len(v), 4))

        def constraints(v):
            return [
                (parse(c["map"], c.get("dim", len(box))), float(c["threshold"]))
                for c in v
            ]

        return SemiAnalytic(_json_field(data, "constraints", constraints), box)
    raise ArgumentError(f"unknown domain kind {kind!r}")


# ---------------------------------------------------------------------------
# module-level convenience operations


def contains(d: Domain, p) -> bool:
    return d.contains(p)


def boundary_distance(d: Domain, p) -> float:
    return d.boundary_distance(p)


def diameter_bound(U: Domain) -> float:
    """Certified upper bound on the Euclidean diameter of U.

    Exact for polydiscs (2 * ||radii||_2); the bounding-box diagonal, always
    valid but possibly loose, for semi-analytic domains.
    """
    if isinstance(U, Polydisc):
        return float(2.0 * math.sqrt(float((U.radii**2).sum())))
    diag = U.box_diagonal()
    if not math.isfinite(diag):
        raise UnsupportedDomainError("domain bounding box is unbounded")
    return diag


def inner_gap(
    U: Domain, X: Domain, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> float:
    """The Euclidean gap between U and the boundary of X.

    Closed form, and exact, for nested polydiscs.  Otherwise a sampled
    estimate: the minimum boundary distance over sampled points of U, times
    a safety factor.  It is not a lower bound; a thin feature of the
    boundary between the samples makes it overstate the gap.  Raises
    InclusionError when the probed gap collapses, because every downstream
    contraction constant would be vacuous.
    """
    if U.dim != X.dim:
        raise ArgumentError("domains must share a dimension")
    if isinstance(U, Polydisc) and isinstance(X, Polydisc):
        gaps = X.radii - U.radii - np.abs(X.centers - U.centers)
        g = float(gaps.min())
        if g <= INCLUSION_FLOOR:
            raise InclusionError(
                f"inclusion is not relatively compact (gap {g:.3e})"
            )
        return g
    # the gap probe is the hot consumer of boundary distances; keep the
    # per-point direction count modest
    Z = sample(U, min(samples, 128), seed)
    inside = X.contains_many(Z)
    if not inside.all():
        escaped = tuple(Z[np.argmin(inside)].tolist())
        raise InclusionError(f"sampled point {escaped} of U escapes X")
    opts = {"directions": 8} if isinstance(X, SemiAnalytic) else {}
    g = GAP_SAFETY * float(X.boundary_distance_many(Z, **opts).min())
    if g <= INCLUSION_FLOOR:
        raise InclusionError(f"probed gap {g:.3e} below tolerance")
    return g


def _first_primes(count: int) -> list:
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


@functools.lru_cache
def _halton_permutations(d: int, seed: int) -> tuple:
    """(base, digit permutations) per coordinate, drawn from one generator
    in order: one shuffled arange(base) per base-b digit that a double can
    resolve, ceil(54 / log2 b) - 1 of them (Owen 2017).  Read-only, since
    every sampler with this (d, seed) shares them."""
    rng = np.random.default_rng(seed)
    out = []
    for b in _first_primes(d):
        perms = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
        for row in perms:
            rng.shuffle(row)
        perms.flags.writeable = False
        out.append((b, perms))
    return tuple(out)


class _Halton:
    """Owen-scrambled Halton points in [0, 1)^d; successive draws continue
    the sequence.  Bitwise equal to scipy.stats.qmc.Halton(d=d, seed=seed),
    whose import costs more than the rest of the package."""

    def __init__(self, d: int, seed: int):
        self._perms = _halton_permutations(d, _count("seed", seed, 0))
        self._drawn = 0

    def random(self, count: int) -> np.ndarray:
        k = np.arange(self._drawn, self._drawn + count)
        self._drawn += count
        out = np.empty((count, len(self._perms)))
        for j, (b, perms) in enumerate(self._perms):
            # the last index has the most digits; once they run out, every
            # digit left is 0 and the term is the same for every point
            q, top, w, x = k, self._drawn - 1, 1.0 / b, np.zeros(count)
            for row, first in zip(perms, perms[:, 0].tolist()):
                if top > 0:
                    q, digit = np.divmod(q, b)
                    top //= b
                    x += row[digit] * w
                else:
                    x += first * w
                w /= b
            out[:, j] = x
        return out


def _row_norms(V: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of V, rounded as np.linalg.norm of one row
    (np.linalg.norm(V, axis=1) rounds differently): each (1, n) @ (n, 1)
    product goes through the same dot as its norm."""
    sq = [np.matmul(P[:, None, :], P[:, :, None])[:, 0, 0] for P in (V.real, V.imag)]
    return np.sqrt(sq[0] + sq[1])


def _sphere_directions(n: int, count: int, seed: int) -> np.ndarray:
    """Deterministic unit directions in C^n (2n real dimensions)."""
    dirs = []
    for j in range(n):
        for w in (1.0, -1.0, 1j, -1j):
            e = np.zeros(n, dtype=complex)
            e[j] = w
            dirs.append(e)
    if len(dirs) < count:
        raw = _Halton(2 * n, seed).random(count - len(dirs))
        # Box-Muller: one standard complex Gaussian per coordinate, so the
        # normalized set is rotation invariant
        u, v = raw[:, 0::2], raw[:, 1::2]
        vec = np.sqrt(-np.log1p(-u)) * np.exp(2j * np.pi * v)
        norms = np.linalg.norm(vec, axis=1)
        norms[norms == 0] = 1.0
        dirs.extend(vec / norms[:, None])
    return np.array(dirs[:count])


def sample(d: Domain, count: int, seed: int = 0) -> np.ndarray:
    """Seeded low-discrepancy points of d, as the rows of a (count, dim)
    complex array, with a near-boundary share.

    Every fourth point is pushed along the ray from an interior anchor until
    its distance to the boundary is about 1% of the box scale, so suprema
    estimated on the sample are not interior-biased.
    """
    count = _count("count", count, 1)
    pts = _interior_sample(d, count, seed)
    delta = NEAR_BOUNDARY_FRACTION * d.box_scale()
    pts[3::4] = _push_to_boundary(d, _anchor_of(d), pts[3::4], delta)
    return pts


def _anchor_of(d: Domain) -> np.ndarray:
    if isinstance(d, Polydisc):
        return d.centers.copy()
    return d.interior_point()


def _interior_sample(d: Domain, count: int, seed: int) -> np.ndarray:
    """A (count, dim) array of seeded points of d."""
    eng = _Halton(2 * d.dim, seed)
    if isinstance(d, Polydisc):
        raw = eng.random(count)
        u, v = raw[:, 0::2], raw[:, 1::2]
        return d.centers + d.radii * np.sqrt(u) * np.exp(1j * (2 * math.pi * v))
    b = d.box()
    lo = np.concatenate([b[:, 0], b[:, 2]])
    hi = np.concatenate([b[:, 1], b[:, 3]])
    out = []
    attempts = 0
    cap = max(20000, 400 * count)
    while len(out) < count:
        scaled = eng.random(256) * (hi - lo) + lo
        batch = scaled[:, : d.dim] + 1j * scaled[:, d.dim :]
        hits = np.flatnonzero(d.contains_many(batch))[: count - len(out)]
        out.extend(batch[hits])
        # attempts count the rows tested up to the last point taken
        attempts += hits[-1] + 1 if len(out) == count else len(batch)
        if attempts > cap:
            raise SamplingExhaustedError(
                f"could not find {count} points in {attempts} attempts"
            )
    return np.array(out)


def _push_to_boundary(
    d: Domain, anchor: np.ndarray, Z: np.ndarray, delta: float
) -> np.ndarray:
    """Rows of Z moved out along their rays from anchor to within about
    delta of the boundary; a row stays put if its candidate leaves d."""
    W = Z - anchor
    norms = _row_norms(W)
    moving = np.flatnonzero(norms >= 1e-12)
    W, norms = W[moving], norms[moving]
    if isinstance(d, Polydisc):
        offs = np.abs(anchor - d.centers)
        # conservative per-coordinate exit: t such that offs_j + t|w_j| = rho_j
        with np.errstate(divide="ignore"):
            exits = np.where(np.abs(W) > 0, (d.radii - offs) / np.abs(W), np.inf)
        t_exit = exits.min(axis=1)
    else:
        # _ray_exit measures length along the unit direction; cand is
        # parametrized by t in units of w
        t_exit = d._ray_exit(anchor, W / norms[:, None]) / norms
    t = np.maximum(0.5 * t_exit, t_exit - delta / norms)
    cand = anchor + t[:, None] * W
    out = Z.copy()
    ok = d.contains_many(cand)
    out[moving[ok]] = cand[ok]
    return out


__all__ = [
    "Point",
    "Domain",
    "Disk",
    "Polydisc",
    "SemiAnalytic",
    "unit_disk",
    "as_vector",
    "contains",
    "boundary_distance",
    "diameter_bound",
    "inner_gap",
    "sample",
    "domain_from_json",
    "DEFAULT_SAMPLES",
]
