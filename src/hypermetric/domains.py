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
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    InclusionError,
    MembershipError,
    SamplingExhaustedError,
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
# march steps per box diagonal in SemiAnalytic._ray_exit
_RAY_STEPS = 64


def _finite_complex(values) -> tuple:
    out = []
    for c in values:
        c = complex(c)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ArgumentError("coordinates must be finite")
        out.append(c)
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class Point:
    """A point of C^n, n >= 1."""

    coords: tuple

    def __init__(self, coords):
        if isinstance(coords, (int, float, complex)):
            coords = (coords,)
        coords = _finite_complex(coords)
        if len(coords) < 1:
            raise ArgumentError("a point needs at least one coordinate")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.array(self.coords, dtype=complex)


@dataclasses.dataclass(frozen=True)
class TangentVector:
    """A complex direction attached to a base point."""

    base: Point
    dir: tuple

    def __init__(self, base, dir):
        base = as_point(base)
        if isinstance(dir, (int, float, complex)):
            dir = (dir,)
        dir = _finite_complex(dir)
        if len(dir) != base.dim:
            raise ArgumentError("tangent vector dimension mismatch")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "dir", dir)

    def dir_array(self) -> np.ndarray:
        return np.array(self.dir, dtype=complex)


def as_point(p) -> Point:
    if isinstance(p, Point):
        return p
    return Point(p)


def as_vector(v, n: int) -> np.ndarray:
    if isinstance(v, TangentVector):
        v = v.dir
    if isinstance(v, (int, float, complex)):
        v = (v,)
    arr = np.array(_finite_complex(v), dtype=complex)
    if arr.shape != (n,):
        raise ArgumentError(f"vector must have {n} components")
    return arr


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

    def _check_point(self, p) -> Point:
        p = as_point(p)
        if p.dim != self.dim:
            raise ArgumentError(
                f"point has dimension {p.dim}, domain has dimension {self.dim}"
            )
        return p

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
        self.centers = np.array(_finite_complex(centers), dtype=complex)
        self.radii = np.array([float(r) for r in radii], dtype=float)
        if self.centers.shape != self.radii.shape or self.centers.size < 1:
            raise ArgumentError("centers and radii must have equal positive length")
        if not np.all(self.radii > 0):
            raise ArgumentError("radii must be strictly positive")
        self.dim = self.centers.size

    def __repr__(self):
        return f"Polydisc(centers={list(self.centers)}, radii={list(self.radii)})"

    def contains(self, p) -> bool:
        return bool(self.contains_many(self._check_point(p).as_array()[None])[0])

    def contains_many(self, Z) -> np.ndarray:
        Z = self._check_rows(Z)
        return np.all(np.abs(Z - self.centers) < self.radii, axis=1)

    def boundary_distance(self, p) -> float:
        return float(self.boundary_distance_many(self._check_point(p).as_array()[None])[0])

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
        return bool(self.contains_many(self._check_point(p).as_array()[None])[0])

    def contains_many(self, Z) -> np.ndarray:
        """Box test first; each constraint is evaluated only on the rows that
        passed the box and the constraints before it."""
        Z = self._check_rows(Z)
        b = self._box
        inside = np.all(
            (Z.real > b[:, 0]) & (Z.real < b[:, 1])
            & (Z.imag > b[:, 2]) & (Z.imag < b[:, 3]),
            axis=1,
        )
        for g, t in self.constraints:
            rows = np.flatnonzero(inside)
            w = g.eval_array(Z[rows].T)[0]
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

    def _ray_exit(self, z: np.ndarray, U: np.ndarray) -> np.ndarray:
        """Distance along each unit direction (row of U) at which membership
        first fails: a march in steps of box_diagonal/_RAY_STEPS, then 30
        bisection steps taken by all exiting rays together.  The origin z is
        one point (n,) shared by every ray, or one row per ray (len(U), n)."""
        t_max = self.box_diagonal()
        step = t_max / _RAY_STEPS
        # cumsum adds step by step, as a running t += step would
        ts = np.cumsum(np.full(_RAY_STEPS + 2, step))
        ts = ts[ts <= t_max + step]
        march = z[..., None, :] + ts[None, :, None] * U[:, None, :]
        out = ~self.contains_many(march.reshape(-1, self.dim)).reshape(len(U), len(ts))
        exits = np.full(len(U), t_max)
        rays = np.flatnonzero(out.any(axis=1))
        first = out[rays].argmax(axis=1)
        lo = np.where(first > 0, ts[first - 1], 0.0)
        hi = ts[first]
        origins = np.broadcast_to(z, U.shape)[rays]
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            ok = self.contains_many(origins + mid[:, None] * U[rays])
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
        exits[rays] = lo
        return exits

    def boundary_distance(self, p, directions: int = 32) -> float:
        row = self._check_point(p).as_array()[None]
        return float(self.boundary_distance_many(row, directions)[0])

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
        # blocks of points keep each march to _BLOCK_POINTS membership tests
        step = max(1, _BLOCK_POINTS // (len(U) * (_RAY_STEPS + 2)))
        rays = np.empty(len(Z))
        for start in range(0, len(Z), step):
            z = Z[start : start + step]
            exits = self._ray_exit(np.repeat(z, len(U), axis=0), np.tile(U, (len(z), 1)))
            rays[start : start + step] = exits.reshape(len(z), len(U)).min(axis=1)
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


def _raise_outside(d: Domain, Z: np.ndarray, outside: np.ndarray) -> None:
    if outside.any():
        z = tuple(complex(c) for c in Z[np.argmax(outside)])
        raise MembershipError(f"point {z} is not in {d!r}")


def domain_from_json(data: dict) -> Domain:
    kind = data.get("kind")
    if kind == "disk":
        (c,) = data["centers"]
        (r,) = data["radii"]
        return Disk(complex(c[0], c[1]), r)
    if kind == "polydisc":
        centers = [complex(c[0], c[1]) for c in data["centers"]]
        return Polydisc(centers, data["radii"])
    if kind == "semianalytic":
        from .holomap import parse

        constraints = [
            (parse(c["map"], c.get("dim", len(data["box"]))), c["threshold"])
            for c in data["constraints"]
        ]
        return SemiAnalytic(constraints, data["box"])
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
    pts = sample(U, min(samples, 128), seed)
    Z = np.array([p.as_array() for p in pts])
    inside = X.contains_many(Z)
    if not inside.all():
        escaped = pts[np.argmin(inside)]
        raise InclusionError(f"sampled point {escaped.coords} of U escapes X")
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
        self._perms = _halton_permutations(d, seed)
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
        # inverse-normal pushforward gives a rotation-invariant direction set
        from scipy.special import ndtri

        g = ndtri(np.clip(raw, 1e-12, 1 - 1e-12))
        vec = g[:, :n] + 1j * g[:, n:]
        norms = np.linalg.norm(vec, axis=1)
        norms[norms == 0] = 1.0
        dirs.extend(vec / norms[:, None])
    return np.array(dirs[:count])


def sample(d: Domain, count: int, seed: int = 0) -> list:
    """Seeded low-discrepancy points of d, with a near-boundary share.

    Every fourth point is pushed along the ray from an interior anchor until
    its distance to the boundary is about 1% of the box scale, so suprema
    estimated on the sample are not interior-biased.
    """
    if count < 1:
        raise ArgumentError("count must be >= 1")
    pts = _interior_sample(d, count, seed)
    delta = NEAR_BOUNDARY_FRACTION * d.box_scale()
    pts[3::4] = _push_to_boundary(d, _anchor_of(d), pts[3::4], delta)
    return [Point(z) for z in pts]


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
    # row by row: np.linalg.norm(W, axis=1) rounds differently
    norms = np.array([np.linalg.norm(w) for w in W])
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
    "TangentVector",
    "Domain",
    "Disk",
    "Polydisc",
    "SemiAnalytic",
    "unit_disk",
    "as_point",
    "as_vector",
    "contains",
    "boundary_distance",
    "diameter_bound",
    "inner_gap",
    "sample",
    "domain_from_json",
    "DEFAULT_SAMPLES",
]
