"""Contraction constants for relatively compact inclusions U in X.

Two routes with different rigor:

* tanh of the invariant diameter of U inside X.  Rigorous only when the
  diameter is exact (nested polydiscs); a sampled diameter is a lower
  bound, so the resulting constant may be understated and the certificate
  is flagged heuristic.
* the gap dilation 1 / (1 + r/R) from a Euclidean diameter upper bound R
  and boundary-gap lower bound r.  Rigorous only when r is proven, which is
  when U and X are both polydiscs; otherwise r is a sampled infimum that may
  overstate the gap, and the certificate is flagged heuristic.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .domains import (
    DEFAULT_SAMPLES,
    Domain,
    Polydisc,
    _raise_outside,
    _sphere_directions,
    diameter_bound,
    inner_gap,
    sample,
)
from .errors import ArgumentError
from .holomap import Const, HoloMap, add, mul, sub
from .metrics import (
    DEFAULT_DIRECTIONS,
    Bound,
    EXACT,
    LOWER,
    _disk_images,
    _poincare,
    metric_field,
)

TANH_DIAMETER = "tanh_diameter"
DILATION = "dilation"

HOLDS = "holds"
INCONCLUSIVE = "inconclusive"
VIOLATED = "violated"

DEFAULT_VERIFY_SAMPLES = 256


@dataclasses.dataclass(frozen=True)
class ContractionCertificate:
    """A constant k < 1 with the ingredients that produced it."""

    k: float
    method: str
    rigorous: bool
    M: Optional[Bound] = None
    R: Optional[float] = None
    r: Optional[float] = None
    X: Optional[Domain] = None
    U: Optional[Domain] = None

    def __post_init__(self):
        if not (0 <= self.k < 1):
            raise ArgumentError(f"contraction constant must be in [0, 1), got {self.k}")

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "method": self.method,
            "rigorous": self.rigorous,
            "M": self.M.value if self.M is not None else None,
            "R": self.R,
            "r": self.r,
        }


def caratheodory_diameter(
    X: Domain,
    U: Domain,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> Bound:
    """Diameter of U for the Carathéodory pseudodistance of X.

    Exact for nested polydiscs: in coordinate j, U's disk is the disk of
    centre c_j and radius rho_j of X's unit disk, whose Poincaré diameter is
    artanh(2 rho_j / (1 - |c_j|^2 + rho_j^2)), taken between the points
    nearest to and farthest from X's centre.  Otherwise a lower bound, equal
    to the max of caratheodory_distance over the ordered pairs of sampled
    boundary-biased points of U: all pairs of one image column at a time.
    """
    inner_gap(U, X, samples=samples, seed=seed)  # probes relative compactness
    if isinstance(X, Polydisc) and isinstance(U, Polydisc):
        c = np.abs(U.centers - X.centers) / X.radii
        rho = U.radii / X.radii
        return Bound(float(np.arctanh(2 * rho / (1 - c**2 + rho**2)).max()), EXACT)
    Z = np.concatenate([sample(U, samples, seed), _extremal_probes(U, seed)])
    best = 0.0
    for w in _disk_images(X, Z, DEFAULT_DIRECTIONS, 0).T:
        best = max(best, float(_poincare(w[:, None], w[None, :]).max(initial=0.0)))
    return Bound(best, LOWER)


def _extremal_probes(U: Domain, seed: int, backoff: float = 1e-3) -> np.ndarray:
    """Near-boundary antipodal pairs in U, as the rows of a (k, dim) array,
    so sampled suprema are nearly sharp."""
    if not isinstance(U, Polydisc):
        return np.empty((0, U.dim), dtype=complex)
    dirs = _sphere_directions(U.dim, 4 * U.dim + 8, seed)
    size = np.abs(dirs)
    scale = np.where(size > 0, U.radii / np.maximum(size, 1e-300), np.inf).min(axis=1)
    step = dirs * (scale - backoff * U.box_scale())[:, None]
    pairs = np.stack([U.centers + step, U.centers - step], axis=1)  # (k, 2, n)
    keep = U.contains_many(pairs.reshape(-1, U.dim)).reshape(-1, 2).all(axis=1)
    return pairs[keep].reshape(-1, U.dim)


def tanh_diameter_constant(
    M: Bound, X: Optional[Domain] = None, U: Optional[Domain] = None
) -> ContractionCertificate:
    """k = tanh of the invariant diameter; heuristic unless the diameter is exact."""
    if not (math.isfinite(M.value) and M.value >= 0):
        raise ArgumentError("diameter must be finite and nonnegative")
    return ContractionCertificate(
        k=math.tanh(M.value),
        method=TANH_DIAMETER,
        rigorous=(M.kind == EXACT),
        M=M,
        X=X,
        U=U,
    )


def dilation_constant(
    R: float, r: float, X: Optional[Domain] = None, U: Optional[Domain] = None
) -> ContractionCertificate:
    """k = R / (R + r); rigorous when R is an upper and r a lower bound."""
    if not (R > 0 and r > 0):
        raise ArgumentError("R and r must be strictly positive")
    return ContractionCertificate(
        k=R / (R + r), method=DILATION, rigorous=True, R=R, r=r, X=X, U=U
    )


def certificate_for(
    X: Domain,
    U: Domain,
    method: str = DILATION,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> ContractionCertificate:
    """Build a contraction certificate for the inclusion U in X."""
    if method == DILATION:
        R = diameter_bound(U)
        r = inner_gap(U, X, samples=samples, seed=seed)
        cert = dilation_constant(R, r, X=X, U=U)
        if not (isinstance(X, Polydisc) and isinstance(U, Polydisc)):
            # inner_gap samples the gap unless both are polydiscs
            cert = dataclasses.replace(cert, rigorous=False)
        return cert
    if method == TANH_DIAMETER:
        M = caratheodory_diameter(X, U, samples=samples, seed=seed)
        return tanh_diameter_constant(M, X=X, U=U)
    raise ArgumentError(f"unknown certificate method {method!r}")


def dilate_disk(phi: HoloMap, r: float, R: float) -> HoloMap:
    """Enlarge an analytic disk about its center: (1 + r/R)(phi - phi(0)) + phi(0)."""
    if phi.n != 1:
        raise ArgumentError("dilate_disk expects a map from the unit disk")
    if not (R > 0 and r > 0):
        raise ArgumentError("R and r must be strictly positive")
    factor = 1.0 + r / R
    origin = np.zeros(1, dtype=complex)
    c0 = phi.eval_array(origin)
    comps = []
    for expr, c in zip(phi.components, c0):
        comps.append(add(mul(Const(factor), sub(expr, Const(complex(c)))), Const(complex(c))))
    return HoloMap(1, tuple(comps))


@dataclasses.dataclass(frozen=True)
class SampleVerdict:
    point: tuple
    vector: tuple
    outer: Bound
    inner: Bound
    verdict: str
    ratio: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    verdict: str
    k: float
    metric: str
    n_holds: int
    n_inconclusive: int
    n_violated: int
    max_ratio: Optional[float]
    argmax_point: Optional[tuple]
    samples: tuple

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "k": self.k,
            "metric": self.metric,
            "holds": self.n_holds,
            "inconclusive": self.n_inconclusive,
            "violated": self.n_violated,
            "max_ratio": self.max_ratio,
        }


def verify_metric_contraction(
    X: Domain,
    U: Domain,
    k: float,
    metric: str = "caratheodory",
    samples: int = DEFAULT_VERIFY_SAMPLES,
    seed: int = 0,
    tol: float = 1e-9,
) -> VerificationReport:
    """Check E_X(x, v) <= k E_U(x, v) at sampled (x, v) with x in U.

    One metric_field eval per side covers every sample, tagged as the
    pointwise metrics tag one.  With exact values on both sides, verdicts
    are definitive; with bounds, a failed conservative comparison is
    inconclusive, never a violation.
    """
    if not (0 < k < 1):
        raise ArgumentError("k must be in (0, 1)")
    field_X, field_U = metric_field(X, metric), metric_field(U, metric)
    Z = sample(U, samples, seed)
    if isinstance(U, Polydisc):
        # the analytic worst case sits at the center
        Z = np.concatenate([U.centers[None], Z])
    _raise_outside(X, Z, ~X.contains_many(Z))
    dirs = _sphere_directions(U.dim, 4 * U.dim + 8, seed + 1)
    V = dirs[np.arange(len(Z)) % len(dirs)]
    rows = zip(map(tuple, Z.tolist()), V, field_X.eval(Z, V).tolist(), field_U.eval(Z, V).tolist())
    n_h = n_i = n_v = 0
    max_ratio = None
    argmax = None
    records = []
    for x, v, value_X, value_U in rows:
        outer, inner = field_X.bound(value_X), field_U.bound(value_U)
        exact_pair = outer.kind == EXACT and inner.kind == EXACT
        ratio = None
        if exact_pair and inner.value > 0:
            ratio = outer.value / inner.value
            if max_ratio is None or ratio > max_ratio:
                max_ratio = ratio
                argmax = x
        up = outer.upper_value()
        lo = inner.lower_value()
        if up is not None and lo is not None and up <= k * lo + tol:
            verdict = HOLDS
            n_h += 1
        elif exact_pair:
            verdict = VIOLATED
            n_v += 1
        else:
            verdict = INCONCLUSIVE
            n_i += 1
        records.append(
            SampleVerdict(x, tuple(v), outer, inner, verdict, ratio)
        )
    overall = HOLDS if n_v == 0 and n_i == 0 else (VIOLATED if n_v else INCONCLUSIVE)
    return VerificationReport(
        verdict=overall,
        k=k,
        metric=metric,
        n_holds=n_h,
        n_inconclusive=n_i,
        n_violated=n_v,
        max_ratio=max_ratio,
        argmax_point=argmax,
        samples=tuple(records),
    )


__all__ = [
    "ContractionCertificate",
    "VerificationReport",
    "SampleVerdict",
    "caratheodory_diameter",
    "tanh_diameter_constant",
    "dilation_constant",
    "certificate_for",
    "dilate_disk",
    "verify_metric_contraction",
    "TANH_DIAMETER",
    "DILATION",
    "HOLDS",
    "INCONCLUSIVE",
    "VIOLATED",
]
