"""Picard iteration with certified geometric error bounds.

For a holomorphic self-map whose image is relatively compact, the iterates
contract at rate k in the integrated invariant distance, so the distance
from the n-th iterate to the fixed point is at most k^n / (1 - k) times the
first-step distance.  The stopping rule uses either that certified tail
(when per-step invariant distances are enabled) or a Euclidean step
surrogate tol * (1 - k) / k, both conservative under the recorded k.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from typing import Callable, List, Optional

import numpy as np

from .contraction import (
    DILATION,
    ContractionCertificate,
    certificate_for,
)
from .domains import DEFAULT_SAMPLES, Domain, Point, Polydisc, _count, _rows_in
from .errors import (
    ArgumentError,
    ConfigurationError,
    NonConvergenceError,
    PreconditionError,
    RangeError,
)
from .holomap import SUPPORTED, HoloMap, RangeEvidence, range_check
from .metrics import (
    Bound,
    UPPER,
    caratheodory_distance,
    integrated_distance,
    metric_field,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000

CONSISTENT = "consistent"
INCONCLUSIVE = "inconclusive"


def invariant_distance_upper(X: Domain, a, b, seed: int = 0) -> Bound:
    """Upper bound on the integrated invariant distance of a, b in X.

    Exact closed form on polydiscs (where the integrated Carathéodory and
    Kobayashi distances coincide with the coordinate maximum of Poincaré
    distances); an optimized Kobayashi polyline bound otherwise.
    """
    if isinstance(X, Polydisc):
        d = caratheodory_distance(X, a, b)
        return Bound(d.value, UPPER, tol=d.tol)
    field = metric_field(X, "kobayashi")
    return integrated_distance(field, X, a, b, seed=seed)


@dataclasses.dataclass(frozen=True, eq=False)
class IterationTrace:
    """The full Picard history with the certificate that bounds its decay.

    points holds the iterates x_0, ..., x_m as the rows of a read-only
    (m + 1, n) complex array; the trace compares by identity.
    """

    points: np.ndarray
    step_euclid: tuple
    certificate: ContractionCertificate
    d0: Optional[Bound] = None
    step_invariant: Optional[tuple] = None

    def __len__(self):
        return len(self.points)


@dataclasses.dataclass(frozen=True)
class FixedPointResult:
    c: Point
    residual: float
    iterations: int
    certificate: ContractionCertificate
    certified_tail: float
    trace: IterationTrace
    range_evidence: Optional[RangeEvidence]
    stop_rule: str

    def to_json(self) -> dict:
        return {
            "fixed_point": [[z.real, z.imag] for z in self.c.coords],
            "residual": self.residual,
            "iterations": self.iterations,
            "certificate": self.certificate.to_json(),
            "certified_tail": self.certified_tail,
            "stop_rule": self.stop_rule,
            "range_evidence": (
                self.range_evidence.to_json() if self.range_evidence else None
            ),
        }


def certify_tail(trace: IterationTrace, n: int) -> float:
    """k^n / (1 - k) times the first-step distance bound: a valid tail bound."""
    if len(trace.points) == 0:
        raise ConfigurationError("trace is empty")
    if trace.d0 is None:
        raise ConfigurationError("trace has no first-step invariant distance bound")
    k = trace.certificate.k
    return k**n / (1.0 - k) * trace.d0.value


def picard_solve(
    f: HoloMap,
    X: Domain,
    U: Domain,
    x0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    certificate: Optional[ContractionCertificate] = None,
    method: str = DILATION,
    step_invariant: bool = False,
    override_range: bool = False,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> FixedPointResult:
    """Iterate x <- f(x) to the unique fixed point, with certified tail bounds.

    Preconditions: f maps X into U with supported range evidence (or an
    explicit override), x0 lies in X, and a contraction certificate for the
    inclusion U in X is obtainable.

    Raises ArgumentError if f is not a self-map of X, x0 is not X.dim
    finite coordinates, max_iter is not an integer >= 0 or tol is negative
    or NaN (tol = 0 runs to max_iter), MembershipError
    if x0 is not in X, RangeError if the range evidence is not supported and
    not overridden, PreconditionError if an iterate leaves U, and
    NonConvergenceError, carrying the trace, if the stopping rule has not
    fired within max_iter steps.
    """
    if f.n != X.dim or f.m != X.dim:
        raise ArgumentError("picard_solve needs a self-map of X")
    max_iter = _count("max_iter", max_iter, 0)
    if not tol >= 0:
        raise ArgumentError(f"tol must be a number >= 0, got {tol!r}")
    x0 = _rows_in(X, x0)[0]
    evidence = range_check(f, X, U, samples=samples, seed=seed)
    if evidence.verdict != SUPPORTED and not override_range:
        raise RangeError(
            f"range evidence for f(X) in U is {evidence.verdict}; "
            "pass override_range=True to proceed anyway"
        )
    if certificate is None:
        certificate = certificate_for(X, U, method=method, samples=samples, seed=seed)
    k = certificate.k

    rows: List[np.ndarray] = [x0]
    steps: List[float] = []
    # d_0, and with step_invariant every later d_n
    dists: List[Bound] = []
    step_floor = tol * (1.0 - k) / k if k > 0 else tol
    stop_rule = ""
    for it in range(max_iter):
        cur = rows[-1]
        nxt = f.eval_array(cur)
        # a non-finite iterate is outside U too
        if not U.contains_many(nxt[None])[0]:
            raise PreconditionError(
                f"iterate {it + 1} left U; the range evidence was too optimistic"
            )
        rows.append(nxt)
        steps.append(float(np.linalg.norm(nxt - cur)))
        if step_invariant or it == 0:
            dists.append(invariant_distance_upper(X, cur, nxt, seed=seed))
        if step_invariant:
            if dists[-1].value * k / (1.0 - k) < tol:
                stop_rule = "certified invariant tail below tol"
                break
        elif steps[-1] < step_floor:
            stop_rule = "euclidean step below tol*(1-k)/k surrogate"
            break

    points = np.array(rows)
    points.flags.writeable = False
    trace = IterationTrace(
        points=points,
        step_euclid=tuple(steps),
        certificate=certificate,
        d0=dists[0] if dists else None,
        step_invariant=tuple(dists) if step_invariant else None,
    )
    if not stop_rule:
        raise NonConvergenceError(
            f"no convergence within {max_iter} iterations", trace=trace
        )
    residual = float(np.linalg.norm(f.eval_array(points[-1]) - points[-1]))
    n = len(points) - 1
    if override_range and evidence.verdict != SUPPORTED:
        stop_rule += " (range evidence overridden)"
    return FixedPointResult(
        c=Point(points[-1]),
        residual=residual,
        iterations=n,
        certificate=certificate,
        certified_tail=certify_tail(trace, n),
        trace=trace,
        range_evidence=evidence,
        stop_rule=stop_rule,
    )


@dataclasses.dataclass(frozen=True)
class DecayReport:
    """Per-step comparison of invariant step distances against k^n decay."""

    verdict: str
    k: float
    distances: tuple  # Bound per consecutive pair
    ratios: tuple  # empirical d_{n+1} / d_n where defined
    flags: tuple  # consistent / inconclusive per step

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "k": self.k,
            "distances": [b.value for b in self.distances],
            "ratios": list(self.ratios),
            "flags": list(self.flags),
        }


def verify_decay(
    trace: IterationTrace,
    k: float,
    distance: Optional[Callable] = None,
    rel_slack: float = 1e-6,
    abs_slack: float = 1e-12,
) -> DecayReport:
    """Check d_n <= k^n d_0 over the trace, comparing upper bounds both sides.

    Both sides of the comparison are upper bounds, so a failed check is
    inconclusive rather than a violation.  distance(a, b) is called on
    consecutive rows of trace.points.
    """
    if len(trace.points) < 3:
        raise ArgumentError("verify_decay needs a trace with at least 3 points")
    if distance is None:
        X = trace.certificate.X
        if X is None:
            raise ConfigurationError("no distance evaluator and no domain on record")
        distance = lambda a, b: invariant_distance_upper(X, a, b)  # noqa: E731
    ds = [distance(a, b) for a, b in zip(trace.points, trace.points[1:])]
    d0 = ds[0].value
    flags = []
    ratios = []
    for n, dn in enumerate(ds):
        budget = (k**n) * d0 * (1.0 + rel_slack) + abs_slack
        flags.append(CONSISTENT if dn.value <= budget else INCONCLUSIVE)
        if n + 1 < len(ds) and dn.value > 0:
            ratios.append(ds[n + 1].value / dn.value)
    verdict = CONSISTENT if all(fl == CONSISTENT for fl in flags) else INCONCLUSIVE
    return DecayReport(
        verdict=verdict,
        k=k,
        distances=tuple(ds),
        ratios=tuple(ratios),
        flags=tuple(flags),
    )


def trace_to_csv(trace: IterationTrace, path: str) -> None:
    """Write iter, per-coordinate re/im, Euclidean step, certified tail."""
    n = trace.points.shape[1]
    header = ["iter"]
    for j in range(n):
        header += [f"re{j}", f"im{j}"]
    header += ["step_euclid", "certified_tail"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, p in enumerate(trace.points):
            row = [str(i)]
            for z in p.tolist():
                row += [f"{z.real:.17g}", f"{z.imag:.17g}"]
            step = trace.step_euclid[i - 1] if i >= 1 else 0.0
            try:
                tail = certify_tail(trace, i)
            except ConfigurationError:
                tail = math.nan
            row += [f"{step:.17g}", f"{tail:.17g}"]
            writer.writerow(row)


__all__ = [
    "IterationTrace",
    "FixedPointResult",
    "DecayReport",
    "picard_solve",
    "certify_tail",
    "verify_decay",
    "invariant_distance_upper",
    "trace_to_csv",
    "CONSISTENT",
    "INCONCLUSIVE",
]
