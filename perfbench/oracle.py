"""Closed forms computed apart from hypermetric, used to check its outputs.

Nothing here imports the package under test: the checks hold against the
textbook formulas, not against another code path of the same library.
"""

import math

import numpy as np

# Absolute slack for rounding in closed-form comparisons.  It is far below
# every error a check is meant to catch (1e-4 path accuracy, the 5e-4
# Kobayashi undershoot, the 0.49 certificate gap excess).
SLACK = 1e-9


def poincare(z, w):
    """Poincaré distance atanh |(z - w) / (1 - conj(w) z)| on the unit disk."""
    return math.atanh(abs((z - w) / (1 - w.conjugate() * z)))


def polydisc_distance(a, b, radii):
    """Carathéodory = Kobayashi distance of a centred polydisc: max_j of Poincaré."""
    return max(poincare(x / r, y / r) for x, y, r in zip(a, b, radii))


def polydisc_metric(z, v, radii):
    """Carathéodory = Kobayashi metric of a centred polydisc: max_j r|v_j|/(r^2 - |z_j|^2)."""
    return max(r * abs(w) / (r * r - abs(x) ** 2) for x, w, r in zip(z, v, radii))


def disk_gap(outer_radius, centre, radius):
    """Gap between Disk(centre, radius) and the circle |z| = outer_radius."""
    return outer_radius - abs(centre) - radius


def holed_disk_gap(centre, radius, hole_centre, hole_radius):
    """Gap between Disk(centre, radius) and the boundary of the unit disk minus a hole."""
    return min(
        disk_gap(1.0, centre, radius),
        abs(hole_centre - centre) - hole_radius - radius,
    )


def polydisc_diameter(radii):
    """Euclidean diameter of a polydisc: 2 ||radii||_2."""
    return 2.0 * math.sqrt(sum(r * r for r in radii))


def moebius_fixed_point(b, r, a):
    """The fixed point in the unit disk of f(z) = b + r (z - a) / (1 - conj(a) z).

    f = p/q with p = b q + r (z - a) and q = 1 - conj(a) z; the fixed points
    are the roots of p(z) - z q(z), taken with numpy.roots.
    """
    P = np.polynomial.Polynomial
    q = P([1.0, -a.conjugate()])
    p = b * q + r * P([-a, 1.0])
    roots = np.roots((p - P([0.0, 1.0]) * q).coef[::-1])
    inside = [complex(z) for z in roots if abs(z) < 1]
    if len(inside) != 1:
        raise ValueError(f"expected one fixed point in the disk, got {inside}")
    return inside[0]
