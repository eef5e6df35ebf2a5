"""Path-length quadrature kernel on polydiscs (numpy).

Given polyline vertices in a polydisc and quadrature nodes/weights on
[0, 1], the kernel returns the metric length of each polyline, or -1.0 if
any quadrature node leaves the polydisc (nonpositive denominator).

`polyline_lengths` takes a (B, m, n) stack of polylines, so the numpy
overhead is paid once per stack rather than once per polyline;
`polyline_length` is the single-polyline form of the same computation.
Each row's length depends on that row only: a sub-stack gives bitwise the
same lengths as the full stack at those rows.  The node arrays are laid out
(B, m-1, n, q), nodes innermost, so the centres, the radii and |seg|
broadcast over inner loops of q nodes rather than of n = 1 or 2
coordinates.  The max over coordinates is taken elementwise, one
`np.maximum` per coordinate on contiguous (B, m-1, q) slices, which picks
the same values as a reduction over the coordinate axis and avoids its slow
strided loop.
"""

import numpy as np


def polyline_lengths(stack, centers, radii, nodes, weights):
    """Lengths of a (B, m, n) stack of polylines; -1.0 where a polyline escapes."""
    stack = np.asarray(stack, dtype=complex)
    centers = np.asarray(centers, dtype=complex)
    radii = np.asarray(radii, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)

    seg = stack[:, 1:] - stack[:, :-1]  # (B, m-1, n)
    # quadrature nodes z = start + t·seg, then z - c, in place
    z = nodes * seg[..., None]  # (B, m-1, n, q)
    z += stack[:, :-1, :, None]
    z -= centers[:, None]
    den = np.abs(z)
    np.multiply(den, den, out=den)
    np.subtract((radii**2)[:, None], den, out=den)  # r² - |z - c|²
    # one reduction tells whether any node escapes; rows are tested only then
    escaped = np.any(den <= 0.0, axis=(1, 2, 3)) if den.min(initial=np.inf) <= 0.0 else None
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.divide((radii * np.abs(seg))[..., None], den, out=den)
    e = val[:, :, 0].copy()  # (B, m-1, q)
    for j in range(1, val.shape[2]):
        np.maximum(e, val[:, :, j], out=e)
    out = (e @ weights).sum(axis=1)
    if escaped is not None:
        out[escaped] = -1.0
    return out


def polyline_length(verts, centers, radii, nodes, weights):
    """Length of one (m, n) polyline; 0.0 below two vertices, -1.0 on escape."""
    verts = np.asarray(verts, dtype=complex)
    if verts.ndim != 2 or verts.shape[0] < 2:
        return 0.0
    return float(polyline_lengths(verts[None], centers, radii, nodes, weights)[0])
