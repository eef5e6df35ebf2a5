"""The four workloads: seeded inputs, one round of operations, and their checks.

Each workload is a function (hm, seed) -> list of Op, where hm is the
imported hypermetric package.  A call builds fresh inputs (domains, maps,
metric fields) for one round, so no round starts with caches that another
filled; the same seed gives the same inputs in every round and every run.
An operation is one user-level query.  Its output is a plain tuple, so the
traced and untraced runs can be compared bitwise through repr().
"""

import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
from typing import Callable, Optional

import numpy as np

import oracle
from oracle import SLACK


@dataclasses.dataclass
class Op:
    name: str
    run: Callable[[], tuple]
    # returns None when the output is right, else the reason it is wrong
    check: Callable[[tuple], Optional[str]]
    # for an operation that a known fault of the program makes fail on every
    # seed: returns a description of that fault when the output shows exactly
    # it, else None, so that any other failure still counts as unexpected
    fault: Optional[Callable[[tuple], Optional[str]]] = None
    # closed-form value of a path solve, for path_excess
    truth: Optional[float] = None
    # the same query through cli.main in this process (cli_cold only)
    run_inprocess: Optional[Callable[[], tuple]] = None


def _bound(b):
    return (b.value, b.kind, b.tol)


# ---------------------------------------------------------------------------
# polydisc_paths

# sample(unit_disk(), 7, seed=1): the grid of acceptance criterion 1, frozen
# here so that a change to the package's sampling does not change the inputs.
DISK_GRID = (
    -0.18104889496236842 - 0.3481558816470283j,
    -0.4348049499254179 + 0.6818620650929842j,
    0.634986144204641 + 0.027996731249151804j,
    0.7777418599957387 - 0.5962529657874822j,
    -0.15727926023583325 - 0.06522618026669492j,
    0.09462500320251009 + 0.7211361376754317j,
    0.1145435550071975 - 0.5156267974987602j,
)
# sample(Polydisc([0, 0], [1, 1]), 4, seed=1), frozen likewise.  The pair
# (2, 3) is where the descent stalls (excess about 0.29).
BIDISC_POINTS = (
    (-0.18104889496236842 - 0.3481558816470283j, -0.34261637783363097 - 0.24278096048468853j),
    (-0.4348049499254179 + 0.6818620650929842j, -0.2900854513075701 + 0.7015547078264024j),
    (0.634986144204641 + 0.027996731249151804j, 0.6566185495067404 - 0.5875207720390572j),
    (0.7802770163601614 - 0.5981965341856527j, -0.6094660058211532 + 0.17599228064437167j),
)


def _reflect(z, k):
    """z, conj z, -conj z or -z: the reflections that keep the real and
    imaginary axes, along which the descent takes its coordinate steps."""
    if k & 1:
        z = z.conjugate()
    return -z if k & 2 else z


def _path(hm, field, domain, a, b):
    return _bound(hm.integrated_distance(field, domain, a, b))


def _check_path(truth, within, out):
    value, kind, tol = out
    if kind != "upper":
        return f"kind {kind!r}, expected 'upper'"
    if value < truth - tol - SLACK:
        return f"value {value!r} below the closed form {truth!r} by more than tol {tol!r}"
    if within is not None and abs(value - truth) > within:
        return f"value {value!r} is {abs(value - truth):.3g} from the closed form {truth!r}"
    return None


def polydisc_paths(hm, seed):
    """Integrated distances on the unit disk and on the unit bidisc.

    The seed picks one axis-preserving reflection per coordinate, so every
    seed solves a mirror image of the same problems and the cost does not
    depend on the draw.
    """
    rng = np.random.default_rng([seed, 1])
    k_disk = int(rng.integers(4))
    k_bidisc = [int(k) for k in rng.integers(4, size=2)]
    ops = []
    disk = hm.unit_disk()
    field = hm.metric_field(disk, "caratheodory")
    grid = [_reflect(z, k_disk) for z in DISK_GRID]
    # one direction per pair: the distance is symmetric, and the reversed
    # pair would repeat the same descent
    for i, a in enumerate(grid):
        for b in grid[i + 1:]:
            truth = oracle.poincare(a, b)
            ops.append(Op(
                "disk_path",
                functools.partial(_path, hm, field, disk, a, b),
                functools.partial(_check_path, truth, 1e-4),
                truth=truth,
            ))
    # metric_field gives the same PolydiscModelField for both metric names
    # on a polydisc, so one of them is enough
    bidisc = hm.Polydisc([0, 0], [1, 1])
    bfield = hm.metric_field(bidisc, "caratheodory")
    pts = [tuple(_reflect(z, k) for z, k in zip(p, k_bidisc)) for p in BIDISC_POINTS]
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            truth = oracle.polydisc_distance(a, b, (1.0, 1.0))
            ops.append(Op(
                "bidisc_path",
                functools.partial(_path, hm, bfield, bidisc, a, b),
                functools.partial(_check_path, truth, None),
                truth=truth,
            ))
    return ops


# ---------------------------------------------------------------------------
# semianalytic_bounds

# The unit disk cut out by a Möbius automorphism of itself; its pullback is
# one of the Carathéodory competitors, so the lower metric is exact there.
MOEBIUS = "(z1 - 0.2)/(1 - 0.2*z1)"
BOX = [-1.05, 1.05, -1.05, 1.05]
HOLE_CENTRE = 0.37 + 0.11j
HOLE_RADIUS = 0.002


def _sampled_kobayashi(truth, out):
    """The sampled-rigour fault of the metric pair at the centre: a right
    lower value and an upper value whose tol does not reach the truth, because
    the zeta grid of _affine_disk_radius stops at |zeta| = 0.9995 and rho
    overshoots."""
    lo, lo_kind, _, up, up_kind, up_tol = out
    if (lo_kind, up_kind) == ("lower", "upper") and lo <= truth + SLACK and up + up_tol + SLACK < truth:
        return "sampled rigour: Kobayashi upper value + tol below the true metric"
    return None


def _sampled_gap(gap, diameter, out):
    """The sampled-rigour fault of the holed-disk certificate: rigorous=True
    with r above the true gap, because the sampled rays of inner_gap miss the
    hole, and R still at least the true diameter."""
    _, r, R, rigorous, _ = out
    if rigorous is True and r > gap + SLACK and R >= diameter - SLACK:
        return "sampled rigour: rigorous certificate with r above the true gap"
    return None


def _metric_pair(hm, domain, x, v):
    lower = hm.caratheodory_metric(domain, x, v)
    upper = hm.kobayashi_metric(domain, x, v)
    return _bound(lower) + _bound(upper)


def _check_metric_pair(truth, out):
    lo, lo_kind, _, up, up_kind, up_tol = out
    if (lo_kind, up_kind) != ("lower", "upper"):
        return f"kinds {lo_kind!r}, {up_kind!r}, expected 'lower', 'upper'"
    if lo > truth + SLACK:
        return f"lower value {lo!r} above the true metric {truth!r}"
    if up + up_tol + SLACK < truth:
        return f"upper value {up!r} + tol {up_tol!r} below the true metric {truth!r}"
    return None


def _certificate(hm, X, U):
    cert = hm.certificate_for(X, U)
    return (cert.k, cert.r, cert.R, cert.rigorous, cert.method)


def _check_certificate(gap, diameter, out):
    _, r, R, rigorous, _ = out
    if rigorous and r > gap + SLACK:
        return f"rigorous certificate with r = {r!r} above the true gap {gap!r}"
    if rigorous and R < diameter - SLACK:
        return f"rigorous certificate with R = {R!r} below the true diameter {diameter!r}"
    return None


def semianalytic_bounds(hm, seed):
    """Metric bounds, a small path solve and certificates on SemiAnalytic domains.

    Radii are fixed and the seed draws the angles, so every seed asks the
    same questions at rotated points.  The first and last operations have
    fixed inputs and fail on every seed through the sampled-rigour fault.
    """
    rng = np.random.default_rng([seed, 2])
    angle = lambda: complex(np.exp(2j * np.pi * rng.random()))  # noqa: E731
    parse = hm.parse
    disk = hm.SemiAnalytic([(parse(MOEBIUS, 1), 1.0)], [BOX])
    bidisc = hm.SemiAnalytic(
        [(parse(MOEBIUS, 2), 1.0), (parse("z2^2", 2), 1.0)], [BOX, BOX]
    )
    holed = hm.SemiAnalytic(
        [
            (parse("z1", 1), 1.0),
            (parse(f"1/(z1 - ({HOLE_CENTRE.real!r}+{HOLE_CENTRE.imag!r}i))", 1), 1.0 / HOLE_RADIUS),
        ],
        [BOX],
    )

    def metric_op(domain, x, v, fault=None):
        x, v = tuple(x), tuple(v)
        truth = oracle.polydisc_metric(x, v, (1.0,) * len(x))
        return Op(
            "metric_pair",
            functools.partial(_metric_pair, hm, domain, x, v),
            functools.partial(_check_metric_pair, truth),
            fault=fault and functools.partial(fault, truth),
        )

    ops = [metric_op(disk, [0j], [1 + 0j], fault=_sampled_kobayashi)]
    for r in (0.3, 0.55, 0.8):
        ops.append(metric_op(disk, [r * angle()], [angle()]))
    for r1, r2 in ((0.4, 0.6), (0.6, 0.3), (0.5, 0.5)):
        ops.append(metric_op(bidisc, [r1 * angle(), r2 * angle()], [angle(), 0.7 * angle()]))

    b = 0.5 * angle()
    field = hm.metric_field(disk, "caratheodory")
    ops.append(Op(
        "semianalytic_path",
        lambda: _bound(hm.integrated_distance(field, disk, 0j, b, segments=4, refinements=0)),
        functools.partial(_check_path, oracle.poincare(0j, b), None),
        truth=oracle.poincare(0j, b),
    ))

    c = 0.05 * angle()
    ops.append(Op(
        "certificate",
        functools.partial(_certificate, hm, disk, hm.Disk(c, 0.5)),
        functools.partial(_check_certificate, oracle.disk_gap(1.0, c, 0.5), 1.0),
    ))
    hole_gap = oracle.holed_disk_gap(0j, 0.3, HOLE_CENTRE, HOLE_RADIUS)
    ops.append(Op(
        "certificate",
        functools.partial(_certificate, hm, holed, hm.Disk(0, 0.3)),
        functools.partial(_check_certificate, hole_gap, 0.6),
        fault=functools.partial(_sampled_gap, hole_gap, 0.6),
    ))
    return ops


# ---------------------------------------------------------------------------
# fixpoint_solves

RATE = 0.35  # |f| <= |b| + RATE <= 0.55 on X, inside U of radius 0.6
MAPS = 24  # maps per round on the disk, and again on the bidisc


def _coefficient(rng, radius):
    """A complex number of modulus < radius with three decimals: (value, text, conjugate text)."""
    z = radius * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
    re, im = f"{z.real:.3f}", f"{z.imag:.3f}"
    text = lambda x, y: f"({x}+{y}i)".replace("+-", "-")  # noqa: E731
    neg_im = im[1:] if im.startswith("-") else "-" + im
    return complex(float(re), float(im)), text(re, im), text(re, neg_im)


def _moebius_text(b, a, a_bar, var):
    return f"{b} + {RATE}*({var} - {a})/(1 - {a_bar}*{var})"


def _picard(hm, f, X, U, x0):
    res = hm.picard_solve(f, X, U, x0, step_invariant=True)
    cert = res.certificate
    return (
        res.c.coords,
        res.certified_tail,
        res.iterations,
        cert.k,
        cert.r,
        cert.R,
        cert.rigorous,
    )


def _check_picard(root, radii, gap, diameter, out):
    c, tail, _, _, r, R, rigorous = out
    err = max(abs(x - y) for x, y in zip(c, root))
    if err > 1e-9:
        return f"fixed point {c} is {err:.3g} from the reference root {root}"
    dist = oracle.polydisc_distance(c, root, radii)
    if tail < dist:
        return f"certified tail {tail!r} below the distance {dist!r} to the root"
    return _check_certificate(gap, diameter, (None, r, R, rigorous, None))


def fixpoint_solves(hm, seed):
    """picard_solve with step invariants on seeded rational self-maps.

    Disk maps are b + 0.35 B_a(z1) with B_a a Möbius automorphism; bidisc
    maps pair one with b2 + 0.35 (t z1 + (1 - t) B_a2(z2)).  Both send X into
    U = 0.6 X with margin 0.05, so range_check supports f(X) in U.
    """
    rng = np.random.default_rng([seed, 3])
    ops = []
    X, U = hm.unit_disk(), hm.Disk(0, 0.6)
    for _ in range(MAPS):
        b, b_txt, _ = _coefficient(rng, 0.2)
        a, a_txt, a_bar_txt = _coefficient(rng, 0.6)
        f = hm.parse(_moebius_text(b_txt, a_txt, a_bar_txt, "z1"), 1)
        root = (oracle.moebius_fixed_point(b, RATE, a),)
        ops.append(Op(
            "disk_fixpoint",
            functools.partial(_picard, hm, f, X, U, (0j,)),
            functools.partial(_check_picard, root, (1.0,), 0.4, 1.2),
        ))
    XB, UB = hm.Polydisc([0, 0], [1, 1]), hm.Polydisc([0, 0], [0.6, 0.6])
    for _ in range(MAPS):
        b1, b1_txt, _ = _coefficient(rng, 0.2)
        a1, a1_txt, a1_bar_txt = _coefficient(rng, 0.6)
        b2, b2_txt, _ = _coefficient(rng, 0.2)
        a2, a2_txt, a2_bar_txt = _coefficient(rng, 0.6)
        t_txt = f"{0.4 * rng.random():.2f}"
        s_txt = f"{1 - float(t_txt):.2f}"
        t, s = float(t_txt), float(s_txt)
        text = (
            _moebius_text(b1_txt, a1_txt, a1_bar_txt, "z1")
            + f"; {b2_txt} + {RATE}*({t_txt}*z1 + {s_txt}*(z2 - {a2_txt})"
            + f"/(1 - {a2_bar_txt}*z2))"
        )
        f = hm.parse(text, 2)
        z1 = oracle.moebius_fixed_point(b1, RATE, a1)
        # for fixed z1 the second component is again b' + r' B_a2(z2)
        z2 = oracle.moebius_fixed_point(b2 + RATE * t * z1, RATE * s, a2)
        ops.append(Op(
            "bidisc_fixpoint",
            functools.partial(_picard, hm, f, XB, UB, (0j, 0j)),
            functools.partial(
                _check_picard, (z1, z2), (1.0, 1.0), 0.4, oracle.polydisc_diameter((0.6, 0.6))
            ),
        ))
    return ops


# ---------------------------------------------------------------------------
# cli_cold

UNITS = (1 + 0j, 1j, -1 + 0j, -1j)


def _lit(z):
    """A complex literal that the CLI and the map parser both read; options
    take it as --opt=VALUE, since a leading minus would look like a flag."""
    return f"{z.real!r}{z.imag:+.17g}i"


def cli_commands(seed):
    """(argv, check) for the four closed-form commands, in a seeded order.

    The seed draws a unit w in {1, i, -1, -i} and rotates every point and
    map by it, which leaves the closed forms unchanged.
    """
    rng = np.random.default_rng([seed, 4])
    w = UNITS[int(rng.integers(4))]
    root = w * (2 - math.sqrt(3))
    commands = [
        (
            ["metric", "--domain", "disk:0,1", "--point=" + _lit(0.5 * w),
             "--vector=" + _lit(w), "--metric", "caratheodory"],
            functools.partial(_check_value, 4 / 3),
        ),
        (
            ["distance", "--domain", "disk:0,1", "--a", "0", "--b=" + _lit(-0.5 * w),
             "--kind", "caratheodory"],
            functools.partial(_check_value, math.atanh(0.5)),
        ),
        (
            ["contraction", "--X", "disk:0,1", "--U", "disk:0,0.5", "--method", "dilation"],
            _check_contraction,
        ),
        (
            ["fixpoint", "--X", "disk:0,1", "--U", "disk:0,0.6",
             "--map", f"(({_lit(w.conjugate())})*z1^2 + ({_lit(w)}))/4", "--x0", "0"],
            functools.partial(_check_fixpoint, root),
        ),
    ]
    return [commands[i] for i in rng.permutation(len(commands))]


def _result(out):
    code, text = out
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(text)["result"]


def _checked(fn):
    @functools.wraps(fn)
    def check(*args):
        try:
            return fn(*args)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"bad CLI output: {exc}"
    return check


@_checked
def _check_value(truth, out):
    value = _result(out)["value"]
    if not math.isclose(value, truth, rel_tol=1e-12):
        return f"value {value!r}, expected {truth!r}"
    return None


@_checked
def _check_contraction(out):
    res = _result(out)
    if not math.isclose(res["k"], 2 / 3, rel_tol=1e-12) or not res["rigorous"]:
        return f"certificate {res}, expected rigorous k = 2/3"
    return None


@_checked
def _check_fixpoint(root, out):
    (re, im), = _result(out)["fixed_point"]
    if abs(complex(re, im) - root) > 1e-9:
        return f"fixed point {complex(re, im)!r}, expected {root!r}"
    return None


def _spawn(env, argv, rss):
    """Run one CLI process; return (exit code, stdout) and record its peak RSS."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "hypermetric.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    # the outputs are a few hundred bytes, far below a pipe's buffer, so
    # reading one pipe after the other cannot block the child
    out = proc.stdout.read()
    err = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss.append(usage.ru_maxrss)
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
    return (proc.returncode, out.decode())


def _inprocess(hm, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hm.cli.main(argv)
    return (code, buf.getvalue())


def cli_cold(hm, seed, env, rss):
    """One fresh `python -m hypermetric.cli` process per call, one at a time.

    env must put the package on PYTHONPATH; rss collects each child's peak RSS.
    """
    return [
        Op(
            "cli_" + argv[0],
            functools.partial(_spawn, env, argv, rss),
            check,
            run_inprocess=functools.partial(_inprocess, hm, argv),
        )
        for argv, check in cli_commands(seed)
    ]


IN_PROCESS = {
    "polydisc_paths": polydisc_paths,
    "semianalytic_bounds": semianalytic_bounds,
    "fixpoint_solves": fixpoint_solves,
}
