"""Command-line front end.

Subcommands: metric, distance, diameter, contraction, verify, fixpoint.
Every run writes a single JSON document (stdout or --out) that embeds the
fully resolved configuration for provenance; fixpoint can additionally dump
the iteration trace as CSV.  Exit codes: 0 success, 1 usage error,
2 precondition failure, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from .contraction import (
    DILATION,
    caratheodory_diameter,
    certificate_for,
    verify_metric_contraction,
)
from .domains import Disk, Domain, Point, Polydisc, domain_from_json
from .errors import (
    HypermetricError,
    NonConvergenceError,
    PreconditionError,
    UsageError,
)
from .fixedpoint import picard_solve, trace_to_csv
from .holomap import parse as parse_map
from .metrics import (
    caratheodory_distance,
    caratheodory_metric,
    integrated_distance,
    kobayashi_metric,
    metric_field,
    poincare_distance,
    poincare_metric,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_NONCONVERGENCE = 3

_DEFAULTS = {
    "seed": 0,
    "samples": 512,
    "tol": 1e-10,
    "max_iter": 10000,
    "metric": "caratheodory",
    "method": DILATION,
}


def parse_complex_literal(text: str) -> complex:
    t = text.strip().replace(" ", "")
    try:
        return complex(t.replace("i", "j"))
    except ValueError:
        raise UsageError(f"cannot parse complex number {text!r}")


def parse_real_literal(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"cannot parse real number {text!r}")


def parse_point_literal(text: str) -> Point:
    return Point([parse_complex_literal(part) for part in text.split(",")])


def parse_domain_literal(text: str) -> Domain:
    text = text.strip()
    if text.startswith("{"):
        return domain_from_json(json.loads(text))
    if ":" not in text:
        raise UsageError(f"cannot parse domain literal {text!r}")
    kind, _, rest = text.partition(":")
    kind = kind.lower()
    if kind == "disk":
        parts = rest.split(",")
        if len(parts) != 2:
            raise UsageError("disk literal is disk:CENTER,RADIUS")
        return Disk(parse_complex_literal(parts[0]), parse_real_literal(parts[1]))
    if kind == "polydisc":
        halves = rest.split(";")
        if len(halves) != 2:
            raise UsageError("polydisc literal is polydisc:C1,..,Cn;R1,..,Rn")
        centers = [parse_complex_literal(p) for p in halves[0].split(",")]
        radii = [parse_real_literal(p) for p in halves[1].split(",")]
        return Polydisc(centers, radii)
    raise UsageError(
        f"unknown domain kind {kind!r}; semianalytic domains need --config JSON"
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="hypermetric", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, samples=True, iteration=False):
        p.add_argument("--seed", type=int, default=None)
        if samples:
            p.add_argument("--samples", type=int, default=None)
        if iteration:
            p.add_argument("--tol", type=float, default=None)
            p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
        p.add_argument("--out", default=None, help="write the JSON result here")
        p.add_argument(
            "--config", default=None, help="JSON config file ('-' for stdin)"
        )

    p = sub.add_parser("metric", help="evaluate an infinitesimal metric")
    p.add_argument("--domain", default=None)
    p.add_argument("--point", default=None)
    p.add_argument("--vector", default=None)
    p.add_argument(
        "--metric", choices=["caratheodory", "kobayashi", "poincare"], default=None
    )
    common(p, samples=False)

    p = sub.add_parser("distance", help="evaluate a pseudodistance")
    p.add_argument("--domain", default=None)
    p.add_argument("--a", default=None)
    p.add_argument("--b", default=None)
    p.add_argument(
        "--kind",
        choices=[
            "caratheodory",
            "poincare",
            "integrated-caratheodory",
            "integrated-kobayashi",
        ],
        default=None,
    )
    common(p, samples=False)

    p = sub.add_parser("diameter", help="invariant diameter of U inside X")
    p.add_argument("--X", dest="X", default=None)
    p.add_argument("--U", dest="U", default=None)
    common(p)

    p = sub.add_parser("contraction", help="contraction certificate for U in X")
    p.add_argument("--X", dest="X", default=None)
    p.add_argument("--U", dest="U", default=None)
    p.add_argument("--method", choices=["dilation", "tanh_diameter"], default=None)
    common(p)

    p = sub.add_parser("verify", help="check the metric contraction inequality")
    p.add_argument("--X", dest="X", default=None)
    p.add_argument("--U", dest="U", default=None)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--metric", choices=["caratheodory", "kobayashi"], default=None)
    p.add_argument("--method", choices=["dilation", "tanh_diameter"], default=None)
    common(p)

    p = sub.add_parser("fixpoint", help="Picard iteration to the fixed point")
    p.add_argument("--X", dest="X", default=None)
    p.add_argument("--U", dest="U", default=None)
    p.add_argument("--map", dest="map", default=None)
    p.add_argument("--x0", default=None)
    p.add_argument("--method", choices=["dilation", "tanh_diameter"], default=None)
    p.add_argument("--trace", default=None, help="write the iteration trace CSV here")
    p.add_argument("--step-invariant", action="store_true", default=None)
    p.add_argument("--override-range", action="store_true", default=None)
    common(p, iteration=True)

    return parser


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    if args.config == "-":
        return json.load(sys.stdin)
    with open(args.config) as fh:
        return json.load(fh)


def _resolve(args, file_cfg: dict, keys: list) -> dict:
    """Flag > config file > default, collected into one provenance dict."""
    out = {}
    for key in keys:
        val = getattr(args, key, None)
        if val is None:
            val = file_cfg.get(key, _DEFAULTS.get(key))
        out[key] = val
    return out


def _need(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise UsageError(f"missing required option --{key.replace('_', '-')}")
    return cfg[key]


def _domain_of(cfg: dict, key: str) -> Domain:
    val = _need(cfg, key)
    if isinstance(val, dict):
        return domain_from_json(val)
    return parse_domain_literal(val)


def _dispatch(args) -> tuple:
    file_cfg = _load_config(args)
    cmd = args.command
    if cmd == "metric":
        cfg = _resolve(args, file_cfg, ["domain", "point", "vector", "metric", "seed"])
        point = parse_point_literal(_need(cfg, "point"))
        vector = [parse_complex_literal(p) for p in _need(cfg, "vector").split(",")]
        which = cfg["metric"]
        if which == "poincare":
            value = poincare_metric(point.coords[0], vector[0])
            return cfg, {"value": value, "kind": "exact", "tol": 0.0}
        d = _domain_of(cfg, "domain")
        if which == "kobayashi":
            b = kobayashi_metric(d, point, vector)
        else:
            b = caratheodory_metric(d, point, vector, seed=cfg["seed"])
        return cfg, b.to_json()
    if cmd == "distance":
        cfg = _resolve(args, file_cfg, ["domain", "a", "b", "kind", "seed"])
        a = parse_point_literal(_need(cfg, "a"))
        b = parse_point_literal(_need(cfg, "b"))
        kind = cfg["kind"] or "caratheodory"
        if kind == "poincare":
            value = poincare_distance(a.coords[0], b.coords[0])
            return cfg, {"value": value, "kind": "exact", "tol": 0.0}
        d = _domain_of(cfg, "domain")
        if kind == "caratheodory":
            return cfg, caratheodory_distance(d, a, b, seed=cfg["seed"]).to_json()
        metric = "kobayashi" if kind.endswith("kobayashi") else "caratheodory"
        field = metric_field(d, metric)
        return cfg, integrated_distance(field, d, a, b, seed=cfg["seed"]).to_json()
    if cmd == "diameter":
        cfg = _resolve(args, file_cfg, ["X", "U", "seed", "samples"])
        X = _domain_of(cfg, "X")
        U = _domain_of(cfg, "U")
        M = caratheodory_diameter(X, U, samples=cfg["samples"], seed=cfg["seed"])
        return cfg, M.to_json()
    if cmd == "contraction":
        cfg = _resolve(args, file_cfg, ["X", "U", "method", "seed", "samples"])
        X = _domain_of(cfg, "X")
        U = _domain_of(cfg, "U")
        cert = certificate_for(
            X, U, method=cfg["method"], samples=cfg["samples"], seed=cfg["seed"]
        )
        return cfg, cert.to_json()
    if cmd == "verify":
        cfg = _resolve(
            args, file_cfg, ["X", "U", "k", "metric", "method", "seed", "samples"]
        )
        X = _domain_of(cfg, "X")
        U = _domain_of(cfg, "U")
        k = cfg["k"]
        if k is None:
            k = certificate_for(
                X, U, method=cfg["method"], samples=cfg["samples"], seed=cfg["seed"]
            ).k
            cfg["k"] = k
        report = verify_metric_contraction(
            X, U, k, metric=cfg["metric"], samples=cfg["samples"], seed=cfg["seed"]
        )
        return cfg, report.to_json()
    if cmd == "fixpoint":
        cfg = _resolve(
            args,
            file_cfg,
            [
                "X", "U", "map", "x0", "method", "tol", "max_iter",
                "step_invariant", "override_range", "trace", "seed", "samples",
            ],
        )
        X = _domain_of(cfg, "X")
        U = _domain_of(cfg, "U")
        f = parse_map(_need(cfg, "map"), X.dim)
        x0 = parse_point_literal(_need(cfg, "x0"))
        result = picard_solve(
            f,
            X,
            U,
            x0,
            tol=cfg["tol"],
            max_iter=cfg["max_iter"],
            method=cfg["method"],
            step_invariant=bool(cfg["step_invariant"]),
            override_range=bool(cfg["override_range"]),
            samples=cfg["samples"],
            seed=cfg["seed"],
        )
        if cfg["trace"]:
            trace_to_csv(result.trace, cfg["trace"])
        return cfg, result.to_json()
    raise UsageError(f"unknown command {cmd!r}")


def _emit(doc: dict, out_path: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg, result = _dispatch(args)
        doc = {"command": args.command, "config": cfg, "result": result}
        _emit(doc, getattr(args, "out", None))
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except HypermetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
