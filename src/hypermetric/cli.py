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
import pathlib
import sys
from typing import Optional

from . import __version__
from .contraction import (
    DILATION,
    TANH_DIAMETER,
    caratheodory_diameter,
    certificate_for,
    verify_metric_contraction,
)
from .domains import DEFAULT_SAMPLES, Disk, Domain, Point, Polydisc, domain_from_json
from .errors import HypermetricError, NonConvergenceError, PreconditionError, UsageError
from .fixedpoint import DEFAULT_MAX_ITER, DEFAULT_TOL, picard_solve, trace_to_csv
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

_METRICS = ("caratheodory", "kobayashi")
_INTEGRATED = {"integrated-" + m: m for m in _METRICS}

# name -> (type, default, choices), each option's one declaration.  A bool
# option is a switch; a dict option is a domain: a literal on the command line,
# a literal or a JSON object in a config file.
_OPTIONS = {
    **dict.fromkeys(("domain", "X", "U"), (dict, None, None)),
    **dict.fromkeys(("point", "vector", "a", "b", "map", "x0"), (str, None, None)),
    "trace": (str, None, None),
    "k": (float, None, None),
    "metric": (str, "caratheodory", _METRICS + ("poincare",)),
    "kind": (str, "caratheodory", ("caratheodory", "poincare", *_INTEGRATED)),
    "method": (str, DILATION, (DILATION, TANH_DIAMETER)),
    "step_invariant": (bool, False, None),
    "override_range": (bool, False, None),
    "seed": (int, 0, None),
    "samples": (int, DEFAULT_SAMPLES, None),
    "tol": (float, DEFAULT_TOL, None),
    "max_iter": (int, DEFAULT_MAX_ITER, None),
}

_HELP = {
    "trace": "write the iteration trace CSV here",
    "out": "write the JSON result here",
    "config": "JSON config file ('-' for stdin)",
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
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise UsageError(f"cannot parse domain JSON: {exc}") from None
        return domain_from_json(data)
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


def _need(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise UsageError(f"missing required option --{key.replace('_', '-')}")
    return cfg[key]


def _domain_of(cfg: dict, key: str) -> Domain:
    val = _need(cfg, key)
    if isinstance(val, dict):
        return domain_from_json(val)
    return parse_domain_literal(val)


def _exact(value: float) -> dict:
    return {"value": value, "kind": "exact", "tol": 0.0}


def _metric(cfg: dict) -> dict:
    point = parse_point_literal(_need(cfg, "point"))
    vector = [parse_complex_literal(p) for p in _need(cfg, "vector").split(",")]
    if cfg["metric"] == "poincare":
        return _exact(poincare_metric(point.coords[0], vector[0]))
    d = _domain_of(cfg, "domain")
    if cfg["metric"] == "kobayashi":
        return kobayashi_metric(d, point, vector).to_json()
    return caratheodory_metric(d, point, vector, seed=cfg["seed"]).to_json()


def _distance(cfg: dict) -> dict:
    a = parse_point_literal(_need(cfg, "a"))
    b = parse_point_literal(_need(cfg, "b"))
    if cfg["kind"] == "poincare":
        return _exact(poincare_distance(a.coords[0], b.coords[0]))
    d = _domain_of(cfg, "domain")
    if cfg["kind"] == "caratheodory":
        return caratheodory_distance(d, a, b, seed=cfg["seed"]).to_json()
    field = metric_field(d, _INTEGRATED[cfg["kind"]])
    return integrated_distance(field, d, a, b, seed=cfg["seed"]).to_json()


def _diameter(cfg: dict) -> dict:
    X, U = _domain_of(cfg, "X"), _domain_of(cfg, "U")
    M = caratheodory_diameter(X, U, samples=cfg["samples"], seed=cfg["seed"])
    return M.to_json()


def _certificate(cfg: dict, X: Domain, U: Domain):
    return certificate_for(
        X, U, method=cfg["method"], samples=cfg["samples"], seed=cfg["seed"]
    )


def _contraction(cfg: dict) -> dict:
    return _certificate(cfg, _domain_of(cfg, "X"), _domain_of(cfg, "U")).to_json()


def _verify(cfg: dict) -> dict:
    X, U = _domain_of(cfg, "X"), _domain_of(cfg, "U")
    if cfg["k"] is None:
        cfg["k"] = _certificate(cfg, X, U).k
    report = verify_metric_contraction(
        X, U, cfg["k"], metric=cfg["metric"], samples=cfg["samples"], seed=cfg["seed"]
    )
    return report.to_json()


def _fixpoint(cfg: dict) -> dict:
    X, U = _domain_of(cfg, "X"), _domain_of(cfg, "U")
    f = parse_map(_need(cfg, "map"), X.dim)
    x0 = parse_point_literal(_need(cfg, "x0"))
    result = picard_solve(
        f, X, U, x0, tol=cfg["tol"], max_iter=cfg["max_iter"], method=cfg["method"],
        step_invariant=cfg["step_invariant"], override_range=cfg["override_range"],
        samples=cfg["samples"], seed=cfg["seed"],
    )
    if cfg["trace"]:
        _write(cfg["trace"], lambda path: trace_to_csv(result.trace, path))
    return result.to_json()


# name -> (help, handler, options read), each handler a function cfg -> result
# dict.  An option is a name of _OPTIONS, or (name, choices) where the command
# takes fewer choices than the option has.
_COMMANDS = {
    "metric": ("evaluate an infinitesimal metric", _metric,
               ("domain", "point", "vector", "metric", "seed")),
    "distance": ("evaluate a pseudodistance", _distance,
                 ("domain", "a", "b", "kind", "seed")),
    "diameter": ("invariant diameter of U inside X", _diameter,
                 ("X", "U", "seed", "samples")),
    "contraction": ("contraction certificate for U in X", _contraction,
                    ("X", "U", "method", "seed", "samples")),
    "verify": ("check the metric contraction inequality", _verify,
               ("X", "U", "k", ("metric", _METRICS), "method", "seed", "samples")),
    "fixpoint": ("Picard iteration to the fixed point", _fixpoint,
                 ("X", "U", "map", "x0", "method", "trace", "step_invariant",
                  "override_range", "seed", "samples", "tol", "max_iter")),
}


def _options(command: str):
    """(name, type, default, choices) of each option the command reads."""
    for entry in _COMMANDS[command][2]:
        name, choices = entry if isinstance(entry, tuple) else (entry, None)
        typ, default, all_choices = _OPTIONS[name]
        yield name, typ, default, choices or all_choices


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="hypermetric", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for name, typ, _, choices in _options(command):
            flag = "--" + name.replace("_", "-")
            if typ is bool:
                p.add_argument(flag, dest=name, action="store_true", default=None)
            else:
                p.add_argument(flag, dest=name, type=str if typ is dict else typ,
                               choices=choices, default=None, help=_HELP.get(name))
        for name in ("out", "config"):
            p.add_argument("--" + name, default=None, help=_HELP[name])
    return parser


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError("a config file must hold one JSON object")
    return data


def _config_value(name: str, typ: type, choices, value):
    """A config-file field read as its flag reads it: a string through the
    flag's type, any other JSON value only if it has that type already (a
    JSON int passes as a float)."""
    read = value
    if isinstance(value, str) and typ in (int, float):
        try:
            read = typ(value)
        except ValueError:
            pass
    elif type(value) is int and typ is float:
        read = float(value)
    # a domain literal stays a string, as its flag keeps it
    if not (type(read) is typ or typ is dict and type(read) is str):
        expected = "str or dict" if typ is dict else typ.__name__
        raise UsageError(
            f"config field {name!r}: expected {expected}, got {json.dumps(value)}"
        )
    if choices and read not in choices:
        raise UsageError(
            f"config field {name!r}: {json.dumps(value)} is not one of {list(choices)}"
        )
    return read


def _resolve(args, file_cfg: dict) -> dict:
    """Flag > config file > default, collected into one provenance dict."""
    cfg = {}
    for name, typ, default, choices in _options(args.command):
        val = getattr(args, name)
        if val is None and file_cfg.get(name) is not None:
            val = _config_value(name, typ, choices, file_cfg[name])
        cfg[name] = default if val is None else val
    return cfg


def _write(path: str, write) -> None:
    """write(path), an OSError from it (say, a missing directory) a usage error."""
    try:
        write(path)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _emit(doc: dict, out_path: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        _write(out_path, lambda path: pathlib.Path(path).write_text(text))
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve(args, _load_config(args.config))
        result = _COMMANDS[args.command][1](cfg)
        _emit({"command": args.command, "config": cfg, "result": result}, args.out)
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
