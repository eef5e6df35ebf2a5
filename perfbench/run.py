"""hypermetric benchmark: four workloads, end-to-end and per-module metrics.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload polydisc_paths --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each run repeats whole rounds of one workload's operations for about
--seconds, checks every output against closed forms computed apart from the
program, and prints a summary followed, on the last line, by one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced rounds and
reports the per-module metrics (see tracer.py and README.md).
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SCRIPT = os.path.abspath(__file__)
WORKLOADS = ("polydisc_paths", "semianalytic_bounds", "fixpoint_solves", "cli_cold")
SETUP_RUNS = 3  # fresh interpreters per run; setup_s is their median
CHILD_TIMEOUT = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def import_package():
    """Import hypermetric from ./src, refusing any other copy."""
    import hypermetric
    import hypermetric.cli  # noqa: F401

    where = os.path.dirname(os.path.abspath(hypermetric.__file__))
    if where != os.path.join(SRC, "hypermetric"):
        sys.exit(f"hypermetric was imported from {where}, not from {SRC}")
    return hypermetric


def build(hm, name, seed, rss=None):
    import workloads

    if name == "cli_cold":
        return workloads.cli_cold(hm, seed, child_env(), [] if rss is None else rss)
    return workloads.IN_PROCESS[name](hm, seed)


def probe_setup(name, seed):
    """Child side of setup_s: import the package and build one round's inputs."""
    t0 = time.perf_counter()
    hm = import_package()
    import_s = time.perf_counter() - t0
    build(hm, name, seed)
    print(json.dumps({"import_s": import_s}))


def measure_setup(name, seed):
    """Median wall time of fresh interpreters that import and build, and their import time."""
    walls, imports = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--probe-setup", "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT,
        )
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit("set-up probe failed")
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return statistics.median(walls), statistics.median(imports)


def run_round(ops, tracer=None, inprocess=False):
    """Run one round; returns ([(op, output, error, seconds)], wall seconds)."""
    records = []
    t0 = time.perf_counter()
    for op in ops:
        fn = op.run_inprocess if inprocess else op.run
        start = time.perf_counter()
        out, err = None, None
        try:
            with tracer.operation(op.name) if tracer else contextlib.nullcontext():
                out = fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            err = f"{type(exc).__name__}: {exc}"
        records.append((op, out, err, time.perf_counter() - start))
    return records, time.perf_counter() - t0


def path_excess(records):
    """Sum over the round's path solves of the value minus the closed form."""
    return float(sum(
        out[0] - op.truth for op, out, err, _ in records if op.truth is not None and err is None
    ))


def warm_up(ops):
    """Run the first operation of each kind once, untimed, so that one-time
    set-up in this process (allocator growth, lru caches) is not charged to
    the first timed round.  CLI operations start a fresh process each time
    and are not warmed.  An error here shows again in the timed rounds."""
    seen = set()
    for op in ops:
        if op.name in seen or op.run_inprocess is not None:
            continue
        seen.add(op.name)
        try:
            op.run()
        except Exception:
            pass


def keep_going(start, seconds, last):
    return time.perf_counter() - start + 0.5 * last <= seconds


def run_untraced(hm, args, rss):
    warm_up(build(hm, args.workload, args.seed))
    rounds = []
    start = time.perf_counter()
    while True:
        records, wall = run_round(build(hm, args.workload, args.seed, rss))
        rounds.append((records, wall))
        if not keep_going(start, args.seconds, wall):
            return rounds


def run_traced(hm, args, rss):
    """Alternate untraced and traced rounds of the same inputs.

    For cli_cold the traced round runs the commands through cli.main in this
    process, since wrappers cannot reach a child process; the untraced
    in-process round beside it gives cli.main_ms and the overhead baseline.
    """
    import tracer as tracing

    cli = args.workload == "cli_cold"
    tracer = tracing.Tracer()
    rounds, pairs, layer_rounds, mismatches = [], [], [], []
    warm_up(build(hm, args.workload, args.seed))
    start = time.perf_counter()
    while True:
        base, base_wall = run_round(build(hm, args.workload, args.seed, rss))
        rounds.append((base, base_wall))
        ref, ref_wall = base, base_wall
        if cli:
            ref, ref_wall = run_round(build(hm, args.workload, args.seed), inprocess=True)
            rounds.append((ref, ref_wall))
        ops = build(hm, args.workload, args.seed)
        tracer.start_round()
        tracer.install()
        try:
            traced, traced_wall = run_round(ops, tracer, inprocess=cli)
        finally:
            tracer.uninstall()
        rounds.append((traced, traced_wall))
        metrics = tracer.round_metrics()
        metrics["metrics.path_excess"] = path_excess(traced)
        if cli:
            metrics["cli.main_ms"] = 1e3 * statistics.median(r[3] for r in ref)
        layer_rounds.append(metrics)
        pairs.append((ref_wall, traced_wall))
        for (op, a, _, _), (_, b, _, _) in zip(base, traced):
            if repr(a) != repr(b):
                mismatches.append(f"{op.name}: untraced {a!r} != traced {b!r}")
        if not keep_going(start, args.seconds, base_wall + ref_wall * cli + traced_wall):
            break
    return rounds, pairs, layer_rounds, mismatches, tracer


def summarize_ops(rounds):
    """Check every output; an operation that raised or fails a check has failed.

    A failure is known only when the operation names a fault and its output
    shows exactly that fault; an exception or any other wrong output is
    unexpected, and makes the run incorrect.
    """
    attempted = failed = 0
    unexpected, faults = [], set()
    for records, _ in rounds:
        for op, out, err, _ in records:
            attempted += 1
            reason = err if err is not None else op.check(out)
            if reason is None:
                continue
            failed += 1
            known = op.fault(out) if err is None and op.fault is not None else None
            if known is None:
                unexpected.append(f"{op.name}: {reason}")
            else:
                faults.add(f"{op.name}: {reason} [known fault: {known}]")
    return attempted, failed, unexpected, sorted(faults)


def versions(hm):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "KERNELS_COMPILED": getattr(hm, "KERNELS_COMPILED", None),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
    }


def traced_metrics(hm, args, rss, import_s, info):
    """Run traced; returns (rounds, per-module metrics, summary lines, problems)."""
    import tracer as tracing

    rounds, pairs, layer_rounds, mismatches, tracer = run_traced(hm, args, rss)
    layer = tracing.median_of_rounds(layer_rounds)
    layer["cli.import_s"] = import_s
    layer.setdefault("cli.main_ms", 0.0)
    layer["trace.overhead"] = (
        statistics.median(t for _, t in pairs) / statistics.median(r for r, _ in pairs) - 1
    )
    problems = list(mismatches)
    # a target the package no longer has would read 0 in its layer metrics
    problems += [f"trace target {name} not found in the package" for name in tracer.missing]
    for name, _, _, exact in tracing.LAYER_METRICS:
        vals = {repr(r.get(name)) for r in layer_rounds}
        if exact and len(vals) > 1:
            problems.append(f"{name} differs between traced rounds: {sorted(vals)}")
    info["traced_rounds"] = len(layer_rounds)
    tracer.write(
        os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
        {**info, "rounds": layer_rounds},
    )
    lines = [f"  {len(layer_rounds)} traced rounds, tracing overhead "
             f"{100 * layer['trace.overhead']:.1f} %, outputs "
             + ("bitwise-equal" if not mismatches else "DIFFER")]
    metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _, _ in tracing.LAYER_METRICS}
    return rounds, metrics, lines, problems


def untraced_metrics(hm, args, rss, setup_s, info):
    """Run untraced; returns (rounds, end-to-end metrics, summary lines, problems)."""
    rounds = run_untraced(hm, args, rss)
    ms = sorted(1e3 * r[3] for records, _ in rounds for r in records)
    peak_kib = max(rss) if rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(w for _, w in rounds),
        "op_ms_p50": statistics.median(ms),
        "peak_rss_mb": peak_kib / 1024,
    }
    lines = [f"  op_ms_p50 {values['op_ms_p50']:.2f} ms over n = {len(ms)} operations"]
    if len(ms) >= 100:
        p90 = statistics.quantiles(ms, n=10)[-1]
        lines.append(f"  op_ms_p90 {p90:.2f} ms over n = {len(ms)} operations")
    if any(op.truth is not None for op, *_ in rounds[0][0]):
        lines.append(f"  path_excess {path_excess(rounds[0][0])!r} per round")
    info["round_s"] = [w for _, w in rounds]
    info["op_ms"] = [[1e3 * r[3] for r in records] for records, _ in rounds]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return rounds, metrics, lines, []


def run_one(args):
    hm = import_package()
    setup_s, import_s = measure_setup(args.workload, args.seed)
    rss = []  # peak RSS of each CLI child, in KiB
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **versions(hm)}
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        rounds, metrics, lines, problems = traced_metrics(hm, args, rss, import_s, info)
    else:
        rounds, metrics, lines, problems = untraced_metrics(hm, args, rss, setup_s, info)
    attempted, failed, unexpected, faults = summarize_ops(rounds)
    problems = unexpected + problems
    lines.insert(0, f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
                    f"{attempted} operations attempted, {failed} failed")
    lines += [f"  {name} = {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    lines += [f"  expected failure: {f}" for f in faults]
    lines += [f"  PROBLEM: {p}" for p in problems]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    info.update(result, problems=problems, known_failures=faults)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(info, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))


def run_all(args):
    """Run the four workloads one after the other, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"{name} exited with code {proc.returncode}")
        res = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(combined))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hypermetric", "__init__.py")):
        sys.exit(f"no hypermetric package under {SRC}: run from the root of a checkout")
    sys.path.insert(0, SRC)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
    elif args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
