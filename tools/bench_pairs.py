"""Paired parent/change benchmark runs and the BENCH_<n>.json summary.

Run the benchmark alternately in two checkouts (make each with
`git archive <rev> | tar -x -C DIR`), one JSON line per run:

    python3 tools/bench_pairs.py run --parent DIR --change DIR --out runs.jsonl \
        --first-seed 921 --pairs 10 --trace-workload polydisc_paths --trace-seed 7

Pair i runs `perfbench/run.py --workload W --seed <first-seed + i> --seconds S
--trace 0` on both sides, the parent first in even pairs and the change first
in odd pairs, and keeps the last line run.py prints.  With --trace-workload
one `--trace 1` run per side follows.  Then summarize the lines:

    python3 tools/bench_pairs.py summarize runs.jsonl --out BENCH_9.json \
        --title "..." --parent-rev <rev> --claim polydisc_paths:wall_s

The summary gives, per workload and end-to-end metric of BENCHMARK.json,
every run, the median and the quartiles of each side
(`statistics.quantiles(runs, n=4, method="inclusive")`), the ratio of the
medians, the pairs the change wins and loses, and whether the change's median
is within the metric's bound.  A claim reports the ratio of the medians and
is met when the change is better in at least 9 of 10 pairs, its median is
better by more than the parent's interquartile range, and it clears the
metric's bound: its median is better than the parent's by more than `bound`
times the parent's median.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("polydisc_paths", "semianalytic_bounds", "fixpoint_solves", "cli_cold")


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run(args):
    dirs = {"parent": args.parent, "change": args.change}
    with open(args.out, "w") as fh:
        def emit(record):
            fh.write(json.dumps(record) + "\n")
            fh.flush()

        for workload in args.workloads:
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for pos, side in enumerate(order):
                    result = run_once(dirs[side], workload, seed, args.seconds, 0)
                    emit({"workload": workload, "pair": i, "seed": seed, "side": side, "pos": pos,
                          "seconds": args.seconds, "trace": 0, "result": result})
        if args.trace_workload:
            for side in ("parent", "change"):
                result = run_once(dirs[side], args.trace_workload, args.trace_seed, args.seconds, 1)
                emit({"workload": args.trace_workload, "seed": args.trace_seed, "side": side,
                      "seconds": args.seconds, "trace": 1, "result": result})


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def compare(parent, change, spec):
    P, C = quartiles(parent), quartiles(change)
    sign = 1 if spec["better"] == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {
        "unit": spec["unit"],
        "bound": spec["bound"],
        "parent": {**P, "runs": parent},
        "change": {**C, "runs": change},
        "change_over_parent_median": C["median"] / P["median"],
        "pairs_change_better": wins,
        "pairs_change_worse": losses,
        "within_bound": sign * (C["median"] - P["median"]) <= spec["bound"] * P["median"],
    }


def summarize_workload(records, specs):
    pairs = sorted({r["pair"] for r in records})
    by = {(r["pair"], r["side"]): r["result"] for r in records}
    seeds = {r["pair"]: r["seed"] for r in records}
    sides = ("parent", "change")
    return {
        "pairs": len(pairs),
        "seeds": [seeds[p] for p in pairs],
        "correct": {s: all(by[p, s]["correct"] for p in pairs) for s in sides},
        "attempted": {s: [by[p, s]["attempted"] for p in pairs] for s in sides},
        "failed": {s: [by[p, s]["failed"] for p in pairs] for s in sides},
        "metrics": {
            name: compare(*([by[p, s]["metrics"][name]["value"] for p in pairs] for s in sides), spec)
            for name, spec in specs.items()
        },
    }


def machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{platform.machine()}, {os.cpu_count()} CPUs, {cpu}"


def versions():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def summarize(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        specs = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    with open(args.runs) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    paired = [r for r in records if r["trace"] == 0]
    workloads = {w: summarize_workload([r for r in paired if r["workload"] == w], specs)
                 for w in WORKLOADS if any(r["workload"] == w for r in paired)}
    traced = {}
    for r in records:
        if r["trace"] == 1:
            entry = traced.setdefault(r["workload"], {"seed": r["seed"]})
            entry[r["side"]] = {"correct": r["result"]["correct"],
                                **{k: m["value"] for k, m in r["result"]["metrics"].items()}}
    claims = []
    for text in args.claim:
        workload, metric = text.split(":")
        m = workloads[workload]["metrics"][metric]
        gap = m["parent"]["median"] - m["change"]["median"]
        if specs[metric]["better"] == "higher":
            gap = -gap
        iqr = m["parent"]["q3"] - m["parent"]["q1"]
        need = -(-9 * workloads[workload]["pairs"] // 10)
        clears_bound = gap > specs[metric]["bound"] * m["parent"]["median"]
        claims.append({
            "workload": workload,
            "metric": metric,
            "rule": "change better in >= 9 of 10 pairs, its median better by more than parent "
                    "q3 - q1, and better by more than bound x parent median",
            "pairs_change_better": m["pairs_change_better"],
            "change_over_parent_median": m["change_over_parent_median"],
            "median_gap": gap,
            "parent_iqr": iqr,
            "clears_bound": clears_bound,
            "met": m["pairs_change_better"] >= need and gap > iqr and clears_bound,
        })
    first = min(r["seed"] for r in paired)
    seconds = paired[0]["seconds"]
    bench = {
        "title": args.title,
        "parent": args.parent_rev,
        "change": args.change_rev,
        "machine": machine(),
        "versions": versions(),
        "method": {
            "command": f"python3 perfbench/run.py --workload <w> --seed <seed> --seconds {seconds:g} --trace 0",
            "pairs": f"pair i uses seed {first} + i on both sides; the parent runs first "
                     "in even pairs, the change in odd pairs",
            "source": "the last JSON line that run.py prints, one per run",
            "quartiles": "statistics.quantiles(runs, n=4, method='inclusive')",
            "script": "python3 tools/bench_pairs.py run ... && python3 tools/bench_pairs.py summarize ...",
        },
        "claims": claims,
        "workloads": workloads,
        "traced": traced,
        "notes": args.note,
    }
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    for w, e in workloads.items():
        for name, m in e["metrics"].items():
            print(f"{w:20s} {name:12s} {m['parent']['median']:10.4g} -> {m['change']['median']:10.4g}"
                  f"  x{m['change_over_parent_median']:.3f}  better {m['pairs_change_better']}/{e['pairs']}"
                  f"  within bound: {m['within_bound']}")
    for c in claims:
        print(json.dumps(c))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    r.add_argument("--first-seed", type=int, default=0)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seconds", type=float, default=20)
    r.add_argument("--trace-workload", choices=WORKLOADS)
    r.add_argument("--trace-seed", type=int, default=7)
    s = sub.add_parser("summarize")
    s.add_argument("runs")
    s.add_argument("--out", required=True)
    s.add_argument("--title", required=True)
    s.add_argument("--parent-rev", required=True)
    s.add_argument("--change-rev", default="the commit that adds this file")
    s.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    s.add_argument("--note", action="append", default=[], help="free text kept in the file")
    args = p.parse_args(argv)
    run(args) if args.command == "run" else summarize(args)


if __name__ == "__main__":
    main()
