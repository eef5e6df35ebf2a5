"""Per-module tracing of hypermetric from outside the program.

install() replaces the package's public functions and methods, at every
module or class attribute that holds them, with wrappers that time each
call; uninstall() puts the originals back.  The attribute is what internal
callers reach, so calls the package makes to itself are traced too.

Calls into the coarse entry points become spans (name, start, end, parent,
operation).  The hot per-point calls (membership, map and metric-field
evaluation, the path-length kernel) are only counted and timed, under the
nearest enclosing span.  A call's self time is its time minus the time of
the wrapped calls it made.  Everything stays in memory until write().
"""

import collections
import contextlib
import functools
import importlib
import json
import statistics
import sys
import time


def _kernel_batch(work, args, kwargs, result):
    stack, nodes = args[0], args[3]
    batch, verts, dim = stack.shape
    _kernel_work(work, batch, verts, dim, len(nodes), int((result >= 0).sum()))


def _kernel_single(work, args, kwargs, result):
    verts, nodes = args[0], args[3]
    _kernel_work(work, 1, verts.shape[0], verts.shape[1], len(nodes), int(result >= 0))


def _kernel_work(work, batch, verts, dim, order, inside):
    nodes = batch * (verts - 1) * order * dim
    work["kernels.polylines"] += batch
    work["kernels.inside"] += inside
    work["kernels.node_evals"] += nodes
    # computed from the shapes, not measured: the complex nodes z (16 B), the
    # real denominators and integrands (8 B each) at every node, the input
    # stack and the output
    work["kernels.bytes_computed"] += nodes * 32 + batch * verts * dim * 16 + batch * 8


def _sample_points(work, args, kwargs, result):
    work["domains.sample_points"] += len(result)


def _picard_iterations(work, args, kwargs, result):
    work["fixedpoint.iterations"] += result.iterations


# (module[:Class], attribute, hot, hook)
TARGETS = (
    ("kernels", "polyline_length", True, _kernel_single),
    ("kernels", "polyline_lengths", True, _kernel_batch),
    ("domains:Polydisc", "contains", True, None),
    ("domains:SemiAnalytic", "contains", True, None),
    ("domains:Polydisc", "boundary_distance", True, None),
    ("domains:SemiAnalytic", "boundary_distance", True, None),
    ("domains", "sample", False, _sample_points),
    ("domains", "inner_gap", False, None),
    ("domains", "diameter_bound", False, None),
    ("holomap:HoloMap", "eval", True, None),
    ("holomap:HoloMap", "eval_array", True, None),
    ("holomap:HoloMap", "jvp", True, None),
    ("holomap", "range_check", False, None),
    ("metrics:PolydiscModelField", "eval", True, None),
    ("metrics:CompetitorMetricField", "eval", True, None),
    ("metrics:AnalyticDiskField", "eval", True, None),
    ("metrics", "caratheodory_metric", False, None),
    ("metrics", "kobayashi_metric", False, None),
    ("metrics", "caratheodory_distance", False, None),
    ("metrics", "path_length", False, None),
    ("metrics", "integrated_distance", False, None),
    ("contraction", "certificate_for", False, None),
    ("contraction", "caratheodory_diameter", False, None),
    ("contraction", "verify_metric_contraction", False, None),
    ("fixedpoint", "picard_solve", False, _picard_iterations),
    ("fixedpoint", "invariant_distance_upper", False, None),
    ("fixedpoint", "verify_decay", False, None),
    ("cli", "main", False, None),
)

KERNEL = ("kernels.polyline_length", "kernels.polyline_lengths")
CONTAINS = ("domains.Polydisc.contains", "domains.SemiAnalytic.contains")
BOUNDARY = ("domains.Polydisc.boundary_distance", "domains.SemiAnalytic.boundary_distance")
MAP_EVAL = ("holomap.HoloMap.eval", "holomap.HoloMap.eval_array", "holomap.HoloMap.jvp")
FIELD_EVAL = (
    "metrics.PolydiscModelField.eval",
    "metrics.CompetitorMetricField.eval",
    "metrics.AnalyticDiskField.eval",
)
POINTWISE = ("metrics.caratheodory_metric", "metrics.kobayashi_metric", "metrics.caratheodory_distance")

# (name, unit, better, exact): exact metrics are counts, or ratios of
# counts, and must repeat exactly from round to round and run to run.
# Counts and times are per round; the *_s times are self times except
# fixedpoint.invariant_distance_s, which includes the metrics it calls.
LAYER_METRICS = (
    ("kernels.calls", "count", "lower", True),
    ("kernels.polylines", "count", "lower", True),
    ("kernels.s", "s", "lower", False),
    ("kernels.node_evals", "count", "lower", True),
    ("kernels.bytes_computed", "bytes", "lower", True),
    ("kernels.inside_ratio", "ratio", "higher", True),
    ("metrics.integrated_calls", "count", "lower", True),
    ("metrics.integrated_s", "s", "lower", False),
    ("metrics.path_excess", "distance", "lower", True),
    ("metrics.pointwise_calls", "count", "lower", True),
    ("metrics.pointwise_s", "s", "lower", False),
    ("metrics.field_eval_calls", "count", "lower", True),
    ("metrics.field_eval_s", "s", "lower", False),
    ("metrics.contains_per_pointwise", "ratio", "lower", True),
    ("domains.contains_calls", "count", "lower", True),
    ("domains.contains_s", "s", "lower", False),
    ("domains.sample_points", "count", "lower", True),
    ("domains.sample_s", "s", "lower", False),
    ("domains.contains_per_sample_point", "ratio", "lower", True),
    ("domains.boundary_distance_calls", "count", "lower", True),
    ("domains.boundary_distance_s", "s", "lower", False),
    ("domains.inner_gap_s", "s", "lower", False),
    ("holomap.eval_calls", "count", "lower", True),
    ("holomap.eval_s", "s", "lower", False),
    ("holomap.range_check_calls", "count", "lower", True),
    ("holomap.range_check_s", "s", "lower", False),
    ("contraction.certificate_calls", "count", "lower", True),
    ("contraction.certificate_s", "s", "lower", False),
    ("fixedpoint.picard_calls", "count", "lower", True),
    ("fixedpoint.picard_s", "s", "lower", False),
    ("fixedpoint.iterations", "count", "lower", True),
    ("fixedpoint.invariant_distance_s", "s", "lower", False),
    ("cli.import_s", "s", "lower", False),
    ("cli.main_ms", "ms", "lower", False),
    ("trace.overhead", "ratio", "lower", False),
)


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.missing = []
        self._stack = []  # frames [child seconds, nearest span]
        self._patches = []
        self._ids = 0
        self.round = 0
        self._reset()

    def _reset(self):
        self.calls = collections.Counter()
        self.total_s = collections.defaultdict(float)
        self.self_s = collections.defaultdict(float)
        self.work = collections.defaultdict(float)
        self._first_span = len(self.spans)

    # -- spans ------------------------------------------------------------

    def _open(self, name, parent):
        self._ids += 1
        return {
            "id": self._ids,
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": parent["op"] if parent else self._ids,
            "round": self.round,
            "hot": {},
        }

    def _close(self, span, start, end):
        span["start"] = start - self.t0
        span["end"] = end - self.t0
        self.spans.append(span)

    @contextlib.contextmanager
    def operation(self, name):
        """One span for one operation of the workload."""
        span = self._open("op." + name, None)
        self._stack.append([0.0, span])
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._close(span, start, end)

    def _wrap(self, fn, name, hot, hook):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            outer = parent[1] if parent else None
            span = outer if hot else tracer._open(name, outer)
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += own
                if not hot:
                    tracer._close(span, start, end)
                elif span is not None:
                    rec = span["hot"].setdefault(name, [0, 0.0])
                    rec[0] += 1
                    rec[1] += own
            if hook is not None:
                hook(tracer.work, args, kwargs, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap every target; a target the package no longer has is skipped."""
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "hypermetric"]
        self.missing = []
        for where, attr, hot, hook in TARGETS:
            modname, _, clsname = where.partition(":")
            try:
                mod = importlib.import_module("hypermetric." + modname)
            except ImportError:
                self.missing.append(f"{where}.{attr}")
                continue
            owner = getattr(mod, clsname, None) if clsname else mod
            name = ".".join(filter(None, (modname, clsname, attr)))
            if owner is None or attr not in vars(owner):
                self.missing.append(name)
                continue
            orig = vars(owner)[attr]
            wrapped = self._wrap(orig, name, hot, hook)
            if clsname:
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            # a module function is also bound wherever it was imported by name
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- per-round metrics --------------------------------------------------

    def start_round(self):
        self.round += 1
        self._reset()

    def round_metrics(self):
        """Per-module metrics of the round since start_round()."""
        calls, self_s, work = self.calls, self.self_s, self.work
        spans = self.spans[self._first_span:]
        n = lambda names: sum(calls[k] for k in names)  # noqa: E731
        s = lambda names: sum(self_s[k] for k in names)  # noqa: E731

        # membership tests made inside each span's subtree; children close,
        # and are appended, before their parents
        below = collections.Counter()
        for sp in spans:
            below[sp["id"]] += sum(sp["hot"].get(k, [0])[0] for k in CONTAINS)
            if sp["parent"] is not None:
                below[sp["parent"]] += below[sp["id"]]
        names = {sp["id"]: sp["name"] for sp in spans}
        top = lambda group: [  # noqa: E731
            sp for sp in spans if sp["name"] in group and names.get(sp["parent"]) not in group
        ]
        pointwise = top(POINTWISE)
        samples = top(("domains.sample",))
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731

        polylines = work["kernels.polylines"]
        return {
            "kernels.calls": n(KERNEL),
            "kernels.polylines": polylines,
            "kernels.s": s(KERNEL),
            "kernels.node_evals": work["kernels.node_evals"],
            "kernels.bytes_computed": work["kernels.bytes_computed"],
            "kernels.inside_ratio": ratio(work["kernels.inside"], polylines),
            "metrics.integrated_calls": calls["metrics.integrated_distance"],
            "metrics.integrated_s": self_s["metrics.integrated_distance"],
            "metrics.pointwise_calls": n(POINTWISE),
            "metrics.pointwise_s": s(POINTWISE),
            "metrics.field_eval_calls": n(FIELD_EVAL),
            "metrics.field_eval_s": s(FIELD_EVAL),
            "metrics.contains_per_pointwise": ratio(
                sum(below[sp["id"]] for sp in pointwise), len(pointwise)
            ),
            "domains.contains_calls": n(CONTAINS),
            "domains.contains_s": s(CONTAINS),
            "domains.sample_points": work["domains.sample_points"],
            "domains.sample_s": self_s["domains.sample"],
            "domains.contains_per_sample_point": ratio(
                sum(below[sp["id"]] for sp in samples), work["domains.sample_points"]
            ),
            "domains.boundary_distance_calls": n(BOUNDARY),
            "domains.boundary_distance_s": s(BOUNDARY),
            "domains.inner_gap_s": self_s["domains.inner_gap"],
            # eval goes through eval_array, so eval_array and jvp count every evaluation
            "holomap.eval_calls": n(MAP_EVAL[1:]),
            "holomap.eval_s": s(MAP_EVAL),
            "holomap.range_check_calls": calls["holomap.range_check"],
            "holomap.range_check_s": self_s["holomap.range_check"],
            "contraction.certificate_calls": calls["contraction.certificate_for"],
            "contraction.certificate_s": self_s["contraction.certificate_for"],
            "fixedpoint.picard_calls": calls["fixedpoint.picard_solve"],
            "fixedpoint.picard_s": self_s["fixedpoint.picard_solve"],
            "fixedpoint.iterations": work["fixedpoint.iterations"],
            "fixedpoint.invariant_distance_s": self.total_s["fixedpoint.invariant_distance_upper"],
        }

    def write(self, path, extra):
        doc = dict(extra, missing_targets=self.missing, spans=self.spans)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def median_of_rounds(rounds):
    """Exact metrics from the first round, times as medians over the rounds."""
    out = {}
    for name, unit, _, exact in LAYER_METRICS:
        vals = [r[name] for r in rounds if name in r]
        if vals:
            out[name] = vals[0] if exact else statistics.median(vals)
            if unit in ("count", "bytes"):
                out[name] = int(out[name])
    return out
