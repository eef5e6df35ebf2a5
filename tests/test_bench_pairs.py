"""tools/bench_pairs.py: the pair comparison and the claim rule of BENCH_*.json."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"unit": "count", "better": "higher", "bound": 0.25}


class TestCompare:
    def test_wins_losses_and_ties(self):
        m = bench_pairs.compare([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0], LOWER)
        assert (m["pairs_change_better"], m["pairs_change_worse"]) == (2, 1)
        assert m["parent"]["median"] == 2.5 and m["change"]["median"] == 2.5
        assert m["parent"]["runs"] == [1.0, 2.0, 3.0, 4.0]
        assert m["change_over_parent_median"] == 1.0
        assert m["within_bound"]

    def test_higher_is_better(self):
        m = bench_pairs.compare([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0], HIGHER)
        assert (m["pairs_change_better"], m["pairs_change_worse"]) == (1, 2)

    @pytest.mark.parametrize(
        "spec, change, within",
        [
            (LOWER, 1.2, True),
            (LOWER, 1.3, False),
            (LOWER, 0.5, True),
            (HIGHER, 0.8, True),
            (HIGHER, 0.7, False),
            (HIGHER, 2.0, True),
        ],
    )
    def test_within_bound(self, spec, change, within):
        m = bench_pairs.compare([1.0] * 4, [change] * 4, spec)
        assert m["within_bound"] is within


def _write_runs(path, parent, change, metric):
    with open(path, "w") as fh:
        for i, (p, c) in enumerate(zip(parent, change)):
            for side, value in (("parent", p), ("change", c)):
                result = {"correct": True, "attempted": 5, "failed": 0,
                          "metrics": {metric: {"value": value}}}
                fh.write(json.dumps({"workload": "polydisc_paths", "pair": i, "seed": 100 + i,
                                     "side": side, "pos": 0, "seconds": 1, "trace": 0,
                                     "result": result}) + "\n")


def _claim(tmp_path, monkeypatch, spec, parent, change):
    """The claim summarize() reports for one metric over synthetic run lines."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "m", **spec}]}))
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_pairs, "versions", lambda: {})
    runs, out = tmp_path / "runs.jsonl", tmp_path / "bench.json"
    _write_runs(runs, parent, change, "m")
    bench_pairs.main(["summarize", str(runs), "--out", str(out), "--title", "t",
                      "--parent-rev", "p", "--claim", "polydisc_paths:m"])
    doc = json.loads(out.read_text())
    assert doc["workloads"]["polydisc_paths"]["pairs"] == len(parent)
    (claim,) = doc["claims"]
    return claim


# parent runs 1.00 .. 1.09: median 1.045, interquartile range 0.045
NARROW = [1.0 + 0.01 * i for i in range(10)]


class TestClaimRule:
    def test_met(self, tmp_path, monkeypatch):
        c = _claim(tmp_path, monkeypatch, LOWER, NARROW, [0.5 * p for p in NARROW])
        assert c["met"] and c["clears_bound"] and c["pairs_change_better"] == 10
        assert c["median_gap"] == pytest.approx(0.5225)
        assert c["parent_iqr"] == pytest.approx(0.045)

    @pytest.mark.parametrize("wins, met", [(10, True), (9, True), (8, False)])
    def test_needs_nine_of_ten_pairs(self, tmp_path, monkeypatch, wins, met):
        change = [0.5 * p if i < wins else p + 0.1 for i, p in enumerate(NARROW)]
        c = _claim(tmp_path, monkeypatch, LOWER, NARROW, change)
        assert c["pairs_change_better"] == wins
        assert c["clears_bound"] and c["met"] is met

    @pytest.mark.parametrize("pairs, wins, met", [(20, 18, True), (20, 17, False), (5, 5, True),
                                                  (5, 4, False)])
    def test_ceiling_of_nine_tenths(self, tmp_path, monkeypatch, pairs, wins, met):
        parent = [1.0 + 0.01 * i for i in range(pairs)]
        change = [0.5 * p if i < wins else p + 0.1 for i, p in enumerate(parent)]
        c = _claim(tmp_path, monkeypatch, LOWER, parent, change)
        assert c["met"] is met

    def test_gap_must_exceed_parent_iqr(self, tmp_path, monkeypatch):
        # parent 1.0 .. 1.9: median 1.45, interquartile range 0.45
        wide = [1.0 + 0.1 * i for i in range(10)]
        c = _claim(tmp_path, monkeypatch, LOWER, wide, [p - 0.4 for p in wide])
        assert c["pairs_change_better"] == 10 and c["clears_bound"]
        assert c["median_gap"] < c["parent_iqr"] and not c["met"]

    def test_gap_must_clear_the_bound(self, tmp_path, monkeypatch):
        c = _claim(tmp_path, monkeypatch, LOWER, NARROW, [0.9 * p for p in NARROW])
        assert c["pairs_change_better"] == 10 and c["median_gap"] > c["parent_iqr"]
        assert not c["clears_bound"] and not c["met"]

    @pytest.mark.parametrize("factor, met", [(2.0, True), (0.5, False)])
    def test_higher_is_better(self, tmp_path, monkeypatch, factor, met):
        parent = [100.0 + i for i in range(10)]
        c = _claim(tmp_path, monkeypatch, HIGHER, parent, [factor * p for p in parent])
        assert c["pairs_change_better"] == (10 if met else 0)
        assert (c["median_gap"] > 0) is met and c["met"] is met
