import csv
import json
import math

import pytest

from hypermetric.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestMetricCommand:
    def test_caratheodory_offcenter(self, capsys):
        doc = run_json(
            capsys,
            "metric",
            "--domain", "disk:0,1",
            "--point", "0.5",
            "--vector", "1",
            "--metric", "caratheodory",
        )
        assert doc["result"]["value"] == pytest.approx(1.333333, abs=1e-6)
        assert doc["result"]["kind"] == "exact"

    def test_poincare_shortcut(self, capsys):
        doc = run_json(
            capsys, "metric", "--point", "0", "--vector", "1", "--metric", "poincare"
        )
        assert doc["result"]["value"] == pytest.approx(1.0)

    def test_polydisc_literal(self, capsys):
        doc = run_json(
            capsys,
            "metric",
            "--domain", "polydisc:0,0;1,2",
            "--point", "0,0",
            "--vector", "0,1",
            "--metric", "kobayashi",
        )
        assert doc["result"]["value"] == pytest.approx(0.5)

    def test_inline_json_domain(self, capsys):
        doc = run_json(
            capsys,
            "metric",
            "--domain", '{"kind": "disk", "centers": [[0, 0]], "radii": [2]}',
            "--point", "0",
            "--vector", "1",
            "--metric", "caratheodory",
        )
        assert doc["result"]["value"] == pytest.approx(0.5)


class TestDistanceCommand:
    def test_disk_distance(self, capsys):
        doc = run_json(
            capsys,
            "distance",
            "--domain", "disk:0,1",
            "--a", "0",
            "--b", "0.5",
            "--kind", "caratheodory",
        )
        assert doc["result"]["value"] == pytest.approx(math.atanh(0.5))

    def test_integrated_matches_closed_form(self, capsys):
        doc = run_json(
            capsys,
            "distance",
            "--domain", "disk:0,1",
            "--a", "0",
            "--b", "0.5",
            "--kind", "integrated-kobayashi",
        )
        assert doc["result"]["value"] == pytest.approx(math.atanh(0.5), abs=1e-4)
        assert doc["result"]["kind"] == "upper"


class TestDiameterCommand:
    def test_concentric(self, capsys):
        doc = run_json(capsys, "diameter", "--X", "disk:0,1", "--U", "disk:0,0.5")
        assert doc["result"]["value"] == pytest.approx(math.log(3))
        assert doc["result"]["kind"] == "exact"


class TestContractionCommand:
    def test_dilation_example(self, capsys):
        doc = run_json(
            capsys,
            "contraction",
            "--X", "disk:0,1",
            "--U", "disk:0,0.5",
            "--method", "dilation",
        )
        assert doc["result"]["k"] == pytest.approx(2 / 3)
        assert doc["result"]["rigorous"] is True

    def test_tanh_example(self, capsys):
        doc = run_json(
            capsys,
            "contraction",
            "--X", "disk:0,1",
            "--U", "disk:0,0.5",
            "--method", "tanh_diameter",
        )
        assert doc["result"]["k"] == pytest.approx(0.8)


class TestVerifyCommand:
    def test_holds(self, capsys):
        doc = run_json(
            capsys,
            "verify",
            "--X", "disk:0,1",
            "--U", "disk:0,0.5",
            "--k", "0.8",
            "--samples", "64",
        )
        assert doc["result"]["verdict"] == "holds"
        assert doc["result"]["violated"] == 0


class TestFixpointCommand:
    def test_quadratic(self, capsys):
        doc = run_json(
            capsys,
            "fixpoint",
            "--X", "disk:0,1",
            "--U", "disk:0,0.6",
            "--map", "(z1^2 + 1)/4",
            "--x0", "0",
        )
        c = doc["result"]["fixed_point"][0]
        assert c[0] == pytest.approx(2 - math.sqrt(3), abs=1e-7)
        assert c[1] == pytest.approx(0.0, abs=1e-12)
        assert doc["result"]["residual"] < 1e-10
        assert doc["result"]["certificate"]["rigorous"] is True

    def test_trace_csv(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        run_json(
            capsys,
            "fixpoint",
            "--X", "disk:0,1",
            "--U", "disk:0,0.6",
            "--map", "z1/2",
            "--x0", "0.5",
            "--trace", str(path),
        )
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "iter"
        assert float(rows[2][1]) == pytest.approx(0.25)

    def test_nonconvergence_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys,
            "fixpoint",
            "--X", "disk:0,1",
            "--U", "disk:0,0.6",
            "--map", "z1/2",
            "--x0", "0.5",
            "--max-iter", "2",
        )
        assert code == 3
        assert "non-convergence" in err


class TestConfigAndOutput:
    def test_deterministic_bytes(self, capsys):
        argv = ["verify", "--X", "disk:0,1", "--U", "disk:0,0.5", "--k", "0.9",
                "--samples", "32"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys,
            "metric",
            "--domain", "disk:0,1",
            "--point", "0",
            "--vector", "1",
            "--metric", "caratheodory",
            "--out", str(path),
        )
        assert code == 0 and out == ""
        doc = json.loads(path.read_text())
        assert doc["result"]["value"] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["diameter", "--X", "disk:0,1", "--U", "disk:0,0.5"], "--out"),
            (["fixpoint", "--X", "disk:0,1", "--U", "disk:0,0.6", "--map", "(z1^2+1)/4",
              "--x0", "0"], "--trace"),
        ],
    )
    def test_unwritable_path_is_a_usage_error(self, capsys, tmp_path, argv, flag):
        path = str(tmp_path / "missing" / "o")
        code, _, err = run_cli(capsys, *argv, flag, path)
        assert code == 1
        assert err.startswith(f"usage error: cannot write {path!r}")

    def test_config_file_supplies_options(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"domain": "disk:0,1", "point": "0.5", "vector": "1"}))
        doc = run_json(
            capsys, "metric", "--metric", "caratheodory", "--config", str(cfg)
        )
        assert doc["result"]["value"] == pytest.approx(4 / 3)

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"domain": "disk:0,1", "point": "0.5", "vector": "1"}))
        doc = run_json(
            capsys,
            "metric",
            "--metric", "caratheodory",
            "--point", "0",
            "--config", str(cfg),
        )
        assert doc["result"]["value"] == pytest.approx(1.0)

    def test_config_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(json.dumps({"domain": "disk:0,1", "point": "0", "vector": "1"})),
        )
        doc = run_json(capsys, "metric", "--metric", "caratheodory", "--config", "-")
        assert doc["result"]["value"] == pytest.approx(1.0)

    def test_semianalytic_via_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "domain": {
                        "kind": "semianalytic",
                        "constraints": [{"map": "z1", "threshold": 1.0}],
                        "box": [[-1, 1, -1, 1]],
                    },
                    "point": "0",
                    "vector": "1",
                }
            )
        )
        doc = run_json(
            capsys, "metric", "--metric", "caratheodory", "--config", str(cfg)
        )
        assert doc["result"]["kind"] == "lower"
        assert doc["result"]["value"] >= 0.95

    def test_integrated_caratheodory_caveat(self, capsys, tmp_path):
        # the Moebius-cut disk of the CI workflow's semianalytic config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "semianalytic", "box": [[-1.05, 1.05, -1.05, 1.05]],
                       "constraints": [{"map": "(z1 - 0.2)/(1 - 0.2*z1)", "threshold": 1.0}]},
            "a": "0", "b": "0.5",
        }))
        doc = run_json(
            capsys, "distance", "--kind", "integrated-caratheodory", "--config", str(cfg)
        )
        assert doc["result"]["kind"] == "upper"
        assert doc["result"]["caveat"] == "infimum of a lower-bound metric: value may undershoot"


FIXPOINT = ["fixpoint", "--X", "disk:0,1", "--U", "disk:0,0.6", "--map", "z1/2",
            "--x0", "0.5"]


class TestConfigFields:
    """A config-file field passes the type and choices of its flag."""

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["distance", "--domain", "disk:0,1", "--a", "0", "--b", "0.5"],
             '{"kind": "kobayashi"}'),
            (["metric", "--domain", "disk:0,1", "--point", "0", "--vector", "1"],
             '{"metric": "bogus"}'),
            (["verify", "--X", "disk:0,1", "--U", "disk:0,0.5", "--k", "0.8"],
             '{"metric": "poincare"}'),
            (FIXPOINT, '{"step_invariant": "false"}'),
            (FIXPOINT, '{"tol": "tight"}'),
            (["metric", "--domain", "disk:0,1", "--vector", "1"], '{"point": 0.5}'),
            (["diameter", "--X", "disk:0,1", "--U", "disk:0,0.5"], '{"samples": 2.5}'),
            (["diameter", "--X", "disk:0,1", "--U", "disk:0,0.5"], '{"seed": true}'),
            (["diameter", "--U", "disk:0,0.5"], '{"X": 1}'),
            (["diameter", "--X", "disk:0,1", "--U", "disk:0,0.5"], '{"samples": 64'),
            (["diameter", "--X", "disk:0,1", "--U", "disk:0,0.5"], '["disk:0,1"]'),
            (["diameter", "--X", "disk:0,1", "--U", "disk:0,0.5"], None),
        ],
    )
    def test_bad_field_is_a_usage_error(self, capsys, tmp_path, argv, text):
        # None: the config file does not exist
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, field, value",
        [
            (["verify", "--X", "disk:0,1", "--U", "disk:0,0.5", "--k", "0.8"],
             "samples", 64),
            (FIXPOINT, "tol", 1),
            (FIXPOINT, "tol", "1e-8"),
            (FIXPOINT, "max_iter", "400"),
            (FIXPOINT, "step_invariant", True),
            (FIXPOINT, "method", "tanh_diameter"),
        ],
    )
    def test_field_reads_as_its_flag(self, capsys, tmp_path, argv, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        flag = "--" + field.replace("_", "-")
        _, via_flag, _ = run_cli(
            capsys, *argv, *([flag] if value is True else [flag, str(value)])
        )
        code, via_config, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0, err
        assert via_config == via_flag

    def test_domain_object_and_null_field(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"X": {"kind": "disk", "centers": [[0, 0]], "radii": [1]}, "seed": None}
        ))
        doc = run_json(capsys, "diameter", "--U", "disk:0,0.5", "--config", str(cfg))
        assert doc["config"]["seed"] == 0
        assert doc["result"]["value"] == pytest.approx(math.log(3))

    def test_provenance_records_defaults(self, capsys):
        doc = run_json(
            capsys, "distance", "--domain", "disk:0,1", "--a", "0", "--b", "0.5"
        )
        assert doc["config"]["kind"] == "caratheodory"
        doc = run_json(capsys, *FIXPOINT)
        assert doc["config"]["step_invariant"] is False
        assert doc["config"]["override_range"] is False
        assert doc["config"]["tol"] == 1e-10 and doc["config"]["samples"] == 512

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--X", "disk:0,1", "--U", "disk:0,0.5", "--seed=-1"],
             "seed must be an integer >= 0"),
            ([*FIXPOINT, "--max-iter=-3"], "max_iter must be an integer >= 0"),
            ([*FIXPOINT, "--tol=-1"], "tol must be a number >= 0"),
        ],
    )
    def test_negative_counts(self, capsys, argv, message):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and message in err


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["metric", "--domain", "disk:0,1", "--point", "0", "--vector", "1"], "--tol"),
            (["distance", "--domain", "disk:0,1", "--a", "0", "--b", "0.5"], "--samples"),
            (["diameter", "--X", "disk:0,1", "--U", "disk:0,0.5"], "--max-iter"),
            (["contraction", "--X", "disk:0,1", "--U", "disk:0,0.5"], "--tol"),
            (["verify", "--X", "disk:0,1", "--U", "disk:0,0.5", "--k", "0.8"], "--max-iter"),
        ],
    )
    def test_unread_flags_are_rejected(self, capsys, argv, flag):
        # only fixpoint reads --tol and --max-iter; metric and distance do not sample
        code, _, err = run_cli(capsys, *argv, flag, "5")
        assert code == 1 and f"unrecognized arguments: {flag} 5" in err

    def test_metric_config_has_no_samples(self, capsys):
        doc = run_json(
            capsys, "metric", "--domain", "disk:0,1", "--point", "0", "--vector", "1",
        )
        assert "samples" not in doc["config"]

    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "metric", "--point", "0", "--vector", "1")
        assert code == 1 and "usage error" in err

    def test_bad_domain_literal(self, capsys):
        for domain in (
            "annulus:0,1,2", "disk:0,inf", "polydisc:0;inf", "disk:0,abc", "polydisc:0;abc",
            '{"kind": "disk"}', '{"kind": "disk", ',
        ):
            code, _, err = run_cli(
                capsys, "metric", "--domain", domain, "--point", "0",
                "--vector", "1", "--metric", "caratheodory",
            )
            assert code == 1, domain
            assert err.startswith("usage error:"), domain

    def test_precondition_error(self, capsys):
        # point outside the domain
        for argv in (
            ["metric", "--domain", "disk:0,1", "--point", "2", "--vector", "1",
             "--metric", "caratheodory"],
            ["fixpoint", "--X", "disk:0,1", "--U", "disk:0,0.6", "--map", "z1/2",
             "--x0", "2"],
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv

    def test_range_precondition(self, capsys):
        code, _, err = run_cli(
            capsys,
            "fixpoint",
            "--X", "disk:0,1",
            "--U", "disk:0,0.5",
            "--map", "z1",
            "--x0", "0.1",
        )
        assert code == 2

    def test_non_finite_constant_in_map(self, capsys):
        code, out, err = run_cli(
            capsys, "fixpoint", "--X", "disk:0,1", "--U", "disk:0,0.6",
            "--map", "2^2000*z1", "--x0", "0",
        )
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and "offset 1" in err

    def test_non_finite_constant_in_constraint(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {
                "kind": "semianalytic",
                "constraints": [{"map": "1e999*z1", "threshold": 1.0}],
                "box": [[-1, 1, -1, 1]],
            },
            "point": "0.3",
            "vector": "1",
        }))
        code, out, err = run_cli(capsys, "metric", "--metric", "kobayashi", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and "offset 0" in err
