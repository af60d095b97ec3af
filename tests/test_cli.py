import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from errorbudget.cli import main
from errorbudget.model import total_error, validate_model
from errorbudget.modelio import load_model

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestModelCommand:
    def test_writes_valid_model_file(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        code, stdout, _ = run_cli(
            capsys, "model", "tfim", "--n", "10", "--preset", "three-param",
            "--out", str(out),
        )
        assert code == 0
        tree, binding = load_model(out)
        assert validate_model(tree, binding).ok
        assert binding.group_names == ("eps_qpe", "eps_trotter", "eps_r")

    def test_redundancy_preset(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        code, _, _ = run_cli(
            capsys, "model", "tfim", "--n", "10", "--preset", "redundancy",
            "--redundant", "3", "--out", str(out),
        )
        assert code == 0
        _, binding = load_model(out)
        assert binding.dimension == 6

    def test_stdout_when_no_out(self, capsys):
        code, stdout, _ = run_cli(capsys, "model", "tfim", "--n", "4")
        assert code == 0
        document = json.loads(stdout)
        assert document["root"]["name"] == "phase_estimation"

    @pytest.mark.parametrize("argv", [
        ("--n", "4"),
        ("--n", "30", "--preset", "redundancy", "--redundant", "3"),
        ("--n", "10", "--preset", "two-param", "--trotter-coefficient", "3"),
    ])
    def test_stdout_has_the_bytes_of_the_file(self, tmp_path, capsys, argv):
        out = tmp_path / "model.json"
        code, stdout, _ = run_cli(capsys, "model", "tfim", *argv)
        assert code == 0
        assert run_cli(capsys, "model", "tfim", *argv, "--out", str(out))[0] == 0
        assert stdout.encode() == out.read_bytes()

    def test_invalid_configuration_exits_2(self, capsys):
        code, _, stderr = run_cli(capsys, "model", "tfim", "--n", "1")
        assert code == 2
        assert "invalid" in stderr


class TestOptimizeCommand:
    @pytest.fixture
    def model_file(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        run_cli(capsys, "model", "tfim", "--n", "6", "--out", str(out))
        return out

    def test_feasible_run_exits_0(self, model_file, capsys):
        code, stdout, _ = run_cli(
            capsys, "optimize", str(model_file), "--epsilon", "0.1",
            "--steps", "2000", "--seed", "5", "--restarts", "2",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["feasible"] is True
        assert payload["best_error"] <= 0.1
        assert set(payload["best_theta_by_group"]) == {"eps_qpe", "eps_trotter", "eps_r"}
        # reported hardware counts use integer step rounding, and still meet the target
        assert payload["best_cost_ceil"] >= payload["best_cost"]
        assert payload["best_error_ceil"] <= 0.1
        tree, binding = load_model(model_file)
        theta = [payload["best_theta_by_group"][g] for g in binding.group_names]
        assert total_error(tree, binding, theta) == pytest.approx(
            payload["best_error"], rel=1e-12
        )

    def test_point_infeasible_once_ceiled_exits_3(self, tmp_path, capsys):
        # the best point meets 0.1, but rounding its step counts up does not
        model = tmp_path / "model.json"
        run_cli(capsys, "model", "tfim", "--n", "10", "--preset", "three-param",
                "--out", str(model))
        code, stdout, stderr = run_cli(
            capsys, "optimize", str(model), "--epsilon", "0.1", "--restarts", "20",
            "--seed", "1",
        )
        assert code == 3
        payload = json.loads(stdout)
        assert payload["feasible"] is True
        assert payload["best_error"] <= 0.1 < payload["best_error_ceil"]
        assert f"ceiled error {payload['best_error_ceil']!r} exceeds the target 0.1" in stderr

    def test_trace_flag_includes_trace(self, model_file, capsys):
        code, stdout, _ = run_cli(
            capsys, "optimize", str(model_file), "--epsilon", "0.1",
            "--steps", "500", "--trace",
        )
        payload = json.loads(stdout)
        assert len(payload["trace"]) == 500
        assert {"mode", "cost", "error", "accepted", "delta_e"} <= set(payload["trace"][0])

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, stderr = run_cli(capsys, "optimize", str(bad), "--epsilon", "0.1")
        assert code == 1
        assert "parse error" in stderr
        assert ":1:" in stderr  # line-anchored

    def test_number_beyond_float_range_exits_1(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        run_cli(capsys, "model", "tfim", "--n", "4", "--out", str(path))
        document = json.loads(path.read_text())
        document["root"]["children"][0]["node"]["children"][0]["node"]["leaf_cost"]["count"] = (
            10**400
        )
        path.write_text(json.dumps(document))
        code, stdout, stderr = run_cli(capsys, "optimize", str(path), "--epsilon", "0.1")
        assert code == 1
        assert stdout == ""
        assert stderr == (
            "parse error: $.root.children[0].node.children[0].node.leaf_cost: "
            "key 'count' is out of the floating-point range\n"
        )

    def test_file_that_is_not_utf8_exits_1(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        run_cli(capsys, "model", "tfim", "--n", "4", "--out", str(path))
        text = path.read_bytes()
        at = text.index(b"phase_estimation")
        path.write_bytes(text[:at] + "é".encode("latin-1") + text[at:])  # a lone 0xE9
        code, stdout, stderr = run_cli(capsys, "optimize", str(path), "--epsilon", "0.1")
        assert code == 1
        assert stdout == ""
        assert stderr == (
            f"parse error: {path}: not UTF-8 text: invalid continuation byte at byte offset {at}\n"
        )

    def test_document_nested_too_deeply_exits_1(self, tmp_path, capsys):
        # 1,200 composites in a chain: about 3,600 nested JSON containers
        leaf = ('{"name": "g", "kind": "leaf", "self_error_group": "b",'
                ' "leaf_cost": {"count": 1, "gates_per_unit_logeps": 1}}')
        composite = ('{"name": "c", "kind": "composite",'
                     ' "children": [{"multiplicity": {"coefficient": 1}, "node": ')
        path = tmp_path / "deep.json"
        path.write_text('{"root": ' + composite * 1200 + leaf + "}]}" * 1200
                        + ', "binding": {"groups": {"b": ["b"]}}}', encoding="utf-8")
        code, stdout, stderr = run_cli(capsys, "optimize", str(path), "--epsilon", "0.1")
        assert code == 1
        assert stdout == ""
        assert stderr == f"parse error: {path}: nested too deeply to decode\n"

    def test_invalid_model_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "root": {"name": "g", "kind": "leaf", "self_error_group": "a",
                     "leaf_cost": {"count": 1, "gates_per_unit_logeps": 4}},
            "binding": {"groups": {"a": ["a"], "ghost": ["b"]}},
        }))
        code, _, stderr = run_cli(capsys, "optimize", str(bad), "--epsilon", "0.1")
        assert code == 2
        assert "unknown slot" in stderr or "unbound" in stderr

    @pytest.mark.parametrize("where, field, value", [
        (("children", 0, "node", "children", 0, "node", "leaf_cost"), "gates_per_unit_logeps",
         float("nan")),
        (("children", 0, "multiplicity"), "coefficient", float("inf")),
    ])
    def test_non_finite_model_number_exits_2(self, tmp_path, capsys, where, field, value):
        path = tmp_path / "model.json"
        run_cli(capsys, "model", "tfim", "--n", "4", "--preset", "three-param", "--out", str(path))
        document = json.loads(path.read_text())
        part = document["root"]
        for key in where:
            part = part[key]
        part[field] = value
        path.write_text(json.dumps(document))  # as JSON's NaN and Infinity
        code, stdout, stderr = run_cli(capsys, "optimize", str(path), "--epsilon", "0.1")
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"{path}: model failed validation: ")
        assert "non-finite" in stderr

    def test_tune_delta_run_validates_the_model_once(self, model_file, capsys, monkeypatch):
        modules = [importlib.import_module(f"errorbudget.{name}")
                   for name in ("model", "anneal", "experiments", "cli")]
        validate = modules[0].validate_model
        calls = []

        def counted(*args):
            calls.append(args)
            return validate(*args)

        for module in modules:  # every name a caller can reach it by
            monkeypatch.setattr(module, "validate_model", counted)
        code, _, _ = run_cli(
            capsys, "optimize", str(model_file), "--epsilon", "0.1", "--steps", "300",
            "--tune-delta",
        )
        assert code in (0, 3)  # feasibility does not matter here
        assert len(calls) == 1

    def test_zero_epsilon_exits_3(self, model_file, capsys):
        code, _, stderr = run_cli(capsys, "optimize", str(model_file), "--epsilon", "0")
        assert code == 3

    def test_unreachable_target_exits_3(self, model_file, capsys):
        code, stdout, _ = run_cli(
            capsys, "optimize", str(model_file), "--epsilon", "1e-25", "--steps", "50",
        )
        assert code == 3
        payload = json.loads(stdout)
        assert payload["feasible"] is False

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize"])  # missing required arguments
        assert excinfo.value.code == 1

    def test_config_file_with_flag_override(self, model_file, tmp_path, capsys):
        config = tmp_path / "anneal.json"
        config.write_text(json.dumps({"num_steps": 2500, "seed": 9, "restarts": 1}))
        code, stdout, _ = run_cli(
            capsys, "optimize", str(model_file), "--epsilon", "0.1",
            "--config", str(config), "--restarts", "2",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert [r["seed"] for r in payload["runs"]] == [9, 10]

    def test_explicit_delta_overrides_config_tuning(self, model_file, tmp_path, capsys):
        config = tmp_path / "anneal.json"
        config.write_text(json.dumps({"num_steps": 500, "auto_delta": True}))
        code, stdout, _ = run_cli(
            capsys, "optimize", str(model_file), "--epsilon", "0.1",
            "--config", str(config), "--delta", "0.3",
        )
        assert code in (0, 3)  # feasibility does not matter here
        assert json.loads(stdout)["delta"] == 0.3

    @pytest.mark.parametrize("config, field", [
        ({"num_steps": "100"}, "num_steps"),
        ({"beta_max": None}, "beta_max"),
        ({"auto_delta": "yes"}, "auto_delta"),
    ])
    def test_mistyped_config_exits_2(self, model_file, tmp_path, capsys, config, field):
        path = tmp_path / "anneal.json"
        path.write_text(json.dumps(config))
        code, _, stderr = run_cli(
            capsys, "optimize", str(model_file), "--epsilon", "0.1", "--config", str(path),
        )
        assert code == 2
        assert f"invalid configuration: {field} must be" in stderr


class TestExperimentCommand:
    def test_cost_vs_eps_small(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run_cli(
            capsys, "experiment", "cost-vs-eps", "--out", str(out),
            "--epsilon", "0.1,0.01", "--n", "6", "--steps", "800", "--restarts", "2",
            "--seed", "3",
        )
        assert code == 0
        assert out.exists()
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["anneal"]["num_steps"] == 800
        assert meta["targets"] == [0.1, 0.01]

    def test_runtime_with_redundancies(self, tmp_path, capsys):
        out = tmp_path / "rt.csv"
        code, _, _ = run_cli(
            capsys, "experiment", "runtime", "--out", str(out),
            "--n", "6", "--redundancies", "2,4", "--restarts", "2", "--steps", "1500",
            "--delta", "2.0",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("num_params,median_steps_to_feasible,median_wall_time")
        assert len(lines) == 3

    def test_unknown_kind_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "nope", "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 1


class TestVerifyCommands:
    def test_lemma1_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "verify", "lemma1", "--length", "5", "--dimension", "4",
            "--trials", "50", "--epsilon", "0.02", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["violations"] == 0
        assert report["max_ratio"] <= 1.0
        assert report["trials"] == 50

    def test_trotter_report(self, tmp_path, capsys):
        out = tmp_path / "trotter.json"
        code, _, _ = run_cli(
            capsys, "verify", "trotter", "--n", "3", "--step-counts", "8,16,32",
            "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert -1.3 <= report["orders"]["first"]["fitted_slope"] <= -0.7
        assert -2.3 <= report["orders"]["second"]["fitted_slope"] <= -1.7

    def test_trotter_stdout(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "verify", "trotter", "--n", "2", "--step-counts", "4,8",
            "--orders", "first",
        )
        assert code == 0
        assert "fitted_slope" in stdout

    @pytest.mark.parametrize("flag, value, named", [
        ("--trials", "-2", "trials"), ("--trials", "0", "trials"), ("--length", "0", "length"),
        ("--dimension", "6", "dimension"), ("--epsilon", "2.5", "epsilons"),
        ("--epsilon", "nan", "epsilons"),
    ])
    def test_lemma1_bad_argument_exits_2(self, capsys, flag, value, named):
        code, stdout, stderr = run_cli(capsys, "verify", "lemma1", flag, value)
        assert code == 2
        assert stdout == ""
        assert named in stderr


def test_text_files_name_their_encoding(tmp_path):
    # under -X warn_default_encoding, opening a text file without an encoding
    # warns, and -W error turns the warning into a failure
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from errorbudget import AnnealConfig, TfimConfig, build_tfim_model\n"
        "from errorbudget import load_model, save_model\n"
        "from errorbudget.cli import main\n"
        "out = Path(sys.argv[1])\n"
        "tree, binding = build_tfim_model(TfimConfig(n=4))\n"
        "save_model(tree, binding, out / 'model.json')\n"
        "assert load_model(out / 'model.json') == (tree, binding)\n"
        "(out / 'anneal.json').write_text('{\"num_steps\": 300}', encoding='utf-8')\n"
        "assert AnnealConfig.from_json(out / 'anneal.json').num_steps == 300\n"
        "assert main(['experiment', 'cost-vs-eps', '--out', str(out / 'sweep.csv'),\n"
        "             '--epsilon', '0.1', '--n', '4', '--steps', '300', '--restarts', '1']) == 0\n"
        "assert main(['verify', 'lemma1', '--trials', '5',\n"
        "             '--out', str(out / 'lemma.json')]) == 0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", code, str(tmp_path)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "anneal.json", "lemma.json", "model.json", "sweep.csv", "sweep.csv.meta.json"]
