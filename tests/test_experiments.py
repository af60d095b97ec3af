import json
import math

import numpy as np
import pytest

from errorbudget.anneal import AnnealConfig, tune_delta
from errorbudget.experiments import ExperimentSpec, default_spec, run_experiment
from errorbudget.model import total_cost, total_error
from errorbudget.tfim import TfimConfig, build_tfim_model


def small_spec(kind, tmp_path, **overrides):
    base = {
        "cost_vs_eps": dict(
            targets=(1e-1, 1e-2),
            tfim=TfimConfig(n=6),
            anneal=AnnealConfig(num_steps=1500, restarts=3, seed=7),
        ),
        "granularity": dict(
            targets=(1e-1, 1e-2),
            tfim=TfimConfig(n=6),
            anneal=AnnealConfig(num_steps=1500, restarts=3, seed=7),
        ),
        "redundancy": dict(
            targets=(1e-1,),
            tfim=TfimConfig(n=6),
            anneal=AnnealConfig(num_steps=1500, restarts=3, seed=7),
            redundancies=(0, 2, 4),
            optimize_max_steps=25_000,
        ),
        "runtime": dict(
            targets=(1e-1,),
            tfim=TfimConfig(n=6),
            anneal=AnnealConfig(num_steps=1500, restarts=3, seed=7),
            redundancies=(2, 4),
            feasibility_max_steps=30_000,
        ),
    }[kind]
    base.update(overrides)
    return ExperimentSpec(kind=kind, out_path=tmp_path / f"{kind}.csv", **base)


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestSpecValidation:
    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            default_spec("warp", tmp_path / "x.csv")

    def test_empty_sweep(self, tmp_path):
        spec = small_spec("cost_vs_eps", tmp_path, targets=())
        with pytest.raises(ValueError, match="empty"):
            spec.validate()

    def test_non_decreasing_sweep(self, tmp_path):
        spec = small_spec("cost_vs_eps", tmp_path, targets=(1e-2, 1e-1))
        with pytest.raises(ValueError, match="decreasing"):
            spec.validate()

    def test_missing_output_directory(self, tmp_path):
        spec = small_spec("cost_vs_eps", tmp_path)
        spec = ExperimentSpec(
            kind=spec.kind,
            out_path=tmp_path / "missing" / "x.csv",
            targets=spec.targets,
            tfim=spec.tfim,
            anneal=spec.anneal,
        )
        with pytest.raises(ValueError, match="does not exist"):
            spec.validate()

    def test_redundancy_needs_enough_rotation_units(self, tmp_path):
        spec = small_spec("redundancy", tmp_path, redundancies=(0, 4 * 6))
        with pytest.raises(ValueError, match="rotation units"):
            spec.validate()

    @pytest.mark.parametrize("kind, overrides, match", [
        ("redundancy", dict(redundancies=(0, -1)), "non-negative"),
        ("runtime", dict(redundancies=(-2,)), "non-negative"),
        ("redundancy", dict(targets=(1e-1, 1e-2)), "one error target"),
        ("runtime", dict(targets=(1e-1, 1e-2)), "one error target"),
        ("cost_vs_eps", dict(redundancies=(2,)), "no redundancy counts"),
        ("granularity", dict(redundancies=(0,)), "no redundancy counts"),
    ])
    def test_sweep_rejected_at_entry(self, tmp_path, kind, overrides, match):
        with pytest.raises(ValueError, match=match):
            small_spec(kind, tmp_path, **overrides).validate()

    @pytest.mark.parametrize("kind, targets", [
        ("cost_vs_eps", (1e-1, math.nan)),
        ("granularity", (math.nan,)),
        ("redundancy", (math.nan,)),
    ])
    def test_nan_target_rejected(self, tmp_path, kind, targets):
        with pytest.raises(ValueError, match="error targets must be positive numbers, got nan"):
            small_spec(kind, tmp_path, targets=targets).validate()

    @pytest.mark.parametrize("field, value", [
        ("optimize_max_steps", 0), ("optimize_max_steps", -5), ("optimize_max_steps", 2.0),
        ("optimize_max_steps", True), ("feasibility_max_steps", 0),
        ("feasibility_max_steps", None), ("feasibility_max_steps", True),
        ("feasibility_max_steps", 1000.0),
    ])
    def test_step_budgets_rejected_at_entry(self, tmp_path, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*integer >= 1, got {value!r}"):
            small_spec("redundancy", tmp_path, **{field: value}).validate()

    def test_smallest_optimize_budget_is_used(self, tmp_path):
        spec = small_spec("redundancy", tmp_path, redundancies=(0,), optimize_max_steps=1,
                          anneal=AnnealConfig(num_steps=100, restarts=1, seed=7))
        meta = json.loads(run_experiment(spec).metadata_path.read_text())
        assert meta["step_budgets"] == [1]

    def test_default_specs_validate(self, tmp_path):
        for kind in ("cost_vs_eps", "granularity", "redundancy", "runtime"):
            default_spec(kind, tmp_path / f"{kind}.csv").validate()


class TestCostVsEps:
    def test_columns_and_improvement(self, tmp_path):
        result = run_experiment(small_spec("cost_vs_eps", tmp_path))
        header, rows = read_rows(result.csv_path)
        assert header[:4] == ["epsilon_target", "feasible_only_cost", "optimized_cost", "ratio"]
        assert len(rows) == 2
        for row in rows:
            assert row["flagged"] == "0"
            assert float(row["optimized_cost"]) <= float(row["feasible_only_cost"])
            assert float(row["ratio"]) >= 1.0

    def test_rows_recheck_against_evaluators(self, tmp_path):
        result = run_experiment(small_spec("cost_vs_eps", tmp_path))
        tree, binding = build_tfim_model(TfimConfig(n=6), "three_param")
        _, rows = read_rows(result.csv_path)
        for row in rows:
            theta = [float(x) for x in row["theta"].split(";")]
            assert total_cost(tree, binding, theta) == pytest.approx(
                float(row["optimized_cost"]), rel=1e-12
            )
            assert total_error(tree, binding, theta) == pytest.approx(
                float(row["optimized_error"]), rel=1e-12
            )
            assert total_error(tree, binding, theta) <= float(row["epsilon_target"])

    def test_metadata_records_configuration(self, tmp_path):
        result = run_experiment(small_spec("cost_vs_eps", tmp_path))
        meta = json.loads(result.metadata_path.read_text())
        assert meta["kind"] == "cost_vs_eps"
        assert meta["n"] == 6
        assert meta["anneal"]["restarts"] == 3
        assert meta["row_seeds"] == [7, 10]
        assert "created" in meta


class TestGranularity:
    def test_three_param_at_least_matches_two(self, tmp_path):
        result = run_experiment(small_spec("granularity", tmp_path))
        _, rows = read_rows(result.csv_path)
        for row in rows:
            assert row["flagged"] == "0"
            assert float(row["cost_3param"]) <= float(row["cost_2param"]) * 1.0001
            assert float(row["ratio"]) == pytest.approx(
                float(row["cost_2param"]) / float(row["cost_3param"]), rel=1e-12
            )

    def test_auto_delta_tunes_both_models(self, tmp_path):
        spec = small_spec("granularity", tmp_path, targets=(1e-1,),
                          anneal=AnnealConfig(num_steps=300, restarts=1, seed=5, auto_delta=True))
        result = run_experiment(spec)
        meta = json.loads(result.metadata_path.read_text())
        expected = []
        for preset in ("two_param", "three_param"):
            tree, binding = build_tfim_model(TfimConfig(n=6), preset)
            expected.append(tune_delta(tree, binding, 1e-1, spec.anneal, np.random.default_rng(5)))
        assert meta["tuned_deltas"] == [expected]

    def test_thetas_recheck(self, tmp_path):
        result = run_experiment(small_spec("granularity", tmp_path))
        tree, binding3 = build_tfim_model(TfimConfig(n=6), "three_param")
        _, binding2 = build_tfim_model(TfimConfig(n=6), "two_param")
        _, rows = read_rows(result.csv_path)
        for row in rows:
            theta2 = [float(x) for x in row["theta_2param"].split(";")]
            theta3 = [float(x) for x in row["theta_3param"].split(";")]
            assert total_cost(tree, binding2, theta2) == pytest.approx(
                float(row["cost_2param"]), rel=1e-12
            )
            assert total_cost(tree, binding3, theta3) == pytest.approx(
                float(row["cost_3param"]), rel=1e-12
            )


class TestRedundancy:
    def test_k0_ratio_is_one(self, tmp_path):
        result = run_experiment(small_spec("redundancy", tmp_path))
        _, rows = read_rows(result.csv_path)
        assert rows[0]["k_redundant"] == "0"
        assert float(rows[0]["best_cost_over_k0_ratio"]) == 1.0
        for row in rows:
            assert row["flagged"] == "0"
            assert float(row["improvement_factor"]) >= 1.0

    def test_rows_recheck(self, tmp_path):
        result = run_experiment(small_spec("redundancy", tmp_path))
        _, rows = read_rows(result.csv_path)
        for row in rows:
            k = int(row["k_redundant"])
            tree, binding = build_tfim_model(TfimConfig(n=6), "redundancy", k)
            theta = [float(x) for x in row["theta"].split(";")]
            assert total_cost(tree, binding, theta) == pytest.approx(
                float(row["best_cost"]), rel=1e-12
            )


    def test_pinned_row(self, kernel_engine, tmp_path):
        # Recorded CSV body and tuned widths: every chain and tuner pilot here
        # runs past several blocks of pre-drawn uniforms, so a change to the
        # order or number of draws per step, or to any chain state, moves them.
        spec = default_spec(
            "redundancy", tmp_path / "pinned.csv", tfim=TfimConfig(n=12), redundancies=(0, 10),
            anneal=AnnealConfig(num_steps=2000, restarts=2, auto_delta=True, seed=3),
            optimize_max_steps=4000,
        )
        result = run_experiment(spec)
        assert result.csv_path.read_text() == (
            "k_redundant,best_cost,best_cost_over_k0_ratio,steps_to_feasible,"
            "first_feasible_cost,improvement_factor,best_error,theta,flagged\n"
            "0,693162078.6557473,1.0,432,2814210527.9772553,4.059960310343099,"
            "0.09995276554040068,0.06970967088704358;3.8435170167437555e-05;"
            "4.5294042770198715e-10,0\n"
            "10,936906776.9059833,1.3516417094295339,2038,1268580662.2193074,"
            "1.3540094847094983,0.09711388693300281,0.06748975627837497;"
            "2.321060088322267e-05;1.849032002903288e-11;1.4887678202868218e-10;"
            "5.6787504623568e-09;8.24590489128922e-10;1.003889303860125e-09;"
            "1.172969653956562e-10;1.5116957897377347e-10;2.3519831118165775e-09;"
            "4.816563681120289e-09;3.171484688571168e-09;3.4041872905946176e-13,0\n"
        )
        meta = json.loads(result.metadata_path.read_text())
        assert meta["tuned_deltas"] == [3.983833442288991, 4.0]

    def test_pinned_row_reference_engine(self, reference_engine, tmp_path):
        self.test_pinned_row(None, tmp_path)


class TestRuntime:
    def test_columns_and_params(self, tmp_path):
        result = run_experiment(small_spec("runtime", tmp_path))
        header, rows = read_rows(result.csv_path)
        assert header[:3] == ["num_params", "median_steps_to_feasible", "median_wall_time"]
        assert [int(r["num_params"]) for r in rows] == [5, 7]
        for row in rows:
            assert int(row["runs_failed"]) == 0
            assert float(row["median_steps_to_feasible"]) > 0
            assert float(row["median_wall_time"]) > 0


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["cost_vs_eps", "granularity", "redundancy"])
    def test_reruns_are_byte_identical(self, kind, tmp_path):
        first = run_experiment(small_spec(kind, tmp_path))
        body = first.csv_path.read_bytes()
        second_dir = tmp_path / "again"
        second_dir.mkdir()
        second = run_experiment(small_spec(kind, second_dir))
        assert second.csv_path.read_bytes() == body

    def test_runtime_deterministic_apart_from_wall_time(self, tmp_path):
        def strip_wall(path):
            header, rows = read_rows(path)
            column = header.index("median_wall_time")
            return [
                [v for i, v in enumerate(line.split(",")) if i != column]
                for line in path.read_text().splitlines()
            ]

        first = run_experiment(small_spec("runtime", tmp_path))
        second_dir = tmp_path / "again"
        second_dir.mkdir()
        second = run_experiment(small_spec("runtime", second_dir))
        assert strip_wall(first.csv_path) == strip_wall(second.csv_path)
