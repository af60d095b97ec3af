import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from errorbudget.anneal import (
    AnnealConfig,
    InfeasibleError,
    RefinementError,
    _move,
    acceptance_probability,
    anneal,
    find_feasible,
    grid_search_reference,
    log_grid,
    measure_acceptance,
    tune_delta,
    warm_start,
)
from errorbudget.model import (
    EPSILON_CEILING,
    BudgetNode,
    EvaluationError,
    LeafCost,
    ModelError,
    Multiplicity,
    NodeKind,
    ParameterBinding,
    Rounding,
    compile_model,
    total_cost,
    total_error,
)
from errorbudget.tfim import TfimConfig, build_tfim_model
from test_chain_kernel import assert_same_repr
from test_model import as_continuous, random_tree

# the module, not the function the package namespace exports under this name
ANNEAL = importlib.import_module("errorbudget.anneal")


def zero_error_model():
    """Model whose error is identically zero (all leaf counts zero)."""
    leaf = BudgetNode.leaf("noop", "eps", LeafCost(0.0, 1.0))
    tree = BudgetNode.composite("root", None, [(Multiplicity(2.0), leaf)])
    return tree, ParameterBinding.from_dict({"eps": ["eps"]})


def single_leaf_problem(count=2.0):
    leaf = BudgetNode.leaf("gate", "eps", LeafCost(count, 4.0))
    return leaf, ParameterBinding.from_dict({"eps": ["eps"]})


class TestAnnealConfig:
    @pytest.mark.parametrize("field, value", [
        ("num_steps", 50.5), ("num_steps", "100"), ("restarts", True), ("seed", 1.0),
        ("beta_max", math.nan), ("delta", math.inf), ("mode_scale_error", "1"),
        ("mode_scale_cost", None), ("epsilon_init", True), ("auto_delta", 1),
        ("auto_delta", "yes"),
    ])
    def test_wrong_type_or_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            AnnealConfig(**{field: value})

    def test_numpy_and_integer_values_accepted(self):
        config = AnnealConfig(num_steps=np.int64(10), seed=np.int64(3), beta_max=10, delta=1)
        assert config.to_dict()["beta_max"] == 10


class TestPropose:
    """The move a chain step proposes, from its index, direction and factor uniforms."""

    def test_zero_width_is_identity(self):
        theta = [0.1, 0.2, 0.3]
        index, value = _move(theta, 0.0, 0.5, 0.1, 0.7)
        assert index == 1
        assert value == theta[index]

    def test_multiply_branch_hits_full_factor(self):
        # draw order: index, direction (< 0.5 multiplies), factor
        delta = 0.5
        index, value = _move([0.1], delta, 0.0, 0.0, 0.0)
        assert index == 0
        assert value == 0.1 * (1 + delta)

    def test_divide_branch(self):
        delta = 0.5
        _, value = _move([0.1], delta, 0.0, 0.9, 0.0)
        assert value == 0.1 / (1 + delta)

    def test_factor_stays_in_half_open_interval(self):
        rng = np.random.default_rng(0)
        theta = [0.25]
        for _ in range(2000):
            _, value = _move(theta, 0.5, *rng.random(3))
            ratio = value / theta[0]
            factor = ratio if ratio > 1 else 1 / ratio
            assert 1.0 < factor <= 1.5

    def test_exactly_one_entry_changes(self):
        # a move names one entry and its new value, and that value differs
        rng = np.random.default_rng(1)
        theta = [0.1, 0.2, 0.3, 0.4]
        for _ in range(500):
            index, value = _move(theta, 0.5, *rng.random(3))
            assert index in range(len(theta))
            assert value != theta[index]

    def test_index_frequency_is_uniform(self):
        rng = np.random.default_rng(2)
        dimension, draws = 5, 100_000
        theta = [0.1] * dimension
        counts = np.zeros(dimension)
        for u in rng.random((draws, 3)).tolist():
            index, _ = _move(theta, 0.5, *u)
            counts[index] += 1
        p = 1.0 / dimension
        sigma = math.sqrt(p * (1 - p) / draws)
        assert np.all(np.abs(counts / draws - p) <= 3 * sigma)

    def test_clamps_at_boundaries(self):
        _, value = _move([EPSILON_CEILING], 0.5, 0.0, 0.0, 0.0)
        assert value == EPSILON_CEILING
        _, value = _move([1e-30], 0.5, 0.0, 0.9, 0.0)
        assert value == 1e-30


class TestAcceptanceProbability:
    def test_zero_delta_e(self):
        for beta in (0.0, 1.0, 100.0):
            assert acceptance_probability(0.0, beta) == 1.0

    def test_zero_beta(self):
        for delta_e in (-5.0, 0.5, 1e9):
            assert acceptance_probability(delta_e, 0.0) == 1.0

    def test_half_at_log_two(self):
        assert acceptance_probability(math.log(2.0), 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_non_finite_change_never_accepted(self):
        assert acceptance_probability(math.nan, 5.0) == 0.0
        assert acceptance_probability(math.inf, 0.0) == 0.0
        assert acceptance_probability(math.inf, 5.0) == 0.0

    def test_downhill_always_one(self):
        assert acceptance_probability(-1e-12, 50.0) == 1.0


def tfim_problem(n=10):
    cfg = TfimConfig(n=n)
    return build_tfim_model(cfg)


class TestAnneal:
    def test_zero_error_model_starts_in_cost_mode(self):
        tree, binding = zero_error_model()
        config = AnnealConfig(num_steps=50, seed=3)
        result = anneal(tree, binding, 0.5, config)
        assert result.trace.cost_mode[0]
        assert all(result.trace.cost_mode)
        assert result.feasible
        assert result.best_cost <= 0.0 + 1e-12
        assert result.steps_to_feasible == 0

    def test_deterministic_given_seed(self):
        tree, binding = tfim_problem(n=6)
        config = AnnealConfig(num_steps=400, seed=11)
        first = anneal(tree, binding, 0.1, config)
        second = anneal(tree, binding, 0.1, config)
        assert first == second

    def test_restart_seeds_and_best_selection(self):
        tree, binding = tfim_problem(n=6)
        config = AnnealConfig(num_steps=5000, seed=20, restarts=5)
        result = anneal(tree, binding, 0.1, config)
        assert [run.seed for run in result.runs] == [20, 21, 22, 23, 24]
        feasible_costs = [run.best_cost for run in result.runs if run.best_cost is not None]
        assert feasible_costs
        assert result.best_cost == min(feasible_costs)
        singles = [
            anneal(tree, binding, 0.1, AnnealConfig(num_steps=5000, seed=s))
            for s in range(20, 25)
        ]
        assert min(s.best_cost for s in singles if s.feasible) == result.best_cost

    def test_trace_mode_matches_prestep_feasibility(self):
        tree, binding = tfim_problem(n=6)
        target = 0.1
        config = AnnealConfig(num_steps=2000, seed=7)
        result = anneal(tree, binding, target, config)
        initial_error = total_error(tree, binding, [0.1, 0.1, 0.1])
        previous_error = initial_error
        for cost_mode, error in zip(result.trace.cost_mode, result.trace.error):
            assert cost_mode == (previous_error <= target)
            previous_error = error

    def test_first_step_runs_at_beta_zero(self):
        # the linear ramp starts at beta = 0, where every move is accepted
        tree, binding = tfim_problem(n=6)
        for seed in range(8):
            result = anneal(tree, binding, 0.1, AnnealConfig(num_steps=5, seed=seed))
            assert result.trace.accepted[0]

    def test_downhill_moves_always_accepted(self):
        tree, binding = tfim_problem(n=6)
        trace = anneal(tree, binding, 0.1, AnnealConfig(num_steps=2000, seed=13)).trace
        assert not all(trace.accepted)
        for delta_e, accepted in zip(trace.delta_e, trace.accepted):
            if delta_e <= 0:
                assert accepted

    def test_rejected_steps_leave_state_bit_identical(self):
        tree, binding = tfim_problem(n=6)
        trace = anneal(tree, binding, 0.1, AnnealConfig(num_steps=2000, seed=13)).trace
        cost, error = trace.cost[0], trace.error[0]
        for step in range(1, len(trace)):
            if not trace.accepted[step]:
                assert trace.cost[step] == cost and trace.error[step] == error
            cost, error = trace.cost[step], trace.error[step]

    def test_best_cost_is_min_over_feasible_states(self):
        tree, binding = tfim_problem(n=6)
        target = 0.1
        result = anneal(tree, binding, target, AnnealConfig(num_steps=3000, seed=5))
        feasible_costs = [c for c, e in zip(result.trace.cost, result.trace.error) if e <= target]
        assert result.feasible
        assert result.best_cost == min(feasible_costs)
        assert result.best_cost <= result.first_feasible_cost
        assert result.best_error <= target

    def test_results_recheck_against_reference_evaluators(self):
        tree, binding = tfim_problem(n=6)
        result = anneal(tree, binding, 0.1, AnnealConfig(num_steps=2000, seed=29))
        assert total_cost(tree, binding, result.best_theta) == pytest.approx(
            result.best_cost, rel=1e-12
        )
        assert total_error(tree, binding, result.best_theta) == pytest.approx(
            result.best_error, rel=1e-12
        )

    def test_warm_init_override(self):
        tree, binding = tfim_problem(n=6)
        start = [0.01, 1e-5, 1e-9]
        result = anneal(
            tree, binding, 0.1, AnnealConfig(num_steps=10, seed=1), theta_init=start
        )
        # the start point is already feasible, so it is the first feasible point
        assert result.steps_to_feasible == 0
        assert result.first_feasible_cost == pytest.approx(
            total_cost(tree, binding, start), rel=1e-12
        )

    def test_non_finite_start_point_rejected(self):
        tree, binding = build_tfim_model(TfimConfig(n=4))
        with pytest.raises(EvaluationError, match="start point has entry 2 = nan"):
            anneal(tree, binding, 0.1, AnnealConfig(num_steps=10),
                   theta_init=[0.1, 0.1, math.nan])

    @pytest.mark.parametrize("run", [anneal, find_feasible])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, 0.0, 5.0, -3.0, 1.0])
    def test_infinite_start_point_rejected(self, run, bad):
        tree, binding = build_tfim_model(TfimConfig(n=4))
        with pytest.raises(EvaluationError, match=f"start point has entry 1 = {bad}"):
            run(tree, binding, 0.1, AnnealConfig(num_steps=10), theta_init=[0.1, bad, 0.1])

    # Recorded chain outcomes: a change to any single accept decision, such as
    # from reordered floating-point operations in an evaluator, moves them.
    # Both chain engines must reproduce them.
    PINNED = pytest.mark.parametrize("n, preset, k, target, config, theta_init, expected", [
        (10, "three_param", 0, 0.01, AnnealConfig(num_steps=3000, seed=4), None,
         (75539642406.88138, 2155, 2617 / 3000)),
        (30, "redundancy", 20, 0.1,
         AnnealConfig(num_steps=3000, seed=11, beta_max=100.0, delta=1.0),
         [0.05, 1e-4] + [1e-9] * 21, (2368734605.4811974, 1044, 2691 / 3000)),
    ])

    @PINNED
    def test_pinned_trajectories(
        self, kernel_engine, n, preset, k, target, config, theta_init, expected
    ):
        tree, binding = build_tfim_model(TfimConfig(n=n), preset, k)
        result = anneal(tree, binding, target, config, theta_init=theta_init,
                        record_trace=False)
        assert (result.best_cost, result.steps_to_feasible, result.acceptance_rate) == expected

    @PINNED
    def test_pinned_trajectories_reference_engine(
        self, reference_engine, n, preset, k, target, config, theta_init, expected
    ):
        self.test_pinned_trajectories(None, n, preset, k, target, config, theta_init, expected)

    @PINNED
    @pytest.mark.parametrize("steps", [1, 7, 2**20])
    def test_slice_and_block_sizes_do_not_change_chains(
        self, kernel_engine, monkeypatch, steps, n, preset, k, target, config, theta_init,
        expected,
    ):
        # the kernel runs a chain in slices and the reference engine draws its
        # uniforms in blocks; neither size may change a chain, traces and
        # stops partway through a slice or block included
        tree, binding = build_tfim_model(TfimConfig(n=n), preset, k)
        monkeypatch.setattr(ANNEAL, "_SLICE_STEPS", steps)
        monkeypatch.setattr(ANNEAL, "_BLOCK_STEPS", steps)

        def run():
            return (anneal(tree, binding, target, config, theta_init=theta_init),
                    find_feasible(tree, binding, target, config, theta_init=theta_init))

        kernel = run()
        with monkeypatch.context() as patch:
            patch.setattr(ANNEAL, "_chain_kernel", lambda: None)
            reference = run()
        result, (_, steps_to_feasible) = kernel
        assert (result.best_cost, result.steps_to_feasible, result.acceptance_rate) == expected
        assert steps_to_feasible == expected[1]
        assert len(result.trace) == config.num_steps
        assert_same_repr(kernel, reference)

    # (0.1, 1e-3, 1e-6) has error 0.86 on the n=4 three-parameter model
    @pytest.mark.parametrize("run", [
        lambda m, b: anneal(m, b, 0.1, AnnealConfig(num_steps=10)),
        lambda m, b: find_feasible(m, b, 1.0, AnnealConfig(num_steps=10), theta_init=[0.1, 1e-3, 1e-6]),
        lambda m, b: measure_acceptance(m, b, 0.1, AnnealConfig(), seed=1, pilot_steps=10),
        lambda m, b: tune_delta(m, b, 0.1, AnnealConfig(), np.random.default_rng(0)),
        lambda m, b: grid_search_reference(m, b, 1.0, [[0.1], [1e-3], [1e-6]]),
    ], ids=["anneal", "find_feasible", "measure_acceptance", "tune_delta", "grid"])
    def test_binding_must_match_compiled_model(self, run):
        tree, three_param = build_tfim_model(TfimConfig(n=4), "three_param")
        _, two_param = build_tfim_model(TfimConfig(n=4), "two_param")
        with pytest.raises(ValueError, match="binding differs"):
            run(compile_model(tree, three_param), two_param)
        _, same = build_tfim_model(TfimConfig(n=4), "three_param")  # equal, not identical
        run(compile_model(tree, three_param), same)

    @pytest.mark.parametrize("run", [anneal, find_feasible])
    def test_nan_target_rejected(self, run):
        tree, binding = single_leaf_problem()
        with pytest.raises(ValueError, match="error target must be a positive number, got nan"):
            run(tree, binding, math.nan, AnnealConfig(num_steps=10))

    def test_invalid_model_rejected(self):
        tree, _ = tfim_problem(n=4)
        bad_binding = ParameterBinding.from_dict({"only": ["eps_qpe"]})
        with pytest.raises(Exception, match="validation"):
            anneal(tree, bad_binding, 0.1, AnnealConfig(num_steps=10))

    @pytest.mark.parametrize("run", [anneal, find_feasible])
    def test_negative_coefficient_rejected(self, run):
        # compiled as it stands, this tree has negative cost and error, so
        # every chain would report it feasible
        tree, binding = tfim_problem(n=4)
        edge = tree.children[0]
        mult = replace(edge.multiplicity, coefficient=-3.0)
        tree = replace(tree, children=(replace(edge, multiplicity=mult),))
        named = "phase_estimation/trotter_step: non-positive multiplicity coefficient"
        with pytest.raises(ModelError, match=named):
            run(tree, binding, 0.1, AnnealConfig())
        with pytest.raises(ModelError, match=named):
            run(compile_model(tree, binding), binding, 0.1, AnnealConfig())


class TestFindFeasible:
    def test_initially_feasible_returns_zero_steps(self):
        tree, binding = single_leaf_problem(count=2.0)
        # error at 0.1 is 0.2, target above that
        theta, steps = find_feasible(tree, binding, 0.5, AnnealConfig(num_steps=100, seed=0))
        assert steps == 0
        assert tuple(theta.values) == (0.1,)

    def test_tfim_reaches_percent_target_within_budget(self):
        tree, binding = tfim_problem(n=10)
        ok = 0
        for seed in range(100):
            try:
                _, steps = find_feasible(
                    tree, binding, 1e-2, AnnealConfig(num_steps=5000, seed=seed)
                )
            except InfeasibleError:
                continue
            assert steps < 5000
            ok += 1
        assert ok >= 95

    def test_impossible_target_exhausts(self):
        tree, binding = single_leaf_problem(count=2.0)
        with pytest.raises(InfeasibleError) as excinfo:
            find_feasible(tree, binding, 1e-32, AnnealConfig(num_steps=200, seed=0))
        assert excinfo.value.best_error > 0

    def test_zero_target_exhausts(self):
        tree, binding = single_leaf_problem()
        with pytest.raises(InfeasibleError):
            find_feasible(tree, binding, 0.0, AnnealConfig(num_steps=10, seed=0))

    def test_max_steps_extends_the_walk(self):
        tree, binding = tfim_problem(n=10)
        config = AnnealConfig(num_steps=50, seed=4)
        with pytest.raises(InfeasibleError):
            find_feasible(tree, binding, 1e-4, config)
        theta, steps = find_feasible(tree, binding, 1e-4, config, max_steps=100_000)
        assert steps > 50
        assert total_error(tree, binding, theta) <= 1e-4


    @pytest.mark.parametrize("max_steps", [0, -5, True, 2.0, "10"])
    @pytest.mark.parametrize("run", [anneal, find_feasible])
    def test_bad_max_steps_rejected(self, run, max_steps):
        tree, binding = single_leaf_problem()
        with pytest.raises(ValueError, match="max_steps"):
            run(tree, binding, 0.5, AnnealConfig(num_steps=10, seed=0), max_steps=max_steps)

    def test_exhaustion_names_the_steps_run(self):
        tree, binding = tfim_problem(n=6)
        config = AnnealConfig(num_steps=40, seed=0)
        for max_steps, run in ((None, 40), (7, 7), (np.int64(90), 90)):
            with pytest.raises(InfeasibleError, match=f"within {run} steps"):
                find_feasible(tree, binding, 1e-30, config, max_steps=max_steps)

    def test_pinned_stop_inside_a_block(self):
        # Recorded outcome of a walk that stops partway through a block of
        # pre-drawn uniforms, several blocks in.
        tree, binding = build_tfim_model(TfimConfig(n=30), "redundancy", 0)
        theta, steps = find_feasible(
            tree, binding, 0.1, AnnealConfig(num_steps=5000, seed=1), max_steps=20_000
        )
        assert steps == 2133
        assert theta.values == (0.05236271654448539, 3.212538510085419e-05, 7.736074547306257e-10)


class TestTuneDelta:
    def test_zero_beta_returns_smallest_probe(self):
        tree, binding = tfim_problem(n=6)
        config = AnnealConfig(num_steps=200, beta_max=0.0, seed=1)
        delta = tune_delta(tree, binding, 0.1, config, np.random.default_rng(0))
        assert delta == pytest.approx(1e-3)

    def test_constant_objective_returns_smallest_probe(self):
        tree, binding = zero_error_model()
        config = AnnealConfig(num_steps=200, seed=1)
        delta = tune_delta(tree, binding, 0.5, config, np.random.default_rng(0))
        assert delta == pytest.approx(1e-3)

    def test_tuned_delta_remeasures_near_half(self):
        # re-run the tuner's own measurement on a fresh seed; the tuned width
        # must keep the pilot acceptance near the 50% target
        tree, binding = tfim_problem(n=10)
        config = AnnealConfig(num_steps=5000, seed=1)
        delta = tune_delta(tree, binding, 0.1, config, np.random.default_rng(42))
        acc = measure_acceptance(
            tree, binding, 0.1, AnnealConfig(num_steps=5000, delta=delta, seed=1),
            seed=777, pilot_steps=300,
        )
        assert 0.35 <= acc <= 0.65


class TestWarmStart:
    def test_identity_for_identical_bindings(self):
        _, binding = tfim_problem(n=4)
        theta = warm_start(binding, [0.3, 0.2, 0.1], binding)
        assert theta.values == (0.3, 0.2, 0.1)

    def test_two_param_solution_expands_to_three(self):
        cfg = TfimConfig(n=4)
        _, binding3 = build_tfim_model(cfg, "three_param")
        _, binding2 = build_tfim_model(cfg, "two_param")
        theta = warm_start(binding2, [0.05, 0.001], binding3)
        assert theta.values == (0.05, 0.001, 0.001)

    def test_three_param_solution_seeds_redundant_groups(self):
        from errorbudget.tfim import rotation_group_binding

        cfg = TfimConfig(n=4)
        _, bindingk = build_tfim_model(cfg, "redundancy", 5)
        coarse = rotation_group_binding(bindingk)
        theta = warm_start(coarse, [0.05, 0.001, 1e-8], bindingk)
        assert theta.values == (0.05, 0.001) + (1e-8,) * 6

    def test_non_refining_pair_rejected(self):
        cfg = TfimConfig(n=4)
        _, binding3 = build_tfim_model(cfg, "three_param")
        _, binding2 = build_tfim_model(cfg, "two_param")
        with pytest.raises(RefinementError):
            warm_start(binding3, [0.05, 0.001, 1e-8], binding2)

    def test_disjoint_slot_sets_rejected(self):
        a = ParameterBinding.from_dict({"x": ["sx"]})
        b = ParameterBinding.from_dict({"y": ["sy"]})
        with pytest.raises(RefinementError):
            warm_start(a, [0.1], b)


def mesh_argmin(tree, binding, eps_target, grid):
    """The grid oracle on the materialised mesh: one batch evaluation, first minimum."""
    mesh = np.stack([m.ravel() for m in np.meshgrid(*grid, indexing="ij")], axis=1)
    costs, errors = compile_model(tree, binding).evaluate(mesh)
    costs = np.where(errors <= eps_target, costs, math.inf)
    idx = int(np.argmin(costs))
    if not costs[idx] < math.inf:
        return None
    return tuple(mesh[idx].tolist()), float(costs[idx])


class TestGridSearch:
    def test_single_leaf_picks_largest_feasible_epsilon(self):
        tree, binding = single_leaf_problem(count=2.0)
        grid = [np.array([0.01, 0.05, 0.2, 0.4, 0.8])]
        theta, cost = grid_search_reference(tree, binding, 0.5, grid)
        # error is 2 * eps <= 0.5 -> largest allowed grid point is 0.2
        assert theta.values == (0.2,)
        assert cost == pytest.approx(total_cost(tree, binding, [0.2]), rel=1e-12)

    def test_empty_grid_exhausts(self):
        tree, binding = single_leaf_problem()
        with pytest.raises(InfeasibleError):
            grid_search_reference(tree, binding, 0.5, [np.array([])])

    def test_no_feasible_point_exhausts(self):
        tree, binding = single_leaf_problem(count=2.0)
        with pytest.raises(InfeasibleError):
            grid_search_reference(tree, binding, 1e-9, [np.array([0.5, 0.9])])

    def test_too_many_dimensions_rejected(self):
        cfg = TfimConfig(n=4)
        tree, binding = build_tfim_model(cfg, "redundancy", 2)
        with pytest.raises(ValueError, match="4 dimensions"):
            grid_search_reference(tree, binding, 0.1, [[0.1]] * 5)

    def test_deterministic(self):
        tree, binding = tfim_problem(n=6)
        grid = [log_grid(1e-10, 1.0, 12)] * 3
        a = grid_search_reference(tree, binding, 0.1, grid)
        b = grid_search_reference(tree, binding, 0.1, grid)
        assert a == b

    # below the tolerance floor no ToleranceVector can hold the point
    @pytest.mark.parametrize("bad", [math.nan, 0.0, -0.1, 1e-40, 1.0, 1.5, math.inf, -math.inf])
    def test_bad_axis_entry_rejected(self, bad):
        tree, binding = tfim_problem(n=6)
        grid = [log_grid(1e-6, 1.0, 4), np.array([0.1, 0.2, bad]), log_grid(1e-6, 1.0, 3)]
        with pytest.raises(EvaluationError, match="axis 1"):
            grid_search_reference(tree, binding, 0.1, grid)

    def test_bad_shapes_and_budgets_rejected(self):
        tree, binding = tfim_problem(n=6)
        axis = log_grid(1e-6, 1.0, 4)
        with pytest.raises(ValueError, match="2 axes"):
            grid_search_reference(tree, binding, 0.1, [axis] * 2)
        with pytest.raises(ValueError, match="64 points"):
            grid_search_reference(tree, binding, 0.1, [axis] * 3, max_points=63)
        for chunk in (0, -1, True, 2.5):
            with pytest.raises(ValueError, match="chunk"):
                grid_search_reference(tree, binding, 0.1, [axis] * 3, chunk=chunk)
        with pytest.raises(InfeasibleError, match="empty"):
            grid_search_reference(tree, binding, 0.1, [axis, [], axis])

    def test_ties_go_to_the_first_point_in_grid_order(self):
        # the root's own tolerance adds error but no cost, so every feasible
        # value of it ties; 0.1 comes before 0.2 on its axis
        leaf = BudgetNode.leaf("gate", "l", LeafCost(2.0, 4.0))
        tree = BudgetNode.composite("root", "r", [(Multiplicity(3.0), leaf)])
        binding = ParameterBinding.from_dict({"r": ["r"], "l": ["l"]})
        grid = [np.array([0.6, 0.3, 0.1, 0.2]), np.array([0.01, 0.05, 0.02])]
        expected = mesh_argmin(tree, binding, 0.5, grid)
        assert expected[0] == (0.1, 0.05)
        for chunk in range(1, 14):
            theta, cost = grid_search_reference(tree, binding, 0.5, grid, chunk=chunk)
            assert (theta.values, cost) == expected

    def test_matches_argmin_over_the_mesh(self):
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(60):
            tree, binding, _ = random_tree(rng, max_depth=4)
            while not 1 <= binding.dimension <= 4:
                tree, binding, _ = random_tree(rng, max_depth=4)
            for node in tree.walk():
                if node.kind is NodeKind.LEAF and node.leaf_cost.count == 0:
                    seen.add("zero-count leaf")
                if any(e.multiplicity.rounding is Rounding.CEIL and e.multiplicity.exponent
                       for e in node.children):
                    seen.add("ceil edge")
            # values drawn with replacement repeat, which ties costs exactly
            pool = rng.uniform(0.01, 0.99, size=6)
            grid = [np.sort(rng.choice(pool, size=int(rng.integers(1, 5))))
                    for _ in range(binding.dimension)]
            # rounded up, last-bit differences in a multiplicity would vanish
            for model in (tree, as_continuous(tree)):
                errors = compile_model(model, binding).evaluate(
                    np.stack([m.ravel() for m in np.meshgrid(*grid, indexing="ij")], axis=1))[1]
                for target in (float(np.median(errors)), float(errors.min()) / 2):
                    expected = mesh_argmin(model, binding, target, grid)
                    for chunk in (65536, 1, 3, 7):
                        if expected is None:
                            with pytest.raises(InfeasibleError):
                                grid_search_reference(model, binding, target, grid, chunk=chunk)
                            continue
                        found = grid_search_reference(model, binding, target, grid, chunk=chunk)
                        assert (found[0].values, found[1]) == expected
        assert seen == {"zero-count leaf", "ceil edge"}

    def test_log_grid_half_open(self):
        grid = log_grid(1e-12, 1.0, 50)
        assert grid.size == 50
        assert grid[0] == pytest.approx(1e-12)
        assert grid[-1] < 1.0
