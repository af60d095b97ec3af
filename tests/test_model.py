import copy
import math
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from errorbudget.model import (
    BudgetNode,
    ChainEvaluator,
    ChildEdge,
    EvaluationError,
    ExpansionLimitError,
    LeafCost,
    ModelError,
    Multiplicity,
    NodeKind,
    ParameterBinding,
    Rounding,
    ToleranceVector,
    as_ceiled,
    compile_model,
    expand_flat,
    is_feasible,
    total_cost,
    total_error,
    _unchecked,
    validate_model,
)
from errorbudget.tfim import TfimConfig, build_tfim_model


def closed_form_cost(cfg: TfimConfig, a: float, t: float, r: float) -> float:
    # Flat product of the three stages, written out independently of the
    # recursive evaluator: repetitions x steps x layers x rotations x T-count.
    reps = cfg.qpe_coefficient / a
    steps = cfg.trotter_coefficient / math.sqrt(t)
    return reps * steps * 2 * (2 * cfg.n) * cfg.synthesis_gates_per_log * math.log2(1.0 / r)


def closed_form_error(cfg: TfimConfig, a: float, t: float, r: float) -> float:
    reps = cfg.qpe_coefficient / a
    steps = cfg.trotter_coefficient / math.sqrt(t)
    return a + reps * (t + 2 * steps * (2 * cfg.n) * r)


def single_leaf_model(count=1.0, gates_per_log=1.0, offset=0.0):
    leaf = BudgetNode.leaf("gate", "eps", LeafCost(count, gates_per_log, offset))
    return leaf, ParameterBinding.from_dict({"eps": ["eps"]})


class TestForms:
    def test_multiplicity_constant(self):
        assert Multiplicity(3.0)(None) == 3.0

    def test_multiplicity_power(self):
        assert Multiplicity(2.0, 0.5)(0.25) == pytest.approx(4.0, rel=1e-15)

    def test_multiplicity_ceil_at_least_one(self):
        m = Multiplicity(0.3, 0.0, Rounding.CEIL)
        assert m(None) == 1.0

    def test_multiplicity_rejects_nonpositive(self):
        with pytest.raises(EvaluationError):
            Multiplicity(1.0, 1.0)(0.0)

    def test_multiplicity_missing_parent_tolerance(self):
        with pytest.raises(EvaluationError):
            Multiplicity(1.0, 1.0)(None)

    def test_leaf_cost_clamps_at_zero(self):
        lc = LeafCost(count=5, gates_per_unit_logeps=4.0)
        assert lc.unit_cost(0.999999) > 0.0
        # log2(1/eps) would be negative for eps > 1; the clamp keeps cost at 0
        assert lc.count * max(0.0, 4.0 * math.log2(1 / 0.5)) == lc.cost(0.5)

    def test_tolerance_vector_rejects_out_of_range(self):
        with pytest.raises(Exception):
            ToleranceVector((1.0,))
        with pytest.raises(Exception):
            ToleranceVector((0.0,))
        with pytest.raises(Exception):
            ToleranceVector((1e-40,))
        assert len(ToleranceVector((0.5, 0.1))) == 2


def tree_objects():
    """One instance of each tree class, as the public constructors build them."""
    mult = Multiplicity(2.0, 0.5, Rounding.CEIL)
    leaf = BudgetNode.leaf("gate", "b", LeafCost(3, 4.0, 0.5))
    root = BudgetNode.composite("φ", "a", [(mult, leaf), (Multiplicity(1.0), leaf)])
    binding = ParameterBinding.from_dict({"a": ["a"], "b": ["b"], "empty": []})
    return [mult, leaf.leaf_cost, root.children[0], leaf, root, binding]


class TestSlotContract:
    """The five tree classes are frozen, slotted dataclasses."""

    def test_instances_have_no_dict_and_stay_frozen(self):
        for obj in tree_objects():
            assert not hasattr(obj, "__dict__")
            assert type(obj).__slots__ == tuple(field.name for field in fields(obj))
            with pytest.raises(TypeError):
                vars(obj)
            name = fields(obj)[0].name
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
            # a name that is no field: the generated __setattr__ of a slotted
            # frozen class raises TypeError on Python 3.11, and there is no
            # __dict__ to take it either way
            with pytest.raises((AttributeError, TypeError)):
                obj.extra = 1
            with pytest.raises(AttributeError):
                object.__setattr__(obj, "extra", 1)

    def test_pickle_and_deepcopy_round_trip(self):
        for obj in tree_objects():
            for again in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
                assert type(again) is type(obj)
                assert again == obj and hash(again) == hash(obj) and repr(again) == repr(obj)

    def test_unchecked_constructor_builds_what_the_classes_build(self):
        for obj in tree_objects():
            build = _unchecked(type(obj))
            again = build(*(getattr(obj, field.name) for field in fields(obj)))
            assert type(again) is type(obj)
            assert again == obj and hash(again) == hash(obj) and repr(again) == repr(obj)
            assert not hasattr(again, "__dict__")

    def test_no_class_checks_fields_after_init(self):
        # the unchecked constructor skips __init__, and with it any __post_init__
        for cls in (Multiplicity, LeafCost, ChildEdge, BudgetNode, ParameterBinding):
            assert not hasattr(cls, "__post_init__")


class TestValidation:
    def test_tfim_three_param_is_valid(self):
        tree, binding = build_tfim_model(TfimConfig(n=10))
        report = validate_model(tree, binding)
        assert report.ok, report.violations

    def test_doubly_bound_slot(self):
        tree, _ = build_tfim_model(TfimConfig(n=10))
        bad = ParameterBinding.from_dict(
            {"a": ["eps_qpe"], "b": ["eps_trotter", "eps_r"], "c": ["eps_r"]}
        )
        report = validate_model(tree, bad)
        assert not report.ok
        assert any("doubly bound" in v for v in report.violations)

    def test_duplicate_group_name_reported_once(self):
        tree, _ = build_tfim_model(TfimConfig(n=4))
        bad = ParameterBinding((("b", ("eps_qpe",)), ("a", ("eps_trotter",)),
                                ("a", ("eps_r",)), ("b", ())))
        duplicates = [v for v in validate_model(tree, bad).violations if "duplicate" in v]
        assert duplicates == ["binding: duplicate group name 'b'"]

    def test_single_leaf_single_group(self):
        tree, binding = single_leaf_model()
        assert validate_model(tree, binding).ok

    def test_unbound_slot_and_empty_composite(self):
        tree = BudgetNode.composite("root", "eps_root", [])
        report = validate_model(tree, ParameterBinding.from_dict({}))
        assert any("empty composite" in v for v in report.violations)
        assert any("unbound" in v for v in report.violations)

    def test_nonpositive_coefficient(self):
        leaf, _ = single_leaf_model()
        tree = BudgetNode.composite("root", "eps_root", [(Multiplicity(0.0), leaf)])
        binding = ParameterBinding.from_dict({"r": ["eps_root"], "e": ["eps"]})
        report = validate_model(tree, binding)
        assert any("non-positive multiplicity" in v for v in report.violations)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "coefficient", "exponent", "count", "gates_per_unit_logeps", "additive_offset",
    ])
    def test_non_finite_numbers_name_node_and_field(self, field, value):
        mult, law = Multiplicity(2.0, 1.0), LeafCost(3.0, 4.0, 1.0)
        if field in ("coefficient", "exponent"):
            mult = replace(mult, **{field: value})
        else:
            law = replace(law, **{field: value})
        leaf = BudgetNode.leaf("gate", "eps", law)
        tree = BudgetNode.composite("root", "eps_root", [(mult, leaf)])
        binding = ParameterBinding.from_dict({"r": ["eps_root"], "e": ["eps"]})
        kind = "multiplicity " if field in ("coefficient", "exponent") else ""
        named = f"root/gate: non-finite {kind}{field} {value}"
        assert named in validate_model(tree, binding).violations


def compile_violation(tree, binding) -> str:
    with pytest.raises(ModelError, match="^model failed validation: ") as excinfo:
        compile_model(tree, binding)
    return str(excinfo.value)


class TestCompileValidates:
    """Compiling runs the full validation; no ill-formed table reaches an evaluator."""

    @pytest.mark.parametrize("mult, law, named", [
        (Multiplicity(-3.0, 1.0), LeafCost(2.0, 4.0), "non-positive multiplicity coefficient"),
        (Multiplicity(0.0), LeafCost(2.0, 4.0), "non-positive multiplicity coefficient"),
        (Multiplicity(2.0, -0.5), LeafCost(2.0, 4.0), "negative multiplicity exponent"),
        (Multiplicity(2.0, 1.0), LeafCost(-2.0, 4.0), "negative leaf count"),
        (Multiplicity(2.0, 1.0), LeafCost(2.0, -4.0), "negative gates-per-log factor"),
        (Multiplicity(2.0, 1.0), LeafCost(2.0, 4.0, -1.0), "negative additive offset"),
    ])
    def test_bad_numbers(self, mult, law, named):
        leaf = BudgetNode.leaf("gate", "eps", law)
        tree = BudgetNode.composite("root", "eps_root", [(mult, leaf)])
        binding = ParameterBinding.from_dict({"r": ["eps_root"], "e": ["eps"]})
        assert f"root/gate: {named}" in compile_violation(tree, binding)

    def test_leaf_with_children(self):
        gate = BudgetNode.leaf("gate", "eps", LeafCost(1.0, 4.0))
        tree = BudgetNode("root", NodeKind.LEAF, "eps", (ChildEdge(Multiplicity(1.0), gate),),
                          LeafCost(1.0, 4.0))
        binding = ParameterBinding.from_dict({"e": ["eps"]})
        assert "root: leaf with children" in compile_violation(tree, binding)

    def test_unbound_slot(self):
        tree, _ = single_leaf_model()
        assert "slot 'eps' unbound" in compile_violation(tree, ParameterBinding.from_dict({}))

    def test_exponent_below_a_node_without_slot(self):
        leaf, binding = single_leaf_model()
        tree = BudgetNode.composite("root", None, [(Multiplicity(2.0, 1.0), leaf)])
        assert "'root', which has no slot" in compile_violation(tree, binding)

    def test_every_violation_is_named(self):
        leaf = BudgetNode.leaf("gate", "eps", LeafCost(-1.0, 4.0))
        tree = BudgetNode.composite("root", "eps_root", [(Multiplicity(-3.0), leaf)])
        message = compile_violation(tree, ParameterBinding.from_dict({"e": ["eps"]}))
        for named in ("non-positive multiplicity coefficient", "negative leaf count",
                      "slot 'eps_root' unbound"):
            assert named in message


class TestTotalCost:
    def test_single_leaf_value(self):
        # 20 rotations at 4 gates per binary digit, eps = 0.5 -> one digit each
        tree, binding = single_leaf_model(count=20, gates_per_log=4.0)
        assert total_cost(tree, binding, [0.5]) == pytest.approx(80.0, rel=1e-15)

    def test_tfim_point_matches_closed_form(self):
        cfg = TfimConfig(n=10)
        tree, binding = build_tfim_model(cfg)
        theta = [0.05, 1e-4, 1e-9]
        expected = closed_form_cost(cfg, *theta)
        assert expected == pytest.approx(4.81e8, rel=1e-2)
        assert total_cost(tree, binding, theta) == pytest.approx(expected, rel=1e-12)

    def test_zero_count_leaves_cost_nothing(self):
        leaf1 = BudgetNode.leaf("a", "eps_a", LeafCost(0.0, 4.0))
        leaf2 = BudgetNode.leaf("b", "eps_b", LeafCost(0.0, 2.0))
        tree = BudgetNode.composite(
            "root", None, [(Multiplicity(1.0), leaf1), (Multiplicity(1.0), leaf2)]
        )
        binding = ParameterBinding.from_dict({"a": ["eps_a"], "b": ["eps_b"]})
        assert total_cost(tree, binding, [0.3, 0.7]) == 0.0
        assert total_error(tree, binding, [0.3, 0.7]) == 0.0

    def test_rejects_nonpositive_tolerance(self):
        tree, binding = single_leaf_model()
        with pytest.raises(EvaluationError):
            total_cost(tree, binding, [0.0])
        with pytest.raises(EvaluationError):
            total_cost(tree, binding, [-0.5])

    def test_rejects_tolerance_at_or_above_one(self):
        tree, binding = single_leaf_model()
        with pytest.raises(EvaluationError):
            total_cost(tree, binding, [1.0])

    def test_dimension_mismatch(self):
        tree, binding = build_tfim_model(TfimConfig(n=4))
        with pytest.raises(EvaluationError):
            total_cost(tree, binding, [0.1, 0.1])


class TestTotalError:
    def test_tfim_point_matches_closed_form(self):
        cfg = TfimConfig(n=10)
        tree, binding = build_tfim_model(cfg)
        theta = [0.05, 1e-4, 1e-9]
        expected = closed_form_error(cfg, *theta)
        assert expected == pytest.approx(0.1546, rel=1e-3)
        assert total_error(tree, binding, theta) == pytest.approx(expected, rel=1e-12)

    def test_single_leaf_error_is_count_times_eps(self):
        tree, binding = single_leaf_model(count=7)
        assert total_error(tree, binding, [0.01]) == pytest.approx(0.07, rel=1e-15)

    def test_childless_composite_error_is_own_tolerance(self):
        tree = BudgetNode.composite("root", "eps_root", [])
        binding = ParameterBinding.from_dict({"g": ["eps_root"]})
        assert total_error(tree, binding, [0.125]) == 0.125
        assert total_cost(tree, binding, [0.125]) == 0.0


class TestFeasibility:
    def test_tfim_point_against_targets(self):
        tree, binding = build_tfim_model(TfimConfig(n=10))
        theta = [0.05, 1e-4, 1e-9]
        assert not is_feasible(tree, binding, theta, 0.1)
        assert is_feasible(tree, binding, theta, 0.2)

    def test_tiny_tolerances_are_feasible_for_subunit_exponents(self):
        # with every multiplicity exponent < 1 the error terms scale like
        # eps**(1 - exponent), so the uniform diagonal eventually satisfies
        # any positive target
        leaf = BudgetNode.leaf("g", "eps_leaf", LeafCost(2, 4.0))
        tree = BudgetNode.composite("root", "eps_self", [(Multiplicity(1.0, 0.5), leaf)])
        binding = ParameterBinding.from_dict({"self": ["eps_self"], "leaf": ["eps_leaf"]})
        assert not is_feasible(tree, binding, [0.1, 0.1], 1e-2)
        assert is_feasible(tree, binding, [1e-6, 1e-6], 1e-2)


class TestExpandFlat:
    def test_depth_one_composite(self):
        leaf = BudgetNode.leaf("g", "eps", LeafCost(2, 1.0))
        tree = BudgetNode.composite(
            "root", None, [(Multiplicity(3.0, 0.0, Rounding.CEIL), leaf)]
        )
        binding = ParameterBinding.from_dict({"e": ["eps"]})
        entries = expand_flat(tree, binding, [0.5], max_instances=100)
        assert len(entries) == 1
        assert entries[0].count == 6

    def test_tfim_ceiled_instance_counts(self):
        cfg = TfimConfig(n=10)
        tree, binding = build_tfim_model(cfg)
        # eps_qpe = 0.1 -> ceil(16 pi / 0.1) = 503; eps_trotter = 0.25 -> M = 2
        theta = [0.1, 0.25, 1e-9]
        entries = expand_flat(as_ceiled(tree), binding, theta, max_instances=10**6)
        rotations = [e for e in entries if "rotations" in e.name]
        assert len(rotations) == 2
        for entry in rotations:
            assert entry.count == 503 * 2 * 2 * cfg.n
        assert sum(e.count for e in rotations) == 503 * 2 * 2 * 2 * cfg.n

    def test_zero_budget_is_size_error(self):
        tree, binding = single_leaf_model(count=2)
        with pytest.raises(ExpansionLimitError):
            expand_flat(tree, binding, [0.5], max_instances=0)

    def test_requires_ceil_rounding(self):
        tree, binding = build_tfim_model(TfimConfig(n=4))
        with pytest.raises(EvaluationError):
            expand_flat(tree, binding, [0.1, 0.1, 0.1], max_instances=10**6)

    def test_matches_recursive_evaluators_on_tfim(self):
        cfg = TfimConfig(n=6)
        tree, binding = build_tfim_model(cfg)
        ceiled = as_ceiled(tree)
        theta = [0.07, 0.19, 1e-7]
        entries = expand_flat(ceiled, binding, theta, max_instances=10**7)
        flat_cost = sum(e.count * e.unit_cost for e in entries)
        flat_error = theta[0] + sum(e.count * e.tolerance for e in entries)
        assert flat_cost == pytest.approx(total_cost(ceiled, binding, theta), rel=1e-12)
        assert flat_error == pytest.approx(total_error(ceiled, binding, theta), rel=1e-12)


def random_tree(rng: np.random.Generator, max_depth=3):
    """Random ceil-rounded tree with its binding and a valid theta."""
    slot_counter = [0]
    slots: list[str] = []

    def new_slot() -> str:
        slot_counter[0] += 1
        name = f"s{slot_counter[0]}"
        slots.append(name)
        return name

    def build(depth: int) -> BudgetNode:
        if depth >= max_depth or rng.random() < 0.4:
            count = int(rng.integers(0, 5))
            slot = new_slot() if count > 0 else None
            return BudgetNode.leaf(
                f"leaf{slot_counter[0]}_{depth}",
                slot,
                LeafCost(count, float(rng.uniform(0.5, 8.0)), float(rng.uniform(0, 2))),
            )
        n_children = int(rng.integers(1, 4))
        children = []
        for _ in range(n_children):
            exponent = float(rng.choice([0.0, 0.5, 1.0]))
            mult = Multiplicity(float(rng.integers(1, 6)), exponent, Rounding.CEIL)
            children.append((mult, build(depth + 1)))
        needs_slot = any(m.exponent != 0 for m, _ in children)
        slot = new_slot() if (needs_slot or rng.random() < 0.7) else None
        return BudgetNode.composite(f"node{slot_counter[0]}_{depth}", slot, children)

    tree = build(0)
    binding = ParameterBinding.from_dict({s: [s] for s in slots})
    theta = rng.uniform(0.05, 0.95, size=len(slots))
    return tree, binding, theta


def as_continuous(tree):
    """Copy of the tree with every multiplicity left unrounded."""
    return replace(tree, children=tuple(
        ChildEdge(replace(edge.multiplicity, rounding=Rounding.CONTINUOUS),
                  as_continuous(edge.node))
        for edge in tree.children
    ))


class TestProperties:
    def test_flat_recursive_equivalence_random_trees(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 60:
            tree, binding, theta = random_tree(rng)
            try:
                entries = expand_flat(tree, binding, theta, max_instances=10**6)
            except ExpansionLimitError:
                continue
            checked += 1
            # a composite root's own tolerance is the one term the expansion
            # does not carry; a leaf root's slot is already in the entries
            from errorbudget.model import NodeKind

            root_eps = (
                theta[binding.slot_index()[tree.self_error_slot]]
                if tree.self_error_slot and tree.kind is NodeKind.COMPOSITE
                else 0.0
            )
            flat_cost = sum(e.count * e.unit_cost for e in entries)
            flat_error = root_eps + sum(e.count * e.tolerance for e in entries)
            assert flat_cost == pytest.approx(total_cost(tree, binding, theta), rel=1e-12, abs=1e-12)
            assert flat_error == pytest.approx(total_error(tree, binding, theta), rel=1e-12, abs=1e-12)

    def test_monotonicity_in_each_tolerance(self):
        cfg = TfimConfig(n=5)
        tree, binding = build_tfim_model(cfg)
        rng = np.random.default_rng(11)
        for _ in range(50):
            theta = rng.uniform(0.01, 0.5, size=3)
            k = int(rng.integers(0, 3))
            bumped = theta.copy()
            bumped[k] *= 1.5
            # larger tolerances can only get cheaper...
            assert total_cost(tree, binding, bumped) <= total_cost(tree, binding, theta)
            if k != 0 and k != 1:
                # ...and, for pure synthesis tolerances, only increase the error
                assert total_error(tree, binding, bumped) >= total_error(tree, binding, theta)

    def test_binding_coarsening_is_bit_identical(self):
        tree, binding = build_tfim_model(TfimConfig(n=8))
        merged = binding.merged("eps_trotter", "eps_r")
        assert merged.dimension == 2
        t = 0.037
        fine = [0.09, t, t]
        coarse = [0.09, t]
        assert total_cost(tree, binding, fine) == total_cost(tree, merged, coarse)
        assert total_error(tree, binding, fine) == total_error(tree, merged, coarse)

    def test_self_error_interior_minimum(self):
        # error(eps) = eps + (c / eps) * child_error has its minimum at
        # sqrt(c * child_error); probe both sides of the closed-form optimum
        c, count, leaf_eps = 5.0, 3.0, 0.01
        leaf = BudgetNode.leaf("g", "eps_leaf", LeafCost(count, 1.0))
        tree = BudgetNode.composite("root", "eps_self", [(Multiplicity(c, 1.0), leaf)])
        binding = ParameterBinding.from_dict({"self": ["eps_self"], "leaf": ["eps_leaf"]})
        child_error = count * leaf_eps
        optimum = math.sqrt(c * child_error)
        best = total_error(tree, binding, [optimum, leaf_eps])
        for shift in (0.5, 0.9, 1.1, 2.0):
            probe = optimum * shift
            if probe >= 1.0:
                continue
            assert total_error(tree, binding, [probe, leaf_eps]) >= best

    def test_halving_parent_tolerance_doubles_child_terms(self):
        leaf = BudgetNode.leaf("g", "eps_leaf", LeafCost(4.0, 2.0))
        tree = BudgetNode.composite("root", "eps_self", [(Multiplicity(3.0, 1.0), leaf)])
        binding = ParameterBinding.from_dict({"self": ["eps_self"], "leaf": ["eps_leaf"]})
        leaf_eps = 0.01
        for eps_self in (0.5, 0.2, 0.08):
            cost_full = total_cost(tree, binding, [eps_self, leaf_eps])
            cost_half = total_cost(tree, binding, [eps_self / 2, leaf_eps])
            assert cost_half == pytest.approx(2 * cost_full, rel=1e-12)
            err_full = total_error(tree, binding, [eps_self, leaf_eps]) - eps_self
            err_half = total_error(tree, binding, [eps_self / 2, leaf_eps]) - eps_self / 2
            assert err_half == pytest.approx(2 * err_full, rel=1e-12)


class TestCompiledModel:
    def test_matches_recursive_on_random_trees(self):
        rng = np.random.default_rng(23)
        moves = np.random.default_rng(29)

        def assert_recursive(tree, binding, theta, totals):
            cost, error = totals
            assert cost == pytest.approx(total_cost(tree, binding, theta), rel=1e-12, abs=1e-12)
            assert error == pytest.approx(total_error(tree, binding, theta), rel=1e-12, abs=1e-12)

        for _ in range(60):
            tree, binding, theta = random_tree(rng)
            compiled = compile_model(tree, binding)
            assert_recursive(tree, binding, theta, compiled.evaluate(theta))

            chain = ChainEvaluator(compiled)
            totals = chain.reset(theta)
            assert_recursive(tree, binding, theta, totals)
            for _ in range(20 if theta.size else 0):
                k = int(moves.integers(0, theta.size))
                old = theta[k]
                theta[k] = moves.uniform(0.05, 0.95)
                moved = chain.update(k, theta[k])
                assert_recursive(tree, binding, theta, moved)
                if moves.random() < 0.5:
                    theta[k] = old
                    assert chain.update(k, old) == totals  # bit-identical revert
                else:
                    totals = moved
                # incremental state equals a fresh chain's, bit for bit
                assert ChainEvaluator(compiled).reset(theta) == totals

    def test_batch_evaluation(self):
        tree, binding = build_tfim_model(TfimConfig(n=5))
        compiled = compile_model(tree, binding)
        rng = np.random.default_rng(3)
        thetas = rng.uniform(1e-6, 0.9, size=(40, 3))
        costs, errors = compiled.evaluate(thetas)
        for i in range(40):
            assert costs[i] == pytest.approx(total_cost(tree, binding, thetas[i]), rel=1e-12)
            assert errors[i] == pytest.approx(total_error(tree, binding, thetas[i]), rel=1e-12)

    def test_single_vector_is_its_batch_row(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            tree, binding, _ = random_tree(rng, max_depth=4)
            thetas = rng.uniform(0.01, 0.99, size=(5, binding.dimension))
            for model in (tree, as_continuous(tree)):
                compiled = compile_model(model, binding)
                costs, errors = compiled.evaluate(thetas)
                for i in range(5):
                    assert compiled.evaluate(thetas[i]) == (costs[i], errors[i])

    def test_columns_on_broadcast_axes_match_the_mesh(self):
        # one pass serves batches and grids: on axes reshaped to broadcast,
        # it gives the batch results on the materialised mesh, bit for bit
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 150:
            tree, binding, _ = random_tree(rng, max_depth=4)
            dim = binding.dimension
            if not 1 <= dim <= 4:
                continue
            checked += 1
            axes = [rng.uniform(0.01, 0.99, size=int(rng.integers(1, 4))) for _ in range(dim)]
            columns = [axis.reshape((-1,) + (1,) * (dim - 1 - k)) for k, axis in enumerate(axes)]
            mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
            shape = tuple(axis.size for axis in axes)
            for model in (tree, as_continuous(tree)):
                compiled = compile_model(model, binding)
                for found, expected in zip(compiled.evaluate_columns(columns),
                                           compiled.evaluate(mesh)):
                    assert np.broadcast_to(found, shape).ravel().tobytes() == expected.tobytes()

    def test_rejects_bad_domain(self):
        tree, binding = build_tfim_model(TfimConfig(n=4))
        compiled = compile_model(tree, binding)
        with pytest.raises(EvaluationError):
            compiled.evaluate([0.1, -0.1, 0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_chain_reset_rejects_non_finite(self, bad):
        tree, binding = build_tfim_model(TfimConfig(n=4))
        chain = ChainEvaluator(compile_model(tree, binding))
        with pytest.raises(EvaluationError, match="entry 1"):
            chain.reset(np.array([0.1, bad, 0.1]))

    def test_chain_reset_rejects_wrong_length(self):
        tree, binding = build_tfim_model(TfimConfig(n=4))
        chain = ChainEvaluator(compile_model(tree, binding))
        for theta in ([0.1] * 5, [0.1] * 2, [[0.1] * 3]):
            with pytest.raises(EvaluationError, match=r"expected \(3,\)"):
                chain.reset(theta)
