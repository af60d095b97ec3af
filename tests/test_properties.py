"""Property tests over random trees, with Hypothesis.

The compiled chain kernel and the Python reference engine must give the same
chains, bit for bit, on any valid tree; the trees drawn here put a wide node
(up to 100 children, with runs of equal and of differing exponents) beside a
random subtree.  A model file must give back the tree it was saved from, and
name the place of a fault.  Examples are derandomized, so a run is
reproducible.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from test_chain_kernel import assert_same_repr, feasibility_outcome, on_both_engines
from test_model import random_tree

from errorbudget.anneal import AnnealConfig, anneal
from errorbudget.model import (
    BudgetNode,
    ChildEdge,
    LeafCost,
    Multiplicity,
    ParameterBinding,
    Rounding,
    compile_model,
    total_cost,
    total_error,
)
from errorbudget.modelio import (
    ModelFormatError,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

EXPONENTS = st.sampled_from([0.0, 0.5, 1.0, 2.0])


@st.composite
def trees_with_a_wide_node(draw):
    """A root over a wide node and a ``random_tree`` subtree; binding and start point."""
    fan_out = draw(st.integers(1, 100))
    # a run of one exponent, then a drawn one per edge: shared and fresh powers
    run = draw(st.integers(0, fan_out))
    exponents = [draw(EXPONENTS)] * run + draw(
        st.lists(EXPONENTS, min_size=fan_out - run, max_size=fan_out - run))
    n_groups = draw(st.integers(1, 6))
    groups: dict[str, list[str]] = {"wide": ["wide"]}
    children = []
    for j, exponent in enumerate(exponents):
        rounding = Rounding.CEIL if draw(st.booleans()) else Rounding.CONTINUOUS
        mult = Multiplicity(float(draw(st.integers(1, 5))), exponent, rounding)
        count = draw(st.integers(0, 3))
        slot = f"w{j}" if count else None
        if slot:
            groups.setdefault(f"g{draw(st.integers(0, n_groups - 1))}", []).append(slot)
        children.append((mult, BudgetNode.leaf(f"w{j}", slot, LeafCost(count, 2.0, 0.5))))
    wide = BudgetNode.composite("wide", "wide", children)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    subtree, sub_binding, _ = random_tree(rng, max_depth=2)
    groups.update({name: list(slots) for name, slots in sub_binding.groups})
    tree = BudgetNode.composite("root", None, [
        (Multiplicity(2.0), wide), (Multiplicity(3.0, 0.0, Rounding.CEIL), subtree)])
    binding = ParameterBinding.from_dict(groups)
    theta = rng.uniform(0.05, 0.6, binding.dimension)
    return tree, binding, theta


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=trees_with_a_wide_node(), seed=st.integers(0, 2**63 - 2),
       delta=st.sampled_from([0.3, 1.5]), beta_max=st.sampled_from([10.0, 200.0]),
       target_scale=st.sampled_from([0.3, 3.0]))
def test_kernel_and_reference_chains_agree(model, seed, delta, beta_max, target_scale,
                                           kernel_engine, monkeypatch):
    tree, binding, theta = model
    compiled = compile_model(tree, binding)
    target = compiled.evaluate(theta)[1] * target_scale
    config = AnnealConfig(num_steps=150, seed=seed, delta=delta, beta_max=beta_max)
    for run in (
        lambda: anneal(compiled, binding, target, config, theta_init=theta, max_steps=250),
        lambda: feasibility_outcome(compiled, binding, target, config, theta_init=theta),
    ):
        kernel, reference = on_both_engines(monkeypatch, run)
        assert_same_repr(kernel, reference)


# any character but lone surrogates: quotes, controls and non-ASCII included
NAMES = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=6)


def numbers(low, high):
    """Ints and floats in ``[low, high]``; a saved int loads as the equal float."""
    return st.integers(low, high) | st.floats(low, high)


@st.composite
def saved_models(draw):
    """A valid tree of CEIL and continuous edges, its binding and a tolerance vector.

    Names are drawn from all of Unicode, numbers are ints or floats, and the
    binding has groups of several slots and empty groups.
    """
    slots: list[str] = []

    def new_slot() -> str:
        slots.append(f"ε{len(slots)}")
        return slots[-1]

    def build(depth: int) -> BudgetNode:
        name = draw(NAMES)
        if depth == 3 or draw(st.booleans()):
            count = draw(numbers(0, 4))
            slot = new_slot() if count > 0 or draw(st.booleans()) else None
            law = LeafCost(count, draw(numbers(0, 8)), draw(numbers(0, 2)))
            return BudgetNode.leaf(name, slot, law)
        children = [
            (Multiplicity(draw(numbers(1, 5)), draw(st.sampled_from([0, 0.0, 0.5, 1, 2.0])),
                          draw(st.sampled_from(Rounding))), build(depth + 1))
            for _ in range(draw(st.integers(1, 3)))
        ]
        needs_slot = any(mult.exponent != 0 for mult, _ in children)
        slot = new_slot() if needs_slot or draw(st.booleans()) else None
        return BudgetNode.composite(name, slot, children)

    tree = build(0)
    n_groups = draw(st.integers(1, 4))
    group_of = [draw(st.integers(0, n_groups - 1)) for _ in slots]
    groups = {f"{draw(NAMES)}#{k}": [slot for slot, g in zip(slots, group_of) if g == k]
              for k in range(n_groups + draw(st.integers(0, 2)))}
    binding = ParameterBinding.from_dict(groups)
    theta = draw(st.lists(st.floats(0.05, 0.6), min_size=len(groups), max_size=len(groups)))
    return tree, binding, theta


def floated(node: BudgetNode) -> BudgetNode:
    """``node`` with every number a float, as a model file gives it back."""
    if node.leaf_cost is not None:
        law = node.leaf_cost
        return replace(node, leaf_cost=LeafCost(
            float(law.count), float(law.gates_per_unit_logeps), float(law.additive_offset)))
    return replace(node, children=tuple(
        ChildEdge(replace(edge.multiplicity, coefficient=float(edge.multiplicity.coefficient),
                          exponent=float(edge.multiplicity.exponent)), floated(edge.node))
        for edge in node.children))


MODEL_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


@MODEL_SETTINGS
@given(model=saved_models())
def test_saved_models_load_as_they_were(model, tmp_path):
    tree, binding, theta = model
    path = tmp_path / "model.json"
    save_model(tree, binding, path)
    assert path.read_bytes() == (
        json.dumps(model_to_dict(tree, binding), indent=2) + "\n").encode("ascii")
    loaded = load_model(path)
    assert loaded == (tree, binding) and hash(loaded) == hash((tree, binding))
    assert repr(loaded) == repr((floated(tree), binding))
    for evaluate in (total_cost, total_error):
        assert evaluate(*loaded, theta) == evaluate(tree, binding, theta)
    assert compile_model(*loaded).evaluate(theta) == compile_model(tree, binding).evaluate(theta)


@MODEL_SETTINGS
@given(model=saved_models(), data=st.data())
def test_a_corrupt_field_is_named_where_it_is(model, data):
    tree, binding, _ = model
    document = model_to_dict(tree, binding)
    node, location = document["root"], "$.root"
    while "children" in node and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(node["children"]) - 1))
        node, location = node["children"][i]["node"], f"{location}.children[{i}].node"
    fault = data.draw(st.sampled_from(["name", "key", "number"]))
    if fault == "name":
        node["name"] = ""
        message = "node name must be a non-empty string"
    elif fault == "key":
        node["extra"] = 1
        message = "unknown key 'extra'"
    elif "leaf_cost" in node:
        node["leaf_cost"]["gates_per_unit_logeps"] = "4"
        location += ".leaf_cost"
        message = "key 'gates_per_unit_logeps' must be a number"
    else:
        i = data.draw(st.integers(0, len(node["children"]) - 1))
        node["children"][i]["multiplicity"]["exponent"] = True
        location += f".children[{i}].multiplicity"
        message = "key 'exponent' must be a number"
    with pytest.raises(ModelFormatError) as excinfo:
        model_from_dict(document)
    assert excinfo.value.location == location
    assert str(excinfo.value) == f"{location}: {message}"
