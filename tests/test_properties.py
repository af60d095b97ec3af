"""Property tests over random trees, with Hypothesis.

The compiled chain kernel and the Python reference engine must give the same
chains, bit for bit, on any valid tree; the trees drawn here put a wide node
(up to 100 children, with runs of equal and of differing exponents) beside a
random subtree.  Examples are derandomized, so a run is reproducible.
"""

import numpy as np
import pytest
from test_chain_kernel import feasibility_outcome, on_both_engines
from test_model import random_tree

from errorbudget.anneal import AnnealConfig, anneal
from errorbudget.model import (
    BudgetNode,
    LeafCost,
    Multiplicity,
    ParameterBinding,
    Rounding,
    compile_model,
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
        assert repr(kernel) == repr(reference)
