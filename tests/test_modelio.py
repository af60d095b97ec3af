import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from errorbudget.model import (
    BudgetNode,
    LeafCost,
    Multiplicity,
    ParameterBinding,
    Rounding,
    total_cost,
    total_error,
    validate_model,
)
from errorbudget.modelio import (
    ModelFormatError,
    load_model,
    model_from_dict,
    model_to_dict,
    model_to_json,
    save_model,
)
from errorbudget.tfim import PRESETS, ConfigurationError, TfimConfig, build_tfim_model

SRC = Path(__file__).resolve().parents[1] / "src"


def test_round_trip_preserves_evaluation(tmp_path):
    cfg = TfimConfig(n=7)
    tree, binding = build_tfim_model(cfg, "redundancy", 3)
    path = tmp_path / "model.json"
    save_model(tree, binding, path)
    loaded_tree, loaded_binding = load_model(path)
    assert validate_model(loaded_tree, loaded_binding).ok
    theta = [0.05, 1e-4] + [1e-8] * 4
    assert total_cost(loaded_tree, loaded_binding, theta) == total_cost(tree, binding, theta)
    assert total_error(loaded_tree, loaded_binding, theta) == total_error(tree, binding, theta)
    assert loaded_binding.group_names == binding.group_names


def test_binding_group_order_defines_theta_order(tmp_path):
    tree, binding = build_tfim_model(TfimConfig(n=4))
    doc = model_to_dict(tree, binding)
    assert list(doc["binding"]["groups"]) == ["eps_qpe", "eps_trotter", "eps_r"]


def test_unknown_keys_rejected():
    tree, binding = build_tfim_model(TfimConfig(n=4))
    doc = model_to_dict(tree, binding)
    doc["root"]["surprise"] = 1
    with pytest.raises(ModelFormatError, match="unknown key"):
        model_from_dict(doc)


def test_unknown_keys_rejected_deep():
    tree, binding = build_tfim_model(TfimConfig(n=4))
    doc = model_to_dict(tree, binding)
    doc["root"]["children"][0]["multiplicity"]["round"] = "up"
    with pytest.raises(ModelFormatError, match=r"children\[0\].multiplicity"):
        model_from_dict(doc)


def test_leaf_requires_cost_form():
    with pytest.raises(ModelFormatError, match="leaf_cost"):
        model_from_dict(
            {"root": {"name": "g", "kind": "leaf"}, "binding": {"groups": {}}}
        )


def test_composite_rejects_leaf_cost():
    doc = {
        "root": {
            "name": "r",
            "kind": "composite",
            "children": [],
            "leaf_cost": {"count": 1, "gates_per_unit_logeps": 1},
        },
        "binding": {"groups": {}},
    }
    with pytest.raises(ModelFormatError):
        model_from_dict(doc)


def test_syntax_error_is_line_anchored(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "root": {,}\n}\n')
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(path)
    assert ":2:" in str(excinfo.value)


def test_defaults_for_optional_fields():
    doc = {
        "root": {
            "name": "r",
            "kind": "composite",
            "self_error_group": "a",
            "children": [
                {
                    "multiplicity": {"coefficient": 2.0},
                    "node": {
                        "name": "g",
                        "kind": "leaf",
                        "self_error_group": "b",
                        "leaf_cost": {"count": 3, "gates_per_unit_logeps": 4},
                    },
                }
            ],
        },
        "binding": {"groups": {"a": ["a"], "b": ["b"]}},
    }
    tree, binding = model_from_dict(doc)
    assert validate_model(tree, binding).ok
    # constant multiplicity, zero offset
    assert total_error(tree, binding, [0.25, 0.125]) == 0.25 + 2 * 3 * 0.125


def test_rounding_values_restricted():
    doc = {
        "root": {
            "name": "r",
            "kind": "composite",
            "children": [
                {
                    "multiplicity": {"coefficient": 2.0, "rounding": "down"},
                    "node": {
                        "name": "g",
                        "kind": "leaf",
                        "self_error_group": "b",
                        "leaf_cost": {"count": 3, "gates_per_unit_logeps": 4},
                    },
                }
            ],
        },
        "binding": {"groups": {"b": ["b"]}},
    }
    with pytest.raises(ModelFormatError, match="rounding"):
        model_from_dict(doc)


def test_numbers_must_be_numbers():
    doc = {
        "root": {"name": "g", "kind": "leaf", "self_error_group": "b",
                 "leaf_cost": {"count": "three", "gates_per_unit_logeps": 4}},
        "binding": {"groups": {"b": ["b"]}},
    }
    with pytest.raises(ModelFormatError, match="number"):
        model_from_dict(doc)


def test_document_is_valid_json_text(tmp_path):
    tree, binding = build_tfim_model(TfimConfig(n=3))
    path = tmp_path / "m.json"
    save_model(tree, binding, path)
    json.loads(path.read_text())


def stdlib_text(tree, binding) -> str:
    """The reference layout: the dict form through the standard library's encoder."""
    return json.dumps(model_to_dict(tree, binding), indent=2) + "\n"


def tfim_models(n):
    for preset in PRESETS:
        for k in (0, 1, 3, 100):
            try:
                yield build_tfim_model(TfimConfig(n=n), preset, k)
            except ConfigurationError:  # a preset without redundant groups, or k too large
                pass


@pytest.mark.parametrize("n", [2, 3, 4, 10, 30])
def test_writer_matches_stdlib_on_every_preset(n, tmp_path):
    models = list(tfim_models(n))
    assert len(models) >= 5
    for tree, binding in models:
        text = model_to_json(tree, binding)
        assert text == stdlib_text(tree, binding)
        path = tmp_path / "m.json"
        save_model(tree, binding, path)
        assert path.read_bytes() == text.encode("ascii")
        # a reload turns the integer counts into floats
        reloaded = load_model(path)
        assert model_to_json(*reloaded) == stdlib_text(*reloaded) != text


def leaf(name="g", slot="b", count=3.0, gates=4.0, offset=0.0):
    return BudgetNode.leaf(name, slot, LeafCost(count, gates, offset))


def composite(children, name="r", slot="a"):
    return BudgetNode.composite(name, slot, children)


ODD_MODELS = {
    "non-finite numbers": (
        composite([(Multiplicity(math.nan, math.inf, Rounding.CEIL),
                     leaf(count=-math.inf, gates=-0.0, offset=math.nan))]),
        ParameterBinding.from_dict({"a": ["a"], "b": ["b"]}),
    ),
    "negative zero and tiny floats": (
        composite([(Multiplicity(-0.0, 5e-324), leaf(count=1e300, gates=0.1, offset=-1e-7))]),
        ParameterBinding.from_dict({"a": ["a"], "b": ["b"]}),
    ),
    "int and bool coefficients": (
        composite([(Multiplicity(3, 1), leaf()), (Multiplicity(True, False), leaf("h", "c"))]),
        ParameterBinding.from_dict({"a": ["a"], "b": ["b", "c"]}),
    ),
    "float and str subclasses": (
        composite([(Multiplicity(np.float64(0.1), np.float64(-math.inf)),
                    leaf(count=np.float64(2)))], name=type("Name", (str,), {})("sub")),
        ParameterBinding.from_dict({"a": ["a"], "b": ["b"]}),
    ),
    "non-ASCII and quote characters": (
        composite([(Multiplicity(1.0), leaf('q"uo\\te\n\t', "ε_r"))],
                  name="φ→ψ ☃ 𝄞", slot='"a"'),
        ParameterBinding.from_dict({'"a"': ['"a"'], "ε_r": ["ε_r"], "ünused": []}),
    ),
    "leaf root without a slot": (leaf(slot=None), ParameterBinding.from_dict({})),
    "childless composite, empty group": (
        composite([]), ParameterBinding.from_dict({"a": ["a"], "empty": []}),
    ),
    "empty binding": (composite([(Multiplicity(2.0), composite([], "inner", None))], slot=None),
                      ParameterBinding(())),
    "scalar group names and a repeated one": (
        leaf(),
        ParameterBinding(((1, ("b",)), (2.5, ()), (None, ("x",)), (True, ()), (1, ("y", "z")))),
    ),
    "non-string slot names": (leaf(slot=7), ParameterBinding.from_dict({"b": [7, None, ["n"]]})),
}


@pytest.mark.parametrize("name", ODD_MODELS)
def test_writer_matches_stdlib_on_odd_values(name):
    tree, binding = ODD_MODELS[name]
    assert model_to_json(tree, binding) == stdlib_text(tree, binding)


@pytest.mark.parametrize("binding", [
    ParameterBinding(((("a", "b"), ("b",)),)),  # a tuple key
    ParameterBinding((("b", (object(),)),)),
])
def test_writer_raises_as_stdlib_on_unencodable_values(binding):
    with pytest.raises(TypeError) as reference:
        stdlib_text(leaf(), binding)
    with pytest.raises(TypeError) as writer:
        model_to_json(leaf(), binding)
    assert str(writer.value) == str(reference.value)


def valid_document() -> dict:
    return {
        "root": {
            "name": "r", "kind": "composite", "self_error_group": "a",
            "children": [{
                "multiplicity": {"coefficient": 2.0, "exponent": 1.0, "rounding": "ceil"},
                "node": {"name": "g", "kind": "leaf", "self_error_group": "b",
                         "leaf_cost": {"count": 3, "gates_per_unit_logeps": 4.0,
                                       "additive_offset": 0.0}},
            }],
        },
        "binding": {"groups": {"a": ["a"], "b": ["b"]}},
    }


DROP = object()
ROOT, CHILD = ("root",), ("root", "children", 0)
MULT, NODE = CHILD + ("multiplicity",), CHILD + ("node",)
LAW = NODE + ("leaf_cost",)
# (where in the document, key, new value or DROP, location, message)
MALFORMED = [
    ((), "extra", 1, "$", "unknown key 'extra'"),
    ((), "root", DROP, "$", "missing key 'root'"),
    ((), "binding", DROP, "$", "missing key 'binding'"),
    ((), "root", [], "$.root", "node must be an object"),
    (ROOT, "surprise", 1, "$.root", "unknown key 'surprise'"),
    (ROOT, "name", DROP, "$.root", "missing key 'name'"),
    (ROOT, "kind", DROP, "$.root", "missing key 'kind'"),
    (ROOT, "name", 3, "$.root", "node name must be a non-empty string"),
    (ROOT, "name", "", "$.root", "node name must be a non-empty string"),
    (ROOT, "kind", "branch", "$.root", "unknown node kind 'branch'"),
    (ROOT, "kind", None, "$.root", "unknown node kind None"),
    (ROOT, "self_error_group", 1, "$.root", "self_error_group must be a string"),
    (ROOT, "leaf_cost", {"count": 1, "gates_per_unit_logeps": 1}, "$.root",
     "composite nodes cannot carry a leaf_cost"),
    (ROOT, "children", {}, "$.root", "children must be a list"),
    (ROOT, "children", [3], "$.root.children[0]", "child entry must be an object"),
    (CHILD, "weight", 1, "$.root.children[0]", "unknown key 'weight'"),
    (CHILD, "multiplicity", DROP, "$.root.children[0]", "missing key 'multiplicity'"),
    (CHILD, "node", DROP, "$.root.children[0]", "missing key 'node'"),
    (CHILD, "multiplicity", 2.0, "$.root.children[0].multiplicity",
     "multiplicity must be an object"),
    (CHILD, "node", "g", "$.root.children[0].node", "node must be an object"),
    (MULT, "round", "up", "$.root.children[0].multiplicity", "unknown key 'round'"),
    (MULT, "coefficient", DROP, "$.root.children[0].multiplicity", "missing key 'coefficient'"),
    (MULT, "rounding", "down", "$.root.children[0].multiplicity", "unknown rounding 'down'"),
    (MULT, "rounding", ["ceil"], "$.root.children[0].multiplicity", "unknown rounding ['ceil']"),
    (MULT, "rounding", None, "$.root.children[0].multiplicity", "unknown rounding None"),
    (MULT, "coefficient", "2", "$.root.children[0].multiplicity",
     "key 'coefficient' must be a number"),
    (MULT, "exponent", True, "$.root.children[0].multiplicity",
     "key 'exponent' must be a number"),
    (MULT, "exponent", None, "$.root.children[0].multiplicity",
     "key 'exponent' must be a number"),
    (NODE, "children", [], "$.root.children[0].node", "leaf nodes cannot have children"),
    (NODE, "leaf_cost", DROP, "$.root.children[0].node", "leaf nodes require a leaf_cost"),
    (NODE, "self_error_group", ["b"], "$.root.children[0].node",
     "self_error_group must be a string"),
    (NODE, "leaf_cost", [], "$.root.children[0].node.leaf_cost", "leaf_cost must be an object"),
    (LAW, "cost", 1, "$.root.children[0].node.leaf_cost", "unknown key 'cost'"),
    (LAW, "count", DROP, "$.root.children[0].node.leaf_cost", "missing key 'count'"),
    (LAW, "gates_per_unit_logeps", DROP, "$.root.children[0].node.leaf_cost",
     "missing key 'gates_per_unit_logeps'"),
    (LAW, "count", "three", "$.root.children[0].node.leaf_cost", "key 'count' must be a number"),
    (LAW, "gates_per_unit_logeps", False, "$.root.children[0].node.leaf_cost",
     "key 'gates_per_unit_logeps' must be a number"),
    (LAW, "additive_offset", [0.0], "$.root.children[0].node.leaf_cost",
     "key 'additive_offset' must be a number"),
    ((), "binding", ["a"], "$.binding", "binding must be an object"),
    (("binding",), "slots", {}, "$.binding", "unknown key 'slots'"),
    (("binding",), "groups", DROP, "$.binding", "missing key 'groups'"),
    (("binding",), "groups", [["a"]], "$.binding.groups", "binding groups must be an object"),
    (("binding", "groups"), "a", "a", "$.binding.groups.a", "group must be a list of slot names"),
    (("binding", "groups"), "b", ["b", 2], "$.binding.groups.b",
     "group must be a list of slot names"),
]


@pytest.mark.parametrize("where, key, value, location, message", MALFORMED)
def test_malformed_documents_name_the_fault_and_its_place(where, key, value, location, message):
    document = valid_document()
    model_from_dict(document)  # valid as it stands
    part = document
    for step in where:
        part = part[step]
    if value is DROP:
        del part[key]
    else:
        part[key] = value
    with pytest.raises(ModelFormatError) as excinfo:
        model_from_dict(document)
    assert excinfo.value.location == location
    assert str(excinfo.value) == f"{location}: {message}"


def test_document_that_is_not_an_object():
    with pytest.raises(ModelFormatError) as excinfo:
        model_from_dict([valid_document()])
    assert str(excinfo.value) == "$: model document must be an object"


@pytest.mark.parametrize("hash_seed", ["1", "3"])
def test_missing_keys_are_named_in_a_fixed_order(hash_seed):
    # string hashes, and so a set's order, change with PYTHONHASHSEED: under
    # seed 1 a set of the two names iterates 'kind' first, under 3 'name'
    code = (
        "from errorbudget.modelio import ModelFormatError, model_from_dict\n"
        "for document in ({'root': {}, 'binding': {'groups': {}}}, {},\n"
        "                 {'root': {'name': 'r', 'kind': 'composite', 'children': [{}]},\n"
        "                  'binding': {'groups': {}}},\n"
        "                 {'root': {'name': 'g', 'kind': 'leaf', 'leaf_cost': {}},\n"
        "                  'binding': {'groups': {}}}):\n"
        "    try:\n"
        "        model_from_dict(document)\n"
        "    except ModelFormatError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "$.root: missing key 'name'",
        "$: missing key 'root'",
        "$.root.children[0]: missing key 'multiplicity'",
        "$.root.leaf_cost: missing key 'count'",
    ]
