"""JSON serialisation of budget model files.

A model file is a JSON document::

    {
      "root": <node>,
      "binding": {"groups": {<group name>: [<slot>, ...], ...}}
    }

    <node> = {
      "name": str,
      "kind": "composite" | "leaf",
      "self_error_group": str,            # optional tolerance slot
      "children": [                       # composite nodes only
        {"multiplicity": {"coefficient": float,
                          "exponent": float,          # optional, default 0
                          "rounding": "continuous" | "ceil"},  # optional
         "node": <node>},
        ...
      ],
      "leaf_cost": {"count": float,       # leaf nodes only
                    "gates_per_unit_logeps": float,
                    "additive_offset": float}         # optional, default 0
    }

The optimization variable has one entry per binding group, in the order the
groups appear in the file.  Unknown keys are rejected everywhere so typos
cannot silently change a model.

Saved files have the layout of ``json.dumps(model_to_dict(...), indent=2)``
byte for byte; :func:`model_to_json` writes that text straight from the tree,
without the pure-Python encoder that ``indent`` selects.  Any JSON layout
loads.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path
from typing import Any

from .model import (
    BudgetNode,
    ChildEdge,
    LeafCost,
    Multiplicity,
    NodeKind,
    ParameterBinding,
    Rounding,
)


class ModelFormatError(ValueError):
    """Raised for malformed or schema-violating model files.

    ``location`` is either a ``line:column`` anchor (JSON syntax errors) or a
    path into the document (schema errors).
    """

    def __init__(self, message: str, location: str = "") -> None:
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


def _require_keys(obj: dict, allowed, required, where: str) -> None:
    """Reject the first unknown key of ``obj``, then the first missing one of ``required``.

    ``allowed`` and ``required`` are sets or set views; missing keys are
    looked up in ``required``'s iteration order, so made with :func:`_keys`
    the error does not depend on the string hash seed.
    """
    keys = obj.keys()
    if keys <= allowed and keys >= required:
        return
    for key in obj:
        if key not in allowed:
            raise ModelFormatError(f"unknown key {key!r}", where)
    for key in required:
        if key not in obj:
            raise ModelFormatError(f"missing key {key!r}", where)


def _number(obj: dict, key: str, where: str, default: float | None = None) -> float:
    value = obj.get(key)
    if type(value) is float:
        return value
    if key not in obj:
        if default is None:
            raise ModelFormatError(f"missing key {key!r}", where)
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"key {key!r} must be a number", where)
    try:
        return float(value)
    except OverflowError:  # an integer beyond the double range
        raise ModelFormatError(f"key {key!r} is out of the floating-point range", where) from None


def _keys(*names: str):
    """``names`` as a set view that iterates in the order given (a dict's keys)."""
    return dict.fromkeys(names).keys()


_ROUNDINGS = {rounding.value: rounding for rounding in Rounding}
_MULTIPLICITY_KEYS = {"coefficient", "exponent", "rounding"}
_LEAF_COST_KEYS = {"count", "gates_per_unit_logeps", "additive_offset"}
_NODE_KEYS = {"name", "kind", "self_error_group", "children", "leaf_cost"}
_CHILD_KEYS = _keys("multiplicity", "node")
_DOCUMENT_KEYS = _keys("root", "binding")
_BINDING_KEYS = _keys("groups")
_REQUIRED_MULTIPLICITY_KEYS = _keys("coefficient")
_REQUIRED_LEAF_COST_KEYS = _keys("count", "gates_per_unit_logeps")
_REQUIRED_NODE_KEYS = _keys("name", "kind")


def _parse_multiplicity(obj: Any, where: str) -> Multiplicity:
    if not isinstance(obj, dict):
        raise ModelFormatError("multiplicity must be an object", where)
    _require_keys(obj, _MULTIPLICITY_KEYS, _REQUIRED_MULTIPLICITY_KEYS, where)
    rounding = obj.get("rounding", "continuous")
    if rounding not in ("continuous", "ceil"):
        raise ModelFormatError(f"unknown rounding {rounding!r}", where)
    return Multiplicity(
        coefficient=_number(obj, "coefficient", where),
        exponent=_number(obj, "exponent", where, default=0.0),
        rounding=_ROUNDINGS[rounding],
    )


def _parse_leaf_cost(obj: Any, where: str) -> LeafCost:
    if not isinstance(obj, dict):
        raise ModelFormatError("leaf_cost must be an object", where)
    _require_keys(obj, _LEAF_COST_KEYS, _REQUIRED_LEAF_COST_KEYS, where)
    return LeafCost(
        count=_number(obj, "count", where),
        gates_per_unit_logeps=_number(obj, "gates_per_unit_logeps", where),
        additive_offset=_number(obj, "additive_offset", where, default=0.0),
    )


def _parse_node(obj: Any, where: str) -> BudgetNode:
    if not isinstance(obj, dict):
        raise ModelFormatError("node must be an object", where)
    _require_keys(obj, _NODE_KEYS, _REQUIRED_NODE_KEYS, where)
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise ModelFormatError("node name must be a non-empty string", where)
    kind = obj["kind"]
    if kind not in ("composite", "leaf"):
        raise ModelFormatError(f"unknown node kind {kind!r}", where)
    slot = obj.get("self_error_group")
    if slot is not None and not isinstance(slot, str):
        raise ModelFormatError("self_error_group must be a string", where)

    if kind == "leaf":
        if "children" in obj:
            raise ModelFormatError("leaf nodes cannot have children", where)
        if "leaf_cost" not in obj:
            raise ModelFormatError("leaf nodes require a leaf_cost", where)
        return BudgetNode.leaf(name, slot, _parse_leaf_cost(obj["leaf_cost"], f"{where}.leaf_cost"))

    if "leaf_cost" in obj:
        raise ModelFormatError("composite nodes cannot carry a leaf_cost", where)
    children = obj.get("children", [])
    if not isinstance(children, list):
        raise ModelFormatError("children must be a list", where)
    edges = []
    for i, child in enumerate(children):
        cwhere = f"{where}.children[{i}]"
        if not isinstance(child, dict):
            raise ModelFormatError("child entry must be an object", cwhere)
        _require_keys(child, _CHILD_KEYS, _CHILD_KEYS, cwhere)
        edges.append(
            (
                _parse_multiplicity(child["multiplicity"], f"{cwhere}.multiplicity"),
                _parse_node(child["node"], f"{cwhere}.node"),
            )
        )
    return BudgetNode.composite(name, slot, edges)


def _parse_binding(obj: Any, where: str) -> ParameterBinding:
    if not isinstance(obj, dict):
        raise ModelFormatError("binding must be an object", where)
    _require_keys(obj, _BINDING_KEYS, _BINDING_KEYS, where)
    groups = obj["groups"]
    if not isinstance(groups, dict):
        raise ModelFormatError("binding groups must be an object", f"{where}.groups")
    parsed: dict[str, list[str]] = {}
    for gname, slots in groups.items():
        gwhere = f"{where}.groups.{gname}"
        if not isinstance(slots, list) or not all(isinstance(s, str) for s in slots):
            raise ModelFormatError("group must be a list of slot names", gwhere)
        parsed[gname] = list(slots)
    return ParameterBinding.from_dict(parsed)


def model_from_dict(document: Any) -> tuple[BudgetNode, ParameterBinding]:
    """Parse an already-decoded model document."""
    if not isinstance(document, dict):
        raise ModelFormatError("model document must be an object", "$")
    _require_keys(document, _DOCUMENT_KEYS, _DOCUMENT_KEYS, "$")
    tree = _parse_node(document["root"], "$.root")
    binding = _parse_binding(document["binding"], "$.binding")
    return tree, binding


def model_to_dict(tree: BudgetNode, binding: ParameterBinding) -> dict:
    """Serialise a tree/binding pair into the model document structure."""

    def node_dict(node: BudgetNode) -> dict:
        out: dict[str, Any] = {"name": node.name, "kind": node.kind.value}
        if node.self_error_slot is not None:
            out["self_error_group"] = node.self_error_slot
        if node.kind is NodeKind.LEAF:
            assert node.leaf_cost is not None
            out["leaf_cost"] = {
                "count": node.leaf_cost.count,
                "gates_per_unit_logeps": node.leaf_cost.gates_per_unit_logeps,
                "additive_offset": node.leaf_cost.additive_offset,
            }
        else:
            out["children"] = [
                {
                    "multiplicity": {
                        "coefficient": edge.multiplicity.coefficient,
                        "exponent": edge.multiplicity.exponent,
                        "rounding": edge.multiplicity.rounding.value,
                    },
                    "node": node_dict(edge.node),
                }
                for edge in node.children
            ]
        return out

    return {
        "root": node_dict(tree),
        "binding": {"groups": {name: list(slots) for name, slots in binding.groups}},
    }


def _value(value: Any, pad: str) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it at indentation ``pad``."""
    if type(value) is float and -math.inf < value < math.inf:
        return float.__repr__(value)
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, str):
        return _string(value)
    # NaN, infinities, bools, None, subclasses and containers, as the encoder has them
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _write_node(node: BudgetNode, pad: str, out: list[str]) -> None:
    """Append ``node``'s object, its opening brace already at indentation ``pad``."""
    p1 = pad + "  "
    out.append(f'{{\n{p1}"name": {_value(node.name, p1)},')
    out.append(f'\n{p1}"kind": {_value(node.kind.value, p1)}')
    if node.self_error_slot is not None:
        out.append(f',\n{p1}"self_error_group": {_value(node.self_error_slot, p1)}')
    p2 = p1 + "  "
    if node.kind is NodeKind.LEAF:
        law = node.leaf_cost
        assert law is not None
        out.append(
            f',\n{p1}"leaf_cost": {{\n{p2}"count": {_value(law.count, p2)},'
            f'\n{p2}"gates_per_unit_logeps": {_value(law.gates_per_unit_logeps, p2)},'
            f'\n{p2}"additive_offset": {_value(law.additive_offset, p2)}\n{p1}}}\n{pad}}}'
        )
        return
    if not node.children:
        out.append(f',\n{p1}"children": []\n{pad}}}')
        return
    p3, p4 = p2 + "  ", p2 + "    "
    out.append(f',\n{p1}"children": [')
    separator = "\n"
    for edge in node.children:
        m = edge.multiplicity
        out.append(
            f'{separator}{p2}{{\n{p3}"multiplicity": {{'
            f'\n{p4}"coefficient": {_value(m.coefficient, p4)},'
            f'\n{p4}"exponent": {_value(m.exponent, p4)},'
            f'\n{p4}"rounding": {_value(m.rounding.value, p4)}\n{p3}}},\n{p3}"node": '
        )
        _write_node(edge.node, p3, out)
        out.append(f"\n{p2}}}")
        separator = ",\n"
    out.append(f"\n{p1}]\n{pad}}}")


def model_to_json(tree: BudgetNode, binding: ParameterBinding) -> str:
    """The model file's text: ``json.dumps(model_to_dict(tree, binding), indent=2) + "\\n"``.

    Written straight from the tree, byte for byte as the standard library
    writes the dict form: strings through ``encode_basestring_ascii``, finite
    floats and ints through their ``repr``, every other value through
    ``json.dumps``.
    """
    out = ['{\n  "root": ']
    _write_node(tree, "  ", out)
    out.append(',\n  "binding": {\n    "groups": ')
    # a dict first, as in model_to_dict: a repeated name keeps its first place, last slots
    groups = dict(binding.groups)
    items = []
    for name, slots in groups.items():
        # a name that is not a string is written, or refused, by the encoder's rule for keys
        key = _string(name) if isinstance(name, str) else json.dumps({name: 0})[1:-4]
        text = ",\n        ".join([_value(slot, "        ") for slot in slots])
        items.append(f"{key}: " + (f"[\n        {text}\n      ]" if slots else "[]"))
    out.append("{\n      " + ",\n      ".join(items) + "\n    }" if items else "{}")
    out.append("\n  }\n}\n")
    return "".join(out)


def load_model(path: str | Path) -> tuple[BudgetNode, ParameterBinding]:
    """Load and parse a model file, anchoring syntax errors to line/column."""
    text = Path(path).read_text()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(exc.msg, f"{path}:{exc.lineno}:{exc.colno}") from exc
    return model_from_dict(document)


def save_model(tree: BudgetNode, binding: ParameterBinding, path: str | Path) -> None:
    Path(path).write_text(model_to_json(tree, binding))
