"""JSON serialisation of budget model files.

A model file is a UTF-8 JSON document::

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
loads; a file that is not UTF-8, or nested deeper than the JSON decoder
allows, is a :class:`ModelFormatError` like any other malformed file.
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
    _unchecked,
)


class ModelFormatError(ValueError):
    """Raised for malformed or schema-violating model files.

    ``location`` is the file name (undecodable files), a ``file:line:column``
    anchor (JSON syntax errors) or a path into the document (schema errors).
    The parser passes a path as ``(parent, step)`` pairs down from ``"$"``,
    rendered only here: a string step is a key, an integer step ``i`` the
    entry ``children[i]``.
    """

    def __init__(self, message: str, location: str | tuple = "") -> None:
        if type(location) is tuple:
            steps = []
            while type(location) is tuple:
                location, step = location
                steps.append(f".children[{step}]" if type(step) is int else f".{step}")
            location += "".join(reversed(steps))
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


def _require_keys(obj: dict, allowed, required, where) -> None:
    """Reject the first unknown key of ``obj``, then the first missing one of ``required``.

    The parser calls this only when a key-view comparison has failed.
    ``allowed`` and ``required`` are sets or set views; missing keys are
    looked up in ``required``'s iteration order, so made with :func:`_keys`
    the error does not depend on the string hash seed.
    """
    for key in obj:
        if key not in allowed:
            raise ModelFormatError(f"unknown key {key!r}", where)
    for key in required:
        if key not in obj:
            raise ModelFormatError(f"missing key {key!r}", where)


def _number(value: Any, key: str, parent, step) -> float:
    """A model number that is not a ``float`` as a float; faults at ``(parent, step)``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"key {key!r} must be a number", (parent, step))
    try:
        return float(value)
    except OverflowError:  # an integer beyond the double range
        raise ModelFormatError(
            f"key {key!r} is out of the floating-point range", (parent, step)) from None


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
_LEAF, _COMPOSITE = NodeKind.LEAF, NodeKind.COMPOSITE


def model_from_dict(document: Any) -> tuple[BudgetNode, ParameterBinding]:
    """Parse an already-decoded model document.

    One pass checks and builds the tree: every object is checked in full
    before it is built, children in order, each edge's multiplicity before
    its node, the root before the binding.  The first fault raises.
    """
    new_multiplicity, new_leaf_cost, new_edge, new_node = map(
        _unchecked, (Multiplicity, LeafCost, ChildEdge, BudgetNode))

    def node(obj: Any, where) -> BudgetNode:
        if not isinstance(obj, dict):
            raise ModelFormatError("node must be an object", where)
        keys = obj.keys()
        if not (keys <= _NODE_KEYS and keys >= _REQUIRED_NODE_KEYS):
            _require_keys(obj, _NODE_KEYS, _REQUIRED_NODE_KEYS, where)
        name = obj["name"]
        if not isinstance(name, str) or not name:
            raise ModelFormatError("node name must be a non-empty string", where)
        kind = obj["kind"]
        if kind != "leaf" and kind != "composite":
            raise ModelFormatError(f"unknown node kind {kind!r}", where)
        slot = obj.get("self_error_group")
        if slot is not None and not isinstance(slot, str):
            raise ModelFormatError("self_error_group must be a string", where)

        if kind == "leaf":
            if "children" in obj:
                raise ModelFormatError("leaf nodes cannot have children", where)
            if "leaf_cost" not in obj:
                raise ModelFormatError("leaf nodes require a leaf_cost", where)
            law = obj["leaf_cost"]
            if not isinstance(law, dict):
                raise ModelFormatError("leaf_cost must be an object", (where, "leaf_cost"))
            keys = law.keys()
            # one comparison where every key is given, as in saved files
            if keys != _LEAF_COST_KEYS and not (
                    keys <= _LEAF_COST_KEYS and keys >= _REQUIRED_LEAF_COST_KEYS):
                _require_keys(law, _LEAF_COST_KEYS, _REQUIRED_LEAF_COST_KEYS, (where, "leaf_cost"))
            count = law["count"]
            if type(count) is not float:
                count = _number(count, "count", where, "leaf_cost")
            gates = law["gates_per_unit_logeps"]
            if type(gates) is not float:
                gates = _number(gates, "gates_per_unit_logeps", where, "leaf_cost")
            offset = law.get("additive_offset", 0.0)
            if type(offset) is not float:
                offset = _number(offset, "additive_offset", where, "leaf_cost")
            return new_node(name, _LEAF, slot, (), new_leaf_cost(count, gates, offset))

        if "leaf_cost" in obj:
            raise ModelFormatError("composite nodes cannot carry a leaf_cost", where)
        children = obj.get("children", [])
        if not isinstance(children, list):
            raise ModelFormatError("children must be a list", where)
        edges = []
        for i, child in enumerate(children):
            if not isinstance(child, dict):
                raise ModelFormatError("child entry must be an object", (where, i))
            if child.keys() != _CHILD_KEYS:
                _require_keys(child, _CHILD_KEYS, _CHILD_KEYS, (where, i))
            mult = child["multiplicity"]
            if not isinstance(mult, dict):
                raise ModelFormatError(
                    "multiplicity must be an object", ((where, i), "multiplicity"))
            keys = mult.keys()
            if keys != _MULTIPLICITY_KEYS and not (
                    keys <= _MULTIPLICITY_KEYS and keys >= _REQUIRED_MULTIPLICITY_KEYS):
                _require_keys(mult, _MULTIPLICITY_KEYS, _REQUIRED_MULTIPLICITY_KEYS,
                              ((where, i), "multiplicity"))
            value = mult.get("rounding", "continuous")
            rounding = _ROUNDINGS.get(value) if isinstance(value, str) else None
            if rounding is None:
                raise ModelFormatError(f"unknown rounding {value!r}", ((where, i), "multiplicity"))
            coefficient = mult["coefficient"]
            if type(coefficient) is not float:
                coefficient = _number(coefficient, "coefficient", (where, i), "multiplicity")
            exponent = mult.get("exponent", 0.0)
            if type(exponent) is not float:
                exponent = _number(exponent, "exponent", (where, i), "multiplicity")
            multiplicity = new_multiplicity(coefficient, exponent, rounding)
            edges.append(new_edge(multiplicity, node(child["node"], ((where, i), "node"))))
        return new_node(name, _COMPOSITE, slot, tuple(edges), None)

    if not isinstance(document, dict):
        raise ModelFormatError("model document must be an object", "$")
    if document.keys() != _DOCUMENT_KEYS:
        _require_keys(document, _DOCUMENT_KEYS, _DOCUMENT_KEYS, "$")
    try:
        tree = node(document["root"], ("$", "root"))
    except RecursionError:  # a document built in Python, or by a decoder with a higher limit
        raise ModelFormatError("nested too deeply to parse", "$.root") from None

    binding = document["binding"]
    if not isinstance(binding, dict):
        raise ModelFormatError("binding must be an object", "$.binding")
    if binding.keys() != _BINDING_KEYS:
        _require_keys(binding, _BINDING_KEYS, _BINDING_KEYS, "$.binding")
    groups = binding["groups"]
    if not isinstance(groups, dict):
        raise ModelFormatError("binding groups must be an object", "$.binding.groups")
    parsed = []
    for name, slots in groups.items():
        if not isinstance(slots, list) or not all([isinstance(s, str) for s in slots]):
            raise ModelFormatError("group must be a list of slot names", f"$.binding.groups.{name}")
        parsed.append((name, tuple(slots)))
    return tree, ParameterBinding(tuple(parsed))


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


# the text of each enum member, by value: an enum's own hash is a Python call
_TEXT = {member.value: _string(member.value) for member in (*NodeKind, *Rounding)}
_INF = math.inf
_repr = float.__repr__


def _write_node(node: BudgetNode, pad: str, out: list[str]) -> None:
    """Append ``node``'s object, its opening brace already at indentation ``pad``.

    Finite floats and strings, nearly every value, are written inline;
    :func:`_value` writes the rest.
    """
    p1, p2 = pad + "  ", pad + "    "
    name, slot = node.name, node.self_error_slot
    name = _string(name) if type(name) is str else _value(name, p1)
    text = f'{{\n{p1}"name": {name},\n{p1}"kind": {_TEXT[node.kind._value_]}'
    if slot is not None:
        slot = _string(slot) if type(slot) is str else _value(slot, p1)
        text = f'{text},\n{p1}"self_error_group": {slot}'
    if node.kind is _LEAF:
        law = node.leaf_cost
        assert law is not None
        count, gates, offset = law.count, law.gates_per_unit_logeps, law.additive_offset
        count = _repr(count) if type(count) is float and -_INF < count < _INF else _value(count, p2)
        gates = _repr(gates) if type(gates) is float and -_INF < gates < _INF else _value(gates, p2)
        offset = (_repr(offset) if type(offset) is float and -_INF < offset < _INF
                  else _value(offset, p2))
        out.append(
            f'{text},\n{p1}"leaf_cost": {{\n{p2}"count": {count},'
            f'\n{p2}"gates_per_unit_logeps": {gates},'
            f'\n{p2}"additive_offset": {offset}\n{p1}}}\n{pad}}}'
        )
        return
    if not node.children:
        out.append(f'{text},\n{p1}"children": []\n{pad}}}')
        return
    p3, p4 = p2 + "  ", p2 + "    "
    out.append(f'{text},\n{p1}"children": [')
    # each edge's text closes the one before it
    opening = f"\n{p2}{{"
    for edge in node.children:
        m = edge.multiplicity
        c, e = m.coefficient, m.exponent
        c = _repr(c) if type(c) is float and -_INF < c < _INF else _value(c, p4)
        e = _repr(e) if type(e) is float and -_INF < e < _INF else _value(e, p4)
        out.append(
            f'{opening}\n{p3}"multiplicity": {{\n{p4}"coefficient": {c},\n{p4}"exponent": {e},'
            f'\n{p4}"rounding": {_TEXT[m.rounding._value_]}\n{p3}}},\n{p3}"node": '
        )
        _write_node(edge.node, p3, out)
        opening = f"\n{p2}}},\n{p2}{{"
    out.append(f"\n{p2}}}\n{p1}]\n{pad}}}")


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
        text = ",\n        ".join(
            [_string(slot) if type(slot) is str else _value(slot, "        ") for slot in slots])
        items.append(f"{key}: " + (f"[\n        {text}\n      ]" if slots else "[]"))
    out.append("{\n      " + ",\n      ".join(items) + "\n    }" if items else "{}")
    out.append("\n  }\n}\n")
    return "".join(out)


def load_model(path: str | Path) -> tuple[BudgetNode, ParameterBinding]:
    """Load and parse a UTF-8 model file, anchoring syntax errors to line/column."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(
            f"not UTF-8 text: {exc.reason} at byte offset {exc.start}", str(path)) from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(exc.msg, f"{path}:{exc.lineno}:{exc.colno}") from exc
    except RecursionError:
        raise ModelFormatError("nested too deeply to decode", str(path)) from None
    return model_from_dict(document)


def save_model(tree: BudgetNode, binding: ParameterBinding, path: str | Path) -> None:
    Path(path).write_text(model_to_json(tree, binding), encoding="utf-8")
