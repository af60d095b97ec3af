"""Hierarchical cost/error model for approximation-tolerance budgeting.

A compiled program is represented as a tree of subroutine sets.  A composite
node decomposes into children, where each child edge carries a multiplicity:
how many instances of the child one instance of the parent invokes, possibly
as a function of the parent's own decomposition tolerance (e.g. a phase
estimation loop running ``c / eps`` times).  Leaves are batches of identical
primitive gates whose synthesis cost grows like ``log2(1/eps)`` and whose
error contribution is ``count * eps``.

Evaluating the tree at a tolerance assignment yields the total primitive gate
count (:func:`total_cost`) and a composable upper bound on the overall
operator-norm error (:func:`total_error`).  :func:`expand_flat` materialises
the fully unrolled instance list and serves as the brute-force oracle for the
recursive evaluators.  The optimizer's hot loops run over
:class:`CompiledModel`, one node table of flat arrays compiled from a tree
that :func:`validate_model` accepts, with two passes over it:
:meth:`CompiledModel.evaluate` evaluates batches of tolerance vectors, and
the chain kernel of :mod:`errorbudget.anneal` re-evaluates incrementally as
a chain changes one tolerance entry at a time; :class:`ChainEvaluator` is
its Python reference.  All three read the same arrays.

Tolerance slots are plain string identifiers.  A :class:`ParameterBinding`
partitions the slots appearing in a tree into named groups; the optimization
variable assigns one value per group, so the binding controls the granularity
of the optimization problem without changing the tree.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

#: Hard floor for tolerances; far below any physically relevant value, it only
#: guards log2(1/eps) and 1/eps evaluations against overflow.
EPSILON_FLOOR = 1e-30

#: Largest representable tolerance strictly below 1.
EPSILON_CEILING = math.nextafter(1.0, 0.0)


class ModelError(ValueError):
    """Base class for model construction and evaluation failures."""


class EvaluationError(ModelError):
    """Raised when a model cannot be evaluated at the given tolerances."""


class ExpansionLimitError(ModelError):
    """Raised when a flat expansion would exceed the instance budget."""


class Rounding(Enum):
    """How a multiplicity value is turned into an instance count."""

    CONTINUOUS = "continuous"
    CEIL = "ceil"


@dataclass(frozen=True)
class Multiplicity:
    """Instance count of a child set, ``coefficient * eps**(-exponent)``.

    ``eps`` is the parent node's own decomposition tolerance.  With
    ``exponent == 0`` the count is constant and the parent tolerance is not
    consulted.  ``CEIL`` rounding yields integer counts (>= 1 for positive
    coefficients) and is required for flat expansions and reported costs;
    ``CONTINUOUS`` keeps the optimization landscape smooth.
    """

    coefficient: float
    exponent: float = 0.0
    rounding: Rounding = Rounding.CONTINUOUS

    def __call__(self, eps: float | None) -> float:
        if self.exponent == 0.0:
            value = float(self.coefficient)
        else:
            if eps is None:
                raise EvaluationError(
                    "multiplicity depends on a parent tolerance but none is bound"
                )
            if eps <= 0.0:
                raise EvaluationError(f"tolerance must be positive, got {eps}")
            value = self.coefficient * eps ** -self.exponent
        if self.rounding is Rounding.CEIL:
            value = float(math.ceil(value))
        return value


@dataclass(frozen=True)
class LeafCost:
    """Cost/error law of a batch of ``count`` identical primitive gates.

    Each primitive synthesised to tolerance ``eps`` costs
    ``gates_per_unit_logeps * log2(1/eps) + additive_offset`` gates (clamped
    at zero, so tolerances >= 1 synthesise for free) and contributes ``eps``
    to the composed error.
    """

    count: float
    gates_per_unit_logeps: float
    additive_offset: float = 0.0

    def unit_cost(self, eps: float) -> float:
        if eps <= 0.0:
            raise EvaluationError(f"tolerance must be positive, got {eps}")
        return max(
            0.0, self.gates_per_unit_logeps * math.log2(1.0 / eps) + self.additive_offset
        )

    def cost(self, eps: float) -> float:
        return self.count * self.unit_cost(eps)

    def error(self, eps: float) -> float:
        return self.count * eps


class NodeKind(Enum):
    COMPOSITE = "composite"
    LEAF = "leaf"


@dataclass(frozen=True)
class ChildEdge:
    """A child node together with the multiplicity of its invocation."""

    multiplicity: Multiplicity
    node: "BudgetNode"


@dataclass(frozen=True)
class BudgetNode:
    """One subroutine set in the decomposition tree.

    ``self_error_slot`` names the tolerance this node consumes for its own
    decomposition step: for a composite, the error incurred even if all
    children were implemented exactly; for a leaf, the synthesis tolerance of
    its primitives.  Constant-multiplicity composites that introduce no error
    of their own may leave it unset.
    """

    name: str
    kind: NodeKind
    self_error_slot: str | None = None
    children: tuple[ChildEdge, ...] = ()
    leaf_cost: LeafCost | None = None

    @staticmethod
    def leaf(name: str, slot: str | None, cost: LeafCost) -> "BudgetNode":
        return BudgetNode(name=name, kind=NodeKind.LEAF, self_error_slot=slot, leaf_cost=cost)

    @staticmethod
    def composite(
        name: str,
        self_error_slot: str | None,
        children: Iterable[tuple[Multiplicity, "BudgetNode"]],
    ) -> "BudgetNode":
        edges = tuple(ChildEdge(mult, node) for mult, node in children)
        return BudgetNode(
            name=name, kind=NodeKind.COMPOSITE, self_error_slot=self_error_slot, children=edges
        )

    def walk(self) -> Iterator["BudgetNode"]:
        """Yield this node and all descendants, depth first."""
        yield self
        for edge in self.children:
            yield from edge.node.walk()


@dataclass(frozen=True)
class ParameterBinding:
    """Partition of a tree's tolerance slots into named groups.

    The optimization variable has one entry per group, in group order; every
    slot of group ``k`` receives entry ``k``.  Merging groups coarsens the
    optimization problem without touching the tree.
    """

    groups: tuple[tuple[str, tuple[str, ...]], ...]

    @classmethod
    def from_dict(cls, groups: dict[str, Sequence[str]]) -> "ParameterBinding":
        return cls(tuple((name, tuple(slots)) for name, slots in groups.items()))

    @property
    def dimension(self) -> int:
        return len(self.groups)

    @property
    def group_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.groups)

    def slot_index(self) -> dict[str, int]:
        """Map each bound slot to the index of its group.

        Raises :class:`ModelError` if a slot appears in more than one group.
        """
        index: dict[str, int] = {}
        for k, (name, slots) in enumerate(self.groups):
            for slot in slots:
                if slot in index:
                    raise ModelError(f"slot {slot!r} bound by more than one group")
                index[slot] = k
        return index

    def merged(self, first: str, second: str, name: str | None = None) -> "ParameterBinding":
        """Return a coarser binding with groups ``first`` and ``second`` merged."""
        merged_name = name or first
        out: list[tuple[str, tuple[str, ...]]] = []
        collected: tuple[str, ...] = ()
        for gname, slots in self.groups:
            if gname in (first, second):
                collected = collected + slots
            else:
                out.append((gname, slots))
        if not collected:
            raise ModelError(f"no such groups: {first!r}, {second!r}")
        out.insert(min(self.group_names.index(first), self.group_names.index(second)),
                   (merged_name, collected))
        return ParameterBinding(tuple(out))


@dataclass(frozen=True)
class ToleranceVector:
    """Strictly positive tolerances, one per binding group, each in (0, 1)."""

    values: tuple[float, ...]
    floor: float = EPSILON_FLOOR

    def __post_init__(self) -> None:
        if self.floor <= 0.0:
            raise ModelError(f"tolerance floor must be positive, got {self.floor}")
        for v in self.values:
            if not (self.floor <= v < 1.0):
                raise ModelError(
                    f"tolerance entries must lie in [{self.floor}, 1), got {v}"
                )

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_model`; ``ok`` iff no violations."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _theta_array(theta: Sequence[float] | ToleranceVector | np.ndarray) -> np.ndarray:
    values = getattr(theta, "values", theta)
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise EvaluationError(f"tolerance vector must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise EvaluationError("tolerance vector contains non-finite entries")
    if np.any(arr <= 0.0):
        raise EvaluationError("tolerance entries must be strictly positive")
    if np.any(arr >= 1.0):
        raise EvaluationError("tolerance entries must be strictly below 1")
    return arr


def _slot_values(binding: ParameterBinding, theta: np.ndarray) -> dict[str, float]:
    if len(theta) != binding.dimension:
        raise EvaluationError(
            f"tolerance vector has {len(theta)} entries, binding has {binding.dimension} groups"
        )
    index = binding.slot_index()
    return {slot: float(theta[k]) for slot, k in index.items()}


def validate_model(tree: BudgetNode, binding: ParameterBinding) -> ValidationReport:
    """Structural well-formedness check of a tree/binding pair.

    Never raises; all problems are reported as human-readable violations so
    callers (and the CLI) can surface them together.
    """
    violations: list[str] = []
    referenced: set[str] = set()
    seen: set[int] = set()

    def visit(node: BudgetNode, path: str, stack: tuple[int, ...]) -> None:
        if id(node) in stack:
            violations.append(f"{path}: cycle detected")
            return
        seen.add(id(node))
        if node.self_error_slot is not None:
            referenced.add(node.self_error_slot)
        if node.kind is NodeKind.LEAF:
            if node.leaf_cost is None:
                violations.append(f"{path}: leaf without a cost form")
            else:
                lc = node.leaf_cost
                for field in ("count", "gates_per_unit_logeps", "additive_offset"):
                    if not math.isfinite(getattr(lc, field)):
                        violations.append(f"{path}: non-finite {field} {getattr(lc, field)}")
                if lc.count < 0:
                    violations.append(f"{path}: negative leaf count {lc.count}")
                if lc.gates_per_unit_logeps < 0:
                    violations.append(f"{path}: negative gates-per-log factor")
                if lc.additive_offset < 0:
                    violations.append(f"{path}: negative additive offset")
                if lc.count > 0 and node.self_error_slot is None:
                    violations.append(f"{path}: leaf with gates but no tolerance slot")
            if node.children:
                violations.append(f"{path}: leaf with children")
            return
        if node.leaf_cost is not None:
            violations.append(f"{path}: composite with a leaf cost form")
        if not node.children:
            violations.append(f"{path}: empty composite")
        for edge in node.children:
            mult = edge.multiplicity
            for field in ("coefficient", "exponent"):
                if not math.isfinite(getattr(mult, field)):
                    violations.append(
                        f"{path}/{edge.node.name}: non-finite multiplicity {field} "
                        f"{getattr(mult, field)}"
                    )
            if mult.coefficient <= 0:
                violations.append(
                    f"{path}/{edge.node.name}: non-positive multiplicity coefficient"
                )
            if mult.exponent < 0:
                violations.append(f"{path}/{edge.node.name}: negative multiplicity exponent")
            if mult.exponent != 0 and node.self_error_slot is None:
                violations.append(
                    f"{path}/{edge.node.name}: multiplicity depends on the tolerance of "
                    f"{node.name!r}, which has no slot"
                )
            visit(edge.node, f"{path}/{edge.node.name}", stack + (id(node),))

    visit(tree, tree.name, ())

    counts = collections.Counter(name for name, _ in binding.groups)
    repeated = [name for name, count in counts.items() if count > 1]
    if repeated:
        violations.append(f"binding: duplicate group name {repeated[0]!r}")
    bound: set[str] = set()
    for name, slots in binding.groups:
        for slot in slots:
            if slot in bound:
                violations.append(f"binding: slot {slot!r} doubly bound")
            bound.add(slot)
            if slot not in referenced:
                violations.append(f"binding: group {name!r} binds unknown slot {slot!r}")
    for slot in sorted(referenced - bound):
        violations.append(f"binding: slot {slot!r} unbound")

    return ValidationReport(tuple(violations))


def _node_cost(node: BudgetNode, slots: dict[str, float]) -> float:
    eps = slots.get(node.self_error_slot) if node.self_error_slot else None
    if node.kind is NodeKind.LEAF:
        if node.leaf_cost is None:
            raise EvaluationError(f"leaf {node.name!r} has no cost form")
        if node.leaf_cost.count == 0:
            return 0.0
        if eps is None:
            raise EvaluationError(f"leaf {node.name!r} has no bound tolerance slot")
        return node.leaf_cost.cost(eps)
    total = 0.0
    for edge in node.children:
        total += edge.multiplicity(eps) * _node_cost(edge.node, slots)
    return total


def _node_error(node: BudgetNode, slots: dict[str, float]) -> float:
    eps = slots.get(node.self_error_slot) if node.self_error_slot else None
    if node.kind is NodeKind.LEAF:
        if node.leaf_cost is None or node.leaf_cost.count == 0:
            return 0.0
        if eps is None:
            raise EvaluationError(f"leaf {node.name!r} has no bound tolerance slot")
        return node.leaf_cost.error(eps)
    total = eps if eps is not None else 0.0
    for edge in node.children:
        total += edge.multiplicity(eps) * _node_error(edge.node, slots)
    return total


def total_cost(
    tree: BudgetNode, binding: ParameterBinding, theta: Sequence[float] | ToleranceVector
) -> float:
    """Total primitive gate count of the tree at tolerance assignment ``theta``."""
    arr = _theta_array(theta)
    return _node_cost(tree, _slot_values(binding, arr))


def total_error(
    tree: BudgetNode, binding: ParameterBinding, theta: Sequence[float] | ToleranceVector
) -> float:
    """Composed operator-norm error bound of the tree at ``theta``."""
    arr = _theta_array(theta)
    return _node_error(tree, _slot_values(binding, arr))


def is_feasible(
    tree: BudgetNode,
    binding: ParameterBinding,
    theta: Sequence[float] | ToleranceVector,
    eps_target: float,
) -> bool:
    """Whether the composed error at ``theta`` stays within ``eps_target``."""
    if eps_target <= 0:
        raise EvaluationError(f"error target must be positive, got {eps_target}")
    return total_error(tree, binding, theta) <= eps_target


def as_ceiled(tree: BudgetNode) -> BudgetNode:
    """Copy of the tree with every multiplicity switched to CEIL rounding."""
    if tree.kind is NodeKind.LEAF:
        return tree
    edges = tuple(
        ChildEdge(replace(edge.multiplicity, rounding=Rounding.CEIL), as_ceiled(edge.node))
        for edge in tree.children
    )
    return replace(tree, children=edges)


@dataclass(frozen=True)
class FlatInstance:
    """One row of a flat expansion: ``count`` identical units at ``tolerance``.

    For leaves, a unit is a single primitive gate with cost ``unit_cost``.
    Non-root composites appear as zero-cost rows carrying their per-instance
    decomposition error, so that summing ``count * tolerance`` over all rows
    (plus the root's own tolerance) reproduces the recursive error exactly.
    """

    name: str
    count: int
    tolerance: float
    unit_cost: float


def expand_flat(
    tree: BudgetNode,
    binding: ParameterBinding,
    theta: Sequence[float] | ToleranceVector,
    max_instances: int,
) -> list[FlatInstance]:
    """Fully unroll the tree into individual gate instances.

    Requires CEIL rounding on every multiplicity and integral leaf counts so
    that instance counts are exact integers.  This is the desk-scale oracle
    against which the recursive evaluators are checked; the total instance
    count must not exceed ``max_instances``.
    """
    arr = _theta_array(theta)
    slots = _slot_values(binding, arr)

    for node in tree.walk():
        for edge in node.children:
            if edge.multiplicity.rounding is not Rounding.CEIL:
                raise EvaluationError(
                    f"flat expansion requires CEIL rounding on all multiplicities "
                    f"(edge into {edge.node.name!r} is continuous)"
                )
        if node.kind is NodeKind.LEAF and node.leaf_cost is not None:
            if abs(node.leaf_cost.count - round(node.leaf_cost.count)) > 1e-9:
                raise EvaluationError(
                    f"flat expansion requires integral leaf counts "
                    f"({node.name!r} has count {node.leaf_cost.count})"
                )

    entries: list[FlatInstance] = []
    total = 0

    def add(name: str, count: int, tolerance: float, unit_cost: float) -> None:
        nonlocal total
        total += count
        if total > max_instances:
            raise ExpansionLimitError(
                f"flat expansion exceeds {max_instances} instances"
            )
        entries.append(FlatInstance(name, count, tolerance, unit_cost))

    def visit(node: BudgetNode, inherited: int, is_root: bool) -> None:
        eps = slots.get(node.self_error_slot) if node.self_error_slot else None
        if node.kind is NodeKind.LEAF:
            if node.leaf_cost is None or node.leaf_cost.count == 0:
                return
            assert eps is not None  # leaves with gates always carry a slot
            add(node.name, inherited * round(node.leaf_cost.count), eps,
                node.leaf_cost.unit_cost(eps))
            return
        if not is_root and eps is not None:
            add(node.name, inherited, eps, 0.0)
        for edge in node.children:
            count = edge.multiplicity(eps)
            visit(edge.node, inherited * int(count), False)

    visit(tree, 1, True)
    return entries


class CompiledModel:
    """Node table of a validated tree/binding pair, read in place by every fast evaluator.

    Compiling runs :func:`validate_model` first and raises :class:`ModelError`
    naming every violation, so a compiled model is well formed.  Nodes are
    numbered breadth first: the children of a node have consecutive indices,
    each larger than its parent's, so descending index order visits children
    before parents.  The table is the flat arrays of ``struct table`` in
    ``_chain.c``, which the chain kernel reads as they are (integers int64,
    flags int8, reals float64).  Per node ``i``:

    * ``slot[i]``, the group of the node's own tolerance (a composite's
      decomposition error or a leaf's synthesis tolerance), ``-1`` if none;
      leaves without gates cost nothing, err nothing and have no slot;
    * ``has_law[i]`` and ``law[i]``, the cost law ``(count, gates per
      log2(1/eps), offset)`` of a leaf with gates, zeros for other nodes;
    * ``needs_eps[i]``, whether any edge multiplicity depends on the node's
      own tolerance;
    * its edges, ``kid_ptr[i]:kid_ptr[i + 1]`` of ``kid`` (the child),
      ``coeff``, ``nexp`` (the negated exponent) and ``ceil`` (rounded up);
      constant multiplicities are stored already rounded.

    Per group ``k``, ``dirty[dirty_ptr[k]:dirty_ptr[k + 1]]`` are the nodes
    bound to ``k`` and their ancestors, in descending index order.

    :meth:`evaluate_columns` is one children-first pass over the table (and
    :attr:`leaf_groups`), vectorised over one column of tolerances per
    group; :meth:`evaluate` runs it on a batch of vectors and the grid
    oracle on grid axes.  The chain kernel and :class:`ChainEvaluator`
    repeat the pass incrementally, over the dirty nodes of one group only.
    """

    def __init__(self, tree: BudgetNode, binding: ParameterBinding) -> None:
        report = validate_model(tree, binding)
        if not report.ok:
            raise ModelError("model failed validation: " + "; ".join(report.violations))
        self.binding = binding
        self.dimension = binding.dimension
        group_of = binding.slot_index()

        nodes, parent, mults, kid_ptr = [tree], [-1], [], []
        for i, node in enumerate(nodes):  # grows while iterated: breadth first
            kid_ptr.append(len(mults))
            for edge in node.children:  # edge j leads into node j + 1
                nodes.append(edge.node)
                parent.append(i)
                mults.append(edge.multiplicity)
        kid_ptr.append(len(mults))
        n = self.n_nodes = len(nodes)

        slot = [-1] * n
        laws = [(0.0, 0.0, 0.0)] * n
        dirty: list[set[int]] = [set() for _ in range(self.dimension)]
        for i, node in enumerate(nodes):
            law = node.leaf_cost  # None exactly for composites
            if law is not None and law.count > 0:
                laws[i] = (law.count, law.gates_per_unit_logeps, law.additive_offset)
            if node.self_error_slot is not None and (law is None or law.count > 0):
                slot[i] = k = group_of[node.self_error_slot]
                j = i
                while j >= 0 and j not in dirty[k]:
                    dirty[k].add(j)
                    j = parent[j]
        nexp = [-float(m.exponent) for m in mults]
        dirty_lists = [sorted(nodes_of_k, reverse=True) for nodes_of_k in dirty]

        self.slot = np.array(slot, dtype=np.int64)
        self.needs_eps = np.array(
            [any(nexp[kid_ptr[i]:kid_ptr[i + 1]]) for i in range(n)], dtype=np.int8
        )
        self.law = np.array(laws, dtype=np.float64)
        self.has_law = (self.law[:, 0] > 0).astype(np.int8)  # a leaf with gates
        self.kid_ptr = np.array(kid_ptr, dtype=np.int64)
        self.kid = np.arange(1, n, dtype=np.int64)
        self.coeff = np.array(
            [m(None) if m.exponent == 0 else float(m.coefficient) for m in mults], dtype=np.float64
        )
        self.nexp = np.array(nexp, dtype=np.float64)
        self.ceil = np.array([m.rounding is Rounding.CEIL for m in mults], dtype=np.int8)
        self.dirty_ptr = np.array([0, *itertools.accumulate(map(len, dirty_lists))], dtype=np.int64)
        self.dirty = np.array([i for nodes_of_k in dirty_lists for i in nodes_of_k], dtype=np.int64)

    @functools.cached_property
    def leaf_groups(self) -> list[tuple[int, list[int], np.ndarray]]:
        """Per group ``k`` with leaves, ``(k, its leaves, their laws as rows)``; built when used."""
        leaves_of: dict[int, list[int]] = {}
        for i, (k, has_law) in enumerate(zip(self.slot.tolist(), self.has_law.tolist())):
            if has_law:
                leaves_of.setdefault(k, []).append(i)
        return [(k, nodes, self.law[nodes]) for k, nodes in sorted(leaves_of.items())]

    def evaluate(self, theta: Sequence[float] | ToleranceVector | np.ndarray):
        """Return ``(cost, error)`` at one tolerance vector or a batch of them.

        ``theta`` may be a single vector of shape ``(P,)`` or a batch of shape
        ``(B, P)``; single vectors return floats, batches return arrays.
        """
        values = getattr(theta, "values", theta)
        arr = np.asarray(values, dtype=float)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.dimension:
            raise EvaluationError(
                f"expected tolerance vectors of dimension {self.dimension}, "
                f"got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise EvaluationError("tolerance vector contains non-finite entries")
        if np.any(arr <= 0.0) or np.any(arr >= 1.0):
            raise EvaluationError("tolerance entries must lie strictly inside (0, 1)")

        costs, errors = self.evaluate_columns(list(np.ascontiguousarray(arr.T)))
        costs = np.broadcast_to(costs, arr.shape[:1])
        errors = np.broadcast_to(errors, arr.shape[:1])
        if single:
            return float(costs[0]), float(errors[0])
        return costs.copy(), errors.copy()

    def evaluate_columns(self, columns: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Root ``(cost, error)`` with the tolerances of group ``k`` in ``columns[k]``.

        The columns are arrays that broadcast against each other, and so are
        the results: a batch of vectors gives one column per group, a grid
        one axis per group reshaped to its own dimension.  Leaf ``log2`` and
        edge multiplicities are computed per column entry, each node's
        totals on the broadcast of its subtree's columns, and children are
        summed left to right.  Entries are not checked: they must lie
        strictly inside (0, 1).
        """
        cost: list = [0.0] * self.n_nodes
        error: list = [0.0] * self.n_nodes
        for k, nodes, laws in self.leaf_groups:
            eps = columns[k]
            count, gpl, off = laws.T.reshape((3, -1) + (1,) * eps.ndim)
            unit = np.maximum(0.0, gpl * np.log2(1.0 / eps) + off)
            for i, leaf_cost, leaf_error in zip(nodes, count * unit, count * eps):
                cost[i], error[i] = leaf_cost, leaf_error
        slot, needs_eps = self.slot.tolist(), self.needs_eps.tolist()
        kid_ptr, kid = self.kid_ptr.tolist(), self.kid.tolist()
        coeff, nexp, ceil = self.coeff.tolist(), self.nexp.tolist(), self.ceil.tolist()
        for i in range(self.n_nodes - 1, -1, -1):
            lo, hi = kid_ptr[i], kid_ptr[i + 1]
            if lo == hi:
                continue  # a leaf
            for j in range(lo, hi):
                m = coeff[j]
                if needs_eps[i]:
                    # the exponent as a scalar: numpy then runs the same power
                    # loop over the column whatever its length
                    m = m * np.power(columns[slot[i]], nexp[j])
                    if ceil[j]:
                        m = np.ceil(m)
                child = kid[j]
                if j == lo:
                    cost[i], error[i] = m * cost[child], m * error[child]
                else:
                    cost[i] = cost[i] + m * cost[child]
                    error[i] = error[i] + m * error[child]
            if slot[i] >= 0:
                error[i] = error[i] + columns[slot[i]]
        return cost[0], error[0]


def compile_model(tree: BudgetNode, binding: ParameterBinding) -> CompiledModel:
    """Validate and compile a tree/binding pair for fast repeated evaluation."""
    return CompiledModel(tree, binding)


class ChainEvaluator:
    """Stateful evaluator for single-coordinate update chains.

    Caches per-node cost/error aggregates over a :class:`CompiledModel`'s node
    table; changing tolerance entry ``k`` recomputes only the table's dirty
    nodes of group ``k``, each from its children's cached aggregates.  Because
    every touched node is recomputed from scratch (never delta-adjusted), the
    cached totals are always exactly what a fresh evaluation would produce,
    and reverting an update restores bit-identical state.

    This is the reference for the compiled chain kernel (``_chain.c``), and
    both do the same IEEE-754 operations in the same order on Python floats
    or C doubles: each edge multiplicity is ``coeff * eps ** nexp`` with the
    C library's ``pow`` (rounded up on ``CEIL`` edges), a leaf costs
    ``count * max(0.0, gpl * log2(1.0 / eps) + offset)``, and a node's sums
    run left to right over its children from ``0.0``.  No BLAS call and no
    numpy ufunc is involved, so the totals do not depend on the machine's
    vector kernels.
    """

    def __init__(self, compiled: CompiledModel) -> None:
        self.dimension = compiled.dimension
        n = compiled.n_nodes
        self._theta: list[float] = [math.nan] * self.dimension
        self._cost = [0.0] * n
        self._err = [0.0] * n
        self._coeff = compiled.coeff.tolist()
        self._nexp = compiled.nexp.tolist()
        self._ceil = compiled.ceil.tolist()
        self._m = self._coeff.copy()  # edge multiplicities, as the kernel's m
        slot, kid_ptr = compiled.slot.tolist(), compiled.kid_ptr.tolist()
        needs_eps, kid = compiled.needs_eps.tolist(), compiled.kid.tolist()
        laws = [law if has_law else None
                for law, has_law in zip(compiled.law.tolist(), compiled.has_law.tolist())]
        # each node's children as a list of their own: slicing them from
        # ``kid`` on every visit slows an update by about 5% at dimension 103
        kids = [kid[kid_ptr[i]:kid_ptr[i + 1]] for i in range(n)]

        def visits(nodes: Iterable[int], changed: int | None) -> list[tuple]:
            """What refreshing ``nodes`` after a change of group ``changed`` (all if None) reads."""
            return [
                (i, slot[i], laws[i], slice(kid_ptr[i], kid_ptr[i + 1]), kids[i],
                 needs_eps[i] == 1 and changed in (None, slot[i]))
                for i in nodes
            ]

        self._all = visits(range(n - 1, -1, -1), None)
        ptr, dirty = compiled.dirty_ptr.tolist(), compiled.dirty.tolist()
        self._dirty = [visits(dirty[ptr[k]:ptr[k + 1]], k) for k in range(self.dimension)]

    def _refresh(self, visits: list[tuple]) -> None:
        """Recompute the nodes of ``visits``, given children first, from their children."""
        theta, cost, err, ms = self._theta, self._cost, self._err, self._m
        coeff, nexp, ceil = self._coeff, self._nexp, self._ceil
        for i, slot, law, edges, kids, fresh in visits:
            if law is not None:
                count, gpl, off = law
                eps = theta[slot]
                c = count * max(0.0, gpl * math.log2(1.0 / eps) + off)
                e = count * eps
            else:
                if fresh:  # the multiplicities depend on the changed tolerance
                    eps = theta[slot]
                    for j in range(edges.start, edges.stop):
                        try:
                            m = coeff[j] * eps ** nexp[j]
                        except OverflowError:  # where C's pow returns inf
                            m = coeff[j] * math.inf
                        if ceil[j] and m < math.inf:
                            m = float(math.ceil(m))
                        ms[j] = m
                c = e = 0.0
                for m, kid in zip(ms[edges], kids):
                    c += m * cost[kid]
                    e += m * err[kid]
                if slot >= 0:
                    e += theta[slot]
            cost[i] = c
            err[i] = e

    def reset(self, theta: Sequence[float] | np.ndarray) -> tuple[float, float]:
        """Set the full tolerance vector and recompute everything.

        Raises :class:`EvaluationError` if ``theta`` does not have
        ``dimension`` entries, or naming the first entry outside ``(0, 1)``;
        NaN and infinite entries count as outside.
        """
        theta = np.array(theta, dtype=float)
        if theta.shape != (self.dimension,):
            raise EvaluationError(
                f"chain start point has shape {theta.shape}, expected ({self.dimension},)"
            )
        outside = np.flatnonzero(~((theta > 0.0) & (theta < 1.0)))
        if outside.size:
            k = int(outside[0])
            raise EvaluationError(
                f"chain start point has entry {k} = {theta[k]}; "
                f"tolerance entries must lie strictly inside (0, 1)"
            )
        self._theta = theta.tolist()
        self._refresh(self._all)
        return self._cost[0], self._err[0]

    def update(self, index: int, value: float) -> tuple[float, float]:
        """Change one tolerance entry and return the new ``(cost, error)``."""
        if not 0.0 < value < 1.0:
            raise EvaluationError("tolerance entries must lie strictly inside (0, 1)")
        self._theta[index] = float(value)
        self._refresh(self._dirty[index])
        return self._cost[0], self._err[0]
