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
recursive evaluators.  The optimizer's hot loops
run over :class:`CompiledModel`, one node table compiled from the tree, with
two passes over it: :meth:`CompiledModel.evaluate` evaluates batches of
tolerance vectors, and :class:`ChainEvaluator` re-evaluates incrementally as a
chain changes one tolerance entry at a time.

Tolerance slots are plain string identifiers.  A :class:`ParameterBinding`
partitions the slots appearing in a tree into named groups; the optimization
variable assigns one value per group, so the binding controls the granularity
of the optimization problem without changing the tree.
"""

from __future__ import annotations

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

    names = [name for name, _ in binding.groups]
    for name in names:
        if names.count(name) > 1:
            violations.append(f"binding: duplicate group name {name!r}")
            break
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
    """Node table of a tree/binding pair, shared by the two fast evaluators.

    Nodes are numbered in depth-first preorder, so every child has a larger
    index than its parent and descending index order visits children before
    parents.  For node ``i`` the table holds:

    * ``children[i]``, the child indices (the first child of ``i``, if any,
      is ``i + 1``), and the multiplicity of each edge as
      ``edge_coeff[i]``, ``edge_nexp[i]`` (negated exponents) and
      ``edge_ceil[i]`` (a mask of the edges rounded up, ``None`` if there are
      none); constant multiplicities are stored already rounded,
      and ``needs_eps[i]`` tells whether any edge depends on the node's own
      tolerance;
    * ``parent[i]`` (``-1`` for the root) and ``child_pos[i]``, the node's
      position in ``children[parent[i]]``;
    * ``slot[i]``, the group of the node's own tolerance (a composite's
      decomposition error or a leaf's synthesis tolerance), ``-1`` if none;
    * ``leaf_law[i]``, the cost law ``(count, gates per log2(1/eps),
      offset)`` of a leaf with gates as Python floats, ``None`` for other
      nodes; leaves without gates cost nothing, err nothing and have no slot;
      ``leaves`` lists the nodes with a law and ``leaf_block`` stacks their
      laws as rows, for the batch pass;
    * per group ``k``, ``dirty[k]``: the nodes bound to ``k`` and their
      ancestors, in descending index order.

    :meth:`evaluate` is one children-first pass over the table, vectorised
    over a batch; :class:`ChainEvaluator` repeats the pass incrementally,
    over ``dirty[k]`` only.
    """

    def __init__(self, tree: BudgetNode, binding: ParameterBinding) -> None:
        self.tree = tree
        self.binding = binding
        slot_to_group = binding.slot_index()
        self.dimension = binding.dimension

        nodes: list[BudgetNode] = []
        kids: list[list[int]] = []
        ancestors: list[tuple[int, ...]] = []
        self.parent: list[int] = []
        self.child_pos: list[int] = []

        def visit(node: BudgetNode, path: tuple[int, ...], pos: int) -> None:
            idx = len(nodes)
            nodes.append(node)
            kids.append([])
            ancestors.append(path)
            self.parent.append(path[-1] if path else -1)
            self.child_pos.append(pos)
            for k, edge in enumerate(node.children):
                kids[idx].append(len(nodes))
                visit(edge.node, path + (idx,), k)

        visit(tree, (), 0)

        n = len(nodes)
        self.n_nodes = n
        self.children: list[np.ndarray] = []
        self.edge_coeff: list[np.ndarray] = []
        self.edge_nexp: list[np.ndarray] = []
        self.edge_ceil: list[np.ndarray | None] = []
        self.needs_eps: list[bool] = []
        self.slot = np.full(n, -1, dtype=np.intp)
        self.leaf_law: list[tuple[float, float, float] | None] = [None] * n
        dirty: list[set[int]] = [set() for _ in range(self.dimension)]
        for i, node in enumerate(nodes):
            group = -1
            if node.self_error_slot is not None:
                if node.self_error_slot not in slot_to_group:
                    raise ModelError(f"slot {node.self_error_slot!r} unbound in binding")
                group = slot_to_group[node.self_error_slot]
            mults = [edge.multiplicity for edge in node.children]
            needs_eps = any(m.exponent != 0 for m in mults)
            if needs_eps and group < 0:
                raise ModelError(
                    f"multiplicities below {node.name!r} depend on its tolerance, "
                    f"but it has no slot"
                )
            if node.kind is NodeKind.LEAF:
                if node.leaf_cost is None:
                    raise ModelError(f"leaf {node.name!r} has no cost form")
                if node.children:
                    raise ModelError(f"leaf {node.name!r} has children")
                if node.leaf_cost.count > 0:
                    if group < 0:
                        raise ModelError(f"leaf {node.name!r} has no bound tolerance slot")
                    law = node.leaf_cost
                    self.leaf_law[i] = (
                        float(law.count), float(law.gates_per_unit_logeps),
                        float(law.additive_offset),
                    )
                else:
                    group = -1
            self.slot[i] = group
            if group >= 0:
                dirty[group].update(ancestors[i] + (i,))
            self.children.append(np.asarray(kids[i], dtype=np.intp))
            self.edge_coeff.append(np.asarray(
                [m(None) if m.exponent == 0 else float(m.coefficient) for m in mults], dtype=float
            ))
            self.edge_nexp.append(np.asarray([-float(m.exponent) for m in mults], dtype=float))
            ceil = [m.rounding is Rounding.CEIL for m in mults]
            self.edge_ceil.append(np.asarray(ceil, dtype=bool) if any(ceil) else None)
            self.needs_eps.append(needs_eps)
        self.dirty = [sorted(nodes_of_k, reverse=True) for nodes_of_k in dirty]
        self.leaves = np.asarray(
            [i for i, law in enumerate(self.leaf_law) if law is not None], dtype=np.intp
        )
        self.leaf_block = np.asarray([self.leaf_law[i] for i in self.leaves]).reshape(-1, 3)
        self.composites = [i for i in range(n - 1, -1, -1) if nodes[i].kind is NodeKind.COMPOSITE]

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

        by_group = arr.T
        cost = np.zeros((self.n_nodes, arr.shape[0]))
        error = np.zeros_like(cost)
        leaves = self.leaves
        if leaves.size:
            count, gpl, off = self.leaf_block.T[:, :, None]
            eps = by_group[self.slot[leaves]]
            unit = np.maximum(0.0, gpl * np.log2(1.0 / eps) + off)
            cost[leaves] = count * unit
            error[leaves] = count * eps
        for i in self.composites:
            slot = self.slot[i]
            children = self.children[i]
            m = self.edge_coeff[i][:, None]
            if self.needs_eps[i]:
                m = m * by_group[slot] ** self.edge_nexp[i][:, None]
                ceil = self.edge_ceil[i]
                if ceil is not None:
                    m = np.where(ceil[:, None], np.ceil(m), m)
            cost[i] = (m * cost[children]).sum(axis=0)
            error[i] = (m * error[children]).sum(axis=0)
            if slot >= 0:
                error[i] += by_group[slot]
        if single:
            return float(cost[0, 0]), float(error[0, 0])
        return cost[0], error[0]


def compile_model(tree: BudgetNode, binding: ParameterBinding) -> CompiledModel:
    """Compile a tree/binding pair for fast repeated evaluation."""
    return CompiledModel(tree, binding)


class ChainEvaluator:
    """Stateful evaluator for single-coordinate update chains.

    Caches per-node cost/error aggregates over a :class:`CompiledModel`'s node
    table; changing tolerance entry ``k`` recomputes only the nodes in the
    table's ``dirty[k]``, each from its children's cached aggregates.  Because
    every touched node is recomputed from scratch (never delta-adjusted), the
    cached totals are always exactly what a fresh evaluation would produce,
    and reverting an update restores bit-identical state.

    The tolerance entries and the aggregates are Python floats, so the scalar
    arithmetic of an update (leaf laws, single-child composites, a node's own
    decomposition error) skips numpy-scalar overhead; IEEE-754 gives the same
    results for the same operations in the same order.  Every other node
    without a leaf law keeps its children's aggregates in a pair of numpy
    buffers, written by each child when it is recomputed, so its sums are
    ``m @ buffer`` with no gather.  Two steps stay numpy on purpose: the
    dot product, because BLAS ``ddot`` may fuse multiply-adds where a Python
    sum would not, and the multiplicity expression ``coeff * eps ** nexp``,
    because ``np.power`` need not equal Python's ``**``.  Either rewrite could
    change the last bit of a total, and with it a chain's accept decisions.
    """

    def __init__(self, compiled: CompiledModel) -> None:
        self._compiled = compiled
        self.dimension = compiled.dimension
        self._theta: list[float] = [math.nan] * self.dimension
        self._cost = [0.0] * compiled.n_nodes
        self._err = [0.0] * compiled.n_nodes
        # single children are read from _cost/_err, leaves have no children
        self._kid_cost = [
            None if law is not None or kids.size == 1 else np.zeros(kids.size)
            for law, kids in zip(compiled.leaf_law, compiled.children)
        ]
        self._kid_err = [None if buf is None else np.zeros(buf.size) for buf in self._kid_cost]
        # multiplicities are functions of the node's own slot only; cache them
        # so updates of other slots skip the power evaluation
        self._m_cache: list[np.ndarray | float | None] = [None] * compiled.n_nodes
        self._slot = compiled.slot.tolist()

    def _refresh(self, nodes: Iterable[int], changed_slot: int) -> None:
        """Recompute ``nodes``, given children first, from their children."""
        table = self._compiled
        theta, cost, err, m_cache = self._theta, self._cost, self._err, self._m_cache
        slots, laws, kid_cost, kid_err = self._slot, table.leaf_law, self._kid_cost, self._kid_err
        parent, child_pos, needs_eps = table.parent, table.child_pos, table.needs_eps
        for i in nodes:
            slot = slots[i]
            law = laws[i]
            if law is not None:
                count, gpl, off = law
                eps = theta[slot]
                c = count * max(0.0, gpl * math.log2(1.0 / eps) + off)
                e = count * eps
            else:
                m = m_cache[i]
                if m is None or (slot == changed_slot and needs_eps[i]):
                    m = table.edge_coeff[i]
                    if needs_eps[i]:
                        m = m * theta[slot] ** table.edge_nexp[i]
                        ceil = table.edge_ceil[i]
                        if ceil is not None:
                            m = np.where(ceil, np.ceil(m), m)
                    if kid_cost[i] is None:
                        m = float(m[0])
                    m_cache[i] = m
                buf = kid_cost[i]
                if buf is None:  # the only child, i + 1 in preorder
                    c = m * cost[i + 1]
                    e = m * err[i + 1]
                else:  # childless nodes sum an empty buffer to 0.0
                    c = float(m @ buf)
                    e = float(m @ kid_err[i])
                if slot >= 0:
                    e += theta[slot]
            cost[i] = c
            err[i] = e
            p = parent[i]
            if p >= 0 and kid_cost[p] is not None:
                kid_cost[p][child_pos[i]] = c
                kid_err[p][child_pos[i]] = e

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
        self._m_cache = [None] * self._compiled.n_nodes
        self._refresh(range(self._compiled.n_nodes - 1, -1, -1), -1)
        return self.totals()

    def update(self, index: int, value: float) -> tuple[float, float]:
        """Change one tolerance entry and return the new ``(cost, error)``."""
        if not 0.0 < value < 1.0:
            raise EvaluationError("tolerance entries must lie strictly inside (0, 1)")
        self._theta[index] = float(value)
        self._refresh(self._compiled.dirty[index], index)
        return self._cost[0], self._err[0]

    def totals(self) -> tuple[float, float]:
        return self._cost[0], self._err[0]

    def theta(self) -> np.ndarray:
        return np.array(self._theta)
