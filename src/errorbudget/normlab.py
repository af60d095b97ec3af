"""Desk-scale numerical lab for the error-composition mathematics.

Everything the budget model takes for granted is checked here on small dense
matrices: the spectral norm as the error metric, the additivity of per-factor
errors under composition of unitaries, the closed-form distance of z-rotations
(which makes perturbations with exactly controlled error possible), and the
step-count scaling of split-step approximations to Ising time evolution that
motivates modelling the step count as ``1/sqrt(tolerance)``.

Matrices are plain complex numpy arrays of dimension ``2**n`` with ``n <= 6``;
this module is an oracle, not a simulator.  Randomized composition trials run
as stacks of matrices, a bounded block at a time: numpy's stacked ``qr``,
``matmul`` and ``svd`` treat each matrix of a stack as they treat it alone,
so a block reports what a trial-by-trial loop reports, bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np


class MatrixDomainError(ValueError):
    """Raised for matrices or parameters outside the lab's domain."""


class AssemblyError(RuntimeError):
    """Internal consistency failure while assembling an operator."""


_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


#: Complex entries per stacked array of a block of composition trials
#: (1 MiB): the block holds as many trials as fit, at least one.
_TRIAL_BLOCK_ENTRIES = 1 << 16


def _largest_singular_values(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack (one ``svd`` call)."""
    arr = np.asarray(stack, dtype=complex)
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise MatrixDomainError("matrix contains non-finite entries")
    return np.linalg.svd(arr, compute_uv=False)[..., 0]


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value of a dense matrix."""
    return float(_largest_singular_values(matrix))


def rz(theta: float) -> np.ndarray:
    """Rotation about the z-axis: ``diag(exp(-i theta/2), exp(i theta/2))``."""
    phase = np.exp(-0.5j * theta)
    return np.array([[phase, 0.0], [0.0, phase.conjugate()]], dtype=complex)


def rx(theta: float) -> np.ndarray:
    """Rotation about the x-axis: ``exp(-i theta sigma_x / 2)``."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def rz_distance(theta: float) -> float:
    """Closed form for ``||rz(theta) - I|| = 2 |sin(theta / 4)|``."""
    return 2.0 * abs(math.sin(theta / 4.0))


def is_unitary(matrix: np.ndarray, tol: float = 1e-10) -> bool:
    arr = np.asarray(matrix, dtype=complex)
    eye = np.eye(arr.shape[0])
    return spectral_norm(arr.conj().T @ arr - eye) <= tol


def _haar(normals: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack of real and imaginary Gaussian parts.

    ``normals`` has shape ``(..., 2, d, d)``; one stacked QR factors every
    complex Gaussian matrix, and the R diagonal's phases are divided out.
    """
    q, r = np.linalg.qr(normals[..., 0, :, :] + 1j * normals[..., 1, :, :])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(dimension: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix.

    The R diagonal's phases are divided out so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    return _haar(rng.standard_normal((2, dimension, dimension)))


def _embed_single_qubit(gate: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    left = np.eye(2**qubit)
    right = np.eye(2 ** (n_qubits - qubit - 1))
    return np.kron(np.kron(left, gate), right)


def _rotation_draw(n_qubits: int, eps: float, rng: np.random.Generator) -> tuple[int, complex]:
    """Qubit and ``rz`` phase ``exp(-i phi/2)`` of a z-rotation at distance ``~eps``.

    The realised distance is uniform in ``[0.9 eps, eps]``; the angle is
    solved from the closed form ``2 |sin(phi/4)|``.  Both are computed on
    scalars, as :func:`rz` does: numpy's vector kernels may round the last
    bit differently.
    """
    qubit = int(rng.integers(n_qubits))
    realised = rng.uniform(0.9 * eps, eps)
    return qubit, np.exp(-0.5j * (4.0 * math.asin(realised / 2.0)))


def _embedded_rotations(qubits: np.ndarray, phases: np.ndarray, n_qubits: int) -> np.ndarray:
    """Dense ``2**n``-dimensional z-rotations, one per (qubit, phase) pair.

    Entry ``(j, j)`` is the phase where bit ``qubit`` of ``j`` (most
    significant first) is 0 and its conjugate where it is 1, the diagonal
    of ``rz`` embedded on that qubit.
    """
    qubits = np.asarray(qubits)
    phases = np.asarray(phases, dtype=complex)
    index = np.arange(2**n_qubits)
    upper = (index >> (n_qubits - 1 - qubits)[..., None]) & 1
    out = np.zeros(upper.shape + (index.size,), dtype=complex)
    out[..., index, index] = np.where(upper == 1, np.conj(phases)[..., None], phases[..., None])
    return out


def _check_dimension(dimension) -> None:
    if (isinstance(dimension, bool) or not isinstance(dimension, numbers.Integral)
            or dimension < 2 or dimension & (dimension - 1)):
        raise MatrixDomainError(f"dimension must be a power of two >= 2, got {dimension!r}")


def _check_budget(name: str, eps: float) -> None:
    if not 0.0 <= eps < 2.0:  # NaN fails too
        raise MatrixDomainError(f"{name} must lie in [0, 2), got {eps}")


def perturb_unitary(
    unitary: np.ndarray, eps: float, rng: np.random.Generator
) -> np.ndarray:
    """Unitary at operator-norm distance in ``[0.9 eps, eps]`` from the input.

    Dresses the input with a z-rotation on a random qubit; the rotation angle
    is solved from the closed-form distance ``2 |sin(phi/4)|``, which makes
    the perturbation size exactly controllable (a random Hermitian direction
    would only bound it approximately).
    """
    arr = np.asarray(unitary, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MatrixDomainError(f"expected a square matrix, got shape {arr.shape}")
    _check_dimension(arr.shape[0])
    _check_budget("perturbation size", eps)
    n_qubits = arr.shape[0].bit_length() - 1
    qubit, phase = _rotation_draw(n_qubits, eps, rng)
    return arr @ _embedded_rotations(qubit, phase, n_qubits)


@dataclass(frozen=True)
class CompositionReport:
    """Result of randomized error-composition trials.

    ``max_ratio`` is the largest observed distance divided by the summed
    per-factor budgets; additivity of the budgets means it can never exceed 1,
    and ``violations`` counts the trials where it did.
    """

    trials: int
    length: int
    dimension: int
    epsilons: tuple[float, ...]
    violations: int
    max_ratio: float
    mean_ratio: float

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "length": self.length,
            "dimension": self.dimension,
            "epsilons": list(self.epsilons),
            "violations": self.violations,
            "max_ratio": self.max_ratio,
            "mean_ratio": self.mean_ratio,
        }


def verify_composition_bound(
    length: int,
    dimension: int,
    epsilons: float | Sequence[float],
    trials: int,
    rng: np.random.Generator,
) -> CompositionReport:
    """Measure composed error of perturbed unitary products against the budget.

    For each trial, draws ``length`` Haar factors, perturbs factor ``i`` by
    ``epsilons[i]``, and compares the spectral distance of the full products
    with ``sum(epsilons)``.

    Each factor's randomness is drawn in the order :func:`random_unitary`
    then :func:`perturb_unitary` would draw it, so the report is the one
    those calls give trial by trial; the matrix work runs on stacks, a
    bounded block of trials at a time.
    """
    for name, value in (("trials", trials), ("length", length)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise MatrixDomainError(f"{name} must be an integer >= 1, got {value!r}")
    _check_dimension(dimension)
    if np.ndim(epsilons) == 0:
        eps_list = tuple(float(epsilons) for _ in range(length))
    else:
        eps_list = tuple(float(e) for e in epsilons)
        if len(eps_list) != length:
            raise MatrixDomainError(
                f"got {len(eps_list)} budgets for {length} factors"
            )
    for i, eps in enumerate(eps_list):
        _check_budget(f"epsilons[{i}]", eps)
    budget = sum(eps_list)

    n_qubits = int(dimension).bit_length() - 1
    block = max(1, _TRIAL_BLOCK_ENTRIES // (length * dimension * dimension))
    normals = np.empty((min(block, trials), length, 2, dimension, dimension))
    qubits = np.empty(normals.shape[:2], dtype=np.intp)
    phases = np.empty(normals.shape[:2], dtype=complex)
    identity = np.eye(dimension, dtype=complex)

    violations = 0
    max_ratio = 0.0
    ratio_sum = 0.0
    for start in range(0, trials, block):
        size = min(block, trials - start)
        for t in range(size):
            for i, eps in enumerate(eps_list):
                rng.standard_normal(out=normals[t, i])
                qubits[t, i], phases[t, i] = _rotation_draw(n_qubits, eps, rng)
        exact_factors = _haar(normals[:size])
        approx_factors = exact_factors @ _embedded_rotations(qubits[:size], phases[:size], n_qubits)
        exact = approx = np.repeat(identity[None], size, axis=0)
        for i in range(length):
            exact = exact_factors[:, i] @ exact
            approx = approx_factors[:, i] @ approx
        for distance in _largest_singular_values(exact - approx).tolist():
            if budget == 0.0:
                ratio = 0.0
                if distance > 1e-12:
                    violations += 1
            else:
                ratio = distance / budget
                if distance > budget:
                    violations += 1
            max_ratio = max(max_ratio, ratio)
            ratio_sum += ratio
    return CompositionReport(
        trials=trials,
        length=length,
        dimension=dimension,
        epsilons=eps_list,
        violations=violations,
        max_ratio=max_ratio,
        mean_ratio=ratio_sum / trials,
    )


# Alias documenting what the randomized trials check.
verify_lemma1 = verify_composition_bound


@dataclass(frozen=True)
class IsingEvolutionSpec:
    """Split-step approximation problem for a periodic transverse-field chain.

    ``couplings[i]`` couples sites ``i`` and ``i+1 (mod n)``; ``fields[i]`` is
    the transverse field at site ``i``.  ``steps`` repetitions of the
    ``order``-one or symmetric second-order split approximate the evolution
    over ``time``.
    """

    n: int
    couplings: tuple[float, ...]
    fields: tuple[float, ...]
    time: float
    steps: int
    order: str = "first"

    def __post_init__(self) -> None:
        if not 2 <= self.n <= 6:
            raise MatrixDomainError(f"chain length must be in 2..6, got {self.n}")
        if len(self.couplings) != self.n or len(self.fields) != self.n:
            raise MatrixDomainError("need one coupling and one field per site")
        if self.steps < 1:
            raise MatrixDomainError(f"step count must be positive, got {self.steps}")
        if self.order not in ("first", "second"):
            raise MatrixDomainError(f"order must be 'first' or 'second', got {self.order!r}")

    @classmethod
    def uniform(
        cls, n: int, coupling: float, field: float, time: float, steps: int, order: str = "first"
    ) -> "IsingEvolutionSpec":
        return cls(n, (coupling,) * n, (field,) * n, time, steps, order)


def _site_spins(n: int) -> np.ndarray:
    """Spin values (+1/-1) of every site in every computational basis state."""
    index = np.arange(2**n)
    bits = (index[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return 1.0 - 2.0 * bits


def build_hamiltonian(spec: IsingEvolutionSpec) -> np.ndarray:
    """Dense ``-sum J zz - sum Gamma x`` Hamiltonian of the periodic chain."""
    dimension = 2**spec.n
    spins = _site_spins(spec.n)
    diag = np.zeros(dimension)
    for i in range(spec.n):
        diag -= spec.couplings[i] * spins[:, i] * spins[:, (i + 1) % spec.n]
    h = np.diag(diag).astype(complex)
    for i in range(spec.n):
        h -= spec.fields[i] * _embed_single_qubit(_SIGMA_X, i, spec.n)
    if np.max(np.abs(h - h.conj().T)) > 1e-12:
        raise AssemblyError("assembled Hamiltonian is not Hermitian")
    return h


def _zz_layer(spec: IsingEvolutionSpec, tau: float) -> np.ndarray:
    """Diagonal of the product of two-site zz rotations: ``exp(-i tau * (-sum J zz))``.

    Per-bond rotation angles are ``-2 tau J`` in the ``diag(e^{-i a/2},
    e^{i a/2})`` convention, realised directly on the diagonal.
    """
    spins = _site_spins(spec.n)
    phase = np.zeros(2**spec.n)
    for i in range(spec.n):
        angle_z = -2.0 * tau * spec.couplings[i]
        phase += 0.5 * angle_z * spins[:, i] * spins[:, (i + 1) % spec.n]
    return np.exp(-1j * phase)


def _x_layer(spec: IsingEvolutionSpec, tau: float) -> np.ndarray:
    """Product of single-site x rotations: ``exp(-i tau * (-sum Gamma x))``.

    The sites act on separate qubits, so the product is the Kronecker product
    of the site rotations, site 0 most significant.  Each factor is taken
    with one outer product (``np.kron`` costs about 60 us per call on 2x2
    gates); every entry is then the product of one entry per site, taken
    site by site, which is what multiplying the embedded rotations computes.
    """
    out = rx(-2.0 * tau * spec.fields[0])
    for field in spec.fields[1:]:
        gate = rx(-2.0 * tau * field)
        size = 2 * out.shape[0]
        out = (out[:, None, :, None] * gate[None, :, None, :]).reshape(size, size)
    return out


def exact_propagator(spec: IsingEvolutionSpec) -> np.ndarray:
    h = build_hamiltonian(spec)
    eigenvalues, eigenvectors = np.linalg.eigh(h)
    phases = np.exp(-1j * spec.time * eigenvalues)
    return (eigenvectors * phases) @ eigenvectors.conj().T


def split_step_propagator(spec: IsingEvolutionSpec) -> np.ndarray:
    tau = spec.time / spec.steps
    # the zz layer is diagonal: multiplying by it scales rows (or columns)
    if spec.order == "first":
        step = _zz_layer(spec, tau)[:, None] * _x_layer(spec, tau)
    else:
        half = _x_layer(spec, tau / 2.0)
        step = (half * _zz_layer(spec, tau)) @ half
    return np.linalg.matrix_power(step, spec.steps)


def trotter_error(spec: IsingEvolutionSpec) -> float:
    """Spectral distance between the exact evolution and the split-step product."""
    return spectral_norm(exact_propagator(spec) - split_step_propagator(spec))


def trotter_error_sweep(
    spec: IsingEvolutionSpec, step_counts: Sequence[int]
) -> list[tuple[int, float]]:
    """Errors of the same problem at several step counts.

    The exact evolution does not depend on the step count, so the
    Hamiltonian is built and diagonalised once for the whole sweep.
    """
    exact = exact_propagator(spec)
    return [
        (m, spectral_norm(exact - split_step_propagator(replace(spec, steps=m))))
        for m in step_counts
    ]


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of ``log(y)`` against ``log(x)``."""
    xs = np.log([p[0] for p in points])
    ys = np.log([p[1] for p in points])
    return float(np.polyfit(xs, ys, 1)[0])
