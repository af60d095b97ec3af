import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from errorbudget.normlab import (
    AssemblyError,
    CompositionReport,
    IsingEvolutionSpec,
    MatrixDomainError,
    build_hamiltonian,
    exact_propagator,
    fit_loglog_slope,
    is_unitary,
    perturb_unitary,
    random_unitary,
    rz,
    rz_distance,
    spectral_norm,
    split_step_propagator,
    trotter_error,
    trotter_error_sweep,
    verify_composition_bound,
)

# the module, for its block size
NORMLAB = importlib.import_module("errorbudget.normlab")


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_complex(self):
        assert spectral_norm(np.diag([2j, 1.0])) == pytest.approx(2.0, abs=1e-12)

    def test_rz_distance_closed_form(self):
        theta = math.pi / 2
        measured = spectral_norm(rz(theta) - np.eye(2))
        assert measured == pytest.approx(2 * math.sin(math.pi / 8), abs=1e-12)
        assert measured == pytest.approx(0.76537, rel=1e-4)

    def test_rejects_non_finite(self):
        with pytest.raises(MatrixDomainError):
            spectral_norm(np.array([[np.nan, 0], [0, 1]]))

    def test_closed_form_over_angle_grid(self):
        for theta in np.linspace(-4 * math.pi, 4 * math.pi, 81):
            assert spectral_norm(rz(theta) - np.eye(2)) == pytest.approx(
                rz_distance(theta), abs=1e-10
            )


class TestRz:
    def test_zero_angle_is_identity(self):
        assert np.allclose(rz(0.0), np.eye(2), atol=1e-15)

    def test_two_pi_is_minus_identity(self):
        assert np.allclose(rz(2 * math.pi), -np.eye(2), atol=1e-12)

    def test_pi_rotation(self):
        assert np.allclose(rz(math.pi), np.diag([-1j, 1j]), atol=1e-12)

    def test_group_law(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.uniform(-6, 6, size=2)
            assert np.allclose(rz(a) @ rz(b), rz(a + b), atol=1e-12)

    def test_unitary(self):
        assert is_unitary(rz(1.234))


class TestRandomUnitary:
    def test_unitarity(self):
        rng = np.random.default_rng(1)
        for d in (2, 4, 8):
            for _ in range(20):
                u = random_unitary(d, rng)
                assert is_unitary(u)
                assert spectral_norm(u) == pytest.approx(1.0, abs=1e-10)


class TestPerturbUnitary:
    def test_distance_within_band(self):
        rng = np.random.default_rng(2)
        u = np.eye(2, dtype=complex)
        for _ in range(200):
            v = perturb_unitary(u, 0.1, rng)
            d = spectral_norm(v - u)
            assert 0.09 <= d <= 0.1 + 1e-12
            assert is_unitary(v)

    def test_distance_band_on_haar_input(self):
        rng = np.random.default_rng(3)
        for d in (2, 4, 8):
            u = random_unitary(d, rng)
            for eps in (0.01, 0.3, 1.5):
                v = perturb_unitary(u, eps, rng)
                dist = spectral_norm(v - u)
                assert 0.9 * eps <= dist <= eps + 1e-12

    def test_zero_size_returns_equal(self):
        rng = np.random.default_rng(4)
        u = random_unitary(4, rng)
        v = perturb_unitary(u, 0.0, rng)
        assert spectral_norm(v - u) <= 1e-14

    def test_rejects_size_two_or_more(self):
        rng = np.random.default_rng(5)
        with pytest.raises(MatrixDomainError):
            perturb_unitary(np.eye(2), 2.0, rng)

    def test_rejects_non_power_of_two(self):
        rng = np.random.default_rng(6)
        with pytest.raises(MatrixDomainError):
            perturb_unitary(np.eye(3), 0.1, rng)


class TestCompositionBound:
    def test_single_factor_ratio(self):
        rng = np.random.default_rng(7)
        report = verify_composition_bound(1, 4, 0.05, trials=50, rng=rng)
        assert report.violations == 0
        assert 0.9 <= report.max_ratio <= 1.0

    def test_zero_budgets_compose_exactly(self):
        rng = np.random.default_rng(8)
        report = verify_composition_bound(5, 4, 0.0, trials=20, rng=rng)
        assert report.violations == 0
        assert report.max_ratio == 0.0

    def test_reference_configuration(self):
        rng = np.random.default_rng(9)
        report = verify_composition_bound(10, 8, 0.01, trials=500, rng=rng)
        assert report.violations == 0
        assert report.max_ratio <= 1.0
        # cancellation keeps the products well inside the budget on average
        assert report.mean_ratio < 1.0

    def test_randomized_sweep_never_violates(self):
        rng = np.random.default_rng(10)
        for d in (2, 4, 8):
            for m in (2, 5, 10):
                eps = 10.0 ** rng.uniform(-4, -1, size=m)
                report = verify_composition_bound(m, d, eps, trials=40, rng=rng)
                assert report.violations == 0

    def test_pairwise_triangle_submultiplicativity(self):
        # base case of the induction: ||AB - A'B'|| <= ||A - A'|| + ||B - B'||
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.choice([2, 4, 8]))
            a, a2 = random_unitary(d, rng), random_unitary(d, rng)
            b, b2 = random_unitary(d, rng), random_unitary(d, rng)
            lhs = spectral_norm(a @ b - a2 @ b2)
            rhs = spectral_norm(a - a2) + spectral_norm(b - b2)
            assert lhs <= rhs + 1e-12

    def test_zero_dimensional_array_budget_is_a_scalar(self):
        report = verify_composition_bound(3, 4, np.array(0.02), 5, np.random.default_rng(17))
        assert report == verify_composition_bound(3, 4, 0.02, 5, np.random.default_rng(17))

    def test_budget_length_mismatch(self):
        rng = np.random.default_rng(12)
        with pytest.raises(MatrixDomainError):
            verify_composition_bound(3, 4, [0.1, 0.1], trials=1, rng=rng)

    @pytest.mark.parametrize("argument, value", [
        ("trials", -2), ("trials", 0), ("trials", True), ("trials", 2.0),
        ("length", 0), ("length", -1), ("length", True),
        ("dimension", 3), ("dimension", 1), ("dimension", 0), ("dimension", -4),
        ("dimension", 6), ("dimension", 4.0), ("dimension", True),
        ("epsilons", -0.1), ("epsilons", 2.0), ("epsilons", math.nan), ("epsilons", math.inf),
        ("epsilons", [0.1, 2.5]), ("epsilons", [math.nan, 0.1]),
    ])
    def test_bad_arguments_fail_before_any_draw(self, argument, value):
        args = {"length": 2, "dimension": 4, "epsilons": 0.1, "trials": 3}
        args[argument] = value
        rng = np.random.default_rng(13)
        state = rng.bit_generator.state
        with pytest.raises(MatrixDomainError, match=argument):
            verify_composition_bound(rng=rng, **args)
        assert rng.bit_generator.state == state


def composition_trials(length, dimension, epsilons, trials, rng):
    """The composition check one trial and one factor at a time, on the public helpers."""
    eps_list = (
        tuple(float(epsilons) for _ in range(length)) if np.ndim(epsilons) == 0
        else tuple(float(e) for e in epsilons)
    )
    budget = sum(eps_list)
    violations, max_ratio, ratio_sum = 0, 0.0, 0.0
    for _ in range(trials):
        exact = np.eye(dimension, dtype=complex)
        approx = np.eye(dimension, dtype=complex)
        for eps in eps_list:
            u = random_unitary(dimension, rng)
            v = perturb_unitary(u, eps, rng)
            exact = u @ exact
            approx = v @ approx
        distance = spectral_norm(exact - approx)
        if budget == 0.0:
            ratio = 0.0
            violations += distance > 1e-12
        else:
            ratio = distance / budget
            violations += distance > budget
        max_ratio = max(max_ratio, ratio)
        ratio_sum += ratio
    return CompositionReport(trials, length, dimension, eps_list, violations, max_ratio,
                             ratio_sum / trials)


class TestStackedTrials:
    """Stacked trials report what the trial-by-trial loop reports, bit for bit."""

    @pytest.mark.parametrize("dimension", [2, 4, 8])
    @pytest.mark.parametrize("length", range(1, 11))
    def test_matches_trial_by_trial_loop(self, length, dimension, monkeypatch):
        # blocks of three trials at most: seven trials end on a partial block
        monkeypatch.setattr(NORMLAB, "_TRIAL_BLOCK_ENTRIES", 3 * length * dimension**2)
        mixed = [0.0 if i % 3 == 0 else 10.0 ** -(i % 4) for i in range(length)]
        for budgets in (0.01, 0.0, 1.9, mixed):
            seed = 1000 * length + dimension
            report = verify_composition_bound(
                length, dimension, budgets, 7, np.random.default_rng(seed))
            expected = composition_trials(
                length, dimension, budgets, 7, np.random.default_rng(seed))
            assert repr(report) == repr(expected)

    def test_trials_span_several_default_blocks(self):
        block = NORMLAB._TRIAL_BLOCK_ENTRIES // (10 * 8 * 8)
        trials = 2 * block + 1
        eps = 10.0 ** np.random.default_rng(14).uniform(-4, -1, size=10)
        report = verify_composition_bound(10, 8, eps, trials, np.random.default_rng(15))
        expected = composition_trials(10, 8, eps, trials, np.random.default_rng(15))
        assert repr(report) == repr(expected)
        assert report.trials == trials and report.violations == 0

    def test_numpy_integer_arguments(self):
        report = verify_composition_bound(
            np.int64(3), np.int64(4), 0.02, np.int64(5), np.random.default_rng(18))
        expected = verify_composition_bound(3, 4, 0.02, 5, np.random.default_rng(18))
        assert report.violations == expected.violations
        assert (report.max_ratio, report.mean_ratio) == (expected.max_ratio, expected.mean_ratio)

    def test_rng_left_where_the_loop_leaves_it(self):
        rng, loop_rng = np.random.default_rng(16), np.random.default_rng(16)
        verify_composition_bound(3, 4, 0.1, 5, rng)
        composition_trials(3, 4, 0.1, 5, loop_rng)
        assert rng.bit_generator.state == loop_rng.bit_generator.state


def embedded_x_layer(spec, tau):
    """The x layer as a product of dense matrices, each site's ``rx`` embedded with ``np.kron``."""
    out = np.eye(2**spec.n, dtype=complex)
    for i, field in enumerate(spec.fields):
        left, right = np.eye(2**i), np.eye(2 ** (spec.n - i - 1))
        out = out @ np.kron(np.kron(left, NORMLAB.rx(-2.0 * tau * field)), right)
    return out


def embedded_split_step(spec):
    """The split-step propagator with the zz layer as a dense diagonal matrix."""
    tau = spec.time / spec.steps
    index = np.arange(2**spec.n)
    spins = 1.0 - 2.0 * ((index[:, None] >> np.arange(spec.n - 1, -1, -1)) & 1)
    phase = np.zeros(2**spec.n)
    for i in range(spec.n):
        phase += 0.5 * (-2.0 * tau * spec.couplings[i]) * spins[:, i] * spins[:, (i + 1) % spec.n]
    zz = np.diag(np.exp(-1j * phase))
    if spec.order == "first":
        step = zz @ embedded_x_layer(spec, tau)
    else:
        half = embedded_x_layer(spec, tau / 2.0)
        step = half @ zz @ half
    return np.linalg.matrix_power(step, spec.steps)


class TestIsingEvolution:
    def test_hamiltonian_is_hermitian(self):
        spec = IsingEvolutionSpec(3, (1.0, 0.5, 0.25), (0.7, 0.1, 0.9), 1.0, 4)
        h = build_hamiltonian(spec)
        assert spectral_norm(h - h.conj().T) <= 1e-12

    def test_propagators_are_unitary(self):
        spec = IsingEvolutionSpec.uniform(3, 1.0, 1.0, 1.0, 8)
        assert is_unitary(exact_propagator(spec))
        assert is_unitary(split_step_propagator(spec))
        assert is_unitary(split_step_propagator(
            IsingEvolutionSpec.uniform(3, 1.0, 1.0, 1.0, 8, "second")))

    def test_first_order_slope(self):
        spec = IsingEvolutionSpec.uniform(3, 1.0, 1.0, 1.0, 8, "first")
        points = trotter_error_sweep(spec, [8, 16, 32, 64, 128])
        assert -1.2 <= fit_loglog_slope(points) <= -0.8

    def test_second_order_slope(self):
        spec = IsingEvolutionSpec.uniform(3, 1.0, 1.0, 1.0, 8, "second")
        points = trotter_error_sweep(spec, [8, 16, 32, 64, 128])
        assert -2.2 <= fit_loglog_slope(points) <= -1.8

    def test_commuting_split_is_exact(self):
        for steps in (1, 3, 10):
            spec = IsingEvolutionSpec.uniform(4, 1.3, 0.0, 1.0, steps)
            assert trotter_error(spec) <= 1e-10

    def test_error_non_increasing_in_steps(self):
        spec = IsingEvolutionSpec.uniform(3, 1.0, 1.0, 1.0, 8)
        errors = [e for _, e in trotter_error_sweep(spec, [4, 8, 16, 32, 64, 128])]
        for a, b in zip(errors, errors[1:]):
            assert b <= a + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("order", ["first", "second"])
    def test_sweep_matches_one_step_count_at_a_time(self, n, order):
        spec = IsingEvolutionSpec(
            n, tuple(0.4 + 0.1 * i for i in range(n)), tuple(1.2 - 0.15 * i for i in range(n)),
            0.8, 8, order,
        )
        counts = [1, 2, 8, 33, 128]
        expected = [(m, trotter_error(replace(spec, steps=m))) for m in counts]
        assert repr(trotter_error_sweep(spec, counts)) == repr(expected)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("order", ["first", "second"])
    @pytest.mark.parametrize("couplings, fields", [
        ((1.0,), (1.0,)), ((0.4, 1.1, 0.7), (1.2, 0.3, 0.9)), ((1.3,), (0.0,)), ((0.0,), (0.8,)),
    ], ids=["uniform", "varied", "no-field", "no-coupling"])
    def test_layers_equal_products_of_embedded_gates(self, n, order, couplings, fields):
        spec = IsingEvolutionSpec(
            n, tuple(couplings[i % len(couplings)] for i in range(n)),
            tuple(fields[i % len(fields)] for i in range(n)), 0.9, 3, order,
        )
        tau = spec.time / spec.steps
        assert np.array_equal(NORMLAB._x_layer(spec, tau), embedded_x_layer(spec, tau))
        assert np.array_equal(split_step_propagator(spec), embedded_split_step(spec))

    def test_spec_validation(self):
        with pytest.raises(MatrixDomainError):
            IsingEvolutionSpec.uniform(1, 1.0, 1.0, 1.0, 4)
        with pytest.raises(MatrixDomainError):
            IsingEvolutionSpec.uniform(7, 1.0, 1.0, 1.0, 4)
        with pytest.raises(MatrixDomainError):
            IsingEvolutionSpec.uniform(3, 1.0, 1.0, 1.0, 0)
        with pytest.raises(MatrixDomainError):
            IsingEvolutionSpec.uniform(3, 1.0, 1.0, 1.0, 4, "third")
