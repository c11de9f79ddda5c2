"""Fock-basis state math: wavefunctions, densities, loss, Wigner functions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsequad import states
from pulsequad.cli import PhaseSchedule
from pulsequad.states import (
    SAMPLE_GRID_HALFSPAN,
    SAMPLE_GRID_POINTS,
    DensityMatrix,
    StateModel,
    coherent_amplitudes,
    fidelity_pure,
    fock_wavefunction,
    fock_wavefunctions,
    loss_channel,
    photon_statistics,
    quadrature_pdf,
    sample_quadratures,
    state_density_matrix,
    wigner,
)


def random_density_matrix(dim, seed):
    """Ginibre-random full-rank density matrix."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(rho / rho.trace().real)


class TestWavefunctions:
    def test_ground_state_value(self):
        assert fock_wavefunction(0, 0.0) == pytest.approx(math.pi**-0.25, abs=1e-12)

    def test_first_excited_odd_parity(self):
        assert fock_wavefunction(1, 0.0) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 20, 30])
    def test_normalization(self, n):
        x = np.linspace(-14.0, 14.0, 2**17 + 1)
        psi = fock_wavefunction(n, x)
        assert np.trapezoid(psi**2, x) == pytest.approx(1.0, abs=1e-8)

    def test_orthogonality(self):
        x = np.linspace(-14.0, 14.0, 2**16 + 1)
        psi = fock_wavefunctions(8, x)
        overlaps = np.trapezoid(psi[:, None, :] * psi[None, :, :], x, axis=-1)
        assert np.max(np.abs(overlaps - np.eye(8))) < 1e-8

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            fock_wavefunction(-1, 0.0)


class TestQuadraturePdf:
    def test_vacuum_gaussian(self):
        rho = state_density_matrix(StateModel.vacuum(), 4)
        x = np.linspace(-3, 3, 101)
        expected = np.exp(-(x**2)) / math.sqrt(math.pi)
        assert np.max(np.abs(quadrature_pdf(rho, 0.3, x) - expected)) < 1e-12
        assert quadrature_pdf(rho, 0.0, 0.0) == pytest.approx(0.5641895835, abs=1e-9)

    def test_coherent_displaced_gaussian(self):
        rho = state_density_matrix(StateModel.coherent(0.86), 25)
        x = np.linspace(-3, 4, 141)
        mu = math.sqrt(2) * 0.86
        expected = np.exp(-((x - mu) ** 2)) / math.sqrt(math.pi)
        assert np.max(np.abs(quadrature_pdf(rho, 0.0, x) - expected)) < 1e-9

    def test_coherent_mean_tracks_phase(self):
        alpha = 0.86 * np.exp(0.7j)
        rho = state_density_matrix(StateModel.coherent(alpha), 25)
        x = np.linspace(-6, 6, 4001)
        for theta in (0.0, 0.7, 1.9, 3.5):
            p = quadrature_pdf(rho, theta, x)
            mean = np.trapezoid(x * p, x)
            assert mean == pytest.approx(
                math.sqrt(2) * 0.86 * math.cos(theta - 0.7), abs=1e-6
            )

    def test_single_photon_pdf(self):
        rho = state_density_matrix(StateModel.fock(1), 4)
        x = np.linspace(-3, 3, 61)
        expected = 2 * x**2 * np.exp(-(x**2)) / math.sqrt(math.pi)
        assert np.max(np.abs(quadrature_pdf(rho, 1.0, x) - expected)) < 1e-12
        assert quadrature_pdf(rho, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("seed,dim", [(0, 2), (1, 5), (2, 10), (3, 20)])
    def test_normalization_random_states(self, seed, dim):
        rho = random_density_matrix(dim, seed)
        x = np.linspace(-8, 8, 2**14)
        for theta in (0.0, 0.9, 2.4):
            assert np.trapezoid(quadrature_pdf(rho, theta, x), x) == pytest.approx(
                1.0, abs=1e-6
            )

    def test_fock_diagonal_state_is_phase_covariant(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        x = np.linspace(-5, 5, 201)
        ref = quadrature_pdf(rho, 0.0, x)
        for theta in (0.4, 1.3, 2.9, 5.0):
            assert np.max(np.abs(quadrature_pdf(rho, theta, x) - ref)) < 1e-12


class TestLossChannel:
    def test_identity_at_unit_efficiency(self):
        rho = random_density_matrix(6, 4)
        assert loss_channel(rho, 1.0) is rho

    def test_single_photon_binomial(self):
        rho = loss_channel(state_density_matrix(StateModel.fock(1), 6), 0.649)
        diag = np.diag(rho.elements).real
        assert diag[0] == pytest.approx(0.351, abs=1e-12)
        assert diag[1] == pytest.approx(0.649, abs=1e-12)
        assert np.all(np.abs(diag[2:]) < 1e-14)

    def test_total_loss_gives_vacuum(self):
        rho = loss_channel(random_density_matrix(6, 5), 0.0)
        assert rho.elements[0, 0].real == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        eta1=st.floats(min_value=0.0, max_value=1.0),
        eta2=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_semigroup(self, eta1, eta2):
        rho = random_density_matrix(6, 6)
        twice = loss_channel(loss_channel(rho, eta1), eta2)
        once = loss_channel(rho, eta1 * eta2)
        assert np.max(np.abs(twice.elements - once.elements)) < 1e-10

    def test_trace_preserved(self):
        rho = loss_channel(random_density_matrix(8, 7), 0.37)
        assert rho.elements.trace().real == pytest.approx(1.0, abs=1e-10)


class TestWigner:
    def test_vacuum_origin(self):
        rho = state_density_matrix(StateModel.vacuum(), 4)
        w = wigner(rho, [0.0], [0.0]).values[0, 0]
        assert w == pytest.approx(1 / math.pi, abs=1e-6)

    def test_single_photon_origin(self):
        rho = state_density_matrix(StateModel.fock(1), 4)
        assert wigner(rho, [0.0], [0.0]).values[0, 0] == pytest.approx(
            -1 / math.pi, abs=1e-12
        )

    def test_lossy_single_photon_origin(self):
        rho = DensityMatrix(np.diag([0.351, 0.649]).astype(complex))
        assert wigner(rho, [0.0], [0.0]).values[0, 0] == pytest.approx(
            -0.0948563, abs=1e-6
        )

    @pytest.mark.parametrize("seed,dim", [(8, 3), (9, 6), (10, 10)])
    def test_unit_integral(self, seed, dim):
        rho = random_density_matrix(dim, seed)
        axis = np.linspace(-6.5, 6.5, 261)
        grid = wigner(rho, axis, axis)
        dx = axis[1] - axis[0]
        assert np.sum(grid.values) * dx * dx == pytest.approx(1.0, abs=1e-3)

    def test_coherent_state_peak_position(self):
        rho = state_density_matrix(StateModel.coherent(0.86j), 20)
        axis = np.linspace(-3, 3, 121)
        grid = wigner(rho, axis, axis)
        ix, ip = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert abs(axis[ix]) < 0.06
        assert axis[ip] == pytest.approx(math.sqrt(2) * 0.86, abs=0.06)

    @pytest.mark.parametrize("seed,dim", [(11, 4), (12, 10)])
    def test_marginal_reproduces_pdf(self, seed, dim):
        rho = random_density_matrix(dim, seed)
        x = np.linspace(-4, 4, 41)
        p = np.linspace(-7.5, 7.5, 6001)
        grid = wigner(rho, x, p)
        marginal = np.trapezoid(grid.values, p, axis=1)
        assert np.max(np.abs(marginal - quadrature_pdf(rho, 0.0, x))) < 1e-4

    def test_real_valued(self):
        rho = random_density_matrix(7, 13)
        grid = wigner(rho, np.linspace(-2, 2, 11), np.linspace(-2, 2, 11))
        assert np.isrealobj(grid.values)


class TestPhotonStatisticsAndFidelity:
    def test_vacuum_statistics(self):
        stats = photon_statistics(state_density_matrix(StateModel.vacuum(), 5))
        assert stats.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_coherent_poisson(self):
        stats = photon_statistics(state_density_matrix(StateModel.coherent(0.86), 25))
        mean = 0.86**2
        for n in range(4):
            expected = math.exp(-mean) * mean**n / math.factorial(n)
            assert stats.probs[n] == pytest.approx(expected, abs=1e-9)

    def test_lossy_single_photon(self):
        rho = state_density_matrix(StateModel.fock(1, efficiency=0.649), 6)
        assert photon_statistics(rho).probs[1] == pytest.approx(0.649, abs=1e-12)

    def test_statistics_sum_to_one(self):
        stats = photon_statistics(random_density_matrix(9, 14))
        assert stats.probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_fidelity_with_self(self):
        vec = coherent_amplitudes(0.5 + 0.2j, 12)
        rho = DensityMatrix(np.outer(vec, vec.conj()))
        assert fidelity_pure(rho, vec) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_orthogonal(self):
        rho = state_density_matrix(StateModel.vacuum(), 4)
        target = np.zeros(4, dtype=complex)
        target[1] = 1.0
        assert fidelity_pure(rho, target) == 0.0

    def test_fidelity_vacuum_vs_coherent(self):
        rho = state_density_matrix(StateModel.vacuum(), 25)
        target = coherent_amplitudes(0.86, 25)
        assert fidelity_pure(rho, target) == pytest.approx(
            math.exp(-(0.86**2)), abs=1e-9
        )

    def test_dimension_mismatch(self):
        rho = state_density_matrix(StateModel.vacuum(), 4)
        with pytest.raises(ValueError):
            fidelity_pure(rho, np.array([1.0, 0.0]))


class TestValidation:
    def test_non_hermitian_rejected(self):
        bad = np.eye(3, dtype=complex)
        bad[0, 1] = 0.5
        bad /= bad.trace()
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(bad)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(3, dtype=complex))

    def test_negative_eigenvalue_rejected(self):
        bad = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(bad)

    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            StateModel.mixture([0.5, 0.2], [StateModel.vacuum(), StateModel.fock(1)])

    def test_fock_above_cutoff_rejected(self):
        with pytest.raises(ValueError):
            state_density_matrix(StateModel.fock(5), 4)

    def test_mixture_realization(self):
        state = StateModel.mixture(
            [0.351, 0.649], [StateModel.vacuum(), StateModel.fock(1)]
        )
        diag = np.diag(state_density_matrix(state, 4).elements).real
        assert diag[0] == pytest.approx(0.351, abs=1e-12)
        assert diag[1] == pytest.approx(0.649, abs=1e-12)


class TestCoherentAmplitudes:
    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.complex_numbers(allow_nan=False, allow_infinity=False),
        cutoff=st.integers(2, 30),
    )
    def test_finite_with_unit_norm(self, alpha, cutoff):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = coherent_amplitudes(alpha, cutoff)
        assert np.all(np.isfinite(vec))
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_huge_alpha_fills_the_top_level(self):
        vec = coherent_amplitudes(1e200, 6)
        assert abs(vec[-1]) == pytest.approx(1.0, abs=1e-12)


def per_phase_reference(state, phases, n, seed, cutoff):
    """The inversion the harmonic table replaced: for each distinct phase, the
    public ``quadrature_pdf`` on the sampling grid, its trapezoid CDF, and
    ``np.interp`` of the same uniforms."""
    phases = np.broadcast_to(np.asarray(phases, dtype=float), (n,))
    rho = state_density_matrix(state, cutoff)
    u = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed]))).random(n)
    grid = np.linspace(-SAMPLE_GRID_HALFSPAN, SAMPLE_GRID_HALFSPAN, SAMPLE_GRID_POINTS)
    dx = grid[1] - grid[0]
    values = np.empty(n)
    for theta in np.unique(phases):
        pdf = quadrature_pdf(rho, theta, grid)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dx)))
        idx = phases == theta
        values[idx] = np.interp(u[idx], cdf / cdf[-1], grid)
    return values


SAMPLED_STATES = {
    "vacuum": StateModel.vacuum(),
    "complex coherent": StateModel.coherent(0.6 - 0.3j),
    "fock": StateModel.fock(2),
    "lossy mixture": StateModel.mixture(
        [0.7, 0.3], [StateModel.fock(1), StateModel.vacuum()], efficiency=0.9
    ),
}
SCHEDULES = {
    "constant": PhaseSchedule(kind="constant", value=0.7),
    "list": PhaseSchedule(kind="list", values=(0.0, 1.0, 2.0, 3.0)),
    "sweep": PhaseSchedule(kind="sweep", count=5, start=0.1, span=3.0),
    "random": PhaseSchedule(kind="random"),
}


class TestSampleQuadratures:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("state", sorted(SAMPLED_STATES))
    def test_matches_per_phase_inversion(self, state, schedule):
        n = 60
        phases = SCHEDULES[schedule].realize(n, np.random.default_rng(1))
        batch = sample_quadratures(SAMPLED_STATES[state], phases, n, seed=2, cutoff=6)
        expected = per_phase_reference(SAMPLED_STATES[state], phases, n, 2, 6)
        assert np.array_equal(batch.phases, phases)
        assert np.max(np.abs(batch.values - expected)) <= 1e-9

    def test_single_sample(self):
        state = StateModel.coherent(0.6 - 0.3j)
        batch = sample_quadratures(state, [1.2], 1, seed=3)
        assert batch.values.shape == (1,)
        expected = per_phase_reference(state, [1.2], 1, 3, 10)
        assert abs(batch.values[0] - expected[0]) <= 1e-9

    def test_same_seed_reproduces_random_phases(self):
        state = StateModel.coherent(0.6 - 0.3j, efficiency=0.8)
        phases = np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, 5000)
        a = sample_quadratures(state, phases, phases.size, seed=5)
        b = sample_quadratures(state, phases, phases.size, seed=5)
        c = sample_quadratures(state, phases, phases.size, seed=6)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("phase", [math.nan, math.inf])
    def test_non_finite_phase_rejected(self, phase):
        with pytest.raises(ValueError, match="finite"):
            sample_quadratures(StateModel.vacuum(), [0.0, phase], 2, seed=0)

    @pytest.mark.parametrize("distinct", [1, 1000])
    def test_one_wavefunction_table_per_call(self, monkeypatch, distinct):
        # a per-phase table would call fock_wavefunctions once per distinct phase
        calls = []
        original = states.fock_wavefunctions

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(states, "fock_wavefunctions", counting)
        phases = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, distinct)
        sample_quadratures(StateModel.coherent(0.6 - 0.3j), phases, 1000, seed=8)
        assert len(calls) == 1
