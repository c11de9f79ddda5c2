"""Fock-basis state math: wavefunctions, densities, loss, Wigner functions."""

import math
import tracemalloc
import warnings
from dataclasses import fields
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from pulsequad import states
from pulsequad.cli import WIGNER_HALFSPAN, WIGNER_POINTS, PhaseSchedule
from pulsequad.states import (
    SAMPLE_GRID_HALFSPAN,
    SAMPLE_GRID_MAX_CUTOFF,
    SAMPLE_GRID_POINTS,
    DensityMatrix,
    StateModel,
    apply_loss_adjoint,
    coherent_amplitudes,
    fidelity_pure,
    fock_wavefunctions,
    loss_channel,
    photon_statistics,
    sample_quadratures,
    state_density_matrix,
    wigner,
)

from reference import quadrature_pdf


@pytest.fixture(autouse=True)
def cold_sampler():
    """Start and end each test with no phase-free sampler table kept, so a
    test that counts or patches the table build sees it run."""
    states._PHASE_FREE_TABLES.clear()
    yield
    states._PHASE_FREE_TABLES.clear()


@pytest.fixture
def wavefunction_calls(monkeypatch):
    """``(levels, points)`` of every ``fock_wavefunctions`` call the sampler makes."""
    calls = []
    original = states.fock_wavefunctions

    def counting(n_levels, x):
        calls.append((n_levels, np.size(x)))
        return original(n_levels, x)

    monkeypatch.setattr(states, "fock_wavefunctions", counting)
    return calls


def traced_peak(call):
    """Peak traced allocation, in bytes, of a second ``call()``: the first
    fills numpy's and the sampler's caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_density_matrix(dim, seed):
    """Ginibre-random full-rank density matrix."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(rho / rho.trace().real)


def fock_wavefunction(n, x):
    """Real amplitude ``psi_n(x)`` of the n-photon quadrature wavefunction:
    row ``n`` of ``fock_wavefunctions``."""
    if n < 0:
        raise ValueError("photon number must be nonnegative")
    scalar = np.isscalar(x)
    out = fock_wavefunctions(n + 1, x)[n]
    return float(out[0]) if scalar else out


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


def loss_kraus(dim, eta):
    """Kraus operators of photon loss: ``K[k]`` maps ``|n>`` to
    ``sqrt(C(n,k) eta^(n-k) (1-eta)^k) |n-k>``."""
    ks = np.zeros((dim, dim, dim))
    for k in range(dim):
        for n in range(k, dim):
            ks[k, n - k, n] = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)
    return ks


class TestLossAgainstKrausSums:
    """Both banded loss maps against ``sum_k K_k rho K_k^T`` and
    ``sum_k K_k^T op K_k``, summed by ``np.einsum`` over the dense Kraus tensor."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 20),
        eta=st.floats(0.0, 1.0),
        lead=st.lists(st.integers(1, 3), max_size=2),
        scale=st.sampled_from([1e-200, 1.0, 1e200]),
        is_complex=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_maps_equal_kraus_sums_bit_for_bit(self, dim, eta, lead, scale, is_complex, seed):
        ks = loss_kraus(dim, eta)
        rho = random_density_matrix(dim, seed)
        expected = np.einsum("kmi,ij,knj->mn", ks, rho.elements, ks)
        if eta < 1.0:  # at 1.0 the map returns rho itself, not re-hermitized
            expected = DensityMatrix.from_array(expected).elements
        assert np.array_equal(loss_channel(rho, eta).elements, expected)

        rng = np.random.default_rng(seed)
        op = rng.normal(size=(*lead, dim, dim)) * scale
        if is_complex:
            op = op + 1j * scale * rng.normal(size=op.shape)
        expected = np.einsum("kim,...ij,kjn->...mn", ks, op, ks)
        mapped = apply_loss_adjoint(op, eta)
        assert mapped.dtype == expected.dtype and np.array_equal(mapped, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 20),
        eta=st.floats(0.0, 1.0),
        lead=st.lists(st.integers(1, 3), max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_adjoint_is_dual_to_the_channel(self, dim, eta, lead, seed):
        rho = random_density_matrix(dim, seed)
        rng = np.random.default_rng(seed)
        op = rng.normal(size=(*lead, dim, dim)) + 1j * rng.normal(size=(*lead, dim, dim))
        forward = np.einsum("mn,...nm->...", loss_channel(rho, eta).elements, op)
        backward = np.einsum("mn,...nm->...", rho.elements, apply_loss_adjoint(op, eta))
        assert np.max(np.abs(forward - backward), initial=0.0) <= 1e-12


def laguerre_kernels(d, count, r2):
    """Yield ``sqrt(m!/(m+d)!) L_m^(d)(r2) exp(-r2/2)`` for ``m = 0 .. count-1``,
    from ``m L_m = (2m - 1 + d - r2) L_{m-1} - (m - 1 + d) L_{m-2}``, ``L_0 = 1``."""
    gauss = np.exp(-0.5 * r2)
    lag_prev, lag = np.zeros_like(r2), np.ones_like(r2)
    for m in range(count):
        if m > 0:
            lag_prev, lag = lag, ((2 * m - 1 + d - r2) * lag - (m - 1 + d) * lag_prev) / m
        yield math.sqrt(math.factorial(m) / math.factorial(m + d)) * lag * gauss


def per_point_wigner(rho, x_axis, p_axis):
    """Wigner function summed kernel by kernel at every grid point:
    ``(-1)^m / pi`` times each kernel, weighted by ``rho_mm`` on the diagonal
    and by ``2 Re(rho_{m,m+d} a^d)`` off it."""
    X, P = np.meshgrid(np.asarray(x_axis, float), np.asarray(p_axis, float), indexing="ij")
    r2 = 2.0 * (X * X + P * P)
    amp = math.sqrt(2.0) * (X + 1j * P)
    values = np.zeros_like(X)
    off = np.ones_like(amp)
    for d in range(rho.dim):
        if d > 0:
            off = off * amp
        for m, kernel in enumerate(laguerre_kernels(d, rho.dim - d, r2)):
            kern = (-1.0) ** m / math.pi * kernel
            if d == 0:
                values += rho.elements[m, m].real * kern
            else:
                values += 2.0 * np.real(rho.elements[m, m + d] * off) * kern
    return values


def cli_wigner_axis():
    return np.linspace(-WIGNER_HALFSPAN, WIGNER_HALFSPAN, WIGNER_POINTS)


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

    def test_laguerre_kernels_match_scipy(self):
        r2 = np.linspace(0.0, 144.0, 1441)
        gauss = np.exp(-0.5 * r2)
        for d in range(40):
            kernels = list(laguerre_kernels(d, 40 - d, r2))
            assert len(kernels) == 40 - d
            for m, kernel in enumerate(kernels):
                weight = math.sqrt(math.factorial(m) / math.factorial(m + d))
                expected = weight * eval_genlaguerre(m, d, r2) * gauss
                assert np.max(np.abs(kernel - expected)) <= 1e-12, (m, d)

    # Below 20 photons the mass outside [-8, 8]^2 is under 2e-7 (1.4e-7 for
    # |19>), and on a 0.1 grid the trapezoid rule is exact to round-off for
    # these Gaussian-weighted polynomials.
    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(2, 20), rank=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_normalisation_property(self, dim, rank, seed):
        rng = np.random.default_rng(seed)
        shape = (dim, min(rank, dim))
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rho = g @ g.conj().T
        axis = np.linspace(-8.0, 8.0, 161)
        grid = wigner(DensityMatrix(rho / rho.trace().real), axis, axis)
        total = np.trapezoid(np.trapezoid(grid.values, axis, axis=1), axis)
        assert total == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 20),
        rank=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
        axes=st.sampled_from(["random", "point", "repeated"]),
    )
    def test_equals_the_per_point_sum(self, dim, rank, seed, axes):
        rng = np.random.default_rng(seed)
        shape = (dim, min(rank, dim))
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rho = DensityMatrix.from_array(g @ g.conj().T)
        if axes == "random":  # no symmetry, few repeated radii
            x, p = rng.uniform(-8.0, 8.0, rng.integers(1, 40)), rng.uniform(-6.0, 9.0, 30)
        elif axes == "point":
            x, p = rng.uniform(-4.0, 4.0, 1), rng.uniform(-4.0, 4.0, 1)
        else:  # every radius repeats, across signs, swapped axes and duplicates
            x = np.tile(np.round(rng.uniform(-5.0, 5.0, 8), 1), 2)
            p = np.concatenate((x, -x, [0.0]))
        got = wigner(rho, x, p).values
        assert got.shape == (x.size, p.size)
        assert np.max(np.abs(got - per_point_wigner(rho, x, p))) <= 1e-14

    @pytest.mark.parametrize("dim", [1, 2, 10, 20])
    def test_origin_is_the_cli_grid_centre_bit_for_bit(self, dim):
        rho = random_density_matrix(dim, 30 + dim)
        axis = cli_wigner_axis()
        centre = wigner(rho, axis, axis).values[WIGNER_POINTS // 2, WIGNER_POINTS // 2]
        assert wigner(rho, [0.0], [0.0]).values[0, 0] == centre
        assert per_point_wigner(rho, [0.0], [0.0])[0, 0] == centre

    def test_cli_axis_holds_an_exact_zero_at_its_centre(self):
        assert cli_wigner_axis()[WIGNER_POINTS // 2] == 0.0

    @pytest.mark.parametrize("dim", [10, 20])
    @pytest.mark.parametrize("far", [1e6, 1e10, 1e15, 1e20, 1e100, 1e200, 1.7e308])
    def test_zero_where_the_gaussian_underflows(self, dim, far):
        # exp(-r^2/2) underflows to 0 there while L_m^(d)(r^2) can overflow to
        # inf (from 1e10 at cutoff 20, from 1e20 at cutoff 10), and inf * 0 is NaN
        rho = random_density_matrix(dim, 40 + dim)
        axis = [-far, 0.0, far]
        values = wigner(rho, axis, axis).values
        assert values[1, 1] == wigner(rho, [0.0], [0.0]).values[0, 0] != 0.0
        values[1, 1] = 0.0
        assert np.all(values == 0.0)

    def test_cli_grid_peak_memory(self):
        # one order's radial sums at a time: 0.67 MiB at cutoff 20, where the
        # Laguerre arrays of all orders at once peaked at 3.18 MiB
        rho = random_density_matrix(20, 60)
        axis = cli_wigner_axis()
        assert traced_peak(lambda: wigner(rho, axis, axis)) < 1.0 * 2**20

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_axis_rejected(self, bad):
        rho = random_density_matrix(3, 15)
        with pytest.raises(ValueError, match="finite"):
            wigner(rho, [bad, 0.0], [0.0])
        with pytest.raises(ValueError, match="finite"):
            wigner(rho, [0.0], [bad])


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

    def test_coherent_state_truncated_by_the_cutoff_rejected(self):
        # alpha 2.5 loses 0.102 of its norm at cutoff 10; 1e308 loses all of it,
        # found in logs with no overflow
        mixture = StateModel.mixture([0.5, 0.5], [StateModel.vacuum(), StateModel.coherent(2.5)])
        refused = [
            (StateModel.coherent(2.5), 10),
            (mixture, 10),
            (StateModel.coherent(1e308), 10),
            (StateModel.coherent(1.73), 10),
            (StateModel.coherent(1.06), 6),
            (StateModel.coherent(3.0), 20),
        ]
        for state, cutoff in refused:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"loses .* of its norm at cutoff"):
                    state_density_matrix(state, cutoff)
        # golden trace-gaussian's alpha 1.5 loses 1.21e-4 at cutoff 10
        for alpha, cutoff in [(1.5, 10), (1.72, 10), (1.05, 6), (2.99, 20)]:
            assert state_density_matrix(StateModel.coherent(alpha), cutoff).dim == cutoff
        assert states._coherent(1.5, 10)[1] == pytest.approx(1.2080457756669e-4, rel=1e-9)

    def test_integral_float_fock_number_samples_as_int(self):
        state = StateModel(kind="fock", n=2.0)
        assert type(state.n) is int and state == StateModel.fock(2)
        phases = np.linspace(0.0, 3.0, 50)
        assert np.array_equal(
            sample_quadratures(state, phases, 50, seed=3).values,
            sample_quadratures(StateModel.fock(2), phases, 50, seed=3).values,
        )

    @pytest.mark.parametrize("n", [2.5, math.inf, math.nan, -1])
    def test_non_integral_fock_number_rejected(self, n):
        with pytest.raises(ValueError, match="nonnegative integer"):
            StateModel(kind="fock", n=n)
        with pytest.raises(ValueError, match="nonnegative integer"):
            StateModel.fock(n)

    def test_a_state_takes_only_the_fields_its_kind_reads(self):
        # written out here, not read from StateModel.KIND_FIELDS: 11 of the
        # 24 (kind, field) pairs are settable; loss maps a vacuum to itself
        reads = {
            "vacuum": {"kind"},
            "coherent": {"kind", "efficiency", "alpha"},
            "fock": {"kind", "efficiency", "n"},
            "mixture": {"kind", "efficiency", "weights", "components"},
        }
        values = {"alpha": 0.5j, "n": 1, "weights": (1.0,), "components": (StateModel.fock(1),),
                  "efficiency": 0.5}
        base = {"mixture": {"weights": values["weights"], "components": values["components"]}}
        for kind, names in reads.items():
            for name in (f.name for f in fields(StateModel)):
                args = {**base.get(kind, {}), name: values.get(name), "kind": kind}
                if name in names:
                    assert getattr(StateModel(**args), name) == args[name]
                else:
                    with pytest.raises(ValueError, match=f"^a {kind} state takes no {name}$"):
                        StateModel(**args)
        # an explicit default says nothing new; a list equals the default tuple
        assert StateModel(kind="vacuum", alpha=0, n=0, weights=[], components=[]) == StateModel()
        with pytest.raises(ValueError, match="^a fock state takes no alpha, weights$"):
            StateModel(kind="fock", n=1, alpha=1.0, weights=[1.0])
        # a vacuum's efficiency at its default is no loss, and is accepted
        assert StateModel(kind="vacuum", efficiency=1.0) == StateModel.vacuum()

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
    reference ``quadrature_pdf`` on the sampling grid, its trapezoid CDF, and
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

    def test_cutoff_the_grid_cannot_hold_rejected(self):
        state = StateModel.fock(SAMPLE_GRID_MAX_CUTOFF - 1)
        with pytest.raises(ValueError, match="cutoff"):
            sample_quadratures(state, [0.0], 10, seed=1, cutoff=SAMPLE_GRID_MAX_CUTOFF + 1)
        batch = sample_quadratures(state, [0.0], 4000, seed=1, cutoff=SAMPLE_GRID_MAX_CUTOFF)
        # <x^2> = n + 1/2 = 19.5, with standard error 0.22 at 4,000 samples
        assert np.var(batch.values) == pytest.approx(SAMPLE_GRID_MAX_CUTOFF - 0.5, abs=1.0)

    @pytest.mark.parametrize("phase", [math.nan, math.inf])
    def test_non_finite_phase_rejected(self, phase):
        with pytest.raises(ValueError, match="finite"):
            sample_quadratures(StateModel.vacuum(), [0.0, phase], 2, seed=0)

    @pytest.mark.parametrize("distinct", [1, 1000])
    def test_one_wavefunction_table_per_call(self, wavefunction_calls, distinct):
        # a per-phase table would evaluate the grid once per distinct phase;
        # the one table evaluates each grid point once, block by block
        phases = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, distinct)
        sample_quadratures(StateModel.coherent(0.6 - 0.3j), phases, 1000, seed=8)
        assert sum(points for _, points in wavefunction_calls) == SAMPLE_GRID_POINTS

    # at the largest size each call is one block; below it the blocks are
    # whole groups of BLAS matrix-vector rows.  Blocks of 215 rows, 2**12
    # entries over 19 columns unrounded, move one of these values by 2.2e-16
    @pytest.mark.parametrize(
        "state, phases",
        [
            (StateModel.vacuum(), [0.0]),
            (
                StateModel.coherent(1.2 + 1.0j),
                np.random.default_rng(9).uniform(0.0, 2.0 * np.pi, 3001),
            ),
            (StateModel.fock(2, efficiency=0.7), np.linspace(0.0, 3.0, 3001)),
        ],
        ids=["vacuum", "coherent random phases", "lossy fock"],
    )
    def test_same_values_at_every_block_size(self, monkeypatch, state, phases):
        values = []
        for entries in (2**8, 2**10, 2**12, 2**14, 2**20):
            monkeypatch.setattr(states, "SAMPLE_BLOCK_ENTRIES", entries)
            values.append(sample_quadratures(state, phases, 3001, seed=10).values)
        for v in values[:-1]:
            assert np.array_equal(v, values[-1])

    def test_vacuum_sampler_peak_memory(self):
        # blocks of SAMPLE_BLOCK_ENTRIES bound the bisection temporaries: 1.45
        # MiB at 2**12 entries; one block of all 40,000 samples peaks at 3.61 MiB
        sample_quadratures(StateModel.vacuum(), [0.0], 10, seed=0)  # caches warm
        tracemalloc.start()
        try:
            sample_quadratures(StateModel.vacuum(), [0.0], 40_000, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20

    def test_random_phase_sampler_peak_memory(self):
        # the table is built over grid blocks of SAMPLE_TABLE_BLOCK points:
        # 1.78 MiB, of which the (2**14, 10) table is 1.25 MiB; a whole-grid
        # wavefunction stack and its products peaked at 4.01 MiB
        phases = np.random.default_rng(12).uniform(0.0, 2.0 * np.pi, 1000)
        call = partial(sample_quadratures, StateModel.coherent(0.86), phases, 1000, seed=13)
        assert traced_peak(call) < 2.5 * 2**20


def full_cutoff_harmonics(rho, grid):
    """The cumulative harmonic table before support trimming and grid blocks:
    wavefunctions and harmonics of every level up to the cutoff, over the
    whole grid at once."""
    dim = rho.dim
    parts = []
    for d in range(dim):
        diag = np.diagonal(rho.elements, offset=d)
        for coeffs, shift in ((diag.real, 0.0), (diag.imag, 0.5 * np.pi)):
            if coeffs.any():
                parts.append((d, coeffs, shift))
    psi = fock_wavefunctions(dim, grid)
    dx = grid[1] - grid[0]
    table = np.zeros((grid.size, len(parts)))
    for r, (d, coeffs, _) in enumerate(parts):
        q = (2.0 if d else 1.0) * (coeffs @ (psi[: dim - d] * psi[d:]))
        np.cumsum(0.5 * (q[1:] + q[:-1]) * dx, out=table[1:, r])
    order = np.array([d for d, _, _ in parts], dtype=float)
    shift = np.array([s for _, _, s in parts])
    return table, order, shift


# (state, cutoff, Fock levels the trimmed table needs)
TRIMMED_STATES = {
    "vacuum": (StateModel.vacuum(), 10, 1),
    "fock 2 cutoff 5": (StateModel.fock(2), 5, 3),
    "fock 2 cutoff 10": (StateModel.fock(2), 10, 3),
    "lossy mixture": (SAMPLED_STATES["lossy mixture"], 6, 2),
    "complex coherent": (StateModel.coherent(0.6 - 0.3j), 10, 10),
    "complex coherent cutoff 20": (StateModel.coherent(0.6 - 0.3j), 20, 20),
}


class TestSupportTrimmedTable:
    @pytest.mark.parametrize("case", sorted(TRIMMED_STATES))
    def test_bit_identical_to_full_cutoff(self, monkeypatch, case):
        state, cutoff, _ = TRIMMED_STATES[case]
        rho = state_density_matrix(state, cutoff)
        grid = np.linspace(-SAMPLE_GRID_HALFSPAN, SAMPLE_GRID_HALFSPAN, SAMPLE_GRID_POINTS)
        for got, want in zip(
            states._cumulative_harmonics(rho, grid), full_cutoff_harmonics(rho, grid)
        ):
            assert np.array_equal(got, want)
        phases = np.random.default_rng(9).uniform(0.0, 2.0 * np.pi, 3000)
        trimmed = sample_quadratures(state, phases, phases.size, seed=10, cutoff=cutoff)
        monkeypatch.setattr(states, "_cumulative_harmonics", full_cutoff_harmonics)
        states._PHASE_FREE_TABLES.clear()  # or a phase-free state reuses the trimmed table
        full = sample_quadratures(state, phases, phases.size, seed=10, cutoff=cutoff)
        assert np.array_equal(trimmed.values, full.values)

    # one block below SAMPLE_TABLE_BLOCK points, a remainder joined to the
    # last block (2049, 5000 and 16385 points) and whole blocks only
    @pytest.mark.parametrize("points", [64, 2049, 5000, 16385, 2**14])
    def test_blocked_table_equals_the_whole_grid_build(self, points):
        grid = np.linspace(-SAMPLE_GRID_HALFSPAN, SAMPLE_GRID_HALFSPAN, points)
        for state, cutoff, levels in TRIMMED_STATES.values():
            rho = state_density_matrix(state, cutoff)
            # built over the same levels: at 64 and 5,000 points gemv sums the
            # zero rows of the lossy mixture's full cutoff in another order
            support = DensityMatrix(rho.elements[:levels, :levels])
            for got, want in zip(
                states._cumulative_harmonics(rho, grid), full_cutoff_harmonics(support, grid)
            ):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", sorted(TRIMMED_STATES))
    def test_columns_follow_the_shared_layout(self, case):
        # the MLE reads the same layout: order 0, then (d, shift 0) and
        # (d, shift pi/2) for d >= 1, with w_0 = 1 and w_d = 2
        order, shift, weight = states._harmonic_layout(3)
        assert np.array_equal(order, [0, 1, 1, 2, 2])
        assert np.array_equal(shift, [0, 0, 0.5 * np.pi, 0, 0.5 * np.pi])
        assert np.array_equal(weight, [1, 2, 2, 2, 2])
        state, cutoff, _ = TRIMMED_STATES[case]
        rho = state_density_matrix(state, cutoff)
        grid = np.linspace(-SAMPLE_GRID_HALFSPAN, SAMPLE_GRID_HALFSPAN, 64)
        _, order, shift = states._cumulative_harmonics(rho, grid)
        full = list(zip(*states._harmonic_layout(cutoff)[:2]))
        at = [full.index(column) for column in zip(order, shift)]
        assert at == sorted(set(at))

    # d * theta, a 53-bit by 5-bit product, is exact in an x87 long double's
    # 64-bit mantissa for every order d <= 19 at cutoff 20
    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an 80-bit long double")
    @pytest.mark.parametrize("theta", [0.3, 1e3, 1e15, 1e308])
    def test_harmonic_factors_against_extended_precision(self, theta):
        order, shift, _ = states._harmonic_layout(SAMPLE_GRID_MAX_CUTOFF)
        angle = order.astype(np.longdouble) * np.longdouble(theta)
        want = np.where(shift > 0, -np.sin(angle), np.cos(angle)).astype(float)
        got = states._harmonic_factors(np.array([theta]), order, shift)
        assert got.shape == (1, order.size)
        assert np.max(np.abs(got[0] - want)) <= 1e-13

    @pytest.mark.parametrize("case", sorted(TRIMMED_STATES))
    def test_wavefunctions_built_to_the_support(self, wavefunction_calls, case):
        state, cutoff, levels = TRIMMED_STATES[case]
        sample_quadratures(state, [0.0, 1.0], 2, seed=11, cutoff=cutoff)
        assert {n_levels for n_levels, _ in wavefunction_calls} == {levels}
        assert sum(points for _, points in wavefunction_calls) == SAMPLE_GRID_POINTS

    @pytest.mark.parametrize("case", sorted(TRIMMED_STATES))
    def test_phase_free_table_built_once(self, wavefunction_calls, case):
        # a diagonal rho gives one column, kept read-only for the next call;
        # a table with phase harmonics is built again by every call
        state, cutoff, _ = TRIMMED_STATES[case]
        first = sample_quadratures(state, [0.0], 500, seed=12, cutoff=cutoff)
        built = sum(points for _, points in wavefunction_calls)
        second = sample_quadratures(state, [0.0], 500, seed=12, cutoff=cutoff)
        rebuilt = sum(points for _, points in wavefunction_calls) - built
        assert np.array_equal(first.values, second.values)
        assert built == SAMPLE_GRID_POINTS
        kept = states._PHASE_FREE_TABLES.get((state, cutoff))
        if state.kind == "coherent":
            assert rebuilt == SAMPLE_GRID_POINTS and kept is None
        else:
            assert rebuilt == 0
            assert not any(array.flags.writeable for array in kept)


def bisected_samples(state, n, seed, cutoff):
    """Phase-free samples inverted by bisection alone, as before the guide."""
    rho = state_density_matrix(state, cutoff)
    grid = np.linspace(-SAMPLE_GRID_HALFSPAN, SAMPLE_GRID_HALFSPAN, SAMPLE_GRID_POINTS)
    table, order, _ = states._cumulative_harmonics(rho, grid)
    assert order.size == 1
    column = table[:, 0]
    u = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed]))).random(n)
    target = u * column[-1]
    pos = states._bisect(column.take, target, grid.size - 1)
    f_lo = column[pos]
    slope = (grid[pos + 1] - grid[pos]) / (column[pos + 1] - f_lo)
    return slope * (target - f_lo) + grid[pos]


LOSSY_FOCK = st.builds(
    StateModel.fock, st.integers(0, 6), st.floats(0.01, 1.0, allow_subnormal=False)
)
PHASE_FREE_STATES = st.one_of(
    st.just(StateModel.vacuum()),
    LOSSY_FOCK,
    st.lists(LOSSY_FOCK, min_size=2, max_size=4).flatmap(
        lambda parts: st.lists(
            st.floats(0.05, 1.0), min_size=len(parts), max_size=len(parts)
        ).map(lambda w: StateModel.mixture(np.divide(w, sum(w)), parts))
    ),
)


class TestGuidedInversion:
    @settings(max_examples=40, deadline=None)
    @given(
        state=PHASE_FREE_STATES,
        blocks=st.integers(1, 2),
        edge=st.integers(-1, 1),
        seed=st.integers(0, 2**32 - 1),
        phase=st.floats(-10.0, 10.0),
    )
    def test_bit_identical_to_bisection(self, state, blocks, edge, seed, phase):
        # sample counts straddle the edges of the SAMPLE_BLOCK_ENTRIES blocks
        states._PHASE_FREE_TABLES.clear()
        n = blocks * states.SAMPLE_BLOCK_ENTRIES + edge
        got = sample_quadratures(state, [phase], n, seed=seed, cutoff=8).values
        assert states._PHASE_FREE_TABLES[state, 8][1] is not None  # the guide was used
        assert np.array_equal(got, bisected_samples(state, n, seed, 8))

    @pytest.mark.parametrize(
        "state", [StateModel.vacuum(), StateModel.fock(6, efficiency=0.37)], ids=["vacuum", "fock"]
    )
    def test_largest_uniform(self, monkeypatch, state):
        class TopGenerator:
            """Draws the largest value ``Generator.random`` can return."""

            def __init__(self, bit_generator):
                pass

            def random(self, n):
                return np.full(n, 1.0 - 2.0**-53)

        monkeypatch.setattr(np.random, "Generator", TopGenerator)
        got = sample_quadratures(state, [0.0], 3, seed=0).values
        want = bisected_samples(state, 3, 0, 10)
        assert np.array_equal(got, want)
        assert np.all(np.isfinite(got)) and np.all(got <= SAMPLE_GRID_HALFSPAN)

    def test_target_at_the_total_is_clamped(self):
        # u * total cannot reach total for u < 1, but a per-phase cdf(last)
        # summed in another order can fall below the target: both searches
        # end in the last bracket
        sample_quadratures(StateModel.vacuum(), [0.0], 1, seed=0)
        column, guide = states._PHASE_FREE_TABLES[StateModel.vacuum(), 10]
        last = column.size - 1
        target = np.array([column[-1], np.nextafter(column[-1], 2.0)])
        assert list(states._bisect(column.take, target, last)) == [last - 1] * 2
        assert list(states._guided_index(column, guide, target[:1])) == [last - 1]

    def test_state_built_from_lists_is_a_table_key(self):
        state = StateModel(kind="mixture", weights=[1.0], components=[StateModel.fock(1)])
        assert state == StateModel.mixture([1.0], [StateModel.fock(1)])
        assert sample_quadratures(state, [0.0], 5, seed=1).values.shape == (5,)
        assert (state, 10) in states._PHASE_FREE_TABLES

    def test_decreasing_column_keeps_the_bisection(self):
        column, guide = states._phase_free_entry(np.array([0.0, 0.5, 0.4, 1.0]))
        assert guide is None and not column.flags.writeable
