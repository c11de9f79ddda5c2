"""Sampling and maximum-likelihood reconstruction round trips."""

import math

import numpy as np
import pytest
from scipy.special import erf
from scipy.stats import ks_2samp

from pulsequad.extraction import QuadratureBatch
from pulsequad.states import StateModel, coherent_amplitudes, fidelity_pure
from pulsequad.tomography import (
    _binned_cells,
    mle_reconstruct,
    sample_quadratures,
    symmetry_offset_check,
)

from test_states import random_density_matrix


def vacuum_cdf(x):
    return 0.5 * (1 + erf(x))


def fock1_cdf(x):
    return 0.5 * (1 + erf(x)) - x * np.exp(-(x**2)) / math.sqrt(math.pi)


class TestSampling:
    def test_vacuum_moments(self):
        n = 100_000
        batch = sample_quadratures(StateModel.vacuum(), [0.0], n, seed=1)
        assert abs(batch.values.mean()) < 3 * math.sqrt(0.5 / n)
        se_var = 0.5 * math.sqrt(2.0 / (n - 1))
        assert abs(batch.values.var(ddof=1) - 0.5) < 3 * se_var

    def test_coherent_phase_sweep_means(self):
        thetas = np.arange(7) * np.pi / 7
        per_phase = 5000
        phases = np.repeat(thetas, per_phase)
        batch = sample_quadratures(StateModel.coherent(0.86), phases, phases.size, seed=2)
        for theta in thetas:
            vals = batch.values[batch.phases == theta]
            expected = math.sqrt(2) * 0.86 * math.cos(theta)
            assert abs(vals.mean() - expected) < 3 * math.sqrt(0.5 / per_phase)

    def test_lossy_single_photon_mixture_distribution(self):
        n = 100_000
        rng = np.random.default_rng(3)
        phases = rng.uniform(0, 2 * np.pi, n)
        batch = sample_quadratures(
            StateModel.fock(1, efficiency=0.649), phases, n, seed=3
        )
        xs = np.sort(batch.values)
        model = 0.351 * vacuum_cdf(xs) + 0.649 * fock1_cdf(xs)
        ks = np.max(np.abs(model - np.arange(1, n + 1) / n))
        assert ks < 0.01

    def test_seed_determinism(self):
        a = sample_quadratures(StateModel.coherent(0.5), [0.1], 500, seed=42)
        b = sample_quadratures(StateModel.coherent(0.5), [0.1], 500, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_phase_schedule_length_mismatch(self):
        with pytest.raises(ValueError):
            sample_quadratures(StateModel.vacuum(), [0.0, 0.1], 500, seed=0)

    def test_symmetry_identity(self):
        # samples at theta mirror samples at theta + pi
        n = 20_000
        state = StateModel.coherent(0.7)
        a = sample_quadratures(state, [0.4], n, seed=5)
        b = sample_quadratures(state, [0.4 + np.pi], n, seed=6)
        stat = ks_2samp(a.values, -b.values).statistic
        critical = 1.358 * math.sqrt(2.0 / n)  # 5% point of the two-sample KS law
        assert stat < 3 * critical


class TestMleReconstruct:
    def test_vacuum_round_trip(self):
        n = 10_000
        rng = np.random.default_rng(30)
        phases = rng.uniform(0, 2 * np.pi, n)
        batch = sample_quadratures(StateModel.vacuum(), phases, n, seed=103, cutoff=6)
        result = mle_reconstruct(batch, 6)
        assert result.rho.elements[0, 0].real >= 0.99
        assert result.converged

    def test_coherent_round_trip_fidelity(self):
        phases = np.repeat(np.arange(7) * np.pi / 7, 5000)
        batch = sample_quadratures(StateModel.coherent(0.86), phases, 35_000, seed=4)
        result = mle_reconstruct(batch, 10)
        fid = fidelity_pure(result.rho, coherent_amplitudes(0.86, 10))
        assert fid >= 0.99

    def test_likelihood_history_non_decreasing(self):
        phases = np.repeat(np.arange(5) * np.pi / 5, 400)
        batch = sample_quadratures(StateModel.fock(1), phases, 2000, seed=7, cutoff=6)
        result = mle_reconstruct(batch, 6)
        gains = np.diff(result.history)
        assert np.all(gains >= -1e-10 * np.abs(result.history[:-1]))

    def test_lossy_povm_corrects_efficiency(self):
        n = 60_000
        rng = np.random.default_rng(8)
        phases = rng.uniform(0, 2 * np.pi, n)
        batch = sample_quadratures(
            StateModel.fock(1, efficiency=0.649 * 0.86), phases, n, seed=9
        )
        result = mle_reconstruct(batch, 8, eta=0.86)
        assert result.rho.elements[1, 1].real == pytest.approx(0.649, abs=0.03)

    def test_random_state_consistency(self):
        # fixed 4-level state, ideal detection: reconstruction converges on truth
        truth = random_density_matrix(4, seed=20)
        n = 100_000
        phases = np.tile(np.arange(12) * np.pi / 12, n // 12 + 1)[:n]
        rng = np.random.default_rng(21)
        u = rng.random(n)
        values = np.empty(n)
        x_grid = np.linspace(-8, 8, 2**14)
        from pulsequad.states import quadrature_pdf

        for theta in np.unique(phases):
            pdf = quadrature_pdf(truth, theta, x_grid)
            cdf = np.concatenate(
                ([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(x_grid)))
            )
            cdf /= cdf[-1]
            sel = phases == theta
            values[sel] = np.interp(u[sel], cdf, x_grid)
        batch = QuadratureBatch(values=values, phases=phases)
        result = mle_reconstruct(batch, 4)
        diff = result.rho.elements - truth.elements
        tdist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)))
        assert tdist < 0.05

    def test_requires_phases(self):
        batch = QuadratureBatch(values=np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError, match="phases"):
            mle_reconstruct(batch, 4)

    def test_rejects_bad_arguments(self):
        batch = sample_quadratures(StateModel.vacuum(), [0.0], 100, seed=0)
        with pytest.raises(ValueError):
            mle_reconstruct(batch, 1)
        with pytest.raises(ValueError):
            mle_reconstruct(batch, 4, bin_width=0.0)
        with pytest.raises(ValueError):
            mle_reconstruct(batch, 4, eta=0.0)

    def test_non_convergence_flagged(self):
        phases = np.repeat(np.arange(5) * np.pi / 5, 2000)
        batch = sample_quadratures(StateModel.coherent(0.6), phases, 10_000, seed=11)
        result = mle_reconstruct(batch, 8, max_iter=3)
        assert not result.converged
        assert result.iterations == 3


class TestBinnedCells:
    def test_many_phases_and_narrow_bins(self):
        # 20k phases x ~1e15 bins would overflow a key packed over the bin range
        rng = np.random.default_rng(0)
        values = rng.normal(0.0, 1.0, 20_000)
        phases = rng.uniform(0.0, 2.0 * np.pi, values.size)
        width = 1e-14
        cell_phase, bin_of_cell, counts, bin_lo = _binned_cells(values, phases, width)
        order = np.argsort(phases)
        assert np.array_equal(counts, np.ones(values.size))
        assert np.array_equal(cell_phase, phases[order])
        lo = bin_lo[bin_of_cell]
        assert np.all(np.abs(values[order] - lo - 0.5 * width) <= width)


class TestSymmetryOffsetCheck:
    def test_unbiased_batch(self):
        state = StateModel.coherent(0.86)
        a = sample_quadratures(state, [0.3], 5000, seed=12)
        b = sample_quadratures(state, [0.3 + np.pi], 5000, seed=13)
        batch = QuadratureBatch(
            values=np.concatenate([a.values, b.values]),
            phases=np.concatenate([a.phases, b.phases]),
        )
        offset, sigma = symmetry_offset_check(batch)
        assert abs(offset) < 3 * sigma

    def test_injected_offset_recovered(self):
        state = StateModel.coherent(0.86)
        a = sample_quadratures(state, [0.3], 5000, seed=14)
        b = sample_quadratures(state, [0.3 + np.pi], 5000, seed=15)
        batch = QuadratureBatch(
            values=np.concatenate([a.values, b.values]) + 0.3,
            phases=np.concatenate([a.phases, b.phases]),
        )
        offset, sigma = symmetry_offset_check(batch)
        assert offset == pytest.approx(0.3, abs=3 * sigma)

    def test_no_pairs_is_an_error(self):
        batch = sample_quadratures(StateModel.vacuum(), [0.2], 1000, seed=16)
        with pytest.raises(ValueError, match="pairs"):
            symmetry_offset_check(batch)
