"""Sampling and maximum-likelihood reconstruction round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf
from scipy.stats import ks_2samp

from pulsequad.cli import TomographyOptions, _child_seed, _seeded_rng
from pulsequad.extraction import QuadratureBatch
from pulsequad.states import (
    SAMPLE_GRID_HALFSPAN,
    DensityMatrix,
    StateModel,
    WignerGrid,
    _cumulative_harmonics,
    _harmonic_factors,
    coherent_amplitudes,
    fidelity_pure,
    sample_quadratures,
)
from pulsequad.tomography import (
    _QUAD_NODES,
    _QUAD_WEIGHTS,
    _bin_operators,
    _binned_cells,
    _CellMap,
    mle_reconstruct,
    write_wigner_csv,
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
        from reference import quadrature_pdf

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
        with pytest.raises(ValueError, match="bin_width"):
            mle_reconstruct(batch, 4, bin_width=50.0)
        # x / 1e-300 is past int64, so the bins, and a gap_bound from them, would be garbage
        with pytest.raises(ValueError, match="bin_width"):
            mle_reconstruct(batch, 4, bin_width=1e-300)
        with pytest.raises(ValueError):
            mle_reconstruct(batch, 4, eta=0.0)
        # -1e-9 and NaN would accept steps that lower the likelihood, and inf
        # would stop the loop at its first plain step
        for tol in (-1e-9, float("nan"), math.inf):
            with pytest.raises(ValueError, match="tol"):
                mle_reconstruct(batch, 4, tol=tol)
        for max_iter in (-1, float("inf")):
            with pytest.raises(ValueError, match="max_iter"):
                mle_reconstruct(batch, 4, max_iter=max_iter)
        with pytest.raises(ValueError, match="batch is empty"):
            mle_reconstruct(QuadratureBatch(values=[], phases=[]), 4)

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
        order = np.argsort(values)  # one sample per cell, cells grouped by bin
        assert np.array_equal(counts, np.ones(values.size))
        assert np.array_equal(cell_phase, phases[order])
        lo = bin_lo[bin_of_cell]
        assert np.all(np.abs(values[order] - lo - 0.5 * width) <= width)

    def test_cells_come_grouped_by_bin(self):
        # mle_reconstruct takes each bin's cells as one contiguous segment
        phases = np.repeat(np.linspace(0.0, np.pi, 7, endpoint=False), 500)
        values = np.random.default_rng(1).normal(0.0, 1.0, phases.size)
        cell_phase, bin_of_cell, counts, bin_lo = _binned_cells(values, phases, 0.1)
        assert np.all(np.diff(bin_of_cell) >= 0)
        same_bin = np.diff(bin_of_cell) == 0
        assert np.all(np.diff(cell_phase)[same_bin] > 0)
        assert counts.sum() == values.size
        pairs = np.column_stack([cell_phase, bin_of_cell])
        assert np.unique(pairs, axis=0).shape[0] == cell_phase.size


def dense_rrr_reference(batch, cutoff, bin_width, steps):
    """Unblended R rho R steps on dense per-cell POVM elements.

    ``Pi_j = U_j O_b U_j^dagger`` with ``U_j = diag(exp(i n theta_j))``, the
    rotation that takes ``X`` to ``X_theta``; ``p_j = tr(rho Pi_j)`` and
    ``R = sum_j (f_j / p_j) Pi_j``.  Returns the likelihood trail and rho.
    """
    cell_phase, bin_of_cell, counts, bin_lo = _binned_cells(
        batch.values, batch.phases, bin_width
    )
    ops = _bin_operators(bin_lo, bin_width, cutoff, 1.0)
    u = np.exp(1j * np.outer(cell_phase, np.arange(cutoff)))
    povm = (u[:, :, None] * ops[bin_of_cell] * u.conj()[:, None, :]).reshape(u.shape[0], -1)
    freqs = counts / counts.sum()
    rho = np.eye(cutoff, dtype=complex) / cutoff
    history = []
    for step in range(steps + 1):
        p = (povm @ rho.T.ravel()).real
        history.append(counts @ np.log(p))
        if step < steps:
            r = ((freqs / p) @ povm).reshape(cutoff, cutoff)
            rho = r @ rho @ r
            rho = 0.5 * (rho + rho.conj().T)
            rho /= np.trace(rho).real
    return np.array(history), rho, bin_lo.size


class TestRealHarmonicLayout:
    @pytest.mark.parametrize("bin_width, min_bins", [(0.1, 50), (0.002, 1000)])
    @pytest.mark.parametrize("steps", [1, 2])
    def test_matches_dense_rrr_steps(self, bin_width, min_bins, steps):
        # a complex alpha at random phases makes every Re and Im column live
        phases = np.random.default_rng(40).uniform(0.0, 2.0 * np.pi, 3000)
        batch = sample_quadratures(StateModel.coherent(0.6 - 0.3j), phases, 3000, seed=41)
        history, rho, n_bins = dense_rrr_reference(batch, 6, bin_width, steps)
        assert n_bins >= min_bins
        assert np.all(np.diff(history) > 0)  # so the MLE takes every plain step
        result = mle_reconstruct(batch, 6, bin_width=bin_width, max_iter=steps)
        assert result.iterations == steps
        assert np.allclose(result.history, history, rtol=1e-12, atol=0.0)
        assert np.max(np.abs(result.rho.elements - rho)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    cutoff=st.integers(2, 10),
    eta=st.floats(0.0, 1.0, exclude_min=True),
    bin_width=st.floats(0.05, 1.0),
    listed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_cell_map_adjoint_is_the_transpose_of_probs(cutoff, eta, bin_width, listed, seed):
    # <w, probs(rho)> = Re tr(adjoint(w) rho), and adjoint(w) is Hermitian: R
    # is the transpose of the cell probabilities, which the R rho R step and
    # the gap bound's lambda_max(R) both take it to be
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 1.5, 400)
    if listed:  # a phase schedule of a few settings: many samples share a cell
        phases = rng.choice(rng.uniform(0.0, 2.0 * np.pi, 5), values.size)
    else:
        phases = rng.uniform(0.0, 2.0 * np.pi, values.size)
    cell_phase, bin_of_cell, _, bin_lo = _binned_cells(values, phases, bin_width)
    cells = _CellMap(cell_phase, bin_of_cell, bin_lo, bin_width, cutoff, eta)
    g = rng.normal(size=(cutoff, cutoff)) + 1j * rng.normal(size=(cutoff, cutoff))
    rho = g @ g.conj().T + 1e-3 * np.eye(cutoff)  # full rank, so every p_j > 0
    rho = (rho + rho.conj().T) / (2.0 * np.trace(rho).real)
    weights = rng.uniform(0.1, 10.0, cell_phase.size)
    r = cells.adjoint(weights)
    assert np.array_equal(r, r.conj().T)
    assert math.isclose(weights @ cells.probs(rho), np.trace(r @ rho).real, rel_tol=1e-12)


def sample_density(rho, n, seed):
    """``n`` quadratures of ``rho`` at uniform random phases: each inverts the
    cumulative harmonic table at its phase on a 1025-point grid over [-8, 8]."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    grid = np.linspace(-8.0, 8.0, 1025)
    table, order, shift = _cumulative_harmonics(rho, grid)
    cdf = _harmonic_factors(phases, order, shift) @ table.T  # (n, grid)
    target = rng.random(n) * cdf[:, -1]
    pos = np.minimum((cdf <= target[:, None]).sum(axis=1) - 1, grid.size - 2)
    lo, hi = cdf[np.arange(n), pos], cdf[np.arange(n), pos + 1]
    frac = np.clip((target - lo) / (hi - lo), 0.0, 1.0)
    return QuadratureBatch(values=grid[pos] + frac * (grid[1] - grid[0]), phases=phases)


def plain_rrr_loglik(batch, cutoff, steps=3000):
    """The best log-likelihood of a long plain R rho R run: a lower bound on ll*."""
    history, _, _ = dense_rrr_reference(batch, cutoff, 0.1, steps)
    return float(history.max())


def check_certified(result, ll_ref):
    eigenvalues = np.linalg.eigvalsh(result.rho.elements)
    assert eigenvalues.min() >= -1e-12
    assert abs(np.trace(result.rho.elements).real - 1.0) <= 1e-12
    assert np.all(np.diff(result.history) >= -1e-10 * np.abs(result.history[:-1]))
    assert result.gap_bound >= 0.0
    assert result.gap_bound >= ll_ref - result.history[-1]


@settings(max_examples=12, deadline=None)
@given(
    dim=st.integers(2, 6),
    rank=st.integers(1, 6),
    n=st.integers(2000, 5000),
    seed=st.integers(0, 2**32 - 1),
)
def test_mle_is_a_state_whose_gap_bound_holds(dim, rank, n, seed):
    # a random state of any rank up to dim, so the ML state may sit on the
    # boundary; the bound must cover the gap to a long plain R rho R run
    rng = np.random.default_rng(seed)
    shape = (dim, min(rank, dim))
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    truth = DensityMatrix.from_array(g @ g.conj().T / np.sum(np.abs(g) ** 2))
    batch = sample_density(truth, n, seed)
    result = mle_reconstruct(batch, dim)
    check_certified(result, plain_rrr_loglik(batch, dim))


def cli_coherent_1k_batch(seed):
    """The 1,000-sample random-phase coherent batch of the tomography CLI at ``seed``."""
    phases = _seeded_rng(seed, 0).uniform(0.0, 2.0 * np.pi, 1000)
    return sample_quadratures(
        StateModel.coherent(0.86), phases, 1000, _child_seed(seed, 1), cutoff=10
    )


@pytest.mark.parametrize("seed", [28, 38])
def test_boundary_state_reaches_the_long_run_likelihood(seed):
    # these seeds' batches have a rank-3 ML state at cutoff 10; the extrapolated
    # steps must not stall below the likelihood a long plain run reaches (steps
    # from eigenvalue-clipped states stalled 1.5e-3 and 1.4e-2 nats below it)
    batch = cli_coherent_1k_batch(seed)
    result = mle_reconstruct(batch, 10)
    ll_ref = plain_rrr_loglik(batch, 10)
    check_certified(result, ll_ref)
    assert result.history[-1] >= ll_ref - 1e-3


@pytest.mark.parametrize("seed, uncapped", [(28, 36), (38, 56)])
def test_max_iter_counts_steps_taken(seed, uncapped):
    # these runs restart, and an extrapolated step that is not taken spends
    # none of the budget: every cap stops after that many steps, on the
    # uncapped run's own trail
    batch = cli_coherent_1k_batch(seed)
    full = mle_reconstruct(batch, 10)
    assert full.iterations == uncapped
    for m in range(uncapped):
        capped = mle_reconstruct(batch, 10, max_iter=m)
        assert capped.iterations == m
        assert np.array_equal(capped.history, full.history[: m + 1])


def test_quadrature_rule_is_leggauss_5():
    nodes, weights = np.polynomial.legendre.leggauss(5)
    assert np.array_equal(_QUAD_NODES, nodes)
    assert np.array_equal(_QUAD_WEIGHTS, weights)


@settings(max_examples=60, deadline=None)
@given(
    cutoff=st.integers(2, 20),
    bin_width=st.floats(0.01, 2.0 * SAMPLE_GRID_HALFSPAN),
    eta=st.floats(0.0, 1.0, exclude_min=True),
)
def test_bin_operators_form_a_povm(cutoff, bin_width, eta):
    # bins of an accepted width tiling [-13, 13], past which no wavefunction
    # below cutoff 20 has weight; one 5-point rule over a bin of width 1 is
    # 1.6e-5 from the identity at cutoff 10, and over width 50 has <n|O|n> 1.9.
    # The loss adjoint is unital and positive, so a lossy POVM is one too
    TomographyOptions(cutoff=cutoff, bin_width=bin_width, eta=eta)
    bin_lo = np.arange(math.floor(-13.0 / bin_width), math.ceil(13.0 / bin_width)) * bin_width
    ops = _bin_operators(bin_lo, bin_width, cutoff, eta)
    eigenvalues = np.linalg.eigvalsh(ops)
    assert eigenvalues.min() >= -1e-12
    assert eigenvalues.max() <= 1.0 + 1e-12
    assert np.max(np.abs(ops.sum(axis=0) - np.eye(cutoff))) <= 1e-9


AXIS_VALUES = [-0.0, 1e-300, 1 / 3, 2.0**60, -5.0, 0.1 + 0.2]


@pytest.mark.parametrize(
    "x_axis, p_axis",
    [
        (AXIS_VALUES, AXIS_VALUES[:4]),
        (AXIS_VALUES[2:], AXIS_VALUES),
        ([], AXIS_VALUES),
        (AXIS_VALUES, []),
    ],
)
def test_wigner_csv_matches_float_meshgrid_rows(tmp_path, x_axis, p_axis):
    # the writer formats each axis value once; its bytes must equal those of
    # formatting every cell of the float meshgrid
    x_axis, p_axis = np.array(x_axis, dtype=float), np.array(p_axis, dtype=float)
    values = np.random.default_rng(3).normal(size=(x_axis.size, p_axis.size)) / 7.0
    path = tmp_path / "wigner.csv"
    write_wigner_csv(WignerGrid(x_axis=x_axis, p_axis=p_axis, values=values), path)
    x, p = np.meshgrid(x_axis, p_axis, indexing="ij")
    rows = zip(x.ravel().tolist(), p.ravel().tolist(), values.ravel().tolist())
    expected = "x,p,w\n" + "".join("%s,%s,%s\n" % row for row in rows)
    assert path.read_bytes() == expected.encode()
