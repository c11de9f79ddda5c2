"""Iterative maximum-likelihood state reconstruction from quadrature samples.

The reconstruction bins samples into (phase, quadrature) cells, builds one POVM
element per occupied cell (the projector density integrated over the cell,
composed with the detection-loss adjoint), and iterates ``rho <- N[R rho R]``
with ``R = sum_j (f_j / p_j) Pi_j`` until the likelihood gain stalls.

A cell's phase enters only through the real harmonic layout that the
sampler also uses (:mod:`pulsequad.states`): ``K = 2 dim - 1`` columns
``cos(order * theta + shift)``.  So ``p = coef . A[bin]``, with ``coef``
the cell's columns and ``A`` a real per-bin matrix formed from ``rho`` once
per evaluation, and ``R`` comes from one segment sum of ``weights * coef``
per bin over the cells, which come grouped by bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extraction import QuadratureBatch, write_csv
from .states import (
    DensityMatrix,
    _harmonic_factors,
    _harmonic_layout,
    apply_loss_adjoint,
    fock_wavefunctions,
)

__all__ = [
    "MleResult",
    "mle_reconstruct",
    "write_density_matrix_csv",
    "write_wigner_csv",
    "write_photon_statistics_csv",
]

# 5-point Gauss-Legendre rule on [-1, 1], bit for bit what
# np.polynomial.legendre.leggauss(5) returns; written out so that no run
# imports numpy.polynomial (8 modules, about 4.5 ms and 1 MB)
_QUAD_NODES = np.array(
    [-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831, 0.906179845938664]
)
_QUAD_WEIGHTS = np.array(
    [0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
     0.4786286704993663, 0.23692688505618928]
)


@dataclass(frozen=True)
class MleResult:
    """Reconstruction output: the state, the likelihood trail, and a flag."""

    rho: DensityMatrix
    history: np.ndarray
    converged: bool

    @property
    def iterations(self) -> int:
        return self.history.size - 1


def _binned_cells(values, phases, bin_width):
    """Occupied (phase, bin) cells, grouped by bin, phases ascending in each bin."""
    occupied, bin_of_sample = np.unique(
        np.floor(values / bin_width).astype(np.int64), return_inverse=True
    )
    uph, phidx = np.unique(phases, return_inverse=True)
    # packed bin-major, so np.unique sorts the cells by bin, then by phase; and
    # over occupied bins, not the full bin range: key < n**2 cannot overflow
    key = bin_of_sample.astype(np.int64) * uph.size + phidx
    ckey, counts = np.unique(key, return_counts=True)
    cell_phase = uph[ckey % uph.size]
    bin_of_cell = ckey // uph.size
    bin_lo = occupied * bin_width
    return cell_phase, bin_of_cell, counts.astype(float), bin_lo


def _bin_operators(bin_lo: np.ndarray, bin_width: float, cutoff: int, eta: float):
    """POVM blocks: projector densities integrated over each quadrature bin,
    pre-composed with the loss adjoint at detection efficiency ``eta``."""
    xq = bin_lo[:, None] + (_QUAD_NODES[None, :] + 1.0) * (bin_width / 2.0)
    wq = _QUAD_WEIGHTS * (bin_width / 2.0)
    psi = fock_wavefunctions(cutoff, xq.ravel()).reshape(cutoff, bin_lo.size, -1)
    return apply_loss_adjoint(np.einsum("mbq,nbq,q->bmn", psi, psi, wq), eta)


def mle_reconstruct(
    batch: QuadratureBatch,
    cutoff: int,
    eta: float = 1.0,
    bin_width: float = 0.1,
    tol: float = 1e-9,
    max_iter: int = 2000,
) -> MleResult:
    """Maximum-likelihood reconstruction from a phase-tagged batch.

    ``eta`` is the detection efficiency absorbed into the POVM, so the
    returned state is corrected for that loss.  The recorded
    log-likelihood history is non-decreasing; if a full ``R rho R`` step
    would decrease it, the step is blended toward the identity until it
    does not.

    Cells come grouped by quadrature bin, so each bin is a contiguous
    segment.  A cell's probability is ``p = coef . A[bin]``: ``coef``
    holds the cell's ``cos(order * theta + shift)`` columns of the real
    harmonic layout of :mod:`pulsequad.states`, and for column ``k`` of
    order ``d``, ``A[b, k] = w_k Re[exp(-i shift_k) sum_m O_b[m+d, m]
    rho[m, m+d]]`` (the Re part at shift 0, the Im part at shift pi/2).
    ``R`` is the transpose of that product: one segment sum of
    ``weights * coef`` per bin and column, mapped through the bin
    operators ``O_b``.
    """
    if batch.phases is None:
        raise ValueError("reconstruction requires per-sample LO phases")
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if not 0.0 < eta <= 1.0:
        raise ValueError("detection efficiency must lie in (0, 1]")
    if len(batch) == 0:
        raise ValueError("batch is empty")

    dim = int(cutoff)
    cell_phase, bin_of_cell, counts, bin_lo = _binned_cells(
        batch.values, batch.phases, bin_width
    )
    ops = _bin_operators(bin_lo, bin_width, dim, eta).reshape(bin_lo.size, dim * dim)
    order, shift, weight = _harmonic_layout(dim)
    # column k of order d reads Re[exp(-i shift_k) sum_m O_b[m+d, m] rho[m, m+d]]:
    # fold[k] holds exp(-i shift_k) on the d-th diagonal below the main one
    unit = np.where(shift == 0.0, 1.0, -1j)
    fold = np.array([u * np.eye(dim, k=-int(d)) for d, u in zip(order, unit)])
    # every bin holds a cell (_binned_cells keeps occupied bins only), so no
    # segment of the reduceat below is empty
    cells_per_bin = np.bincount(bin_of_cell, minlength=bin_lo.size)
    bin_starts = np.cumsum(cells_per_bin) - cells_per_bin
    coef = np.ascontiguousarray(_harmonic_factors(cell_phase, order, shift).T)
    freqs = counts / counts.sum()

    def cell_probs(rho):
        per_bin = weight[:, None] * ((fold * rho.T).real.reshape(order.size, -1) @ ops.T)
        p = np.einsum("kj,kj->j", coef, np.repeat(per_bin, cells_per_bin, axis=1))
        return np.maximum(p, 1e-300)

    def iteration_operator(weights):
        # the transpose of cell_probs: segment sums of weights * coef per bin,
        # through the bin operators, into R's lower triangle; the rest is Hermitian
        s = np.add.reduceat(coef * weights, bin_starts, axis=1)
        lower = np.einsum("kmn,kmn->mn", (s @ ops).reshape(fold.shape), fold)
        return lower + np.tril(lower, -1).conj().T

    rho = np.eye(dim, dtype=complex) / dim
    p = cell_probs(rho)
    ll = float(counts @ np.log(p))
    history = [ll]
    converged = False
    eye = np.eye(dim, dtype=complex)

    for _ in range(max_iter):
        r_op = iteration_operator(freqs / p)
        mean_eig = np.trace(r_op).real / dim
        lam = 1.0
        for _ in range(60):
            r_lam = r_op if lam == 1.0 else (1 - lam) * mean_eig * eye + lam * r_op
            cand = r_lam @ rho @ r_lam
            cand = 0.5 * (cand + cand.conj().T)
            cand /= np.trace(cand).real
            p_new = cell_probs(cand)
            ll_new = float(counts @ np.log(p_new))
            if ll_new >= ll - 1e-12 * (abs(ll) + 1.0):
                break
            lam *= 0.5
        gain = ll_new - ll
        rho, p, ll = cand, p_new, ll_new
        history.append(ll)
        if gain <= tol * abs(ll):
            converged = True
            break

    return MleResult(
        rho=DensityMatrix.from_array(rho),
        history=np.asarray(history),
        converged=converged,
    )


def write_density_matrix_csv(rho: DensityMatrix, path) -> None:
    """Write a density matrix as ``m,n,re,im`` rows."""
    m, n = np.indices((rho.dim, rho.dim))
    elements = rho.elements.ravel()
    write_csv(path, "m,n,re,im", (m.ravel(), n.ravel(), elements.real, elements.imag))


def write_wigner_csv(grid, path) -> None:
    """Write a Wigner grid as ``x,p,w`` rows (x outer loop).

    Each axis value is formatted once, as :func:`write_csv` would format it,
    and the grid of those strings is written as is: only ``w`` is formatted
    per row.
    """
    x, p = np.meshgrid(*(_formatted(a) for a in (grid.x_axis, grid.p_axis)), indexing="ij")
    write_csv(path, "x,p,w", (x.ravel(), p.ravel(), grid.values.ravel()))


def _formatted(axis) -> np.ndarray:
    return np.array(["%s" % v for v in axis.tolist()], dtype=object)


def write_photon_statistics_csv(stats, path) -> None:
    """Write photon-number probabilities as ``n,p`` rows."""
    write_csv(path, "n,p", (np.arange(stats.probs.size), stats.probs))
