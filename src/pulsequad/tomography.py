"""Iterative maximum-likelihood state reconstruction from quadrature samples.

The reconstruction bins samples into (phase, quadrature) cells, builds one POVM
element per occupied cell (the projector density integrated over the cell,
composed with the detection-loss adjoint), and iterates ``rho <- N[R rho R]``
with ``R = sum_j (f_j / p_j) Pi_j`` until the likelihood gain stalls.
``sample_quadratures`` lives in :mod:`pulsequad.states` and is re-exported
here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .extraction import QuadratureBatch, write_csv
from .states import (
    DensityMatrix,
    apply_loss_adjoint,
    fock_wavefunctions,
    sample_quadratures,
)

__all__ = [
    "MleResult",
    "sample_quadratures",
    "mle_reconstruct",
    "symmetry_offset_check",
    "write_density_matrix_csv",
    "write_wigner_csv",
    "write_photon_statistics_csv",
]

_QUAD_NODES, _QUAD_WEIGHTS = np.polynomial.legendre.leggauss(5)


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
    occupied, bin_of_sample = np.unique(
        np.floor(values / bin_width).astype(np.int64), return_inverse=True
    )
    uph, phidx = np.unique(phases, return_inverse=True)
    # packed over occupied bins, not the full bin range: key < n**2 cannot overflow
    key = phidx.astype(np.int64) * occupied.size + bin_of_sample
    ckey, counts = np.unique(key, return_counts=True)
    cell_phase = uph[ckey // occupied.size]
    bin_of_cell = ckey % occupied.size
    bin_lo = occupied * bin_width
    return cell_phase, bin_of_cell, counts.astype(float), bin_lo


def _bin_operators(bin_lo: np.ndarray, bin_width: float, cutoff: int, eta: float):
    """POVM blocks: projector densities integrated over each quadrature bin,
    pre-composed with the loss adjoint at detection efficiency ``eta``."""
    xq = bin_lo[:, None] + (_QUAD_NODES[None, :] + 1.0) * (bin_width / 2.0)
    wq = _QUAD_WEIGHTS * (bin_width / 2.0)
    psi = fock_wavefunctions(cutoff, xq.ravel()).reshape(cutoff, bin_lo.size, -1)
    ops = np.einsum("mbq,nbq,q->bmn", psi, psi, wq)
    if eta < 1.0:
        ops = np.stack([apply_loss_adjoint(op, eta) for op in ops])
    return ops


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
    ops = _bin_operators(bin_lo, bin_width, dim, eta)
    op_diags = [np.diagonal(ops, offset=-d, axis1=1, axis2=2) for d in range(dim)]
    phase_fac = np.exp(1j * np.outer(cell_phase, np.arange(dim)))
    scatter = scipy.sparse.csr_matrix(
        (np.ones(cell_phase.size), (bin_of_cell, np.arange(cell_phase.size))),
        shape=(bin_lo.size, cell_phase.size),
    )
    freqs = counts / counts.sum()

    def cell_probs(rho):
        q = np.empty((dim, bin_lo.size), dtype=complex)
        for d in range(dim):
            q[d] = op_diags[d] @ np.diagonal(rho, offset=d)
        qg = q[:, bin_of_cell]
        p = qg[0].real + 2.0 * np.sum(phase_fac[:, 1:].T * qg[1:], axis=0).real
        return np.maximum(p, 1e-300)

    def iteration_operator(weights):
        s = scatter @ (weights[:, None] * phase_fac)
        r = np.zeros((dim, dim), dtype=complex)
        for d in range(dim):
            diag = s[:, d] @ op_diags[d]
            idx = np.arange(dim - d)
            r[idx + d, idx] = diag
            if d > 0:
                r[idx, idx + d] = diag.conj()
        return r

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


def symmetry_offset_check(
    batch: QuadratureBatch, phase_tol: float = 0.05, min_samples: int = 100
) -> tuple[float, float]:
    """Estimate a calibration offset from the X -> -X symmetry of opposite phases.

    The quadrature densities at phases theta and theta + pi mirror each
    other, so the half-sum of the two group means estimates a common
    offset.  Returns ``(offset, standard_error)``; raises if no usable
    phase pairs exist.
    """
    if batch.phases is None:
        raise ValueError("offset check requires per-sample LO phases")
    uph, inv = np.unique(batch.phases, return_inverse=True)
    stats = []
    for g, theta in enumerate(uph):
        vals = batch.values[inv == g]
        if vals.size >= min_samples:
            stats.append((theta, vals.mean(), vals.var(ddof=1) / vals.size))
    estimates = []
    variances = []
    for i in range(len(stats)):
        for j in range(i + 1, len(stats)):
            sep = (stats[j][0] - stats[i][0]) % (2.0 * np.pi)
            if abs(sep - np.pi) <= phase_tol:
                estimates.append(0.5 * (stats[i][1] + stats[j][1]))
                variances.append(0.25 * (stats[i][2] + stats[j][2]))
    if not estimates:
        raise ValueError("no phase pairs separated by pi within tolerance")
    offset = float(np.mean(estimates))
    sigma = float(np.sqrt(np.sum(variances)) / len(estimates))
    return offset, sigma


def write_density_matrix_csv(rho: DensityMatrix, path) -> None:
    """Write a density matrix as ``m,n,re,im`` rows."""
    m, n = np.indices((rho.dim, rho.dim))
    elements = rho.elements.ravel()
    write_csv(path, "m,n,re,im", (m.ravel(), n.ravel(), elements.real, elements.imag))


def write_wigner_csv(grid, path) -> None:
    """Write a Wigner grid as ``x,p,w`` rows (x outer loop)."""
    x, p = np.meshgrid(grid.x_axis, grid.p_axis, indexing="ij")
    write_csv(path, "x,p,w", (x.ravel(), p.ravel(), grid.values.ravel()))


def write_photon_statistics_csv(stats, path) -> None:
    """Write photon-number probabilities as ``n,p`` rows."""
    write_csv(path, "n,p", (np.arange(stats.probs.size), stats.probs))
