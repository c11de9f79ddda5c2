"""Iterative maximum-likelihood state reconstruction from quadrature samples.

The reconstruction bins samples into (phase, quadrature) cells, builds one POVM
element per occupied cell (the projector density integrated over the cell,
composed with the detection-loss adjoint), and iterates ``rho <- N[R rho R]``
with ``R = sum_j (f_j / p_j) Pi_j``, one step per turn from an extrapolated point
or from ``rho``, until a certified likelihood-gap bound is small or the gain stalls.
:class:`_CellMap` maps ``rho`` to the cell probabilities ``p_j``; its transpose gives ``R``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extraction import QuadratureBatch, write_csv
from .states import (
    SAMPLE_GRID_HALFSPAN,
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
_QUAD_PANEL = 0.3  # widest sub-interval of a bin one rule spans: a POVM to 2e-15 at cutoff 20
GAP_TOL = 1e-3  # nats: the reconstruction stops once its likelihood-gap bound is this small


@dataclass(frozen=True)
class MleResult:
    """Reconstruction output: the state, the likelihood trail, a flag and a bound.

    ``history`` holds the starting log-likelihood and one per step taken.
    ``converged`` is true when a stopping test held within ``max_iter``
    steps: the gap bound fell to ``GAP_TOL``, a plain step's relative gain
    to ``tol``, or a plain step would lower the log-likelihood and was not
    taken.  ``gap_bound`` (nats) bounds how far the final log-likelihood
    lies below the maximum over all states: ``ll* - history[-1] <= gap_bound``.
    """

    rho: DensityMatrix
    history: np.ndarray
    converged: bool
    gap_bound: float

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
    one rule per equal sub-interval of at most ``_QUAD_PANEL``, pre-composed
    with the loss adjoint at detection efficiency ``eta``."""
    panels = int(np.ceil(bin_width / _QUAD_PANEL))
    h = bin_width / panels
    nodes = np.arange(panels)[:, None] * h + (_QUAD_NODES + 1.0) * (h / 2.0)
    xq = bin_lo[:, None] + nodes.ravel()
    wq = np.tile(_QUAD_WEIGHTS * (h / 2.0), panels)
    psi = fock_wavefunctions(cutoff, xq.ravel()).reshape(cutoff, bin_lo.size, -1)
    return apply_loss_adjoint(np.einsum("mbq,nbq,q->bmn", psi, psi, wq), eta)


class _CellMap:
    """The linear map from a state to its cell probabilities, and its transpose.

    Cells come grouped by quadrature bin, so each bin is a contiguous
    segment.  A cell's probability is ``p = coef . A[bin]``: ``coef`` holds
    the cell's ``K = 2 dim - 1`` columns ``cos(order * theta + shift)`` of
    the real harmonic layout of :mod:`pulsequad.states`, and for column
    ``k`` of order ``d``, ``A[b, k] = w_k Re[exp(-i shift_k) sum_m O_b[m+d, m]
    rho[m, m+d]]`` (the Re part at shift 0, the Im part at shift pi/2),
    gathered from ``rho`` through one index map (the fold) once per
    evaluation.  ``R`` is the transpose of that product: one segment sum of
    ``weights * coef`` per bin and column, mapped through the bin operators
    ``O_b`` and scattered back through the same map (the unfold).
    """

    def __init__(self, cell_phase, bin_of_cell, bin_lo, bin_width, dim, eta):
        size = dim * dim
        self.ops = _bin_operators(bin_lo, bin_width, dim, eta).reshape(bin_lo.size, size)
        order, shift, weight = _harmonic_layout(dim)
        # entry m of column k (order d) pairs rho[m, m+d] (Re at shift 0, Im at pi/2) with
        # O_b[m+d, m]: the fold takes rho's float view to the weighted (K, dim*dim) rows
        k, m = np.nonzero(np.arange(dim) < dim - order[:, None])
        d = order[k].astype(np.int64)
        part = (shift[k] != 0).astype(np.int64)
        row = (m + d) * dim + m
        self.fold = np.zeros((order.size, size), dtype=np.int64)
        self.fold[k, row] = 2 * (m * dim + m + d) + part
        self.fold_weight = np.zeros((order.size, size))
        self.fold_weight[k, row] = weight[k]
        # and the unfold reads R's (dim, 2 dim) float view back from the product's
        # transpose: R[m+d, m] = re - i im, R[m, m+d] its conjugate, diagonal Im 0
        below, above = (m + d, 2 * m + part), (m, 2 * (m + d) + part)
        self.unfold = np.zeros((dim, 2 * dim), dtype=np.int64)
        self.unfold[below] = self.unfold[above] = k * size + row
        self.unfold_sign = np.zeros((dim, 2 * dim))
        self.unfold_sign[above] = 1.0
        self.unfold_sign[below] = 1.0 - 2.0 * part
        # _binned_cells keeps occupied bins only, so no segment of adjoint's reduceat is empty
        self.cells_per_bin = np.bincount(bin_of_cell, minlength=bin_lo.size)
        self.bin_starts = np.cumsum(self.cells_per_bin) - self.cells_per_bin
        self.coef = np.ascontiguousarray(_harmonic_factors(cell_phase, order, shift).T)

    def probs(self, rho):
        """Each cell's ``tr(rho Pi_j)``, floored at 1e-300; reads rho's upper triangle."""
        per_bin = (rho.view(float).ravel()[self.fold] * self.fold_weight) @ self.ops.T
        p = np.einsum("kj,kj->j", self.coef, np.repeat(per_bin, self.cells_per_bin, axis=1))
        return np.maximum(p, 1e-300)

    def adjoint(self, weights):
        """``R = sum_j weights_j Pi_j``, a Hermitian matrix."""
        s = np.add.reduceat(self.coef * weights, self.bin_starts, axis=1)
        return ((s @ self.ops).ravel()[self.unfold] * self.unfold_sign).view(complex)


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
    returned state is corrected for that loss.

    The iterate is kept as a factor ``L`` with ``rho = L L^dagger`` (trace
    one), so the ``R rho R`` step is ``L <- R L``.  From the third step on,
    each step starts from the extrapolated factor ``L + beta (L - L_prev)``,
    ``beta = (j - 1) / (j + 2)`` at the ``j``-th step since the last
    (re)start (Nesterov's sequence), whose state is again a state: no
    eigenvalue is clipped to zero, where no later ``R rho R`` step could
    regrow it.  Each turn forms one ``R`` and one candidate, from that
    extrapolated factor or, in a plain step, from ``L`` itself.  An
    extrapolated step that would gain no more than ``tol`` times the
    log-likelihood's magnitude is not taken, and the iteration restarts with
    two plain steps; ``max_iter`` counts the steps taken.

    Every ``R`` formed at a state ``sigma`` bounds the maximum likelihood,
    ``ll* <= ll(sigma) + N (lambda_max(R) - 1)`` with ``N`` the sample count
    (Glancy, Knill & Girard, New J. Phys. 14, 095017 (2012)); the least
    such bound less the current log-likelihood is ``gap_bound``.  The loop
    stops at the first of three tests: ``gap_bound <= GAP_TOL``, a plain
    step that gains at most ``tol`` times the log-likelihood's magnitude, or
    a plain step that would lower it by more than ``1e-12 (|ll| + 1)``, which
    is not taken, so the history never decreases.
    """
    if batch.phases is None:
        raise ValueError("reconstruction requires per-sample LO phases")
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    if not 0 < bin_width <= 2 * SAMPLE_GRID_HALFSPAN:  # a bin costs a rule per 0.3 of it
        raise ValueError(f"bin_width must lie in (0, {2 * SAMPLE_GRID_HALFSPAN:g}]")
    if not 0.0 < eta <= 1.0:
        raise ValueError("detection efficiency must lie in (0, 1]")
    if not 0 <= max_iter < math.inf:
        raise ValueError("max_iter must be finite and nonnegative")
    # a negative or NaN tol would accept steps that lower the likelihood, an infinite
    # one would stop the loop at its first plain step
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be finite and nonnegative")
    if len(batch) == 0:
        raise ValueError("batch is empty")
    if not np.max(np.abs(batch.values)) < 2**53 * bin_width:  # bin indices stay exact integers
        raise ValueError("bin_width is too narrow for the batch's largest quadrature")

    dim = int(cutoff)
    cell_phase, bin_of_cell, counts, bin_lo = _binned_cells(
        batch.values, batch.phases, bin_width
    )
    cells = _CellMap(cell_phase, bin_of_cell, bin_lo, bin_width, dim, eta)
    total = counts.sum()
    freqs = counts / total

    def evaluate(factor):
        """The normalized factor, its state, cell probabilities and log-likelihood."""
        # the state of a factor, rho = L L^dagger / tr, is a state for any L;
        # cells.probs reads only its upper triangle, and DensityMatrix.from_array
        # makes the returned one exactly Hermitian
        rho = factor @ factor.conj().T
        scale = np.trace(rho).real
        rho = rho / scale
        p = cells.probs(rho)
        return factor / math.sqrt(scale), rho, p, float(counts @ np.log(p))

    factor, rho, p, ll = evaluate(np.eye(dim, dtype=complex))
    factor_prev = factor
    history = [ll]
    converged = False
    best_bound = math.inf
    momentum = 0

    while len(history) <= max_iter:
        beta = (momentum - 1) / (momentum + 2)  # <= 0 at the first two steps after a (re)start
        momentum += 1
        if beta > 0:
            factor_y, _, p_y, ll_y = evaluate((1 + beta) * factor - beta * factor_prev)
        else:
            factor_y, p_y, ll_y = factor, p, ll
        r_op = cells.adjoint(freqs / p_y)
        # ll* <= ll(sigma) + N (lambda_max(R(sigma)) - 1) at any state sigma
        best_bound = min(best_bound, ll_y + total * (np.linalg.eigvalsh(r_op)[-1] - 1.0))
        factor_new, cand, p_new, ll_new = evaluate(r_op @ factor_y)
        gain = ll_new - ll
        if beta > 0 and gain <= tol * abs(ll):  # not taken: only plain steps stall the loop
            momentum = 0  # restart: two plain steps before the next extrapolation
            continue
        if ll_new < ll - 1e-12 * (abs(ll) + 1.0):  # a plain step that lowers ll: stalled
            converged = True
            break
        factor_prev, factor = factor, factor_new
        rho, p, ll = cand, p_new, ll_new
        history.append(ll)
        if best_bound - ll <= GAP_TOL or gain <= tol * abs(ll):
            converged = True
            break

    return MleResult(
        rho=DensityMatrix.from_array(rho),
        history=np.asarray(history),
        converged=converged,
        gap_bound=float(best_bound - ll),
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
