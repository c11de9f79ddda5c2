"""Truncated-Fock-basis quantum states and their quadrature statistics.

Conventions used throughout: the quadrature operator at local-oscillator
phase ``theta`` is ``X_theta = X cos(theta) + P sin(theta)`` with vacuum
variance 1/2, so a coherent state ``alpha`` has mean quadrature
``sqrt(2)*|alpha|*cos(theta - arg(alpha))``.  Wigner functions are
normalized to unit integral over the (X, P) plane, which puts the vacuum
at ``W(0, 0) = 1/pi``.

Quadrature sampling uses the number-basis harmonic decomposition of the
density (Lvovsky & Raymer, RMP 81, 299 (2009), Sec. IV):
``p(x|theta) = sum_d w_d Re[exp(i d theta) Q_d(x)]`` with
``Q_d(x) = sum_m rho_{m,m+d} psi_m(x) psi_{m+d}(x)``, ``w_0 = 1`` and
``w_d = 2``.  The trapezoid CDF is linear in the density, so one table of
cumulative harmonics serves every phase, and each sample costs
O(R log G) for R harmonic columns on a grid of G points.  A phase-free
table (diagonal ``rho``: vacuum, Fock, lossy Fock and their mixtures) has
one column, which is inverted through a guide table over its range (Chen &
Asau, AIIE Trans. 6, 163 (1974)) in O(1) expected time per sample and kept
for the next call with the same state and cutoff.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import partial

import numpy as np

from .extraction import QuadratureBatch

__all__ = [
    "DensityMatrix",
    "StateModel",
    "WignerGrid",
    "PhotonStatistics",
    "fock_wavefunctions",
    "coherent_amplitudes",
    "pure_state_vector",
    "sample_quadratures",
    "loss_channel",
    "apply_loss_adjoint",
    "state_density_matrix",
    "wigner",
    "photon_statistics",
    "fidelity_pure",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = -1e-8

DEFAULT_CUTOFF = 10  # Fock cutoff a state is sampled at unless one is given
# the most norm a cutoff may discard from a coherent state, which keeps the
# renormalized state at fidelity 0.999 or more with the one named; golden
# trace-gaussian (alpha 1.5 at cutoff 10) discards 1.21e-4.  1e-3 refuses alpha
# above 1.05, 1.72 and 2.99 at cutoffs 6, 10 and 20
TRUNCATION_TOL = 1e-3

SAMPLE_GRID_HALFSPAN = 8.0
# largest Fock cutoff the grid holds: level 19 loses 6.6e-8 of its mass
# beyond +-8, level 20 2.9e-7 and level 21 1.2e-6
SAMPLE_GRID_MAX_CUTOFF = 20
SAMPLE_GRID_POINTS = 2**14  # a power of two: bisection steps 2**13 .. 1 reach every index
SAMPLE_TABLE_BLOCK = 2**11  # grid points per wavefunction block of a table build
SAMPLE_BLOCK_ENTRIES = 2**12  # samples x table columns inverted at a time: bounds temporaries
SAMPLE_GUIDE_BUCKETS = 2**14  # guide entries over the range of a phase-free CDF
SAMPLE_GUIDE_STEPS = 2  # steps forward from a guide entry before searchsorted takes over

# (state, cutoff) -> read-only (column, guide) of a phase-free sampler table;
# emptied when full.  Threads that build the same entry build identical ones.
_PHASE_FREE_TABLES: dict = {}
_PHASE_FREE_LIMIT = 8


def _check_kind_fields(obj, what: str, error, common=(), key="kind") -> None:
    """Raise ``error`` unless the kind ``getattr(obj, key)`` is a key of
    ``obj.KIND_FIELDS`` and each field of ``obj`` that its kind does not read
    keeps its default, or its ``default_factory``'s value."""
    kind = getattr(obj, key)
    if kind not in obj.KIND_FIELDS:
        raise error(f"unknown {what} kind {kind!r}")
    reads = (key, *common, *obj.KIND_FIELDS[kind])
    unread = [f for f in fields(obj) if f.name not in reads]
    defaults = [f.default if f.default_factory is MISSING else f.default_factory() for f in unread]
    foreign = [f.name for f, default in zip(unread, defaults) if getattr(obj, f.name) != default]
    if foreign:
        raise error(f"a {kind} {what} takes no {', '.join(foreign)}")


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix in the number basis, truncated at ``dim`` photons.

    The constructor enforces Hermiticity, unit trace and positive
    semidefiniteness (up to small numerical tolerances); use
    :meth:`from_array` to clean up an almost-valid matrix first.
    """

    elements: np.ndarray

    def __post_init__(self):
        arr = np.array(self.elements, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("density matrix must be a square matrix")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("density matrix contains non-finite entries")
        if np.max(np.abs(arr - arr.conj().T)) >= HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(arr.trace().real - 1.0) >= TRACE_TOL:
            raise ValueError("density matrix trace differs from one")
        if np.linalg.eigvalsh(arr).min() <= EIGENVALUE_TOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)

    @property
    def dim(self) -> int:
        return self.elements.shape[0]

    @classmethod
    def from_array(cls, arr) -> "DensityMatrix":
        """Hermitize and renormalize ``arr`` before validating it."""
        a = np.asarray(arr, dtype=complex)
        a = 0.5 * (a + a.conj().T)
        tr = a.trace().real
        if tr <= 0:
            raise ValueError("matrix trace must be positive")
        return cls(a / tr)


@dataclass(frozen=True)
class StateModel:
    """Parametric description of a signal state plus a loss channel.

    ``kind`` is one of ``vacuum``, ``coherent``, ``fock`` or ``mixture``, and
    ``KIND_FIELDS`` names the fields each kind reads; a field that only
    another kind reads must keep its default, or the constructor raises
    ``ValueError``.  ``efficiency`` is a photon-loss channel applied when the
    state is realized; loss maps the vacuum to itself, so a vacuum takes none.
    """

    KIND_FIELDS = {
        "vacuum": (),
        "coherent": ("alpha", "efficiency"),
        "fock": ("n", "efficiency"),
        "mixture": ("weights", "components", "efficiency"),
    }

    kind: str = "vacuum"
    alpha: complex = 0j
    n: int = 0
    weights: tuple[float, ...] = ()
    components: tuple[StateModel, ...] = ()
    efficiency: float = 1.0

    def __post_init__(self):
        # tuples keep a state hashable: the sampler keys its tables on it
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "components", tuple(self.components))
        _check_kind_fields(self, "state", ValueError)
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if self.kind == "fock":
            if not (0 <= self.n < math.inf and self.n == int(self.n)):
                raise ValueError("fock photon number must be a nonnegative integer")
            object.__setattr__(self, "n", int(self.n))  # an index into the number basis
        if self.kind == "mixture":
            w = np.asarray(self.weights, dtype=float)
            if len(self.components) != w.size or w.size == 0:
                raise ValueError("mixture needs matching weights and components")
            if np.any(w < 0) or not abs(w.sum() - 1.0) <= 1e-9:
                raise ValueError("mixture weights must be nonnegative and sum to one")

    @classmethod
    def vacuum(cls) -> "StateModel":
        return cls(kind="vacuum")

    @classmethod
    def coherent(cls, alpha, efficiency: float = 1.0) -> "StateModel":
        return cls(kind="coherent", alpha=complex(alpha), efficiency=efficiency)

    @classmethod
    def fock(cls, n: int, efficiency: float = 1.0) -> "StateModel":
        return cls(kind="fock", n=n, efficiency=efficiency)

    @classmethod
    def mixture(cls, weights, components, efficiency: float = 1.0) -> "StateModel":
        return cls(
            kind="mixture",
            weights=tuple(float(w) for w in weights),
            components=tuple(components),
            efficiency=efficiency,
        )


@dataclass(frozen=True)
class WignerGrid:
    """Wigner function sampled on a rectangular (x, p) grid."""

    x_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray  # shape (len(x_axis), len(p_axis))


@dataclass(frozen=True)
class PhotonStatistics:
    """Photon-number probabilities P(n) for n = 0 .. dim-1."""

    probs: np.ndarray


def fock_wavefunctions(cutoff: int, x) -> np.ndarray:
    """Stack of oscillator eigenfunctions ``psi_n(x)`` for n < cutoff.

    Uses the stable two-term recurrence
    ``psi_{n+1} = x sqrt(2/(n+1)) psi_n - sqrt(n/(n+1)) psi_{n-1}``
    seeded with ``psi_0 = pi**-0.25 exp(-x^2/2)``.

    Returns an array of shape ``(cutoff, len(x))``.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    psi = np.empty((cutoff, x.size))
    psi[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if cutoff > 1:
        psi[1] = math.sqrt(2.0) * x * psi[0]
    for n in range(1, cutoff - 1):
        psi[n + 1] = x * math.sqrt(2.0 / (n + 1)) * psi[n] - math.sqrt(
            n / (n + 1)
        ) * psi[n - 1]
    return psi


def _coherent(alpha: complex, cutoff: int):
    """Amplitudes of ``|alpha>`` renormalized at the cutoff, and the norm the
    cutoff discards, ``sum_{n >= cutoff} |<n|alpha>|^2``, computed in logs."""
    a = complex(alpha)
    if a == 0:
        return np.eye(1, cutoff, dtype=complex)[0], 0.0
    n = np.arange(cutoff)
    logfact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, cutoff)))))
    # abs(a) overflows when both components are near the float limit; dividing
    # by the larger one first avoids that and is exact while both are below 1
    scale = max(abs(a.real), abs(a.imag), 1.0)
    log_amp = n * (math.log(abs(a / scale)) + math.log(scale)) - 0.5 * logfact
    # shifting the largest log-amplitude to 0 keeps exp finite for every finite alpha
    top = log_amp.max()
    vec = np.exp(log_amp - top) * np.exp(1j * n * np.angle(a))
    norm = np.linalg.norm(vec)
    radius = abs(a / scale) * scale  # inf past the float range, with no error
    return vec / norm, -math.expm1(2.0 * (top + math.log(norm)) - radius * radius)


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Number-basis amplitudes of ``|alpha>`` renormalized at the cutoff."""
    return _coherent(alpha, cutoff)[0]


def _loss_amplitudes(dim: int, eta: float) -> np.ndarray:
    """``b[k, m] = sqrt(C(m+k, k) eta^m (1-eta)^k)``, the amplitude with which loss
    at transmissivity ``eta`` takes ``|m+k>`` to ``|m>``; 0 for ``m + k >= dim``."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    b = np.zeros((dim, dim))
    for k in range(dim):
        for m in range(dim - k):
            b[k, m] = math.sqrt(math.comb(m + k, k) * eta**m * (1.0 - eta) ** k)
    return b


def loss_channel(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """Transmit ``rho`` through a beamsplitter of transmissivity ``eta``:
    ``out[m, n] = sum_k b[k, m] rho[m+k, n+k] b[k, n]``, one band per lost ``k``."""
    if eta == 1.0:
        return rho
    d, b = rho.dim, _loss_amplitudes(rho.dim, eta)
    out = np.zeros_like(rho.elements)
    for k in range(d):
        out[: d - k, : d - k] += (b[k, : d - k, None] * rho.elements[k:, k:]) * b[k, : d - k]
    return DensityMatrix.from_array(out)


def apply_loss_adjoint(op: np.ndarray, eta: float) -> np.ndarray:
    """Heisenberg-picture loss map on an observable, with :func:`loss_channel`'s
    ``b``: ``out[m+k, n+k] = sum_k b[k, m] op[m, n] b[k, n]``.

    Composing a measurement operator with this map models detection at
    efficiency ``eta``: ``tr(loss(rho) op) == tr(rho adjoint(op))``.
    ``op`` may carry leading axes, ``(..., dim, dim)``: each trailing
    ``dim x dim`` block is mapped on its own.
    """
    op = np.asarray(op)
    # the loop gives equal values at 1.0 but C-ordered, not in op's layout,
    # and the MLE's BLAS products round differently on them
    if eta == 1.0:
        return op
    d, b = op.shape[-1], _loss_amplitudes(op.shape[-1], eta)
    out = np.zeros(op.shape, dtype=np.result_type(op, b))
    for k in range(d):
        out[..., k:, k:] += (b[k, : d - k, None] * op[..., : d - k, : d - k]) * b[k, : d - k]
    return out


def pure_state_vector(state: StateModel, cutoff: int) -> np.ndarray | None:
    """Number-basis amplitudes of ``state`` before its loss channel; None for a mixture."""
    if state.kind == "mixture":
        return None
    if state.kind == "fock":
        if state.n >= cutoff:
            raise ValueError(f"fock({state.n}) does not fit below cutoff {cutoff}")
        vec = np.zeros(cutoff, dtype=complex)
        vec[state.n] = 1.0
        return vec
    vec, discarded = _coherent(state.alpha, cutoff)  # a vacuum's alpha is 0
    if discarded > TRUNCATION_TOL:
        raise ValueError(
            f"coherent({state.alpha:g}) loses {discarded:.3g} of its norm at cutoff {cutoff},"
            f" more than {TRUNCATION_TOL:g}"
        )
    return vec


def _bare_density_matrix(state: StateModel, cutoff: int) -> np.ndarray:
    vec = pure_state_vector(state, cutoff)
    if vec is not None:
        return np.outer(vec, vec.conj())
    # mixture: each component carries its own efficiency
    out = np.zeros((cutoff, cutoff), dtype=complex)
    for w, comp in zip(state.weights, state.components):
        out += w * state_density_matrix(comp, cutoff).elements
    return out


def state_density_matrix(state: StateModel, cutoff: int) -> DensityMatrix:
    """Realize ``state`` at the given Fock cutoff, loss channel included."""
    rho = DensityMatrix.from_array(_bare_density_matrix(state, cutoff))
    return loss_channel(rho, state.efficiency)


def _harmonic_layout(dim: int):
    """The real harmonic columns of a density's phase dependence.

    ``p(theta) = sum_d w_d Re[exp(i d theta) c_d]`` is written as
    ``sum_k w_k a_k cos(order_k * theta + shift_k)``: column 0 is order 0,
    then ``(d, a = Re c_d, shift 0)`` and ``(d, a = Im c_d, shift pi/2)`` for
    ``d = 1 .. dim-1``, with ``w_0 = 1`` and ``w_d = 2``.  Both the sampler
    and the likelihood of :func:`pulsequad.tomography.mle_reconstruct` use
    this layout; :func:`_harmonic_factors` evaluates its cosines.
    Returns ``(order, shift, weight)``, each of length ``2 * dim - 1``.
    """
    order = np.repeat(np.arange(dim), 2)[1:].astype(float)
    shift = np.concatenate(([0.0], np.tile([0.0, 0.5 * np.pi], dim - 1)))
    weight = np.where(order > 0, 2.0, 1.0)
    return order, shift, weight


def _harmonic_factors(phases, order, shift) -> np.ndarray:
    """``cos(order * theta + shift)`` of :func:`_harmonic_layout`'s columns,
    shape ``(len(phases), len(order))``.

    One ``z = exp(i theta)`` per phase gives ``z^d`` by repeated
    multiplication: ``cos(d theta) = Re z^d`` and ``cos(d theta + pi/2) =
    -Im z^d``.  No product ``d * theta`` is formed, which would lose the
    phase's low bits and overflow at large phases.
    """
    phases = np.asarray(phases, dtype=float)
    out = np.empty((phases.size, order.size))
    z = np.exp(1j * phases)
    power = np.ones_like(z)
    for d in range(int(order.max(initial=0)) + 1):
        if d > 0:
            power *= z
        for k in np.flatnonzero(order == d):
            out[:, k] = -power.imag if shift[k] else power.real
    return out


def _cumulative_harmonics(rho: DensityMatrix, grid: np.ndarray):
    """Trapezoid cumulative integrals of the real harmonic columns of ``p(x|theta)``.

    The columns follow :func:`_harmonic_layout` with
    ``c_d = Q_d(x) = sum_m rho_{m,m+d} psi_m(x) psi_{m+d}(x)``, so the
    cumulative density at phase ``theta`` is
    ``table @ cos(order * theta + shift)``.  Columns whose ``rho`` diagonal
    part is identically zero are left out: a phase-covariant state has one.
    Wavefunctions are built only up to the highest Fock level with a
    nonzero row or column of ``rho`` (one level for vacuum), and only over
    one block of ``SAMPLE_TABLE_BLOCK`` grid points at a time; each block's
    cumulative sums carry on from the last entry of the one before.
    Returns ``(table, order, shift)`` with ``table`` of shape ``(G, R)``.
    """
    nonzero = rho.elements != 0
    dim = int(np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))[-1]) + 1
    elements = rho.elements[:dim, :dim]
    order, shift, weight = _harmonic_layout(dim)
    diags = [np.diagonal(elements, offset=int(d)) for d in order]
    coeffs = [diag.imag if s else diag.real for diag, s in zip(diags, shift)]
    keep = [k for k, c in enumerate(coeffs) if c.any()]
    dx = grid[1] - grid[0]
    table = np.zeros((grid.size, len(keep)))
    edge = np.zeros(len(keep))  # each column's density at the previous block's last point
    # blocks start at multiples of the block, as whole-grid gemv rows are grouped,
    # and a remainder shorter than a block joins the last one: the same bits
    starts = range(0, max(grid.size - SAMPLE_TABLE_BLOCK, 0) + 1, SAMPLE_TABLE_BLOCK)
    for a, b in zip(starts, [*starts[1:], grid.size]):
        psi = fock_wavefunctions(dim, grid[a:b])
        for r, k in enumerate(keep):
            d = int(order[k])
            q = weight[k] * (coeffs[k] @ (psi[: dim - d] * psi[d:]))
            if a:  # the block's first step starts at the previous block's last point
                q = np.concatenate(([edge[r]], q))
            edge[r] = q[-1]
            steps = 0.5 * (q[1:] + q[:-1]) * dx
            if a:  # and its sum carries on from the previous block's last entry
                steps = np.concatenate(([table[a - 1, r]], steps))
            np.cumsum(steps, out=table[max(a - 1, 1) : b, r])
    return table, order[keep], shift[keep]


def _bisect(cdf, target, last: int) -> np.ndarray:
    """Grid index ``pos <= last - 1`` with ``cdf(pos) <= target < cdf(pos + 1)``.

    ``cdf(index)`` evaluates the cumulative density at grid indices, with
    ``cdf(0) = 0``; each of the ``log2(last + 1)`` steps halves the bracket.
    """
    pos = np.zeros(target.size, dtype=np.intp)
    for k in reversed(range(last.bit_length())):
        pos += (cdf(pos + 2**k) <= target) * 2**k
    return np.minimum(pos, last - 1)  # u * total can round up to total


def _table_cdf(table: np.ndarray, coef: np.ndarray, index) -> np.ndarray:
    """Cumulative density at grid ``index``, one row of ``coef`` per sample."""
    return np.einsum("br,br->b", table.take(index, axis=0), coef)


def _phase_free_entry(column: np.ndarray):
    """Read-only ``(column, guide)`` for the one column of a phase-free table.

    ``guide[j]`` is the index :func:`_bisect` finds at the lower edge of
    bucket ``j`` of ``SAMPLE_GUIDE_BUCKETS`` equal parts of
    ``[0, column[-1]]``, at most ``last - 1 - SAMPLE_GUIDE_STEPS`` so that
    ``pos + 1`` stays on the grid after every step.  ``guide`` is None unless
    the column is nondecreasing: only then is :func:`_guided_index` exact.
    """
    column.setflags(write=False)
    if np.any(column[1:] < column[:-1]):
        return column, None
    last = column.size - 1
    edges = np.arange(SAMPLE_GUIDE_BUCKETS + 1) * (column[last] / SAMPLE_GUIDE_BUCKETS)
    guide = np.searchsorted(column, edges, "right") - 1
    guide = np.clip(guide, 0, last - 1 - SAMPLE_GUIDE_STEPS).astype(np.min_scalar_type(last))
    guide.setflags(write=False)
    return column, guide


def _guided_index(column: np.ndarray, guide: np.ndarray, target) -> np.ndarray:
    """:func:`_bisect`'s index into a nondecreasing ``column`` for each target.

    A target starts at the guide entry of its bucket and steps forward up to
    ``SAMPLE_GUIDE_STEPS`` times.  On a nondecreasing column only the
    bisection's index passes the check ``column[pos] <= target <
    column[pos + 1]``.  The few targets that fail it, in tail buckets that
    span many grid steps, take ``searchsorted``, which on such a column
    returns the same index in one call.
    """
    following = column[1:]  # following[pos] is column[pos + 1]
    pos = guide.take((target * ((guide.size - 1) / column[-1])).astype(np.intp)).astype(np.intp)
    for _ in range(SAMPLE_GUIDE_STEPS):
        pos += following.take(pos) <= target
    miss = np.flatnonzero((column.take(pos) > target) | (following.take(pos) <= target))
    if miss.size:
        found = np.searchsorted(column, target[miss], "right") - 1
        pos[miss] = np.minimum(found, column.size - 2)  # as _bisect clamps
    return pos


def sample_quadratures(
    state: StateModel, phases, n: int, seed: int, cutoff: int = DEFAULT_CUTOFF
) -> QuadratureBatch:
    """Draw ``n`` quadrature samples of ``state`` at the scheduled phases.

    The schedule must have length 1 (applied to every pulse) or ``n``.
    Each value inverts the trapezoid CDF of ``p(x|theta)`` on a grid
    spanning ``[-8, 8]`` with 2**14 points: a search over the grid index
    of the cumulative harmonic table, then linear interpolation inside the
    bracket.  The table is built once per call and bisected, so a sample
    costs O(R log G) for R harmonic columns whatever the number of distinct
    phases.  A phase-free table (diagonal ``rho``) is one column that every
    phase shares: it is built once per process for each ``(state, cutoff)``
    and searched through a guide table, O(1) expected per sample, with the
    bisection's exact indices.  A given seed reproduces the batch exactly.
    ``cutoff`` may be at most ``SAMPLE_GRID_MAX_CUTOFF``: the grid truncates
    higher Fock levels.
    """
    if n < 1:
        raise ValueError("sample count must be at least 1")
    if not 1 <= cutoff <= SAMPLE_GRID_MAX_CUTOFF:
        raise ValueError(f"cutoff must lie in [1, {SAMPLE_GRID_MAX_CUTOFF}]")
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    if phases.size == 1:
        phases = np.full(n, phases[0])
    elif phases.size != n:
        raise ValueError("phase schedule must have length 1 or n")
    if not np.all(np.isfinite(phases)):
        raise ValueError("phases must be finite")

    grid = np.linspace(-SAMPLE_GRID_HALFSPAN, SAMPLE_GRID_HALFSPAN, SAMPLE_GRID_POINTS)
    last = grid.size - 1
    column, guide = _PHASE_FREE_TABLES.get((state, cutoff), (None, None))
    if column is None:
        table, order, shift = _cumulative_harmonics(state_density_matrix(state, cutoff), grid)
        if order.size == 1:  # phase-free: column 0 at cos(0 * theta) = 1 for every phase
            column, guide = _phase_free_entry(table[:, 0])
            if len(_PHASE_FREE_TABLES) >= _PHASE_FREE_LIMIT:
                _PHASE_FREE_TABLES.clear()
            _PHASE_FREE_TABLES[state, cutoff] = column, guide
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    u = rng.random(n)

    # 64-row multiples: a gemv row outside a full kernel group sums in another order
    columns = 1 if column is not None else order.size
    rows = max(64, SAMPLE_BLOCK_ENTRIES // columns // 64 * 64)
    values = np.empty(n)
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        if column is not None:
            cdf, target = column.take, u[block] * column[last]
        else:
            coef = _harmonic_factors(phases[block], order, shift)
            cdf = partial(_table_cdf, table, coef)
            target = u[block] * (coef @ table[last])
        if guide is None:
            pos = _bisect(cdf, target, last)
        else:
            pos = _guided_index(column, guide, target)
        f_lo = cdf(pos)
        slope = (grid[pos + 1] - grid[pos]) / (cdf(pos + 1) - f_lo)
        values[block] = slope * (target - f_lo) + grid[pos]
    return QuadratureBatch(values=values, phases=phases)


def wigner(rho: DensityMatrix, x_axis, p_axis) -> WignerGrid:
    """Wigner function of ``rho`` on the cartesian grid ``x_axis`` x ``p_axis``.

    Evaluated through the associated-Laguerre closed form of the
    number-basis kernels, ``W_{m,m+d} ~ (-1)^m sqrt(m!/(m+d)!) a^d
    L_m^(d)(r^2) exp(-r^2/2) / pi`` with ``a = sqrt(2) (x + i p)`` and
    ``r^2 = |a|^2``.  Each order's ``rho``-weighted sum of kernels without
    ``a^d``, ``S_d``, is evaluated once per distinct ``r^2`` of any finite
    axes, one order at a time from the highest, and each point takes one
    step of Horner's rule in ``a`` per order to sum ``Re S_d a^d``.
    Where ``exp(-r^2/2)`` underflows, W is 0.  The diagonal kernels at the
    origin alternate as ``(-1)^n / pi``, so negativity at the origin
    witnesses odd-photon population.
    """
    x_axis = np.asarray(x_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    if not (np.all(np.isfinite(x_axis)) and np.all(np.isfinite(p_axis))):
        raise ValueError("wigner axes must be finite")
    x, p = x_axis.reshape(-1, 1), p_axis.reshape(1, -1)  # broadcast to the (x, p) grid
    with np.errstate(over="ignore"):  # r^2 or |a| past the float range is inf
        radii, where = np.unique(2.0 * (x * x + p * p), return_inverse=True)
        amp = math.sqrt(2.0) * (x + 1j * p)
    # exp(-r^2/2) underflows to 0 on a suffix of the ascending radii, where W is
    # 0: the Laguerre values, which can overflow there, are evaluated before it
    gauss = np.exp(-0.5 * radii)
    live = np.count_nonzero(gauss)
    r2 = radii[:live]
    where = where.reshape(amp.shape)
    amp[where >= live] = 0.0  # W is 0 there, and an inf amp would give inf * 0
    for d in reversed(range(rho.dim)):
        # L_m^(d) by m L_m = (2m - 1 + d - r^2) L_{m-1} - (m - 1 + d) L_{m-2} from
        # L_0 = 1, for the kernels m < dim - d; an order d > 0 is doubled, since
        # rho_{m+d,m} adds the conjugate term
        lag_prev, lag = np.zeros(live), np.ones(live)
        radial = np.zeros(radii.size, dtype=complex)
        for m in range(rho.dim - d):
            if m > 0:
                lag_prev, lag = lag, ((2 * m - 1 + d - r2) * lag - (m - 1 + d) * lag_prev) / m
            norm = math.sqrt(math.factorial(m) / math.factorial(m + d))
            weight = (2.0 if d > 0 else 1.0) * (-1.0) ** m / math.pi * norm
            radial[:live] += (weight * rho.elements[m, m + d]) * lag
        radial *= gauss
        if d == rho.dim - 1:
            total = radial.take(where)
        else:  # one Horner step in a
            total *= amp
            total += radial.take(where)
    return WignerGrid(x_axis=x_axis, p_axis=p_axis, values=total.real.copy())


def photon_statistics(rho: DensityMatrix) -> PhotonStatistics:
    """Photon-number distribution ``P(n) = rho_nn``."""
    probs = np.maximum(np.diag(rho.elements).real, 0.0)
    return PhotonStatistics(probs=probs)


def fidelity_pure(rho: DensityMatrix, target) -> float:
    """Overlap ``<psi|rho|psi>`` with a normalized pure target state."""
    vec = np.asarray(target, dtype=complex)
    if vec.shape != (rho.dim,):
        raise ValueError("target dimension does not match the density matrix")
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= 1e-6:  # NaN fails too
        raise ValueError("target state vector must be finite and normalized")
    val = np.real(vec.conj() @ rho.elements @ vec)
    return float(min(max(val, 0.0), 1.0))
