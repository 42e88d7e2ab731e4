"""Time-evolution engines and closed-form transition probabilities.

Three propagators, each the one route of its model kind:

* ``evolve_unitary`` / ``evolve_unitary_at`` -- exact propagation under a
  time-independent ``Hamiltonian`` record, a real diagonal plus hops, by
  the batch kernel ``_evolve_blocks``, which diagonalises block by block
  along the connected components of the hop graph, so no Hamiltonian is
  ever a dense matrix.  A quantized scan is one batch, and
  ``evolve_unitary_at`` (which ``run_point`` calls) a batch of one;
* ``evolve_driven`` -- Schroedinger evolution under a sinusoidal classical
  drive ``x(t) = x0 sin(nu t)``, with the Hamiltonian frozen at interval
  midpoints (second order in dt).  It is one run of the stepping kernel
  ``_evolve_driven_batch``, which every prescribed-drive run goes
  through, scans included.  Only the drive shape y = sin(nu t) changes
  from step to step, so each distinct (step length, amplitude) gets one
  table ``F_j`` with ``exp(-i dt (h0 + x0 y c)) = sum_j y^j F_j`` from one
  ``_taylor`` call on a block matrix; runs then step together in chunks,
  each with one elementwise Horner evaluation of every step's polynomial
  and one guard pass;
* ``evolve_hybrid`` -- mean-field evolution where the classical pair
  ``(x, p)`` obeys Hamilton's equations sourced by quantum expectation
  values, advanced by a Strang split (exact classical half-flows around a
  ``_taylor`` quantum step on the state's real view), second order overall.

``_taylor`` is the one matrix exponential of both driven kernels: a Horner
Taylor sum for ``exp(h g) v`` whose degree and substeps follow from a
1-norm bound on h g, which ``_STEP_BOUND_MAX`` caps for every driven step.

The kernels only propagate raw states.  One ``_guard`` pass over the
stored raw states normalises them and measures their norm drift since
t = 0 and top Fock levels; ``_trip_error`` names the earliest trip.  Each
propagator hands its frozen amplitude array to its ``Trajectory`` uncopied.

The closed-form expressions at the bottom use a guarded ``sin(x)/x``
branch below ``|detuning * t| < 1e-6`` where the removable singularity
would otherwise lose precision.
"""

from __future__ import annotations

import bisect
import cmath
import enum
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    FactorError,
    NormalizationError,
    RegimeWarning,
    ToleranceError,
)
from .hilbert import (
    NORM_ATOL,
    Boson,
    Hamiltonian,
    SpaceDescriptor,
    StateVector,
    _readonly,
)
from .models import BeamSplitterParams, DrivenOscillatorParams, ModelSpec

__all__ = [
    "Method", "EvolutionConfig", "Trajectory", "HybridState",
    "evolve_unitary", "evolve_unitary_at", "evolve_driven", "evolve_hybrid",
    "DysonFirstOrder", "dyson_first_order", "rabi_probability",
    "golden_rule_limit", "perturbative_pe", "semiclassical_pn1",
    "coherent_amplitude_beta", "pn1_from_amplitude", "classical_drive",
]


class Method(enum.Enum):
    MATRIX_EXPONENTIAL = "matrix_exponential"
    MIDPOINT = "midpoint_piecewise"


def allowed_methods(model: ModelSpec) -> tuple[Method, ...]:
    """The one method that evolves ``model``: the midpoint step for the
    driven families, mean-field runs included, else exact propagation."""
    return (Method.MIDPOINT,) if model.params.driven else (Method.MATRIX_EXPONENTIAL,)


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    t_max: float
    method: Method = Method.MATRIX_EXPONENTIAL
    norm_drift_tol: float = 1e-9
    top_level_tol: float = 1e-8

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if not (self.t_max >= self.dt and math.isfinite(self.t_max)):
            raise ValueError("t_max must be finite and >= dt")
        for name in ("norm_drift_tol", "top_level_tol"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")

    @property
    def n_steps(self) -> int:
        return _steps(self.t_max, self.dt)

    def time_grid(self) -> np.ndarray:
        return _grid(self.t_max, self.dt)


def _steps(t: float, dt: float) -> int:
    """The grid rule for a horizon t: n = max(1, round(t / dt)) steps of
    t / n, the nearest such step to dt, the last ending exactly at t."""
    return max(1, int(round(t / dt)))


def _grid(t: float, dt: float) -> np.ndarray:
    return np.linspace(0.0, t, _steps(t, dt) + 1)


@dataclass(frozen=True)
class HybridState:
    """Classical phase-space point paired with a quantum state."""

    x: float
    p: float
    psi: StateVector


class _StateView(Sequence):
    """Read-only sequence of a trajectory's states; each item is a
    ``StateVector`` over one row of the amplitude array, built on access."""

    def __init__(self, space: SpaceDescriptor, amplitudes: np.ndarray):
        self._space, self._amplitudes = space, amplitudes

    def __len__(self) -> int:
        return len(self._amplitudes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(len(self))[index])
        return StateVector(self._space, self._amplitudes[index])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled evolution: the space, the times, one read-only complex
    ``(n_t, d)`` array of normalized amplitudes (row k is the state at
    ``times[k]``) and, when present, the classical (x, p) track.
    ``max_norm_drift`` records the worst deviation from 1 of the raw,
    never renormalised, state's norm since t = 0."""

    space: SpaceDescriptor
    times: np.ndarray
    amplitudes: np.ndarray
    classical: np.ndarray | None = None     # shape (n, 2): columns x, p
    max_norm_drift: float = 0.0

    def __post_init__(self):
        times, amps = _readonly(self.times, float), _readonly(self.amplitudes)
        if amps.shape != (len(times), self.space.total_dim):
            raise ValueError(f"amplitudes {amps.shape} must be (n_times, dim) = "
                             f"({len(times)}, {self.space.total_dim})")
        # squared norms from the real and imaginary views: no (n_t, d) copy
        nrm = np.sqrt(sum(np.einsum("ti,ti->t", part, part)
                          for part in (amps.real, amps.imag)))
        if not np.all(np.abs(nrm - 1.0) <= NORM_ATOL):     # NaN norms fail too
            raise NormalizationError(f"a state norm lies outside 1 +/- {NORM_ATOL}")
        if self.classical is not None:
            cl = _readonly(self.classical, float)
            if cl.shape != (len(times), 2):
                raise ValueError("classical track must be (n, 2)")
            object.__setattr__(self, "classical", cl)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def states(self) -> Sequence[StateVector]:
        return _StateView(self.space, self.amplitudes)

    def final_state(self) -> StateVector:
        return StateVector(self.space, self.amplitudes[-1])

    def population_series(self, factor_index: int, level: int) -> np.ndarray:
        """Marginal population of ``level`` of factor ``factor_index`` per time."""
        if not 0 <= level < self.space.factor(factor_index).dim:
            raise FactorError(f"level {level} out of range for factor {factor_index}")
        at = np.flatnonzero(self.space.levels[factor_index] == level)
        return (np.abs(self.amplitudes[:, at]) ** 2).sum(axis=1)


# ---------------------------------------------------------------------------
# guards


def _boson_top_indices(space: SpaceDescriptor):
    """(factor index, flat basis indices where that factor sits on its top
    Fock level) for every bosonic factor."""
    return [(i, np.flatnonzero(space.levels[i] == f.dim - 1))
            for i, f in enumerate(space.factors) if isinstance(f, Boson)]


def _guard(amp: np.ndarray, cfg: EvolutionConfig, top_slots):
    """Norm and top-level guards on one state ``(d,)`` or a stack ``(..., d)``:
    per state, the renormalised amplitudes, the raw norm drift, the top-level
    population of each ``top_slots`` factor (a list) and whether a guard
    trips (a bool mask).  A non-finite norm counts as drift."""
    probs = np.abs(amp) ** 2
    nrm_sq = probs.sum(axis=-1)
    nrm = np.sqrt(nrm_sq)
    drift = np.abs(nrm - 1.0)
    pops = [probs[..., flat].sum(axis=-1) / nrm_sq for _, flat in top_slots]
    tripped = ~(drift <= cfg.norm_drift_tol)
    for pop in pops:
        tripped = tripped | (pop > cfg.top_level_tol)
    return amp / nrm[..., None], drift, pops, tripped


def _trip_error(drift, pops, tripped, t, cfg: EvolutionConfig, top_slots):
    """The ToleranceError of the earliest tripped state in a ``_guard``
    pass over states at times t (any order; ties go to the first index),
    or None when no state trips."""
    if not np.any(tripped):
        return None
    t = np.broadcast_to(t, np.shape(tripped))
    i = np.unravel_index(np.argmin(np.where(tripped, t, np.inf)), np.shape(tripped))
    if not drift[i] <= cfg.norm_drift_tol:
        return ToleranceError(
            f"norm drift {drift[i]:.3e} exceeds {cfg.norm_drift_tol:.1e} at t={t[i]:g} "
            "(reduce dt)")
    for (idx, _), pop in zip(top_slots, pops):
        if pop[i] > cfg.top_level_tol:
            return ToleranceError(
                f"top Fock level of factor {idx} holds population {pop[i]:.3e} "
                f"> {cfg.top_level_tol:.1e} at t={t[i]:g} (raise the cutoff)")


def _checked_state(amp: np.ndarray, t, cfg: EvolutionConfig,
                   top_slots) -> tuple[np.ndarray, np.ndarray]:
    """``_guard`` that raises instead of reporting: on one state at time t,
    or on a stack of states at times t, where the earliest trip is raised
    (``_trip_error``).  Returns the renormalised amplitudes and raw drift."""
    amp, drift, pops, tripped = _guard(amp, cfg, top_slots)
    error = _trip_error(drift, pops, tripped, t, cfg, top_slots)
    if error is not None:
        raise error
    return amp, drift


# ---------------------------------------------------------------------------
# propagators


def _component_labels(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Connected-component label of each of ``n`` basis indices in the
    graph whose edges are the pairs ``(rows[k], cols[k])``, read as
    undirected; components are numbered 0, 1, ... in order of their
    smallest basis index.

    Min-label propagation: each index starts as its own label, every
    edge pulls both ends down to the smaller of their labels, and a
    pointer jump (``labels[labels]``) shortcuts chains.  A label only ever
    names a member of its own component and never rises, so once a round
    changes nothing each component carries its smallest index.
    """
    labels = np.arange(n)
    while True:
        before = labels.copy()
        np.minimum.at(labels, rows, labels[cols])
        np.minimum.at(labels, cols, labels[rows])
        labels = labels[labels]
        if np.array_equal(labels, before):
            return np.unique(labels, return_inverse=True)[1]


def _diagonals(m: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of a C-contiguous stack ``(..., d, d)``."""
    d = m.shape[-1]
    return m.reshape(*m.shape[:-2], d * d)[..., ::d + 1]


def _block_eigh(diagonals: np.ndarray, hops) -> tuple[np.ndarray, list]:
    """Eigendecompositions of the hermitian H_k = diag(diagonals[k]) + hops
    for a stack of diagonals ``(P, d)`` that share one hop list, block by
    block.  A hop ``(src, dst, amp)`` is the term ``amp |dst><src| + h.c.``;
    hops of zero amplitude are dropped.

    The blocks are the connected components of the hop graph
    (``_component_labels``, called once): basis states that no chain of
    hops links never mix.  This needs no knowledge of the model: the
    excitation-number sectors of the beam splitter and Jaynes-Cummings,
    the two-state blocks of a counter-rotating Jaynes-Cummings record
    (which the tests build) and the 1x1 blocks of an uncoupled model all
    show up in the graph.  Only
    the U distinct diagonals are decomposed: the blocks of one size s of
    all of them are built straight from the hops as one
    ``(U, n_blocks, s, s)`` stack, real when the diagonals and the hop
    amplitudes are, and go through one stacked ``eigh``, which gives each
    matrix the bits it gets alone.

    Returns ``inverse``, the row of the distinct diagonals that H_k uses,
    and per size class ``(idx, w, v)``: the basis indices ``(n_blocks, s)``
    of each block in ascending order, the eigenvalues ``(U, n_blocks, s)``
    (not sorted) and the eigenvectors, the columns of ``v[u, b]``.
    """
    src, dst, amp = (a[hops[2] != 0] for a in hops)
    distinct, inverse = np.unique(diagonals, axis=0, return_inverse=True)
    labels = _component_labels(distinct.shape[1], src, dst)
    sizes = np.bincount(labels)[labels]         # the size of each index's block
    # basis indices by block size, then block, ascending inside each block,
    # so each size class is one run of ``order``; ``place`` is the inverse
    order = np.lexsort((labels, sizes))
    place = np.argsort(order)
    classes = []
    for size in np.unique(sizes):
        run = np.flatnonzero(sizes[order] == size)
        idx = order[run].reshape(-1, size)
        m = np.zeros((len(distinct),) + idx.shape + (size,),
                     dtype=np.result_type(distinct, amp))
        _diagonals(m)[...] = distinct[:, idx]
        # row b * size + i of a matrix's stacked rows is row i of block b
        on = sizes[src] == size
        s, d = place[src[on]] - run[0], place[dst[on]] - run[0]
        rows = m.reshape(len(distinct), -1, size)
        rows[:, d, s % size], rows[:, s, d % size] = amp[on], amp[on].conj()
        classes.append((idx, *np.linalg.eigh(m)))
    # the inverse's shape differs across numpy 2.0.x: ravel it
    return inverse.ravel(), classes


def _evolve_blocks(space: SpaceDescriptor, diagonals: np.ndarray, hops,
                   psi0s: Sequence[StateVector], grids, cfg: EvolutionConfig):
    """exp(-i H_k t) psi0s[k] at each t of the array ``grids[k]``, for a
    batch of points k with H_k = diag(diagonals[k]) + hops: the one route
    of every quantized evolution, ``evolve_unitary_at`` being a batch of one.

    One ``_block_eigh`` decomposes every distinct H_k of the batch.  Then,
    point by point, each block-size class forms every sample of the
    point's grid in one stacked product ``v (exp(-i w t) v^H psi0)``, a
    sample at t = 0 is psi0 itself (so U(0) = I exactly), and one guard
    pass checks the norm and the top Fock levels at every sample.  There
    is no integration error.  The guard tolerances are ``cfg``'s for every
    point.

    Yields, point by point, so that a caller keeps only what it needs:
    the normalised amplitudes ``(len(grids[k]), d)`` (None on a trip), the
    worst raw norm drift and the ToleranceError of the earliest tripped
    sample (None where the point passed).
    """
    if any(psi0.space != space for psi0 in psi0s):
        raise ValueError("Hamiltonian and initial state live on different spaces")
    inverse, classes = _block_eigh(diagonals, hops)
    top_slots = _boson_top_indices(space)
    for u, psi0, times in zip(inverse, psi0s, grids):
        amps = np.empty((len(times), space.total_dim), dtype=complex)
        for idx, w, v in classes:
            coeffs = v[u].conj().swapaxes(1, 2) @ psi0.amplitudes[idx][..., None]
            phases = np.exp(-1j * w[u] * times[:, None, None])[..., None]
            amps[:, idx] = (v[u] @ (phases * coeffs))[..., 0]
        amps[times == 0] = psi0.amplitudes
        amps, drift, pops, tripped = _guard(amps, cfg, top_slots)
        error = _trip_error(drift, pops, tripped, times, cfg, top_slots)
        yield (amps if error is None else None), float(drift.max(initial=0.0)), error


def evolve_unitary_at(h: Hamiltonian, psi0: StateVector, times,
                      cfg: EvolutionConfig) -> Trajectory:
    """Exact propagation exp(-i h t) psi0 sampled at arbitrary times, which
    must be a non-empty list of finite numbers (ValueError otherwise).

    The diagonal and hops of ``h`` go through ``_evolve_blocks`` as a
    batch of one: no integration error, and the norm / top-level guards
    run per sample; a trip is raised at the earliest tripped time.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not times.size or not np.all(np.isfinite(times)):
        raise ValueError("sample times must be a non-empty list of finite numbers")
    ((amps, worst, error),) = _evolve_blocks(h.space, h.diagonal[None], h.hops, [psi0],
                                             [times], cfg)
    if error is not None:
        raise error
    amps.setflags(write=False)
    return Trajectory(h.space, times, amps, max_norm_drift=worst)


def evolve_unitary(h: Hamiltonian, psi0: StateVector, cfg: EvolutionConfig) -> Trajectory:
    """``evolve_unitary_at`` on the dt grid, which only sets the sampling density."""
    return evolve_unitary_at(h, psi0, cfg.time_grid(), cfg)


def classical_drive(params, times: np.ndarray) -> np.ndarray:
    """Prescribed drive track x = x0 sin(nu t), p = x0 cos(nu t)."""
    x = params.x0 * np.sin(params.nu * times)
    p = params.x0 * np.cos(params.nu * times)
    return np.column_stack([x, p])


# the largest 1-norm bound at which a Taylor sum of degree m = 1, 2, ..., 30
# leaves a first omitted term b^(m+1) / (m+1)! of at most 2^-53
_TAYLOR_REACH = tuple((math.factorial(m + 1) * 2.0 ** -53) ** (1.0 / (m + 1))
                      for m in range(1, 31))
# the largest 1-norm bound that a Taylor plan takes: 264 substeps of degree 30
_STEP_BOUND_MAX = 1e3


def _taylor_plan(bound: float) -> tuple[int, int]:
    """(degree m, substeps s) of ``_taylor`` for a 1-norm bound: s equal
    substeps, each bound within the reach of degree m, with the fewest
    matvecs m s and, among those, the fewest substeps (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 33, 488 (2011)).  The matvecs grow linearly with
    the bound, which ``_STEP_BOUND_MAX`` caps for every driven step.

    Up to the reach of the top degree one substep is the best plan, so the
    smallest degree that reaches the bound is one bisection; only a bound
    beyond it searches the table.
    """
    if bound <= _TAYLOR_REACH[-1]:
        return bisect.bisect_left(_TAYLOR_REACH, bound) + 1, 1
    plans = ((math.ceil(bound / reach), m) for m, reach in enumerate(_TAYLOR_REACH, start=1))
    substeps, degree = min(plans, key=lambda plan: (plan[0] * plan[1], plan[0]))
    return degree, substeps


def _real_form(g: np.ndarray) -> np.ndarray:
    """The real ``(2d, 2d)`` matrix that acts on ``amp.view(float)``, the
    (re, im) pairs of a complex state, as the complex ``(d, d)`` g acts on
    amp: for a real hermitian H, -i H becomes ``kron(H, [[0, 1], [-1, 0]])``."""
    return np.kron(g.real, np.eye(2)) + np.kron(g.imag, [[0.0, -1.0], [1.0, 0.0]])


def _taylor(g: np.ndarray, h: float, bound: float, v: np.ndarray) -> np.ndarray:
    """exp(h g) v for one vector or a block of columns ``v``, where
    ``bound`` bounds the 1-norm of h g: the one exponential of every
    driven step.

    The bound picks the substeps and the degree (``_taylor_plan``): the
    step is cut into s equal substeps, and each substep of length h / s is
    a Taylor sum in Horner form, ``v + (h/s) g (v + (h/s) g / 2 (v + ...))``,
    of degree m (at most 30), whose first omitted term is at most 2^-53.
    """
    degree, substeps = _taylor_plan(bound)
    h = h / substeps
    for _ in range(substeps):
        w = v
        for k in range(degree, 0, -1):
            w = np.dot(g, w)
            w *= h / k
            w += v
        v = w
    return v


def _drive_table(h0, c, norms, dt: float, x0: float):
    """The step table of a prescribed-drive step of length dt under the
    drive amplitude x0: ``F (J + 1, d, d)`` and the substeps s, with
    exp(-i h (h0 + x0 y c)) = sum_j y^j F_j, h = dt / s, for every drive
    shape y = sin(nu t) in [-1, 1], to a first omitted term of at most 2^-53.

    ``_taylor_plan`` of the drive bound ``dt |x0| |c|_1`` gives the degree J
    and the substeps s.  Take g, the block-bidiagonal matrix with -i h0 on
    its diagonal blocks and -i x0 c above them.  Such matrices multiply as
    polynomials in y truncated after the power J, so the blocks of the last
    block column of exp(h g) are F_J, ..., F_0 from top to bottom (Van Loan,
    IEEE Trans. Autom. Control 23, 395 (1978)); one ``_taylor`` call on that
    column of the identity gives them all, with the bound
    ``h (|h0|_1 + |x0| |c|_1)``, which bounds every step's too, as |y| <= 1.
    """
    degree, substeps = _taylor_plan(dt * abs(x0) * norms[1])
    d, h = len(h0), dt / substeps
    n = (degree + 1) * d
    g = np.zeros((n, n), dtype=complex)
    for j in range(degree + 1):
        g[j * d:(j + 1) * d, j * d:(j + 1) * d] = -1j * h0
        if j:
            g[(j - 1) * d:j * d, j * d:(j + 1) * d] = (-1j * x0) * c
    f = _taylor(g, h, h * (norms[0] + abs(x0) * norms[1]), np.eye(n, d, d - n, dtype=complex))
    return f.reshape(degree + 1, d, d)[::-1], substeps


def _table_step(tables: np.ndarray, y: np.ndarray, substeps: np.ndarray) -> np.ndarray:
    """The step propagators ``(K, L, d, d)`` of L runs at drive shapes
    y = sin(nu t) ``(K, L)``, from the real views ``(L, J + 1, d, 2d)`` of
    the runs' tables (shorter ones padded with zeros) and their substeps.

    The polynomial is summed by elementwise Horner, ``u = F_J y + F_{J-1}``
    and so on, from zero, and the runs with s > 1 substeps then take u^s
    together, one ``np.linalg.matrix_power`` on the stack of their
    propagators per distinct s.  A padded zero table leaves u zero, and
    every operation acts on each run alone, so each run gives the bits it
    gets alone.
    """
    u = np.zeros(y.shape + tables.shape[-2:])
    y = y[..., None, None]
    for j in range(tables.shape[1] - 1, -1, -1):
        u *= y
        u += tables[:, j]
    u = u.view(complex)
    for s in np.unique(substeps[substeps > 1]):
        u[:, substeps == s] = np.linalg.matrix_power(u[:, substeps == s], s)
    return u


_DRIVE_CHUNK = 256      # propagators (runs x steps) that exist at once


def _evolve_driven_batch(h0, c, psi0: StateVector, x0s, nus, t_ends, n_steps,
                         cfg: EvolutionConfig, states: np.ndarray | None = None):
    """Many prescribed-drive runs that share h0, c and the initial state.

    Run b is driven by x(t) = x0s[b] sin(nus[b] t) over n_steps[b] steps
    of t_ends[b] / n_steps[b], the last ending exactly at t_ends[b]
    (``_steps`` gives a dt's count), each step the midpoint propagator
    ``exp(-i (h0 + x c) h)``, H frozen at the drive's value x at the
    step's midpoint.  h0 and c are real, as both driven families build them.

    The propagators come from step tables (``_drive_table``), one per
    distinct (step length, x0), each a polynomial in the drive shape
    y = sin(nu t_mid), so the table, like the rest of a run's arithmetic,
    depends only on the run.  A run whose full step bound
    ``h (|h0|_1 + |x0| |c|_1)`` exceeds ``_STEP_BOUND_MAX``, the cap of the
    mean-field step, fails before its first step and builds no table.  The
    live runs step together in chunks of ``max(1, _DRIVE_CHUNK // live)``
    steps, so at most ``_DRIVE_CHUNK`` propagators exist at once whatever
    the batch size.  Per chunk: the propagators of every (step, run) from
    the tables at the steps' drive shapes (``_table_step``); a serial loop
    of one batched matvec per step on the raw, never renormalised state;
    one ``_guard`` pass over the chunk's raw states, in which each run
    takes the earliest trip among the steps it actually takes
    (``_trip_error`` on its column; steps past its end are masked out).  A
    run leaves at the end of the chunk in which it finishes or trips.

    Returns the final amplitudes ``(B, d)`` (NaN rows for failed runs),
    the ToleranceError of each run (None where it passed) and the worst
    raw norm drift of each run.  ``states``, when given, is a
    ``(max(n_steps) + 1, B, d)`` array that receives every normalised
    state: row k of run b is its state at step k, for k <= n_steps[b].
    """
    norms = [np.abs(m).sum(axis=0).max(initial=0.0) for m in (h0, c)]
    x0s, nus, t_ends = (np.asarray(a, dtype=float) for a in (x0s, nus, t_ends))
    n_steps = np.asarray(n_steps, dtype=int)
    dts = t_ends / n_steps
    bounds = dts * norms[0] + dts * np.abs(x0s) * norms[1]
    top_slots = _boson_top_indices(psi0.space)
    n_runs, dim = len(n_steps), psi0.space.total_dim
    final = np.full((n_runs, dim), np.nan, dtype=complex)
    errors = [None] * n_runs

    amp0, drift0 = _checked_state(psi0.amplitudes, 0.0, cfg, top_slots)
    if states is not None:
        states[0] = amp0
    worst = np.full(n_runs, float(drift0))
    live = np.flatnonzero(bounds <= _STEP_BOUND_MAX)
    for b in np.flatnonzero(~(bounds <= _STEP_BOUND_MAX)):
        errors[b] = ToleranceError(f"drive step 1-norm bound {bounds[b]:.3e} exceeds "
                                   f"{_STEP_BOUND_MAX:.0e} (reduce dt)")
    table_of = {}
    key = np.zeros(n_runs, dtype=int)
    for b in live:
        key[b] = table_of.setdefault((dts[b], x0s[b]), len(table_of))
    built = [_drive_table(h0, c, norms, *step) for step in table_of]
    terms = np.array([len(f) for f, _ in built], dtype=int)
    substeps = np.array([s for _, s in built], dtype=int)
    tables = np.zeros((len(built), terms.max(initial=1), dim, 2 * dim))
    for i, (f, _) in enumerate(built):
        tables[i, :len(f)] = f.view(float)

    amp = np.repeat(psi0.amplitudes[None, :, None], live.size, axis=0)
    lo = 0
    while live.size:
        n, dt, nu, kl = n_steps[live], dts[live], nus[live], key[live]
        # step k of every live run as a (steps, 1) column against (runs,)
        k = lo + np.arange(min(max(1, _DRIVE_CHUNK // live.size),
                               n.max() - lo))[:, None]
        t0 = k * dt
        t1 = np.where(k == n - 1, t_ends[live], (k + 1) * dt)
        y = np.sin(nu * (0.5 * (t0 + t1)))
        u = _table_step(tables[kl, :terms[kl].max()], y, substeps[kl])
        # states as (runs, d, 1) columns: a step is one stacked matvec
        raw = np.empty((len(k), live.size, dim, 1), dtype=complex)
        # steps past a guard trip or a run's end may overflow or turn NaN;
        # the guard pass only judges the steps before both
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            for j in range(len(k)):
                amp = np.matmul(u[j], amp, out=raw[j])
            normed, drift, pops, tripped = _guard(raw[..., 0], cfg, top_slots)
        taken = k < n
        worst[live] = np.maximum(worst[live], np.where(taken, drift, 0.0).max(axis=0))
        hit = taken & tripped
        failed = hit.any(axis=0)
        for b in np.flatnonzero(failed):
            errors[live[b]] = _trip_error(drift[:, b], [pop[:, b] for pop in pops],
                                          hit[:, b], t1[:, b], cfg, top_slots)
        done = ~failed & (n <= k[-1, 0] + 1)
        final[live[done]] = normed[n[done] - 1 - lo, np.flatnonzero(done)]
        if states is not None:
            states[lo + 1:lo + 1 + len(k), live] = normed
        keep = ~(done | failed)
        live, amp = live[keep], amp[keep]
        lo += len(k)
    return final, errors, worst


def evolve_driven(params, psi0: StateVector | None, cfg: EvolutionConfig) -> Trajectory:
    """Schroedinger evolution under the sinusoidal drive x(t) = x0 sin(nu t).

    The midpoint method freezes H at each interval midpoint, so every
    step is unitary; it converges at second order in dt.  It is one run of
    ``_evolve_driven_batch`` that keeps every normalised state and raises
    its earliest guard trip.
    """
    if not params.driven:
        raise TypeError(f"unsupported driven params {type(params).__name__}")
    space = params.space
    if psi0 is None:
        psi0 = params.default_initial_state()
    if psi0.space != space:
        raise ValueError("initial state space does not match the model")
    times = cfg.time_grid()
    amps = np.empty((len(times), 1, space.total_dim), dtype=complex)
    _, errors, worst = _evolve_driven_batch(
        *params.free_and_coupling(), psi0, [params.x0], [params.nu],
        [cfg.t_max], [cfg.n_steps], cfg, states=amps)
    if errors[0] is not None:
        raise errors[0]
    amps.setflags(write=False)
    return Trajectory(space, times, amps[:, 0], classical=classical_drive(params, times),
                      max_norm_drift=float(worst[0]))


def evolve_hybrid(model: ModelSpec, s0: HybridState, cfg: EvolutionConfig) -> Trajectory:
    """Mean-field evolution of (x, p, psi) under the Strang split.

    Classical flow (exact, symplectic for each frozen expectation):
        dx/dt = nu p,   dp/dt = -nu x - coupling <C>,
    with C = sigma_x for the qubit and C = b + b^+ for the oscillator.
    Each step of ``cfg.time_grid()`` is a classical half-flow, the
    quantum step ``exp(-i (h0 + x c) dt)`` at the half-step x, and a
    classical half-flow with the refreshed <C>.

    The state is held in its real view (``_real_form``), so the quantum
    step is ``_taylor`` on the state with g = x m1 + m0, the real forms of
    -i c and -i h0: a Taylor sum whose degree and substeps follow from the
    1-norm bound ``dt (|h0|_1 + |x| |c|_1)`` (past ``_STEP_BOUND_MAX`` it
    raises), with no decomposition.  The run carries and stores the raw
    state; <C>, one product with the real form of the bare C over the
    squared norm, feeds both half-flows.  One ``_checked_state`` pass over
    the stored rows then normalises and judges them: a run that trips
    raises after its last step, or after an abort, whose earlier trips
    win.  The tests hold the amplitudes and (x, p) to a per-step
    eigendecomposition loop within 1e-12 absolute and the worst norm
    drift within 1e-14.
    """
    if not model.back_reaction:
        raise ValueError("evolve_hybrid needs a back-reaction (mean-field) model")
    space, lam, nu = model.params.space, model.params.coupling, model.params.nu
    h0, c = model.params.free_and_coupling()
    if s0.psi.space != space:
        raise ValueError("initial quantum state space does not match the model")
    times = cfg.time_grid()
    m0, m1 = _real_form(-1j * h0), _real_form(-1j * c)
    norms = [np.abs(m).sum(axis=0).max(initial=0.0) for m in (h0, c)]
    # c = coupling * (quadrature or sigma_x); the force needs the bare
    # quadrature expectation, so divide the coupling back out when nonzero.
    c_bare = _real_form(c / lam) if lam != 0.0 else np.zeros_like(m0)

    def classical_half(x, p, mean, ch, sh):
        # exact rotation of the displaced harmonic flow over a half step,
        # ch, sh = cos, sin of nu times its length
        xc = -lam * mean / nu
        dx = x - xc
        return xc + dx * ch + p * sh, p * ch - dx * sh

    x, p = float(s0.x), float(s0.p)
    if not (math.isfinite(x) and math.isfinite(p)):
        raise ValueError("classical initial conditions must be finite")

    # raw rows of (re, im) pairs, read as complex by the guard pass
    rows = np.empty((len(times), 2 * space.total_dim))
    v = rows[0] = s0.psi.amplitudes.view(float)
    track = [(x, p)]
    # <C> of the normalised state, from the raw one
    mean = float(np.dot(v, np.dot(c_bare, v)) / np.dot(v, v))
    stop = None
    grid = times.tolist()
    for k in range(len(grid) - 1):
        t1 = grid[k + 1]
        dt = t1 - grid[k]
        ch, sh = math.cos(nu * (0.5 * dt)), math.sin(nu * (0.5 * dt))
        x, p = classical_half(x, p, mean, ch, sh)
        bound = dt * (norms[0] + abs(x) * norms[1])
        if not bound <= _STEP_BOUND_MAX:
            stop = ToleranceError(f"quantum step 1-norm bound {bound:.3e} exceeds "
                                  f"{_STEP_BOUND_MAX:.0e} at t={t1:g} (reduce dt)")
            break
        v = _taylor(x * m1 + m0, dt, bound, v)
        mean = float(np.dot(v, np.dot(c_bare, v)) / np.dot(v, v))
        x, p = classical_half(x, p, mean, ch, sh)
        if not (math.isfinite(x) and math.isfinite(p)):
            stop = ToleranceError(f"classical variables diverged at t={t1:g}")
            break
        rows[k + 1] = v
        track.append((x, p))
    n = len(track)
    amps, drift = _checked_state(rows[:n].view(complex), times[:n], cfg,
                                 _boson_top_indices(space))
    if stop is not None:
        raise stop
    amps.setflags(write=False)
    return Trajectory(space, times, amps, classical=track,
                      max_norm_drift=float(drift.max()))


# ---------------------------------------------------------------------------
# closed forms

GOLDEN_RULE_MIN_RATIO = 10.0    # the smallest |delta / g| of the far-detuned regime
DYSON_QUAD_NODES = 96           # Gauss-Legendre nodes per axis in dyson_first_order


def _sinc(x: float) -> float:
    """sin(x)/x with a series branch for very small arguments."""
    if abs(x) < 5e-7:
        return 1.0 - x * x / 6.0
    return math.sin(x) / x


def rabi_probability(g: float, delta: float, t: float) -> float:
    """Resonant-exchange transition probability
    g^2/(g^2+delta^2) * sin^2(sqrt(g^2+delta^2) t / 2)."""
    omega_sq = g * g + delta * delta
    if omega_sq == 0.0:
        return 0.0
    return (g * g / omega_sq) * math.sin(0.5 * math.sqrt(omega_sq) * t) ** 2


def golden_rule_limit(g: float, delta: float, t: float) -> float:
    """Weak-coupling far-detuned limit (g^2/delta^2) sin^2(delta t / 2).

    Valid when delta dominates the coupling; a RegimeWarning is emitted
    below |delta/g| = GOLDEN_RULE_MIN_RATIO.
    """
    if g != 0.0 and abs(delta) < GOLDEN_RULE_MIN_RATIO * abs(g):
        warnings.warn(
            f"golden-rule limit outside validity: |delta/g| = {abs(delta) / abs(g):.2f} "
            f"< {GOLDEN_RULE_MIN_RATIO:g}", RegimeWarning, stacklevel=2)
    return (g * t / 2.0) ** 2 * _sinc(0.5 * delta * t) ** 2


def perturbative_pe(coupling: float, omega: float, nu: float, t: float) -> float:
    """First-order excitation probability of a driven qubit,
    coupling^2 sin^2((omega - nu) t / 2) / (omega - nu)^2.

    The drive amplitude is absorbed into ``coupling``; the raw value is
    returned unclamped and is only meaningful while it stays << 1.
    """
    delta = omega - nu
    return (coupling * t / 2.0) ** 2 * _sinc(0.5 * delta * t) ** 2


def semiclassical_pn1(p: DrivenOscillatorParams, t: float) -> float:
    """First Fock level population of the driven detector in the rotating
    wave approximation, coupling^2 x0^2 (t^2/4) sinc^2((nu - omega) t / 2)."""
    delta = p.nu - p.omega
    amp_sq = (p.coupling * p.x0 * t / 2.0) ** 2
    return amp_sq * _sinc(0.5 * delta * t) ** 2


def _window(k: float, t: float) -> complex:
    """integral_0^t e^{i k s} ds = t e^{i k t / 2} sinc(k t / 2)."""
    return t * cmath.exp(0.5j * k * t) * _sinc(0.5 * k * t)


def coherent_amplitude_beta(p: DrivenOscillatorParams, t: float) -> complex:
    """Drive-induced coherent amplitude
    -i * coupling * integral_0^t x(s) e^{i omega s} ds
    for the displacement x(s) = x0 sin(nu s) that the detector couples to,
    in closed form through sin(nu s) = (e^{i nu s} - e^{-i nu s}) / 2i."""
    integral = (_window(p.omega + p.nu, t) - _window(p.omega - p.nu, t)) / 2j
    return -1j * p.coupling * p.x0 * integral


def pn1_from_amplitude(beta: complex) -> float:
    """P(n=1) of a coherent state with the given amplitude."""
    b2 = abs(beta) ** 2
    return b2 * math.exp(-b2)


@dataclass(frozen=True)
class DysonFirstOrder:
    """First-order transition probability, twice: the closed form and the
    numerically evaluated double time integral."""

    closed_form: float
    quadrature: float


def dyson_first_order(p: BeamSplitterParams, t: float) -> DysonFirstOrder:
    """First-order detector excitation probability of the two-mode exchange
    model with a coherent field of amplitude alpha:

        g^2 |alpha|^2 * |integral_0^t e^{i (nu - omega) s} ds|^2
        = 4 g^2 |alpha|^2 sin^2((nu - omega) t / 2) / (nu - omega)^2.

    The quadrature value evaluates the double integral
    int_0^t int_0^t e^{-i(omega - nu)(t' - t'')} dt' dt'' on a tensor
    Gauss-Legendre rule; closed form and quadrature agree to ~1e-12
    relative at desk scale.  First order is meaningful only while
    |alpha|^2 g^2 t^2 << 1 (the returned probability itself must be small).
    """
    delta = p.nu - p.omega
    amp2 = abs(p.alpha) ** 2
    closed = (p.g * t) ** 2 * amp2 * _sinc(0.5 * delta * t) ** 2

    nodes, weights = np.polynomial.legendre.leggauss(DYSON_QUAD_NODES)
    s = 0.5 * t * (nodes + 1.0)
    w = 0.5 * t * weights
    phase = np.exp(-1j * (p.omega - p.nu) * s)
    # e^{-i(omega-nu)(t'-t'')} = phase(t') * conj(phase(t''))
    row = w * phase
    integral = np.real(np.outer(row, row.conj()).sum())
    return DysonFirstOrder(closed_form=float(closed),
                           quadrature=float(p.g ** 2 * amp2 * integral))
