"""Time-evolution engines and closed-form transition probabilities.

Three propagators, each the one route of its model kind:

* ``evolve_unitary`` / ``evolve_unitary_at`` -- exact propagation under a
  time-independent ``Hamiltonian`` record, a real diagonal plus hops, by
  the batch kernel ``_evolve_blocks``, which diagonalises block by block
  along the connected components of the hop graph, so no Hamiltonian is
  ever a dense matrix.  A quantized scan is one batch, and
  ``evolve_unitary_at`` (and so every quantized audit) a batch of one;
* ``evolve_driven`` -- Schroedinger evolution under a sinusoidal classical
  drive ``x(t) = x0 sin(nu t)``, with the Hamiltonian frozen at interval
  midpoints (second order in dt).  It is one run of the stepping kernel
  ``_evolve_driven_batch``, which every prescribed-drive run goes
  through, scans included.  Only the drive shape y = sin(nu t) changes
  from step to step, so each distinct (step length, amplitude) gets one
  table ``F_j`` with ``exp(-i dt (h0 + x0 y c)) = sum_j y^j F_j`` from one
  ``_taylor`` call on a block matrix; runs then step together in chunks
  of a multiple of 8 steps, at most ``_DRIVE_CHUNK_BYTES`` (2 MiB) of
  propagators or one block of 8 steps per run, each chunk with one BLAS
  product of the steps' powers of y against the tables per term count of
  the live runs, in fixed blocks of 8 steps, and one guard pass; only a
  chunk that some run leaves does that run's bookkeeping.  A scan
  scenario steps all the points of all its axes in one such batch;
* ``evolve_hybrid`` -- mean-field evolution where the classical pair
  ``(x, p)`` obeys Hamilton's equations sourced by quantum expectation
  values, advanced by a Strang split (exact classical half-flows around a
  ``_taylor`` quantum step on the state's real view), second order overall.

``_taylor`` is the one matrix exponential of both driven kernels: a
power-form Taylor sum for ``exp(h g) v`` (the powers (h g)^j v, one BLAS
product each into a caller-owned workspace, weighted by 1/j! in one more
product, v added last) whose degree and substeps follow from a 1-norm
bound on h g, which ``_STEP_BOUND_MAX`` caps for every driven step.

The kernels only propagate raw states, and one guard judges them all:
a ``_guard`` call on a ``(steps, runs, d)`` stack of raw states holds
their norm drift since t = 0 and the top Fock level of each bosonic
factor (``SpaceDescriptor._bosons``) to ``EvolutionConfig``'s class bounds,
names each tripped run's earliest trip and returns the norms by which
a kernel normalises the states it keeps.  Both are ``einsum``
contractions of the stack's real view, one state at a time.  Each
propagator hands its frozen amplitude array to its ``Trajectory``
uncopied.

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
from typing import ClassVar

import numpy as np

from .errors import (
    FactorError,
    NormalizationError,
    RegimeWarning,
    ToleranceError,
)
from .hilbert import (
    NORM_ATOL,
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
    "coherent_amplitude_beta", "pn1_from_amplitude",
]


class Method(enum.Enum):
    MATRIX_EXPONENTIAL = "matrix_exponential"
    MIDPOINT = "midpoint_piecewise"


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    t_max: float
    method: Method = Method.MATRIX_EXPONENTIAL
    # the guard bounds of every run (``_guard``), which no config sets
    norm_drift_tol: ClassVar[float] = 1e-9
    top_level_tol: ClassVar[float] = 1e-8

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if not (self.t_max >= self.dt and math.isfinite(self.t_max)):
            raise ValueError("t_max must be finite and >= dt")

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
    max_norm_drift: float
    classical: np.ndarray | None = None     # shape (n, 2): columns x, p

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


def _guard(raw: np.ndarray, t, space: SpaceDescriptor, taken=True):
    """The norm and top-level guards, at ``EvolutionConfig``'s class bounds,
    on a stack ``(steps, runs, d)`` of raw states at times t, where each
    run takes the steps ``taken`` (t and taken broadcast to ``(steps,
    runs)``).  A non-finite norm counts as drift; a step a run does not
    take is not judged.

    Returns the raw norms ``(steps, runs)``, by which a caller normalises
    only the states it keeps, each run's worst raw norm drift over the
    steps it takes and ``{run: ToleranceError}`` for each run that trips,
    naming its earliest tripped step (by t, in any order; ties go to the
    first step).  A pass where nothing trips does no per-run work.

    The squared norms and the top-level populations are ``einsum``
    contractions of the stack's real view, the (re, im) pairs of each
    state: no complex ``abs``, probability array or copy of the top slots.
    Read as ``(..., *dims, 2)``, that view holds a factor's top level at one
    index, and its population is the contraction of the axes left.  Each
    sum runs over one state alone, so it does not depend on the stack.
    """
    norm_tol, top_tol = EvolutionConfig.norm_drift_tol, EvolutionConfig.top_level_tol
    parts = np.asarray(raw, dtype=complex).view(float)
    nrm_sq = np.einsum("...i,...i->...", parts, parts)
    nrm = np.sqrt(nrm_sq)
    drift = np.where(taken, np.abs(nrm - 1.0), 0.0)
    tripped = ~(drift <= norm_tol)
    dims = space.dims
    grid = parts.reshape(*raw.shape[:-1], *dims, 2)
    rest = "abcdefghijklmnopqrstuvwxyz"[:len(dims)]     # the other factors and (re, im)
    pops = []
    for i in space._bosons:
        top = grid[(..., dims[i] - 1) + (slice(None),) * (len(dims) - i)]
        pops.append(np.einsum(f"...{rest},...{rest}->...", top, top) / nrm_sq)
        tripped |= pops[-1] > top_tol
    tripped &= taken
    trips = {}
    for r in np.flatnonzero(tripped.any(axis=0)).tolist():
        at = np.broadcast_to(t, tripped.shape)[:, r]
        i = np.argmin(np.where(tripped[:, r], at, np.inf))
        if not drift[i, r] <= norm_tol:
            trips[r] = ToleranceError(f"norm drift {drift[i, r]:.3e} exceeds {norm_tol:.1e} "
                                      f"at t={at[i]:g} (reduce dt)")
            continue
        idx, pop = next((idx, pop[i, r]) for idx, pop in zip(space._bosons, pops)
                        if pop[i, r] > top_tol)
        trips[r] = ToleranceError(f"top Fock level of factor {idx} holds population "
                                  f"{pop:.3e} > {top_tol:.1e} at t={at[i]:g} (raise the cutoff)")
    return nrm, drift.max(axis=0), trips


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
                   psi0s: Sequence[StateVector], grids):
    """exp(-i H_k t) psi0s[k] at each t of the array ``grids[k]``, for a
    batch of points k with H_k = diag(diagonals[k]) + hops: the one route
    of every quantized evolution, ``evolve_unitary_at`` being a batch of one.

    One ``_block_eigh`` decomposes every distinct H_k of the batch.  Then,
    point by point, each block-size class forms every sample of the
    point's grid in one stacked product ``v (exp(-i w t) v^H psi0)``, a
    sample at t = 0 is psi0 itself (so U(0) = I exactly), and one
    ``_guard`` call judges every sample as a run of one.  There is no
    integration error.

    Yields, point by point, so that a caller keeps only what it needs:
    the normalised amplitudes ``(len(grids[k]), d)`` (None on a trip), the
    worst raw norm drift and the ToleranceError of the earliest tripped
    sample (None where the point passed).
    """
    if any(psi0.space != space for psi0 in psi0s):
        raise ValueError("Hamiltonian and initial state live on different spaces")
    inverse, classes = _block_eigh(diagonals, hops)
    for u, psi0, times in zip(inverse, psi0s, grids):
        amps = np.empty((len(times), space.total_dim), dtype=complex)
        for idx, w, v in classes:
            coeffs = v[u].conj().swapaxes(1, 2) @ psi0.amplitudes[idx][..., None]
            phases = np.exp(-1j * w[u] * times[:, None, None])[..., None]
            amps[:, idx] = (v[u] @ (phases * coeffs))[..., 0]
        amps[times == 0] = psi0.amplitudes
        nrm, worst, trips = _guard(amps[:, None], times[:, None], space)
        error = trips.get(0)
        if error is None:
            amps /= nrm
        yield (amps if error is None else None), float(worst[0]), error


def evolve_unitary_at(h: Hamiltonian, psi0: StateVector, times,
                      cfg: EvolutionConfig) -> Trajectory:
    """Exact propagation exp(-i h t) psi0 sampled at arbitrary times, which
    must be a non-empty list of finite numbers (ValueError otherwise).

    The diagonal and hops of ``h`` go through ``_evolve_blocks`` as a
    batch of one: no integration error, and the norm / top-level guards
    run per sample; a trip is raised at the earliest tripped time.  The
    guard bounds are ``EvolutionConfig``'s class bounds: ``cfg`` is not read.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not times.size or not np.all(np.isfinite(times)):
        raise ValueError("sample times must be a non-empty list of finite numbers")
    ((amps, worst, error),) = _evolve_blocks(h.space, h.diagonal[None], h.hops, [psi0],
                                             [times])
    if error is not None:
        raise error
    amps.setflags(write=False)
    return Trajectory(h.space, times, amps, max_norm_drift=worst)


def evolve_unitary(h: Hamiltonian, psi0: StateVector, cfg: EvolutionConfig) -> Trajectory:
    """``evolve_unitary_at`` on the dt grid, which only sets the sampling density."""
    return evolve_unitary_at(h, psi0, cfg.time_grid(), cfg)


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


# 1/j! for j = 1, ..., 30: the weights of a Taylor sum's powers
_INV_FACTORIAL = np.array([1.0 / math.factorial(j) for j in range(1, len(_TAYLOR_REACH) + 1)])


def _taylor_work(v: np.ndarray, degree: int):
    """A ``_taylor`` workspace for vectors or column blocks shaped like v,
    up to ``degree``: degree + 1 rows, the last the substeps' spare, as
    one ``(degree + 1, v.size)`` array and as the list of its rows."""
    block = np.empty((degree + 1, *v.shape), dtype=v.dtype)
    return block.reshape(degree + 1, -1), list(block)


def _taylor(a: np.ndarray, degree: int, substeps: int, v: np.ndarray, work,
            out: np.ndarray) -> np.ndarray:
    """exp(s a) v into ``out``, for one vector or a block of columns v: s =
    ``substeps`` Taylor sums of degree ``degree`` in a = h g / s, the plan
    (``_taylor_plan``) of a 1-norm bound on h g, so that each first omitted
    term is at most 2^-53.  The one exponential of every driven step.

    Each substep is a Taylor sum in power form: the powers P_j = a^j v,
    j = 1, ..., m, each one product into a row of ``work``
    (``_taylor_work``, allocated by the caller), then one product of the
    powers against the weights 1/j!, and v added last.  The last substep
    writes ``out`` and the others alternate with the spare row, so no
    substep writes the vector it reads; ``out`` must not be v, and v is
    left as it is.  Returns ``out``.
    """
    flat, rows = work
    powers, weights = flat[:degree], _INV_FACTORIAL[:degree]
    for left in range(substeps - 1, -1, -1):
        target = rows[-1] if left % 2 else out
        prev = v
        for row in rows[:degree]:
            a.dot(prev, row)
            prev = row
        weights.dot(powers, target.reshape(-1))
        target += v
        v = target
    return out


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
    column of the identity, on a workspace of its own, gives them all, with
    the plan of the bound ``h (|h0|_1 + |x0| |c|_1)``, which bounds every
    step's too, as |y| <= 1.
    """
    degree, substeps = _taylor_plan(dt * abs(x0) * norms[1])
    d, h = len(h0), dt / substeps
    n = (degree + 1) * d
    m, s = _taylor_plan(h * (norms[0] + abs(x0) * norms[1]))
    a = np.zeros((n, n), dtype=complex)
    for j in range(degree + 1):
        a[j * d:(j + 1) * d, j * d:(j + 1) * d] = -1j * h0
        if j:
            a[(j - 1) * d:j * d, j * d:(j + 1) * d] = (-1j * x0) * c
    a *= h / s
    v = np.eye(n, d, d - n, dtype=complex)
    f = _taylor(a, m, s, v, _taylor_work(v, m), np.empty_like(v))
    return f.reshape(degree + 1, d, d)[::-1], substeps


# the steps per row block of ``_table_step``'s products
_STEP_BLOCK = 8


def _step_groups(tables: np.ndarray, terms: np.ndarray, substeps: np.ndarray,
                 keys: np.ndarray) -> list:
    """The groups ``_table_step`` takes for runs that step through the
    built tables ``keys``: one per stretch of consecutive runs whose
    tables share a term count J + 1 and a substep count s, as
    ``(columns, views, s)``, the columns a slice of the runs and the
    views ``(L_g, J + 1, d, 2d)`` the real views of their tables,
    gathered from the zero-padded stack ``tables`` and cut at J + 1, top
    power first."""
    cuts = np.flatnonzero((np.diff(terms[keys]) != 0) | (np.diff(substeps[keys]) != 0)) + 1
    edges = [0, *cuts.tolist(), len(keys)]
    return [(slice(a, b), np.ascontiguousarray(tables[keys[a:b], terms[keys[a]] - 1::-1]),
             int(substeps[keys[a]]))
            for a, b in zip(edges[:-1], edges[1:])]


def _table_step(groups: list, y: np.ndarray) -> np.ndarray:
    """The step propagators ``(K, L, d, d)`` of L runs at drive shapes
    y = sin(nu t) ``(K, L)``, from the runs' tables in ``groups``
    (``_step_groups``).

    Per group, the powers y^j ``(L_g, K, J + 1)`` are one product each,
    top power first, against the group's drive shapes, taken once from
    the transposed y, and the sum ``u = sum_j y^j F_j`` is one BLAS
    product ``np.matmul`` over the group's own J + 1 terms, written
    straight into the group's columns of u.  The product takes the steps
    in blocks of ``_STEP_BLOCK``, ``(L_g, blocks, 8, J + 1) @ (L_g, 1,
    J + 1, 2d^2)``, the last block padded with zero powers, so step k of
    a run sits in row k mod 8 of a product of one fixed shape whatever K
    and the batch are: BLAS kernels choose their code by a product's row
    count, and a matrix-vector product for K = 1 would round otherwise.
    A group with s > 1 substeps then takes u^s, one
    ``np.linalg.matrix_power`` on the stack of its propagators.  Every
    operation acts on each run alone, so each run gives the bits it gets
    alone, in any group and in any chunk that starts at a multiple of 8
    steps.
    """
    steps, dim = len(y), groups[0][1].shape[2]
    padded = -(-steps // _STEP_BLOCK) * _STEP_BLOCK
    u = np.empty((padded, y.shape[1], dim, dim), dtype=complex)
    # u's real view as (blocks, 8, L, 2d^2): a group's out is its columns
    flat = u.view(float).reshape(-1, _STEP_BLOCK, y.shape[1], 2 * dim * dim)
    shapes = y.T
    for columns, tables, substeps in groups:
        runs, terms = tables.shape[:2]
        powers = np.zeros((runs, padded, terms))
        powers[:, :steps, -1] = 1.0
        y_g = shapes[columns]
        for j in range(terms - 2, -1, -1):
            np.multiply(powers[:, :steps, j + 1], y_g, out=powers[:, :steps, j])
        np.matmul(powers.reshape(runs, -1, _STEP_BLOCK, terms),
                  tables.reshape(runs, 1, terms, -1),
                  out=flat[:, :, columns].transpose(2, 0, 1, 3))
        if substeps > 1:
            u[:steps, columns] = np.linalg.matrix_power(u[:steps, columns], substeps)
    return u[:steps]


# the bytes of step propagators (runs x steps) that exist at once: 2048 at
# d = 8, or one block of steps per run if the batch holds more runs.  Each
# chunk costs a fixed train of small array calls besides its products, which
# longer chunks pay less often: on the driven signatures (75 runs at d = 8)
# 2 MiB ran about 3 % faster than 1 MiB, and 4 MiB no faster than 2 MiB
_DRIVE_CHUNK_BYTES = 2 << 20


def _evolve_driven_batch(h0, c, psi0: StateVector, x0s, nus, t_ends, n_steps,
                         states: np.ndarray | None = None):
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
    live runs, ordered by their tables' term and substep counts, step
    together in chunks of ``max(8, P // live // 8 * 8)`` steps, where P
    propagators fill ``_DRIVE_CHUNK_BYTES`` (2048 at d = 8), so at most
    max(P, 8 live) propagators exist at once: each chunk's arrays are
    released before the next chunk builds.  Every chunk but the last
    holds a multiple of 8 steps, so each starts at a multiple of 8, as
    ``_table_step``'s blocks need for a run to keep the bits it gets
    alone.  Per chunk: the
    propagators of every (step, run) from the tables at the steps' drive
    shapes (``_table_step``, whose groups are gathered again only when the
    live set changes); a serial loop of one batched matvec per step on
    the raw, never renormalised state; one ``_guard`` call on the chunk's
    raw states, which judges only the steps each run takes, so a run
    takes the earliest trip among them.  ``psi0`` is judged by one more
    call before the first step.  Only the states that are stored or final
    are normalised.  A run leaves at the end of the chunk in which it
    finishes or trips: only such a chunk picks out the runs that leave,
    their final states and worst drifts, and compacts the live set, and
    only a chunk that holds some run's last step sets that step's end to
    t_end.  Any other chunk keeps the live runs' worst drifts in an array
    aligned with them and ends with one copy of the last states.

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
    n_runs, dim = len(n_steps), psi0.space.total_dim
    per_chunk = max(1, _DRIVE_CHUNK_BYTES // (16 * dim * dim))
    final = np.full((n_runs, dim), np.nan, dtype=complex)
    errors = [None] * n_runs

    nrm0, worst0, trips = _guard(psi0.amplitudes[None, None], 0.0, psi0.space)
    if trips:
        raise trips[0]
    if states is not None:
        states[0] = psi0.amplitudes / nrm0[0]
    worst = np.full(n_runs, worst0[0])
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
    # runs that share a table's term and substep counts sit side by side
    live = live[np.lexsort((substeps[key[live]], terms[key[live]]))]

    amp = np.repeat(psi0.amplitudes[None, :, None], live.size, axis=0)
    lo, groups = 0, None
    # steps past a guard trip or a run's end may overflow or turn NaN;
    # the guard pass only judges the steps before both
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        while live.size:
            if groups is None:
                n, dt, nu, t_end = n_steps[live], dts[live], nus[live], t_ends[live]
                groups = _step_groups(tables, terms, substeps, key[live])
                # the live runs' worst drift so far, and the first step count
                # at which one of them finishes
                live_worst, first_end = worst[live], n.min()
            # step k of every live run as a (steps, 1) column against (runs,)
            k = lo + np.arange(min(max(_STEP_BLOCK, per_chunk // live.size
                                           // _STEP_BLOCK * _STEP_BLOCK),
                                       n.max() - lo))[:, None]
            hi = lo + len(k)
            t0, t1 = k * dt, (k + 1) * dt
            if hi >= first_end:
                t1 = np.where(k == n - 1, t_end, t1)
            u = _table_step(groups, np.sin(nu * (0.5 * (t0 + t1))))
            # states as (runs, d, 1) columns: a step is one stacked matvec
            raw = np.empty((len(k), live.size, dim, 1), dtype=complex)
            for j in range(len(k)):
                amp = np.matmul(u[j], amp, out=raw[j])
            del u
            raw = raw[..., 0]
            nrm, drift, trips = _guard(raw, t1, psi0.space, k < n)
            np.maximum(live_worst, drift, out=live_worst)
            if states is not None:
                states[lo + 1:hi + 1, live] = raw / nrm[..., None]
            if trips or hi >= first_end:
                # runs that trip or finish leave, with their final states
                failed = np.zeros(live.size, dtype=bool)
                for b, error in trips.items():
                    errors[live[b]], failed[b] = error, True
                finished = n <= hi
                done = np.flatnonzero(~failed & finished)
                last = n[done] - 1 - lo
                final[live[done]] = raw[last, done] / nrm[last, done, None]
                worst[live] = live_worst
                keep = ~(failed | finished)
                live, groups = live[keep], None
                amp = amp[keep]
            else:
                # a copy of the last states, so that the chunk's arrays are freed
                amp = amp.copy()
            lo = hi
            del raw, nrm
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
        [cfg.t_max], [cfg.n_steps], states=amps)
    if errors[0] is not None:
        raise errors[0]
    amps.setflags(write=False)
    # the prescribed drive track x = x0 sin(nu t), p = x0 cos(nu t)
    phase = params.nu * times
    track = params.x0 * np.column_stack([np.sin(phase), np.cos(phase)])
    return Trajectory(space, times, amps[:, 0], classical=track,
                      max_norm_drift=float(worst[0]))


def evolve_hybrid(model: ModelSpec, s0: HybridState, cfg: EvolutionConfig) -> Trajectory:
    """Mean-field evolution of (x, p, psi) under the Strang split.

    Classical flow (exact, symplectic for each frozen expectation):
        dx/dt = nu p,   dp/dt = -nu x - coupling <C> = -nu x - <c>,
    with C = sigma_x for the qubit and C = b + b^+ for the oscillator,
    and c = coupling C the coupling part of the Hamiltonian.  Each step
    of ``cfg.time_grid()`` is a classical half-flow, the quantum step
    ``exp(-i (h0 + x c) h)`` at the half-step x, and a classical
    half-flow with the refreshed <c>.

    The state is held in its real view (``_real_form``), so the quantum
    step is ``_taylor`` on the state with g = x m1 + m0, the real forms of
    -i c and -i h0: a Taylor sum whose degree and substeps follow from the
    1-norm bound ``h (|h0|_1 + |x| |c|_1)`` (past ``_STEP_BOUND_MAX`` it
    raises), with no decomposition.  Every step has the grid rule's own
    length h = t_max / n (``_steps``), so the half-flows' rotation is
    computed once.  Every buffer is allocated once per run: the step's
    h g / s is one product of (x / s, 1 / s) with the stacked pair
    (h m1, h m0), the Taylor powers go to one ``_taylor_work``, and each
    step writes its row of the stored states.  The run carries and stores
    the raw state; the force <c> over the squared norm, feeding both
    half-flows, is two products: the stacked ``[c; I]`` (real forms) times
    v gives (c v, v), and that pair times v gives (<v|c|v>, <v|v>).  One
    ``_guard`` call then judges the stored rows, which are normalised in
    place by its norms: a run that trips raises after its last step, or
    after an abort, whose earlier trips win.  The tests hold the
    amplitudes and (x, p) to a per-step eigendecomposition loop within
    1e-12 absolute and the worst norm drift within 1e-14.
    """
    if not model.back_reaction:
        raise ValueError("evolve_hybrid needs a back-reaction (mean-field) model")
    space, nu = model.params.space, model.params.nu
    h0, c = model.params.free_and_coupling()
    if s0.psi.space != space:
        raise ValueError("initial quantum state space does not match the model")
    times = cfg.time_grid()
    h = cfg.t_max / cfg.n_steps
    norms = [np.abs(m).sum(axis=0).max(initial=0.0) for m in (h0, c)]
    dim = 2 * space.total_dim
    pair = (h * np.stack([_real_form(-1j * c), _real_form(-1j * h0)])).reshape(2, -1)
    coef = np.ones(2)
    g_flat = np.empty(dim * dim)
    g = g_flat.reshape(dim, dim)
    c_and_one = np.vstack([_real_form(c), np.eye(dim)])
    cv = np.empty(2 * dim)
    cv_pair, sums = cv.reshape(2, dim), np.empty(2)

    x, p = float(s0.x), float(s0.p)
    if not (math.isfinite(x) and math.isfinite(p)):
        raise ValueError("classical initial conditions must be finite")
    # exact rotation of the displaced harmonic flow over a half step: the
    # cos and sin of nu h / 2
    ch, sh = math.cos(nu * (0.5 * h)), math.sin(nu * (0.5 * h))

    # raw rows of (re, im) pairs, read as complex by the guard pass
    rows = np.empty((len(times), dim))
    v = rows[0] = s0.psi.amplitudes.view(float)
    work = _taylor_work(v, len(_TAYLOR_REACH))
    track = [(x, p)]
    # <c> of the normalised state, from the raw one
    c_and_one.dot(v, cv)
    cv_pair.dot(v, sums)
    num, den = sums.tolist()
    mean = num / den
    stop = None
    for k in range(1, len(times)):
        xc = -mean / nu
        dx = x - xc
        x, p = xc + dx * ch + p * sh, p * ch - dx * sh
        bound = h * (norms[0] + abs(x) * norms[1])
        if not bound <= _STEP_BOUND_MAX:
            stop = ToleranceError(f"quantum step 1-norm bound {bound:.3e} exceeds "
                                  f"{_STEP_BOUND_MAX:.0e} at t={times[k]:g} (reduce dt)")
            break
        degree, substeps = _taylor_plan(bound)
        coef[0], coef[1] = x / substeps, 1.0 / substeps
        coef.dot(pair, g_flat)
        v = _taylor(g, degree, substeps, v, work, rows[k])
        c_and_one.dot(v, cv)
        cv_pair.dot(v, sums)
        num, den = sums.tolist()
        mean = num / den
        xc = -mean / nu
        dx = x - xc
        x, p = xc + dx * ch + p * sh, p * ch - dx * sh
        if not (math.isfinite(x) and math.isfinite(p)):
            stop = ToleranceError(f"classical variables diverged at t={times[k]:g}")
            break
        track.append((x, p))
    raw = rows[:len(track)].view(complex)
    nrm, worst, trips = _guard(raw[:, None], times[:len(track), None], space)
    error = trips.get(0, stop)
    if error is not None:
        raise error
    raw /= nrm      # normalised in place: no second trajectory-size array
    raw.setflags(write=False)
    return Trajectory(space, times, raw, classical=track, max_norm_drift=float(worst[0]))


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
    g^2/(g^2+delta^2) * sin^2(sqrt(g^2+delta^2) t / 2), with the Rabi
    frequency from ``math.hypot``, so that no square overflows."""
    omega = math.hypot(g, delta)
    if omega == 0.0:
        return 0.0
    # g and delta scaled exactly by a power of two, to a frequency in [1/2, 1)
    k = -math.frexp(omega)[1]
    gs, ds = math.ldexp(g, k), math.ldexp(delta, k)
    return (gs * gs / (gs * gs + ds * ds)) * math.sin(0.5 * omega * t) ** 2


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
