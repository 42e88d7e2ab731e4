"""Truncated Fock / two-level spaces, the Hamiltonian and state records
on them, and canonical states.

Conventions:
  * ``SpaceDescriptor.levels`` is the one map from flat basis index to
    factor levels; factor 0 varies slowest (``np.indices`` order), so
    ``|n> (x) |g>`` has flat index ``n * 2 + 0``;
  * two-level basis: index 0 = ground ``|g>``, index 1 = excited ``|e>``,
    with ``sigma_z |e> = +|e>``;
  * hard truncation at the Fock cutoff: raising the top level ``|dim-1>``
    gives zero.  The commutator ``[a, a+] = 1`` therefore holds only below
    the top level, and evolution code watches the top-level population to
    keep the truncation error observable.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CoherentTailError,
    FactorError,
    HermiticityError,
    NormalizationError,
)

NORM_ATOL = 1e-9
COHERENT_TAIL_TOL = 1e-12

__all__ = [
    "Boson", "TwoLevel", "SpaceDescriptor", "Hamiltonian", "StateVector",
    "basis_state", "ground_state", "coherent_state", "min_coherent_cutoff",
]


@dataclass(frozen=True)
class Boson:
    """Bosonic mode truncated to Fock levels 0 .. dim-1."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"Boson cutoff must be >= 2, got {self.dim}")


@dataclass(frozen=True)
class TwoLevel:
    """Two-level system; basis index 0 = |g>, 1 = |e>."""

    @property
    def dim(self) -> int:
        return 2


Factor = Boson | TwoLevel


@dataclass(frozen=True)
class SpaceDescriptor:
    """Ordered tensor product of Boson / TwoLevel factors."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("space needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @cached_property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def levels(self) -> np.ndarray:
        """Read-only int table: ``levels[i, k]`` is factor i's level in basis state k."""
        table = np.indices(self.dims).reshape(len(self.dims), -1)
        table.setflags(write=False)
        return table

    def factor(self, index: int) -> Factor:
        if not 0 <= index < len(self.factors):
            raise FactorError(
                f"factor index {index} out of range for {len(self.factors)} factors")
        return self.factors[index]

    def boson_factor(self, index: int) -> Boson:
        f = self.factor(index)
        if not isinstance(f, Boson):
            raise FactorError(f"factor {index} is not a bosonic mode")
        return f


def _readonly(arr, dtype=complex) -> np.ndarray:
    """``arr`` as a read-only C-contiguous ``dtype`` array: taken as it is
    when it already is one, else copied, so a caller's array stays its own."""
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out.flags.writeable and np.may_share_memory(out, arr):
        out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """H = diag(diagonal) + hops, each hop ``(src, dst, amp)`` the term
    ``amp |dst><src| + h.c.``: the one form of every Hamiltonian, immutable.
    Checked at construction: a real (else HermiticityError), finite
    ``(d,)`` diagonal; integer hop arrays of one length, indices in range,
    finite amplitudes; no self-loop or repeated unordered pair, which the
    block propagator's layout would overwrite instead of adding.  Other bad
    input raises ValueError."""

    space: SpaceDescriptor
    diagonal: np.ndarray
    hops: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        d = self.space.total_dim
        diagonal = np.asarray(self.diagonal)
        if np.iscomplexobj(diagonal) and np.any(diagonal.imag != 0):
            raise HermiticityError("the diagonal of a hermitian H must be real")
        diagonal = _readonly(diagonal.real, float)
        src, dst, amp = (np.asarray(a) for a in self.hops)
        if any(i.size and i.dtype.kind not in "iu" for i in (src, dst)):
            raise ValueError("hop indices must be integers")
        src, dst = _readonly(src, np.intp), _readonly(dst, np.intp)
        amp = _readonly(amp, np.result_type(amp, float))
        if diagonal.shape != (d,) or src.ndim != 1 or not src.shape == dst.shape == amp.shape:
            raise ValueError(f"space dim {d} needs a ({d},) diagonal and hop "
                             "arrays of one length")
        if not (np.all(np.isfinite(diagonal)) and np.all(np.isfinite(amp))):
            raise ValueError("the diagonal and the hop amplitudes must be finite")
        if np.any((src < 0) | (src >= d) | (dst < 0) | (dst >= d)):
            raise ValueError(f"hop index out of range for space dim {d}")
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        if np.any(lo == hi):
            raise ValueError("a hop may not join a basis state to itself")
        if np.unique(lo * d + hi).size != lo.size:
            raise ValueError("a pair of basis states is joined by more than one hop")
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "hops", (src, dst, amp))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitude vector over the composite basis."""

    space: SpaceDescriptor
    amplitudes: np.ndarray

    def __post_init__(self):
        v = _readonly(self.amplitudes)
        if v.shape != (self.space.total_dim,):
            raise ValueError(
                f"amplitude length {v.shape} does not match space dim {self.space.total_dim}")
        nrm = float(np.linalg.norm(v))
        if not abs(nrm - 1.0) <= NORM_ATOL:     # NaN norms fail too
            raise NormalizationError(f"state norm {nrm!r} outside 1 +/- {NORM_ATOL}")
        object.__setattr__(self, "amplitudes", v)

    def marginal_populations(self, factor_index: int) -> np.ndarray:
        """Populations of factor ``factor_index`` after summing out the rest."""
        self.space.factor(factor_index)
        return np.bincount(self.space.levels[factor_index],
                           weights=np.abs(self.amplitudes) ** 2,
                           minlength=self.space.dims[factor_index])

    def population(self, factor_index: int, level: int) -> float:
        pops = self.marginal_populations(factor_index)
        if not 0 <= level < pops.size:
            raise FactorError(f"level {level} out of range for factor {factor_index}")
        return float(pops[level])


# ---------------------------------------------------------------------------
# states


def basis_state(space: SpaceDescriptor, levels) -> StateVector:
    """Product basis state with the given level on each factor."""
    levels = tuple(levels)
    if len(levels) != len(space.factors):
        raise ValueError("one level per factor required")
    if not all(0 <= lv < dim for lv, dim in zip(levels, space.dims)):
        raise ValueError(f"levels {list(levels)} out of range for factor dims {space.dims}")
    amp = np.zeros(space.total_dim, dtype=complex)
    amp[np.ravel_multi_index(levels, space.dims)] = 1.0
    return StateVector(space, amp)


def ground_state(space: SpaceDescriptor) -> StateVector:
    return basis_state(space, [0] * len(space.factors))


def poisson_tail(mean: float, cutoff_dim: int) -> float:
    """Probability mass of a Poisson(mean) at or above cutoff_dim.

    The terms mean^k / k! are built relative to the largest, at the mode
    floor(mean), by cumulative products of mean / k above it and k / mean
    below it, so none overflows or underflows whatever the mean.
    ``math.fsum`` adds the tail, and the bulk within ``width`` of the mode
    that normalises it; each leaves out less than 1e-16 of itself.  Past
    five widths above the mode every term is below 1e-300, and the tail
    there is returned as 0.
    """
    mode = math.floor(mean)
    width = math.ceil(10 * math.sqrt(mean)) + 40
    lo = max(mode - width, 0)
    if cutoff_dim <= lo:
        return 1.0
    if cutoff_dim >= mode + 5 * width:
        return 0.0
    down = np.cumprod(np.arange(mode, lo, -1) / mean)[::-1]
    up = np.cumprod(mean / np.arange(mode + 1, max(cutoff_dim, mode) + width))
    terms = np.concatenate((down, [1.0], up)).tolist()     # k = lo, lo + 1, ...
    return math.fsum(terms[cutoff_dim - lo:]) / math.fsum(terms[:mode + width - lo])


def min_coherent_cutoff(alpha: complex) -> int:
    """Smallest Fock dim whose Poisson tail is within ``COHERENT_TAIL_TOL``."""
    mean = abs(alpha) ** 2

    def within(dim):
        return poisson_tail(mean, dim) <= COHERENT_TAIL_TOL

    # the tail falls monotonically with dim: double dim until it is within
    # tolerance, then bisect the last doubling for the first dim that is
    dim = 2
    while not within(dim):
        dim *= 2
    return bisect.bisect_left(range(dim + 1), True, lo=max(2, dim // 2 + 1), key=within)


def check_coherent_cutoff(alpha: complex, dim: int) -> None:
    """Raise CoherentTailError when the Fock cutoff ``dim`` leaves more than
    ``COHERENT_TAIL_TOL`` of the coherent state's Poisson mass above it."""
    mean = abs(alpha) ** 2
    tail = poisson_tail(mean, dim)
    if tail > COHERENT_TAIL_TOL:
        raise CoherentTailError(
            f"cutoff {dim} leaves tail mass {tail:.3e} > {COHERENT_TAIL_TOL:.3e} "
            f"for |alpha|^2 = {mean:g}")


def coherent_state(space: SpaceDescriptor, factor_index: int,
                   alpha: complex) -> StateVector:
    """Coherent state of amplitude ``alpha`` on one bosonic factor, ground
    state on all others.

    Fails loudly (CoherentTailError) when the truncated tail mass exceeds
    ``COHERENT_TAIL_TOL`` instead of silently renormalizing a bad cutoff.
    """
    dim = space.boson_factor(factor_index).dim
    check_coherent_cutoff(alpha, dim)
    mean = abs(alpha) ** 2
    n = np.arange(dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    mags = np.exp(-mean / 2.0 + n * np.log(abs(alpha)) - log_fact / 2.0) \
        if mean > 0 else np.eye(dim)[0]
    phases = np.exp(1j * n * np.angle(alpha)) if mean > 0 else np.ones(dim)
    amp = mags * phases
    others = np.delete(space.levels, factor_index, axis=0)
    psi = np.zeros(space.total_dim, dtype=complex)
    psi[~others.any(axis=0)] = amp / np.linalg.norm(amp)    # the others on level 0
    return StateVector(space, psi)

