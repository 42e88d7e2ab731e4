"""Model families for radiation-detector energy exchange.

All Hamiltonians are built in natural units (hbar = 1, frequencies are
rates), so an energy and an angular frequency carry the same number.  SI
quantities appear only in the gravitational-wave mappings at the bottom,
which consume the pinned constants table.  The SI contract for the drive
coupling is energy per unit displacement: the interaction term is
``coupling * x(t) * (b + b^+)`` (or ``... * sigma_x``).

The classical drive mode oscillates at its own frequency ``nu``; its free
energy is ``(nu / 2) (x^2 + p^2)`` so that ``x(t) = x0 sin(nu t)`` is the
free solution of the rescaled phase-space pair ``(x, p)``.

Each params class is the record of its family (``_Family``): its space
(built at construction, where ``hilbert.Boson`` checks each cutoff), its
Hamiltonian parts written from the Fock labels, its detector factor, its
default initial state, its intensity field and whether it is classically
driven.  Every other layer reads a family from its record.  A Hamiltonian
is a ``hilbert.Hamiltonian`` record, a diagonal plus hops; only the driven
families' stepping kernels take dense parts (``free_and_coupling``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

from .constants import DEFAULT_CONSTANTS
from .hilbert import (
    Boson,
    Hamiltonian,
    SpaceDescriptor,
    StateVector,
    TwoLevel,
    basis_state,
    check_coherent_cutoff,
    coherent_state,
    ground_state,
)

__all__ = [
    "ModelFamily", "ModelSpec", "QubitSemiClassicalParams",
    "JaynesCummingsParams", "BeamSplitterParams", "DrivenOscillatorParams",
    "GravitoParams", "build_jc_hamiltonian", "build_beam_splitter_hamiltonian",
    "gravito_vacuum_coupling", "gravito_classical_params",
    "gravito_interaction_coefficient", "gw_energy_density",
]


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value}")
    _require_finite(**kwargs)


def _require_nonnegative(**kwargs):
    for name, value in kwargs.items():
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    _require_finite(**kwargs)


def _require_finite(**kwargs):
    for name, value in kwargs.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _dense(diagonal: np.ndarray, hops=None) -> np.ndarray:
    """Symmetric matrix with the given diagonal plus, for each hop
    ``(src, dst, amp)``, ``amp`` at (dst, src) and (src, dst): the driven
    families' real parts, which their stepping kernels take dense."""
    m = np.diag(diagonal)
    if hops is not None:
        src, dst, amp = hops
        m = m.astype(np.result_type(m, amp), copy=False)
        m[dst, src] = m[src, dst] = amp
    return m


class _Family:
    """The record of a model family: the one place a family is declared.

    The Hamiltonian is H(x) = field_free + detector_free + x * coupling,
    with x = x(t) the classical drive of the driven families and x = 1
    for the quantized ones.  ``parts()`` gives the free parts as their
    diagonals in the Fock basis and the coupling as hops
    ``(src, dst, amp)``, each hop the term ``amp (|dst><src| + |src><dst|)``,
    all written from the Fock labels of the basis.
    """

    detector: ClassVar[int]                 # factor index of the detector
    intensity_field: ClassVar[str | None]   # parameter whose square is the intensity
    driven: ClassVar[bool]                  # coupling multiplied by a classical x(t)

    def default_initial_state(self) -> StateVector:
        return ground_state(self.space)

    def hamiltonian(self) -> Hamiltonian:
        """H at x = 1 as a record, the free diagonal plus the coupling hops:
        a quantized family's Hamiltonian (the driven kernels step on
        ``free_and_coupling``)."""
        field, detector, hops = self.parts()
        return Hamiltonian(self.space, field + detector, hops)

    def detector_levels(self) -> np.ndarray:
        """The detector's level in every basis state: its excitation number."""
        return self.space.levels[self.detector]

    def free_and_coupling(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense free and coupling parts, H(x) = free + x * coupling: real
        arrays, since every family writes its parts from real numbers."""
        field, detector, hops = self.parts()
        return _dense(field + detector), _dense(np.zeros_like(field), hops)


@dataclass(frozen=True)
class QubitSemiClassicalParams(_Family):
    """Classical drive mode coupled to a qubit (no back-reaction unless the
    owning ModelSpec sets it)."""

    omega: float        # qubit gap
    nu: float           # drive frequency
    coupling: float     # interaction strength per unit displacement
    x0: float           # drive amplitude

    detector = 0
    intensity_field = "x0"
    driven = True

    def __post_init__(self):
        _require_positive(omega=self.omega, nu=self.nu)
        _require_nonnegative(coupling=self.coupling)
        _require_finite(x0=self.x0)
        object.__setattr__(self, "space", SpaceDescriptor((TwoLevel(),)))

    def parts(self):
        """No field part (the drive is classical), (omega/2) sigma_z and
        coupling * sigma_x."""
        (s,) = self.space.levels
        return (np.zeros(s.size), self.omega * (s - 0.5),
                (np.array([0]), np.array([1]), np.array([self.coupling])))


@dataclass(frozen=True)
class JaynesCummingsParams(_Family):
    """Quantized field mode exchanging single quanta with a qubit."""

    nu: float           # field mode frequency
    omega: float        # qubit gap
    g: float            # vacuum coupling
    field_cutoff: int

    detector = 1
    intensity_field = None
    driven = False

    def __post_init__(self):
        _require_positive(nu=self.nu, omega=self.omega)
        _require_nonnegative(g=self.g)
        object.__setattr__(self, "space",
                           SpaceDescriptor((Boson(self.field_cutoff), TwoLevel())))

    def parts(self):
        """nu a+a, (omega/2) sigma_z and g (a sigma+ + a+ sigma-).  ``a sigma+``
        takes |n, g> to |n - 1, e> with amplitude sqrt(n)."""
        n, s = self.space.levels
        src = np.flatnonzero((n > 0) & (s == 0))
        dst = np.ravel_multi_index((n[src] - 1, s[src] + 1), self.space.dims)
        return self.nu * n, self.omega * (s - 0.5), (src, dst, self.g * np.sqrt(n[src]))

    def default_initial_state(self) -> StateVector:
        """One field quantum, ground qubit."""
        return basis_state(self.space, [1, 0])


@dataclass(frozen=True)
class BeamSplitterParams(_Family):
    """Two bosonic modes under an excitation-conserving exchange coupling."""

    nu: float           # field mode frequency
    omega: float        # detector mode frequency
    g: float            # exchange coupling
    field_cutoff: int
    detector_cutoff: int
    alpha: complex = 0.0        # initial field coherent amplitude

    detector = 1
    intensity_field = "alpha"
    driven = False

    def __post_init__(self):
        _require_positive(nu=self.nu, omega=self.omega)
        _require_nonnegative(g=self.g)
        object.__setattr__(self, "space", SpaceDescriptor(
            (Boson(self.field_cutoff), Boson(self.detector_cutoff))))
        check_coherent_cutoff(self.alpha, self.field_cutoff)

    def parts(self):
        """nu a+a, omega b+b and g (a b+ + b a+).  ``a b+`` takes
        |n_a, n_b> to |n_a - 1, n_b + 1> with amplitude sqrt(n_a) sqrt(n_b + 1),
        zero where n_b + 1 would pass the detector cutoff (the hard
        truncation of the raising operator)."""
        n_a, n_b = self.space.levels
        src = np.flatnonzero((n_a > 0) & (n_b < self.detector_cutoff - 1))
        dst = np.ravel_multi_index((n_a[src] - 1, n_b[src] + 1), self.space.dims)
        hop = self.g * (np.sqrt(n_a[src]) * np.sqrt(n_b[src] + 1.0))
        return self.nu * n_a, self.omega * n_b, (src, dst, hop)

    def default_initial_state(self) -> StateVector:
        """Coherent field, ground detector."""
        return coherent_state(self.space, 0, self.alpha)


@dataclass(frozen=True)
class DrivenOscillatorParams(_Family):
    """Classical drive mode coupled to a quantized oscillator detector."""

    omega: float        # detector mode frequency
    nu: float           # drive frequency
    coupling: float     # interaction strength per unit displacement
    x0: float           # drive amplitude
    detector_cutoff: int = 16

    detector = 0
    intensity_field = "x0"
    driven = True

    def __post_init__(self):
        _require_positive(omega=self.omega, nu=self.nu)
        _require_nonnegative(coupling=self.coupling)
        _require_finite(x0=self.x0)
        object.__setattr__(self, "space", SpaceDescriptor((Boson(self.detector_cutoff),)))

    def parts(self):
        """No field part (the drive is classical), omega b+b and
        coupling (b + b+); ``b`` takes |n> to |n - 1> with amplitude sqrt(n)."""
        (n,) = self.space.levels
        src = np.flatnonzero(n > 0)
        dst = np.ravel_multi_index((n[src] - 1,), self.space.dims)
        return np.zeros(n.size), self.omega * n, (src, dst, self.coupling * np.sqrt(n[src]))


@dataclass(frozen=True)
class GravitoParams:
    """SI inputs for a resonant-mass detector in a monochromatic wave."""

    mass: float         # detector mass, kg
    length: float       # detector length, m
    nu: float           # wave angular frequency, rad/s
    omega0: float       # detector mode angular frequency, rad/s
    strain: float       # dimensionless strain amplitude h0
    volume: float       # quantization volume, m^3

    def __post_init__(self):
        _require_positive(mass=self.mass, length=self.length, nu=self.nu,
                          omega0=self.omega0, strain=self.strain,
                          volume=self.volume)


class ModelFamily(enum.Enum):
    QUBIT_DRIVE = "qubit_drive"
    JAYNES_CUMMINGS = "jaynes_cummings"
    BEAM_SPLITTER = "beam_splitter"
    OSCILLATOR_DRIVE = "oscillator_drive"

    @property
    def params_type(self) -> type:
        """The params class of the family, which is its record."""
        return _FAMILY_PARAM_TYPES[self]


_FAMILY_PARAM_TYPES = {
    ModelFamily.QUBIT_DRIVE: QubitSemiClassicalParams,
    ModelFamily.JAYNES_CUMMINGS: JaynesCummingsParams,
    ModelFamily.BEAM_SPLITTER: BeamSplitterParams,
    ModelFamily.OSCILLATOR_DRIVE: DrivenOscillatorParams,
}


@dataclass(frozen=True)
class ModelSpec:
    """Tagged union over the model families.

    ``back_reaction=True`` selects the mean-field hybrid variant where the
    classical mode responds to the quantum expectation values; it is only
    meaningful for the classically driven families.
    """

    family: ModelFamily
    params: object
    back_reaction: bool = False

    def __post_init__(self):
        expected = self.family.params_type
        if not isinstance(self.params, expected):
            raise TypeError(
                f"{self.family.value} expects {expected.__name__}, "
                f"got {type(self.params).__name__}")
        if self.back_reaction and not self.params.driven:
            raise ValueError("back_reaction applies to classically driven families only")

    @cached_property
    def default_state(self) -> StateVector:
        """The family's default initial state, built once per model."""
        return self.params.default_initial_state()

    @property
    def tag(self) -> str:
        return self.family.value + ("+back_reaction" if self.back_reaction else "")

    def with_nu(self, nu: float) -> "ModelSpec":
        """The model at frequency ``nu``, holding this model's default state
        (no family's state reads nu)."""
        spec = ModelSpec(self.family, replace(self.params, nu=nu), self.back_reaction)
        spec.__dict__["default_state"] = self.default_state
        return spec

    def with_intensity(self, intensity: float) -> "ModelSpec":
        """The model with its intensity field (alpha or x0) set to
        sqrt(intensity), which must be finite and >= 0."""
        name = self.params.intensity_field
        if name is None:
            raise ValueError("intensity scan applies to the coherent-field and driven models")
        if not (intensity >= 0 and math.isfinite(intensity)):
            raise ValueError(f"intensity must be finite and >= 0, got {intensity}")
        return ModelSpec(self.family, replace(self.params, **{name: math.sqrt(intensity)}),
                         self.back_reaction)


# ---------------------------------------------------------------------------
# Hamiltonian builders (natural units)


def build_jc_hamiltonian(p: JaynesCummingsParams) -> Hamiltonian:
    """nu a+a + (omega/2) sigma_z + g (a sigma+ + a+ sigma-), written entry
    by entry from the Fock labels (``JaynesCummingsParams.parts``)."""
    return p.hamiltonian()


def build_beam_splitter_hamiltonian(p: BeamSplitterParams) -> Hamiltonian:
    """nu a+a + omega b+b + g (a b+ + b a+), written entry by entry from
    the Fock labels (``BeamSplitterParams.parts``)."""
    return p.hamiltonian()


# ---------------------------------------------------------------------------
# gravito-phononic parameter mappings (SI in, see unit notes per function)


def gravito_vacuum_coupling(p: GravitoParams) -> float:
    """Single-quantum coupling of the wave mode, (1/c) sqrt(8 pi G hbar / (V nu)).

    Unit contract: the returned number is the coefficient multiplying the
    exchange term in the hbar-divided Hamiltonian, i.e. it is used as a
    rate (rad/s) alongside the mode frequencies in the natural-unit model.
    """
    _require_positive(volume=p.volume, nu=p.nu)
    return math.sqrt(8.0 * math.pi * DEFAULT_CONSTANTS.G * DEFAULT_CONSTANTS.hbar
                     / (p.volume * p.nu)) / DEFAULT_CONSTANTS.c


def gravito_classical_params(p: GravitoParams) -> DrivenOscillatorParams:
    """Map SI detector data onto the driven-oscillator model.

    coupling = M L nu^2 / pi^2 (energy per unit strain displacement) and
    x0 = sqrt(hbar / (M omega0)) (zero-point length), so that
    coupling * x0 = (L / pi^2) sqrt(M nu^4 hbar / omega0) exactly
    reproduces the strain-interaction coefficient.  Frequencies are kept
    in rad/s; divide all rates by omega0 for a desk-scale run.
    """
    lam = p.mass * p.length * p.nu ** 2 / math.pi ** 2
    x0 = math.sqrt(DEFAULT_CONSTANTS.hbar / (p.mass * p.omega0))
    return DrivenOscillatorParams(omega=p.omega0, nu=p.nu, coupling=lam, x0=x0)


def gravito_interaction_coefficient(p: GravitoParams) -> float:
    """(L / pi^2) sqrt(M nu^4 hbar / omega0), the strain drive coefficient in J."""
    return (p.length / math.pi ** 2) * math.sqrt(
        p.mass * p.nu ** 4 * DEFAULT_CONSTANTS.hbar / p.omega0)


def gw_energy_density(p: GravitoParams) -> float:
    """Wave energy density (c^2 / (32 pi G)) nu^2 h0^2 in J/m^3."""
    pref = DEFAULT_CONSTANTS.c ** 2 / (32.0 * math.pi * DEFAULT_CONSTANTS.G)
    return pref * p.nu ** 2 * p.strain ** 2
