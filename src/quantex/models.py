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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .errors import CoherentTailError
from .hilbert import (
    Boson,
    Operator,
    SpaceDescriptor,
    TwoLevel,
    annihilation,
    creation,
    number,
    pauli,
    poisson_tail,
)

__all__ = [
    "ModelFamily", "ModelSpec", "QubitSemiClassicalParams",
    "JaynesCummingsParams", "BeamSplitterParams", "DrivenOscillatorParams",
    "GravitoParams", "build_jc_hamiltonian", "build_beam_splitter_hamiltonian",
    "build_driven_qubit_hamiltonian", "build_driven_oscillator_hamiltonian",
    "jc_excitation_number", "beam_splitter_excitation_number",
    "gravito_vacuum_coupling", "gravito_classical_params",
    "gravito_interaction_coefficient", "gw_energy_density",
]


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value}")


def _require_nonnegative(**kwargs):
    for name, value in kwargs.items():
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class QubitSemiClassicalParams:
    """Classical drive mode coupled to a qubit (no back-reaction unless the
    owning ModelSpec sets it)."""

    omega: float        # qubit gap
    nu: float           # drive frequency
    coupling: float     # interaction strength per unit displacement
    x0: float           # drive amplitude

    def __post_init__(self):
        _require_positive(omega=self.omega, nu=self.nu)
        _require_nonnegative(coupling=self.coupling)

    @property
    def space(self) -> SpaceDescriptor:
        return SpaceDescriptor((TwoLevel(),))


@dataclass(frozen=True)
class JaynesCummingsParams:
    """Quantized field mode exchanging single quanta with a qubit."""

    nu: float           # field mode frequency
    omega: float        # qubit gap
    g: float            # vacuum coupling
    field_cutoff: int

    def __post_init__(self):
        _require_positive(nu=self.nu, omega=self.omega)
        _require_nonnegative(g=self.g)
        if self.field_cutoff < 2:
            raise ValueError("field_cutoff must be >= 2")

    @property
    def space(self) -> SpaceDescriptor:
        return SpaceDescriptor((Boson(self.field_cutoff), TwoLevel()))


@dataclass(frozen=True)
class BeamSplitterParams:
    """Two bosonic modes under an excitation-conserving exchange coupling."""

    nu: float           # field mode frequency
    omega: float        # detector mode frequency
    g: float            # exchange coupling
    field_cutoff: int
    detector_cutoff: int
    alpha: complex = 0.0        # initial field coherent amplitude
    tail_tolerance: float = 1e-12

    def __post_init__(self):
        _require_positive(nu=self.nu, omega=self.omega)
        _require_nonnegative(g=self.g)
        if min(self.field_cutoff, self.detector_cutoff) < 2:
            raise ValueError("cutoffs must be >= 2")
        tail = poisson_tail(abs(self.alpha) ** 2, self.field_cutoff)
        if tail > self.tail_tolerance:
            raise CoherentTailError(
                f"field_cutoff {self.field_cutoff} keeps tail {tail:.3e} > "
                f"{self.tail_tolerance:.3e} for |alpha|^2 = {abs(self.alpha) ** 2:g}")

    @property
    def space(self) -> SpaceDescriptor:
        return SpaceDescriptor((Boson(self.field_cutoff), Boson(self.detector_cutoff)))


@dataclass(frozen=True)
class DrivenOscillatorParams:
    """Classical drive mode coupled to a quantized oscillator detector."""

    omega: float        # detector mode frequency
    nu: float           # drive frequency
    coupling: float     # interaction strength per unit displacement
    x0: float           # drive amplitude
    detector_cutoff: int = 16

    def __post_init__(self):
        _require_positive(omega=self.omega, nu=self.nu)
        _require_nonnegative(coupling=self.coupling)
        if self.detector_cutoff < 2:
            raise ValueError("detector_cutoff must be >= 2")

    @property
    def space(self) -> SpaceDescriptor:
        return SpaceDescriptor((Boson(self.detector_cutoff),))


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


_FAMILY_PARAM_TYPES = {
    ModelFamily.QUBIT_DRIVE: QubitSemiClassicalParams,
    ModelFamily.JAYNES_CUMMINGS: JaynesCummingsParams,
    ModelFamily.BEAM_SPLITTER: BeamSplitterParams,
    ModelFamily.OSCILLATOR_DRIVE: DrivenOscillatorParams,
}

_DRIVE_FAMILIES = (ModelFamily.QUBIT_DRIVE, ModelFamily.OSCILLATOR_DRIVE)


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
        expected = _FAMILY_PARAM_TYPES[self.family]
        if not isinstance(self.params, expected):
            raise TypeError(
                f"{self.family.value} expects {expected.__name__}, "
                f"got {type(self.params).__name__}")
        if self.back_reaction and self.family not in _DRIVE_FAMILIES:
            raise ValueError("back_reaction applies to classically driven families only")

    @property
    def is_driven(self) -> bool:
        return self.family in _DRIVE_FAMILIES

    def with_nu(self, nu: float) -> "ModelSpec":
        return ModelSpec(self.family, replace(self.params, nu=nu), self.back_reaction)


# ---------------------------------------------------------------------------
# Hamiltonian builders (natural units)


def build_jc_hamiltonian(p: JaynesCummingsParams,
                         counter_rotating_order: bool = False) -> Operator:
    """nu a+a + (omega/2) sigma_z + g (a sigma+ + a+ sigma-).

    With ``counter_rotating_order=True`` the interaction is built as
    g (a sigma- + a+ sigma+), which does NOT conserve the excitation
    number; it exists for side-by-side comparison only.
    """
    sp = p.space
    a = annihilation(sp, 0)
    ad = creation(sp, 0)
    h = p.nu * number(sp, 0) + 0.5 * p.omega * pauli(sp, 1, "z")
    if counter_rotating_order:
        inter = a @ pauli(sp, 1, "minus") + ad @ pauli(sp, 1, "plus")
    else:
        inter = a @ pauli(sp, 1, "plus") + ad @ pauli(sp, 1, "minus")
    return Operator(sp, h.matrix + p.g * inter.matrix, hermitian_hint=True)


def jc_excitation_number(p: JaynesCummingsParams) -> Operator:
    """a+a + sigma+ sigma-, conserved by the standard interaction order."""
    sp = p.space
    proj_e = pauli(sp, 1, "plus") @ pauli(sp, 1, "minus")
    return Operator(sp, number(sp, 0).matrix + proj_e.matrix, hermitian_hint=True)


def build_beam_splitter_hamiltonian(p: BeamSplitterParams) -> Operator:
    """nu a+a + omega b+b + g (a b+ + b a+).

    Written entry by entry from the Fock labels of the basis rather than
    from Kronecker-embedded ladder operators: the diagonal is
    nu n_a + omega n_b and ``a b+`` takes |n_a, n_b> to |n_a - 1, n_b + 1>
    with amplitude sqrt(n_a) sqrt(n_b + 1), zero where n_b + 1 would pass
    the detector cutoff (the hard truncation of ``create()``).
    """
    sp = p.space
    n_a, n_b = np.indices(sp.dims).reshape(2, -1)
    d, d_b = sp.total_dim, sp.dims[1]
    m = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(m, p.nu * n_a + p.omega * n_b)
    src = np.flatnonzero((n_a > 0) & (n_b < d_b - 1))
    dst = src - d_b + 1     # flat index of |n_a - 1, n_b + 1>
    hop = p.g * (np.sqrt(n_a[src]) * np.sqrt(n_b[src] + 1.0))
    m[dst, src] = hop       # a b+
    m[src, dst] = hop       # b a+
    return Operator(sp, m, hermitian_hint=True)


def beam_splitter_excitation_number(p: BeamSplitterParams) -> Operator:
    sp = p.space
    return Operator(sp, number(sp, 0).matrix + number(sp, 1).matrix,
                    hermitian_hint=True)


def build_driven_qubit_hamiltonian(p: QubitSemiClassicalParams, x: float) -> Operator:
    """(omega/2) sigma_z + coupling * x * sigma_x at a frozen drive value x.

    The classical drive energy (nu/2)(x^2 + p^2) is tracked separately by
    the energy ledger.
    """
    sp = SpaceDescriptor((TwoLevel(),))
    m = 0.5 * p.omega * pauli(sp, 0, "z").matrix + p.coupling * x * pauli(sp, 0, "x").matrix
    return Operator(sp, m, hermitian_hint=True)


def build_driven_oscillator_hamiltonian(p: DrivenOscillatorParams, x: float) -> Operator:
    """omega b+b + coupling * x * (b+ + b) at a frozen drive value x."""
    sp = p.space
    m = p.omega * number(sp, 0).matrix
    quad = annihilation(sp, 0).matrix + creation(sp, 0).matrix
    return Operator(sp, m + p.coupling * x * quad, hermitian_hint=True)


# ---------------------------------------------------------------------------
# gravito-phononic parameter mappings (SI in, see unit notes per function)


def gravito_vacuum_coupling(p: GravitoParams,
                            constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Single-quantum coupling of the wave mode, (1/c) sqrt(8 pi G hbar / (V nu)).

    Unit contract: the returned number is the coefficient multiplying the
    exchange term in the hbar-divided Hamiltonian, i.e. it is used as a
    rate (rad/s) alongside the mode frequencies in the natural-unit model.
    """
    _require_positive(volume=p.volume, nu=p.nu)
    return math.sqrt(8.0 * math.pi * constants.G * constants.hbar
                     / (p.volume * p.nu)) / constants.c


def gravito_classical_params(p: GravitoParams, detector_cutoff: int = 16,
                             constants: PhysicalConstants = DEFAULT_CONSTANTS,
                             ) -> DrivenOscillatorParams:
    """Map SI detector data onto the driven-oscillator model.

    coupling = M L nu^2 / pi^2 (energy per unit strain displacement) and
    x0 = sqrt(hbar / (M omega0)) (zero-point length), so that
    coupling * x0 = (L / pi^2) sqrt(M nu^4 hbar / omega0) exactly
    reproduces the strain-interaction coefficient.  Frequencies are kept
    in rad/s; divide all rates by omega0 for a desk-scale run.
    """
    lam = p.mass * p.length * p.nu ** 2 / math.pi ** 2
    x0 = math.sqrt(constants.hbar / (p.mass * p.omega0))
    return DrivenOscillatorParams(omega=p.omega0, nu=p.nu, coupling=lam, x0=x0,
                                  detector_cutoff=detector_cutoff)


def gravito_interaction_coefficient(p: GravitoParams,
                                    constants: PhysicalConstants = DEFAULT_CONSTANTS,
                                    ) -> float:
    """(L / pi^2) sqrt(M nu^4 hbar / omega0), the strain drive coefficient in J."""
    return (p.length / math.pi ** 2) * math.sqrt(
        p.mass * p.nu ** 4 * constants.hbar / p.omega0)


def gw_energy_density(p: GravitoParams,
                      constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Wave energy density (c^2 / (32 pi G)) nu^2 h0^2 in J/m^3."""
    pref = constants.c ** 2 / (32.0 * math.pi * constants.G)
    return pref * p.nu ** 2 * p.strain ** 2
