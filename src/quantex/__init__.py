"""quantex: classical, quantum, and mean-field hybrid models of
radiation-detector energy exchange, with energy-ledger audits.

The package spans five layers: ``hilbert`` (truncated spaces and states),
``models`` (Hamiltonian families and SI parameter mappings), ``dynamics``
(propagators and closed-form transition probabilities), ``analysis``
(ledgers, scans, signature reports), and ``cli`` (scenario runner).
"""

__version__ = "0.1.0"

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .errors import (
    CoherentTailError,
    ConfigError,
    FactorError,
    HermiticityError,
    NormalizationError,
    QuantexError,
    RegimeError,
    RegimeWarning,
    ToleranceError,
)
from .hilbert import (
    Boson,
    Hamiltonian,
    SpaceDescriptor,
    StateVector,
    TwoLevel,
    basis_state,
    coherent_state,
    ground_state,
    min_coherent_cutoff,
)
from .models import (
    BeamSplitterParams,
    DrivenOscillatorParams,
    GravitoParams,
    JaynesCummingsParams,
    ModelFamily,
    ModelSpec,
    QubitSemiClassicalParams,
    build_beam_splitter_hamiltonian,
    build_jc_hamiltonian,
    gravito_classical_params,
    gravito_interaction_coefficient,
    gravito_vacuum_coupling,
    gw_energy_density,
)
from .dynamics import (
    DysonFirstOrder,
    EvolutionConfig,
    HybridState,
    Method,
    Trajectory,
    coherent_amplitude_beta,
    dyson_first_order,
    evolve_driven,
    evolve_hybrid,
    evolve_unitary,
    evolve_unitary_at,
    golden_rule_limit,
    perturbative_pe,
    pn1_from_amplitude,
    rabi_probability,
    semiclassical_pn1,
)
from .analysis import (
    DeficitReport,
    EnergyLedger,
    FitResult,
    ScanResult,
    SignatureCheck,
    SignatureReport,
    conditioned_energy_deficit,
    detuning_scan,
    energy_ledger,
    golden_rule_fit,
    intensity_scan,
    ledger_to_csv,
    loglog_slope,
    rabi_peak_scan,
    scan_to_csv,
    signature_report,
    time_scan,
)
