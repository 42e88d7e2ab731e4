import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from quantex import (
    BeamSplitterParams,
    CoherentTailError,
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

import constant_folding_oracle as oracle
from kron_reference import (
    annihilation,
    creation,
    dense,
    jaynes_cummings,
    number,
    pauli,
    total_number,
)

# reference values frozen from tests/constant_folding_oracle.py, which folds
# the same formulas from scipy.constants with independent code
VACUUM_COUPLING_REF = 7.915260871575183e-33       # V=1 m^3, nu=2*pi*5000
DRIVE_COUPLING_REF = 3999999999.9999995           # M=1000, L=1, nu=2*pi*1000
ZERO_POINT_REF = 4.096831917760243e-21            # M=1000, omega0=2*pi*1000
INTERACTION_COEFF_REF = 1.6387327671040965e-11    # same M, L, nu, omega0
ENERGY_DENSITY_REF = 5.288050182969313e-10        # nu=2*pi*1000, h0=1e-21


# -- Hamiltonian builders ---------------------------------------------------


def test_jc_decoupled_spectrum_is_frequency_grid():
    p = JaynesCummingsParams(nu=1.3, omega=0.7, g=0.0, field_cutoff=5)
    w = np.sort(np.linalg.eigvalsh(dense(build_jc_hamiltonian(p))))
    expected = np.sort([1.3 * n + 0.5 * 0.7 * s
                        for n in range(5) for s in (-1, 1)])
    npt.assert_allclose(w, expected, atol=1e-12)


def test_jc_hermitian_for_random_params():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = JaynesCummingsParams(nu=rng.uniform(0.1, 5), omega=rng.uniform(0.1, 5),
                                 g=rng.uniform(0, 1), field_cutoff=int(rng.integers(2, 9)))
        # the record is the Kronecker-built matrix, which is hermitian, as
        # is the counter-rotating order the block kernel is tested on
        for counter_rotating in (False, True):
            ref = jaynes_cummings(p, counter_rotating)
            npt.assert_array_equal(ref, ref.conj().T)
        npt.assert_array_equal(dense(build_jc_hamiltonian(p)), jaynes_cummings(p))


def test_jc_resonant_dressed_splitting():
    p = JaynesCummingsParams(nu=1.0, omega=1.0, g=0.01, field_cutoff=6)
    w = np.sort(np.linalg.eigvalsh(dense(build_jc_hamiltonian(p))))
    # lowest excited manifold splits symmetrically around nu - omega/2
    assert w[2] - w[1] == pytest.approx(2 * 0.01, abs=1e-10)


def test_jc_excitation_number_conserved_standard_order():
    p = JaynesCummingsParams(nu=1.1, omega=0.9, g=0.2, field_cutoff=7)
    h = dense(build_jc_hamiltonian(p))
    n = total_number(p.space)
    assert np.max(np.abs(h @ n - n @ h)) <= 1e-10


_bs_params = st.builds(
    BeamSplitterParams,
    nu=st.floats(0.1, 3.0), omega=st.floats(0.1, 3.0), g=st.floats(0.0, 2.0),
    field_cutoff=st.integers(2, 9), detector_cutoff=st.integers(2, 9))


@settings(max_examples=60, deadline=None)
@given(_bs_params)
def test_beam_splitter_conserves_total_number(p):
    h = dense(build_beam_splitter_hamiltonian(p))
    n = total_number(p.space)
    assert np.max(np.abs(h @ n - n @ h)) <= 1e-12


def _at(p, x):
    """The driven H(x) = free + x * coupling from the label-built parts."""
    free, coupling = p.free_and_coupling()
    return free + x * coupling


def _label_and_kronecker(p, x):
    """The label-built H(x) of ``p``, made dense, next to a Kronecker-built reference
    H(x), free part and coupling part.  The reference driven H(x) is
    free + coupling * x * operator, which the label-built
    x * (coupling * operator) of the oscillator matches bit for bit only
    at x = 0 and x = 1."""
    sp = p.space
    if isinstance(p, QubitSemiClassicalParams):
        free = 0.5 * p.omega * pauli(sp, 0, "z")
        quad = pauli(sp, 0, "x")
        return _at(p, x), free + p.coupling * x * quad, free, p.coupling * quad
    if isinstance(p, DrivenOscillatorParams):
        free = p.omega * number(sp, 0)
        quad = annihilation(sp, 0) + creation(sp, 0)
        return _at(p, x), free + p.coupling * x * quad, free, p.coupling * quad
    a, ad = annihilation(sp, 0), creation(sp, 0)
    if isinstance(p, JaynesCummingsParams):
        free = p.nu * number(sp, 0) + 0.5 * p.omega * pauli(sp, 1, "z")
        inter = a @ pauli(sp, 1, "plus") + ad @ pauli(sp, 1, "minus")
        return dense(build_jc_hamiltonian(p)), free + p.g * inter, free, p.g * inter
    free = p.nu * number(sp, 0) + p.omega * number(sp, 1)
    inter = a @ creation(sp, 1) + annihilation(sp, 1) @ ad
    return dense(build_beam_splitter_hamiltonian(p)), free + p.g * inter, free, p.g * inter


_freq, _strength = st.floats(0.1, 3.0), st.floats(0.0, 2.0)
_families_at_x = st.one_of(
    st.tuples(_bs_params, st.just(1.0)),
    st.tuples(st.builds(JaynesCummingsParams, nu=_freq, omega=_freq, g=_strength,
                        field_cutoff=st.integers(2, 9)),
              st.just(1.0)),
    st.tuples(st.builds(QubitSemiClassicalParams, omega=_freq, nu=_freq,
                        coupling=_strength, x0=_freq),
              st.floats(-3.0, 3.0)),
    st.tuples(st.builds(DrivenOscillatorParams, omega=_freq, nu=_freq,
                        coupling=_strength, x0=_freq, detector_cutoff=st.integers(2, 12)),
              st.sampled_from([0.0, 1.0])),
)


@settings(max_examples=150, deadline=None)
@given(_families_at_x)
def test_direct_beam_splitter_build_matches_kronecker_embedding(case):
    # every family, the driven oscillator at x = 0 and x = 1: bit for bit,
    # the free and coupling parts as real arrays
    p, x = case
    h, h_ref, free_ref, coupling_ref = _label_and_kronecker(p, x)
    free, coupling = p.free_and_coupling()
    assert free.dtype == coupling.dtype == np.float64
    npt.assert_array_equal(h, h_ref)
    npt.assert_array_equal(free, free_ref)
    npt.assert_array_equal(coupling, coupling_ref)


def test_beam_splitter_single_excitation_splitting():
    p = BeamSplitterParams(nu=1.0, omega=1.0, g=0.001, field_cutoff=3,
                           detector_cutoff=3)
    w = np.sort(np.linalg.eigvalsh(dense(build_beam_splitter_hamiltonian(p))))
    # single-excitation manifold: 1 +/- g
    assert w[2] - w[1] == pytest.approx(2 * 0.001, abs=1e-12)


def test_beam_splitter_decoupled_fock_state_is_stationary():
    from quantex import EvolutionConfig, basis_state, evolve_unitary
    p = BeamSplitterParams(nu=1.0, omega=1.0, g=0.0, field_cutoff=4,
                           detector_cutoff=4)
    h = build_beam_splitter_hamiltonian(p)
    traj = evolve_unitary(h, basis_state(p.space, [1, 0]),
                          EvolutionConfig(dt=0.5, t_max=10.0))
    npt.assert_allclose(traj.population_series(0, 1), 1.0, atol=1e-12)


def test_beam_splitter_cutoff_tail_guard():
    with pytest.raises(CoherentTailError):
        BeamSplitterParams(nu=1.0, omega=1.0, g=0.001, field_cutoff=8,
                           detector_cutoff=4, alpha=4.0)


def test_driven_qubit_gap_at_zero_drive():
    p = QubitSemiClassicalParams(omega=1.0, nu=1.0, coupling=0.01, x0=1.0)
    h = _at(p, 0.0)
    npt.assert_allclose(np.diag(h), [-0.5, 0.5], atol=0.0)
    assert np.abs(h[0, 1]) == 0.0


def test_driven_qubit_gap_closed_form():
    p = QubitSemiClassicalParams(omega=1.0, nu=1.0, coupling=0.01, x0=1.0)
    w = np.linalg.eigvalsh(_at(p, 1.0))
    assert w[1] - w[0] == pytest.approx(math.sqrt(1 + 4e-4), abs=1e-12)


def test_driven_qubit_coupling_zero_is_drive_independent():
    p = QubitSemiClassicalParams(omega=1.0, nu=1.0, coupling=0.0, x0=1.0)
    npt.assert_allclose(_at(p, 3.7), _at(p, 0.0), atol=0.0)


def test_driven_oscillator_zero_drive_is_scaled_number():
    p = DrivenOscillatorParams(omega=1.5, nu=1.0, coupling=0.1, x0=1.0,
                               detector_cutoff=6)
    npt.assert_allclose(_at(p, 0.0),
                        1.5 * np.diag(np.arange(6)), atol=0.0)


def test_driven_oscillator_static_ground_shift():
    # displaced oscillator: minimum eigenvalue -(coupling*x)^2 / omega
    p = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.1, x0=1.0,
                               detector_cutoff=30)
    w = np.linalg.eigvalsh(_at(p, 1.0))
    assert w[0] == pytest.approx(-0.01, abs=1e-10)


def test_driven_hamiltonians_hermitian():
    po = DrivenOscillatorParams(omega=1.0, nu=0.8, coupling=0.2, x0=1.5,
                                detector_cutoff=8)
    pq = QubitSemiClassicalParams(omega=1.0, nu=0.8, coupling=0.2, x0=1.5)
    for x in (-2.0, 0.0, 0.7):
        for p in (po, pq):
            # the record is the Kronecker-built matrix, which is hermitian
            h, ref, _, _ = _label_and_kronecker(p, x)
            npt.assert_array_equal(ref, ref.conj().T)
            npt.assert_allclose(h, ref, rtol=0, atol=1e-15)


# -- params and ModelSpec ---------------------------------------------------


def test_param_validation_rejects_nonpositive_frequencies():
    with pytest.raises(ValueError):
        QubitSemiClassicalParams(omega=-1.0, nu=1.0, coupling=0.1, x0=1.0)
    with pytest.raises(ValueError):
        JaynesCummingsParams(nu=0.0, omega=1.0, g=0.1, field_cutoff=4)
    with pytest.raises(ValueError):
        DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=-0.1, x0=1.0)


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("params", [QubitSemiClassicalParams, DrivenOscillatorParams])
def test_driven_params_reject_a_non_finite_drive_amplitude(params, x0):
    with pytest.raises(ValueError, match="x0 must be finite"):
        params(omega=1.0, nu=1.0, coupling=0.1, x0=x0)


@pytest.mark.parametrize("intensity", [-1.0, -1e-300, math.nan, math.inf])
@pytest.mark.parametrize("model", [
    ModelSpec(ModelFamily.OSCILLATOR_DRIVE,
              DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.1, x0=1.0)),
    ModelSpec(ModelFamily.QUBIT_DRIVE,
              QubitSemiClassicalParams(omega=1.0, nu=1.0, coupling=0.1, x0=1.0)),
    ModelSpec(ModelFamily.BEAM_SPLITTER,
              BeamSplitterParams(nu=1.0, omega=1.0, g=0.01, field_cutoff=8,
                                 detector_cutoff=3)),
], ids=["oscillator", "qubit", "beam_splitter"])
def test_with_intensity_rejects_a_negative_or_non_finite_intensity(model, intensity):
    with pytest.raises(ValueError, match="intensity must be finite and >= 0"):
        model.with_intensity(intensity)
    # zero intensity is the undriven or vacuum-field model
    assert getattr(model.with_intensity(0.0).params, model.params.intensity_field) == 0.0


@pytest.mark.parametrize("p", [
    QubitSemiClassicalParams(omega=1.0, nu=1.0, coupling=0.1, x0=1.0),
    JaynesCummingsParams(nu=1.0, omega=1.0, g=0.05, field_cutoff=4),
    BeamSplitterParams(nu=1.0, omega=1.0, g=0.01, field_cutoff=8, detector_cutoff=3),
    DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.1, x0=1.0),
])
def test_params_build_their_space_once(p):
    assert p.space is p.space
    other = replace(p, nu=2.0)
    assert other.space == p.space and other.space is not p.space
    # the cached space is no field: equality and hashing are unchanged
    assert replace(p) == p and hash(replace(p)) == hash(p)


def test_model_spec_variant_consistency():
    p = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.1, x0=1.0)
    spec = ModelSpec(ModelFamily.OSCILLATOR_DRIVE, p, back_reaction=True)
    assert spec.params.driven
    with pytest.raises(TypeError):
        ModelSpec(ModelFamily.BEAM_SPLITTER, p)
    jc = JaynesCummingsParams(nu=1.0, omega=1.0, g=0.1, field_cutoff=4)
    with pytest.raises(ValueError):
        ModelSpec(ModelFamily.JAYNES_CUMMINGS, jc, back_reaction=True)


def test_model_spec_with_nu():
    p = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.1, x0=1.0)
    spec = ModelSpec(ModelFamily.OSCILLATOR_DRIVE, p).with_nu(1.3)
    assert spec.params.nu == 1.3
    assert spec.params.omega == 1.0


@pytest.mark.parametrize("family, p", [
    (ModelFamily.QUBIT_DRIVE, QubitSemiClassicalParams(omega=1.0, nu=1.0, coupling=0.1,
                                                       x0=1.0)),
    (ModelFamily.JAYNES_CUMMINGS, JaynesCummingsParams(nu=1.0, omega=1.0, g=0.1,
                                                       field_cutoff=4)),
    (ModelFamily.BEAM_SPLITTER, BeamSplitterParams(nu=1.0, omega=1.0, g=0.1, field_cutoff=24,
                                                   detector_cutoff=3, alpha=1.5)),
    (ModelFamily.OSCILLATOR_DRIVE, DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.1,
                                                          x0=1.0)),
], ids=lambda v: v.value if isinstance(v, ModelFamily) else "")
def test_with_nu_hands_on_the_default_state(family, p):
    # no family's default state reads nu, so a detuning scan builds it once
    model = ModelSpec(family, p)
    assert model.with_nu(1.3).default_state is model.default_state


# -- gravito-phononic mappings ----------------------------------------------


def _params(nu=2 * math.pi * 5000.0, volume=1.0, mass=1000.0, length=1.0,
            omega0=2 * math.pi * 1000.0, strain=1e-21):
    return GravitoParams(mass=mass, length=length, nu=nu, omega0=omega0,
                         strain=strain, volume=volume)


def test_vacuum_coupling_frequency_scaling():
    g1 = gravito_vacuum_coupling(_params(nu=2 * math.pi * 1000.0))
    g4 = gravito_vacuum_coupling(_params(nu=8 * math.pi * 1000.0))
    assert abs(g4 / g1 - 0.5) <= 1e-12


def test_vacuum_coupling_volume_scaling():
    g1 = gravito_vacuum_coupling(_params(volume=1.0))
    g4 = gravito_vacuum_coupling(_params(volume=4.0))
    assert abs(g4 / g1 - 0.5) <= 1e-12


def test_vacuum_coupling_against_frozen_oracle():
    value = gravito_vacuum_coupling(_params())
    assert abs(value - VACUUM_COUPLING_REF) <= 1e-12 * VACUUM_COUPLING_REF
    live = oracle.oracle_vacuum_coupling(1.0, 2 * math.pi * 5000.0)
    assert abs(value - live) <= 1e-12 * live


def test_drive_coupling_quadratic_frequency_scaling():
    p1 = gravito_classical_params(_params(nu=2 * math.pi * 1000.0))
    p2 = gravito_classical_params(_params(nu=4 * math.pi * 1000.0))
    assert abs(p2.coupling / p1.coupling - 4.0) <= 1e-12


def test_drive_coupling_against_frozen_oracle():
    mapped = gravito_classical_params(_params(nu=2 * math.pi * 1000.0))
    assert abs(mapped.coupling - DRIVE_COUPLING_REF) <= 1e-12 * DRIVE_COUPLING_REF
    assert abs(mapped.x0 - ZERO_POINT_REF) <= 1e-12 * ZERO_POINT_REF
    live = oracle.oracle_drive_coupling(1000.0, 1.0, 2 * math.pi * 1000.0)
    assert abs(mapped.coupling - live) <= 1e-12 * live


def test_interaction_coefficient_identity():
    # coupling * x0 reproduces the strain drive coefficient exactly
    for nu_hz in (31.0, 1000.0, 5000.0, 77777.0):
        p = _params(nu=2 * math.pi * nu_hz)
        mapped = gravito_classical_params(p)
        coeff = gravito_interaction_coefficient(p)
        assert abs(mapped.coupling * mapped.x0 - coeff) <= 1e-12 * coeff


def test_interaction_coefficient_against_frozen_oracle():
    coeff = gravito_interaction_coefficient(_params(nu=2 * math.pi * 1000.0))
    assert abs(coeff - INTERACTION_COEFF_REF) <= 1e-12 * INTERACTION_COEFF_REF


def test_energy_density_strain_quadratic():
    e1 = gw_energy_density(_params(strain=1e-21))
    e2 = gw_energy_density(_params(strain=2e-21))
    assert e2 / e1 == pytest.approx(4.0, abs=1e-12)


def test_energy_density_against_frozen_oracle():
    value = gw_energy_density(_params(nu=2 * math.pi * 1000.0))
    assert abs(value - ENERGY_DENSITY_REF) <= 1e-12 * ENERGY_DENSITY_REF
    live = oracle.oracle_wave_energy_density(2 * math.pi * 1000.0, 1e-21)
    assert abs(value - live) <= 1e-12 * live


def test_gravito_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        _params(volume=-1.0)
    with pytest.raises(ValueError):
        _params(strain=0.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("params, field", [
    (params, field) for params, fields in [
        (QubitSemiClassicalParams(omega=1.0, nu=1.0, coupling=0.1, x0=1.0),
         ("omega", "nu", "coupling")),
        (DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.1, x0=1.0),
         ("omega", "nu", "coupling")),
        (JaynesCummingsParams(nu=1.0, omega=1.0, g=0.05, field_cutoff=4),
         ("nu", "omega", "g")),
        (BeamSplitterParams(nu=1.0, omega=1.0, g=0.01, field_cutoff=8, detector_cutoff=3),
         ("nu", "omega", "g")),
        (_params(), ("mass", "length", "nu", "omega0", "strain", "volume")),
    ] for field in fields],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_params_reject_a_non_finite_input(params, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        replace(params, **{field: value})


@pytest.mark.parametrize("build, field", [
    (lambda n: JaynesCummingsParams(nu=1.0, omega=1.0, g=0.05, field_cutoff=n),
     "field_cutoff"),
    (lambda n: BeamSplitterParams(nu=1.0, omega=1.0, g=0.01, field_cutoff=n,
                                  detector_cutoff=3), "field_cutoff"),
    (lambda n: BeamSplitterParams(nu=1.0, omega=1.0, g=0.01, field_cutoff=8,
                                  detector_cutoff=n), "detector_cutoff"),
    (lambda n: DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.1, x0=1.0,
                                      detector_cutoff=n), "detector_cutoff"),
], ids=["jaynes_cummings", "beam_splitter_field", "beam_splitter_detector",
        "driven_oscillator"])
@pytest.mark.parametrize("cutoff", [1, 8.0])
def test_params_take_the_cutoff_check_of_their_boson(build, field, cutoff):
    # the space is built with the record, so hilbert.Boson judges each cutoff
    with pytest.raises(ValueError, match=f"^Boson cutoff must be an integer >= 2, "
                                         f"got {cutoff}$"):
        build(cutoff)
