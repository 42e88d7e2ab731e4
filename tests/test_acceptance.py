"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import contextlib
import functools
import io
import json
import math
import time

import numpy as np
import pytest

from quantex import (
    BeamSplitterParams,
    DrivenOscillatorParams,
    EvolutionConfig,
    GravitoParams,
    HybridState,
    JaynesCummingsParams,
    Method,
    ModelFamily,
    ModelSpec,
    QubitSemiClassicalParams,
    StateVector,
    basis_state,
    build_beam_splitter_hamiltonian,
    build_jc_hamiltonian,
    coherent_amplitude_beta,
    coherent_state,
    conditioned_energy_deficit,
    dyson_first_order,
    energy_ledger,
    evolve_driven,
    evolve_hybrid,
    evolve_unitary,
    golden_rule_fit,
    gravito_classical_params,
    gravito_interaction_coefficient,
    gravito_vacuum_coupling,
    ground_state,
    gw_energy_density,
    pn1_from_amplitude,
    rabi_peak_scan,
    scans,
    semiclassical_pn1,
    signature_report,
)
from quantex.cli import bundled_scenarios, main as cli_main

import constant_folding_oracle as oracle
from kron_reference import beam_splitter, jaynes_cummings, total_number


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {name}")
                raise
            print(f"ACCEPTANCE {number} PASS: {name}")
        return run
    return wrap


# -- 1 ------------------------------------------------------------------------


@criterion(1, "first-order oracle triangle (closed form / double integral / exact)")
def test_criterion_1_oracle_triangle():
    started = time.time()
    p = BeamSplitterParams(nu=1.0, omega=1.0, g=1e-3, field_cutoff=32,
                           detector_cutoff=6, alpha=2.0)
    h = build_beam_splitter_hamiltonian(p)
    psi0 = coherent_state(p.space, 0, 2.0)
    traj = evolve_unitary(h, psi0, EvolutionConfig(dt=0.5, t_max=10.0))
    for t in (2.0, 5.0, 10.0):
        d = dyson_first_order(p, t)
        assert d.closed_form == pytest.approx((1e-3 * t) ** 2 * 4.0, rel=1e-12)
        assert abs(d.closed_form - d.quadrature) <= 1e-10 * d.closed_form
        idx = int(round(t / 0.5))
        exact = traj.states[idx].population(1, 1)
        assert exact < 0.01
        assert abs(exact - d.closed_form) / exact <= 0.02
        assert abs(exact - d.quadrature) / exact <= 0.02
    assert time.time() - started < 5.0


# -- 2 ------------------------------------------------------------------------


@criterion(2, "unitarity and conservation audit on every full-quantum scenario")
def test_criterion_2_unitarity_conservation():
    # each case: the record that is evolved, then the Kronecker-built H and
    # total excitation number whose expectations are audited
    cases = []

    jc = JaynesCummingsParams(nu=1.0, omega=1.0, g=0.05, field_cutoff=4)
    cases.append((build_jc_hamiltonian(jc), jaynes_cummings(jc), total_number(jc.space),
                  basis_state(jc.space, [1, 0]),
                  EvolutionConfig(dt=0.1, t_max=math.pi / 0.1)))
    jc_det = JaynesCummingsParams(nu=1.3, omega=1.0, g=0.08, field_cutoff=6)
    sp = jc_det.space
    amps = (basis_state(sp, [1, 0]).amplitudes
            + basis_state(sp, [0, 1]).amplitudes) / math.sqrt(2)
    cases.append((build_jc_hamiltonian(jc_det), jaynes_cummings(jc_det), total_number(sp),
                  StateVector(sp, amps), EvolutionConfig(dt=0.2, t_max=40.0)))

    bs = BeamSplitterParams(nu=1.0, omega=1.0, g=1e-3, field_cutoff=32,
                            detector_cutoff=6, alpha=2.0)
    cases.append((build_beam_splitter_hamiltonian(bs), beam_splitter(bs),
                  total_number(bs.space),
                  coherent_state(bs.space, 0, 2.0),
                  EvolutionConfig(dt=0.5, t_max=10.0)))
    bs_det = BeamSplitterParams(nu=1.2, omega=1.0, g=0.05, field_cutoff=5,
                                detector_cutoff=5, alpha=0.0)
    cases.append((build_beam_splitter_hamiltonian(bs_det), beam_splitter(bs_det),
                  total_number(bs_det.space),
                  basis_state(bs_det.space, [1, 0]),
                  EvolutionConfig(dt=0.25, t_max=50.0)))

    for h, h_dense, n_op, psi0, cfg in cases:
        traj = evolve_unitary(h, psi0, cfg)
        assert traj.max_norm_drift <= 1e-8
        for op in (h_dense, n_op):
            series = np.einsum("ti,ti->t", traj.amplitudes.conj(),
                               traj.amplitudes @ op.T).real
            scale = max(abs(series[0]), 1e-12)
            assert np.max(np.abs(series - series[0])) <= 1e-8 * scale


# -- 3 ------------------------------------------------------------------------


@criterion(3, "prescribed-drive deficit: omega on resonance, mismatch delta detuned")
def test_criterion_3_semiclassical_deficit():
    cfg = EvolutionConfig(dt=1e-3, t_max=20.0, method=Method.MIDPOINT)

    params = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=1e-3, x0=1.0,
                                    detector_cutoff=10)
    model = ModelSpec(ModelFamily.OSCILLATOR_DRIVE, params)
    traj = evolve_driven(params, None, cfg)
    led = energy_ledger(traj, model)
    assert np.ptp(led.e_classical) == 0.0
    rep = conditioned_energy_deficit(traj, model)
    assert abs(rep.deficit - params.omega) <= 1e-9
    assert abs(rep.e_diff) <= 1e-12

    delta = 0.3
    det_params = DrivenOscillatorParams(omega=1.0, nu=1.0 + delta, coupling=1e-3,
                                        x0=1.0, detector_cutoff=10)
    det_model = ModelSpec(ModelFamily.OSCILLATOR_DRIVE, det_params)
    det_traj = evolve_driven(det_params, None, cfg)
    det_rep = conditioned_energy_deficit(det_traj, det_model)
    assert abs(det_rep.e_diff - delta) <= 1e-9
    assert abs(det_rep.deficit - det_params.omega) <= 1e-9


# -- 4 ------------------------------------------------------------------------


def _hybrid_case(family):
    if family is ModelFamily.QUBIT_DRIVE:
        params = QubitSemiClassicalParams(omega=1.0, nu=1.0, coupling=0.1, x0=1.0)
    else:
        params = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.1, x0=1.0,
                                        detector_cutoff=16)
    model = ModelSpec(family, params, back_reaction=True)
    return model, HybridState(0.0, 1.0, ground_state(params.space))


def _residual_and_drift(model, s0, dt):
    cfg = EvolutionConfig(dt=dt, t_max=10.0, method=Method.MIDPOINT)
    led = energy_ledger(evolve_hybrid(model, s0, cfg), model)
    return (float(np.nanmax(np.abs(led.backreaction_residual))),
            led.total_drift())


@criterion(4, "mean-field back-reaction: residual order >= 1.9, drift << deficit")
def test_criterion_4_neoclassical_restoration():
    deficit = 1.0  # detector quantum at matched parameters (omega = 1)
    for family in (ModelFamily.QUBIT_DRIVE, ModelFamily.OSCILLATOR_DRIVE):
        model, s0 = _hybrid_case(family)
        r_coarse, _ = _residual_and_drift(model, s0, 2e-3)
        r_fine, drift = _residual_and_drift(model, s0, 1e-3)
        order = math.log2(r_coarse / r_fine)
        assert order >= 1.9, (family, order)
        assert drift <= deficit / 100.0, (family, drift)


# -- 5 ------------------------------------------------------------------------


def _signatures_for(model, cfg, t_max):
    return signature_report(*scans(model, cfg, {
        "detuning": np.linspace(-0.9, 0.9, 33),
        "intensity": np.geomspace(1.0, 16.0, 9),
        "time": np.geomspace(1e-3, t_max, 17)}).values())


@criterion(5, "photo-electric signature triple passes for quantum AND driven models")
def test_criterion_5_signatures_both_families():
    bs = ModelSpec(ModelFamily.BEAM_SPLITTER,
                   BeamSplitterParams(nu=1.0, omega=1.0, g=1e-3, field_cutoff=60,
                                      detector_cutoff=6, alpha=2.0))
    rep_q = _signatures_for(bs, EvolutionConfig(dt=0.5, t_max=10.0), 10.0)

    # driven model: intensity axis is the squared drive amplitude
    osc = ModelSpec(ModelFamily.OSCILLATOR_DRIVE,
                    DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=1e-3,
                                           x0=1.0, detector_cutoff=8))
    rep_c = _signatures_for(
        osc, EvolutionConfig(dt=5e-3, t_max=20.0, method=Method.MIDPOINT), 20.0)

    for tag, rep in (("quantum", rep_q), ("driven", rep_c)):
        d = rep.to_dict()
        assert d["threshold"]["status"] == "pass", (tag, d)
        assert d["threshold"]["statistic"]["grid_steps_from_zero"] <= 1
        inten = d["intensity_independence"]
        assert inten["status"] == "pass", (tag, d)
        assert abs(inten["statistic"]["slope"] - 1.0) <= 0.01
        assert inten["statistic"]["gap_relative_spread"] <= 1e-6
        short = d["short_time"]
        assert short["status"] == "pass", (tag, d)
        assert short["statistic"]["min_time"] <= 1e-3
        assert short["statistic"]["min_probability"] > 0.0
        assert rep.all_pass


# -- 6 ------------------------------------------------------------------------


@criterion(6, "far-detuned peak suppression fits log-log slope -2 +/- 0.02")
def test_criterion_6_golden_rule_scaling():
    g = 1e-3
    scan = rabi_peak_scan(g, g * np.geomspace(10.0, 1000.0, 25))
    fit = golden_rule_fit(scan)
    assert abs(fit.slope + 2.0) <= 0.02


# -- 7 ------------------------------------------------------------------------


@criterion(7, "SI coupling formulas: scalings, algebraic identity, oracle values")
def test_criterion_7_gravito_constants():
    def params(nu, volume=1.0, strain=1e-21):
        return GravitoParams(mass=1000.0, length=1.0, nu=nu,
                             omega0=2 * math.pi * 1000.0, strain=strain,
                             volume=volume)

    nu0 = 2 * math.pi * 5000.0
    g1 = gravito_vacuum_coupling(params(nu0))
    assert abs(gravito_vacuum_coupling(params(4 * nu0)) / g1 - 0.5) <= 1e-12
    assert abs(gravito_vacuum_coupling(params(nu0, volume=4.0)) / g1 - 0.5) <= 1e-12

    lam1 = gravito_classical_params(params(nu0)).coupling
    lam2 = gravito_classical_params(params(2 * nu0)).coupling
    assert abs(lam2 / lam1 - 4.0) <= 1e-12

    for nu in (2 * math.pi * 313.0, nu0, 2 * math.pi * 20000.0):
        mapped = gravito_classical_params(params(nu))
        coeff = gravito_interaction_coefficient(params(nu))
        assert abs(mapped.coupling * mapped.x0 - coeff) <= 1e-12 * coeff

    e1 = gw_energy_density(params(nu0, strain=1e-21))
    e2 = gw_energy_density(params(nu0, strain=2e-21))
    assert abs(e2 / e1 - 4.0) <= 1e-12

    # cross-checks against the independently written constant-folding oracle
    # (values also frozen in tests/test_models.py from a pre-build run)
    checks = [
        (gravito_vacuum_coupling(params(nu0)),
         oracle.oracle_vacuum_coupling(1.0, nu0)),
        (gravito_classical_params(params(2 * math.pi * 1000.0)).coupling,
         oracle.oracle_drive_coupling(1000.0, 1.0, 2 * math.pi * 1000.0)),
        (gravito_interaction_coefficient(params(2 * math.pi * 1000.0)),
         oracle.oracle_interaction_coefficient(1000.0, 1.0, 2 * math.pi * 1000.0,
                                               2 * math.pi * 1000.0)),
        (gw_energy_density(params(2 * math.pi * 1000.0)),
         oracle.oracle_wave_energy_density(2 * math.pi * 1000.0, 1e-21)),
    ]
    for ours, theirs in checks:
        assert abs(ours - theirs) <= 1e-12 * abs(theirs)


# -- 8 ------------------------------------------------------------------------


@criterion(8, "driven-detector first-level triple check within 5% (weak coupling)")
def test_criterion_8_pn1_triple_check():
    p = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=1e-3, x0=1.0,
                               detector_cutoff=8)
    for t in (20.0, 30.0):
        formula = semiclassical_pn1(p, t)
        quadrature = pn1_from_amplitude(coherent_amplitude_beta(p, t))
        cfg = EvolutionConfig(dt=1e-3, t_max=t, method=Method.MIDPOINT)
        numeric = evolve_driven(p, None, cfg).final_state().population(0, 1)
        assert formula < 0.01 and numeric < 0.01
        assert abs(formula - quadrature) / quadrature <= 0.05
        assert abs(formula - numeric) / numeric <= 0.05
        assert abs(quadrature - numeric) / numeric <= 0.05


# -- 9 ------------------------------------------------------------------------


@criterion(9, "bundled scenarios rerun to byte-identical CSV artifacts")
def test_criterion_9_determinism(tmp_path):
    for name in bundled_scenarios():
        dirs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{name}_{tag}"
            started = time.time()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["run", name, "--output-dir", str(out)])
            assert code == 0, name
            assert time.time() - started < 60.0, f"{name} exceeded 60 s"
            dirs.append(out)
        manifest = json.loads((dirs[0] / "manifest.json").read_text())
        csvs = [a for a in manifest["artifacts"] if a.endswith(".csv")]
        assert csvs, f"{name} produced no CSV artifacts"
        for artifact in csvs:
            first = (dirs[0] / artifact).read_bytes()
            second = (dirs[1] / artifact).read_bytes()
            assert first == second, f"{name}/{artifact} differs between runs"
