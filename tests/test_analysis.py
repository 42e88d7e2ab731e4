import csv
import io
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quantex import (
    BeamSplitterParams,
    CoherentTailError,
    DrivenOscillatorParams,
    EnergyLedger,
    EvolutionConfig,
    HybridState,
    JaynesCummingsParams,
    Method,
    ModelFamily,
    ModelSpec,
    QubitSemiClassicalParams,
    RegimeError,
    ScanResult,
    SignatureCheck,
    ToleranceError,
    basis_state,
    build_beam_splitter_hamiltonian,
    build_jc_hamiltonian,
    conditioned_energy_deficit,
    energy_ledger,
    evolve_driven,
    evolve_hybrid,
    evolve_unitary,
    golden_rule_fit,
    ground_state,
    ledger_to_csv,
    loglog_slope,
    rabi_peak_scan,
    scan_to_csv,
    scans,
    signature_report,
)
from quantex import analysis, dynamics
from quantex.analysis import default_target
from kron_reference import beam_splitter, jaynes_cummings
from test_dynamics import _chunk_of, _dense_route, per_step_driven


def _bs_model(**overrides):
    kw = dict(nu=1.0, omega=1.0, g=0.001, field_cutoff=32, detector_cutoff=6,
              alpha=2.0)
    kw.update(overrides)
    return ModelSpec(ModelFamily.BEAM_SPLITTER, BeamSplitterParams(**kw))


def _osc_model(**overrides):
    kw = dict(omega=1.0, nu=1.0, coupling=0.001, x0=1.0, detector_cutoff=10)
    back = overrides.pop("back_reaction", False)
    kw.update(overrides)
    return ModelSpec(ModelFamily.OSCILLATOR_DRIVE, DrivenOscillatorParams(**kw),
                     back_reaction=back)


def _scan(axis, model, cfg, values):
    """The one scan ``axis`` of ``model``."""
    return scans(model, cfg, {axis: values})[axis]


def _serial_point(model, cfg):
    """The serial run of ``model`` from its default state to ``cfg.t_max``,
    by the call an audit of its family makes, and the final population of
    the detector's first excited level."""
    if model.params.driven:
        traj = evolve_driven(model.params, model.default_state, cfg)
    else:
        traj = evolve_unitary(model.params.hamiltonian(), model.default_state, cfg)
    return traj, traj.final_state().population(*default_target(model))


# -- energy ledger ------------------------------------------------------------


def test_ledger_quantum_total_constant():
    model = _bs_model()
    from quantex.analysis import default_initial_state
    traj = evolve_unitary(build_beam_splitter_hamiltonian(model.params),
                          default_initial_state(model),
                          EvolutionConfig(dt=0.5, t_max=10.0))
    led = energy_ledger(traj, model)
    assert led.total_drift() <= 1e-8 * abs(led.e_total[0])
    npt.assert_allclose(led.e_total,
                        led.e_classical + led.e_quantum_free + led.e_interaction,
                        atol=0.0)
    # coherent field of mean 4 quanta at unit frequency
    assert led.e_classical[0] == pytest.approx(4.0, abs=1e-9)


def test_ledger_semiclassical_classical_column_bit_constant():
    model = _osc_model()
    cfg = EvolutionConfig(dt=0.001, t_max=20.0, method=Method.MIDPOINT)
    traj = evolve_driven(model.params, None, cfg)
    led = energy_ledger(traj, model)
    assert np.ptp(led.e_classical) == 0.0
    assert led.e_classical[0] == 0.5  # nu x0^2 / 2


def test_ledger_semiclassical_detector_rise_matches_transition_probability():
    model = _osc_model()
    cfg = EvolutionConfig(dt=0.001, t_max=20.0, method=Method.MIDPOINT)
    traj = evolve_driven(model.params, None, cfg)
    led = energy_ledger(traj, model)
    p1 = traj.population_series(0, 1)
    # weak excitation: detector free energy ~ omega * P(n=1)
    rise = led.e_quantum_free[-1] - led.e_quantum_free[0]
    assert rise == pytest.approx(1.0 * p1[-1], rel=5e-4)


def test_ledger_energy_std_scales_with_coupling():
    # spread of the joint energy is set by the interaction strength
    cfg = EvolutionConfig(dt=0.01, t_max=5.0, method=Method.MIDPOINT)
    stds = []
    for lam in (1e-3, 2e-3):
        model = _osc_model(coupling=lam)
        traj = evolve_driven(model.params, None, cfg)
        stds.append(energy_ledger(traj, model).energy_std[-1])
    assert stds[1] / stds[0] == pytest.approx(2.0, rel=1e-2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["jaynes_cummings", "oscillator_drive"])
def test_ledger_scales_exactly_with_its_frequencies(family):
    # on one trajectory, a model whose frequencies and couplings are all
    # 2^900 times another's has every ledger column 2^900 times as large,
    # bit for bit, with no overflow: <H>^2 and <H^2> would pass the float
    # range, so the ledger forms H psi times a power of two near 1 / |H|
    big = 2.0 ** 900
    if family == "jaynes_cummings":
        params = JaynesCummingsParams(nu=1.0, omega=1.1, g=0.05, field_cutoff=4)
        scaled = replace(params, nu=big, omega=1.1 * big, g=0.05 * big)
        traj = evolve_unitary(build_jc_hamiltonian(params), basis_state(params.space, [1, 0]),
                              EvolutionConfig(dt=0.5, t_max=10.0))
        model, big_model = (ModelSpec(ModelFamily.JAYNES_CUMMINGS, p) for p in (params, scaled))
    else:
        model = _osc_model(coupling=0.1)
        p = model.params
        big_model = replace(model, params=replace(p, omega=big, nu=big * p.nu,
                                                  coupling=big * p.coupling))
        traj = evolve_driven(p, None, EvolutionConfig(dt=0.01, t_max=5.0,
                                                      method=Method.MIDPOINT))
    led, big_led = energy_ledger(traj, model), energy_ledger(traj, big_model)
    assert big_led.energy_std.max() > 1e268
    for name in ("e_classical", "e_quantum_free", "e_interaction", "e_total", "energy_std"):
        assert np.array_equal(getattr(big_led, name), big * getattr(led, name)), name


def test_ledger_hybrid_residual_shrinks_at_second_order():
    model = _osc_model(coupling=0.1, detector_cutoff=16, back_reaction=True)
    s0 = HybridState(0.0, 1.0, ground_state(model.params.space))

    def max_residual(dt):
        cfg = EvolutionConfig(dt=dt, t_max=10.0, method=Method.MIDPOINT)
        led = energy_ledger(evolve_hybrid(model, s0, cfg), model)
        return float(np.nanmax(np.abs(led.backreaction_residual)))

    r1, r2 = max_residual(0.002), max_residual(0.001)
    assert math.log2(r1 / r2) >= 1.9


def _oscillator_mean_field(params, x, p, beta, times, force=1.0):
    """The exact oscillator mean-field solution at ``times``: (x, p, beta)
    from one real 4x4 linear system in (x, p, Re beta, Im beta),
    dx/dt = nu p, dp/dt = -nu x - 2 coupling Re beta (times ``force``)
    and dbeta/dt = -i omega beta - i coupling x, solved by ``np.linalg.eig``.
    With a frozen x the detector's part is linear in b, so a coherent
    detector state stays coherent and beta = <b> carries it."""
    nu, omega, g = params.nu, params.omega, params.coupling
    a = np.array([[0.0, nu, 0.0, 0.0],
                  [-nu, 0.0, -2.0 * g * force, 0.0],
                  [0.0, 0.0, 0.0, omega],
                  [-g, 0.0, -omega, 0.0]])
    w, v = np.linalg.eig(a)
    coeffs = np.linalg.solve(v, [x, p, beta.real, beta.imag])
    y = (np.exp(np.outer(times, w)) * coeffs) @ v.T
    assert np.abs(y.imag).max() <= 1e-12
    xs, ps, re, im = y.real.T
    return xs, ps, re + 1j * im


def _mean_field_columns(params, xs, ps, beta):
    """The ledger columns of the coherent mean-field state (x, p, beta)."""
    omega, g = params.omega, params.coupling
    return {"e_classical": 0.5 * params.nu * (xs ** 2 + ps ** 2),
            "e_quantum_free": omega * np.abs(beta) ** 2,
            "e_interaction": 2.0 * g * xs * beta.real,
            "energy_std": np.abs(omega * beta + g * xs)}


def test_oscillator_mean_field_audit_matches_its_exact_solution():
    # the bundled audit's ledger against the exact solution: every column
    # within 2.5e-2 dt^2 at the bundled dt 0.001, a tenfold dt costs 100x
    from quantex import cli
    scenario = cli.validate_config(cli.load_config("oscillator_backreaction_audit"))
    model, s0, cfg = scenario.model, scenario.initial, scenario.evolution
    assert cfg.dt == 0.001
    psi = s0.psi.amplitudes
    beta0 = np.vdot(psi[:-1], np.sqrt(np.arange(1, len(psi))) * psi[1:])

    def deviations(dt, force=1.0):
        led = energy_ledger(evolve_hybrid(model, s0, replace(cfg, dt=dt)), model)
        exact = _mean_field_columns(model.params, *_oscillator_mean_field(
            model.params, s0.x, s0.p, beta0, led.times, force))
        return {k: float(np.max(np.abs(getattr(led, k) - col))) for k, col in exact.items()}

    fine, coarse = deviations(cfg.dt), deviations(10 * cfg.dt)
    for column, dev in fine.items():
        assert dev <= 2.5e-2 * cfg.dt ** 2, column
        assert 99 <= coarse[column] / dev <= 101, column
    # a force of the wrong sign is far outside the bound
    assert max(deviations(cfg.dt, force=-1.0).values()) > 0.5


def test_ledger_rejects_mismatched_spaces():
    model = _osc_model()
    other = _osc_model(detector_cutoff=12)
    cfg = EvolutionConfig(dt=0.01, t_max=1.0, method=Method.MIDPOINT)
    traj = evolve_driven(other.params, None, cfg)
    with pytest.raises(ValueError):
        energy_ledger(traj, model)


def _per_row_ledger(traj, model):
    """The per-row loops the vectorised ``energy_ledger`` replaces: one
    expectation value and one H(x) product per stored state."""
    def expect(matrix, amp):
        return float(np.real(np.vdot(amp, matrix @ amp)))

    def std(matrix, amp):
        hpsi = matrix @ amp
        mean = float(np.real(np.vdot(amp, hpsi)))
        second = float(np.real(np.vdot(hpsi, hpsi)))
        return math.sqrt(max(second - mean * mean, 0.0))

    p = model.params
    field_free, detector_free, _ = p.parts()
    free, coupling = p.free_and_coupling()
    amps = [s.amplitudes for s in traj.states]
    if p.driven:
        xs, ps = traj.classical[:, 0], traj.classical[:, 1]
        e_cl = (0.5 * p.nu * (xs ** 2 + ps ** 2) if model.back_reaction
                else np.full(len(amps), 0.5 * p.nu * p.x0 ** 2))
    else:
        xs = np.ones(len(amps))
        e_cl = np.array([expect(np.diag(field_free), a) for a in amps])
    e_int = np.array([x * expect(coupling, a) for x, a in zip(xs, amps)])
    cols = {
        "e_classical": e_cl,
        "e_quantum_free": np.array([expect(np.diag(detector_free), a) for a in amps]),
        "e_interaction": e_int,
        "energy_std": np.array([std(free + x * coupling, a) for x, a in zip(xs, amps)]),
    }
    cols["e_total"] = cols["e_classical"] + cols["e_quantum_free"] + e_int
    if model.back_reaction:
        dt = float(traj.times[1] - traj.times[0])
        dedt = (e_cl[2:] - e_cl[:-2]) / (2.0 * dt)
        power = -p.nu * ps[1:-1] * np.array([expect(coupling, a) for a in amps])[1:-1]
        cols["backreaction_residual"] = np.concatenate([[np.nan], dedt - power, [np.nan]])
        cols["dedt"] = dedt
    return cols


def _ledger_case(name):
    """A trajectory and its model for each family; the long ones span more
    than one row block of the ledger."""
    mid = dict(dt=0.002, t_max=5.0, method=Method.MIDPOINT)
    if name == "beam_splitter":
        model = _bs_model(g=0.01, omega=1.1, detector_cutoff=8)
        traj = evolve_unitary(model.params.hamiltonian(),
                              model.params.default_initial_state(),
                              EvolutionConfig(dt=0.25, t_max=20.0))
    elif name == "jaynes_cummings":
        model = ModelSpec(ModelFamily.JAYNES_CUMMINGS,
                          JaynesCummingsParams(nu=1.0, omega=1.1, g=0.05,
                                               field_cutoff=4))
        traj = evolve_unitary(model.params.hamiltonian(),
                              basis_state(model.params.space, [1, 0]),
                              EvolutionConfig(dt=0.1, t_max=40.0))
    elif name.endswith("hybrid"):
        model = (_osc_model(coupling=0.1, detector_cutoff=16, back_reaction=True)
                 if name.startswith("oscillator")
                 else ModelSpec(ModelFamily.QUBIT_DRIVE,
                                QubitSemiClassicalParams(omega=1.0, nu=1.0,
                                                         coupling=0.1, x0=1.0),
                                back_reaction=True))
        s0 = HybridState(0.0, 1.0, ground_state(model.params.space))
        traj = evolve_hybrid(model, s0, EvolutionConfig(**mid))
    else:
        model = (_osc_model(coupling=0.05) if name == "oscillator_drive"
                 else _qubit_model(coupling=0.3, nu=0.9))
        traj = evolve_driven(model.params, None, EvolutionConfig(**mid))
    return traj, model


@pytest.mark.parametrize("name", ["beam_splitter", "jaynes_cummings",
                                  "oscillator_drive", "qubit_drive",
                                  "oscillator_hybrid", "qubit_hybrid"])
def test_vectorised_ledger_matches_per_row_loops(name):
    traj, model = _ledger_case(name)
    led = energy_ledger(traj, model)
    ref = _per_row_ledger(traj, model)
    # relative to the ledger's energy scale: e_interaction of a resonant
    # exchange and e_total of the hybrid qubit are rounding noise around 0
    scale = max(np.max(np.abs(ref[c])) for c in
                ("e_classical", "e_quantum_free", "e_interaction", "e_total"))
    for col in ("e_classical", "e_quantum_free", "e_interaction", "e_total",
                "energy_std"):
        npt.assert_allclose(getattr(led, col), ref[col], rtol=1e-12,
                            atol=1e-12 * scale, err_msg=col)
    if model.back_reaction:
        res = led.backreaction_residual
        assert np.isnan(res[0]) and np.isnan(res[-1])
        assert not np.any(np.isnan(res[1:-1]))
        # the residual is the small difference of two rates of this size
        npt.assert_allclose(res[1:-1], ref["backreaction_residual"][1:-1],
                            rtol=0, atol=1e-12 * np.max(np.abs(ref["dedt"])))
    else:
        assert led.backreaction_residual is None
    if model.params.driven and not model.back_reaction:
        assert np.ptp(led.e_classical) == 0.0
        assert led.e_classical[0] == 0.5 * model.params.nu * model.params.x0 ** 2


# -- conditioned deficit ------------------------------------------------------


def test_deficit_resonant_semiclassical_equals_detector_quantum():
    model = _osc_model()
    cfg = EvolutionConfig(dt=0.001, t_max=20.0, method=Method.MIDPOINT)
    traj = evolve_driven(model.params, None, cfg)
    rep = conditioned_energy_deficit(traj, model)
    assert abs(rep.deficit - 1.0) <= 1e-9
    assert rep.e_diff == pytest.approx(0.0, abs=1e-12)
    assert rep.e_after - rep.e_before == pytest.approx(rep.deficit, abs=0.0)


def test_deficit_semiclassical_counts_from_the_first_state():
    # two detector quanta at the start, one at readout: the detector gives
    # one quantum up, it does not gain one
    model = _osc_model(coupling=0.05)
    cfg = EvolutionConfig(dt=0.001, t_max=2.0, method=Method.MIDPOINT)
    traj = evolve_driven(model.params, basis_state(model.params.space, [2]), cfg)
    rep = conditioned_energy_deficit(traj, model)
    assert (rep.e_before, rep.e_after, rep.deficit) == (2.5, 1.5, -1.0)
    assert rep.detector_quantum == 1.0
    # an excited qubit read out excited has moved no energy
    model = _qubit_model(coupling=0.05)
    traj = evolve_driven(model.params, basis_state(model.params.space, [1]), cfg)
    rep = conditioned_energy_deficit(traj, model)
    assert (rep.e_before, rep.e_after, rep.deficit) == (1.0, 1.0, 0.0)


def test_deficit_detuned_reports_quantum_mismatch():
    delta = 0.3
    model = _osc_model(nu=1.0 + delta)
    cfg = EvolutionConfig(dt=0.001, t_max=20.0, method=Method.MIDPOINT)
    traj = evolve_driven(model.params, None, cfg)
    rep = conditioned_energy_deficit(traj, model)
    assert abs(rep.deficit - 1.0) <= 1e-9       # detector still absorbs omega
    assert abs(rep.e_diff - delta) <= 1e-9      # field quantum mismatch
    assert rep.field_quantum == pytest.approx(1.3)


def test_deficit_quantum_bookkeeping_closes_on_resonance():
    p = BeamSplitterParams(nu=1.0, omega=1.0, g=0.01, field_cutoff=4,
                           detector_cutoff=4, alpha=0.0)
    model = ModelSpec(ModelFamily.BEAM_SPLITTER, p)
    t_swap = math.pi / 0.02
    traj = evolve_unitary(build_beam_splitter_hamiltonian(p),
                          basis_state(p.space, [1, 0]),
                          EvolutionConfig(dt=t_swap / 32, t_max=t_swap))
    rep = conditioned_energy_deficit(traj, model)
    assert abs(rep.deficit) <= 1e-8
    assert rep.probability == pytest.approx(1.0, abs=1e-9)


def test_deficit_quantum_detuned_is_minus_detuning():
    # the transition takes one nu quantum from the field and deposits one
    # omega quantum in the detector
    delta = 0.2
    p = BeamSplitterParams(nu=1.0 + delta, omega=1.0, g=0.1, field_cutoff=4,
                           detector_cutoff=4, alpha=0.0)
    model = ModelSpec(ModelFamily.BEAM_SPLITTER, p)
    omega_r = math.hypot(0.1, delta / 2)
    traj = evolve_unitary(build_beam_splitter_hamiltonian(p),
                          basis_state(p.space, [1, 0]),
                          EvolutionConfig(dt=0.05, t_max=math.pi / (2 * omega_r)))
    rep = conditioned_energy_deficit(traj, model)
    assert rep.deficit == pytest.approx(-delta, abs=1e-9)
    assert rep.e_diff == pytest.approx(delta, abs=1e-12)


def test_deficit_needs_conditionable_probability():
    model = _osc_model(coupling=0.0)
    cfg = EvolutionConfig(dt=0.01, t_max=1.0, method=Method.MIDPOINT)
    traj = evolve_driven(model.params, None, cfg)
    with pytest.raises(ToleranceError, match="nothing to condition on"):
        conditioned_energy_deficit(traj, model)


@pytest.mark.parametrize("coupling", [0.0, 0.1])
def test_deficit_rejects_a_mean_field_run_whatever_its_population(coupling):
    # at zero coupling the detector stays in its ground state, so the
    # readout floor would also trip; the misuse is reported first
    model = ModelSpec(ModelFamily.QUBIT_DRIVE,
                      QubitSemiClassicalParams(omega=1.0, nu=1.0, coupling=coupling,
                                               x0=1.0),
                      back_reaction=True)
    traj = evolve_hybrid(model, HybridState(0.0, 1.0, ground_state(model.params.space)),
                         EvolutionConfig(dt=0.01, t_max=1.0))
    with pytest.raises(ValueError, match="mean-field runs are audited by ledger"):
        conditioned_energy_deficit(traj, model)


def test_transition_probability_series_basics():
    p = JaynesCummingsParams(nu=1.0, omega=1.0, g=0.02, field_cutoff=4)
    model = ModelSpec(ModelFamily.JAYNES_CUMMINGS, p)
    traj = evolve_unitary(build_jc_hamiltonian(p), basis_state(p.space, [1, 0]),
                          EvolutionConfig(dt=0.5, t_max=math.pi / 0.02))
    pe = traj.population_series(1, 1)
    assert pe[0] == 0.0
    assert pe.max() == pytest.approx(1.0, abs=1e-4)
    assert np.all((pe >= 0) & (pe <= 1))


# -- scans ---------------------------------------------------------------------


def test_detuning_scan_sinc_zeroes_and_argmax():
    model = _bs_model()
    cfg = EvolutionConfig(dt=1.0, t_max=10.0)
    t = 10.0
    zero1 = 2 * math.pi / t
    deltas = np.linspace(-0.9, 0.9, 61)
    scan = _scan("detuning", model, cfg, deltas)
    assert scan.axis_name == "detuning"
    probs = scan.probabilities
    assert np.argmax(probs) == 30
    izero = np.argmin(np.abs(deltas - zero1))
    assert probs[izero] < 1e-3 * probs.max()


def test_detuning_scan_tags_bad_points_instead_of_aborting():
    # detector cutoff 3 overflows near resonance but survives far detuned
    p = BeamSplitterParams(nu=1.0, omega=1.0, g=0.002, field_cutoff=32,
                           detector_cutoff=3, alpha=2.0)
    model = ModelSpec(ModelFamily.BEAM_SPLITTER, p)
    cfg = EvolutionConfig(dt=0.5, t_max=30.0)
    scan = _scan("detuning", model, cfg, np.linspace(-0.8, 0.8, 9))
    assert math.isnan(scan.probabilities[4])
    assert "ToleranceError" in scan.errors[4]
    assert np.isfinite(scan.probabilities[0])
    assert scan.errors[0] is None


def test_detuning_argmax_at_zero_for_every_family():
    # the resonance threshold sits at zero detuning for all four models
    deltas = np.linspace(-0.5, 0.5, 21)
    cases = [
        (_bs_model(), EvolutionConfig(dt=1.0, t_max=10.0)),
        (ModelSpec(ModelFamily.JAYNES_CUMMINGS,
                   JaynesCummingsParams(nu=1.0, omega=1.0, g=0.01, field_cutoff=4)),
         EvolutionConfig(dt=1.0, t_max=10.0)),
        (_osc_model(), EvolutionConfig(dt=0.01, t_max=20.0, method=Method.MIDPOINT)),
        (ModelSpec(ModelFamily.QUBIT_DRIVE,
                   QubitSemiClassicalParams(omega=10.0, nu=10.0, coupling=0.01,
                                            x0=1.0)),
         EvolutionConfig(dt=0.01, t_max=20.0, method=Method.MIDPOINT)),
    ]
    izero = 10
    for model, cfg in cases:
        scan = _scan("detuning", model, cfg, deltas)
        assert abs(int(np.argmax(scan.probabilities)) - izero) <= 1, model.family


def test_signature_report_json_matches_published_schema():
    import jsonschema
    from importlib import resources
    det, inten, tim = _bs_signature_scans()
    payload = signature_report(det, inten, tim).to_dict()
    schema = json.loads(resources.files("quantex").joinpath(
        "schema/signature_report.schema.json").read_text())
    jsonschema.validate(payload, schema)


def test_intensity_scan_slope_and_gap():
    model = _bs_model()
    cfg = EvolutionConfig(dt=1.0, t_max=10.0)
    scan = _scan("intensity", model, cfg, np.geomspace(1.0, 4.0, 7))
    fit = loglog_slope(scan.axis, scan.probabilities)
    assert abs(fit.slope - 1.0) <= 0.01
    npt.assert_allclose(scan.aux["transition_gap"], 1.0, rtol=1e-9)


def test_intensity_scan_driven_family_uses_drive_amplitude():
    model = _osc_model()
    cfg = EvolutionConfig(dt=0.005, t_max=10.0, method=Method.MIDPOINT)
    scan = _scan("intensity", model, cfg, np.array([1.0, 2.0, 4.0, 8.0]))
    fit = loglog_slope(scan.axis, scan.probabilities)
    assert abs(fit.slope - 1.0) <= 0.01


def test_time_scan_short_time_quadratic_growth():
    model = _bs_model()
    cfg = EvolutionConfig(dt=0.5, t_max=10.0)
    times = np.geomspace(1e-3, 1e-1, 9)
    scan = _scan("time", model, cfg, times)
    fit = loglog_slope(scan.axis, scan.probabilities)
    assert abs(fit.slope - 2.0) <= 0.01
    assert np.all(scan.probabilities > 0)


def test_time_scan_driven_runs_per_point():
    model = _osc_model()
    cfg = EvolutionConfig(dt=0.01, t_max=10.0, method=Method.MIDPOINT)
    times = np.geomspace(0.001, 10.0, 7)
    scan = _scan("time", model, cfg, times)
    assert np.all(scan.probabilities > 0)
    ref = abs(1e-3 * 10.0 ** 2 / 2.0) ** 2  # drive ~ x0 nu^2 t^2/2 at short t
    assert scan.probabilities[0] == pytest.approx((1e-3) ** 2 * 1e-6 / 4, rel=0.01)


# -- batched prescribed-drive scans against the serial reference -----------------


def _qubit_model(**overrides):
    kw = dict(omega=1.0, nu=1.0, coupling=0.1, x0=1.0)
    kw.update(overrides)
    return ModelSpec(ModelFamily.QUBIT_DRIVE, QubitSemiClassicalParams(**kw))


def _reference_run(model, cfg):
    """Final amplitudes and error tag of the per-step reference run."""
    try:
        return per_step_driven(model.params, cfg)[-1], None
    except ToleranceError as exc:
        return None, exc


@pytest.mark.parametrize("method", [Method.MIDPOINT])
@pytest.mark.parametrize("make", [
    lambda: _osc_model(coupling=0.01, detector_cutoff=6),
    lambda: _qubit_model(coupling=0.05),
])
def test_batched_final_states_match_serial_on_every_scan_axis(make, method):
    model = make()
    cfg = EvolutionConfig(dt=0.01, t_max=2.0, method=method)
    h0, c = model.params.free_and_coupling()
    psi0 = ground_state(model.params.space)
    times = np.geomspace(0.013, 2.0, 4)
    axes = {
        "detuning": ([model.with_nu(1.0 + d) for d in (-0.5, 0.0, 0.5)],
                     [cfg] * 3),
        "intensity": ([ModelSpec(model.family, replace(model.params, x0=math.sqrt(i)))
                       for i in (0.5, 1.0, 4.0)], [cfg] * 3),
        "time": ([model] * len(times),
                 [replace(cfg, dt=t / max(1, round(t / cfg.dt)), t_max=t)
                  for t in times]),
    }
    for axis, (models, cfgs) in axes.items():
        finals, errors, _ = dynamics._evolve_driven_batch(
            h0, c, psi0, [m.params.x0 for m in models],
            [m.params.nu for m in models], [q.t_max for q in cfgs],
            [q.n_steps for q in cfgs])
        assert errors == [None] * len(models), axis
        for final, m, q in zip(finals, models, cfgs):
            ref, exc = _reference_run(m, q)
            assert exc is None, axis
            npt.assert_allclose(final, ref, rtol=0, atol=1e-12, err_msg=axis)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.floats(0.5, 1.5), st.floats(0.1, 2.0),
                          st.floats(0.05, 10.0), st.integers(1, 300)),
                min_size=1, max_size=50))
def test_batched_runs_match_per_step_reference_across_chunks(runs):
    # runs of (nu, x0, t_end, n_steps): the chunk length, 256 propagators
    # over the number of live runs, shrinks with it, so the step counts
    # straddle chunk boundaries; at cutoff 4 the strong near-resonant
    # drives trip the top-level guard at different steps, and the other
    # runs keep going
    make = lambda nu, x0: DrivenOscillatorParams(omega=1.0, nu=nu, coupling=0.05,
                                                 x0=x0, detector_cutoff=4)
    cfg = EvolutionConfig(dt=0.1, t_max=1.0, method=Method.MIDPOINT)
    base = make(1.0, 1.0)
    nus, x0s, t_ends, n_steps = zip(*runs)
    # the batch and every per-step reference run under the same bound
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EvolutionConfig, "top_level_tol", 1e-5)
        _chunk_of(patch, base)
        finals, errors, _ = dynamics._evolve_driven_batch(
            *base.free_and_coupling(), ground_state(base.space), x0s, nus, t_ends,
            n_steps)
        for (nu, x0, t_end, n), final, exc in zip(runs, finals, errors):
            run_cfg = replace(cfg, dt=t_end / n, t_max=t_end)
            assert run_cfg.n_steps == n
            ref, ref_exc = _reference_run(ModelSpec(ModelFamily.OSCILLATOR_DRIVE,
                                                    make(nu, x0)), run_cfg)
            assert str(exc) == str(ref_exc)
            if ref_exc is None:
                npt.assert_allclose(final, ref, rtol=0, atol=1e-12)
            else:
                assert np.all(np.isnan(final))


def test_driven_scans_match_their_serial_runs():
    model = _osc_model(coupling=0.01, detector_cutoff=6)
    cfg = EvolutionConfig(dt=0.01, t_max=2.0, method=Method.MIDPOINT)
    deltas = np.array([-0.5, 0.0, 0.5])
    scan = _scan("detuning", model, cfg, deltas)
    points = [model.with_nu(1.0 + d) for d in deltas]
    serial = [_serial_point(m, cfg)[1] for m in points]
    npt.assert_allclose(scan.probabilities, serial, rtol=1e-12, atol=0)
    times = np.array([0.013, 0.5, 2.0])
    scan = _scan("time", model, cfg, times)
    serial = [_serial_point(model, EvolutionConfig(dt=t / round(t / 0.01), t_max=t,
                                                   method=Method.MIDPOINT))[1]
              for t in times]
    npt.assert_allclose(scan.probabilities, serial, rtol=1e-12, atol=0)


@pytest.mark.parametrize("method, dt, t_max", [
    (Method.MIDPOINT, 0.01, 3.0),
    (Method.MIDPOINT, 0.5, 20.0),     # each table's Taylor sum runs to degree 12 or 25
], ids=["midpoint", "midpoint-coarse"])
@pytest.mark.parametrize("make", [
    lambda: _osc_model(coupling=0.01, detector_cutoff=6),
    lambda: _qubit_model(coupling=0.05),
], ids=["oscillator", "qubit"])
def test_driven_scan_points_equal_their_serial_runs(make, method, dt, t_max):
    # batching changes how many runs share a stacked call, never the
    # arithmetic of one run, so each point gives its serial run's bits
    model = make()
    cfg = EvolutionConfig(dt=dt, t_max=t_max, method=method)
    deltas = np.array([-0.5, -0.1, 0.0, 0.3, 0.5])
    scan = _scan("detuning", model, cfg, deltas)
    assert scan.errors == (None,) * len(deltas)
    points = [model.with_nu(1.0 + d) for d in deltas]
    assert scan.probabilities.tolist() == [
        _serial_point(m, cfg)[1] for m in points]
    times = t_max * np.array([0.03, 0.2, 0.57, 1.0])
    scan = _scan("time", model, cfg, times)
    assert scan.errors == (None,) * len(times)
    assert scan.probabilities.tolist() == [
        _serial_point(model, replace(cfg, dt=t / max(1, round(t / dt)), t_max=t))[1]
        for t in times]
    # each point plans its own step table: these drives need three degrees
    intensities = np.array([1e-6, 1e-2, 1.0])
    norm_c = np.abs(model.params.free_and_coupling()[1]).sum(axis=0).max()
    degrees = {dynamics._taylor_plan(dt * math.sqrt(i) * norm_c)[0] for i in intensities}
    assert len(degrees) == len(intensities)
    scan = _scan("intensity", model, cfg, intensities)
    assert scan.errors == (None,) * len(intensities)
    points = [model.with_intensity(i) for i in intensities]
    assert scan.probabilities.tolist() == [
        _serial_point(m, cfg)[1] for m in points]


def _time_scan_cfgs(cfg, times):
    """The per-point configs of a time scan: each readout t on its own grid."""
    return [replace(cfg, dt=t / max(1, round(t / cfg.dt)), t_max=t) for t in times]


def _same_bits(a, b):
    """Two scans of one axis hold the same probabilities, aux columns and
    error tags, bit for bit (NaN included)."""
    assert a.probabilities.tobytes() == b.probabilities.tobytes()
    assert a.aux.keys() == b.aux.keys()
    assert all(a.aux[k].tobytes() == b.aux[k].tobytes() for k in a.aux)
    assert a.errors == b.errors


@pytest.mark.parametrize("model, cfg", [
    (_bs_model(), EvolutionConfig(dt=0.5, t_max=10.0)),
    (ModelSpec(ModelFamily.JAYNES_CUMMINGS,
               JaynesCummingsParams(nu=1.0, omega=1.0, g=0.05, field_cutoff=6)),
     EvolutionConfig(dt=0.1, t_max=10 * math.pi)),
], ids=["beam_splitter", "jaynes_cummings"])
def test_quantized_scan_points_equal_their_serial_runs(model, cfg):
    # one batch shares the layout and the stacked eigh, never the
    # arithmetic of one point, so each point gives its serial run's bits,
    # whether its axis runs alone or in one batch with the other axes
    from quantex.analysis import _expect_diag
    deltas = np.array([-0.5, -0.1, 0.0, 0.3, 0.5])
    times = cfg.t_max * np.array([0.001, 0.2, 0.57, 1.0])
    axes = {"detuning": (deltas, [model.with_nu(1.0 + d) for d in deltas],
                         [cfg] * len(deltas)),
            "time": (times, [model] * len(times), _time_scan_cfgs(cfg, times))}
    if model.params.intensity_field is not None:
        intensities = np.array([1.0, 2.0, 4.0])
        axes["intensity"] = (intensities, [model.with_intensity(i) for i in intensities],
                             [cfg] * 3)
    together = scans(model, cfg, {name: axis for name, (axis, _, _) in axes.items()})
    _, detector_free, _ = model.params.parts()
    levels = model.params.detector_levels()
    for name, (axis, points, cfgs) in axes.items():
        serial = [_serial_point(m, q) for m, q in zip(points, cfgs)]
        alone = _scan(name, model, cfg, axis)
        _same_bits(alone, together[name])
        assert alone.errors == (None,) * len(axis)
        assert alone.probabilities.tolist() == [p for _, p in serial]
        if name != "intensity":
            assert alone.aux == {}
            continue
        gaps = []
        for traj, _ in serial:
            first, final = traj.amplitudes[[0, -1]]
            de = _expect_diag(detector_free, final) - _expect_diag(detector_free, first)
            dn = _expect_diag(levels, final) - _expect_diag(levels, first)
            gaps.append(de / dn)
        assert alone.aux["transition_gap"].tolist() == gaps


def test_quantized_batch_tags_each_point_like_its_serial_run():
    # a detector cut at 3 levels overflows near resonance and holds far
    # detuned; delta -1 puts nu at 0, which the params reject
    model = _bs_model(g=0.002, detector_cutoff=3)
    cfg = EvolutionConfig(dt=0.5, t_max=10.0)
    deltas = np.array([-1.0, -0.8, 0.0, 0.8])
    serial = []
    for delta in deltas:
        try:
            m = model.with_nu(1.0 + delta)
            serial.append((None, _serial_point(m, cfg)[1]))
        except (ToleranceError, ValueError) as exc:
            serial.append((f"{type(exc).__name__}: {exc}", None))
    assert serial[0][0] == "ValueError: nu must be > 0, got 0.0"
    assert serial[2][0].startswith("ToleranceError: top Fock level")
    scan = _scan("detuning", model, cfg, deltas)
    assert list(scan.errors) == [tag for tag, _ in serial]
    assert np.isnan(scan.probabilities[[0, 2]]).all() and scan.aux == {}
    for (_, prob), batch_prob in zip(serial, scan.probabilities.tolist()):
        assert (prob is None and math.isnan(batch_prob)) or prob == batch_prob
    # in one batch with a time axis, the points keep their bits and tags
    _same_bits(scans(model, cfg, {"time": np.array([0.5, 10.0]), "detuning": deltas})
               ["detuning"], scan)


def test_quantized_scans_decompose_once_per_block_size(monkeypatch):
    # the bundled beam splitter: excitation-number sectors of 1 to 6 states
    model = _bs_model(field_cutoff=60)
    cfg = EvolutionConfig(dt=0.5, t_max=10.0)
    eigh, shapes = np.linalg.eigh, []

    def counting_eigh(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    _scan("time", model, cfg, np.geomspace(0.001, 10.0, 25))
    assert sorted(shape[-1] for shape in shapes) == [1, 2, 3, 4, 5, 6]
    # one distinct Hamiltonian for the whole time scan
    assert {shape[0] for shape in shapes} == {1}
    shapes.clear()
    _scan("detuning", model, cfg, np.linspace(-0.9, 0.9, 41))
    assert len(shapes) == 6 and {shape[0] for shape in shapes} == {41}


def test_quantized_scans_read_the_hop_lists_once_per_point(monkeypatch):
    from quantex import analysis
    calls, dense = [], []
    parts = BeamSplitterParams.parts

    def counting_parts(p):
        calls.append(p)
        return parts(p)

    monkeypatch.setattr(BeamSplitterParams, "parts", counting_parts)
    monkeypatch.setattr(BeamSplitterParams, "hamiltonian",
                        lambda p, x=1.0: dense.append(p))
    model = _bs_model(detector_cutoff=4)
    cfg = EvolutionConfig(dt=0.5, t_max=10.0)
    assert analysis.default_target(model) == (1, 1)
    assert not calls
    # once for the scanned model, whose hops every point steps with, and
    # once for each detuning point's own diagonal
    _scan("detuning", model, cfg, np.linspace(-0.5, 0.5, 5))
    assert len(calls) == 6
    # a time scan runs every readout time as a point of its own, each the
    # model itself, whose parts it reads once
    _scan("time", model, cfg, np.array([0.1, 1.0, 10.0]))
    assert len(calls) == 7
    assert not dense


@pytest.mark.parametrize("params", [
    BeamSplitterParams(nu=1.0, omega=1.0, g=0.001, field_cutoff=60, detector_cutoff=6,
                       alpha=2.0),
    JaynesCummingsParams(nu=1.0, omega=1.0, g=0.05, field_cutoff=4),
], ids=["beam_splitter", "jaynes_cummings"])
def test_a_quantized_time_scan_builds_its_model_once(monkeypatch, params):
    cls = type(params)
    family = next(f for f in ModelFamily if f.params_type is cls)
    # the bundled time scan's 25 points; that each point gives the bits of
    # its serial run is test_quantized_scan_points_equal_their_serial_runs's
    calls, parts = [], cls.parts
    monkeypatch.setattr(cls, "parts", lambda p: calls.append(p) or parts(p))
    scan = _scan("time", ModelSpec(family, params), EvolutionConfig(dt=0.5, t_max=10.0),
                     np.geomspace(0.001, 10.0, 25))
    assert calls == [params] and not any(scan.errors)


_JC_ON = JaynesCummingsParams(nu=1.0, omega=1.0, g=0.05, field_cutoff=4)


@pytest.mark.parametrize("family, p, cfg", [
    (ModelFamily.BEAM_SPLITTER,
     BeamSplitterParams(nu=1.0, omega=1.0, g=0.001, field_cutoff=60,
                        detector_cutoff=6, alpha=2.0),
     EvolutionConfig(dt=0.5, t_max=10.0)),
    (ModelFamily.BEAM_SPLITTER,
     BeamSplitterParams(nu=1.0, omega=1.0, g=0.0, field_cutoff=60,
                        detector_cutoff=6, alpha=2.0),
     EvolutionConfig(dt=0.5, t_max=10.0)),
    (ModelFamily.JAYNES_CUMMINGS, _JC_ON, EvolutionConfig(dt=0.1, t_max=10 * math.pi)),
    (ModelFamily.JAYNES_CUMMINGS, replace(_JC_ON, nu=1.2),
     EvolutionConfig(dt=0.1, t_max=10 * math.pi)),
    (ModelFamily.JAYNES_CUMMINGS, replace(_JC_ON, g=0.0),
     EvolutionConfig(dt=0.1, t_max=10 * math.pi)),
], ids=["beam_splitter_60x6", "beam_splitter_g0", "jc_resonant", "jc_detuned", "jc_g0"])
def test_run_point_matches_evolve_unitary_of_the_dense_hamiltonian(family, p, cfg):
    # the second route: a dense eigh propagation of the Kronecker-built H
    model = ModelSpec(family, p)
    traj, prob = _serial_point(model, cfg)
    m = beam_splitter(p) if family is ModelFamily.BEAM_SPLITTER else jaynes_cummings(p)
    dense = _dense_route(m, p.default_initial_state().amplitudes, cfg.time_grid())
    npt.assert_array_equal(traj.times, cfg.time_grid())
    npt.assert_allclose(traj.amplitudes, dense, rtol=0, atol=1e-12)
    detector_one = p.space.levels[1] == 1
    assert prob == pytest.approx(np.sum(np.abs(dense[-1, detector_one]) ** 2),
                                 rel=0, abs=1e-12)


def test_scans_build_each_initial_state_once(monkeypatch, tmp_path):
    from quantex import models
    from quantex.cli import main
    # no family's default state reads nu, so a detuning scan's points share
    # the state of the model it scans
    for p in (BeamSplitterParams(nu=1.0, omega=1.0, g=0.1, field_cutoff=24,
                                 detector_cutoff=3, alpha=1.5),
              _JC_ON, _osc_model().params, _qubit_model().params):
        assert (replace(p, nu=1.7).default_initial_state().amplitudes.tobytes()
                == p.default_initial_state().amplitudes.tobytes())
    coherent, built = models.coherent_state, []

    def counting(space, factor, alpha):
        built.append(alpha)
        return coherent(space, factor, alpha)

    monkeypatch.setattr(models, "coherent_state", counting)
    # 41 detuning and 25 time points start from the scanned model's one
    # state, built once for both scans, and 9 intensity points from their own
    assert main(["run", "signatures_beam_splitter", "--output-dir", str(tmp_path)]) == 0
    assert len(built) <= 10


def test_a_failed_initial_state_tags_only_its_own_points(monkeypatch):
    from quantex import models
    coherent = models.coherent_state

    def failing(space, factor, alpha):
        if alpha == 2.0:
            raise CoherentTailError("forced")
        return coherent(space, factor, alpha)

    monkeypatch.setattr(models, "coherent_state", failing)
    model = _bs_model()     # alpha = 2
    cfg = EvolutionConfig(dt=0.5, t_max=10.0)
    scan = _scan("intensity", model, cfg, np.array([1.0, 4.0, 6.0]))
    assert scan.errors == (None, "CoherentTailError: forced", None)
    assert np.isnan(scan.probabilities[1]) and np.isfinite(scan.probabilities[[0, 2]]).all()
    # a failed build is not kept: every point that needs the state raises its own
    for scan in (_scan("time", model, cfg, np.array([1.0, 2.0])),
                 _scan("detuning", model, cfg, np.array([-0.1, 0.1]))):
        assert scan.errors == ("CoherentTailError: forced",) * 2


def test_quantized_time_scan_tags_late_top_level_trips_like_serial():
    # a detector cut at 3 levels holds early on but overflows at late times
    model = _bs_model(g=0.002, detector_cutoff=3)
    cfg = EvolutionConfig(dt=0.5, t_max=10.0)
    times = np.array([0.5, 2.0, 5.0, 10.0])
    scan = _scan("time", model, cfg, times)
    tags = [_serial_tag(model, replace(cfg, dt=t / max(1, round(t / cfg.dt)), t_max=t))
            for t in times]
    assert tags[:2] == [None, None]
    assert all(tag is not None and "top Fock level" in tag for tag in tags[2:])
    assert list(scan.errors) == tags
    assert np.all(np.isfinite(scan.probabilities[:2]))
    assert np.all(np.isnan(scan.probabilities[2:]))


@settings(max_examples=6, deadline=None)
@given(st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=4), st.booleans())
def test_reversing_a_scan_axis_reverses_its_points(deltas, small_cutoff):
    deltas = np.unique(np.append(deltas, 0.0))  # small cutoffs overflow at resonance
    cases = [
        (_osc_model(coupling=0.03, detector_cutoff=4 if small_cutoff else 8),
         EvolutionConfig(dt=0.01, t_max=10.0, method=Method.MIDPOINT)),
        (_bs_model(g=0.002, alpha=1.0, field_cutoff=16,
                   detector_cutoff=3 if small_cutoff else 6),
         EvolutionConfig(dt=0.5, t_max=10.0)),
    ]
    for model, cfg in cases:
        forward = _scan("detuning", model, cfg, deltas)
        backward = _scan("detuning", model, cfg, deltas[::-1])
        npt.assert_allclose(backward.probabilities[::-1], forward.probabilities,
                            rtol=0, atol=1e-12)
        assert backward.errors[::-1] == forward.errors
        assert (forward.errors[np.flatnonzero(deltas == 0.0)[0]] is None) \
            != small_cutoff


def _serial_tag(model, cfg):
    try:
        _serial_point(model, cfg)
    except ToleranceError as exc:
        return f"ToleranceError: {exc}"
    return None


def test_batched_scan_tags_top_level_trip_like_serial():
    # cutoff 4 overflows at resonance but holds far detuned
    model = _osc_model(coupling=0.03, detector_cutoff=4)
    cfg = EvolutionConfig(dt=0.01, t_max=10.0, method=Method.MIDPOINT)
    deltas = np.array([-0.8, 0.0, 0.8])
    scan = _scan("detuning", model, cfg, deltas)
    tags = [_serial_tag(model.with_nu(1.0 + d), cfg) for d in deltas]
    assert tags[1] is not None and "top Fock level" in tags[1]
    assert list(scan.errors) == tags
    assert math.isnan(scan.probabilities[1])
    assert np.all(np.isfinite(scan.probabilities[[0, 2]]))
    # on resonance the short readout leaves the batch before the long one trips
    times = np.array([1.0, 10.0])
    scan = _scan("time", model, cfg, times)
    tags = [_serial_tag(model, EvolutionConfig(dt=t / round(t / 0.01), t_max=t,
                                               method=Method.MIDPOINT))
            for t in times]
    assert tags[0] is None and tags[1] is not None
    assert list(scan.errors) == tags
    assert np.isfinite(scan.probabilities[0]) and math.isnan(scan.probabilities[1])


def test_batched_scan_tags_norm_trip_like_serial(monkeypatch):
    # a midpoint step drifts from norm 1 by rounding alone, a few 1e-16, so
    # a tolerance below that trips every point; each tag must name the
    # drift and time of the point's own serial run, bit for bit
    model = _qubit_model()
    cfg = EvolutionConfig(dt=0.1, t_max=5.0, method=Method.MIDPOINT)
    monkeypatch.setattr(EvolutionConfig, "norm_drift_tol", 1e-17)
    intensities = np.array([0.25, 1.0, 400.0])
    scan = _scan("intensity", model, cfg, intensities)
    tags = [_serial_tag(ModelSpec(model.family,
                                  replace(model.params, x0=math.sqrt(i))), cfg)
            for i in intensities]
    assert all(tag is not None and "norm drift" in tag for tag in tags)
    assert list(scan.errors) == tags
    assert np.all(np.isnan(scan.probabilities))
    assert np.all(np.isnan(scan.aux["transition_gap"]))


def test_scan_result_requires_monotone_axis():
    with pytest.raises(ValueError):
        ScanResult("detuning", np.array([0.0, 1.0, 0.5]), np.zeros(3), "x", {},
                   errors=(None,) * 3, aux={})


def test_scan_result_aux_columns_are_read_only():
    gaps = np.array([1.0, 2.0])
    scan = ScanResult("intensity", np.array([1.0, 2.0]), np.zeros(2), "x", {},
                      errors=(None,) * 2, aux={"transition_gap": gaps})
    with pytest.raises(ValueError):
        scan.aux["transition_gap"][0] = 5.0
    # the caller's array stays its own and writable
    gaps[0] = 5.0
    assert scan.aux["transition_gap"].tolist() == [1.0, 2.0]
    inten = _scan("intensity", _bs_model(), EvolutionConfig(dt=0.5, t_max=10.0),
                           np.array([1.0, 4.0]))
    assert not inten.aux["transition_gap"].flags.writeable


@pytest.mark.parametrize("axis, values", [
    ("detuning", np.array([-0.1, 0.0, 0.1])),
    ("intensity", np.array([1.0, 4.0])),
    ("time", np.array([1.0, 2.0])),
], ids=["detuning", "intensity", "time"])
def test_scans_of_a_mean_field_model_raise(axis, values):
    model = _osc_model(back_reaction=True)
    cfg = EvolutionConfig(dt=0.01, t_max=2.0, method=Method.MIDPOINT)
    with pytest.raises(ValueError, match="prescribed or quantized models only"):
        _scan(axis, model, cfg, values)


@pytest.mark.parametrize("axis, values", [
    ("detuning", [-0.1, math.nan, 0.1]),
    ("intensity", [1.0, math.nan, 4.0]),
    ("time", [1.0, math.nan, 2.0]),
], ids=["detuning", "intensity", "time"])
@pytest.mark.parametrize("model", [_bs_model(), _osc_model()], ids=["quantized", "driven"])
def test_a_nan_scan_value_raises_before_any_point_runs(monkeypatch, model, axis, values):
    calls = []
    for name in ("_evolve_blocks", "_evolve_driven_batch"):
        monkeypatch.setattr(dynamics, name, lambda *a, name=name, **kw: calls.append(name))
    with pytest.raises(ValueError, match="needs finite"):
        _scan(axis, model, EvolutionConfig(dt=0.5, t_max=10.0), np.array(values))
    assert calls == []


@pytest.mark.parametrize("axis, values", [
    ("detuning", np.linspace(0.0, 5e-324, 3)),
    ("intensity", np.geomspace(1.0, 1.0000000000000002, 9)),
    ("time", [1.0, 2.0, 1.5]),
], ids=["detuning", "intensity", "time"])
@pytest.mark.parametrize("model", [_bs_model(), _osc_model()], ids=["quantized", "driven"])
def test_a_scan_axis_that_is_not_strictly_monotone_raises_before_any_point_runs(
        monkeypatch, model, axis, values):
    # a span of an ulp or two rounds onto repeated values, which no
    # ScanResult may hold: the scan is refused before its points run
    calls = []
    for name in ("_evolve_blocks", "_evolve_driven_batch"):
        monkeypatch.setattr(dynamics, name, lambda *a, name=name, **kw: calls.append(name))
    with pytest.raises(ValueError, match="scan axis must be strictly monotone"):
        _scan(axis, model, EvolutionConfig(dt=0.5, t_max=10.0), values)
    assert calls == []


@pytest.mark.parametrize("model", [
    _bs_model(),
    ModelSpec(ModelFamily.JAYNES_CUMMINGS,
              JaynesCummingsParams(nu=1.0, omega=1.0, g=0.05, field_cutoff=6)),
    _osc_model(),
    _qubit_model(),
], ids=["beam_splitter", "jaynes_cummings", "oscillator_drive", "qubit_drive"])
def test_no_scan_axis_moves_a_familys_hops(model):
    # a scan steps every point on the scanned model's hop list: with_nu and
    # with_intensity must leave it bit for bit, over a spread of values
    def hop_bits(m):
        return [(a.dtype.str, a.shape, a.tobytes()) for a in m.params.parts()[2]]

    hops = hop_bits(model)
    points = [model.with_nu(nu) for nu in (0.3, 1.0, 1.7, 25.0)]
    if model.params.intensity_field is not None:
        points += [model.with_intensity(i) for i in (0.0, 0.25, 1.0, 4.0)]
    for point in points:
        assert hop_bits(point) == hops


@pytest.mark.parametrize("axes, match", [
    ({"bogus": [1.0, 2.0]}, "'bogus'"),
    ({"detuning": []}, "detuning scan needs a 1-D axis"),
    ({"time": np.array([[1.0, 2.0], [3.0, 4.0]])}, "time scan needs a 1-D axis"),
    ({"intensity": 1.0}, "intensity scan needs a 1-D axis"),
], ids=["unknown_name", "empty", "two_dimensional", "scalar"])
@pytest.mark.parametrize("model", [_bs_model(), _osc_model()], ids=["quantized", "driven"])
def test_a_malformed_scan_axis_raises_naming_it(monkeypatch, model, axes, match):
    # the schema fixes the names and sizes of a config's axes; a caller of
    # scans gets a ValueError that names the axis before any point runs
    calls = []
    for name in ("_evolve_blocks", "_evolve_driven_batch"):
        monkeypatch.setattr(dynamics, name, lambda *a, name=name, **kw: calls.append(name))
    with pytest.raises(ValueError, match=match):
        scans(model, EvolutionConfig(dt=0.5, t_max=10.0), axes)
    assert calls == []


# -- signature report ----------------------------------------------------------


def _bs_signature_scans(t_max=10.0):
    return scans(_bs_model(), EvolutionConfig(dt=1.0, t_max=t_max),
                 {"detuning": np.linspace(-0.9, 0.9, 25),
                  "intensity": np.geomspace(1.0, 4.0, 5),
                  "time": np.geomspace(1e-3, t_max, 9)}).values()


def test_signature_report_beam_splitter_passes():
    det, inten, tim = _bs_signature_scans()
    rep = signature_report(det, inten, tim)
    assert rep.all_pass
    d = rep.to_dict()
    assert d["threshold"]["status"] == "pass"
    assert d["intensity_independence"]["statistic"]["gap_relative_spread"] <= 1e-6
    assert d["short_time"]["statistic"]["min_probability"] > 0


def test_signature_threshold_inconclusive_when_horizon_too_short():
    # the scan cannot resolve the first interference null at t_max = 1
    model = _bs_model()
    cfg = EvolutionConfig(dt=0.25, t_max=1.0)
    det = _scan("detuning", model, cfg, np.linspace(-0.9, 0.9, 15))
    _, inten, tim = _bs_signature_scans()
    rep = signature_report(det, inten, tim)
    assert rep.threshold.status == "inconclusive"
    assert rep.threshold.status != "fail"


def test_signature_report_requires_all_scans():
    det, inten, tim = _bs_signature_scans()
    with pytest.raises(ValueError):
        signature_report(det, None, tim)
    with pytest.raises(ValueError):
        signature_report(inten, det, tim)


def test_signature_checks_on_scans_with_failed_points_are_inconclusive():
    # an intensity scan with one failed point whose one surviving gap sits
    # 5x off: the points left fit a slope of exactly 1, so reading only
    # them would pass the check and leave the gap check unread
    det, inten, tim = _bs_signature_scans()
    axis = np.geomspace(1.0, 8.0, 4)
    healed = ScanResult("intensity", axis, 1e-4 * axis, inten.model_tag, inten.fixed,
                        errors=(None,) * 4,
                        aux={"transition_gap": np.array([1.0, 1.0, 5.0, 1.0])})
    assert signature_report(det, healed, tim).intensity_independence.status == "fail"
    probs, gaps = 1e-4 * axis, np.array([1.0, math.nan, 5.0, 1.0])
    probs[1] = math.nan
    failed = replace(healed, probabilities=probs, aux={"transition_gap": gaps})
    inconclusive = SignatureCheck("inconclusive", {"reason": "scan holds failed points"}, {})
    rep = signature_report(det, failed, tim)
    assert rep.intensity_independence == inconclusive
    assert rep.threshold.status == rep.short_time.status == "pass"
    assert not rep.all_pass
    # the same rule holds for the other two checks
    for name, scan in (("threshold", det), ("short_time", tim)):
        probs = scan.probabilities.copy()
        probs[0] = math.nan
        three = {"detuning": det, "intensity": inten, "time": tim}
        three[scan.axis_name] = replace(scan, probabilities=probs)
        assert getattr(signature_report(*three.values()), name) == inconclusive


def test_signature_intensity_check_is_inconclusive_below_three_positive_points():
    det, inten, tim = _bs_signature_scans()
    for probs in (np.zeros(len(inten.axis)), np.r_[1e-4, 2e-4, np.zeros(len(inten.axis) - 2)]):
        rep = signature_report(det, replace(inten, probabilities=probs), tim)
        assert rep.intensity_independence.status == "inconclusive"
        assert rep.intensity_independence.statistic == {
            "reason": "need at least three positive points for a log-log fit"}


# -- fits -----------------------------------------------------------------------


def test_loglog_slope_exact_on_synthetic_power_law():
    x = np.geomspace(1.0, 100.0, 20)
    fit = loglog_slope(x, 3.7 / x ** 2)
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("x", [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0, -1.0, np.nan],
                               [5e9, 5e9, 5e9 * (1 + 4.5e-16)]])
def test_loglog_slope_needs_two_distinct_x(x):
    # three kept points on one x, or on x whose logs differ only by rounding
    # (within polyfit's rank tolerance), leave no slope to fit: a ValueError,
    # the error that the intensity check reads as inconclusive, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="two distinct x"):
            loglog_slope(x, [1.0, 2.0, 3.0, 4.0, 5.0][:len(x)])


def test_loglog_slope_fits_x_a_millionth_apart():
    x = 5e9 * np.array([1.0, 1.0 + 5e-7, 1.0 + 1e-6])
    assert loglog_slope(x, x ** 2).slope == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("g", [0.0, -1e-3, math.inf, math.nan])
def test_rabi_peak_scan_rejects_a_coupling_that_is_not_positive(g):
    with pytest.raises(ValueError, match="coupling g must be finite and > 0"):
        rabi_peak_scan(g, [0.0, 1.0])


def test_golden_rule_fit_slope_on_peak_scan():
    scan = rabi_peak_scan(1e-3, 1e-3 * np.geomspace(10, 1000, 25))
    fit = golden_rule_fit(scan)
    assert abs(fit.slope + 2.0) <= 0.02
    assert fit.n_points == 25


def test_golden_rule_fit_intensity_axis_cross_check():
    model = _bs_model()
    cfg = EvolutionConfig(dt=1.0, t_max=10.0)
    scan = _scan("intensity", model, cfg, np.geomspace(1.0, 4.0, 5))
    fit = golden_rule_fit(scan)
    assert abs(fit.slope - 1.0) <= 0.01


def test_golden_rule_fit_regime_guard():
    scan = rabi_peak_scan(1e-3, 1e-3 * np.geomspace(2, 100, 10))
    with pytest.raises(RegimeError):
        golden_rule_fit(scan)


# -- serialization ----------------------------------------------------------------


def test_ledger_csv_columns_and_determinism(tmp_path):
    model = _osc_model(back_reaction=True, coupling=0.1, detector_cutoff=16)
    s0 = HybridState(0.0, 1.0, ground_state(model.params.space))
    cfg = EvolutionConfig(dt=0.01, t_max=2.0, method=Method.MIDPOINT)
    led = energy_ledger(evolve_hybrid(model, s0, cfg), model)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    ledger_to_csv(led, p1)
    ledger_to_csv(led, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ("time,e_classical,e_quantum_free,e_interaction,"
                      "e_total,energy_std,backreaction_residual")


def test_scan_csv_columns(tmp_path):
    model = _bs_model()
    cfg = EvolutionConfig(dt=1.0, t_max=10.0)
    scan = _scan("intensity", model, cfg, np.array([1.0, 2.0]))
    path = tmp_path / "scan.csv"
    scan_to_csv(scan, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "intensity,probability,transition_gap,error"
    assert len(lines) == 3


def _reference_ledger_csv(ledger) -> bytes:
    """The ledger CSV written row by row: each row's Python values joined
    by their reprs, the reference ``ledger_to_csv``'s bytes must equal."""
    names = ["time", "e_classical", "e_quantum_free", "e_interaction", "e_total",
             "energy_std"]
    arrays = [ledger.times, ledger.e_classical, ledger.e_quantum_free,
              ledger.e_interaction, ledger.e_total, ledger.energy_std]
    if ledger.backreaction_residual is not None:
        names.append("backreaction_residual")
        arrays.append(ledger.backreaction_residual)
    lines = [",".join(names)]
    for row in zip(*(col.tolist() for col in arrays)):
        lines.append(",".join(map(repr, row)))
    return ("\n".join(lines) + "\n").encode("ascii")


def test_ledger_csv_across_blocks_matches_the_row_by_row_writer(tmp_path):
    # three blocks, the last of 3 rows: a column constant across them, zeros
    # of both signs (a block that starts at 0.0 and holds one -0.0, a block
    # of -0.0 alone), an all-NaN block, infinities, float32 and int columns
    block = analysis._LEDGER_BLOCK
    n = 2 * block + 3
    rng = np.random.default_rng(40)
    zeros = np.zeros(n)
    zeros[5] = -0.0
    zeros[block:2 * block] = -0.0
    zeros[-2] = -0.0
    nans = rng.normal(size=n)
    nans[block:2 * block] = np.nan
    nans[-1] = -np.nan
    infs = rng.normal(size=n)
    infs[::3], infs[1::7] = np.inf, -np.inf
    infs[2 * block:] = np.inf
    singles = rng.normal(size=n).astype(np.float32)
    singles[:block] = np.float32(0.1)
    ints = np.arange(n) % 5
    ints[block:2 * block] = 7
    led = EnergyLedger(np.arange(n) * 0.001, np.full(n, 0.1 + 0.2), zeros, nans, infs,
                       singles, backreaction_residual=ints)
    path = tmp_path / "ledger.csv"
    for ledger in (led, replace(led, backreaction_residual=None)):
        ledger_to_csv(ledger, path)
        assert path.read_bytes() == _reference_ledger_csv(ledger)


# CSV round trips: every float written by repr parses back to the same bits

_CSV_FLOATS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False))
# error tags as the scans write them: one line of printable ASCII, commas
# and quotes included
_TAGS = st.text(st.characters(min_codepoint=32, max_codepoint=126),
                min_size=1, max_size=40)


def _read_csv(path):
    text = path.read_text(encoding="ascii")
    assert text.endswith("\n") and "\r" not in text
    header, *rows = csv.reader(io.StringIO(text))
    assert all(len(row) == len(header) for row in rows)
    return header, rows


def _assert_same_bits(parsed, original):
    parsed = np.array([float(v) for v in parsed])
    original = np.asarray(original, dtype=float)
    nan = np.isnan(original)
    assert np.array_equal(np.isnan(parsed), nan)
    assert parsed[~nan].view(np.int64).tolist() == original[~nan].view(np.int64).tolist()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_CSV_FLOATS, min_size=n, max_size=n), min_size=7, max_size=7),
    st.booleans())))
def test_ledger_csv_round_trips_bit_for_bit(tmp_path, case):
    cols, with_residual = case
    residual = None
    if with_residual:
        # central differences leave NaN at both endpoints
        residual = np.array(cols[6])
        residual[[0, -1]] = np.nan
    led = EnergyLedger(*map(np.array, cols[:6]), backreaction_residual=residual)
    path = tmp_path / "ledger.csv"
    ledger_to_csv(led, path)
    header, rows = _read_csv(path)
    names = ["time", "e_classical", "e_quantum_free", "e_interaction", "e_total",
             "energy_std"] + (["backreaction_residual"] if with_residual else [])
    assert header == names
    for j, original in enumerate(cols[:6] + ([residual] if with_residual else [])):
        _assert_same_bits([row[j] for row in rows], original)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=10, unique=True),
       st.booleans(), st.data())
def test_scan_csv_round_trips_bit_for_bit(tmp_path, axis, reverse, data):
    axis = sorted(axis, reverse=reverse)
    if len(axis) > 1 and axis[0] == -axis[1] == 0.0:
        axis = axis[1:]      # -0.0 and 0.0 do not make a strictly monotone axis
    n = len(axis)
    tags = data.draw(st.lists(st.one_of(st.none(), _TAGS), min_size=n, max_size=n))
    probs = data.draw(st.lists(_CSV_FLOATS, min_size=n, max_size=n))
    # a failed point is NaN with its tag
    probs = [math.nan if tag else p for p, tag in zip(probs, tags)]
    gaps = data.draw(st.lists(_CSV_FLOATS, min_size=n, max_size=n))
    scan = ScanResult("detuning", axis, probs, "test", fixed={}, errors=tuple(tags),
                      aux={"transition_gap": np.array(gaps)})
    path = tmp_path / "scan.csv"
    scan_to_csv(scan, path)
    header, rows = _read_csv(path)
    assert header == ["detuning", "probability", "transition_gap", "error"]
    _assert_same_bits([row[0] for row in rows], scan.axis)
    _assert_same_bits([row[1] for row in rows], scan.probabilities)
    _assert_same_bits([row[2] for row in rows], gaps)
    assert [row[3] or None for row in rows] == list(tags)
