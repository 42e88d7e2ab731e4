import itertools
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from quantex import (
    BeamSplitterParams,
    Boson,
    DrivenOscillatorParams,
    EvolutionConfig,
    HermiticityError,
    HybridState,
    JaynesCummingsParams,
    Method,
    ModelFamily,
    ModelSpec,
    QubitSemiClassicalParams,
    RegimeWarning,
    SpaceDescriptor,
    ToleranceError,
    Trajectory,
    TwoLevel,
    basis_state,
    build_beam_splitter_hamiltonian,
    build_jc_hamiltonian,
    coherent_amplitude_beta,
    coherent_state,
    dyson_first_order,
    evolve_driven,
    evolve_hybrid,
    evolve_unitary,
    evolve_unitary_at,
    golden_rule_limit,
    ground_state,
    perturbative_pe,
    pn1_from_amplitude,
    rabi_probability,
    semiclassical_pn1,
)
from quantex import dynamics
from quantex.dynamics import (
    _TAYLOR_REACH,
    _block_eigh,
    _component_labels,
    _drive_table,
    _evolve_driven_batch,
    _guard,
    _hybrid_table,
    _real_form,
    _step_groups,
    _table_step,
    _taylor,
    _taylor_plan,
)
from quantex.hilbert import NORM_ATOL, Hamiltonian, StateVector

from kron_reference import (
    annihilation,
    beam_splitter,
    creation,
    jaynes_cummings,
    number,
    pauli,
    record,
)


def test_evolution_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(dt=0.0, t_max=1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(dt=1.0, t_max=0.5)
    with pytest.raises(ValueError):
        EvolutionConfig(dt=0.1, t_max=math.inf)


def test_the_guard_bounds_are_class_bounds_that_no_config_sets():
    assert (EvolutionConfig.norm_drift_tol, EvolutionConfig.top_level_tol) == (1e-9, 1e-8)
    for name in ("norm_drift_tol", "top_level_tol"):
        with pytest.raises(TypeError):
            EvolutionConfig(dt=0.1, t_max=1.0, **{name: getattr(EvolutionConfig, name)})


def test_time_grid_lands_on_t_max():
    # 10 / 0.3 is not whole: 33 steps of 10/33, not a grid ending at 9.9
    grid = EvolutionConfig(dt=0.3, t_max=10.0).time_grid()
    assert len(grid) == 34
    assert grid[-1] == 10.0
    npt.assert_allclose(np.diff(grid), 10.0 / 33, rtol=1e-12)


def test_bundled_jc_vacuum_exchange_grid_ends_at_ten_pi():
    from quantex import cli
    scenario = cli.validate_config(cli.load_config("jc_vacuum_exchange"))
    grid = scenario.evolution.time_grid()
    assert grid[-1] == 10.0 * math.pi
    assert len(grid) == 315


def test_hybrid_steps_on_the_grid_when_dt_does_not_divide_t_max():
    p = QubitSemiClassicalParams(omega=1.0, nu=1.0, coupling=0.0, x0=1.0)
    model = ModelSpec(ModelFamily.QUBIT_DRIVE, p, back_reaction=True)
    cfg = EvolutionConfig(dt=0.3, t_max=10.0, method=Method.MIDPOINT)
    traj = evolve_hybrid(model, HybridState(0.0, 1.0, ground_state(p.space)), cfg)
    assert traj.times[-1] == 10.0
    npt.assert_allclose(traj.classical[:, 0], np.sin(traj.times), atol=1e-12)


def test_trajectory_length_mismatch_rejected():
    sp = SpaceDescriptor((TwoLevel(),))
    with pytest.raises(ValueError):
        Trajectory(sp, np.array([0.0, 1.0]), ground_state(sp).amplitudes[None, :],
                   max_norm_drift=0.0)


# -- exact propagation --------------------------------------------------------


def test_free_oscillator_population_constant_phase_rotating():
    sp = SpaceDescriptor((Boson(4),))
    h = record(sp, 1.3 * number(sp, 0))
    traj = evolve_unitary(h, basis_state(sp, [1]),
                          EvolutionConfig(dt=0.1, t_max=5.0))
    npt.assert_allclose(traj.population_series(0, 1), 1.0, atol=1e-12)
    phases = np.array([s.amplitudes[1] for s in traj.states])
    npt.assert_allclose(phases, np.exp(-1j * 1.3 * traj.times), atol=1e-12)


def test_jc_resonant_vacuum_exchange_closed_form():
    p = JaynesCummingsParams(nu=1.0, omega=1.0, g=0.02, field_cutoff=5)
    traj = evolve_unitary(build_jc_hamiltonian(p), basis_state(p.space, [1, 0]),
                          EvolutionConfig(dt=0.5, t_max=100.0))
    pe = traj.population_series(1, 1)
    npt.assert_allclose(pe, np.sin(0.02 * traj.times) ** 2, atol=1e-6)


def test_beam_splitter_full_swap_at_quarter_period():
    p = BeamSplitterParams(nu=1.0, omega=1.0, g=0.01, field_cutoff=3,
                           detector_cutoff=3, alpha=0.0)
    t_swap = math.pi / (2 * 0.01)
    traj = evolve_unitary(build_beam_splitter_hamiltonian(p),
                          basis_state(p.space, [1, 0]),
                          EvolutionConfig(dt=t_swap / 64, t_max=t_swap))
    assert traj.final_state().population(1, 1) == pytest.approx(1.0, abs=1e-9)
    assert traj.final_state().population(0, 0) == pytest.approx(1.0, abs=1e-9)


def test_unitary_energy_and_norm_constant():
    p = BeamSplitterParams(nu=1.0, omega=1.1, g=0.02, field_cutoff=32,
                           detector_cutoff=12, alpha=2.0)
    h = build_beam_splitter_hamiltonian(p)
    psi0 = coherent_state(p.space, 0, 2.0)
    traj = evolve_unitary(h, psi0, EvolutionConfig(dt=0.25, t_max=25.0))
    # <H> and Var(H) from the Kronecker-built H
    h_amps = traj.amplitudes @ beam_splitter(p).T
    energy = np.einsum("ti,ti->t", traj.amplitudes.conj(), h_amps).real
    assert np.max(np.abs(energy - energy[0])) <= 1e-8 * abs(energy[0])
    var = (np.einsum("ti,ti->t", h_amps.conj(), h_amps).real
           - np.einsum("ti,ti->t", traj.amplitudes.conj(), h_amps).real ** 2)
    assert np.max(np.abs(var - var[0])) <= 1e-8 * abs(var[0])
    assert traj.max_norm_drift <= 1e-12


def test_unitary_requires_hermitian():
    # a Hamiltonian record with a non-real diagonal cannot be built
    sp = SpaceDescriptor((Boson(3),))
    no_hops = (np.array([], int), np.array([], int), np.array([]))
    with pytest.raises(HermiticityError):
        evolve_unitary(Hamiltonian(sp, np.array([0.0, 1.0, 2.0 - 1e-3j]), no_hops),
                       basis_state(sp, [1]), EvolutionConfig(dt=0.1, t_max=1.0))


def test_unitary_sample_times_must_be_a_non_empty_finite_list():
    # rejected as input before any work: no empty trajectory, no warning
    # and no tolerance abort
    p = BeamSplitterParams(nu=1.0, omega=1.0, g=0.01, field_cutoff=3, detector_cutoff=3,
                           alpha=0.0)
    cfg = EvolutionConfig(dt=0.5, t_max=1.0)
    for times in ([], [math.nan], [0.5, math.inf], [[0.5]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-empty list of finite") as err:
                evolve_unitary_at(p.hamiltonian(), basis_state(p.space, [1, 0]), times, cfg)
        assert type(err.value) is ValueError


def test_top_level_guard_flags_small_cutoff():
    # strong exchange into a two-level detector cutoff fills the top level
    p = BeamSplitterParams(nu=1.0, omega=1.0, g=0.1, field_cutoff=3,
                           detector_cutoff=2, alpha=0.0)
    with pytest.raises(ToleranceError):
        evolve_unitary(build_beam_splitter_hamiltonian(p),
                       basis_state(p.space, [1, 0]),
                       EvolutionConfig(dt=0.5, t_max=40.0))


def test_guard_trip_names_the_earliest_time_in_any_order():
    # evolve_unitary_at samples arbitrary times: the trip it raises is the
    # one at the smallest tripped t, whatever the order of the times
    p = BeamSplitterParams(nu=1.0, omega=1.0, g=0.5, field_cutoff=30,
                           detector_cutoff=3, alpha=1.5)
    cfg = EvolutionConfig(dt=0.1, t_max=1.0)
    messages = []
    for times in ([0.0, 0.5, 1.0, 2.0, 4.0], [4.0, 2.0, 1.0, 0.5, 0.0]):
        with pytest.raises(ToleranceError) as err:
            evolve_unitary_at(p.hamiltonian(), p.default_initial_state(), times, cfg)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith("at t=0.5 (raise the cutoff)")
    # equal times: the first index is named
    space = SpaceDescriptor((Boson(3),))
    amps = np.sqrt([[0.9, 0.0, 0.1], [0.8, 0.0, 0.2]])
    for times, pop in (([1.0, 1.0], "1.000e-01"), ([2.0, 1.0], "2.000e-01")):
        with pytest.raises(ToleranceError, match=f"population {pop} .* at t=1 "):
            _checked(amps, times, space)


def _checked(raw, t, space):
    """``_guard`` on one run's raw states ``(steps, d)`` at times t that
    raises its trip: the renormalised states and the worst raw drift."""
    nrm, worst, trips = _guard(raw[:, None], np.reshape(t, (-1, 1)), space)
    if trips:
        raise trips[0]
    return raw / nrm, worst[0]


def test_guard_judges_each_run_on_the_steps_it_takes():
    # three runs of three steps: run 0 takes two steps and holds a NaN
    # state in the third, run 1 fills the top level from step 1 on and
    # run 2 drifts at step 2; a step not taken neither trips nor counts
    # in the worst drift, and each run that trips names its own earliest step
    space = SpaceDescriptor((Boson(3),))
    ok, drifted = [1.0, 0.0, 0.0], [1.0 + 1e-12, 0.0, 0.0]
    raw = np.array([[ok, ok, ok],
                    [drifted, np.sqrt([0.8, 0.0, 0.2]), ok],
                    [[np.nan] * 3, np.sqrt([0.7, 0.0, 0.3]), [1.1, 0.0, 0.0]]], dtype=complex)
    taken = np.array([[True] * 3, [True] * 3, [False, True, True]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nrm, worst, trips = _guard(raw, np.array([[0.5], [1.0], [2.0]]), space, taken)
    assert nrm.shape == (3, 3) and np.isnan(nrm[2, 0])
    assert worst[0] == abs((1.0 + 1e-12) - 1.0) and 0 not in trips
    assert sorted(trips) == [1, 2]
    assert str(trips[1]) == ("top Fock level of factor 0 holds population 2.000e-01 "
                             "> 1.0e-08 at t=1 (raise the cutoff)")
    assert str(trips[2]) == "norm drift 1.000e-01 exceeds 1.0e-09 at t=2 (reduce dt)"


def test_guard_contractions_match_norms_and_slot_sums(monkeypatch):
    # the guard's norms and top-level populations, contractions of the
    # stack's real view, against np.linalg.norm and a sum of abs()**2 over
    # each factor's top slots: the norms within 4 ulps, and each run trips
    # on a top-level bound 4 ulps below its own population and on one
    # 4 ulps above only where another factor holds more.  Two bosonic
    # factors, the first not the last axis of the basis, around a qubit
    space = SpaceDescriptor((Boson(3), TwoLevel(), Boson(4)))
    rng = np.random.default_rng(5)
    raw = (rng.standard_normal((5, 7, 24)) + 1j * rng.standard_normal((5, 7, 24))) / 5
    ref_nrm = np.linalg.norm(raw, axis=-1)
    slots = [np.flatnonzero(space.levels[k] == space.dims[k] - 1) for k in (0, 2)]
    ref_pops = np.stack([(np.abs(raw[..., flat]) ** 2).sum(axis=-1) for flat in slots],
                        axis=-1) / ref_nrm[..., None] ** 2
    ulps = 4 * np.finfo(float).eps
    monkeypatch.setattr(EvolutionConfig, "norm_drift_tol", np.inf)
    nrm, _, _ = _guard(raw, 1.0, space)
    npt.assert_allclose(nrm, ref_nrm, rtol=ulps, atol=0)
    for step, run, factor in itertools.product(range(5), range(7), range(2)):
        one = raw[step:step + 1, run:run + 1]
        pop = ref_pops[step, run]
        for tol, trips in ((pop[factor] * (1 - ulps), True),
                           (pop[factor] * (1 + ulps), bool(pop.max() > pop[factor]))):
            monkeypatch.setattr(EvolutionConfig, "top_level_tol", tol)
            assert (0 in _guard(one, 1.0, space)[2]) == trips, (step, run, factor)
    # rows with a NaN or an infinite amplitude trip where they are taken,
    # and neither trip nor count in the worst drift where they are not
    monkeypatch.undo()
    ok = np.zeros(24, dtype=complex)
    ok[0] = 1.0
    bad = [ok.copy() for _ in range(3)]
    # slots off every top level, so that each population stays finite
    bad[0][5], bad[1][1], bad[2][2] = np.nan, np.inf, complex(0.0, -np.inf)
    stack = np.array([[ok, ok, ok], bad])
    taken = np.array([[True] * 3, [True, False, True]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, worst, trips = _guard(stack, np.array([[1.0], [2.0]]), space, taken)
    assert sorted(trips) == [0, 2] and worst[1] == 0.0
    assert all(re.fullmatch(r"norm drift (nan|inf) exceeds 1\.0e-09 at t=2 \(reduce dt\)",
                            str(error)) for error in trips.values())


# -- driven evolution ---------------------------------------------------------


def test_driven_zero_coupling_is_stationary():
    p = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.0, x0=1.0,
                               detector_cutoff=4)
    traj = evolve_driven(p, None, EvolutionConfig(dt=0.01, t_max=5.0,
                                                  method=Method.MIDPOINT))
    npt.assert_allclose(traj.population_series(0, 0), 1.0, atol=1e-12)


def test_driven_accepts_explicit_initial_state():
    p = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.0, x0=1.0,
                               detector_cutoff=6)
    psi0 = basis_state(p.space, [2])
    traj = evolve_driven(p, psi0, EvolutionConfig(dt=0.01, t_max=2.0,
                                                  method=Method.MIDPOINT))
    npt.assert_allclose(traj.population_series(0, 2), 1.0, atol=1e-12)


def test_driven_runs_under_any_method_label():
    # a driven model has one propagator, so the config's label picks nothing
    p = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.01, x0=1.0)
    cfg = EvolutionConfig(dt=0.01, t_max=1.0)
    assert cfg.method is Method.MATRIX_EXPONENTIAL
    labelled = evolve_driven(p, None, cfg)
    midpoint = evolve_driven(p, None, replace(cfg, method=Method.MIDPOINT))
    assert labelled.amplitudes.tobytes() == midpoint.amplitudes.tobytes()
    assert labelled.max_norm_drift == midpoint.max_norm_drift


def test_driven_oscillator_stays_coherent_poissonian():
    # Fock distribution matches a Poisson law with mean |beta(t)|^2
    from scipy.stats import poisson
    p = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.001, x0=1.0,
                               detector_cutoff=10)
    cfg = EvolutionConfig(dt=0.001, t_max=20.0, method=Method.MIDPOINT)
    traj = evolve_driven(p, None, cfg)
    mean = abs(coherent_amplitude_beta(p, 20.0)) ** 2
    pops = traj.final_state().marginal_populations(0)
    npt.assert_allclose(pops, poisson.pmf(np.arange(10), mean), atol=1e-6)


def test_driven_qubit_matches_perturbative_on_resonance():
    # weak resonant drive, carrier fast enough that the counter-rotating
    # first-order term is negligible
    p = QubitSemiClassicalParams(omega=10.0, nu=10.0, coupling=0.005, x0=1.0)
    cfg = EvolutionConfig(dt=0.001, t_max=20.0, method=Method.MIDPOINT)
    pe = evolve_driven(p, None, cfg).final_state().population(0, 1)
    ref = perturbative_pe(0.005, 10.0, 10.0, 20.0)
    assert ref == pytest.approx((0.005 * 20.0 / 2) ** 2)
    assert pe < 0.01
    assert abs(pe - ref) / ref < 0.05


def test_driven_qubit_matches_perturbative_detuned():
    p = QubitSemiClassicalParams(omega=10.0, nu=9.5, coupling=0.01, x0=1.0)
    cfg = EvolutionConfig(dt=0.001, t_max=20.0, method=Method.MIDPOINT)
    pe = evolve_driven(p, None, cfg).final_state().population(0, 1)
    ref = perturbative_pe(0.01, 10.0, 9.5, 20.0)
    assert pe < 0.01
    assert abs(pe - ref) / ref < 0.05


def test_midpoint_second_order_convergence():
    p = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.05, x0=1.0,
                               detector_cutoff=12)

    def final(dt):
        cfg = EvolutionConfig(dt=dt, t_max=10.0, method=Method.MIDPOINT)
        return evolve_driven(p, None, cfg).final_state().amplitudes

    a, b, c = final(0.02), final(0.01), final(0.005)
    order = math.log2(np.linalg.norm(a - b) / np.linalg.norm(b - c))
    assert order >= 1.9


# -- chunked driven stepping against the per-step route -----------------------

# a 1-norm bound whose Taylor plan is one sum of degree 9: up to it a Taylor
# sum holds to a few ulps, and a step beyond it counts as coarse here
_SMALL_BOUND = 0.1


def _norm_1(m):
    return np.abs(m).sum(axis=-2).max(axis=-1)


def _table_plan(h0, c, x0, dt):
    """The Taylor plan (degree, substeps) by which ``_drive_table`` builds
    the table of a run of drive amplitude x0 and step dt, from the table's
    own bound h (|h0|_1 + |x0| |c|_1)."""
    norms = [_norm_1(m) for m in (h0, c)]
    _, substeps = _drive_table(h0, c, norms, dt, x0)
    return _taylor_plan(dt / substeps * (norms[0] + abs(x0) * norms[1]))


def _reference_step(h0, c, x_of, t0, t1, amp):
    """One step of one state ``(d,)`` from t0 to t1 under h0 + x_of(t) c:
    the Hamiltonian frozen at the midpoint and exponentiated through its
    eigendecomposition."""
    w, v = np.linalg.eigh(h0 + x_of(0.5 * (t0 + t1)) * c)
    return v @ (np.exp(-1j * w * (t1 - t0)) * (v.conj().T @ amp))


def per_step_driven(params, cfg):
    """The step-by-step reference for prescribed-drive runs: one
    ``_reference_step`` and one guard per step on ``cfg.time_grid()``,
    raising the first guard trip.  Returns the amplitudes (n_t, d)."""
    h0, c = params.free_and_coupling()
    space, times = params.space, cfg.time_grid()
    x_of = lambda t: params.x0 * np.sin(params.nu * t)
    amp = params.default_initial_state().amplitudes.copy()
    rows = [_checked(amp[None], 0.0, space)[0][0]]
    for k in range(len(times) - 1):
        amp = _reference_step(h0, c, x_of, times[k], times[k + 1], amp)
        amp = _checked(amp[None], times[k + 1], space)[0][0]
        rows.append(amp)
    return np.array(rows)


_DRIVEN_PARAMS = [
    QubitSemiClassicalParams(omega=1.0, nu=0.9, coupling=0.3, x0=1.0),
    DrivenOscillatorParams(omega=1.0, nu=1.1, coupling=0.05, x0=1.0,
                           detector_cutoff=8),
]

# the propagators per chunk that the chunk-boundary tests are laid out for
_CHUNK = 256


def _chunk_of(monkeypatch, params, propagators=_CHUNK):
    """Patch the driven kernel's chunk budget to ``propagators`` step
    propagators of ``params``' dimension, as the trip tests patch bounds."""
    dim = params.space.total_dim
    monkeypatch.setattr(dynamics, "_DRIVE_CHUNK_BYTES", propagators * 16 * dim * dim)


def _one_group(f, substeps):
    """``_table_step``'s groups for one run of the table f."""
    return _step_groups(f.view(float)[None], np.array([len(f)]), np.array([substeps]),
                        np.array([0]))


@pytest.mark.parametrize("params", _DRIVEN_PARAMS, ids=["qubit", "oscillator"])
def test_chunked_driven_matches_per_step_route(monkeypatch, params):
    # two whole chunks and a partial one; the drift, a different quantity
    # on each route, is held exactly in
    # test_driven_states_are_the_raw_product_normalised_once
    _chunk_of(monkeypatch, params)
    n_steps = 2 * _CHUNK + 37
    cfg = EvolutionConfig(dt=0.01, t_max=0.01 * n_steps, method=Method.MIDPOINT)
    assert cfg.n_steps == n_steps
    traj = evolve_driven(params, None, cfg)
    ref = per_step_driven(params, cfg)
    assert traj.amplitudes.shape == ref.shape
    npt.assert_allclose(traj.amplitudes, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("params", _DRIVEN_PARAMS, ids=["qubit", "oscillator"])
def test_coarse_midpoint_steps_match_per_step_route(params):
    # at dt 0.5 and 1.0 every step's 1-norm bound exceeds _SMALL_BOUND, so
    # the table's Taylor sum runs to a high degree, and at dt 1.0 the
    # oscillator's table takes substeps
    h0, c = params.free_and_coupling()
    for dt in (0.5, 1.0):
        cfg = EvolutionConfig(dt=dt, t_max=20.0, method=Method.MIDPOINT)
        assert dt * _norm_1(h0) > _SMALL_BOUND
        substeps = _table_plan(h0, c, params.x0, dt)[1]
        assert (substeps > 1) == (dt == 1.0 and isinstance(params, DrivenOscillatorParams))
        traj = evolve_driven(params, None, cfg)
        ref = per_step_driven(params, cfg)
        npt.assert_allclose(traj.amplitudes, ref, rtol=0, atol=1e-12)


def test_midpoint_kernel_runs_without_eigh(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("the midpoint kernel called eigh")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for params in _DRIVEN_PARAMS:
        evolve_driven(params, None, EvolutionConfig(dt=0.5, t_max=5.0,
                                                    method=Method.MIDPOINT))


def _trip_texts(params, cfg):
    """The ToleranceError texts of the chunked and the per-step route."""
    with pytest.raises(ToleranceError) as chunked:
        evolve_driven(params, None, cfg)
    with pytest.raises(ToleranceError) as per_step:
        per_step_driven(params, cfg)
    return str(chunked.value), str(per_step.value)


def test_chunked_driven_top_level_trip_in_a_later_chunk(monkeypatch):
    p = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.2, x0=1.0,
                               detector_cutoff=5)
    _chunk_of(monkeypatch, p)
    cfg = EvolutionConfig(dt=0.01, t_max=10.0, method=Method.MIDPOINT)
    monkeypatch.setattr(EvolutionConfig, "top_level_tol", 0.5)
    ref = per_step_driven(p, cfg)
    top = np.abs(ref[:, -1]) ** 2
    # a tolerance the top level first passes after two whole chunks, with
    # a margin far above rounding on both sides of the tripping step
    tol = 0.5 * (top[:2 * _CHUNK + 1].max() + top.max())
    k = int(np.argmax(top > tol))
    assert k > 2 * _CHUNK
    assert top[k] > tol * (1 + 1e-6) and top[:k].max() < tol * (1 - 1e-6)
    monkeypatch.setattr(EvolutionConfig, "top_level_tol", tol)
    chunked, per_step = _trip_texts(p, cfg)
    assert chunked == per_step
    assert chunked.startswith("top Fock level of factor 0")
    assert f"at t={cfg.time_grid()[k]:g} " in chunked


@pytest.mark.parametrize("params", _DRIVEN_PARAMS, ids=["qubit", "oscillator"])
def test_midpoint_norm_guard_trips_below_rounding_drift(monkeypatch, params):
    # a midpoint step is unitary, so the raw norm drifts by rounding alone:
    # the kernel never renormalises, so its drift builds up over the run,
    # by at most one unit roundoff per step; a tolerance below that trips
    # the guard.  The kernel and the per-step route round differently, so
    # the drift figure and the tripping step may differ between them, but
    # both raise the guard's norm-drift text
    cfg = EvolutionConfig(dt=0.01, t_max=2.0, method=Method.MIDPOINT)
    worst = evolve_driven(params, None, cfg).max_norm_drift
    assert 0.0 < worst <= cfg.n_steps * 2.0 ** -53
    grid = cfg.time_grid().tolist()
    monkeypatch.setattr(EvolutionConfig, "norm_drift_tol", 1e-17)
    for text in _trip_texts(params, cfg):
        match = re.fullmatch(r"norm drift (\S+) exceeds 1\.0e-17 at t=(\S+) "
                             r"\(reduce dt\)", text)
        assert match, text
        assert 1e-17 < float(match[1]) < 1e-15
        assert any(f"{t:g}" == match[2] for t in grid[1:])


def _raw_product(params, cfg):
    """The raw states ``(n + 1, d)`` of a driven run on ``cfg``'s grid: the
    product of the run's own step propagators, built from its step table
    as the kernel builds them (a propagator gets the same bits in any
    stack), never renormalised."""
    h0, c = params.free_and_coupling()
    norms = [np.abs(m).sum(axis=0).max() for m in (h0, c)]
    n = cfg.n_steps
    k = np.arange(n)[:, None]
    dt = np.array([cfg.t_max]) / np.array([n])
    t0 = k * dt
    t1 = np.where(k == n - 1, cfg.t_max, (k + 1) * dt)
    y = np.sin(params.nu * (0.5 * (t0 + t1)))
    f, substeps = _drive_table(h0, c, norms, dt[0], params.x0)
    u = _table_step(_one_group(f, substeps), y)
    raw = [params.default_initial_state().amplitudes[None, :, None]]
    for j in range(n):
        raw.append(np.matmul(u[j], raw[-1]))
    return np.array(raw)[:, 0, :, 0]


@pytest.mark.parametrize("params", _DRIVEN_PARAMS, ids=["qubit", "oscillator"])
def test_driven_states_are_the_raw_product_normalised_once(monkeypatch, params):
    # the kernel only multiplies: its stored states are the product of the
    # run's own step propagators, never renormalised on the way, each
    # normalised once, and max_norm_drift is that product's worst raw
    # norm deviation, exactly, under every BLAS kernel set.  Layouts: a
    # chunk and a partial one; two whole chunks and a partial one, where a
    # later chunk must keep the worst drift of an earlier one; and the
    # coarse steps dt 0.5 and 1.0, where the oscillator's table takes
    # substeps
    _chunk_of(monkeypatch, params)
    layouts = [(0.01, 0.01 * (_CHUNK + 44)), (0.01, 0.01 * (2 * _CHUNK + 37)),
               (0.5, 20.0), (1.0, 20.0)]
    for dt, t_max in layouts:
        cfg = EvolutionConfig(dt=dt, t_max=t_max, method=Method.MIDPOINT)
        traj = evolve_driven(params, None, cfg)
        raw = _raw_product(params, cfg)
        # the guard's squared norm: the contraction of each row's (re, im) pairs
        parts = raw.view(float)
        nrm = np.sqrt(np.einsum("...i,...i->...", parts, parts))
        npt.assert_array_equal(traj.amplitudes, raw / nrm[:, None], err_msg=f"dt {dt}")
        assert traj.max_norm_drift == np.abs(nrm - 1.0).max(), (dt, t_max)


def per_step_hybrid(model, s0, cfg):
    """The step-by-step reference for mean-field runs: the Strang split of
    ``evolve_hybrid`` with each quantum step exponentiated through an
    eigendecomposition of the midpoint Hamiltonian, <C> from the complex
    state and one ``_guard`` call per step, raising the first trip.
    Returns the amplitudes (n_t, d), the (x, p) track and the worst raw
    norm drift."""
    space, lam, nu = model.params.space, model.params.coupling, model.params.nu
    h0, c = model.params.free_and_coupling()
    times = cfg.time_grid()

    def c_mean(amp):
        if lam == 0.0:
            return 0.0
        return float(np.real(np.vdot(amp, c @ amp))) / lam

    def classical_half(x, p, mean, h):
        xc = -lam * mean / nu
        ch, sh = math.cos(nu * h), math.sin(nu * h)
        dx = x - xc
        return xc + dx * ch + p * sh, p * ch - dx * sh

    amp = s0.psi.amplitudes.copy()
    x, p = float(s0.x), float(s0.p)
    amps = np.empty((len(times), space.total_dim), dtype=complex)
    track = np.empty((len(times), 2))
    amps[0] = _checked(amp[None], 0.0, space)[0][0]
    track[0] = (x, p)
    worst = 0.0
    for k in range(len(times) - 1):
        t1 = times[k + 1]
        dt = t1 - times[k]
        x, p = classical_half(x, p, c_mean(amp), 0.5 * dt)
        w, v = np.linalg.eigh(h0 + x * c)
        amp = v @ (np.exp(-1j * w * dt) * (v.conj().T @ amp))
        x, p = classical_half(x, p, c_mean(amp), 0.5 * dt)
        amp, drift = _checked(amp[None], t1, space)
        amp = amp[0]
        worst = max(worst, float(drift))
        amps[k + 1], track[k + 1] = amp, (x, p)
    return amps, track, worst


def _oscillator_hybrid(coupling, cutoff=16, p=1.0):
    params = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=coupling, x0=1.0,
                                    detector_cutoff=cutoff)
    model = ModelSpec(ModelFamily.OSCILLATOR_DRIVE, params, back_reaction=True)
    return model, HybridState(0.0, p, ground_state(params.space))


def _assert_hybrid_matches_per_step(model, s0, cfg):
    traj = evolve_hybrid(model, s0, cfg)
    amps, track, worst = per_step_hybrid(model, s0, cfg)
    assert traj.amplitudes.shape == amps.shape
    npt.assert_allclose(traj.amplitudes, amps, rtol=0, atol=1e-12)
    npt.assert_allclose(traj.classical, track, rtol=0, atol=1e-12)
    assert abs(traj.max_norm_drift - worst) <= 1e-14


def _hybrid(family, coupling):
    return (_qubit_hybrid if family == "qubit" else _oscillator_hybrid)(coupling)


# dt 0.03 does not divide t_max 10: the steps are 10 / 333
@pytest.mark.parametrize("family", ["qubit", "oscillator"])
@pytest.mark.parametrize("coupling, dt, t_max", [(0.1, 0.001, 3.0), (0.0, 0.001, 3.0),
                                                 (0.1, 0.03, 10.0)])
def test_hybrid_matches_per_step_route(family, coupling, dt, t_max):
    model, s0 = _hybrid(family, coupling)
    _assert_hybrid_matches_per_step(
        model, s0, EvolutionConfig(dt=dt, t_max=t_max, method=Method.MIDPOINT))


@pytest.mark.parametrize("family, dt", [("qubit", 0.3), ("oscillator", 0.05),
                                        ("qubit", 0.5), ("oscillator", 0.5),
                                        ("qubit", 1.0), ("oscillator", 1.0)])
def test_coarse_hybrid_steps_match_per_step_route(family, dt):
    # every step's 1-norm bound exceeds _SMALL_BOUND; the oscillator's
    # coarsest steps (bound up to about 16) are cut into substeps of
    # degree up to 30
    model, s0 = _hybrid(family, 0.1)
    h0, _ = model.params.free_and_coupling()
    assert dt * _norm_1(h0) > _SMALL_BOUND
    substeps = _taylor_plan(dt * _norm_1(h0))[1]
    assert (substeps > 1) == (family == "oscillator" and dt >= 0.5)
    _assert_hybrid_matches_per_step(
        model, s0, EvolutionConfig(dt=dt, t_max=20.0, method=Method.MIDPOINT))


@pytest.mark.parametrize("family, degree", [("qubit", 4), ("oscillator", 6)])
def test_taylor_plan_keeps_the_bundled_hybrid_step(family, degree):
    # the bundled audits start at (x, p) = (0, 1), so their step table has
    # reach 2, and step at dt 0.001: the table's plan is one Taylor sum of
    # the degree the step has always had there
    model, s0 = _hybrid(family, 0.1)
    assert dynamics._reach(math.hypot(s0.x, s0.p)) == 2.0
    norms = [np.abs(m).sum(axis=0).max() for m in model.params.free_and_coupling()]
    assert _taylor_plan(0.001 * (norms[0] + 2.0 * norms[1])) == (degree, 1)


def _count_tables(monkeypatch):
    """The reaches of the step tables ``evolve_hybrid`` builds from here on."""
    reaches = []
    table = dynamics._hybrid_table
    monkeypatch.setattr(dynamics, "_hybrid_table",
                        lambda *args: reaches.append(args[4]) or table(*args))
    return reaches


@pytest.mark.parametrize("family, dt, substeps", [("qubit", 0.001, 1), ("qubit", 8.0, 2),
                                                  ("oscillator", 0.001, 1),
                                                  ("oscillator", 1.0, 5)])
def test_hybrid_table_matches_expm_and_taylor(family, dt, substeps):
    # I + sum_j y^j G_j, for y on a grid in [-1, 1] at the bundled reach 2,
    # is the substep's exponential, and the Taylor sum of the same plan on
    # the substep's own matrix: within 2e-16 at dt 0.001 and 1e-14 at the
    # coarse steps, where the table holds sums of degree 26 to 29
    model, _ = _hybrid(family, 0.1)
    h0, c = model.params.free_and_coupling()
    norms = [_norm_1(m) for m in (h0, c)]
    degree, plan_substeps = _taylor_plan(dt * (norms[0] + 2.0 * norms[1]))
    table, table_substeps = _hybrid_table(h0, c, norms, dt, 2.0)
    assert table_substeps == plan_substeps == substeps
    assert table.shape == (degree + 1, *h0.shape) and table.dtype == complex
    tol = 2e-16 if dt < 0.01 else 1e-14
    eye = np.eye(len(h0), dtype=complex)
    for y in np.linspace(-1.0, 1.0, 17):
        a = (-1j * (h0 + 2.0 * y * c)) * (dt / substeps)
        step = eye + np.tensordot(y ** np.arange(degree + 1), table, axes=1)
        npt.assert_allclose(step, expm(a), rtol=0, atol=tol, err_msg=f"y {y}")
        npt.assert_allclose(step, _taylor(a, degree, 1, eye), rtol=0, atol=tol,
                            err_msg=f"y {y}")


@pytest.mark.parametrize("family", ["qubit", "oscillator"])
def test_hybrid_drift_stays_at_rounding_over_10000_steps(family, monkeypatch):
    # the bundled audits' run, from one table of reach 2: the raw state's
    # norm drifts by 1.33e-15 (qubit) and 6.88e-15 (oscillator).  A table
    # that stored I + D in place of D would round the identity once and
    # reuse that rounding every step, to a drift of 4.2e-13
    reaches = _count_tables(monkeypatch)
    model, s0 = _hybrid(family, 0.1)
    traj = evolve_hybrid(model, s0, EvolutionConfig(dt=0.001, t_max=10.0,
                                                    method=Method.MIDPOINT))
    assert len(traj.times) == 10001 and reaches == [2.0]
    assert traj.max_norm_drift <= 5e-14


def test_hybrid_run_past_its_first_reach_builds_new_tables(monkeypatch):
    # x starts at 0.01 at rest, so the first table has reach 2^-6, and the
    # force of a qubit in (|0> + |1>) / sqrt(2) pulls x out to about -1.06:
    # each time |x| passes the reach, a table of twice the reach is built
    reaches = _count_tables(monkeypatch)
    p = QubitSemiClassicalParams(omega=1.0, nu=1.0, coupling=0.5, x0=1.0)
    model = ModelSpec(ModelFamily.QUBIT_DRIVE, p, back_reaction=True)
    s0 = HybridState(0.01, 0.0, StateVector(p.space, np.array([1.0, 1.0]) / math.sqrt(2)))
    cfg = EvolutionConfig(dt=0.01, t_max=5.0, method=Method.MIDPOINT)
    traj = evolve_hybrid(model, s0, cfg)
    assert reaches == [2.0 ** k for k in range(-6, 2)]
    assert 1.0 < np.abs(traj.classical[:, 0]).max() <= reaches[-1]
    reaches.clear()
    _assert_hybrid_matches_per_step(model, s0, cfg)
    assert reaches == [2.0 ** k for k in range(-6, 2)]


@pytest.mark.parametrize("bound", [0.0, 1e-9, 0.015, 0.1, 1.0, 3.7, 3.9, 15.6, 43.0, 1e3])
def test_taylor_plan_takes_the_fewest_matvecs(bound):
    from quantex.dynamics import _TAYLOR_REACH
    degree, substeps = _taylor_plan(bound)
    # every substep lies within its degree's reach
    assert 1 <= degree <= 30 and bound / substeps <= _TAYLOR_REACH[degree - 1]
    assert degree * substeps == min(m * max(1, math.ceil(bound / reach))
                                    for m, reach in enumerate(_TAYLOR_REACH, start=1))
    if bound == 15.6:       # the bundled oscillator hybrid at dt 1.0
        assert degree * substeps <= 150


def test_hybrid_top_level_trip_matches_per_step_route():
    # a kicked pair drives the 4-level detector into its top level
    model, s0 = _oscillator_hybrid(0.5, cutoff=4, p=3.0)
    cfg = EvolutionConfig(dt=0.01, t_max=10.0, method=Method.MIDPOINT)
    with pytest.raises(ToleranceError) as stepped:
        evolve_hybrid(model, s0, cfg)
    with pytest.raises(ToleranceError) as per_step:
        per_step_hybrid(model, s0, cfg)
    assert str(stepped.value) == str(per_step.value)
    assert str(stepped.value).startswith("top Fock level of factor 0")


def test_hybrid_step_bound_beyond_the_cap_raises():
    # one step of bound about 3.8e4 would take about 1e4 substeps of
    # degree 30; a bound past 1e3 stops the run before the step
    model, _ = _qubit_hybrid(0.1)
    s0 = HybridState(3.8e5, 0.0, ground_state(model.params.space))
    cfg = EvolutionConfig(dt=1.0, t_max=1.0, method=Method.MIDPOINT)
    norms = [np.abs(m).sum(axis=0).max() for m in model.params.free_and_coupling()]
    assert 3e4 < cfg.dt * (norms[0] + abs(s0.x) * norms[1])
    with pytest.raises(ToleranceError, match=r"exceeds 1e\+03 at t=1 \(reduce dt\)$"):
        evolve_hybrid(model, s0, cfg)


def test_driven_step_bound_beyond_the_cap_fails_only_its_run(monkeypatch):
    # a step bound dt (|h0|_1 + |x0| |c|_1) of 2.5e3 would take about 660
    # substeps of degree 30; a bound past 1e3 fails the run before its
    # first step, and the other runs of the batch keep the bits they get alone
    p = QubitSemiClassicalParams(omega=1.0, nu=1.0, coupling=0.5, x0=1e4)
    cfg = EvolutionConfig(dt=0.5, t_max=5.0, method=Method.MIDPOINT)
    text = r"^drive step 1-norm bound 2\.500e\+03 exceeds 1e\+03 \(reduce dt\)$"
    with pytest.raises(ToleranceError, match=text):
        evolve_driven(p, None, cfg)
    finals, errors, _ = _evolve_driven_batch(*p.free_and_coupling(), ground_state(p.space),
                                             [1e4, 1.0], [1.0, 1.0], [5.0, 5.0], [10, 10])
    assert re.match(text, str(errors[0])) and errors[1] is None
    assert np.all(np.isnan(finals[0]))
    alone = evolve_driven(replace(p, x0=1.0), None, cfg).final_state().amplitudes
    assert finals[1].tobytes() == alone.tobytes()
    # the cap counts the free part too: a run whose drive bound is 1.25 but
    # whose dt |h0|_1 alone is 1250 would build its table from about 330
    # substeps of degree 30, so it fails before its first step and builds
    # no table, and its batch mate keeps its bits
    h0, c = p.free_and_coupling()
    assert 2500.0 * _norm_1(h0) > 1e3 > 2500.0 * 1e-3 * _norm_1(c)
    builds = []
    table = dynamics._drive_table
    monkeypatch.setattr(dynamics, "_drive_table",
                        lambda *args: builds.append(args[3]) or table(*args))
    finals, errors, _ = _evolve_driven_batch(h0, c, ground_state(p.space), [1e-3, 1.0],
                                             [1.0, 1.0], [5000.0, 5.0], [2, 10])
    assert re.match(r"^drive step 1-norm bound 1\.251e\+03 exceeds 1e\+03 \(reduce dt\)$",
                    str(errors[0])) and errors[1] is None
    assert np.all(np.isnan(finals[0]))
    assert builds == [0.5]
    assert finals[1].tobytes() == alone.tobytes()


def test_hybrid_step_runs_without_eigh(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("the hybrid step called eigh")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for model, s0 in (_hybrid("qubit", 0.1), _hybrid("oscillator", 0.1)):
        evolve_hybrid(model, s0, EvolutionConfig(dt=0.05, t_max=1.0,
                                                 method=Method.MIDPOINT))


def test_trajectory_states_view_reads_the_amplitude_rows():
    p = _DRIVEN_PARAMS[1]
    traj = evolve_driven(p, None, EvolutionConfig(dt=0.1, t_max=2.0,
                                                  method=Method.MIDPOINT))
    assert len(traj.states) == len(traj.times) == 21
    assert [s.amplitudes.tolist() for s in traj.states] == traj.amplitudes.tolist()
    assert traj.states[-1].amplitudes.tolist() == traj.final_state().amplitudes.tolist()
    assert len(traj.states[2:5]) == 3
    with pytest.raises(ValueError):
        traj.amplitudes[0, 0] = 0.0
    npt.assert_allclose(traj.population_series(0, 1),
                        [s.population(0, 1) for s in traj.states], rtol=0, atol=1e-15)


def test_kernels_hand_their_frozen_buffers_to_the_trajectory(monkeypatch):
    # each propagator freezes the amplitude array it filled, so the
    # trajectory takes it as it is: no trajectory-sized copy
    from quantex import dynamics
    readonly, taken = dynamics._readonly, []

    def spy(arr, *args):
        out = readonly(arr, *args)
        if out.dtype == complex:    # the amplitudes, not the times or (x, p)
            taken.append(out is arr)
        return out

    monkeypatch.setattr(dynamics, "_readonly", spy)
    cfg = EvolutionConfig(dt=0.1, t_max=2.0, method=Method.MIDPOINT)
    p = _DRIVEN_PARAMS[1]
    evolve_driven(p, None, cfg)
    evolve_hybrid(ModelSpec(ModelFamily.OSCILLATOR_DRIVE, p, back_reaction=True),
                  HybridState(0.0, 1.0, ground_state(p.space)), cfg)
    bs = BeamSplitterParams(nu=1.0, omega=1.0, g=0.01, field_cutoff=3, detector_cutoff=3,
                            alpha=0.0)
    evolve_unitary(bs.hamiltonian(), basis_state(bs.space, [1, 0]),
                   EvolutionConfig(dt=0.1, t_max=2.0))
    assert taken == [True, True, True]


def test_trajectory_rejects_unnormalized_rows():
    sp = SpaceDescriptor((TwoLevel(),))
    from quantex.errors import NormalizationError
    with pytest.raises(NormalizationError):
        Trajectory(sp, np.array([0.0, 1.0]), np.array([[1.0, 0.0], [1.0, 1.0]]),
                   max_norm_drift=0.0)
    with pytest.raises(NormalizationError):
        Trajectory(sp, np.array([0.0]), np.array([[np.nan, 0.0]]), max_norm_drift=0.0)


# -- hybrid mean-field evolution ----------------------------------------------


def _qubit_hybrid(coupling):
    p = QubitSemiClassicalParams(omega=1.0, nu=1.0, coupling=coupling, x0=1.0)
    model = ModelSpec(ModelFamily.QUBIT_DRIVE, p, back_reaction=True)
    s0 = HybridState(0.0, 1.0, ground_state(p.space))
    return model, s0


def test_hybrid_zero_coupling_reduces_to_classical_oscillator():
    model, s0 = _qubit_hybrid(0.0)
    cfg = EvolutionConfig(dt=0.001, t_max=10.0, method=Method.MIDPOINT)
    traj = evolve_hybrid(model, s0, cfg)
    npt.assert_allclose(traj.classical[:, 0], np.sin(traj.times), atol=1e-10)
    npt.assert_allclose(traj.population_series(0, 0), 1.0, atol=1e-12)


def test_hybrid_requires_back_reaction_flag():
    p = QubitSemiClassicalParams(omega=1.0, nu=1.0, coupling=0.1, x0=1.0)
    model = ModelSpec(ModelFamily.QUBIT_DRIVE, p)
    with pytest.raises(ValueError):
        evolve_hybrid(model, HybridState(0.0, 1.0, ground_state(p.space)),
                      EvolutionConfig(dt=0.01, t_max=1.0))


def _hybrid_residual(model, s0, dt, t_max=10.0):
    cfg = EvolutionConfig(dt=dt, t_max=t_max, method=Method.MIDPOINT)
    traj = evolve_hybrid(model, s0, cfg)
    p = model.params
    xs, ps = traj.classical[:, 0], traj.classical[:, 1]
    e_cl = 0.5 * p.nu * (xs ** 2 + ps ** 2)
    if model.family is ModelFamily.QUBIT_DRIVE:
        c = pauli(p.space, 0, "x")
    else:
        c = annihilation(p.space, 0) + creation(p.space, 0)
    cexp = np.array([float(np.real(np.vdot(s.amplitudes, c @ s.amplitudes)))
                     for s in traj.states])
    dedt = (e_cl[2:] - e_cl[:-2]) / (2 * dt)
    power = -p.nu * p.coupling * ps[1:-1] * cexp[1:-1]
    return float(np.max(np.abs(dedt - power)))


def test_hybrid_qubit_backreaction_power_identity_converges():
    # d(E_classical)/dt equals -coupling * p * <sigma_x> at second order
    model, s0 = _qubit_hybrid(0.1)
    r1 = _hybrid_residual(model, s0, 0.002)
    r2 = _hybrid_residual(model, s0, 0.001)
    assert math.log2(r1 / r2) >= 1.9


def test_hybrid_oscillator_backreaction_power_identity_converges():
    model, s0 = _oscillator_hybrid(0.1)
    r1 = _hybrid_residual(model, s0, 0.002)
    r2 = _hybrid_residual(model, s0, 0.001)
    assert math.log2(r1 / r2) >= 1.9


def test_hybrid_total_energy_drift_bounded_by_dt_squared():
    model, s0 = _qubit_hybrid(0.1)
    p = model.params
    sp = p.space
    hq = 0.5 * pauli(sp, 0, "z")
    sx = pauli(sp, 0, "x")
    for dt in (0.01, 0.001):
        cfg = EvolutionConfig(dt=dt, t_max=10.0, method=Method.MIDPOINT)
        traj = evolve_hybrid(model, s0, cfg)
        xs, ps = traj.classical[:, 0], traj.classical[:, 1]
        total = np.array([
            0.5 * (x ** 2 + pp ** 2)
            + float(np.real(np.vdot(s.amplitudes,
                                    (hq + 0.1 * x * sx) @ s.amplitudes)))
            for x, pp, s in zip(xs, ps, traj.states)])
        assert np.max(np.abs(total - total[0])) <= 1.0 * dt ** 2


def test_hybrid_second_order_convergence_of_state():
    model, s0 = _qubit_hybrid(0.2)

    def final(dt):
        cfg = EvolutionConfig(dt=dt, t_max=5.0, method=Method.MIDPOINT)
        traj = evolve_hybrid(model, s0, cfg)
        return (traj.classical[-1, 0], traj.classical[-1, 1],
                traj.final_state().amplitudes)

    states = [final(dt) for dt in (0.02, 0.01, 0.005)]

    def dist(u, v):
        return abs(u[0] - v[0]) + abs(u[1] - v[1]) + np.linalg.norm(u[2] - v[2])

    order = math.log2(dist(states[0], states[1]) / dist(states[1], states[2]))
    assert order >= 1.9


# -- closed forms -------------------------------------------------------------


def test_rabi_full_inversion_on_resonance():
    assert rabi_probability(0.02, 0.0, math.pi / 0.02) == pytest.approx(1.0)


def test_rabi_vanishing_coupling():
    assert rabi_probability(0.0, 0.5, 10.0) == 0.0
    assert rabi_probability(0.0, 0.0, 10.0) == 0.0


@pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -560],
                         ids=["2**600", "2**-560"])
def test_rabi_probability_holds_where_the_squares_leave_the_float_range(scale):
    # P(s g, s delta, t / s) = P(g, delta, t), and a power of two s scales
    # exactly, so the bits must match where g^2 and delta^2 would overflow
    # or underflow
    for g, delta, t in [(0.3, 4.0, 1.7), (1e-3, 0.5, 2e3), (0.02, 0.0, 50.0)]:
        assert rabi_probability(g * scale, delta * scale, t / scale) \
            == rabi_probability(g, delta, t)


def test_rabi_matches_exact_two_level():
    # H = (delta/2) sigma_z + (g/2) sigma_x reproduces the closed form
    g, delta = 0.01, 1.0
    sp = SpaceDescriptor((TwoLevel(),))
    h = record(sp, 0.5 * delta * pauli(sp, 0, "z") + 0.5 * g * pauli(sp, 0, "x"))
    traj = evolve_unitary(h, basis_state(sp, [0]),
                          EvolutionConfig(dt=0.05, t_max=20.0))
    pe = traj.population_series(0, 1)
    ref = np.array([rabi_probability(g, delta, t) for t in traj.times])
    assert pe.max() == pytest.approx(g ** 2 / (g ** 2 + delta ** 2), rel=1e-3)
    npt.assert_allclose(pe, ref, atol=1e-6)


def test_golden_rule_zeroes_at_full_periods():
    g, delta = 0.001, 0.5
    for k in (1, 2, 5):
        assert golden_rule_limit(g, delta, 2 * math.pi * k / delta) \
            == pytest.approx(0.0, abs=1e-25)


def test_golden_rule_consistent_with_rabi_when_far_detuned():
    g = 0.001
    for ratio in (10, 30, 100, 1000):
        delta = ratio * g
        bound = 10.0 * (g / delta) ** 2
        t_peak = math.pi / math.hypot(g, delta)
        for t in (t_peak, math.pi / (2 * delta)):
            r = rabi_probability(g, delta, t)
            gl = golden_rule_limit(g, delta, t)
            assert abs(gl - r) / r <= bound


def test_golden_rule_peak_scaling_slope():
    g = 0.001
    deltas = g * np.geomspace(10, 1000, 30)
    peaks = np.array([rabi_probability(g, d, math.pi / math.hypot(g, d))
                      for d in deltas])
    slope = np.polyfit(np.log(deltas), np.log(peaks), 1)[0]
    assert abs(slope + 2.0) <= 0.02


def test_golden_rule_warns_outside_regime():
    with pytest.warns(RegimeWarning):
        golden_rule_limit(0.01, 0.05, 1.0)


def test_perturbative_pe_resonant_limit():
    assert perturbative_pe(0.01, 1.0, 1.0, 20.0) == pytest.approx(
        0.01 ** 2 * 20.0 ** 2 / 4)


def test_perturbative_pe_zero_at_full_period():
    assert perturbative_pe(0.01, 1.5, 1.0, 2 * math.pi / 0.5) \
        == pytest.approx(0.0, abs=1e-30)


def test_perturbative_pe_series_branch_continuity():
    lam, t = 0.01, 10.0
    near = perturbative_pe(lam, 1.0 + 5e-8, 1.0, t)
    assert near == pytest.approx(lam ** 2 * t ** 2 / 4, rel=1e-10)


def test_first_order_forms_stay_finite_where_only_the_square_overflows():
    # (g t / 2)^2 = 2.5e313 passes the float range, but far detuned the
    # first-order form is (g / delta)^2 sin^2(delta t / 2), at most 1e-4
    g, delta, t = 1e150, 1e152, 1e7
    want = (g / delta) ** 2 * math.sin(0.5 * delta * t) ** 2
    assert 0.0 < want <= 1e-4
    p = DrivenOscillatorParams(omega=1.0, nu=1.0 + delta, coupling=g, x0=1.0)
    for got in (golden_rule_limit(g, delta, t), perturbative_pe(g, delta, 0.0, t),
                semiclassical_pn1(p, t)):
        assert got == pytest.approx(want, rel=1e-13)
    # the exact form is finite there too
    assert 0.0 < rabi_probability(g, delta, t) <= 1e-4


def test_pn1_resonant_limit_and_zeroes():
    p = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.001, x0=2.0,
                               detector_cutoff=8)
    assert semiclassical_pn1(p, 10.0) == pytest.approx(
        0.001 ** 2 * 4.0 * 10.0 ** 2 / 4)
    p_det = DrivenOscillatorParams(omega=1.0, nu=1.5, coupling=0.001, x0=2.0,
                                   detector_cutoff=8)
    assert semiclassical_pn1(p_det, 2 * math.pi / 0.5) == pytest.approx(0.0, abs=1e-30)


def test_pn1_carries_fourth_power_of_drive_frequency():
    # the detector couples to the drive displacement, so on resonance the
    # closed forms carry no power of nu at a fixed coupling; the nu^4 of the
    # gravito-phononic drive enters through the SI coupling M L nu^2 / pi^2
    t = 40.0
    vals = {}
    for nu in (1.0, 2.0):
        p = DrivenOscillatorParams(omega=nu, nu=nu, coupling=1e-3, x0=1.0,
                                   detector_cutoff=8)
        assert semiclassical_pn1(p, t) == pytest.approx(1e-6 * t ** 2 / 4, rel=1e-12)
        p = replace(p, coupling=1e-3 * nu ** 2)
        vals[nu] = (semiclassical_pn1(p, t),
                    abs(coherent_amplitude_beta(p, t)) ** 2)
    assert vals[2.0][0] / vals[1.0][0] == pytest.approx(16.0, rel=1e-12)
    assert vals[2.0][1] / vals[1.0][1] == pytest.approx(16.0, rel=0.15)


@pytest.mark.parametrize("nu", [0.5, 2.0])
@pytest.mark.parametrize("omega", [1.0, 2.0])
def test_pn1_closed_forms_match_evolution_off_unit_drive_frequency(nu, omega):
    # the exact window integral holds at any drive frequency; the rotating
    # wave formula holds on resonance within the criterion-8 5 %
    p = DrivenOscillatorParams(omega=omega, nu=nu, coupling=1e-3, x0=1.0,
                               detector_cutoff=8)
    t = 20.0
    cfg = EvolutionConfig(dt=0.01, t_max=t, method=Method.MIDPOINT)
    numeric = evolve_driven(p, None, cfg).final_state().population(0, 1)
    exact = pn1_from_amplitude(coherent_amplitude_beta(p, t))
    assert abs(exact - numeric) / numeric < 0.005
    if nu == omega:
        assert abs(semiclassical_pn1(p, t) - numeric) / numeric < 0.05


def test_pn1_triple_agreement_formula_quadrature_evolution():
    p = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.001, x0=1.0,
                               detector_cutoff=8)
    t = 20.0
    formula = semiclassical_pn1(p, t)
    quad = pn1_from_amplitude(coherent_amplitude_beta(p, t))
    cfg = EvolutionConfig(dt=0.001, t_max=t, method=Method.MIDPOINT)
    numeric = evolve_driven(p, None, cfg).final_state().population(0, 1)
    assert formula < 0.01
    assert abs(formula - quad) / quad < 0.05
    assert abs(formula - numeric) / numeric < 0.05
    assert abs(quad - numeric) / numeric < 0.005


def test_dyson_resonant_closed_form():
    p = BeamSplitterParams(nu=1.0, omega=1.0, g=0.001, field_cutoff=32,
                           detector_cutoff=6, alpha=2.0)
    d = dyson_first_order(p, 10.0)
    assert d.closed_form == pytest.approx(0.001 ** 2 * 4.0 * 100.0, rel=1e-12)
    assert abs(d.closed_form - d.quadrature) <= 1e-12 * d.closed_form


def test_dyson_sinc_zeroes():
    p = BeamSplitterParams(nu=1.4, omega=1.0, g=0.001, field_cutoff=16,
                           detector_cutoff=4, alpha=1.0)
    t = 2 * math.pi / 0.4
    d = dyson_first_order(p, t)
    assert d.closed_form == pytest.approx(0.0, abs=1e-28)
    assert d.quadrature == pytest.approx(0.0, abs=1e-15)


def test_dyson_quadrature_matches_closed_form_detuned():
    p = BeamSplitterParams(nu=1.3, omega=1.0, g=0.002, field_cutoff=24,
                           detector_cutoff=4, alpha=1.5)
    for t in (1.0, 5.0, 10.0):
        d = dyson_first_order(p, t)
        assert abs(d.closed_form - d.quadrature) <= 1e-10 * max(d.closed_form, 1e-30)


def test_dyson_matches_exact_evolution():
    p = BeamSplitterParams(nu=1.0, omega=1.0, g=0.001, field_cutoff=32,
                           detector_cutoff=6, alpha=2.0)
    d = dyson_first_order(p, 10.0)
    psi0 = coherent_state(p.space, 0, 2.0)
    traj = evolve_unitary(build_beam_splitter_hamiltonian(p), psi0,
                          EvolutionConfig(dt=0.5, t_max=10.0))
    exact = traj.final_state().population(1, 1)
    assert exact < 0.01
    assert abs(exact - d.closed_form) / exact < 0.02


# -- block eigendecomposition and the linear-optics oracle ---------------------


def _linear_optics_pn1(p: BeamSplitterParams, t: float) -> float:
    """P(n_b = 1) for a coherent field times the detector vacuum.

    The exchange is linear in the modes, so the state stays a product of
    coherent states with amplitudes exp(-i [[nu, g], [g, omega]] t) (alpha, 0)
    (Kim, Son, Buzek & Knight, PRA 65, 032323 (2002)).
    """
    modes = np.array([[p.nu, p.g], [p.g, p.omega]])
    beta_b = expm(-1j * modes * t)[1, 0] * p.alpha
    return pn1_from_amplitude(beta_b)


@pytest.mark.parametrize("nu, g, cutoffs", [
    (1.0, 0.001, (60, 6)),      # the bundled signatures_beam_splitter model
    (1.3, 0.001, (60, 6)),
    (1.0, 0.05, (30, 20)),      # |beta_b| reaches ~0.7: far from first order
    (0.8, 0.05, (30, 20)),
])
def test_block_propagator_matches_linear_optics_closed_form(nu, g, cutoffs):
    p = BeamSplitterParams(nu=nu, omega=1.0, g=g, field_cutoff=cutoffs[0],
                           detector_cutoff=cutoffs[1], alpha=2.0)
    times = np.array([0.5, 3.0, 10.0, 17.5])
    traj = evolve_unitary_at(build_beam_splitter_hamiltonian(p),
                             coherent_state(p.space, 0, 2.0),
                             times, EvolutionConfig(dt=0.5, t_max=17.5))
    numeric = traj.population_series(1, 1)
    exact = np.array([_linear_optics_pn1(p, t) for t in times])
    npt.assert_allclose(numeric, exact, rtol=1e-11)


def _dense_route(h: np.ndarray, psi0: np.ndarray, times) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    coeffs = v.conj().T @ psi0
    return np.array([v @ (np.exp(-1j * w * t) * coeffs) for t in times])


_JC = JaynesCummingsParams(nu=1.0, omega=0.9, g=0.05, field_cutoff=8)
_BUNDLED_BS = BeamSplitterParams(nu=1.0, omega=1.0, g=0.001, field_cutoff=60,
                                 detector_cutoff=6, alpha=2.0)


@pytest.mark.parametrize("h, m, psi0", [
    (build_beam_splitter_hamiltonian(_BUNDLED_BS), beam_splitter(_BUNDLED_BS),
     coherent_state(_BUNDLED_BS.space, 0, 2.0)),
    (build_beam_splitter_hamiltonian(replace(_BUNDLED_BS, g=0.0)),
     beam_splitter(replace(_BUNDLED_BS, g=0.0)),
     coherent_state(_BUNDLED_BS.space, 0, 2.0)),
    (build_jc_hamiltonian(_JC), jaynes_cummings(_JC), basis_state(_JC.space, [2, 0])),
    (record(_JC.space, jaynes_cummings(_JC, counter_rotating=True)),
     jaynes_cummings(_JC, counter_rotating=True), basis_state(_JC.space, [2, 0])),
], ids=["beam_splitter_60x6", "beam_splitter_g0", "jc", "jc_counter_rotating"])
def test_block_route_matches_dense_eigh(h, m, psi0):
    # the second route propagates the Kronecker-built matrix m
    times = np.array([0.0, 0.7, 5.0, 31.0])
    traj = evolve_unitary_at(h, psi0, times, EvolutionConfig(dt=0.1, t_max=31.0))
    block = np.array([s.amplitudes for s in traj.states])
    npt.assert_allclose(block, _dense_route(m, psi0.amplitudes, times),
                        rtol=0, atol=1e-12)


def test_samples_at_t0_are_the_initial_state_itself():
    # U(0) = I exactly: v v^+ psi0 would round in this 3-state sector
    p = BeamSplitterParams(nu=1.0, omega=0.9, g=0.3, field_cutoff=4, detector_cutoff=4,
                           alpha=0.0)
    psi0 = basis_state(p.space, [2, 0])
    traj = evolve_unitary_at(p.hamiltonian(), psi0, [0.0, 1.0, 0.0],
                             EvolutionConfig(dt=0.1, t_max=1.0))
    assert traj.amplitudes[0].tolist() == psi0.amplitudes.tolist()
    assert traj.amplitudes[2].tolist() == psi0.amplitudes.tolist()


def _permuted_blocks(sizes, rng) -> np.ndarray:
    """A random hermitian matrix with dense blocks of ``sizes`` on the
    diagonal, under a random basis permutation."""
    d = sum(sizes)
    m = np.zeros((d, d), dtype=complex)
    start = 0
    for size in sizes:
        a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        m[start:start + size, start:start + size] = a + a.conj().T
        start += size
    perm = rng.permutation(d)
    return m[np.ix_(perm, perm)]


@st.composite
def _permuted_block_hermitian(draw):
    """A random hermitian matrix that is block diagonal under a random
    basis permutation, with blocks of 1 to 5 states."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return _permuted_blocks(sizes, rng)


@settings(max_examples=60, deadline=None)
@given(_permuted_block_hermitian(), st.floats(-3.0, 3.0))
def test_block_eigh_reproduces_dense_decomposition(m, shift):
    # the hops of m's upper triangle, as evolve_unitary_at passes them,
    # under a stack of three diagonals of which the first and last are
    # equal; each point's w and v are rebuilt dense from the class stacks
    rows, cols = np.nonzero(np.triu(m, 1))
    diagonal = m.diagonal().real
    stack = np.array([diagonal, diagonal + shift, diagonal])
    inverse, classes = _block_eigh(stack, (cols, rows, m[rows, cols]))
    assert inverse.shape == (3,) and inverse[0] == inverse[2]
    # only the distinct diagonals are decomposed
    assert all(len(w_class) == len(np.unique(stack, axis=0)) for _, w_class, _ in classes)
    for diag, u in zip(stack, inverse):
        mk = m + np.diag(diag - diagonal)
        w, v = np.empty(len(m)), np.zeros_like(m)
        for idx, w_class, v_class in classes:
            w[idx], v[idx[:, :, None], idx[:, None, :]] = w_class[u], v_class[u]
        npt.assert_allclose(np.sort(w), np.linalg.eigvalsh(mk), rtol=0, atol=1e-12)
        npt.assert_allclose(v.conj().T @ v, np.eye(len(m)), rtol=0, atol=1e-12)
        npt.assert_allclose((v * w) @ v.conj().T, mk, rtol=0, atol=1e-12)


@st.composite
def _symmetric_pattern(draw):
    """A symmetric 0/1 matrix under a random basis permutation, built from
    blocks of 1 to 12 states that are each empty (isolated nodes), fully
    coupled, or a random sparse pattern that may split into chains."""
    blocks = draw(st.lists(st.tuples(st.integers(1, 12),
                                     st.sampled_from([0.0, 1.0, 0.1, 0.2, 0.4])),
                           min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = sum(size for size, _ in blocks)
    m = np.zeros((d, d))
    start = 0
    for size, density in blocks:
        block = rng.random((size, size)) < density
        m[start:start + size, start:start + size] = block | block.T
        start += size
    perm = rng.permutation(d)
    return m[np.ix_(perm, perm)]


def _permuted_path(d: int) -> np.ndarray:
    """One chain through all d states, visited in a scrambled basis order."""
    m = np.eye(d, k=1) + np.eye(d, k=-1)
    perm = np.random.default_rng(7).permutation(d)
    return m[np.ix_(perm, perm)]


@settings(max_examples=200, deadline=None)
@given(_symmetric_pattern())
@example(np.zeros((9, 9)))
@example(np.ones((7, 7)))
@example(_permuted_path(64))
def test_component_labels_match_scipy_connected_components(m):
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    _, expected = connected_components(csr_array(m != 0), directed=False)
    labels = _component_labels(len(m), *np.nonzero(m))
    assert labels.shape == expected.shape
    assert np.array_equal(labels, expected)


@st.composite
def _hermitian_on_qubits(draw):
    """(H, psi0): a random dense hermitian H on 1 to 5 two-level factors
    that is block diagonal under a random basis permutation (blocks of 1
    to 8 states), and a random normalised state."""
    space = SpaceDescriptor(tuple(TwoLevel() for _ in range(draw(st.integers(1, 5)))))
    remaining, sizes = space.total_dim, []
    while remaining:
        sizes.append(draw(st.integers(1, min(8, remaining))))
        remaining -= sizes[-1]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    psi0 = rng.normal(size=space.total_dim) + 1j * rng.normal(size=space.total_dim)
    return _permuted_blocks(sizes, rng), StateVector(space, psi0 / np.linalg.norm(psi0))


@settings(max_examples=60, deadline=None)
@given(_hermitian_on_qubits(),
       st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6))
def test_unitary_evolution_keeps_norm_and_matches_expm(h_psi0, times):
    h, psi0 = h_psi0
    traj = evolve_unitary_at(record(psi0.space, h), psi0, times,
                             EvolutionConfig(dt=0.1, t_max=50.0))
    assert traj.max_norm_drift <= NORM_ATOL
    for t, state in zip(times, traj.states):
        exact = expm(-1j * h * t) @ psi0.amplitudes
        npt.assert_allclose(state.amplitudes, exact, rtol=0, atol=1e-10)


# -- the eigh-free exponential of the midpoint step ------------------------------


@st.composite
def _midpoint_hamiltonian(draw):
    """A hybrid step's pieces: a real diagonal h0, a real symmetric c, x,
    dt and a normalised complex state of dimension 1 to 16, with
    |h0 dt|_1 and |x c dt|_1 each at most 25, some below _SMALL_BOUND."""
    d = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h0 = np.diag(rng.normal(size=d))
    c = rng.normal(size=(d, d))
    c = c + c.T
    x = draw(st.floats(-3.0, 3.0))
    dt = draw(st.floats(1e-3, 1.0))
    n_h, n_c = (draw(st.one_of(st.floats(0.0, 0.5 * _SMALL_BOUND), st.floats(0.0, 25.0)))
                for _ in range(2))
    h0 *= n_h / (dt * _norm_1(h0))
    c *= n_c / (dt * _norm_1(c) * max(abs(x), 1.0))
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return h0, c, x, dt, psi / np.linalg.norm(psi)


def _taylor_step(h0, c, x, dt, v):
    """exp(-i dt (h0 + x c)) v by ``_taylor`` on the plan of
    dt (|h0|_1 + |x| |c|_1): on the real view v of a state, through the
    real form of the exponent, or on a complex block of columns v."""
    degree, substeps = _taylor_plan(dt * (_norm_1(h0) + abs(x) * _norm_1(c)))
    a = (-1j * (h0 + x * c)) * (dt / substeps)
    return _taylor(_real_form(a) if v.dtype == float else a, degree, substeps, v)


# the bundled oscillator audit's model, whose steps at dt 0.001 and |x| up
# to 1.5 are one sum of degree 6
_BUNDLED_OSCILLATOR = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.1, x0=1.0,
                                             detector_cutoff=16).free_and_coupling()


@settings(max_examples=150, deadline=None)
@given(_midpoint_hamiltonian())
@example((np.zeros((3, 3)), np.zeros((3, 3)), 0.0, 0.1,
          np.array([1.0, 1j, 0.0]) / 2 ** 0.5))
@example((np.diag([0.5, -0.5]), np.array([[0.0, 0.1], [0.1, 0.0]]), 1.0, 0.001,
          np.array([1.0 + 0j, 0.0])))                     # the bundled qubit step
@example((*_BUNDLED_OSCILLATOR, -1.5, 0.001,              # the bundled oscillator step
          np.eye(16, 1, -1)[:, 0] * 0.6 + np.eye(16, 1)[:, 0] * 0.8j))
@example((np.diag([-40.0, 25.0]), np.array([[0.0, 3.0], [3.0, 0.0]]), -1.0, 1.0,
          np.array([0.6 + 0j, 0.8j])))                    # bound 43: 12 substeps
@example((np.diag([-10.0, 4.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0, 1.0,
          np.array([0.8j, 0.6 + 0j])))                    # bound 11: 3 substeps
def test_taylor_matches_expm(step):
    # on the real view of one state, through the real form of the
    # exponent, and on a complex block of columns; neither call writes
    # its input
    h0, c, x, dt, psi = step
    norms = [_norm_1(m) for m in (h0, c)]
    bound = dt * (norms[0] + abs(x) * norms[1])
    h_dt = (h0 + x * c) * dt
    v = psi.view(float).copy()
    out = _taylor_step(h0, c, x, dt, v)
    assert out.shape == v.shape and v.tobytes() == psi.tobytes()
    block = np.column_stack([psi, np.roll(psi, 1).conj()])
    before = block.copy()
    out_block = _taylor_step(h0, c, x, dt, block)
    assert out_block.shape == block.shape and out_block.dtype == complex
    assert block.tobytes() == before.tobytes()
    # up to _SMALL_BOUND one Taylor sum runs, and it must hold to a few ulps
    tol = 1e-15 if bound <= _SMALL_BOUND else 1e-13 * max(1.0, _norm_1(h_dt))
    u = expm(-1j * h_dt)
    npt.assert_allclose(out.view(complex), u @ psi, rtol=0, atol=tol)
    npt.assert_allclose(out_block, u @ block, rtol=0, atol=tol)


@st.composite
def _drive_step(draw):
    """A prescribed-drive step: a real diagonal h0, a real symmetric c,
    dt, a drive amplitude x0 and a drive shape y in [-1, 1], of
    dimension 1 to 8, with |h0 dt|_1 up to 25 and the drive bound
    dt x0 |c|_1 up to 60, past the reach of degree 30, so that some
    steps take substeps."""
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h0 = np.diag(rng.normal(size=d))
    c = rng.normal(size=(d, d))
    c = c + c.T
    dt = draw(st.floats(1e-3, 1.0))
    x0 = draw(st.floats(1e-3, 1e3))
    y = draw(st.floats(-1.0, 1.0))
    n_h = draw(st.one_of(st.floats(0.0, 0.5 * _SMALL_BOUND), st.floats(0.0, 25.0)))
    bound = draw(st.one_of(st.floats(0.0, _TAYLOR_REACH[-1]),
                           st.floats(_TAYLOR_REACH[-1], 60.0)))
    h0 *= n_h / (dt * _norm_1(h0))
    c *= bound / (dt * x0 * _norm_1(c))
    return h0, c, dt, x0, y


@settings(max_examples=150, deadline=None)
@given(_drive_step())
@example((np.zeros((2, 2)), np.zeros((2, 2)), 0.1, 0.0, 0.0))
@example((np.diag([0.5, -0.5]), np.array([[0.0, 0.3], [0.3, 0.0]]), 0.5, 1.0, -0.7))
@example((np.diag([-1.0, 1.0]), np.array([[0.0, 3.0], [3.0, 0.0]]), 1.0, 20.0,
          -1.0))                                          # drive bound 60: substeps
@example((np.array([[20250.0]]), np.array([[-89.41139413]]), 1e-3, 255.0,
          0.9375))                                        # h0 dt and x c dt cancel
@example((np.zeros((1, 1)), np.array([[1e-320]]), 0.5, 1e3, -1.0))  # a subnormal c
def test_drive_table_matches_expm(step):
    # sum_j y^j F_j, to the power of the substeps, is the step's
    # exponential: the table's truncation in y and its rounding stay at
    # the level of one exponential of the step.  The table sums the parts
    # h0 dt and x c dt, not their sum, so its rounding scales with their
    # norms: where they cancel, as in the example above (20.25 and -21.4),
    # it errs by 1.6e-14 against a 40-digit exponential
    h0, c, dt, x0, y = step
    norms = [_norm_1(m) for m in (h0, c)]
    degree, substeps = _taylor_plan(dt * x0 * norms[1])
    f, table_substeps = _drive_table(h0, c, norms, dt, x0)
    assert f.shape == (degree + 1,) + h0.shape and table_substeps == substeps
    u = _table_step(_one_group(f, substeps), np.array([[y]]))
    x = x0 * y
    parts = dt * (norms[0] + abs(x) * norms[1])
    npt.assert_allclose(u[0, 0], expm(-1j * (h0 + x * c) * dt), rtol=0,
                        atol=1e-14 * max(1.0, parts))


def test_table_step_gives_a_run_the_bits_it_gets_alone():
    # one run's propagators do not depend on the chunk they are built in:
    # steps per chunk K, batch size L, the run's place in the batch and
    # the groups of other term counts around it all leave them bit for
    # bit as the run's own table gives them alone.  Tables of 6, 11, 17
    # and 26 terms, the last with 2 substeps, in a stack padded with zeros
    # to 26 terms, as the kernel holds them
    h0, c = _DRIVEN_PARAMS[1].free_and_coupling()
    norms = [_norm_1(m) for m in (h0, c)]
    built = [_drive_table(h0, c, norms, dt, x0)
             for dt, x0 in ((0.01, 1.0), (0.1, 5.0), (0.3, 10.0), (0.5, 40.0))]
    terms = np.array([len(f) for f, _ in built])
    substeps = np.array([s for _, s in built])
    assert terms.tolist() == [6, 11, 17, 26] and substeps.tolist() == [1, 1, 1, 2]
    stack = np.zeros((len(built), terms.max(), len(h0), 2 * len(h0)))
    for i, (f, _) in enumerate(built):
        stack[i, :len(f)] = f.view(float)
    rng = np.random.default_rng(7)
    y = rng.uniform(-1.0, 1.0, 256)

    def step(members, steps, at):
        """The first ``steps`` propagators of run ``at`` of a batch whose
        runs take the tables ``members``; run ``at`` steps through y, the
        others through random shapes."""
        shapes = rng.uniform(-1.0, 1.0, (steps, len(members)))
        shapes[:, at] = y[:steps]
        groups = _step_groups(stack, terms, substeps, np.array(members))
        return _table_step(groups, shapes)[:, at]

    for r, (f, s) in enumerate(built):
        alone = _table_step(_one_group(f, s), y[:, None])[:, 0]
        for steps in (1, 5, 37, 256):
            for runs in (1, 3, 41):
                same = [r] * runs
                mixed = [(r + i - runs // 2) % len(built) for i in range(runs)]
                for members, at in ((same, runs // 2), (mixed, runs // 2),
                                    (sorted(mixed), sorted(mixed).index(r))):
                    u = step(members, steps, at)
                    assert u.tobytes() == alone[:steps].tobytes(), (r, steps, members)


def test_a_mixed_degree_batch_contracts_each_run_at_its_own_term_count(monkeypatch):
    # runs whose tables hold 5, 7 and 9 terms, interleaved in the batch:
    # the live runs are ordered by term count, each chunk makes one product
    # per count over exactly the runs of that count, so no run pays for a
    # higher-degree run's zero terms, and each run keeps the bits it gets
    # alone
    p = _DRIVEN_PARAMS[1]
    h0, c = p.free_and_coupling()
    x0s = [0.1, 1.0, 3.0, 1.0, 0.1, 3.0, 0.1]
    t_end, n = 5.0, 100
    norm_c = _norm_1(c)
    counts = [_taylor_plan(t_end / n * x0 * norm_c)[0] + 1 for x0 in x0s]
    assert counts == [5, 7, 9, 7, 5, 9, 5]
    _chunk_of(monkeypatch, p, 56)       # one block of 8 steps of the 7 runs per chunk
    calls, matmul = [], np.matmul

    def counting_matmul(powers, tables, **kwargs):
        # the table products, (runs, blocks, 8, J + 1) @ (runs, 1, J + 1, 2d^2);
        # the serial loop's stacked matvecs are 3-d
        if powers.ndim == 4:
            assert powers.shape[2] == 8 and powers.shape[-1] == tables.shape[2]
            calls.append((len(tables), tables.shape[2]))
        return matmul(powers, tables, **kwargs)

    monkeypatch.setattr(np, "matmul", counting_matmul)
    psi0 = ground_state(p.space)
    finals, errors, _ = _evolve_driven_batch(h0, c, psi0, x0s, [p.nu] * len(x0s),
                                             [t_end] * len(x0s), [n] * len(x0s))
    assert errors == [None] * len(x0s)
    assert sorted(calls) == sorted([(3, 5), (2, 7), (2, 9)] * -(-n // 8))
    for x0, final in zip(x0s, finals):
        alone, _, _ = _evolve_driven_batch(h0, c, psi0, [x0], [p.nu], [t_end], [n])
        assert alone[0].tobytes() == final.tobytes()


def test_a_batch_too_large_for_a_full_chunk_steps_one_block_at_a_time(monkeypatch):
    # 2056 qubit runs, more than the 16384 propagators of a 1 MiB chunk at
    # d = 2 hold 8 steps of: each chunk is one block of 8 steps per run, the
    # chunk budget's floor, yet every run ends byte for byte as it ends
    # alone, where one chunk holds all its steps.  Tables of four
    # amplitudes, the largest with 2 substeps, whose kicks would put an
    # oscillator at d = 8 on its top level, and three horizons, so that
    # runs leave the batch mid-way
    p = _DRIVEN_PARAMS[0]
    h0, c = p.free_and_coupling()
    dt, runs = 0.5, 2056
    monkeypatch.setattr(dynamics, "_DRIVE_CHUNK_BYTES", 1 << 20)
    assert dynamics._DRIVE_CHUNK_BYTES // (16 * 4) < 8 * runs
    x0s = np.resize([0.1, 1.0, 3.0, 40.0], runs)
    nus = np.linspace(0.5, 1.5, runs)
    n = np.resize([13, 20, 27], runs)
    norms = [_norm_1(m) for m in (h0, c)]
    built = [_drive_table(h0, c, norms, dt, x0) for x0 in x0s[:4]]
    assert [(len(f), s) for f, s in built] == [(7, 1), (11, 1), (15, 1), (28, 2)]
    chunks, table_step = [], dynamics._table_step
    monkeypatch.setattr(dynamics, "_table_step",
                        lambda groups, y: chunks.append(y.shape) or table_step(groups, y))
    psi0 = p.default_initial_state()
    finals, errors, _ = _evolve_driven_batch(h0, c, psi0, x0s, nus, dt * n, n)
    assert errors == [None] * runs
    assert chunks[0] == (8, runs) and all(k <= 8 for k, _ in chunks)
    for b in range(runs):
        alone, _, _ = _evolve_driven_batch(h0, c, psi0, x0s[b:b + 1], nus[b:b + 1],
                                           dt * n[b:b + 1], n[b:b + 1])
        assert alone[0].tobytes() == finals[b].tobytes(), b


def test_runs_that_leave_a_batch_keep_the_bits_they_get_alone(monkeypatch):
    # four oscillator runs in chunks of 16 steps (64 propagators over four
    # runs): no run leaves the first chunk, the strongest drive trips its
    # top level in the second while the rest go on, one run finishes
    # mid-way through the third and one in the fourth, and the last goes
    # on through a chunk where no run leaves.  Each run ends with the bits
    # it gets alone, where its chunks hold 64 steps: the trip text, and for
    # a run that passes its final state, its stored states and its worst
    # drift.  The last run's 150 steps of t_end / 150 do not sum to t_end,
    # yet its last step ends exactly at t_end
    p = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.2, x0=1.0, detector_cutoff=5)
    _chunk_of(monkeypatch, p, 64)
    h0, c = p.free_and_coupling()
    psi0 = ground_state(p.space)
    x0s, nus = np.array([0.5, 2.0, 0.3, 0.2]), np.array([1.0, 1.0, 1.1, 0.5])
    n, t_ends = np.array([40, 100, 61, 150]), np.array([2.0, 5.0, 3.05, 2.38])
    shapes, table_step = [], dynamics._table_step
    monkeypatch.setattr(dynamics, "_table_step",
                        lambda groups, y: shapes.append(y.copy()) or table_step(groups, y))
    states = np.empty((n.max() + 1, 4, 5), dtype=complex)
    finals, errors, worst = _evolve_driven_batch(h0, c, psi0, x0s, nus, t_ends, n,
                                                 states=states)
    assert [y.shape for y in shapes] == [(16, 4), (16, 4), (16, 3), (32, 2), (64, 1), (6, 1)]
    assert [error is None for error in errors] == [True, False, True, True]
    assert str(errors[1]).endswith("at t=0.95 (raise the cutoff)")
    for b in range(4):
        alone, shapes[:] = np.empty((n[b] + 1, 1, 5), dtype=complex), []
        final, error, drift = _evolve_driven_batch(h0, c, psi0, x0s[b:b + 1], nus[b:b + 1],
                                                    t_ends[b:b + 1], n[b:b + 1], states=alone)
        assert final.tobytes() == finals[b:b + 1].tobytes(), b
        assert str(error[0]) == str(errors[b])
        if errors[b] is None:
            assert alone[:, 0].tobytes() == states[:n[b] + 1, b].tobytes(), b
            assert drift[0] == worst[b]
    dt = t_ends[3] / n[3]
    last = np.sin(nus[3] * (0.5 * (149 * dt + t_ends[3])))
    assert shapes[-1][-1, 0] == last != np.sin(nus[3] * (0.5 * (149 * dt + 150 * dt)))


def test_the_driven_batch_holds_one_chunk_of_propagators_at_a_time():
    # the bundled driven signatures' 75 runs, all of 4000 steps, at d = 8,
    # with no stored states: each chunk's arrays are freed before the next
    # chunk builds, so the traced peak, one chunk's propagators plus the
    # tables, the states and the guard pass, stays below two chunks'
    p = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.001, x0=1.0,
                               detector_cutoff=8)
    h0, c = p.free_and_coupling()
    assert len(h0) == 8
    nus = np.concatenate([1.0 + np.linspace(-0.9, 0.9, 41), np.ones(34)])
    x0s = np.concatenate([np.ones(41), np.sqrt(np.geomspace(1.0, 16.0, 34))])
    psi0 = ground_state(p.space)
    tracemalloc.start()
    try:
        _, errors, _ = _evolve_driven_batch(h0, c, psi0, x0s, nus, [20.0] * 75,
                                            [4000] * 75)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert errors == [None] * 75
    assert peak < 2 * dynamics._DRIVE_CHUNK_BYTES, peak


def test_drive_table_is_planned_from_its_own_amplitude(monkeypatch):
    # the table's Taylor sum is planned from the step's own bound
    # h (|h0|_1 + |x0| |c|_1), h = dt / s, with no scale on the c blocks:
    # weak, negative, zero and substepping drives of the oscillator
    h0, c = _DRIVEN_PARAMS[1].free_and_coupling()
    norms = [_norm_1(m) for m in (h0, c)]
    calls = []
    taylor = dynamics._taylor
    monkeypatch.setattr(dynamics, "_taylor",
                        lambda a, *rest: calls.append((a, *rest[:2])) or taylor(a, *rest))
    d = len(h0)
    for dt, x0 in ((0.01, 1.0), (0.5, -3.0), (0.5, 0.0), (1.0, 40.0)):
        _, substeps = _drive_table(h0, c, norms, dt, x0)
        assert substeps == _taylor_plan(dt * abs(x0) * norms[1])[1]
        h = dt / substeps
        a, degree, s = calls.pop()
        assert (degree, s) == _taylor_plan(h * (norms[0] + abs(x0) * norms[1]))
        # s substeps of a make h g: -i h h0 on the diagonal, -i h x0 c above
        npt.assert_allclose(s * a[:d, :d], -1j * h * h0, rtol=1e-15, atol=0)
        npt.assert_allclose(s * a[:d, d:2 * d], -1j * h * x0 * c, rtol=1e-15, atol=0)
    assert substeps > 1 and not calls


def test_driven_batch_builds_one_table_per_distinct_step(monkeypatch):
    # runs of (nu, x0, t_end): the first two share a step length and an
    # amplitude, the third has its own amplitude but the same Taylor plan,
    # the fourth needs a higher degree, the fifth substeps and the last has
    # its own step length; 600 steps each span a dozen chunks, yet each
    # distinct (step, amplitude) builds one table, and every run keeps the
    # bits it gets alone
    p = QubitSemiClassicalParams(omega=1.0, nu=1.0, coupling=0.3, x0=1.0)
    _chunk_of(monkeypatch, p)
    h0, c = p.free_and_coupling()
    runs = [(0.9, 1.0, 6.0), (1.1, 1.0, 6.0), (0.9, 1.5, 6.0), (0.9, 50.0, 6.0),
            (0.9, 2000.0, 6.0), (0.9, 1.0, 5.0)]
    n = 600
    norm_c = np.abs(c).sum(axis=0).max()
    plans = [_taylor_plan(t / n * x0 * norm_c) for _, x0, t in runs]
    assert plans[2] == plans[0] and plans[3][0] > plans[0][0] and plans[4][1] > 1
    steps = [(t / n, x0) for _, x0, t in runs]
    assert len(set(steps)) == 5
    builds = []
    table = dynamics._drive_table
    monkeypatch.setattr(dynamics, "_drive_table",
                        lambda *args: builds.append(args[3:]) or table(*args))
    nus, x0s, t_ends = zip(*runs)
    finals, errors, _ = _evolve_driven_batch(h0, c, ground_state(p.space), x0s, nus, t_ends,
                                             [n] * len(runs))
    assert errors == [None] * len(runs)
    assert sorted(builds) == sorted(set(steps))
    for (nu, x0, t), final in zip(runs, finals):
        alone, _, _ = _evolve_driven_batch(h0, c, ground_state(p.space), [x0], [nu], [t],
                                           [n])
        assert alone[0].tobytes() == final.tobytes()
