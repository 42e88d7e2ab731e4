"""Trajectory post-processing: energy ledgers, conditioned-deficit audits,
parameter scans, photo-electric-style signature reports, and power-law fits.

CSV formats (fixed column order, full-precision floats via repr):

* ledger CSV: ``time,e_classical,e_quantum_free,e_interaction,e_total,
  energy_std`` plus ``backreaction_residual`` when the trajectory carries a
  mean-field classical track;
* scan CSV: ``<axis>,probability`` plus sorted aux columns, then ``error``
  (a tag holding a comma or a quote is quoted).

For the quantized-field families the ``e_classical`` ledger column holds
the free energy of the field mode (the object playing the classical
field's role); for the driven families it is the classical drive energy
``(nu/2)(x^2 + p^2)``, which is constant by construction when there is no
back-reaction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import RegimeError, ToleranceError
from .hilbert import StateVector, _readonly
from .models import ModelSpec
from .dynamics import (
    GOLDEN_RULE_MIN_RATIO,
    EvolutionConfig,
    Trajectory,
    evolve_driven,
    evolve_unitary_at,
    rabi_probability,
)
from . import dynamics as _dyn

__all__ = [
    "EnergyLedger", "energy_ledger", "DeficitReport",
    "conditioned_energy_deficit", "ScanResult",
    "detuning_scan", "intensity_scan", "time_scan", "rabi_peak_scan",
    "SignatureCheck", "SignatureReport", "signature_report", "FitResult",
    "loglog_slope", "golden_rule_fit", "ledger_to_csv", "scan_to_csv",
    "default_initial_state", "default_target", "run_point",
]

LEDGER_DRIFT_RTOL = 1e-8
SIGNATURE_SLOPE_TOL = 0.01      # intensity check: |log-log slope - 1| at most this
SIGNATURE_GAP_RTOL = 1e-6       # intensity check: relative spread of the transition gap
CONDITION_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# per-family wiring


def default_target(model: ModelSpec) -> tuple[int, int]:
    """(factor_index, level) of the first excited detector state."""
    return (model.params.detector, 1)


def default_initial_state(model: ModelSpec) -> StateVector:
    """The family's canonical initial state (see its params class), built
    once per model."""
    return model.default_state


# ---------------------------------------------------------------------------
# energy ledger


@dataclass(frozen=True, eq=False)
class EnergyLedger:
    """Per-time energy decomposition; ``e_total`` is the sum of the three
    component columns and ``energy_std`` is sqrt(Var(H)) of the full
    instantaneous Hamiltonian operator."""

    times: np.ndarray
    e_classical: np.ndarray
    e_quantum_free: np.ndarray
    e_interaction: np.ndarray
    e_total: np.ndarray
    energy_std: np.ndarray
    backreaction_residual: np.ndarray | None = None

    def total_drift(self) -> float:
        return float(np.max(np.abs(self.e_total - self.e_total[0])))


def _expect_diag(diagonal: np.ndarray, amp: np.ndarray) -> float:
    return float(np.real(np.vdot(amp, diagonal * amp)))


def _expect_rows(amps: np.ndarray, op_amps: np.ndarray) -> np.ndarray:
    """Re <psi_t| op |psi_t> per row, from the rows psi_t and op psi_t
    (real and imaginary views, so no conjugated copy is made)."""
    return (np.einsum("ti,ti->t", amps.real, op_amps.real)
            + np.einsum("ti,ti->t", amps.imag, op_amps.imag))


def energy_ledger(traj: Trajectory, model: ModelSpec) -> EnergyLedger:
    """Audit a trajectory against its model's
    H(x) = field_free + detector_free + x * coupling, with x the classical
    drive of the driven families and x = 1 for the quantized ones.

    Quantum families must hold ``e_total`` constant to 1e-8 relative
    (ToleranceError otherwise).  Driven families without back-reaction emit
    a bit-identical constant ``e_classical`` column.  Mean-field runs add
    the residual of d(e_classical)/dt against the back-reaction power
    ``-nu * coupling * p * <C>`` (central differences; NaN at endpoints).
    Every column is one array expression over the trajectory's
    ``(n_t, d)`` amplitudes.
    """
    p = model.params
    if traj.space != p.space:
        raise ValueError("trajectory space does not match the model")
    field_free, detector_free, (src, dst, amp) = p.parts()
    amps = traj.amplitudes
    probs = np.abs(amps) ** 2
    if p.driven:
        if traj.classical is None:
            raise ValueError("driven-model ledger needs the classical (x, p) track")
        xs, ps = traj.classical[:, 0], traj.classical[:, 1]
        if model.back_reaction:
            e_cl = 0.5 * p.nu * (xs ** 2 + ps ** 2)
        else:
            # prescribed drive: the classical energy is constant by construction
            e_cl = np.full(len(traj.times), 0.5 * p.nu * p.x0 ** 2)
    else:
        xs = np.ones(len(traj.times))
        e_cl = probs @ field_free
    e_qf = probs @ detector_free
    # every (n_t, d) temporary is as large as the trajectory: keep few alive
    del probs
    # C psi per row: the driven families multiply by the dense coupling they
    # step with (hop sums would round differently); the quantized families
    # apply their hops amp |dst><src| + h.c. and build no d x d array
    if p.driven:
        c_amps = amps @ p.free_and_coupling()[1].T
    else:
        c_amps = np.zeros_like(amps)
        np.add.at(c_amps, (slice(None), dst), amp * amps[:, src])
        np.add.at(c_amps, (slice(None), src), np.conj(amp) * amps[:, dst])
    cexp = _expect_rows(amps, c_amps)       # <C> carries the coupling
    e_int = xs * cexp
    e_tot = e_cl + e_qf + e_int
    # H(x) psi per row, built in place; the free part is diagonal
    h_amps = amps * (field_free + detector_free)
    c_amps *= xs[:, None]
    h_amps += c_amps
    mean = _expect_rows(amps, h_amps)
    second = _expect_rows(h_amps, h_amps)
    std = np.sqrt(np.maximum(second - mean * mean, 0.0))

    if not p.driven:
        scale = max(abs(float(e_tot[0])), 1.0)
        drift = float(np.max(np.abs(e_tot - e_tot[0])))
        if drift > LEDGER_DRIFT_RTOL * scale:
            raise ToleranceError(
                f"total energy drift {drift:.3e} exceeds {LEDGER_DRIFT_RTOL:.0e} "
                f"relative on a closed quantum model")
    residual = None
    if model.back_reaction and len(traj.times) >= 3:
        dt = float(traj.times[1] - traj.times[0])
        dedt = (e_cl[2:] - e_cl[:-2]) / (2.0 * dt)
        # power = -nu * p * <coupling * C>
        power = -p.nu * ps[1:-1] * cexp[1:-1]
        residual = np.full(len(traj.times), np.nan)
        residual[1:-1] = dedt - power
    return EnergyLedger(traj.times, e_cl, e_qf, e_int, e_tot, std,
                        backreaction_residual=residual)


# ---------------------------------------------------------------------------
# conditioned energy audit


@dataclass(frozen=True)
class DeficitReport:
    """Free-energy bookkeeping around a post-selected transition.

    ``deficit`` is the conditioned joint free energy after readout minus
    the initial joint free energy; ``e_diff`` is the field-quantum minus
    detector-quantum mismatch (the detuning, in natural units).
    """

    deficit: float
    e_before: float
    e_after: float
    field_quantum: float
    detector_quantum: float
    e_diff: float
    probability: float

    def to_dict(self) -> dict:
        return asdict(self)


def conditioned_energy_deficit(traj: Trajectory, model: ModelSpec) -> DeficitReport:
    """Post-select the detector's first excited free eigenstate
    (``default_target``) at readout and compare joint free energies
    before and after.

    The joint free energy is field_free + detector_free, plus the classical
    drive energy in the driven families, which a prescribed drive keeps
    constant.  There the detector is the whole quantum state, so the energy
    after readout is the detector's free eigenvalue at level 1 and the
    deficit is that eigenvalue minus the detector's free energy in the
    first state: exactly one detector quantum from the ground state, the
    bookkeeping violation the quantized-field models close.  For quantum
    families the field is projected along with the detector and the
    deficit reduces to the detuning-sized mismatch (zero on resonance).
    A readout population below ``CONDITION_FLOOR`` leaves nothing to
    condition on and raises ToleranceError.
    """
    if model.back_reaction:
        raise ValueError(
            "conditioned deficit is defined for the prescribed-drive and "
            "quantized-field models; mean-field runs are audited by ledger")
    p = model.params
    detector, level = default_target(model)
    final = traj.final_state()
    prob = final.population(detector, level)
    if prob < CONDITION_FLOOR:
        raise ToleranceError(
            f"transition probability {prob:.3e} below {CONDITION_FLOOR:.0e}; "
            "nothing to condition on")

    field_free, detector_free, _ = p.parts()
    free = field_free + detector_free
    levels = p.detector_levels()
    # the detector's free eigenvalue at each of its levels
    spectrum = dict(zip(levels, detector_free))
    e_before = _expect_diag(free, traj.amplitudes[0])
    if p.driven:
        e_cl = 0.5 * p.nu * p.x0 ** 2
        e_after = spectrum[level]
    else:
        e_cl = 0.0
        cond = np.where(levels == level, final.amplitudes, 0.0)
        e_after = _expect_diag(free, cond / np.linalg.norm(cond))
    return DeficitReport(
        deficit=float(e_after - e_before),
        e_before=float(e_cl + e_before),
        e_after=float(e_cl + e_after),
        field_quantum=float(p.nu),
        detector_quantum=float(spectrum[level] - spectrum[0]),
        e_diff=float(p.nu - p.omega),
        probability=float(prob),
    )


# ---------------------------------------------------------------------------
# scans


@dataclass(frozen=True, eq=False)
class ScanResult:
    axis_name: str
    axis: np.ndarray
    probabilities: np.ndarray
    model_tag: str
    fixed: dict
    errors: tuple = ()
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        axis, probs = _readonly(self.axis, float), _readonly(self.probabilities, float)
        if len(axis) != len(probs):
            raise ValueError("axis and probability lengths differ")
        _check_monotone(axis)
        errors = tuple(self.errors) if self.errors else tuple([None] * len(axis))
        if len(errors) != len(axis):
            raise ValueError("error tags must match axis length")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "errors", errors)
        object.__setattr__(self, "aux", {k: _readonly(v, float) for k, v in self.aux.items()})


def _check_monotone(axis: np.ndarray) -> None:
    """ValueError unless the axis strictly rises or strictly falls."""
    steps = np.diff(axis)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValueError("scan axis must be strictly monotone")


def _scan_axis(model: ModelSpec, axis_name: str, values) -> np.ndarray:
    """The values of an ``axis_name`` scan of ``model`` as floats, once
    every whole-scan rule holds (ValueError otherwise): no mean-field
    model, an intensity field for an intensity scan, finite detunings and
    finite, positive intensities and readout times, and a strictly
    monotone axis, as ``ScanResult`` demands.  The scans and
    ``cli.validate_config`` read the rules here alone."""
    if model.back_reaction:
        raise ValueError("scans drive the prescribed or quantized models only")
    values = np.asarray(values, dtype=float)
    if axis_name == "detuning":
        if not np.all(np.isfinite(values)):
            raise ValueError("detuning scan needs finite detunings")
    elif axis_name == "intensity":
        if model.params.intensity_field is None:
            raise ValueError("intensity scans need a coherent-field or driven model")
        if not np.all(np.isfinite(values) & (values > 0)):
            raise ValueError("intensity scan needs finite, positive intensities")
    elif not np.all(np.isfinite(values) & (values > 0)):
        raise ValueError("time scan needs finite, positive readout times")
    _check_monotone(values)
    return values


def run_point(model: ModelSpec, cfg: EvolutionConfig,
              initial: StateVector | None = None) -> tuple[Trajectory, float]:
    """One evolution of a (non-mean-field) model; returns the trajectory
    and the population of ``default_target(model)``, the detector's first
    excited level, at the final time.  A quantized model runs its
    Hamiltonian record through ``evolve_unitary_at``, a batch of one of
    the kernel its scans use."""
    _scan_axis(model, "time", [cfg.t_max])      # a one-point time scan
    if initial is None:
        initial = default_initial_state(model)
    if model.params.driven:
        traj = evolve_driven(model.params, initial, cfg)
    else:
        traj = evolve_unitary_at(model.params.hamiltonian(), initial, cfg.time_grid(), cfg)
    return traj, traj.final_state().population(*default_target(model))


def _failed(exc: Exception) -> tuple:
    return math.nan, None, None, f"{type(exc).__name__}: {exc}"


def _run_points(model, cfg, vary, horizons):
    """Evolve the points of a scan of ``model`` whose rules ``_scan_axis``
    has checked, point i being the model ``vary(i)`` on the grid of
    ``dynamics._steps`` up to ``horizons[i]``, every point guarded by the
    scan's one config ``cfg``.  Returns per point the population of
    ``default_target(model)``, the initial and final amplitudes and the
    error tag (NaN, None, None, tag on a failed point).  A ValueError
    raised while a point is built (a nu <= 0, a coherent tail past the
    cutoff) tags that point, and a guard trip tags it with the error its
    serial run raises.

    The points run as one batch of the kernel that also runs a single
    point, so each gives the bits of its own serial run.  Quantized points
    form one ``dynamics._evolve_blocks`` batch of their own diagonals and
    default states and the first point's hop list, which every point must
    share (ValueError otherwise).  Prescribed-drive points differ only in
    the drive and the horizon, and step together in
    ``dynamics._evolve_driven_batch`` from ``model``'s h0, c and state.
    """
    p, results = model.params, [None] * len(horizons)
    index, points = [], []
    for i in range(len(horizons)):
        try:
            point = vary(i)
            if p.driven:
                points.append((point.params.x0, point.params.nu))
            else:
                field, detector, hops = point.params.parts()
                # built before the batch opens, so that its failure tags the point
                points.append((field + detector, point.default_state, hops))
        except ValueError as exc:
            results[i] = _failed(exc)
            continue
        index.append(i)
    if not index:
        return results

    t_ends = [horizons[i] for i in index]
    if p.driven:
        psi0 = default_initial_state(model)
        x0s, nus = zip(*points)
        finals, errors, _ = _dyn._evolve_driven_batch(
            *p.free_and_coupling(), psi0, x0s, nus, t_ends,
            [_dyn._steps(t, cfg.dt) for t in t_ends], cfg)
        runs = ((psi0.amplitudes, final, exc) for final, exc in zip(finals, errors))
    else:
        diagonals, psi0s, hop_lists = zip(*points)
        if len({tuple(a.tobytes() for a in hops) for hops in hop_lists}) > 1:
            raise ValueError("the points of a quantized scan must share one hop list")
        blocks = _dyn._evolve_blocks(p.space, np.array(diagonals), hop_lists[0], psi0s,
                                     [_dyn._grid(t, cfg.dt) for t in t_ends], cfg)
        # a copy of the two rows, so the point's samples are freed
        runs = ((None, None, exc) if amps is None else (*amps[[0, -1]], exc)
                for amps, _, exc in blocks)
    target = default_target(model)
    for i, (first, final, exc) in zip(index, runs):
        results[i] = _failed(exc) if exc is not None else (
            StateVector(p.space, final).population(*target), first, final, None)
    return results


def _scan_result(axis_name, axis, results, model, fixed, aux=None) -> ScanResult:
    return ScanResult(axis_name, axis, np.array([r[0] for r in results]),
                      model.tag, fixed=fixed,
                      errors=tuple(r[3] for r in results), aux=aux or {})


def detuning_scan(model: ModelSpec, cfg: EvolutionConfig, deltas) -> ScanResult:
    """Final-time population of the detector's first excited level versus
    detuning (field/drive frequency minus detector frequency).  A scan
    that breaks a rule of ``_scan_axis`` raises ValueError before any
    point runs; a point at nu <= 0 or that trips a guard is tagged and
    reported as NaN.  The
    points run as one batch under ``cfg`` (see ``_run_points``) from
    ``model``'s initial state, which ``ModelSpec.with_nu`` hands on.
    """
    deltas = _scan_axis(model, "detuning", deltas)
    omega = model.params.omega
    results = _run_points(model, cfg, lambda i: model.with_nu(omega + deltas[i]),
                          [cfg.t_max] * len(deltas))
    return _scan_result("detuning", deltas, results, model,
                        {"t_max": cfg.t_max, "omega": omega,
                         "coupling": _coupling_of(model)})


def _coupling_of(model: ModelSpec) -> float:
    p = model.params
    return float(getattr(p, "g", getattr(p, "coupling", 0.0)))


def intensity_scan(model: ModelSpec, cfg: EvolutionConfig, intensities) -> ScanResult:
    """Final-time population of the detector's first excited level versus
    field intensity (|alpha|^2 for the two-mode model, x0^2 for the
    driven ones).  The aux column ``transition_gap`` measures the
    detector energy gained per absorbed excitation, the
    intensity-independent transition quantum.  A scan that breaks a rule
    of ``_scan_axis`` raises ValueError before any point runs; a coherent
    tail past the cutoff or a guard trip is tagged per point.  The points
    run as one batch under ``cfg`` (see ``_run_points``), each quantized
    point from its own initial state."""
    intensities = _scan_axis(model, "intensity", intensities)
    _, detector_free, _ = model.params.parts()
    levels = model.params.detector_levels()
    results = _run_points(model, cfg, lambda i: model.with_intensity(intensities[i]),
                          [cfg.t_max] * len(intensities))
    gaps = []
    for _, a0, af, _ in results:
        if a0 is None:
            gaps.append(math.nan)
            continue
        de = _expect_diag(detector_free, af) - _expect_diag(detector_free, a0)
        dn = _expect_diag(levels, af) - _expect_diag(levels, a0)
        gaps.append(de / dn if dn != 0.0 else math.nan)
    return _scan_result("intensity", intensities, results, model,
                        {"t_max": cfg.t_max, "omega": model.params.omega,
                         "coupling": _coupling_of(model)},
                        aux={"transition_gap": np.array(gaps)})


def time_scan(model: ModelSpec, cfg: EvolutionConfig, times) -> ScanResult:
    """Population of the detector's first excited level versus readout
    time: every readout time t is a run of its own, to exactly t on the
    grid of ``dynamics._steps``, so log-spaced grids stay exact and the
    guards check every sample up to t; ``cfg.t_max`` plays no part.  The
    points run as one batch under ``cfg`` (see ``_run_points``) from
    ``model``'s initial state.  A scan that breaks a rule of
    ``_scan_axis`` raises ValueError before any point runs; a point that
    trips a guard is tagged with its run's error.
    """
    times = _scan_axis(model, "time", times)
    results = _run_points(model, cfg, lambda i: model, times.tolist())
    return _scan_result("time", times, results, model,
                        {"omega": model.params.omega, "coupling": _coupling_of(model)})


def rabi_peak_scan(g: float, deltas) -> ScanResult:
    """Peak (over time) two-level transition probability per detuning,
    from the closed form, with the far-detuned limit alongside.  The
    coupling g must be finite and > 0 (ValueError otherwise)."""
    if not (math.isfinite(g) and g > 0):
        raise ValueError(f"coupling g must be finite and > 0, got {g}")
    deltas = np.asarray(deltas, dtype=float)
    peaks = np.array([rabi_probability(g, d, math.pi / math.hypot(g, d))
                      for d in deltas])
    golden = np.array([(g / d) ** 2 if d != 0 else math.nan for d in deltas])
    return ScanResult("detuning", deltas, peaks, "two_level_closed_form",
                      fixed={"coupling": g, "omega": math.nan, "t_max": math.nan},
                      aux={"golden_rule_peak": golden})


# ---------------------------------------------------------------------------
# signature report


@dataclass(frozen=True)
class SignatureCheck:
    status: str                 # "pass" | "fail" | "inconclusive"
    statistic: dict
    tolerance: dict

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SignatureReport:
    """The three photo-electric-style signatures, each with its measured
    statistic: resonance threshold, intensity independence, and nonzero
    short-time transfer."""

    threshold: SignatureCheck
    intensity_independence: SignatureCheck
    short_time: SignatureCheck
    model_tag: str

    @property
    def all_pass(self) -> bool:
        return all(c.status == "pass" for c in
                   (self.threshold, self.intensity_independence, self.short_time))

    def to_dict(self) -> dict:
        return {
            "model": self.model_tag,
            "threshold": self.threshold.to_dict(),
            "intensity_independence": self.intensity_independence.to_dict(),
            "short_time": self.short_time.to_dict(),
            "all_pass": self.all_pass,
        }


def _threshold_check(detuning: ScanResult) -> SignatureCheck:
    """argmax of P(detuning) at zero detuning, on a horizon that resolves the first null."""
    t_obs = float(detuning.fixed.get("t_max", math.nan))
    span = float(np.max(np.abs(detuning.axis)))
    if not math.isfinite(t_obs) or span * t_obs / 2.0 < math.pi:
        return SignatureCheck(
            "inconclusive",
            {"reason": "horizon too short to resolve the first null",
             "span_times_half_horizon": span * t_obs / 2.0 if math.isfinite(t_obs) else None},
            {"required": "span * t / 2 >= pi"})
    imax = int(np.argmax(detuning.probabilities))
    izero = int(np.argmin(np.abs(detuning.axis)))
    off = abs(imax - izero)
    return SignatureCheck(
        "pass" if off <= 1 else "fail",
        {"argmax_detuning": float(detuning.axis[imax]), "grid_steps_from_zero": off},
        {"max_grid_steps": 1})


def _intensity_check(intensity: ScanResult) -> SignatureCheck:
    """Unit log-log slope of P(intensity) and an intensity-independent gap."""
    try:
        fit = loglog_slope(intensity.axis, intensity.probabilities)
    except ValueError as exc:
        return SignatureCheck("inconclusive", {"reason": str(exc)}, {})
    gaps = intensity.aux.get("transition_gap")
    gap_stat: dict = {"slope": fit.slope, "slope_stderr": fit.stderr}
    gap_ok = True
    if gaps is not None and np.all(np.isfinite(gaps)):
        center = float(np.median(gaps))
        spread = float(np.max(np.abs(gaps - center)) / abs(center)) if center else math.inf
        gap_stat.update({"gap_median": center, "gap_relative_spread": spread})
        gap_ok = spread <= SIGNATURE_GAP_RTOL
    slope_ok = abs(fit.slope - 1.0) <= SIGNATURE_SLOPE_TOL
    return SignatureCheck("pass" if slope_ok and gap_ok else "fail", gap_stat, {
        "slope": f"1 +/- {SIGNATURE_SLOPE_TOL}", "gap_relative_spread": SIGNATURE_GAP_RTOL})


def _short_time_check(time: ScanResult) -> SignatureCheck:
    """P(t) > 0 at every sampled readout time."""
    return SignatureCheck(
        "pass" if np.all(time.probabilities > 0.0) else "fail",
        {"min_time": float(np.min(time.axis)),
         "min_probability": float(np.min(time.probabilities))},
        {"required": "P(t) > 0 at every sampled t"})


def signature_report(detuning: ScanResult, intensity: ScanResult,
                     time: ScanResult) -> SignatureReport:
    """Evaluate the three signatures from their scans.

    A check whose scan holds a failed (NaN) point is inconclusive, as the
    missing point could decide it; so are the threshold check when the
    horizon cannot resolve the first null in the scanned range and the
    intensity check with fewer than three positive points to fit.  Only a
    missing scan or one of the wrong axis raises.
    """
    failed = SignatureCheck("inconclusive", {"reason": "scan holds failed points"}, {})
    checks = []
    for scan, name, check in ((detuning, "detuning", _threshold_check),
                              (intensity, "intensity", _intensity_check),
                              (time, "time", _short_time_check)):
        if scan is None:
            raise ValueError(f"missing {name} scan")
        if scan.axis_name != name:
            raise ValueError(f"expected a {name} scan, got {scan.axis_name}")
        checks.append(failed if np.any(np.isnan(scan.probabilities)) else check(scan))
    return SignatureReport(*checks, detuning.model_tag)


# ---------------------------------------------------------------------------
# fits


@dataclass(frozen=True)
class FitResult:
    slope: float
    stderr: float
    intercept: float
    n_points: int

    def to_dict(self) -> dict:
        return asdict(self)


def loglog_slope(x, y) -> FitResult:
    """Least-squares slope of log(y) against log(x) over the finite,
    positive points; ValueError when fewer than three remain or their
    log(x) spread too little for a line: all equal, or within polyfit's
    own rank tolerance (``len(x) * eps`` relative), where it could fit
    only a constant and cannot form the slope's covariance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 0)
    if keep.sum() < 3:
        raise ValueError("need at least three positive points for a log-log fit")
    lx, ly = np.log(x[keep]), np.log(y[keep])
    # equal log(x), whose column polyfit would scale by zero norm when x = 1,
    # or polyfit's own rank test, asked for in full so that it warns of nothing
    if np.ptp(lx) == 0 or np.polyfit(lx, ly, 1, full=True)[2] < 2:
        raise ValueError("need at least two distinct x for a log-log fit")
    coeffs, cov = np.polyfit(lx, ly, 1, cov=True)
    return FitResult(slope=float(coeffs[0]), stderr=float(math.sqrt(cov[0, 0])),
                     intercept=float(coeffs[1]), n_points=int(keep.sum()))


def golden_rule_fit(scan: ScanResult) -> FitResult:
    """Log-log slope of peak probability against detuning (expected -2 in
    the far-detuned regime).  Raises RegimeError when any scanned detuning
    sits below GOLDEN_RULE_MIN_RATIO times the coupling."""
    if scan.axis_name == "detuning":
        g = float(scan.fixed.get("coupling", 0.0))
        if g > 0 and np.min(np.abs(scan.axis)) < GOLDEN_RULE_MIN_RATIO * g:
            raise RegimeError(
                f"detuning scan reaches |delta|/g = "
                f"{np.min(np.abs(scan.axis)) / g:.2f} < {GOLDEN_RULE_MIN_RATIO}")
    return loglog_slope(np.abs(scan.axis), scan.probabilities)


# ---------------------------------------------------------------------------
# serialization


def ledger_to_csv(ledger: EnergyLedger, path) -> None:
    """Write the ledger; columns: time,e_classical,e_quantum_free,
    e_interaction,e_total,energy_std[,backreaction_residual]."""
    cols = ["time", "e_classical", "e_quantum_free", "e_interaction",
            "e_total", "energy_std"]
    arrays = [ledger.times, ledger.e_classical, ledger.e_quantum_free,
              ledger.e_interaction, ledger.e_total, ledger.energy_std]
    if ledger.backreaction_residual is not None:
        cols.append("backreaction_residual")
        arrays.append(ledger.backreaction_residual)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in zip(*(col.tolist() for col in arrays)):
            fh.write(",".join(map(repr, row)) + "\n")


def scan_to_csv(scan: ScanResult, path) -> None:
    """Write a scan; columns: <axis>,probability[,sorted aux...],error.
    An error tag holding a comma or a quote is quoted, as RFC 4180 has it."""
    aux_keys = sorted(scan.aux)
    with open(path, "w", encoding="ascii", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow([scan.axis_name, "probability", *aux_keys, "error"])
        columns = [scan.axis, scan.probabilities, *(scan.aux[k] for k in aux_keys)]
        for *values, error in zip(*(col.tolist() for col in columns), scan.errors):
            out.writerow([*map(repr, values), error or ""])
