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
from dataclasses import asdict, dataclass

import numpy as np

from .errors import RegimeError, ToleranceError
from .hilbert import StateVector, _readonly
from .models import ModelSpec
from .dynamics import GOLDEN_RULE_MIN_RATIO, EvolutionConfig, Trajectory, rabi_probability
from . import dynamics as _dyn

__all__ = [
    "EnergyLedger", "energy_ledger", "DeficitReport",
    "conditioned_energy_deficit", "ScanResult", "scans", "rabi_peak_scan",
    "SignatureCheck", "SignatureReport", "signature_report", "FitResult",
    "loglog_slope", "golden_rule_fit", "ledger_to_csv", "scan_to_csv",
    "default_initial_state", "default_target",
]

LEDGER_DRIFT_RTOL = 1e-8
SIGNATURE_SLOPE_TOL = 0.01      # intensity check: |log-log slope - 1| at most this
SIGNATURE_GAP_RTOL = 1e-6       # intensity check: relative spread of the transition gap
CONDITION_FLOOR = 1e-12
# the rows per block of the ledger's C psi and H psi products and of its CSV
_LEDGER_BLOCK = 1024


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
    instantaneous Hamiltonian operator.  ``backreaction_residual`` is the
    mean-field power residual: None without back-reaction or with fewer
    than three samples."""

    times: np.ndarray
    e_classical: np.ndarray
    e_quantum_free: np.ndarray
    e_interaction: np.ndarray
    e_total: np.ndarray
    energy_std: np.ndarray
    backreaction_residual: np.ndarray | None

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
    Every column is an array expression over the trajectory's ``(n_t, d)``
    amplitudes; the ``C psi`` and ``H psi`` products behind <C>, <H> and
    <H^2> are formed ``_LEDGER_BLOCK`` rows at a time, scaled by a power
    of two near 1 / |H|, so that ``energy_std`` stays finite at any finite
    frequency and every column keeps the bits of the unscaled form.
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
    # <C>, <H> and <H^2> from C psi and H(x) psi, formed in fixed row blocks,
    # so that no temporary grows with the trajectory
    coupling = p.free_and_coupling()[1].T if p.driven else None
    free = field_free + detector_free
    # C psi and H(x) psi are formed times 2^-k, 2^k about the largest |H|
    # entry of the run, so that neither <H>^2 nor <H^2> overflows at large
    # frequencies; a power of two scales exactly, so every column keeps its bits
    c_norm = (np.abs(coupling).sum(axis=1).max(initial=0.0) if p.driven
              else np.abs(amp).sum())
    h_scale = math.ldexp(1.0, -math.frexp(np.abs(free).max(initial=0.0)
                                          + max(xs.max(), -xs.min()) * c_norm)[1])
    free = free * h_scale
    if p.driven:
        coupling = coupling * h_scale
    else:
        amp = amp * h_scale
    cexp, mean, second = (np.empty(len(amps)) for _ in range(3))
    for a in range(0, len(amps), _LEDGER_BLOCK):
        b = a + _LEDGER_BLOCK
        rows = amps[a:b]
        # C psi: the driven families multiply by the dense coupling they
        # step with (hop sums would round differently); the quantized
        # families apply their hops amp |dst><src| + h.c. and build no d x d array
        if p.driven:
            c_rows = rows @ coupling
        else:
            c_rows = np.zeros_like(rows)
            np.add.at(c_rows, (slice(None), dst), amp * rows[:, src])
            np.add.at(c_rows, (slice(None), src), np.conj(amp) * rows[:, dst])
        cexp[a:b] = _expect_rows(rows, c_rows)      # <C> carries the coupling
        # H(x) psi, built in place; the free part is diagonal
        h_rows = rows * free
        c_rows *= xs[a:b, None]
        h_rows += c_rows
        mean[a:b] = _expect_rows(rows, h_rows)
        second[a:b] = _expect_rows(h_rows, h_rows)
    cexp /= h_scale
    e_int = xs * cexp
    e_tot = e_cl + e_qf + e_int
    std = np.sqrt(np.maximum(second - mean * mean, 0.0)) / h_scale

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
    errors: tuple
    aux: dict

    def __post_init__(self):
        axis, probs = _readonly(self.axis, float), _readonly(self.probabilities, float)
        if len(axis) != len(probs):
            raise ValueError("axis and probability lengths differ")
        _check_monotone(axis)
        errors = tuple(self.errors)
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
    monotone axis, as ``ScanResult`` demands.  ``scans`` checks each axis
    it is given here, and ``cli.validate_config`` each axis of a config,
    so both give one message; ``validate_config`` also refuses a detuning
    axis that reaches nu <= 0, whose points a scan would tag one by one."""
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


def _point(model: ModelSpec, axis_name: str, value: float, cfg: EvolutionConfig):
    """The model and the horizon of the point ``value`` of an ``axis_name``
    scan of ``model``: a detuning moves nu to omega + value and an
    intensity sets the field (``ModelSpec.with_intensity``), both read out
    at ``cfg.t_max``; a readout time runs ``model`` itself up to it."""
    if axis_name == "detuning":
        return model.with_nu(model.params.omega + value), cfg.t_max
    if axis_name == "intensity":
        return model.with_intensity(value), cfg.t_max
    return model, float(value)


def _run_points(model: ModelSpec, cfg: EvolutionConfig, axes: dict) -> dict:
    """Evolve every point of the scans ``axes`` ({axis name: values}) of
    ``model``, whose rules ``_scan_axis`` has checked, as one batch:
    point ``value`` of an axis is the model and horizon of ``_point``, on
    the grid of ``dynamics._steps`` at ``cfg.dt``, every point held to
    ``EvolutionConfig``'s guard bounds.  Returns per axis, point by point,
    the population of ``default_target(model)``, on the intensity axis the
    transition gap (else NaN), and the error tag (NaN, NaN, tag on a
    failed point).  A ValueError raised while a point is built (a nu <= 0,
    a coherent tail past the cutoff) tags that point, and a guard trip
    tags it with the error its serial run raises.

    The points run as one batch of the kernel that also runs a single
    point, so each gives the bits of its own serial run, ``evolve_unitary``
    or ``evolve_driven`` of the point's model to its horizon.  Quantized
    points form one ``dynamics._evolve_blocks`` batch of their own diagonals and
    default states and the first point's hop list, which every point must
    share (ValueError otherwise); a point's samples are freed once its
    population and gap are read.  Prescribed-drive points differ only in
    the drive and the horizon, and step together in
    ``dynamics._evolve_driven_batch`` from ``model``'s h0, c and state.
    The transition gap is the detector energy gained per absorbed
    excitation between the first and the final state.
    """
    p, target = model.params, default_target(model)
    if "intensity" in axes:
        detector_free, levels = p.parts()[1], p.detector_levels()

    def read(name, exc, first=None, final=None) -> tuple:
        """The row of a point of axis ``name`` from its error or its first
        and final amplitudes."""
        if exc is not None:
            return math.nan, math.nan, f"{type(exc).__name__}: {exc}"
        prob = StateVector(p.space, final).population(*target)
        if name != "intensity":
            return prob, math.nan, None
        de = _expect_diag(detector_free, final) - _expect_diag(detector_free, first)
        dn = _expect_diag(levels, final) - _expect_diag(levels, first)
        return prob, de / dn if dn != 0.0 else math.nan, None

    results = {name: [None] * len(values) for name, values in axes.items()}
    # the (axis, place) of each point that builds, and its model data and horizon
    index, points, built = [], [], None
    for name, values in axes.items():
        for i, value in enumerate(values):
            try:
                point, horizon = _point(model, name, value, cfg)
                if p.driven:
                    data = (point.params.x0, point.params.nu)
                elif point is built:
                    # a time scan's points are all the model itself: built once
                    data = points[-1][0]
                else:
                    field, detector, hops = point.params.parts()
                    # built before the batch opens, so that its failure tags the point
                    data = (field + detector, point.default_state, hops)
                    built = point
            except ValueError as exc:
                results[name][i] = read(name, exc)
                continue
            index.append((name, i))
            points.append((data, horizon))
    if not index:
        return results

    data, t_ends = zip(*points)
    if p.driven:
        psi0 = default_initial_state(model)
        x0s, nus = zip(*data)
        finals, errors, _ = _dyn._evolve_driven_batch(
            *p.free_and_coupling(), psi0, x0s, nus, t_ends,
            [_dyn._steps(t, cfg.dt) for t in t_ends])
        rows = (read(name, exc, psi0.amplitudes, final)
                for (name, _), final, exc in zip(index, finals, errors))
    else:
        diagonals, psi0s, hop_lists = zip(*data)
        distinct = {id(hops): hops for hops in hop_lists}.values()
        if len({tuple(a.tobytes() for a in hops) for hops in distinct}) > 1:
            raise ValueError("the points of a quantized scan must share one hop list")
        blocks = _dyn._evolve_blocks(p.space, np.array(diagonals), hop_lists[0], psi0s,
                                     [_dyn._grid(t, cfg.dt) for t in t_ends])
        rows = (read(name, exc, *([] if amps is None else amps[[0, -1]]))
                for (name, _), (amps, _, exc) in zip(index, blocks))
    for (name, i), row in zip(index, rows):
        results[name][i] = row
    return results


def _coupling_of(model: ModelSpec) -> float:
    p = model.params
    return float(getattr(p, "g", getattr(p, "coupling", 0.0)))


def scans(model: ModelSpec, cfg: EvolutionConfig, axes: dict) -> dict:
    """The ``ScanResult`` of each scan of ``axes`` ({axis name: values}) of
    ``model``, in the order of ``axes``: per point, the population of the
    detector's first excited level (``default_target``) against

    * ``detuning``, the field or drive frequency minus the detector
      frequency, read out at ``cfg.t_max``; ``ModelSpec.with_nu`` hands
      ``model``'s initial state on;
    * ``intensity``, the field intensity (|alpha|^2 for the two-mode
      model, x0^2 for the driven ones), read out at ``cfg.t_max``, each
      quantized point from its own initial state.  The aux column
      ``transition_gap`` holds the detector energy gained per absorbed
      excitation, the intensity-independent transition quantum;
    * ``time``, the readout time: each t is a run of its own from
      ``model``'s initial state to exactly t on the grid of
      ``dynamics._steps``, so log-spaced grids stay exact and the guards
      check every sample up to t; ``cfg.t_max`` plays no part.

    An axis that breaks a rule of ``_scan_axis`` raises ValueError before
    any point runs.  Then the points of all the axes run as one batch
    under ``cfg`` (``_run_points``) and are split into their axes; a point
    that cannot be built (nu <= 0, a coherent tail past the cutoff) or
    that trips a guard is tagged with its error and reported as NaN.
    ``cli`` runs a scenario's scans here."""
    axes = {name: _scan_axis(model, name, values) for name, values in axes.items()}
    results = _run_points(model, cfg, axes)
    fixed = {"omega": model.params.omega, "coupling": _coupling_of(model)}
    out = {}
    for name, values in axes.items():
        probs, gaps, errors = zip(*results[name])
        out[name] = ScanResult(
            name, values, np.array(probs), model.tag,
            fixed=fixed if name == "time" else {"t_max": cfg.t_max, **fixed},
            errors=errors,
            aux={"transition_gap": np.array(gaps)} if name == "intensity" else {})
    return out


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
                      errors=(None,) * len(deltas), aux={"golden_rule_peak": golden})


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
    positive points, in closed form from centred sums: the slope
    Sxy / Sxx and its standard error sqrt(RSS / (n - 2) / Sxx).
    ValueError when fewer than three points remain or their log(x)
    spread too little for a line: sqrt(Sxx) within ``n * eps`` of the
    largest |log(x)|, where the spread is rounding."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 0)
    n = int(keep.sum())
    if n < 3:
        raise ValueError("need at least three positive points for a log-log fit")
    lx, ly = np.log(x[keep]), np.log(y[keep])
    dx, dy = lx - lx.mean(), ly - ly.mean()
    sxx = float(dx @ dx)
    if not math.sqrt(sxx) > n * np.finfo(float).eps * np.abs(lx).max():
        raise ValueError("need at least two distinct x for a log-log fit")
    slope = float(dx @ dy) / sxx
    resid = dy - slope * dx
    return FitResult(slope=slope, stderr=math.sqrt(float(resid @ resid) / (n - 2) / sxx),
                     intercept=float(ly.mean() - slope * lx.mean()), n_points=n)


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
    e_interaction,e_total,energy_std[,backreaction_residual].  The columns
    become Python floats ``_LEDGER_BLOCK`` rows at a time, not all at once."""
    cols = ["time", "e_classical", "e_quantum_free", "e_interaction",
            "e_total", "energy_std"]
    arrays = [ledger.times, ledger.e_classical, ledger.e_quantum_free,
              ledger.e_interaction, ledger.e_total, ledger.energy_std]
    if ledger.backreaction_residual is not None:
        cols.append("backreaction_residual")
        arrays.append(ledger.backreaction_residual)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for a in range(0, len(ledger.times), _LEDGER_BLOCK):
            block = (col[a:a + _LEDGER_BLOCK].tolist() for col in arrays)
            for row in zip(*block):
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
