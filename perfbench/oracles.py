"""Exact oracles for the benchmark outputs, and the checks that hold the
artifacts a pass writes against them.

Every oracle here is a closed form written independently of quantex:

* driven oscillator, ``omega b+b + coupling x(t) (b + b+)`` with
  ``x = x0 sin(nu t)``, from the ground state: the state stays coherent
  with ``beta = -i coupling x0 int_0^t sin(nu s) e^{i omega s} ds``, so
  ``P(n=1) = |beta|^2 exp(-|beta|^2)``.  Held to ``DRIVEN_RTOL`` relative;
  the midpoint propagator is second order in dt.
* beam splitter, ``nu a+a + omega b+b + g (a b+ + b a+)``, from a coherent
  field and the detector vacuum: linear optics keeps a product of coherent
  states with ``beta_b = [exp(-i [[nu, g], [g, omega]] t)]_10 alpha``
  (Kim, Son, Buzek & Knight, PRA 65, 032323 (2002)).  Held to
  ``BEAM_SPLITTER_RTOL`` relative.
* prescribed-drive audit: the conditioned deficit is one detector quantum,
  ``omega``, to ``DEFICIT_ATOL``, and the classical energy column is the
  constant ``nu x0^2 / 2``.
* resonant Jaynes-Cummings from ``|1, g>``: ``P_e(t) = sin^2(g t)`` to
  ``JC_ATOL``.
* mean-field audits: the total energy drifts by at most
  ``HYBRID_DRIFT_QUANTA`` of a detector quantum ``omega``.
* both signature reports: ``all_pass``.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

DRIVEN_RTOL = 1e-4
BEAM_SPLITTER_RTOL = 1e-9
DEFICIT_ATOL = 1e-9
JC_ATOL = 1e-9
HYBRID_DRIFT_QUANTA = 0.01


# ---------------------------------------------------------------------------
# closed forms


def _window(k: float, t: float) -> complex:
    """int_0^t e^{i k s} ds, exact at k = 0."""
    x = 0.5 * k * t
    sinc = 1.0 if x == 0.0 else math.sin(x) / x
    return t * cmath.exp(1j * x) * sinc


def driven_beta(omega: float, nu: float, coupling: float, x0: float,
                t: float) -> complex:
    """Coherent amplitude of the driven oscillator at time t."""
    # sin(nu s) = (e^{i nu s} - e^{-i nu s}) / 2i
    integral = (_window(omega + nu, t) - _window(omega - nu, t)) / 2j
    return -1j * coupling * x0 * integral


def beam_splitter_beta(nu: float, omega: float, g: float, alpha: float,
                       t: float) -> complex:
    """Detector amplitude [exp(-i M t)]_10 alpha, M = [[nu, g], [g, omega]].

    With M = s I + K, s = (nu + omega)/2 and K^2 = r^2 I, the exponential is
    e^{-i s t} (cos(r t) I - i sin(r t)/r K), and K_10 = g.
    """
    s = 0.5 * (nu + omega)
    r = math.hypot(0.5 * (nu - omega), g)
    return -1j * g * alpha * cmath.exp(-1j * s * t) * math.sin(r * t) / r


def p_one(beta: complex) -> float:
    """P(n = 1) of a coherent state with amplitude beta."""
    b2 = abs(beta) ** 2
    return b2 * math.exp(-b2)


def jc_excited(g: float, t: float) -> float:
    return math.sin(g * t) ** 2


# ---------------------------------------------------------------------------
# artifact checks


@dataclass
class CheckResult:
    """Operations checked, operations failed, and why."""

    attempted: int = 0
    failed: int = 0
    max_rel_err: float = 0.0
    reasons: list = field(default_factory=list)

    def record(self, ok: bool, what: str, rel_err: float | None = None):
        self.attempted += 1
        if rel_err is not None and math.isfinite(rel_err):
            self.max_rel_err = max(self.max_rel_err, rel_err)
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)

    def fail(self, operations: int, what: str):
        """Count operations that produced nothing to check as failed."""
        self.attempted += operations
        self.failed += operations
        if len(self.reasons) < 20:
            self.reasons.append(what)

    def merge(self, other: "CheckResult"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.max_rel_err = max(self.max_rel_err, other.max_rel_err)
        self.reasons.extend(other.reasons[:max(0, 20 - len(self.reasons))])


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="ascii").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _columns(path: Path) -> dict[str, list[float]]:
    header, rows = _read_csv(path)
    return {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}


def _grid_end(t_max: float, dt: float) -> float:
    """Last time of the propagators' dt grid, round(t_max/dt) * dt."""
    return max(1, int(round(t_max / dt))) * dt


def scan_oracle(cfg: dict, axis: str, value: float):
    """Exact target probability of one scan point of a signature config."""
    params = cfg["model"]["params"]
    ev = cfg["evolution"]
    nu, t = params["nu"], _grid_end(ev["t_max"], ev["dt"])
    if axis == "detuning":
        nu = params["omega"] + value
    elif axis == "time":
        t = value
    if cfg["model"]["family"] == "beam_splitter":
        alpha = math.sqrt(value) if axis == "intensity" else params["alpha"]
        return p_one(beam_splitter_beta(nu, params["omega"], params["g"], alpha, t))
    x0 = math.sqrt(value) if axis == "intensity" else params["x0"]
    return p_one(driven_beta(params["omega"], nu, params["coupling"], x0, t))


def check_signatures(cfg: dict, out_dir: Path) -> CheckResult:
    """One operation per scan point; a failed report fails every point."""
    result = CheckResult()
    rtol = BEAM_SPLITTER_RTOL if cfg["model"]["family"] == "beam_splitter" \
        else DRIVEN_RTOL
    prefix = cfg["output"]["csv_prefix"]
    for axis in ("detuning", "intensity", "time"):
        header, rows = _read_csv(out_dir / f"{prefix}_{axis}.csv")
        for row in rows:
            # an error message holding a comma would widen the row
            error = ",".join(row[len(header) - 1:])
            value, prob = float(row[0]), float(row[1])
            exact = scan_oracle(cfg, axis, value)
            rel = abs(prob - exact) / exact
            result.record(not error and rel <= rtol,
                          f"{axis}={value!r}: P={prob!r} exact={exact!r} {error}", rel)
    report = json.loads((out_dir / cfg["output"]["json"]).read_text())
    if not report["all_pass"]:
        result.failed = result.attempted
        result.reasons.append(f"signature report fails: {report}")
    return result


def _check_prescribed_audit(cfg: dict, out_dir: Path, result: CheckResult):
    params = cfg["model"]["params"]
    cols = _columns(out_dir / cfg["output"]["csv"])
    report = json.loads((out_dir / cfg["output"]["json"]).read_text())
    e_cl = 0.5 * params["nu"] * params["x0"] ** 2
    ev = cfg["evolution"]
    exact = p_one(driven_beta(params["omega"], params["nu"], params["coupling"],
                              params["x0"], _grid_end(ev["t_max"], ev["dt"])))
    rel = abs(report["probability"] - exact) / exact
    ok = (abs(report["deficit"] - params["omega"]) <= DEFICIT_ATOL
          and all(v == e_cl for v in cols["e_classical"])
          and rel <= DRIVEN_RTOL)
    result.record(ok, f"{cfg['scenario']}: deficit={report['deficit']!r} "
                      f"omega={params['omega']!r} P rel err={rel:.3e}", rel)


def _check_hybrid_audit(cfg: dict, out_dir: Path, result: CheckResult):
    totals = _columns(out_dir / cfg["output"]["csv"])["e_total"]
    drift = max(abs(v - totals[0]) for v in totals)
    bound = HYBRID_DRIFT_QUANTA * cfg["model"]["params"]["omega"]
    result.record(drift <= bound, f"{cfg['scenario']}: drift {drift:.3e} > {bound:.3e}")


def _check_jc_audit(cfg: dict, out_dir: Path, result: CheckResult):
    params = cfg["model"]["params"]
    cols = _columns(out_dir / cfg["output"]["csv"])
    # e_quantum_free = (omega/2) <sigma_z> = omega (P_e - 1/2)
    worst = max(abs(e / params["omega"] + 0.5 - jc_excited(params["g"], t))
                for t, e in zip(cols["time"], cols["e_quantum_free"]))
    result.record(worst <= JC_ATOL, f"{cfg['scenario']}: |P_e - sin^2(gt)| = {worst:.3e}")


def check_outputs(cfg: dict, out_dir: Path) -> CheckResult:
    """Hold one scenario's artifacts against its exact oracle: one
    operation per scan point, or one per audit run."""
    if cfg["kind"] == "signatures":
        return check_signatures(cfg, out_dir)
    result = CheckResult()
    model = cfg["model"]
    if model.get("back_reaction"):
        _check_hybrid_audit(cfg, out_dir, result)
    elif model["family"] == "jaynes_cummings":
        _check_jc_audit(cfg, out_dir, result)
    elif model["family"] == "oscillator_drive":
        _check_prescribed_audit(cfg, out_dir, result)
    else:
        raise ValueError(f"no audit oracle for {model['family']}")
    return result
