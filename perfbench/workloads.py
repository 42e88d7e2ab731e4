"""Seeded scenario generator for the benchmark workloads.

Each workload is a list of scenario configs in the shape of bundled
quantex scenarios.  A seed moves the continuous physics parameters by up
to ``SPREAD`` (relative) -- the detector frequency ``omega`` (the drive or
field frequency ``nu`` follows it, so templates stay resonant), the
coupling ``coupling``/``g``, the detuning and intensity scan endpoints and
the hybrid start point ``(x, p)`` -- and never touches a size: scan point
counts, ``dt``, ``t_max``, cutoffs and time-scan endpoints are fixed, so
every seed does the same number of steps and scan points.

Pure standard library: the benchmark generates inputs without importing
the program under test.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

SPREAD = 0.03

_DRIVEN_SIGNATURES = {
    "scenario": "signatures_driven_oscillator",
    "kind": "signatures",
    "model": {"family": "oscillator_drive",
              "params": {"omega": 1.0, "nu": 1.0, "coupling": 0.001, "x0": 1.0,
                         "detector_cutoff": 8}},
    "evolution": {"dt": 0.005, "t_max": 20.0, "method": "midpoint_piecewise"},
    "scans": {
        "detuning": {"start": -0.9, "stop": 0.9, "points": 41},
        "intensity": {"start": 1.0, "stop": 16.0, "points": 9, "scale": "log"},
        "time": {"start": 0.001, "stop": 20.0, "points": 25, "scale": "log"},
    },
    "output": {"csv_prefix": "signatures", "json": "signature_report.json"},
}

_QUANTIZED_SIGNATURES = {
    "scenario": "signatures_beam_splitter",
    "kind": "signatures",
    "model": {"family": "beam_splitter",
              "params": {"nu": 1.0, "omega": 1.0, "g": 0.001, "field_cutoff": 60,
                         "detector_cutoff": 6, "alpha": 2.0}},
    "evolution": {"dt": 0.5, "t_max": 10.0, "method": "matrix_exponential"},
    "scans": {
        "detuning": {"start": -0.9, "stop": 0.9, "points": 41},
        "intensity": {"start": 1.0, "stop": 16.0, "points": 9, "scale": "log"},
        "time": {"start": 0.001, "stop": 10.0, "points": 25, "scale": "log"},
    },
    "output": {"csv_prefix": "signatures", "json": "signature_report.json"},
}

_AUDITS = [
    {
        "scenario": "energy_audit_semiclassical",
        "kind": "audit",
        "model": {"family": "oscillator_drive",
                  "params": {"omega": 1.0, "nu": 1.0, "coupling": 0.001, "x0": 1.0,
                             "detector_cutoff": 10}},
        "evolution": {"dt": 0.001, "t_max": 20.0, "method": "midpoint_piecewise"},
        "output": {"csv": "energy_ledger.csv", "json": "deficit_report.json"},
    },
    {
        "scenario": "oscillator_backreaction_audit",
        "kind": "audit",
        "model": {"family": "oscillator_drive", "back_reaction": True,
                  "params": {"omega": 1.0, "nu": 1.0, "coupling": 0.1, "x0": 1.0,
                             "detector_cutoff": 16}},
        "evolution": {"dt": 0.001, "t_max": 10.0, "method": "midpoint_piecewise"},
        "initial_state": {"type": "hybrid", "x": 0.0, "p": 1.0},
        "output": {"csv": "energy_ledger.csv", "json": "audit_summary.json"},
    },
    {
        "scenario": "qubit_backreaction_audit",
        "kind": "audit",
        "model": {"family": "qubit_drive", "back_reaction": True,
                  "params": {"omega": 1.0, "nu": 1.0, "coupling": 0.1, "x0": 1.0}},
        "evolution": {"dt": 0.001, "t_max": 10.0, "method": "midpoint_piecewise"},
        "initial_state": {"type": "hybrid", "x": 0.0, "p": 1.0},
        "output": {"csv": "energy_ledger.csv", "json": "audit_summary.json"},
    },
    {
        "scenario": "jc_vacuum_exchange",
        "kind": "audit",
        "model": {"family": "jaynes_cummings",
                  "params": {"nu": 1.0, "omega": 1.0, "g": 0.05, "field_cutoff": 4}},
        "evolution": {"dt": 0.1, "t_max": 31.41592653589793,
                      "method": "matrix_exponential"},
        "initial_state": {"type": "fock", "levels": [1, 0]},
        "output": {"csv": "energy_ledger.csv", "json": "deficit_report.json"},
    },
]

TEMPLATES = {
    "driven_signatures": [_DRIVEN_SIGNATURES],
    "quantized_signatures": [_QUANTIZED_SIGNATURES],
    "ledger_audits": _AUDITS,
}


def _perturb(cfg: dict, rng: random.Random) -> dict:
    cfg = copy.deepcopy(cfg)
    jitter = lambda v: v * (1.0 + rng.uniform(-SPREAD, SPREAD))
    params = cfg["model"]["params"]
    params["omega"] = jitter(params["omega"])
    params["nu"] = params["omega"]
    key = "g" if "g" in params else "coupling"
    params[key] = jitter(params[key])
    for axis in ("detuning", "intensity"):
        if axis in cfg.get("scans", {}):
            block = cfg["scans"][axis]
            block["start"], block["stop"] = jitter(block["start"]), jitter(block["stop"])
    start = cfg.get("initial_state", {})
    if start.get("type") == "hybrid":
        start["x"] = start["x"] + rng.uniform(-SPREAD, SPREAD)
        start["p"] = jitter(start["p"])
    return cfg


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's scenario configs for one seed."""
    if workload not in TEMPLATES:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"expected one of {sorted(TEMPLATES)}")
    rng = random.Random(f"{workload}:{seed}")
    return [_perturb(cfg, rng) for cfg in TEMPLATES[workload]]


def write_configs(configs: list[dict], directory: Path) -> list[Path]:
    """Write each config as ``<scenario>.json``; returns the paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for cfg in configs:
        path = directory / f"{cfg['scenario']}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n",
                        encoding="ascii")
        paths.append(path)
    return paths


def axis_values(block: dict) -> list[float]:
    start, stop, n = block["start"], block["stop"], block["points"]
    if block.get("scale", "linear") == "log":
        return [start * (stop / start) ** (i / (n - 1)) for i in range(n)]
    return [start + (stop - start) * i / (n - 1) for i in range(n)]


def _steps(t_max: float, dt: float) -> int:
    # the propagators' grid rule: round(t_max / dt) steps, at least one
    return max(1, int(round(t_max / dt)))


def work_counts(cfg: dict) -> dict:
    """Operations (scan points or one audit run) and propagation steps of
    one config, computed from its sizes alone.

    A driven time-scan point runs to exactly its readout time; a quantized
    time scan samples one eigendecomposition, so each point is one sample.
    """
    ev = cfg["evolution"]
    n = _steps(ev["t_max"], ev["dt"])
    if cfg["kind"] == "audit":
        return {"operations": 1, "steps": n}
    scans = cfg["scans"]
    fixed_points = scans["detuning"]["points"] + scans["intensity"]["points"]
    times = axis_values(scans["time"])
    if cfg["model"]["family"] in ("beam_splitter", "jaynes_cummings"):
        time_steps = len(times)
    else:
        time_steps = sum(_steps(t, ev["dt"]) for t in times)
    return {"operations": fixed_points + len(times),
            "steps": fixed_points * n + time_steps}


def total_counts(configs: list[dict]) -> dict:
    counts = [work_counts(cfg) for cfg in configs]
    return {key: sum(c[key] for c in counts) for key in ("operations", "steps")}