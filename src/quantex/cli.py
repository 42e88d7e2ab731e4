"""Config-driven scenario runner.

Scenarios are JSON documents validated against the published schema
(``quantex/schema/scenario.schema.json``; unknown keys are rejected).  A
run writes CSV/JSON artifacts plus ``manifest.json`` (config hash,
constants-table version and hash, tolerances) into the output directory.
Every file of a run is written into a staging directory beside the output
directory and moved in only once all of them are written, so a failed run
leaves no partial artifacts.

Exit codes: 0 success, 2 validation failure, 3 numerical-tolerance abort,
64 unknown subcommand, 73 artifacts could not be written.  A stdout whose
reader has gone (``quantex list-scenarios | head -1``) is not an error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .analysis import (
    _scan_axis,
    conditioned_energy_deficit,
    detuning_scan,
    energy_ledger,
    golden_rule_fit,
    intensity_scan,
    ledger_to_csv,
    rabi_peak_scan,
    run_point,
    scan_to_csv,
    signature_report,
    time_scan,
)
from .constants import DEFAULT_CONSTANTS
from .dynamics import (
    EvolutionConfig,
    HybridState,
    Method,
    allowed_methods,
    evolve_hybrid,
)
from .errors import CoherentTailError, ConfigError, ToleranceError
from .hilbert import StateVector, basis_state, ground_state
from .models import (
    GravitoParams,
    ModelFamily,
    ModelSpec,
    gravito_classical_params,
    gravito_interaction_coefficient,
    gravito_vacuum_coupling,
    gw_energy_density,
)

COMMANDS = ("run", "list-scenarios", "validate", "version")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
EXIT_USAGE = 64
EXIT_CANTCREAT = 73


# ---------------------------------------------------------------------------
# config loading and validation


def _schema() -> dict:
    text = resources.files("quantex").joinpath(
        "schema/scenario.schema.json").read_text(encoding="utf-8")
    return json.loads(text)


@functools.cache
def _validator():
    """The scenario schema's validator; the tests, not each process, check
    the bundled schema against its metaschema."""
    schema = _schema()
    return jsonschema.validators.validator_for(schema)(schema)


def bundled_scenarios() -> dict[str, str]:
    """Name -> JSON text of every scenario shipped with the package."""
    root = resources.files("quantex").joinpath("scenarios")
    out = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = entry.read_text(encoding="utf-8")
    return out


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key that appears twice in it is a ConfigError."""
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise ConfigError(f"key {key!r} appears twice in one object")
    return dict(pairs)


def load_config(source: str) -> dict:
    """Load a scenario from a file (not a directory) or a bundled name."""
    if os.path.isfile(source):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                return json.load(fh, object_pairs_hook=_unique_keys)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{source} is not valid JSON: {exc}") from exc
    bundle = bundled_scenarios()
    if source in bundle:
        return json.loads(bundle[source], object_pairs_hook=_unique_keys)
    raise ConfigError(f"no file or bundled scenario named {source!r}")


def _non_finite(value, path: tuple = ()):
    """Key paths of the infinite and NaN numbers (which json reads) in ``value``."""
    if isinstance(value, float) and not math.isfinite(value):
        yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, (list, tuple)) else ())
    for key, item in items:
        yield from _non_finite(item, path + (key,))


@dataclass
class Scenario:
    name: str
    kind: str
    config: dict
    # output key -> file name of each artifact but the manifest
    outputs: dict[str, str] = field(default_factory=dict)
    model: ModelSpec | None = None
    evolution: EvolutionConfig | None = None
    # an audit's starting state
    initial: StateVector | HybridState | None = None
    # axis name -> values of each scan a scan or signatures run makes
    axes: dict[str, np.ndarray] = field(default_factory=dict)


_SIGNATURE_AXES = ("detuning", "intensity", "time")

# the output keys each kind names its files from
_OUTPUT_KEYS = {"audit": ("csv", "json"), "scan": ("csv",),
                "signatures": ("csv_prefix", "json"),
                "golden_rule": ("csv", "json"), "constants": ("csv", "json")}


def _output_names(kind: str, output: dict) -> dict[str, str]:
    """Output key -> file name of each artifact but the manifest that a
    ``kind`` run writes, and the one place its runner takes names from."""
    unknown = [key for key in output if key not in _OUTPUT_KEYS[kind]]
    if unknown:
        raise ConfigError(f"{kind} scenarios write no output {', '.join(unknown)}; "
                          f"they take {' and '.join(_OUTPUT_KEYS[kind])}")
    names = dict(output)
    if kind == "signatures":
        prefix = names.pop("csv_prefix", "scan")
        names = {axis: f"{prefix}_{axis}.csv" for axis in _SIGNATURE_AXES} | names
    files = list(names.values())
    for name in files:
        if name == "manifest.json":
            raise ConfigError("the output name manifest.json is the run manifest's")
        if files.count(name) > 1:
            raise ConfigError(f"two outputs are named {name}")
    return names


def _build_model(block: dict) -> ModelSpec:
    family = ModelFamily(block["family"])
    params = family.params_type(**block["params"])
    return ModelSpec(family, params, bool(block.get("back_reaction", False)))


def _build_axis(block: dict, name: str) -> np.ndarray:
    start, stop, points = block["start"], block["stop"], block["points"]
    if start == stop:
        raise ConfigError(f"{name} axis must span a nonzero range")
    if block.get("scale", "linear") == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError(f"{name} axis on a log scale needs positive bounds")
        return np.geomspace(start, stop, points)
    return np.linspace(start, stop, points)


def validate_config(cfg: dict) -> Scenario:
    """Schema plus physics-domain validation; runs nothing.  Every number
    must be finite.  The returned scenario holds all that its runner reads
    but a golden-rule or constants block: the model, the evolution config,
    an audit's initial state and a scan's axes."""
    for path in _non_finite(cfg):
        raise ConfigError(f"non-finite number at {list(path)}")
    error = jsonschema.exceptions.best_match(_validator().iter_errors(cfg))
    if error is not None:
        raise ConfigError(f"schema violation at {list(error.absolute_path)}: "
                          f"{error.message}") from error

    scenario = Scenario(name=cfg["scenario"], kind=cfg["kind"], config=cfg,
                        outputs=_output_names(cfg["kind"], cfg["output"]))
    model, kind = None, scenario.kind
    if "initial_state" in cfg and kind != "audit":
        raise ConfigError("initial_state applies to audit scenarios only")
    try:
        if "model" in cfg:
            scenario.model = model = _build_model(cfg["model"])
        if "evolution" in cfg:
            ev = dict(cfg["evolution"])
            ev["method"] = Method(ev["method"])
            scenario.evolution = EvolutionConfig(**ev)
        if kind == "audit":
            scenario.initial = _initial_state(
                cfg.get("initial_state", {"type": "default"}), model)
        elif kind in ("scan", "signatures"):
            blocks = ({cfg["scan"]["axis"]: cfg["scan"]} if kind == "scan"
                      else {axis: cfg["scans"][axis] for axis in _SIGNATURE_AXES})
            for name, block in blocks.items():
                scenario.axes[name] = _scan_axis(model, name, _build_axis(block, name))
            # a scan tags a point at nu <= 0; a config may not plan one
            if np.min(scenario.axes.get("detuning", np.inf)) + model.params.omega <= 0:
                raise ConfigError("detuning scan would push the field frequency "
                                  "to zero or below")
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc

    if model is not None and scenario.evolution is not None:
        (method,) = allowed_methods(model)
        if scenario.evolution.method is not method:
            raise ConfigError(f"{model.tag} models evolve with method {method.value}")

    if kind == "golden_rule":
        block = cfg["golden_rule"]
        if block["ratio_max"] <= block["ratio_min"]:
            raise ConfigError("golden_rule needs ratio_max > ratio_min")
    elif kind == "constants":
        g = cfg["gravito"]
        if g["points"] > 1 and g["nu_stop"] == g["nu_start"]:
            raise ConfigError("constants grid needs distinct nu bounds")
    return scenario


def _initial_state(block: dict, model: ModelSpec) -> StateVector | HybridState:
    """An audit's starting state; a mean-field model's starts with the
    detector in its ground state."""
    kind, space = block["type"], model.params.space
    if model.back_reaction:
        if kind not in ("default", "hybrid"):
            raise ConfigError("mean-field audits start from a hybrid (x, p) point")
        x, p = ((block["x"], block["p"]) if kind == "hybrid"
                else (0.0, model.params.x0))
        return HybridState(float(x), float(p), ground_state(space))
    if kind == "hybrid":
        raise ConfigError("hybrid initial state needs a back_reaction model")
    return (basis_state(space, block["levels"]) if kind == "fock"
            else ground_state(space) if kind == "ground" else model.default_state)


# ---------------------------------------------------------------------------
# execution: each runner returns its artifacts as {file name: writer(path)}


def _write_text(path: Path, text: str):
    path.write_text(text, encoding="ascii", newline="\n")


def _json(payload):
    """Writer of the JSON document ``payload()``, built only when written."""
    return lambda path: _write_text(
        path, json.dumps(payload(), sort_keys=True, indent=2) + "\n")


def _named(scenario: Scenario, **writers) -> dict:
    """{file name: writer} for each of ``writers``, keyed like
    ``scenario.outputs``, that the config names a file for."""
    return {scenario.outputs[key]: write for key, write in writers.items()
            if key in scenario.outputs}


def _run_audit(scenario: Scenario) -> dict:
    model, cfg = scenario.model, scenario.evolution
    if model.back_reaction:
        traj = evolve_hybrid(model, scenario.initial, cfg)
    else:
        traj, _ = run_point(model, cfg, initial=scenario.initial)
    ledger = energy_ledger(traj, model)

    def summary():
        if model.back_reaction:
            residual = ledger.backreaction_residual
            return {
                "model": model.tag,
                "max_total_drift": ledger.total_drift(),
                "max_abs_residual": float(np.nanmax(np.abs(residual)))
                if residual is not None else None,
                "e_classical_delta": float(ledger.e_classical[-1] - ledger.e_classical[0]),
            }
        report = conditioned_energy_deficit(traj, model)
        return {"model": model.tag, **report.to_dict()}

    return _named(scenario, csv=functools.partial(ledger_to_csv, ledger),
                  json=_json(summary))


def _scans(scenario: Scenario) -> dict:
    runs = {"detuning": detuning_scan, "intensity": intensity_scan, "time": time_scan}
    return {axis: runs[axis](scenario.model, scenario.evolution, values)
            for axis, values in scenario.axes.items()}


def _run_scan(scenario: Scenario) -> dict:
    (scan,) = _scans(scenario).values()
    return _named(scenario, csv=functools.partial(scan_to_csv, scan))


def _run_signatures(scenario: Scenario) -> dict:
    scans = _scans(scenario)
    csvs = {axis: functools.partial(scan_to_csv, scan) for axis, scan in scans.items()}
    return _named(scenario, **csvs,
                  json=_json(lambda: signature_report(*scans.values()).to_dict()))


def _run_golden_rule(scenario: Scenario) -> dict:
    block = scenario.config["golden_rule"]
    deltas = block["g"] * np.geomspace(block["ratio_min"], block["ratio_max"],
                                       block["points"])
    scan = rabi_peak_scan(block["g"], deltas)
    return _named(scenario, csv=functools.partial(scan_to_csv, scan),
                  json=_json(lambda: {"fit": golden_rule_fit(scan).to_dict(),
                                      "expected_slope": -2.0}))


def _run_constants(scenario: Scenario) -> dict:
    block = scenario.config["gravito"]
    nus = np.linspace(block["nu_start"], block["nu_stop"], block["points"])
    lines, worst = ["nu,vacuum_coupling,drive_coupling,zero_point_x0,"
                    "interaction_coefficient,wave_energy_density"], 0.0
    for nu in nus:
        p = GravitoParams(mass=block["mass"], length=block["length"], nu=float(nu),
                          omega0=block["omega0"], strain=block["strain"],
                          volume=block["volume"])
        mapped = gravito_classical_params(p)
        coeff = gravito_interaction_coefficient(p)
        row = (nu, gravito_vacuum_coupling(p), mapped.coupling, mapped.x0, coeff,
               gw_energy_density(p))
        lines.append(",".join(repr(float(v)) for v in row))
        worst = max(worst, abs(mapped.coupling * mapped.x0 - coeff) / coeff)
    table = "\n".join(lines) + "\n"
    return _named(scenario, csv=lambda path: _write_text(path, table),
                  json=_json(lambda: {
                      "constants_version": DEFAULT_CONSTANTS.version,
                      "constants_hash": DEFAULT_CONSTANTS.table_hash(),
                      "identity_max_relative_deviation": worst,
                  }))


_RUNNERS = {"audit": _run_audit, "scan": _run_scan, "signatures": _run_signatures,
            "golden_rule": _run_golden_rule, "constants": _run_constants}


# ---------------------------------------------------------------------------
# artifact writing


def write_artifacts(scenario: Scenario, artifacts: dict, out_dir: Path) -> list[str]:
    """Write ``artifacts`` ({file name: writer(path)}) and ``manifest.json``
    into ``out_dir``; returns the written names in write order.

    Every file is written into a staging directory beside ``out_dir`` and
    moved in only once all of them exist, and the staging directory is
    removed either way, so a failed write leaves nothing behind."""
    ev = scenario.evolution
    manifest = {
        "scenario": scenario.name,
        "package_version": __version__,
        "config_sha256": hashlib.sha256(
            json.dumps(scenario.config, sort_keys=True).encode()).hexdigest(),
        "constants": {
            "version": DEFAULT_CONSTANTS.version,
            "hash": DEFAULT_CONSTANTS.table_hash(),
        },
        "tolerances": {
            "norm_drift_tol": ev.norm_drift_tol if ev else None,
            "top_level_tol": ev.top_level_tol if ev else None,
        },
        "artifacts": sorted(artifacts),
    }
    artifacts = {**artifacts, "manifest.json": _json(lambda: manifest)}
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", suffix=".tmp",
                                  dir=out_dir.parent))
    try:
        for name, write in artifacts.items():
            write(stage / name)
        out_dir.mkdir(exist_ok=True)
        for name in artifacts:
            os.replace(stage / name, out_dir / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return list(artifacts)


def run_scenario(scenario: Scenario, out_dir: Path) -> list[str]:
    """Run the scenario, then write its artifacts; returns their names."""
    return write_artifacts(scenario, _RUNNERS[scenario.kind](scenario), out_dir)


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantex",
        description="Run, validate, and list energy-exchange scenarios.")
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="execute a scenario and write artifacts")
    run.add_argument("config", help="bundled scenario name or path to a JSON config")
    run.add_argument("--output-dir", default=None,
                     help="artifact directory (default: ./<scenario name>)")
    run.add_argument("--dt", type=float, default=None,
                     help="override the evolution time step")
    run.add_argument("--t-max", type=float, default=None,
                     help="override the evolution horizon")

    val = sub.add_parser("validate",
                         help="schema + physics checks without running")
    val.add_argument("config")

    sub.add_parser("list-scenarios", help="list bundled scenarios")
    sub.add_parser("version", help="print package and constants-table versions")
    return parser


def _apply_overrides(cfg: dict, dt: float | None, t_max: float | None) -> dict:
    if dt is None and t_max is None:
        return cfg
    if "evolution" not in cfg:
        raise ConfigError("dt/t_max overrides need a scenario with an evolution block")
    cfg = json.loads(json.dumps(cfg))  # deep copy, JSON-safe by construction
    if dt is not None:
        cfg["evolution"]["dt"] = dt
    if t_max is not None:
        cfg["evolution"]["t_max"] = t_max
    return cfg


def main(argv=None) -> int:
    try:
        status = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``quantex list-scenarios | head -1``);
        # stdout is flushed again at exit, so point its descriptor at os.devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        status = EXIT_OK
    return status


def _main(argv) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        print(f"unknown subcommand {argv[0]!r}; expected one of: "
              + ", ".join(COMMANDS), file=sys.stderr)
        return EXIT_USAGE
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    if args.command == "version":
        print(f"quantex {__version__}")
        print(f"constants {DEFAULT_CONSTANTS.version} {DEFAULT_CONSTANTS.table_hash()}")
        return EXIT_OK

    if args.command == "list-scenarios":
        for name, text in bundled_scenarios().items():
            desc = json.loads(text).get("description", "")
            print(f"{name}: {desc}")
        return EXIT_OK

    try:
        cfg = load_config(args.config)
        if args.command == "run":
            cfg = _apply_overrides(cfg, args.dt, args.t_max)
        scenario = validate_config(cfg)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        print(f"{scenario.name}: configuration valid")
        return EXIT_OK

    out_dir = Path(args.output_dir) if args.output_dir else Path(scenario.name)
    try:
        written = run_scenario(scenario, out_dir)
    except (ToleranceError, CoherentTailError) as exc:
        print(f"numerical-tolerance abort: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except OSError as exc:
        print(f"cannot write artifacts: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT
    for name in written:
        print(out_dir / name)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
