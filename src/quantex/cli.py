"""Config-driven scenario runner.

Scenarios are JSON documents validated against the published schema
(``quantex/schema/scenario.schema.json``; unknown keys are rejected).  The
schema is the single source of the rules on a config's shape: the keys,
types and bounds of every block, the blocks and the output keys of each
kind and the one evolution method of each model family, so a config
holding a block its kind does not read exits 2.  ``_violations`` checks a
config against it without jsonschema: it implements the draft 2020-12
keywords the schema uses (``type``, ``properties``, ``required``,
``additionalProperties: false``, ``enum``, ``const``, ``minimum``,
``exclusiveMinimum``, ``maximum``, ``pattern``, ``minProperties``,
``minItems``, ``items``, local ``$ref``, ``allOf``, ``if``/``then``),
raises NotImplementedError on any other, and words each violation as
jsonschema does; a config that breaks several rules is reported at the
first violation in schema order.

An audit starts from its ``fock`` or ``hybrid`` ``initial_state``, else
from its model's default state.  A run holds ``EvolutionConfig``'s fixed
guard bounds, which no config sets, and writes CSV/JSON artifacts plus
``manifest.json`` (config hash, constants-table version and hash, guard
bounds) into the output directory.
Every file of a run is written into a staging directory beside the output
directory and moved in only once all of them are written, so a failed run
leaves no partial artifacts.

``validate_config`` builds one frozen ``Scenario``; each kind's runner
(``scan`` and ``signatures`` share one) returns ``{output key: writer}``,
and ``run_scenario`` names the writers from ``Scenario.outputs``.
Before it builds any array whose size a config sets, ``validate_config``
counts the config's amplitude-steps (a run of n steps of a d-amplitude
state counts n d) and rejects a config over ``_WORK_BUDGET`` (2**28),
naming the block that crossed it, so a config that validates runs to an
end in bounded memory and time.

Exit codes: 0 success, 2 validation failure, 3 numerical-tolerance abort,
64 unknown subcommand, 73 artifacts could not be written.  A stdout whose
reader has gone (``quantex list-scenarios | head -1``) is not an error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import numbers
import operator
import os
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    _scan_axis,
    conditioned_energy_deficit,
    energy_ledger,
    golden_rule_fit,
    ledger_to_csv,
    rabi_peak_scan,
    scan_to_csv,
    scans,
    signature_report,
)
from .constants import DEFAULT_CONSTANTS
from .dynamics import (
    EvolutionConfig,
    HybridState,
    Method,
    evolve_driven,
    evolve_hybrid,
    evolve_unitary,
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


@functools.cache
def _schema() -> dict:
    """The scenario schema; the tests, not each process, check it against
    its metaschema."""
    text = resources.files("quantex").joinpath(
        "schema/scenario.schema.json").read_text(encoding="utf-8")
    return json.loads(text)


# the keywords ``_violations`` implements, and (first line) those that only
# annotate or that ``if`` reads
_KEYWORDS = {
    "$schema", "$id", "title", "$defs", "then",
    "type", "properties", "required", "additionalProperties", "enum", "const",
    "minimum", "exclusiveMinimum", "maximum", "pattern", "minProperties",
    "minItems", "items", "$ref", "allOf", "if"}
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}
_BOUNDS = {"minimum": (operator.lt, "less than the minimum of"),
           "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
           "maximum": (operator.gt, "greater than the maximum of")}


def _is_type(instance, name: str) -> bool:
    """Draft 2020-12 types: a bool is no number, and 8.0 is an integer."""
    if name not in ("number", "integer"):
        return isinstance(instance, _TYPES[name])
    if isinstance(instance, bool) or not isinstance(instance, numbers.Number):
        return False
    return (name == "number" or isinstance(instance, int)
            or isinstance(instance, float) and instance.is_integer())


def _equal(a, b) -> bool:
    """JSON equality of scalars: ``True`` is not ``1``."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _violations(instance, schema: dict, root: dict, path: tuple = ()):
    """Yield ``(path, message)`` for each violation of ``schema`` (a part of
    ``root``, which local ``$ref``s resolve in) by ``instance``, in schema
    order (``validate_config`` reports the first), worded as jsonschema
    words it under draft 2020-12.

    It implements ``type``, ``properties``, ``required``,
    ``additionalProperties: false``, ``enum``, ``const``, ``minimum``,
    ``exclusiveMinimum``, ``maximum``, ``pattern``, ``minProperties``,
    ``minItems``, ``items``, local ``$ref``, ``allOf`` and ``if``/``then``,
    and raises NotImplementedError on a schema that holds any other keyword
    (``$schema``, ``$id``, ``title`` and ``$defs`` annotate) rather than
    pass it."""
    unknown = set(schema) - _KEYWORDS
    if unknown or schema.get("additionalProperties", False) is not False:
        raise NotImplementedError(f"the scenario check implements no schema keyword "
                                  f"{sorted(unknown) or 'additionalProperties'}")
    is_object = isinstance(instance, dict)
    for key, value in schema.items():
        if key == "type" and not _is_type(instance, value):
            yield path, f"{instance!r} is not of type {value!r}"
        elif key == "properties" and is_object:
            for name, sub in value.items():
                if name in instance:
                    yield from _violations(instance[name], sub, root, path + (name,))
        elif key == "required" and is_object:
            for name in value:
                if name not in instance:
                    yield path, f"{name!r} is a required property"
        elif key == "additionalProperties" and is_object:
            known = schema.get("properties", {})
            extras = sorted(name for name in instance if name not in known)
            if extras:
                yield path, (f"Additional properties are not allowed "
                             f"({', '.join(map(repr, extras))} "
                             f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        elif key == "enum" and not any(_equal(instance, each) for each in value):
            yield path, f"{instance!r} is not one of {value!r}"
        elif key == "const" and not _equal(instance, value):
            yield path, f"{value!r} was expected"
        elif key in _BOUNDS and _is_type(instance, "number"):
            breaks, words = _BOUNDS[key]
            if breaks(instance, value):
                yield path, f"{instance!r} is {words} {value!r}"
        elif (key == "pattern" and isinstance(instance, str)
              and not re.search(value, instance)):
            yield path, f"{instance!r} does not match {value!r}"
        elif key == "minProperties" and is_object and len(instance) < value:
            yield path, f"{instance!r} " + ("should be non-empty" if value == 1
                                            else "does not have enough properties")
        elif key == "minItems" and isinstance(instance, list) and len(instance) < value:
            yield path, f"{instance!r} " + ("should be non-empty" if value == 1
                                            else "is too short")
        elif key == "items" and isinstance(instance, list):
            for index, item in enumerate(instance):
                yield from _violations(item, value, root, path + (index,))
        elif key == "$ref":
            if not value.startswith("#/"):
                raise NotImplementedError(f"the scenario check resolves no $ref "
                                          f"{value!r}")
            target = functools.reduce(operator.getitem, value[2:].split("/"), root)
            yield from _violations(instance, target, root, path)
        elif key == "allOf":
            for sub in value:
                yield from _violations(instance, sub, root, path)
        elif (key == "if" and "then" in schema
              and next(_violations(instance, value, root, path), None) is None):
            yield from _violations(instance, schema["then"], root, path)


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
        try:
            with open(source, "r", encoding="utf-8") as fh:
                return json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source} is not valid JSON: {exc}") from exc
        except (UnicodeDecodeError, OSError) as exc:
            raise ConfigError(f"cannot read {source}: {exc}") from exc
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


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    config: dict
    # output key -> file name of each artifact but the manifest
    outputs: dict[str, str]
    model: ModelSpec | None
    evolution: EvolutionConfig | None
    # an audit's starting state
    initial: StateVector | HybridState | None
    # axis name -> values of each axis that a run but an audit scans or tabulates
    axes: dict[str, np.ndarray]


_SIGNATURE_AXES = ("detuning", "intensity", "time")


def _output_names(cfg: dict) -> dict[str, str]:
    """Output key -> file name of each artifact but the manifest; a scan's
    CSV is keyed by its axis, as each CSV of a signatures run is."""
    kind, names = cfg["kind"], dict(cfg["output"])
    if kind == "scan":
        names = {cfg["scan"]["axis"]: names["csv"]}
    elif kind == "signatures":
        prefix = names.pop("csv_prefix", "scan")
        names = {axis: f"{prefix}_{axis}.csv" for axis in _SIGNATURE_AXES} | names
    files = list(names.values())
    for name in files:
        if name == "manifest.json":
            raise ConfigError("the output name manifest.json is the run manifest's")
        if name in (".", ".."):
            raise ConfigError(f"the output name {name} is a directory's")
        if files.count(name) > 1:
            raise ConfigError(f"two outputs are named {name}")
    return names


def _build_model(block: dict) -> ModelSpec:
    family = ModelFamily(block["family"])
    params = family.params_type(**block["params"])
    return ModelSpec(family, params, bool(block.get("back_reaction", False)))


def _build_axis(block: dict, name: str) -> np.ndarray:
    start, stop, points = block["start"], block["stop"], block["points"]
    if block.get("scale", "linear") == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError(f"{name} axis on a log scale needs positive bounds")
        return np.geomspace(start, stop, points)
    return np.linspace(start, stop, points)


def validate_config(cfg: dict) -> Scenario:
    """Schema plus physics-domain validation; runs nothing.  Every number
    must be finite, and the config's work must stay within the budget
    ``_WORK_BUDGET``, counted (``_spend``) before any array sized by the
    config is built: a run of n steps of a state of d amplitudes (n + 1
    samples at a quantized scan point) counts n d, summed over an audit or
    every point of every scan axis, and a golden-rule or constants table
    counts its points.  The block named on crossing it is the model's for
    a state of more amplitudes than the budget, the evolution block's for
    one run to ``t_max`` over it, else the axis's or the table's.
    The returned scenario, built once and frozen, holds all that its
    runner reads but a constants block's parameters: the output names, the
    model (with a scan's default state built and cached), the evolution
    config, an audit's initial state and every axis."""
    for path in _non_finite(cfg):
        raise ConfigError(f"non-finite number at {list(path)}")
    schema = _schema()
    for path, message in _violations(cfg, schema, schema):
        raise ConfigError(f"schema violation at {list(path)}: {message}")

    kind, outputs = cfg["kind"], _output_names(cfg)
    model = evolution = initial = None
    axes, spent = {}, 0.0
    try:
        if "model" in cfg:
            model = _build_model(cfg["model"])
            d = _spend(model.params.space.total_dim, ["model"])
        if "evolution" in cfg:
            ev = dict(cfg["evolution"])
            ev["method"] = Method(ev["method"])
            evolution = EvolutionConfig(**ev)
            # a quantized scan point holds its n + 1 samples
            samples = int(kind != "audit" and not model.params.driven)
            run = _spend(d * _runs(evolution.t_max, evolution.dt, samples), ["evolution"])
        if kind == "audit":
            initial = _initial_state(cfg.get("initial_state"), model)
        elif kind in ("scan", "signatures"):
            paths = ({cfg["scan"]["axis"]: ["scan"]} if kind == "scan"
                     else {axis: ["scans", axis] for axis in _SIGNATURE_AXES})
            for name, where in paths.items():
                block = functools.reduce(operator.getitem, where, cfg)
                # each point is a run of a step at least: held before the axis is built
                _spend(block["points"] * d * (1 + samples), where, spent)
                axes[name] = _scan_axis(model, name, _build_axis(block, name))
                spent = _spend(d * _runs(axes[name], evolution.dt, samples) if name == "time"
                               else len(axes[name]) * run, where, spent)
            model.default_state         # cached: the run reuses it
            # a scan tags a point at nu <= 0; a config may not plan one
            if np.min(axes.get("detuning", np.inf)) + model.params.omega <= 0:
                raise ConfigError("detuning scan would push the field frequency "
                                  "to zero or below")
        elif kind == "golden_rule":
            block = cfg["golden_rule"]
            _spend(block["points"], ["golden_rule"])
            with np.errstate(over="ignore"):
                axes["detuning"] = deltas = block["g"] * np.geomspace(
                    block["ratio_min"], block["ratio_max"], block["points"])
            if not (np.isfinite(deltas[-1]) and np.all(np.diff(deltas) > 0)):
                raise ConfigError("golden_rule needs finite detunings g * ratio that "
                                  "rise strictly from ratio_min to ratio_max")
        elif kind == "constants":
            g = cfg["gravito"]
            _spend(g["points"], ["gravito"])
            if g["points"] > 1 and g["nu_stop"] == g["nu_start"]:
                raise ConfigError("constants grid needs distinct nu bounds")
            axes["nu"] = np.linspace(g["nu_start"], g["nu_stop"], g["points"])
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    return Scenario(cfg["scenario"], kind, cfg, outputs, model, evolution, initial, axes)


# The most amplitude-steps one config may ask for (``validate_config``):
# 100 times the largest bundled or benchmark config, 1694664 for
# ``signatures_driven_oscillator``, and above an audit of 10**7 steps at d = 8.
_WORK_BUDGET = 2 ** 28


def _runs(horizons, dt: float, samples: int = 0) -> float:
    """The steps (``dynamics._steps``) of a run to each of ``horizons`` at
    about dt, plus ``samples`` per run, summed as a float, which a horizon
    of 1e300 steps or more cannot overflow."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.maximum(1.0, np.rint(np.divide(horizons, dt))) + samples))


def _spend(work: float, where: list, spent: float = 0.0) -> float:
    """``spent + work`` amplitude-steps, or a ConfigError naming the block
    at ``where`` if they pass ``_WORK_BUDGET``."""
    if not spent + work <= _WORK_BUDGET:
        raise ConfigError(f"the block at {where} asks for {spent + work:.3g} "
                          f"amplitude-steps, over the budget of {_WORK_BUDGET}")
    return spent + work


def _initial_state(block: dict | None, model: ModelSpec) -> StateVector | HybridState:
    """An audit's starting state: its ``fock`` or ``hybrid`` block's, else
    ``model.default_state`` or, for a mean-field model, (x, p) = (0, x0);
    a mean-field state starts with the detector in its ground state."""
    kind, space = block["type"] if block else None, model.params.space
    if model.back_reaction:
        if kind == "fock":
            raise ConfigError("mean-field audits start from a hybrid (x, p) point")
        x, p = (block["x"], block["p"]) if kind else (0.0, model.params.x0)
        return HybridState(float(x), float(p), ground_state(space))
    if kind == "hybrid":
        raise ConfigError("hybrid initial state needs a back_reaction model")
    return basis_state(space, block["levels"]) if kind else model.default_state


# ---------------------------------------------------------------------------
# execution: each runner returns its artifacts as {output key: writer(path)}


def _write_text(path: Path, text: str):
    path.write_text(text, encoding="ascii", newline="\n")


def _json(payload):
    """Writer of the JSON document ``payload()``, built only when written."""
    return lambda path: _write_text(
        path, json.dumps(payload(), sort_keys=True, indent=2) + "\n")


def _run_audit(scenario: Scenario) -> dict:
    model, cfg, initial = scenario.model, scenario.evolution, scenario.initial
    if model.back_reaction:
        traj = evolve_hybrid(model, initial, cfg)
    elif model.params.driven:
        traj = evolve_driven(model.params, initial, cfg)
    else:
        traj = evolve_unitary(model.params.hamiltonian(), initial, cfg)
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

    return {"csv": functools.partial(ledger_to_csv, ledger), "json": _json(summary)}


def _run_scans(scenario: Scenario) -> dict:
    """A CSV per axis and the report, which only signatures runs name.
    ``analysis.scans`` runs every point of every axis in one kernel call,
    on axes that ``validate_config`` has held to ``_scan_axis``."""
    results = scans(scenario.model, scenario.evolution, scenario.axes)
    return {**{axis: functools.partial(scan_to_csv, scan) for axis, scan in results.items()},
            "json": _json(lambda: signature_report(*results.values()).to_dict())}


def _run_golden_rule(scenario: Scenario) -> dict:
    g = scenario.config["golden_rule"]["g"]
    scan = rabi_peak_scan(g, scenario.axes["detuning"])

    def fit():
        try:
            return {"fit": golden_rule_fit(scan).to_dict(), "expected_slope": -2.0}
        except ValueError as exc:
            raise ToleranceError(f"golden-rule fit: {exc}") from exc

    return {"csv": functools.partial(scan_to_csv, scan), "json": _json(fit)}


def _run_constants(scenario: Scenario) -> dict:
    block = scenario.config["gravito"]
    lines, worst = ["nu,vacuum_coupling,drive_coupling,zero_point_x0,"
                    "interaction_coefficient,wave_energy_density"], 0.0
    for nu in scenario.axes["nu"]:
        p = GravitoParams(mass=block["mass"], length=block["length"], nu=float(nu),
                          omega0=block["omega0"], strain=block["strain"],
                          volume=block["volume"])
        try:
            mapped = gravito_classical_params(p)
            coeff = gravito_interaction_coefficient(p)
            row = (nu, gravito_vacuum_coupling(p), mapped.coupling, mapped.x0, coeff,
                   gw_energy_density(p))
            if not (coeff > 0 and all(map(math.isfinite, row))):
                raise ArithmeticError("the interaction coefficient is zero "
                                      "or an entry is not finite")
        except (ArithmeticError, ValueError) as exc:
            raise ToleranceError(f"the gravito table leaves the float range at "
                                 f"nu={float(nu)!r}: {exc}") from exc
        lines.append(",".join(repr(float(v)) for v in row))
        worst = max(worst, abs(mapped.coupling * mapped.x0 - coeff) / coeff)
    table = "\n".join(lines) + "\n"
    return {"csv": lambda path: _write_text(path, table),
            "json": _json(lambda: {
                "constants_version": DEFAULT_CONSTANTS.version,
                "constants_hash": DEFAULT_CONSTANTS.table_hash(),
                "identity_max_relative_deviation": worst,
            })}


_RUNNERS = {"audit": _run_audit, "scan": _run_scans, "signatures": _run_scans,
            "golden_rule": _run_golden_rule, "constants": _run_constants}


# ---------------------------------------------------------------------------
# artifact writing


def write_artifacts(scenario: Scenario, artifacts: dict, out_dir: Path) -> list[str]:
    """Write ``artifacts`` ({file name: writer(path)}) and ``manifest.json``
    into ``out_dir``; returns the written names in write order.

    Every file is written into a staging directory beside ``out_dir`` and
    moved in only once all of them exist, and the staging directory is
    removed either way.  A failed write also removes the parents of
    ``out_dir`` that this call made, deepest first and each only if empty,
    so it leaves nothing behind."""
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
    made = [parent for parent in out_dir.parents if not parent.exists()]
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", suffix=".tmp",
                                  dir=out_dir.parent))
    try:
        for name, write in artifacts.items():
            write(stage / name)
        out_dir.mkdir(exist_ok=True)
        for name in artifacts:
            os.replace(stage / name, out_dir / name)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        for parent in made:
            with contextlib.suppress(OSError):
                parent.rmdir()
        raise
    shutil.rmtree(stage, ignore_errors=True)
    return list(artifacts)


def run_scenario(scenario: Scenario, out_dir: Path) -> list[str]:
    """Run the kind's runner from ``_RUNNERS`` and write, in its order, each
    artifact the config names a file for, under that name; returns them."""
    writers = _RUNNERS[scenario.kind](scenario)
    return write_artifacts(scenario, {scenario.outputs[key]: write
                                      for key, write in writers.items()
                                      if key in scenario.outputs}, out_dir)


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
