"""The public surface of the package, pinned name by name and option by
option, so that adding or removing a public name or a defaulted parameter
is a deliberate edit of these lists."""

import dataclasses
import functools
import importlib
import inspect
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import quantex

PUBLIC_NAMES = {
    # constants, errors
    "DEFAULT_CONSTANTS", "PhysicalConstants",
    "CoherentTailError", "ConfigError", "FactorError", "HermiticityError",
    "NormalizationError", "QuantexError", "RegimeError", "RegimeWarning",
    "ToleranceError",
    # hilbert
    "Boson", "Hamiltonian", "SpaceDescriptor", "StateVector", "TwoLevel",
    "basis_state", "coherent_state", "ground_state", "min_coherent_cutoff",
    # models
    "BeamSplitterParams", "DrivenOscillatorParams", "GravitoParams",
    "JaynesCummingsParams", "ModelFamily", "ModelSpec",
    "QubitSemiClassicalParams", "build_beam_splitter_hamiltonian",
    "build_jc_hamiltonian", "gravito_classical_params",
    "gravito_interaction_coefficient", "gravito_vacuum_coupling",
    "gw_energy_density",
    # dynamics
    "DysonFirstOrder", "EvolutionConfig", "HybridState", "Method", "Trajectory",
    "coherent_amplitude_beta", "dyson_first_order", "evolve_driven",
    "evolve_hybrid", "evolve_unitary", "evolve_unitary_at", "golden_rule_limit",
    "perturbative_pe", "pn1_from_amplitude", "rabi_probability",
    "semiclassical_pn1",
    # analysis
    "DeficitReport", "EnergyLedger", "FitResult", "ScanResult", "SignatureCheck",
    "SignatureReport", "conditioned_energy_deficit", "energy_ledger",
    "golden_rule_fit", "ledger_to_csv", "loglog_slope", "rabi_peak_scan",
    "scan_to_csv", "scans", "signature_report",
}


# every value a caller may leave out: each doubles the configurations that
# tests and benchmarks must cover
OPTIONS = {
    "dynamics.EvolutionConfig.method", "dynamics.Trajectory.classical",
    "models.DrivenOscillatorParams.detector_cutoff", "models.ModelSpec.back_reaction",
    "cli.main(argv)",
}


# every key a scenario config may leave out and every value an enum (or a
# const) offers, as a dotted path into the config: the scenario format's
# options, pinned as OPTIONS pins the package's
SCENARIO_OPTIONS = {
    "description", "model", "evolution", "initial_state", "scan", "scans",
    "golden_rule", "gravito", "output.csv", "output.json", "output.csv_prefix",
    "model.back_reaction", "scan.scale", "scans.detuning.scale",
    "scans.intensity.scale", "scans.time.scale",
}
SCENARIO_VALUES = {
    "kind=scan", "kind=audit", "kind=signatures", "kind=golden_rule",
    "kind=constants",
    "model.family=qubit_drive", "model.family=jaynes_cummings",
    "model.family=beam_splitter", "model.family=oscillator_drive",
    "evolution.method=matrix_exponential", "evolution.method=midpoint_piecewise",
    "initial_state.type=fock", "initial_state.type=hybrid",
    "scan.axis=detuning", "scan.axis=intensity", "scan.axis=time",
    "scan.scale=linear", "scan.scale=log",
    "scans.detuning.scale=linear", "scans.detuning.scale=log",
    "scans.intensity.scale=linear", "scans.intensity.scale=log",
    "scans.time.scale=linear", "scans.time.scale=log",
}


def _schema_options(schema):
    """The optional keys and the enum and const values of ``schema``: an
    object's keys that its own ``required`` leaves out, and the values
    outside an ``if`` (whose consts only select a branch)."""
    keys, values = set(), set()

    def walk(node, path):
        if "$ref" in node:
            node = functools.reduce(dict.get, node["$ref"][2:].split("/"), schema)
        props = node.get("properties", {})
        if node.get("type") == "object":
            keys.update(".".join(path + (k,)) for k in props
                        if k not in node.get("required", ()))
        offered = node.get("enum", [node["const"]] if "const" in node else [])
        values.update(f"{'.'.join(path)}={v}" for v in offered)
        for name, sub in props.items():
            walk(sub, path + (name,))
        for sub in node.get("allOf", []):
            walk(sub, path)
        if "then" in node:
            walk(node["then"], path)
        if "items" in node:
            walk(node["items"], path + ("[]",))

    walk(schema, ())
    return keys, values


def test_scenario_format_options_are_pinned():
    from quantex import cli
    assert _schema_options(cli._schema()) == (SCENARIO_OPTIONS, SCENARIO_VALUES)


def _defaulted(prefix, fn):
    return {f"{prefix}.{fn.__qualname__}({name})"
            for name, prm in inspect.signature(fn).parameters.items()
            if prm.default is not inspect.Parameter.empty}


def _options_of_class(prefix, cls):
    """The defaulted parameters of the methods ``cls`` defines, and its
    dataclass fields with a default (which its generated __init__ takes)."""
    found = set()
    is_dataclass = dataclasses.is_dataclass(cls)
    for name, attr in vars(cls).items():
        attr = getattr(attr, "__func__", attr)      # staticmethod, classmethod
        if inspect.isfunction(attr) and not (is_dataclass and name == "__init__"):
            found |= _defaulted(prefix, attr)
    if is_dataclass:
        found |= {f"{prefix}.{cls.__name__}.{f.name}" for f in dataclasses.fields(cls)
                  if f.init and (f.default is not dataclasses.MISSING
                                 or f.default_factory is not dataclasses.MISSING)}
    return found


def test_package_options_are_pinned():
    from quantex import cli, constants, models
    found = (_options_of_class("models", models._Family) | _defaulted("cli", cli.main)
             | _options_of_class("constants", constants.PhysicalConstants)
             | _options_of_class("cli", cli.Scenario))
    for prefix in ("hilbert", "models", "dynamics", "analysis"):
        module = importlib.import_module(f"quantex.{prefix}")
        for obj in map(module.__dict__.get, module.__all__):
            if inspect.isclass(obj):
                found |= _options_of_class(prefix, obj)
            elif callable(obj):
                found |= _defaulted(prefix, obj)
    assert found == OPTIONS


def test_package_public_names_are_pinned():
    names = {n for n in dir(quantex) if not n.startswith("_")
             and not isinstance(getattr(quantex, n), types.ModuleType)}
    assert names == PUBLIC_NAMES


def test_every_submodule_all_entry_resolves():
    declared = []
    for info in pkgutil.iter_modules(quantex.__path__):
        module = importlib.import_module(f"quantex.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"quantex.{info.name}.__all__ lists {name!r}"
        if hasattr(module, "__all__"):
            declared.append(info.name)
    assert sorted(declared) == ["analysis", "dynamics", "hilbert", "models"]


def test_benchmark_self_checks_pass():
    # the benchmark harness calls into the package (the Hamiltonian
    # builders, evolve_unitary_at, Method, default_initial_state and every
    # generated config): its self-checks must pass against this tree
    selftest = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"
    proc = subprocess.run([sys.executable, str(selftest)], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
