"""The public surface of the package, pinned name by name and option by
option, so that adding or removing a public name or a defaulted parameter
is a deliberate edit of these lists."""

import dataclasses
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
    "SignatureReport", "conditioned_energy_deficit", "detuning_scan",
    "energy_ledger", "golden_rule_fit", "intensity_scan", "ledger_to_csv",
    "loglog_slope", "rabi_peak_scan", "scan_to_csv", "signature_report",
    "time_scan",
}


# every value a caller may leave out: each doubles the configurations that
# tests and benchmarks must cover
OPTIONS = {
    "analysis.EnergyLedger.backreaction_residual", "analysis.ScanResult.aux",
    "analysis.ScanResult.errors", "analysis.run_point(initial)",
    "dynamics.EvolutionConfig.method", "dynamics.EvolutionConfig.norm_drift_tol",
    "dynamics.EvolutionConfig.top_level_tol", "dynamics.Trajectory.classical",
    "dynamics.Trajectory.max_norm_drift", "models.BeamSplitterParams.alpha",
    "models.DrivenOscillatorParams.detector_cutoff", "models.ModelSpec.back_reaction",
    "cli.main(argv)",
}


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
