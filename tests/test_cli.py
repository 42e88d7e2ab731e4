import contextlib
import csv
import dataclasses
import functools
import json
import math
import operator
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from quantex import cli, dynamics
from quantex.cli import (
    EXIT_CANTCREAT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    bundled_scenarios,
    load_config,
    main,
    validate_config,
)
from quantex.analysis import ledger_to_csv, scans
from quantex.dynamics import GOLDEN_RULE_MIN_RATIO, EvolutionConfig, HybridState, Method
from quantex.errors import ConfigError
from quantex.hilbert import basis_state, ground_state, min_coherent_cutoff
from test_analysis import _reference_ledger_csv
from test_schema_check import _workload_configs


def test_version_prints_constants_hash(capsys):
    assert main(["version"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "quantex 0.1.0" in out
    assert "CODATA-2018" in out
    assert len(out.split()[-1]) == 64  # sha256 of the constants table


def test_list_scenarios_names_every_bundled_config(capsys):
    assert main(["list-scenarios"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in bundled_scenarios():
        assert name in out


def _closed_pipe():
    """The write end of a pipe whose reader has gone: writing to it raises
    BrokenPipeError (Python ignores SIGPIPE)."""
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize("command", [["list-scenarios"], ["run", "rabi_golden_rule"]])
def test_a_closed_stdout_exits_0_without_a_traceback(tmp_path, capsys, monkeypatch,
                                                     command):
    argv = command + (["--output-dir", str(tmp_path / "out")] if command[0] == "run"
                      else [])
    with open(_closed_pipe(), "w") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(argv) == EXIT_OK
        # what stdout still holds is flushed on close, into os.devnull
        assert os.path.samestat(os.fstat(pipe.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""
    if command[0] == "run":
        assert (tmp_path / "out" / "manifest.json").exists()


def _src_env() -> dict:
    """The environment with this quantex first on PYTHONPATH, for a child
    interpreter to import the package the tests import."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_a_closed_stdout_leaves_no_warning_in_dev_mode():
    # -X dev turns on ResourceWarning: no file may be left unclosed at exit
    write = _closed_pipe()
    try:
        proc = subprocess.run([sys.executable, "-X", "dev", "-m", "quantex.cli",
                               "list-scenarios"], stdout=write, stderr=subprocess.PIPE,
                              text=True, env=_src_env())
    finally:
        os.close(write)
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""


def test_unknown_subcommand_exits_64(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert "unknown subcommand" in capsys.readouterr().err


def test_no_subcommand_exits_64():
    assert main([]) == EXIT_USAGE


def test_validate_accepts_every_bundled_scenario():
    for name in bundled_scenarios():
        assert main(["validate", name]) == EXIT_OK, name


def test_validate_rejects_negative_frequency(tmp_path, capsys):
    cfg = json.loads(bundled_scenarios()["beam_splitter_resonance"])
    cfg["model"]["params"]["nu"] = -1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert "invalid configuration" in capsys.readouterr().err


def test_validate_rejects_unknown_keys(tmp_path):
    cfg = json.loads(bundled_scenarios()["rabi_golden_rule"])
    cfg["surprise"] = 1
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path)]) == EXIT_CONFIG


def test_validate_rejects_initial_state_outside_audit(tmp_path):
    cfg = json.loads(bundled_scenarios()["beam_splitter_resonance"])
    cfg["initial_state"] = {"type": "fock", "levels": [0, 0]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path)]) == EXIT_CONFIG


def test_mean_field_audit_rejects_a_quantum_only_initial_state(tmp_path, capsys):
    cfg = json.loads(bundled_scenarios()["oscillator_backreaction_audit"])
    cfg["initial_state"] = {"type": "fock", "levels": [0]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == EXIT_CONFIG
    assert "mean-field audits start from a hybrid (x, p) point" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_2(capsys):
    assert main(["run", "no_such_scenario"]) == EXIT_CONFIG
    assert "no file or bundled scenario" in capsys.readouterr().err


def test_malformed_run_leaves_no_artifacts(tmp_path, capsys):
    cfg = json.loads(bundled_scenarios()["beam_splitter_resonance"])
    cfg["model"]["params"]["g"] = -0.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_run_golden_rule_writes_expected_artifacts(tmp_path, capsys):
    out = tmp_path / "gr"
    assert main(["run", "rabi_golden_rule", "--output-dir", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "rabi_golden_rule"
    assert sorted(manifest["artifacts"]) == ["fit.json", "peak_scan.csv"]
    fit = json.loads((out / "fit.json").read_text())
    assert abs(fit["fit"]["slope"] + 2.0) <= 0.02
    header = (out / "peak_scan.csv").read_text().splitlines()[0]
    assert header == "detuning,probability,golden_rule_peak,error"


def test_run_constants_scenario_identity_holds(tmp_path):
    out = tmp_path / "gc"
    assert main(["run", "gravito_constants", "--output-dir", str(out)]) == EXIT_OK
    report = json.loads((out / "constants_report.json").read_text())
    assert report["identity_max_relative_deviation"] <= 1e-12
    assert report["constants_version"] == "CODATA-2018"
    rows = (out / "coupling_table.csv").read_text().splitlines()
    assert rows[0] == ("nu,vacuum_coupling,drive_coupling,zero_point_x0,"
                       "interaction_coefficient,wave_energy_density")
    assert len(rows) == 12


def test_run_audit_scenario_with_overrides(tmp_path):
    out = tmp_path / "audit"
    code = main(["run", "energy_audit_semiclassical", "--output-dir", str(out),
                 "--dt", "0.01", "--t-max", "2.0"])
    assert code == EXIT_OK
    rows = (out / "energy_ledger.csv").read_text().splitlines()
    assert len(rows) == 202  # header + 201 samples
    report = json.loads((out / "deficit_report.json").read_text())
    assert report["deficit"] == 1.0


@pytest.mark.parametrize("scenario", ["energy_audit_semiclassical", "jc_vacuum_exchange",
                                      "oscillator_backreaction_audit",
                                      "qubit_backreaction_audit"])
def test_each_bundled_ledger_csv_is_the_row_by_row_writers_bytes(tmp_path, monkeypatch, scenario):
    # the prescribed drive's constant e_classical, the mean-field ledgers'
    # NaN residual endpoints and the short Jaynes-Cummings ledger, each as
    # the run writes it
    ledgers = []

    def keeping(ledger, path):
        ledgers.append(ledger)
        ledger_to_csv(ledger, path)

    monkeypatch.setattr(cli, "ledger_to_csv", keeping)
    assert main(["run", scenario, "--output-dir", str(tmp_path / "out")]) == EXIT_OK
    [ledger] = ledgers
    written = (tmp_path / "out" / "energy_ledger.csv").read_bytes()
    assert written == _reference_ledger_csv(ledger)


@pytest.mark.parametrize("scenario", ["jc_vacuum_exchange", "signatures_driven_oscillator"])
def test_a_config_holding_target_exits_2_without_artifacts(tmp_path, capsys, scenario):
    # every audit and scan reads the detector's first excited level, and the
    # schema names no readout key: a config that names one is rejected, even
    # one naming that very level, rather than run as if it chose something
    cfg = json.loads(bundled_scenarios()[scenario])
    cfg["target"] = {"factor": 1, "level": 1}
    with pytest.raises(ConfigError, match="'target' was unexpected"):
        validate_config(cfg)
    path = tmp_path / "target.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    for argv in (["validate", str(path)], ["run", str(path), "--output-dir", str(out)]):
        assert main(argv) == EXIT_CONFIG
        assert "'target' was unexpected" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


_BAD_OUTPUTS = [
    # a scan writes only its csv
    ("beam_splitter_resonance", {"json": "scan.json"}),
    ("beam_splitter_resonance", {"csv": "scan.csv", "json": "scan.json"}),
    # csv_prefix belongs to signatures, whose csvs it names
    ("energy_audit_semiclassical", {"csv": "ledger.csv", "csv_prefix": "run"}),
    ("signatures_driven_oscillator", {"csv": "scan.csv", "json": "report.json"}),
    # one name for two artifacts, or the manifest's name
    ("energy_audit_semiclassical", {"csv": "audit.out", "json": "audit.out"}),
    ("signatures_driven_oscillator", {"csv_prefix": "s", "json": "s_time.csv"}),
    ("energy_audit_semiclassical", {"csv": "manifest.json"}),
    ("rabi_golden_rule", {"csv": "peak_scan.csv", "json": "manifest.json"}),
    # a directory's name, which the run could only fail to write
    ("rabi_golden_rule", {"csv": "..", "json": "fit.json"}),
    ("rabi_golden_rule", {"csv": "peak_scan.csv", "json": "."}),
]


@pytest.mark.parametrize("name, output", _BAD_OUTPUTS)
def test_outputs_the_run_cannot_write_exit_2_without_artifacts(tmp_path, capsys,
                                                              name, output):
    cfg = json.loads(bundled_scenarios()[name])
    cfg["output"] = output
    with pytest.raises(ConfigError):
        validate_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert main(["run", str(path), "--output-dir", str(out)]) == EXIT_CONFIG
    assert "invalid configuration" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


_QUICK_SIGNATURES = ["run", "signatures_driven_oscillator", "--t-max", "2",
                     "--dt", "0.1", "--output-dir"]


def test_a_failed_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    from quantex import cli
    write_csv, calls = cli.scan_to_csv, []

    def second_write_fails(scan, path):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        write_csv(scan, path)

    monkeypatch.setattr(cli, "scan_to_csv", second_write_fails)
    runs = tmp_path / "runs"
    out = runs / "out"
    assert main(_QUICK_SIGNATURES + [str(out)]) == EXIT_CANTCREAT
    assert capsys.readouterr().err == "cannot write artifacts: disk full\n"
    assert len(calls) == 2
    # runs/ was made by the run, so it goes with the staging directory
    assert list(tmp_path.iterdir()) == []


def test_a_rerun_into_the_same_directory_gives_the_same_bytes(tmp_path, monkeypatch):
    # the default output directory ./<scenario name> must not be taken for
    # a config file of that name on the second run
    monkeypatch.chdir(tmp_path)
    args = _QUICK_SIGNATURES[:-1]
    out = tmp_path / "signatures_driven_oscillator"
    assert main(args) == EXIT_OK
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(args) == EXIT_OK
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first
    assert sorted(first) == sorted(
        json.loads(first["manifest.json"])["artifacts"] + ["manifest.json"])
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_workers_flag_is_gone(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "rabi_golden_rule", "--workers", "2",
                 "--output-dir", str(out)]) == EXIT_CONFIG
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_tolerance_abort_exits_3_without_artifacts(tmp_path, capsys):
    cfg = json.loads(bundled_scenarios()["energy_audit_semiclassical"])
    # strong resonant drive overflows the small cutoff mid-run
    cfg["model"]["params"]["coupling"] = 0.5
    cfg["model"]["params"]["detector_cutoff"] = 4
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == EXIT_TOLERANCE
    assert "numerical-tolerance abort" in capsys.readouterr().err
    assert not (out / "energy_ledger.csv").exists()


@pytest.mark.parametrize("scenario, edit", [
    ("signatures_beam_splitter", lambda cfg: cfg["scans"]["intensity"].update(points=2)),
    ("signatures_driven_oscillator", lambda cfg: cfg["model"]["params"].update(coupling=0.0)),
], ids=["two_intensity_points", "zero_coupling"])
def test_signature_runs_without_an_intensity_fit_report_it_inconclusive(tmp_path, scenario,
                                                                       edit):
    import jsonschema
    from importlib import resources
    cfg = json.loads(bundled_scenarios()[scenario])
    edit(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == EXIT_OK
    report = json.loads((out / "signature_report.json").read_text())
    jsonschema.validate(report, json.loads(resources.files("quantex").joinpath(
        "schema/signature_report.schema.json").read_text()))
    assert report["all_pass"] is False
    assert report["intensity_independence"]["status"] == "inconclusive"


def test_the_removed_rk4_method_exits_2_with_the_schema_message(tmp_path, capsys):
    cfg = json.loads(bundled_scenarios()["energy_audit_semiclassical"])
    cfg["evolution"]["method"] = "rk4"
    path = tmp_path / "rk4.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    for args in (["validate", str(path)], ["run", str(path), "--output-dir", str(out)]):
        assert main(args) == EXIT_CONFIG
        assert ("schema violation at ['evolution', 'method']: 'rk4' is not one of "
                "['matrix_exponential', 'midpoint_piecewise']") in capsys.readouterr().err
    assert not out.exists()


def test_override_requires_evolution_block(tmp_path, capsys):
    assert main(["run", "rabi_golden_rule", "--output-dir", str(tmp_path / "x"),
                 "--dt", "0.1"]) == EXIT_CONFIG


def test_load_config_prefers_filesystem_path(tmp_path):
    cfg = json.loads(bundled_scenarios()["rabi_golden_rule"])
    cfg["golden_rule"]["points"] = 5
    path = tmp_path / "rabi_golden_rule"
    path.write_text(json.dumps(cfg))
    loaded = load_config(str(path))
    assert loaded["golden_rule"]["points"] == 5


def test_validate_config_returns_built_scenario():
    cfg = json.loads(bundled_scenarios()["beam_splitter_resonance"])
    scenario = validate_config(cfg)
    assert scenario.kind == "scan"
    assert scenario.model.params.g == 0.001
    assert scenario.evolution.t_max == 10.0


def test_validate_config_rejects_bad_json_text(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


@pytest.mark.parametrize("name", ["scenario", "signature_report"])
def test_bundled_schemas_are_valid_under_their_metaschema(name):
    # the runtime never checks a schema; a bad edit to one fails here
    from importlib import resources
    schema = json.loads(resources.files("quantex").joinpath(
        f"schema/{name}.schema.json").read_text(encoding="utf-8"))
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_validation_checks_no_schema_and_violations_keep_their_text():
    schema = cli._schema()
    good = json.loads(bundled_scenarios()["jc_vacuum_exchange"])
    bad_params = json.loads(json.dumps(good))
    bad_params["model"]["params"]["g"] = "strong"
    validate_config(good)
    # the texts of the jsonschema.validate route
    for cfg in [bad_params, {**good, "colour": "blue"}]:
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(cfg, schema)
        with pytest.raises(ConfigError) as got:
            validate_config(cfg)
        assert str(got.value) == (f"schema violation at {list(ref.value.absolute_path)}: "
                                  f"{ref.value.message}")
    # the runtime checks the config alone, and imports no jsonschema to do it
    code = ("import sys\n"
            "from quantex.cli import main\n"
            "assert main(['validate', 'jc_vacuum_exchange']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('jsonschema')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["jc_vacuum_exchange: configuration valid", "[]"]


def _jaynes_cummings(cfg):
    cfg["model"] = {"family": "jaynes_cummings",
                    "params": {"nu": 1.0, "omega": 1.0, "g": 0.001, "field_cutoff": 4}}


@pytest.mark.parametrize("scenario, edit, axis", [
    ("signatures_driven_oscillator", lambda cfg: cfg["model"].update(back_reaction=True),
     "detuning"),
    ("signatures_beam_splitter", _jaynes_cummings, "intensity"),
    ("signatures_beam_splitter",
     lambda cfg: cfg["scans"]["intensity"].update(start=0.0, scale="linear"), "intensity"),
    ("signatures_driven_oscillator",
     lambda cfg: cfg["scans"]["time"].update(start=-1.0, scale="linear"), "time"),
], ids=["mean_field", "jaynes_cummings_intensity", "intensity_zero", "time_negative"])
def test_validate_and_the_scan_reject_a_scan_with_one_message(tmp_path, capsys, scenario,
                                                             edit, axis):
    cfg = json.loads(bundled_scenarios()[scenario])
    edit(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    evolution = {**cfg["evolution"], "method": Method(cfg["evolution"]["method"])}
    with pytest.raises(ValueError) as exc:
        scans(cli._build_model(cfg["model"]), EvolutionConfig(**evolution),
              {axis: cli._build_axis(cfg["scans"][axis], axis)})
    assert err == f"invalid configuration: {exc.value}\n"


@pytest.mark.parametrize("scenario, params", [
    ("signatures_driven_oscillator", {"coupling": 0.1}),
    ("signatures_beam_splitter", {"g": 0.05}),
])
def test_one_batch_of_every_axis_writes_what_each_axis_writes_alone(tmp_path, monkeypatch,
                                                                    scenario, params):
    # the stronger coupling makes the points near resonance trip the
    # top-level guard, and a detuning of -omega puts a point at nu = 0,
    # which validation refuses, so it joins the axes afterwards; both keep
    # their tags, and the run's files, report included, are the bytes that
    # running each axis on its own writes
    cfg = load_config(scenario)
    cfg["model"]["params"].update(params)
    built = validate_config(cfg)
    detuning = np.concatenate([[-built.model.params.omega], built.axes["detuning"]])
    built = dataclasses.replace(built, axes={**built.axes, "detuning": detuning})
    kernel = "_evolve_driven_batch" if built.model.params.driven else "_evolve_blocks"
    calls, run = [], getattr(dynamics, kernel)
    monkeypatch.setattr(dynamics, kernel, lambda *a, **kw: calls.append(1) or run(*a, **kw))
    written = cli.run_scenario(built, tmp_path / "batch")
    assert len(calls) == 1
    monkeypatch.setattr(cli, "scans", lambda model, ev, axes: {
        name: scans(model, ev, {name: values})[name] for name, values in axes.items()})
    assert cli.run_scenario(built, tmp_path / "alone") == written
    assert len(calls) == 4
    for name in written:
        assert (tmp_path / "batch" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
    with open(tmp_path / "batch" / "signatures_detuning.csv", newline="") as fh:
        tags = [row["error"] for row in csv.DictReader(fh)]
    assert tags[0] == "ValueError: nu must be > 0, got 0.0"
    assert any(tag.startswith("ToleranceError: top Fock level") for tag in tags)
    assert "" in tags


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "quantex.cli", "version"],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0
    assert "quantex" in proc.stdout


def test_runs_need_no_scipy(tmp_path):
    # with sys.modules["scipy"] = None every import of scipy fails: every
    # bundled scenario must still validate, and the coherent-field (beam
    # splitter) and driven scenarios and closed forms must still run
    runs = ("signatures_beam_splitter", "beam_splitter_resonance", "qubit_drive_threshold")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import quantex, quantex.cli as cli\n"
        "for name in cli.bundled_scenarios():\n"
        "    cli.validate_config(cli.load_config(name))\n"
        f"for name in {runs!r}:\n"
        "    out = sys.argv[1] + '/' + name\n"
        "    assert cli.main(['run', name, '--output-dir', out]) == 0, name\n"
        "p = quantex.DrivenOscillatorParams(omega=1.0, nu=0.5, coupling=1e-3, x0=1.0)\n"
        "quantex.coherent_amplitude_beta(p, 20.0)\n"
        "assert quantex.min_coherent_cutoff(4.0) > 16\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    for name in runs:
        assert (tmp_path / name / "manifest.json").exists()


def test_quantized_runs_build_no_dense_matrix(tmp_path, monkeypatch):
    # the scan and audit paths of the quantized families go from the hop
    # lists to the block propagator: no dense matrix is built
    from quantex import models

    def fail(*args, **kwargs):
        raise AssertionError("a d x d array was built")

    monkeypatch.setattr(models, "_dense", fail)
    for name in ("signatures_beam_splitter", "beam_splitter_resonance",
                 "jc_vacuum_exchange"):
        assert main(["run", name, "--output-dir", str(tmp_path / name)]) == EXIT_OK


def test_trajectory_and_scan_arrays_are_read_only():
    from quantex import DrivenOscillatorParams, EvolutionConfig, Method, evolve_driven
    p = DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.01, x0=1.0,
                               detector_cutoff=6)
    traj = evolve_driven(p, None, EvolutionConfig(dt=0.1, t_max=1.0,
                                                  method=Method.MIDPOINT))
    with pytest.raises(ValueError):
        traj.times[0] = 5.0
    with pytest.raises(ValueError):
        traj.classical[0, 0] = 5.0


def _set(keys, value):
    """An edit of a scenario's JSON text that puts ``value`` at ``keys``."""
    def edit(text):
        cfg = json.loads(text)
        *parents, last = keys
        functools.reduce(dict.get, parents, cfg)[last] = value
        return json.dumps(cfg)
    return edit


def _drop(key):
    """An edit of a scenario's JSON text that removes its top-level ``key``."""
    def edit(text):
        cfg = json.loads(text)
        del cfg[key]
        return json.dumps(cfg)
    return edit


@pytest.mark.parametrize("scenario, keys, axis", [
    ("qubit_drive_threshold", ("scan",),
     {"axis": "detuning", "start": 0.0, "stop": 5e-324, "points": 3}),
    ("signatures_beam_splitter", ("scans", "intensity"),
     {"start": 1.0, "stop": 1.0000000000000002, "points": 9, "scale": "log"}),
], ids=["detuning", "intensity"])
def test_a_scan_axis_that_is_not_strictly_monotone_exits_2_without_artifacts(
        tmp_path, capsys, scenario, keys, axis):
    # linspace and geomspace round a span of an ulp or two onto repeated
    # values, which no scan may hold: refused before anything runs
    path = tmp_path / "cfg.json"
    path.write_text(_set(keys, axis)(bundled_scenarios()[scenario]))
    out = tmp_path / "out"
    for args in (["validate", str(path)], ["run", str(path), "--output-dir", str(out)]):
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err == ("invalid configuration: scan axis must "
                                           "be strictly monotone\n")
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("scenario, edit, run_args", [
    ("beam_splitter_resonance", _set(("model", "params", "alpha"), math.inf), []),
    ("beam_splitter_resonance", _set(("model", "params", "alpha"), math.nan), []),
    ("beam_splitter_resonance", _set(("model", "params", "alpha"), 1e200), []),
    ("signatures_beam_splitter", _set(("evolution", "t_max"), math.inf), []),
    ("signatures_driven_oscillator", _set(("scans", "time", "stop"), math.inf), []),
    ("rabi_golden_rule", _set(("golden_rule", "ratio_max"), math.inf), []),
    ("qubit_backreaction_audit", _set(("initial_state", "x"), math.inf), []),
    ("gravito_constants", _set(("gravito", "mass"), math.inf), []),
    ("energy_audit_semiclassical",
     lambda text: text.replace('"dt": 0.001', '"dt": 0.5, "dt": 0.001'), []),
    ("energy_audit_semiclassical", lambda text: text, ["--t-max", "inf"]),
], ids=["inf", "nan", "1e+200", "t_max", "scan_stop", "ratio_max", "initial_x",
        "gravito_mass", "repeated_dt", "t_max_override"])
def test_a_non_finite_coherent_amplitude_is_a_config_error(tmp_path, capsys, scenario,
                                                           edit, run_args):
    # json writes and reads Infinity and NaN, and keeps the last of two
    # equal keys; JSON (RFC 8259) has neither.  1e200 is finite, but the
    # coherent mean |alpha|^2 overflows.  Each exits 2 from validate and
    # from run (the override only exists for run) and writes nothing
    text = edit(bundled_scenarios()[scenario])
    assert text != bundled_scenarios()[scenario] or run_args
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out"
    commands = [["run", str(path), "--output-dir", str(out), *run_args]]
    if not run_args:
        commands.append(["validate", str(path)])
    for args in commands:
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("invalid configuration: ")
    assert not out.exists()


def test_a_beam_splitter_config_past_its_tail_names_the_cutoff(tmp_path, capsys):
    cfg = json.loads(bundled_scenarios()["beam_splitter_resonance"])
    cfg["model"]["params"]["alpha"] = 6.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.endswith(f"; the smallest cutoff that holds it is "
                        f"{min_coherent_cutoff(6.0)}\n")


def test_a_non_finite_number_in_a_config_dict_names_its_key_path():
    cfg = json.loads(bundled_scenarios()["signatures_driven_oscillator"])
    cfg["scans"]["time"]["stop"] = math.inf
    with pytest.raises(ConfigError, match=re.escape("['scans', 'time', 'stop']")):
        validate_config(cfg)
    cfg = json.loads(bundled_scenarios()["qubit_backreaction_audit"])
    cfg["initial_state"]["x"] = math.nan
    with pytest.raises(ConfigError, match=re.escape("['initial_state', 'x']")):
        validate_config(cfg)


def test_a_golden_rule_scan_below_the_regime_ratio_exits_2_without_artifacts(tmp_path,
                                                                           capsys):
    # the fit refuses a scan that reaches |delta / g| < 10, so validate
    # rejects such a ratio_min before anything runs
    cfg = json.loads(bundled_scenarios()["rabi_golden_rule"])
    cfg["golden_rule"] = {"g": 0.01, "ratio_min": 2, "ratio_max": 100, "points": 9}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    for args in (["validate", str(path)], ["run", str(path), "--output-dir", str(out)]):
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: schema violation at "
                              "['golden_rule', 'ratio_min']: 2 ")
    assert list(tmp_path.iterdir()) == [path]


def test_the_schema_alone_holds_the_golden_rule_regime_bound():
    schema = cli._schema()
    bounds = schema["properties"]["golden_rule"]["properties"]
    assert bounds["ratio_min"]["minimum"] == GOLDEN_RULE_MIN_RATIO
    assert bounds["ratio_max"]["exclusiveMinimum"] == GOLDEN_RULE_MIN_RATIO
    cfg = json.loads(bundled_scenarios()["rabi_golden_rule"])
    validator = jsonschema.Draft202012Validator(schema)
    assert validator.is_valid(cfg)
    cfg["golden_rule"]["ratio_min"] = 2
    assert not validator.is_valid(cfg)


@pytest.mark.parametrize("scenario, initial, message", [
    ("jc_vacuum_exchange", {"type": "fock", "levels": [1]}, "one level per factor"),
    ("jc_vacuum_exchange", {"type": "fock", "levels": [0, 2]}, "out of range"),
    ("qubit_backreaction_audit", {"type": "fock", "levels": [0]},
     "mean-field audits start from a hybrid (x, p) point"),
    ("oscillator_backreaction_audit", {"type": "fock", "levels": [0]},
     "mean-field audits start from a hybrid (x, p) point"),
], ids=["levels_length", "level_at_dim", "mean_field_fock", "mean_field_ground"])
def test_a_bad_initial_state_exits_2_without_artifacts(tmp_path, capsys, scenario,
                                                       initial, message):
    path = tmp_path / "cfg.json"
    path.write_text(_set(("initial_state",), initial)(bundled_scenarios()[scenario]))
    out = tmp_path / "out"
    for args in (["validate", str(path)], ["run", str(path), "--output-dir", str(out)]):
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: ") and message in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("scenario, edit, expected", [
    ("jc_vacuum_exchange", _drop("initial_state"), lambda m: m.default_state),
    ("energy_audit_semiclassical",
     _set(("initial_state",), {"type": "fock", "levels": [0]}),
     lambda m: ground_state(m.params.space)),
    ("jc_vacuum_exchange", _set(("initial_state",), {"type": "fock", "levels": [0, 1]}),
     lambda m: basis_state(m.params.space, [0, 1])),
    ("qubit_backreaction_audit",
     _set(("initial_state",), {"type": "hybrid", "x": 0.3, "p": 0.7}),
     lambda m: HybridState(0.3, 0.7, ground_state(m.params.space))),
    ("oscillator_backreaction_audit", _drop("initial_state"),
     lambda m: HybridState(0.0, m.params.x0, ground_state(m.params.space))),
], ids=["default", "ground", "fock", "hybrid", "mean_field_default"])
def test_each_initial_state_type_is_the_first_row_of_the_run(tmp_path, monkeypatch,
                                                             scenario, edit, expected):
    path = tmp_path / "cfg.json"
    path.write_text(edit(bundled_scenarios()[scenario]))
    initial = validate_config(load_config(str(path))).initial
    runs, energy_ledger = [], cli.energy_ledger

    def ledger(traj, model):
        runs.append((traj, model))
        return energy_ledger(traj, model)

    monkeypatch.setattr(cli, "energy_ledger", ledger)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out"),
                 "--t-max", "5"]) == EXIT_OK
    ((traj, model),) = runs
    want = expected(model)
    if isinstance(want, HybridState):
        assert (initial.x, initial.p) == (want.x, want.p)
        assert traj.classical[0].tolist() == [want.x, want.p]
        initial, want = initial.psi, want.psi
    assert np.array_equal(initial.amplitudes, want.amplitudes)
    assert np.array_equal(traj.amplitudes[0], want.amplitudes)


@pytest.mark.parametrize("scenario, edit", [
    ("energy_audit_semiclassical", _set(("evolution", "norm_drift_tol"), 1e-9)),
    ("energy_audit_semiclassical", _set(("evolution", "top_level_tol"), 1e-8)),
    ("jc_vacuum_exchange", _set(("initial_state",), {"type": "default"})),
    ("jc_vacuum_exchange", _set(("initial_state",), {"type": "ground"})),
], ids=["norm_drift_tol", "top_level_tol", "default", "ground"])
def test_a_retired_option_exits_2_without_artifacts(tmp_path, capsys, scenario, edit):
    # the guard bounds are EvolutionConfig's class bounds, which no config
    # sets, not even to their own values; the default start is an omitted
    # block, the ground start fock at all-zero levels
    path = tmp_path / "cfg.json"
    path.write_text(edit(bundled_scenarios()[scenario]))
    out = tmp_path / "out"
    for args in (["validate", str(path)], ["run", str(path), "--output-dir", str(out)]):
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: schema violation at ")
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("scenario, donors, message", [
    ("gravito_constants", {"evolution": "jc_vacuum_exchange",
                           "scan": "beam_splitter_resonance"},
     "('evolution', 'scan' were unexpected)"),
    ("rabi_golden_rule", {"model": "jc_vacuum_exchange"}, "('model' was unexpected)"),
    ("signatures_beam_splitter", {"scan": "beam_splitter_resonance"},
     "('scan' was unexpected)"),
    ("jc_vacuum_exchange", {"scans": "signatures_beam_splitter"}, "('scans' was unexpected)"),
    ("beam_splitter_resonance", {"initial_state": "jc_vacuum_exchange"},
     "('initial_state' was unexpected)"),
], ids=["constants", "golden_rule", "signatures", "audit", "scan"])
def test_a_block_the_kind_does_not_read_exits_2_without_artifacts(tmp_path, capsys,
                                                                  scenario, donors,
                                                                  message):
    # each stray block is a bundled scenario's own, valid where it belongs;
    # a run would ignore it, and a constants run would record guard bounds
    # in its manifest for a run that evolves nothing, so the schema's
    # branch for the kind allows only the blocks the kind reads
    cfg = json.loads(bundled_scenarios()[scenario])
    for block, donor in donors.items():
        cfg[block] = json.loads(bundled_scenarios()[donor])[block]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    for args in (["validate", str(path)], ["run", str(path), "--output-dir", str(out)]):
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err == ("invalid configuration: schema violation at []: "
                                           f"Additional properties are not allowed {message}\n")
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("scenario, method, expected", [
    ("qubit_drive_threshold", "matrix_exponential", "midpoint_piecewise"),
    ("jc_vacuum_exchange", "midpoint_piecewise", "matrix_exponential"),
], ids=["driven", "quantized"])
def test_a_method_the_family_does_not_evolve_by_exits_2_without_artifacts(
        tmp_path, capsys, scenario, method, expected):
    # the driven families step by the midpoint rule and the quantized ones
    # propagate exactly; the schema fixes each family's method label
    path = tmp_path / "cfg.json"
    path.write_text(_set(("evolution", "method"), method)(bundled_scenarios()[scenario]))
    out = tmp_path / "out"
    for args in (["validate", str(path)], ["run", str(path), "--output-dir", str(out)]):
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err == ("invalid configuration: schema violation at "
                                           f"['evolution', 'method']: {expected!r} was "
                                           "expected\n")
    assert list(tmp_path.iterdir()) == [path]


_OVER_BUDGET = f"amplitude-steps, over the budget of {cli._WORK_BUDGET}\n"


@pytest.mark.parametrize("scenario, keys, count", [
    # held before the axis is built: 10**15 points of at least 2 samples of
    # 192 amplitudes, of at least one step of 8 amplitudes, and 10**15 rows
    ("beam_splitter_resonance", ("scan", "points"), "3.84e+17"),
    ("signatures_driven_oscillator", ("scans", "time", "points"), "8e+15"),
    ("rabi_golden_rule", ("golden_rule", "points"), "1e+15"),
    ("gravito_constants", ("gravito", "points"), "1e+15"),
], ids=["scan", "signatures", "golden_rule", "constants"])
def test_an_axis_too_long_to_allocate_exits_2_without_artifacts(tmp_path, capsys,
                                                                scenario, keys, count):
    # the work budget rejects an axis of 10**15 points before it is built,
    # so the test allocates nothing; the message names the block of the axis
    path = tmp_path / "cfg.json"
    path.write_text(_set(keys, 10 ** 15)(bundled_scenarios()[scenario]))
    out = tmp_path / "out"
    for args in (["validate", str(path)], ["run", str(path), "--output-dir", str(out)]):
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"invalid configuration: the block at {list(keys[:-1])} "
                       f"asks for {count} {_OVER_BUDGET}"), err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("scenario, keys, value, message", [
    ("jc_vacuum_exchange", ("evolution", "t_max"), 1e300,
     "the block at ['evolution'] asks for 8e+301 "),
    ("signatures_driven_oscillator", ("scans", "time", "stop"), 1e300,
     "the block at ['scans', 'time'] asks for 1.6e+303 "),
    ("signatures_beam_splitter", ("model", "params", "field_cutoff"), 10 ** 15,
     "the block at ['model'] asks for 6e+15 "),
    # 1e16 steps of 8 amplitudes
    ("jc_vacuum_exchange", ("evolution", "t_max"), 1e15,
     "the block at ['evolution'] asks for 8e+16 "),
    # 1e18 steps, past numpy's largest array of stored states
    ("jc_vacuum_exchange", ("evolution", "t_max"), 1e17,
     "the block at ['evolution'] asks for 8e+18 "),
    # 2e14 steps of a 2-level state per scan point
    ("qubit_drive_threshold", ("evolution", "t_max"), 1e12,
     "the block at ['evolution'] asks for 4e+14 "),
    ("signatures_driven_oscillator", ("evolution", "t_max"), 1e12,
     "the block at ['evolution'] asks for 1.6e+15 "),
    # the detuning and intensity axes' 1.6e6, then 25 readouts up to 2e14 steps
    ("signatures_driven_oscillator", ("scans", "time", "stop"), 1e12,
     "the block at ['scans', 'time'] asks for 2.1e+15 "),
], ids=["horizon", "readout", "cutoff", "stored_horizon", "stored_horizon_too_big",
        "driven_horizon", "signatures_horizon", "signatures_readout"])
def test_a_run_too_long_or_a_state_too_large_to_allocate_exits_2(tmp_path, capsys, scenario,
                                                                  keys, value, message):
    # a step count past np.intp's range, a default state of 10**15 levels,
    # an audit's stored states past memory and a scan of 2e14 steps per
    # point passed validate and crashed the run or would never have ended;
    # the work budget rejects each before any array of its size is built,
    # and no case here steps
    path = tmp_path / "cfg.json"
    path.write_text(_set(keys, value)(bundled_scenarios()[scenario]))
    out = tmp_path / "out"
    for args in (["validate", str(path)], ["run", str(path), "--output-dir", str(out)]):
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"invalid configuration: {message}{_OVER_BUDGET}", err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("keys, value, where, count", [
    # 2e15 + 1 samples of 192 amplitudes at every detuning point, 5.33 EiB
    (("evolution", "t_max"), 1e15, ["evolution"], "3.84e+17"),
    # 2.4e15 + 1 samples at the last readout time, 2e15 + 1 at the first
    (("scan",), {"axis": "time", "start": 1e15, "stop": 1.2e15, "points": 3}, ["scan"],
     "1.27e+18"),
    # 6e15 + 1 samples at the last, past numpy's largest array
    (("scan",), {"axis": "time", "start": 1e15, "stop": 3e15, "points": 3}, ["scan"],
     "2.3e+18"),
], ids=["horizon", "readout", "readout_too_big"])
def test_a_quantized_scan_whose_samples_numpy_refuses_exits_2(tmp_path, capsys, keys, value,
                                                               where, count):
    # validate passed these, and the run crashed allocating a point's time
    # grid; a quantized point's samples count in the work budget, which
    # rejects each before any array of its size is built
    path = tmp_path / "cfg.json"
    path.write_text(_set(keys, value)(bundled_scenarios()["beam_splitter_resonance"]))
    out = tmp_path / "out"
    for args in (["validate", str(path)], ["run", str(path), "--output-dir", str(out)]):
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"invalid configuration: the block at {where} asks for {count} "
                       f"{_OVER_BUDGET}"), err
    assert list(tmp_path.iterdir()) == [path]


def test_a_moderate_horizon_still_validates(tmp_path, capsys):
    # 10**7 steps of dt 0.1 at d = 8, 8.0e7 amplitude-steps, within the budget
    path = tmp_path / "cfg.json"
    path.write_text(_set(("evolution", "t_max"), 1e6)(bundled_scenarios()["jc_vacuum_exchange"]))
    assert main(["validate", str(path)]) == 0


def _work(scenario) -> int:
    """A validated scenario's amplitude-steps, counted from what it holds
    with the kernels' own grid rule: a run of n steps of d amplitudes
    counts n d (a quantized scan point n + 1 samples), a golden-rule or
    constants table its points."""
    if scenario.kind in ("golden_rule", "constants"):
        return sum(map(len, scenario.axes.values()))
    d, ev = scenario.model.params.space.total_dim, scenario.evolution
    if scenario.kind == "audit":
        return d * dynamics._steps(ev.t_max, ev.dt)
    samples = 0 if scenario.model.params.driven else 1
    return d * sum(dynamics._steps(t if name == "time" else ev.t_max, ev.dt) + samples
                   for name, values in scenario.axes.items() for t in values)


_BUNDLED_WORK = {
    "beam_splitter_resonance": 245952, "energy_audit_semiclassical": 200000,
    "gravito_constants": 11, "jc_vacuum_exchange": 2512,
    "oscillator_backreaction_audit": 160000, "qubit_backreaction_audit": 20000,
    "qubit_drive_threshold": 328000, "rabi_golden_rule": 25,
    "signatures_beam_splitter": 414360, "signatures_driven_oscillator": 1694664}


def test_every_bundled_and_benchmark_config_uses_at_most_a_hundredth_of_the_budget(
        monkeypatch):
    # the budget rejects nothing that quantex ships or benchmarks, with a
    # factor 100 to spare, and validate counts exactly what _work counts:
    # each config passes at a budget of its own count and fails one below
    configs = {name: json.loads(text) for name, text in bundled_scenarios().items()}
    assert {name: _work(validate_config(cfg)) for name, cfg in configs.items()} \
        == _BUNDLED_WORK
    configs |= {f"{cfg['scenario']}@{i}": cfg
                for i, cfg in enumerate(_workload_configs(seeds=(0, 7)))}
    for name, cfg in configs.items():
        work = _work(validate_config(cfg))
        assert work <= cli._WORK_BUDGET // 100, name
        monkeypatch.setattr(cli, "_WORK_BUDGET", work)
        validate_config(cfg)
        monkeypatch.setattr(cli, "_WORK_BUDGET", work - 1)
        with pytest.raises(ConfigError, match=r"^the block at \[.*\] asks for "):
            validate_config(cfg)
        monkeypatch.undo()


def _number_mutants():
    """(name, key path, value, config) of every bundled config with one of
    its numbers set to 0, its negative, 1e3 times it, 1e12 or 1e300."""
    def numbers(value, path=()):
        items = (value.items() if isinstance(value, dict)
                 else enumerate(value) if isinstance(value, list) else ())
        for key, item in items:
            if isinstance(item, (int, float)) and not isinstance(item, bool):
                yield path + (key,), item
            yield from numbers(item, path + (key,))

    for name, text in bundled_scenarios().items():
        for path, number in numbers(json.loads(text)):
            for value in (0, -number, number * 1000, 1e12, 1e300):
                cfg = json.loads(text)
                functools.reduce(operator.getitem, path[:-1], cfg)[path[-1]] = value
                yield name, path, value, cfg


def test_every_number_mutant_of_a_bundled_config_exits_2_or_fits_the_budget():
    # each validates to a scenario whose work _work counts within the
    # budget, or is a ConfigError; validation builds nothing past it
    rejected = 0
    for name, path, value, cfg in _number_mutants():
        try:
            scenario = validate_config(cfg)
        except ConfigError:
            rejected += 1
            continue
        assert _work(scenario) <= cli._WORK_BUDGET, (name, path, value)
    assert rejected > 100


def test_number_mutants_within_a_small_budget_run_to_exit_0_or_3(tmp_path, capsys,
                                                                 monkeypatch):
    # a seeded sample of the mutants that validate at 2**16 amplitude-steps,
    # at most a few tens of ms of stepping each, runs to an end under the
    # suite's -W error: validation passed them, so only the run's own
    # verdicts remain
    monkeypatch.setattr(cli, "_WORK_BUDGET", 2 ** 16)
    runnable = []
    for name, path, value, cfg in _number_mutants():
        with contextlib.suppress(ConfigError):
            validate_config(cfg)
            runnable.append((name, path, value, cfg))
    statuses = set()
    for i, (name, path, value, cfg) in enumerate(random.Random(0).sample(runnable, 20)):
        config = tmp_path / f"{i}.json"
        config.write_text(json.dumps(cfg))
        status = main(["run", str(config), "--output-dir", str(tmp_path / str(i))])
        assert status in (EXIT_OK, EXIT_TOLERANCE), (name, path, value, capsys.readouterr())
        statuses.add(status)
    assert statuses == {EXIT_OK, EXIT_TOLERANCE}


@pytest.mark.parametrize("scenario, keys, name", [
    ("jc_vacuum_exchange", ("scenario",), "rabi\n"),
    ("rabi_golden_rule", ("output", "csv"), "peak.csv\n"),
    ("signatures_driven_oscillator", ("output", "csv_prefix"), "scan\n"),
], ids=["scenario", "filename", "csv_prefix"])
def test_a_name_that_ends_in_a_newline_exits_2_without_artifacts(tmp_path, capsys,
                                                                 monkeypatch, scenario,
                                                                 keys, name):
    # Python's ``$`` also matches just before a final newline; a run would
    # name its output directory or a file with the newline in it
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(_set(keys, name)(bundled_scenarios()[scenario]))
    for args in (["validate", str(path)], ["run", str(path)]):
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"schema violation at {list(keys)}: {name!r} does not match" in err
    assert list(tmp_path.iterdir()) == [path]


def test_every_bundled_manifest_records_the_guard_tolerances(tmp_path):
    for name, text in bundled_scenarios().items():
        kind = json.loads(text)["kind"]
        out = tmp_path / name
        assert main(["run", name, "--output-dir", str(out)]) == EXIT_OK
        tolerances = json.loads((out / "manifest.json").read_text())["tolerances"]
        if kind in ("scan", "audit", "signatures"):
            assert tolerances == {"norm_drift_tol": 1e-9, "top_level_tol": 1e-8}, name
        else:
            assert tolerances == {"norm_drift_tol": None, "top_level_tol": None}, name


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario, edit", [
    ("jc_vacuum_exchange", _set(("initial_state",), {"type": "fock", "levels": [0, 0]})),
    ("jc_vacuum_exchange", _set(("model", "params", "omega"), 1e300)),
    ("jc_vacuum_exchange", _set(("model", "params", "nu"), 1e300)),
], ids=["ground_start", "omega_1e300", "nu_1e300"])
def test_an_audit_with_nothing_to_condition_on_exits_3_without_artifacts(tmp_path, capsys,
                                                                         scenario, edit):
    # the readout population of the detector's level 1 is below the floor the
    # deficit conditions on: a tolerance abort with one line on stderr and,
    # with every warning an error, no overflow in the ledger before it, even
    # at frequencies whose squared energies pass the float range
    path = tmp_path / "cfg.json"
    path.write_text(edit(bundled_scenarios()[scenario]))
    assert main(["validate", str(path)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == EXIT_TOLERANCE
    err = capsys.readouterr().err
    assert err.startswith("numerical-tolerance abort: transition probability ")
    assert err.endswith("nothing to condition on\n") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


def _denied(*args, **kwargs):
    raise PermissionError(13, "Permission denied")


@pytest.mark.parametrize("text, deny", [
    ('{"scenario": "caf\u00e9"}'.encode("latin-1"), False),
    (json.dumps(json.loads(bundled_scenarios()["rabi_golden_rule"])).encode(), True),
], ids=["latin_1", "permission_denied"])
def test_a_config_that_cannot_be_decoded_or_read_exits_2_without_artifacts(
        tmp_path, capsys, monkeypatch, text, deny):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    if deny:
        # unreadable files cannot be made as root: the module's open refuses
        monkeypatch.setattr(cli, "open", _denied, raising=False)
    out = tmp_path / "out"
    for args in (["validate", str(path)], ["run", str(path), "--output-dir", str(out)]):
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"invalid configuration: cannot read {path}: ")
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("scenario, key, value", [
    ("signatures_driven_oscillator", "detector_cutoff", 8.0),
    ("beam_splitter_resonance", "field_cutoff", 32.0),
])
def test_a_float_cutoff_exits_2_without_artifacts(tmp_path, capsys, scenario, key,
                                                  value):
    # JSON Schema counts 8.0 as an integer; hilbert.Boson does not
    path = tmp_path / "cfg.json"
    path.write_text(_set(("model", "params", key), value)(bundled_scenarios()[scenario]))
    out = tmp_path / "out"
    for args in (["validate", str(path)], ["run", str(path), "--output-dir", str(out)]):
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err == ("invalid configuration: Boson cutoff must "
                                           f"be an integer >= 2, got {value}\n")
    assert list(tmp_path.iterdir()) == [path]


_NARROW_RATIO = 10.00000000000001       # five ulps above ratio_min = 10


@pytest.mark.parametrize("scenario, block, edit, validate_code, run_code, message", [
    ("rabi_golden_rule", "golden_rule", {"ratio_max": 1e300}, EXIT_CONFIG, EXIT_CONFIG,
     "invalid configuration: schema violation at ['golden_rule', 'ratio_max']"),
    ("rabi_golden_rule", "golden_rule", {"g": 1e300, "ratio_max": 1e150}, EXIT_CONFIG,
     EXIT_CONFIG, "invalid configuration: golden_rule needs finite detunings"),
    ("rabi_golden_rule", "golden_rule", {"ratio_max": _NARROW_RATIO}, EXIT_CONFIG,
     EXIT_CONFIG, "invalid configuration: golden_rule needs finite detunings"),
    ("rabi_golden_rule", "golden_rule", {"ratio_max": _NARROW_RATIO, "points": 3},
     EXIT_OK, EXIT_TOLERANCE, "numerical-tolerance abort: golden-rule fit: need at "
     "least two distinct x"),
    ("gravito_constants", "gravito", {"nu_stop": 1e200}, EXIT_OK, EXIT_TOLERANCE,
     "numerical-tolerance abort: the gravito table leaves the float range"),
    ("gravito_constants", "gravito", {"mass": 1e-320}, EXIT_OK, EXIT_TOLERANCE,
     "numerical-tolerance abort: the gravito table leaves the float range"),
], ids=["ratio_max_1e300", "detuning_overflow", "narrow_ratios", "narrow_fit",
        "nu_stop_1e200", "mass_1e-320"])
def test_a_closed_form_outside_the_float_range_exits_2_or_3_without_artifacts(
        tmp_path, capsys, scenario, block, edit, validate_code, run_code, message):
    cfg = json.loads(bundled_scenarios()[scenario])
    cfg[block].update(edit)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["validate", str(path)]) == validate_code
    capsys.readouterr()
    assert main(["run", str(path), "--output-dir", str(out)]) == run_code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


def _fail_every_write(scan, path):
    raise OSError("disk full")


@pytest.mark.parametrize("failure", ["tolerance", "write"])
def test_a_failed_run_removes_the_parents_it_made(tmp_path, monkeypatch, capsys, failure):
    # kept/ exists before the run and stays; kept/a and kept/a/b are the
    # run's own and go, deepest first
    (tmp_path / "kept").mkdir()
    out = tmp_path / "kept" / "a" / "b" / "out"
    if failure == "tolerance":
        cfg = json.loads(bundled_scenarios()["rabi_golden_rule"])
        cfg["golden_rule"].update(ratio_max=_NARROW_RATIO, points=3)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv, code, before = ["run", str(path), "--output-dir", str(out)], EXIT_TOLERANCE, [path]
    else:
        monkeypatch.setattr(cli, "scan_to_csv", _fail_every_write)
        argv, code, before = _QUICK_SIGNATURES + [str(out)], EXIT_CANTCREAT, []
    assert main(argv) == code
    assert capsys.readouterr().err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == sorted(before + [tmp_path / "kept"])
    assert list((tmp_path / "kept").iterdir()) == []
