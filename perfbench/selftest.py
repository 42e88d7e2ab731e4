"""Self-checks of the benchmark: generator, oracles and artifact checks.

    python3 perfbench/selftest.py

* every generated config passes ``cli.validate_config``, and the step and
  point counts are the same on every seed, on the development seed 0 and
  on seed 7;
* each exact oracle agrees with the package at the template values, and
  with a second route where the package has one;
* the artifact checks pass exact values and flag a wrong probability, an
  error-tagged point, a failed signature report and a drifting ledger.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from scipy.linalg import expm  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from quantex import cli, dynamics, models  # noqa: E402
from quantex.analysis import (  # noqa: E402
    conditioned_energy_deficit,
    default_initial_state,
    energy_ledger,
)
from quantex.hilbert import basis_state, ground_state  # noqa: E402

SEEDS = (0, 7)


def _template(workload: str, scenario: str) -> dict:
    return next(cfg for cfg in workloads.TEMPLATES[workload]
                if cfg["scenario"] == scenario)


class GeneratorTest(unittest.TestCase):

    def test_every_config_validates(self):
        for workload in workloads.TEMPLATES:
            for seed in SEEDS:
                for cfg in workloads.generate(workload, seed):
                    with self.subTest(workload=workload, seed=seed,
                                      scenario=cfg["scenario"]):
                        cli.validate_config(cfg)

    def test_counts_fixed_across_seeds(self):
        for workload, templates in workloads.TEMPLATES.items():
            expected = workloads.total_counts(templates)
            for seed in SEEDS:
                with self.subTest(workload=workload, seed=seed):
                    self.assertEqual(
                        workloads.total_counts(workloads.generate(workload, seed)),
                        expected)

    def test_seed_is_deterministic_and_moves_parameters(self):
        first = workloads.generate("ledger_audits", 3)
        self.assertEqual(first, workloads.generate("ledger_audits", 3))
        self.assertNotEqual(first, workloads.generate("ledger_audits", 4))
        for cfg, template in zip(first, workloads.TEMPLATES["ledger_audits"]):
            omega = cfg["model"]["params"]["omega"]
            self.assertLessEqual(abs(omega - template["model"]["params"]["omega"]),
                                 workloads.SPREAD)
            self.assertEqual(cfg["evolution"], template["evolution"])


class OracleTest(unittest.TestCase):

    def test_driven_beta_matches_package_quadrature(self):
        # the package integrates the drive acceleration; at nu = omega = 1
        # it is -x, so the amplitudes agree up to sign
        p = models.DrivenOscillatorParams(omega=1.0, nu=1.0, coupling=0.001, x0=1.0)
        for t in (0.5, 7.3, 20.0):
            exact = oracles.driven_beta(p.omega, p.nu, p.coupling, p.x0, t)
            self.assertAlmostEqual(abs(exact), abs(dynamics.coherent_amplitude_beta(p, t)),
                                   delta=1e-10 * abs(exact))

    def test_driven_probability_matches_evolve_driven(self):
        cfg = _template("driven_signatures", "signatures_driven_oscillator")
        ev = dynamics.EvolutionConfig(dt=cfg["evolution"]["dt"],
                                      t_max=cfg["evolution"]["t_max"],
                                      method=dynamics.Method.MIDPOINT)
        for nu in (1.0, 0.4, 1.7):
            p = models.DrivenOscillatorParams(omega=1.0, nu=nu, coupling=0.001, x0=1.0,
                                              detector_cutoff=8)
            traj = dynamics.evolve_driven(p, None, ev)
            exact = oracles.p_one(oracles.driven_beta(1.0, nu, 0.001, 1.0,
                                                      float(traj.times[-1])))
            self.assertLess(abs(traj.final_state().population(0, 1) - exact) / exact,
                            oracles.DRIVEN_RTOL)

    def test_beam_splitter_beta_matches_matrix_exponential(self):
        for nu, omega, g, t in ((1.0, 1.0, 0.001, 10.0), (0.3, 1.1, 0.02, 3.7)):
            u = expm(-1j * np.array([[nu, g], [g, omega]]) * t)
            self.assertAlmostEqual(abs(oracles.beam_splitter_beta(nu, omega, g, 2.0, t)
                                       - u[1, 0] * 2.0), 0.0, delta=1e-15)

    def test_beam_splitter_probability_matches_evolve_unitary(self):
        cfg = _template("quantized_signatures", "signatures_beam_splitter")
        prm = dict(cfg["model"]["params"])
        for nu in (1.0, 0.55):
            prm["nu"] = nu
            p = models.BeamSplitterParams(**prm)
            spec = models.ModelSpec(models.ModelFamily.BEAM_SPLITTER, p)
            t = cfg["evolution"]["t_max"]
            traj = dynamics.evolve_unitary_at(models.build_beam_splitter_hamiltonian(p),
                                              default_initial_state(spec), [t],
                                              dynamics.EvolutionConfig(dt=0.5, t_max=t))
            exact = oracles.p_one(oracles.beam_splitter_beta(nu, p.omega, p.g, p.alpha, t))
            self.assertLess(abs(traj.final_state().population(1, 1) - exact) / exact,
                            oracles.BEAM_SPLITTER_RTOL)
            # first-order Dyson is the package's own closed form
            dyson = dynamics.dyson_first_order(p, t).closed_form
            self.assertLess(abs(dyson - exact) / exact, 1e-3)

    def test_jc_excited_population(self):
        cfg = _template("ledger_audits", "jc_vacuum_exchange")
        p = models.JaynesCummingsParams(**cfg["model"]["params"])
        ev = dynamics.EvolutionConfig(dt=cfg["evolution"]["dt"],
                                      t_max=cfg["evolution"]["t_max"])
        traj = dynamics.evolve_unitary(models.build_jc_hamiltonian(p),
                                       basis_state(p.space, [1, 0]), ev)
        worst = max(abs(s.population(1, 1) - oracles.jc_excited(p.g, t))
                    for t, s in zip(traj.times, traj.states))
        self.assertLess(worst, oracles.JC_ATOL)

    def test_prescribed_deficit_is_one_quantum(self):
        cfg = _template("ledger_audits", "energy_audit_semiclassical")
        p = models.DrivenOscillatorParams(**cfg["model"]["params"])
        spec = models.ModelSpec(models.ModelFamily.OSCILLATOR_DRIVE, p)
        traj = dynamics.evolve_driven(p, None, dynamics.EvolutionConfig(
            dt=0.01, t_max=cfg["evolution"]["t_max"], method=dynamics.Method.MIDPOINT))
        report = conditioned_energy_deficit(traj, spec)
        self.assertLessEqual(abs(report.deficit - p.omega), oracles.DEFICIT_ATOL)

    def test_hybrid_drift_within_bound(self):
        for scenario in ("oscillator_backreaction_audit", "qubit_backreaction_audit"):
            cfg = _template("ledger_audits", scenario)
            spec = cli.validate_config(cfg)
            s0 = dynamics.HybridState(cfg["initial_state"]["x"],
                                      cfg["initial_state"]["p"],
                                      ground_state(spec.model.params.space))
            traj = dynamics.evolve_hybrid(spec.model, s0, spec.evolution)
            drift = energy_ledger(traj, spec.model).total_drift()
            self.assertLessEqual(drift, oracles.HYBRID_DRIFT_QUANTA * spec.model.params.omega)


class ArtifactCheckTest(unittest.TestCase):
    """The checks on hand-written artifacts: exact values pass, every kind
    of wrong output fails."""

    def setUp(self):
        self.cfg = workloads.generate("driven_signatures", 0)[0]
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.dir = Path(tmp.name)

    def _write(self, corrupt=None, error=None, all_pass=True):
        for axis in ("detuning", "intensity", "time"):
            block = self.cfg["scans"][axis]
            lines = [f"{axis},probability,error"]
            for i, value in enumerate(workloads.axis_values(block)):
                prob = oracles.scan_oracle(self.cfg, axis, value)
                tag = ""
                if (axis, i) == corrupt:
                    prob *= 1.0 + 10 * oracles.DRIVEN_RTOL
                if (axis, i) == error:
                    prob, tag = math.nan, "ToleranceError: top Fock level"
                lines.append(f"{value!r},{prob!r},{tag}")
            (self.dir / f"signatures_{axis}.csv").write_text("\n".join(lines) + "\n")
        (self.dir / "signature_report.json").write_text(json.dumps({"all_pass": all_pass}))
        return oracles.check_outputs(self.cfg, self.dir)

    def test_exact_values_pass(self):
        result = self._write()
        self.assertEqual((result.attempted, result.failed), (75, 0))

    def test_wrong_probability_fails_one_point(self):
        self.assertEqual(self._write(corrupt=("intensity", 3)).failed, 1)

    def test_error_tag_fails_one_point(self):
        self.assertEqual(self._write(error=("time", 0)).failed, 1)

    def test_failed_report_fails_every_point(self):
        self.assertEqual(self._write(all_pass=False).failed, 75)

    def test_hybrid_drift_fails(self):
        cfg = _template("ledger_audits", "qubit_backreaction_audit")
        rows = ["time,e_total", "0.0,1.0", "0.1,1.0", f"0.2,{1.0 + 0.011!r}"]
        (self.dir / cfg["output"]["csv"]).write_text("\n".join(rows) + "\n")
        self.assertEqual(oracles.check_outputs(cfg, self.dir).failed, 1)


if __name__ == "__main__":
    unittest.main()
