"""quantex benchmark: one workload, one seed, one run.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn.  Generates the
workload's scenario configs from the seed, then runs fresh interpreters
(``child.py``): one that makes a warm-up pass and then timed passes until
S seconds have passed (at least three), and, with ``--trace 0``,
``SETUP_REPEATS`` that each import quantex and validate the configs.
Every pass is checked against the exact oracles in ``oracles.py`` and
against the CSV bytes of the first pass.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it give the failure share, the pass statistics and the
machine.  Spans and full results go to ``.perfbench_out/``.

Run from the root of the repository; exits non-zero without a result
line when quantex cannot be imported or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 160


def _cpu_ticks() -> list[int]:
    """The aggregate cpu line of /proc/stat: user nice system idle iowait
    irq softirq steal ..."""
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _child(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child {args[0]} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _percentile_line(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (None until there are enough samples)."""
    n = len(samples)
    best = None
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            best = pct
            break
    out = {"samples": n, "median": statistics.median(samples), "values": samples}
    if best is not None:
        out[f"p{best}"] = statistics.quantiles(samples, n=100)[best - 1]
    return out


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    configs = workloads.generate(workload, seed)
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    ticks0 = _cpu_ticks()
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        paths = workloads.write_configs(configs, Path(tmp))
        spans_file = scratch / f"spans-{workload}-seed{seed}.json"
        setup = lambda: _child("setup", *map(str, paths))["setup_s"]
        # set-up samples before and after the timed passes, so that a slow
        # spell of the machine does not hit all of them
        setups = [] if trace else [setup()]
        measured = _child("measure", workload, tmp, str(seconds), "1" if trace else "0",
                          str(spans_file))
        if not trace:
            setups += [setup() for _ in range(SETUP_REPEATS - 1)]
    ticks1 = _cpu_ticks()
    delta = [b - a for a, b in zip(ticks0, ticks1)]
    clock = os.sysconf("SC_CLK_TCK")

    if trace:
        metrics = {name: {"value": m["value"] if m["value"] is not None else 0.0,
                          "unit": m["unit"]}
                   for name, m in measured["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(measured["wall_s"]), "unit": "s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "counts": workloads.total_counts(configs),
        "failed_frac": measured["failed"] / measured["attempted"],
        "failure_reasons": measured["reasons"],
        "wall_s": _percentile_line(measured["wall_s"]),
        "warmup_s": measured["warmup_s"],
        "traced_wall_s": measured.get("traced_wall_s"),
        "setup_s": setups,
        "absent": [name for name, m in measured.get("per_layer", {}).items()
                   if m["value"] is None] + measured.get("absent", []),
        "provenance": {
            "git_sha": _git_sha(),
            **measured["machine"],
            "steal_s": delta[7] / clock if len(delta) > 7 else None,
            "steal_share": delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else None,
        },
        "result": {
            "correct": measured["failed"] == 0,
            "attempted": measured["attempted"],
            "failed": measured["failed"],
            "metrics": metrics,
        },
    }


def _print(report: dict):
    result = report["result"]
    print(f"workload {report['workload']} seed {report['seed']} "
          f"trace {int(report['trace'])}:")
    print(f"  failed_frac = {report['failed_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for reason in report["failure_reasons"]:
        print(f"  failed: {reason}")
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    if report["absent"]:
        print("  absent (program no longer has these; reported as 0): "
              + ", ".join(report["absent"]))
    print("pass times: " + json.dumps(report["wall_s"]))
    print("provenance: " + json.dumps(report["provenance"], sort_keys=True))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.TEMPLATES),
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for workload in [args.workload] if args.workload else list(workloads.TEMPLATES):
        report = run(workload, args.seed, args.seconds, bool(args.trace))
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        (ROOT / ".perfbench_out" / name).write_text(json.dumps(report, indent=2) + "\n")
        _print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
