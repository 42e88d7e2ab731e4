"""Measuring process of the benchmark; ``run.py`` starts it, fresh, per task.

    child.py setup CONFIG...
        import quantex, then load_config + validate_config each config;
        prints {"setup_s": ...}.
    child.py measure WORKLOAD CONFIG_DIR SECONDS TRACE SPANS_FILE
        a warm-up pass, then timed passes until SECONDS have passed and
        there are at least MIN_PASSES of them (with TRACE 1, untraced and
        traced passes alternate, at least one of each); prints one JSON
        object with the pass times, the check results, peak RSS, the
        machine block and, when TRACE is 1, the per-layer metrics.

A pass is ``cli.validate_config(cli.load_config(path))`` then
``cli.run_scenario`` with the default workers for every config, writing
artifacts to a fresh directory.  quantex is imported from ``src/`` of the
checkout this file sits in, never from elsewhere.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

MIN_PASSES = 3  # timed passes of an untraced run, however long they take

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def _import_quantex():
    try:
        import quantex
        from quantex import cli
    except ImportError as exc:
        sys.exit(f"cannot import quantex from {ROOT / 'src'}: {exc}")
    if Path(quantex.__file__).resolve().parent != ROOT / "src" / "quantex":
        sys.exit(f"quantex imported from {quantex.__file__}, not from {ROOT / 'src'}")
    return cli


def setup(paths: list[str]) -> dict:
    cli = _import_quantex()
    for path in paths:
        cli.validate_config(cli.load_config(path))
    return {"setup_s": time.perf_counter() - _T_START}


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _csv_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.rglob("*.csv")):
        digest.update(str(path.relative_to(out_dir)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(workload: str, config_dir: str, seconds: float, trace: bool,
            spans_file: str) -> dict:
    cli = _import_quantex()
    import oracles
    import tracing
    import workloads

    paths = sorted(Path(config_dir).glob("*.json"))
    configs = [json.loads(p.read_text()) for p in paths]
    tracer = tracing.Tracer(workload)
    checks = oracles.CheckResult()
    reference = None

    def one_pass(work: Path, index: int) -> float:
        nonlocal reference
        out = work / f"pass{index}"
        raised = {}
        start = time.perf_counter()
        for path, cfg in zip(paths, configs):
            try:
                cli.run_scenario(cli.validate_config(cli.load_config(str(path))),
                                 out / cfg["scenario"])
            except Exception as exc:  # a raising scenario fails, the run goes on
                raised[cfg["scenario"]] = traceback.format_exception_only(exc)[-1].strip()
        wall = time.perf_counter() - start
        result = oracles.CheckResult()
        for cfg in configs:
            operations = workloads.work_counts(cfg)["operations"]
            if cfg["scenario"] in raised:
                result.fail(operations, f"pass {index}: {raised[cfg['scenario']]}")
                continue
            try:
                result.merge(oracles.check_outputs(cfg, out / cfg["scenario"]))
            except (OSError, KeyError, IndexError, ValueError) as exc:
                result.fail(operations, f"pass {index}: unreadable artifacts: {exc!r}")
        out.mkdir(parents=True, exist_ok=True)
        digest = _csv_digest(out)
        reference = reference or digest
        if digest != reference:
            result.failed = result.attempted
            result.reasons.append(f"pass {index}: CSV bytes differ from pass 0")
        checks.merge(result)
        shutil.rmtree(out)
        return wall

    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    untraced, traced, layers = [], [], []
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        work = Path(tmp)
        warmup = one_pass(work, 0)
        start = time.perf_counter()
        index = 1
        enough = (lambda: traced) if trace else (lambda: len(untraced) >= MIN_PASSES)
        while time.perf_counter() - start < seconds or not enough():
            if trace and len(traced) < len(untraced):
                first = len(tracer.spans)
                with tracer.installed():
                    wall = one_pass(work, index)
                traced.append(wall)
                layers.append(tracing.layer_metrics(tracer, first, wall))
            else:
                untraced.append(one_pass(work, index))
            index += 1

    out = {
        "warmup_s": warmup,
        "wall_s": untraced,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "reasons": checks.reasons,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }
    if trace:
        per_layer = {}
        for name, (unit, _, _) in tracing.METRICS.items():
            values = [m[name] for m in layers]
            per_layer[name] = {"value": None if None in values
                               else statistics.median(values), "unit": unit}
        per_layer["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(untraced),
            "unit": "s"}
        per_layer["check.oracle_max_rel_err"] = {"value": checks.max_rel_err,
                                                 "unit": "ratio"}
        out.update(traced_wall_s=traced, per_layer=per_layer, absent=tracer.absent)
        with open(spans_file, "w", encoding="ascii") as fh:
            json.dump(tracer.to_records(), fh)
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        result = setup(argv[1:])
    elif argv[:1] == ["measure"] and len(argv) == 6:
        workload, config_dir, seconds, trace, spans_file = argv[1:]
        result = measure(workload, config_dir, float(seconds), trace == "1", spans_file)
    else:
        sys.exit(__doc__)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
