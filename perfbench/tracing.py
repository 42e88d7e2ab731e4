"""Spans around the calls into each quantex layer, recorded from outside.

Each public function is wrapped at the name its caller looks it up by
(``quantex.analysis.evolve_driven`` is the name the scans call, and
``quantex.cli.evolve_hybrid`` the one the audit runner calls), so the
program itself is not changed.  A span holds its name, layer, start, end,
parent span and workload; spans stay in memory until the run writes them
out.  A target the program no longer has, or a count its returned object
no longer supports, is reported as absent and its metrics as None.

The per-layer metrics and the end-to-end metric each should move are
listed in ``perfbench/README.md``.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


def _cfg(args, kwargs):
    # evolve_driven(params, psi0, cfg) and evolve_hybrid(model, s0, cfg)
    return args[2] if len(args) > 2 else kwargs["cfg"]


def _steps(args, kwargs, result) -> int:
    return len(_cfg(args, kwargs).time_grid()) - 1


def _states(args, kwargs, result) -> int:
    return len(result.states)


def _bytes_written(args, kwargs, result) -> int:
    out_dir = Path(args[2] if len(args) > 2 else kwargs["out_dir"])
    return sum((out_dir / name).stat().st_size for name in result)


def _ledger_rows(args, kwargs, result) -> int:
    return len(result.times)


_DRIVEN = {"driven_steps": _steps, "states_stored": _states}
_HYBRID = {"hybrid_steps": _steps, "states_stored": _states}
_UNITARY = {"states_stored": _states}

# (module, attribute, layer, group, counters): the group names the spans
# that feed one family of metrics; the counters, {key: fn(args, kwargs,
# result)}, run after the span closes and count from the call's
# configuration or its returned object, never from inside the program.
TARGETS = [
    ("quantex.cli", "run_scenario", "cli", "run", {}),
    ("quantex.cli", "validate_config", "cli", "validate", {}),
    ("quantex.cli", "write_artifacts", "cli", "write",
     {"bytes_written": _bytes_written}),
    ("quantex.cli", "energy_ledger", "analysis", "ledger",
     {"ledger_rows": _ledger_rows}),
    ("quantex.cli", "detuning_scan", "analysis", "scan", {}),
    ("quantex.cli", "intensity_scan", "analysis", "scan", {}),
    ("quantex.cli", "time_scan", "analysis", "scan", {}),
    ("quantex.analysis", "run_point", "analysis", "scan", {}),
    ("quantex.cli", "evolve_driven", "dynamics", "driven", _DRIVEN),
    ("quantex.analysis", "evolve_driven", "dynamics", "driven", _DRIVEN),
    ("quantex.cli", "evolve_hybrid", "dynamics", "hybrid", _HYBRID),
    ("quantex.cli", "evolve_unitary", "dynamics", "unitary", _UNITARY),
    ("quantex.analysis", "evolve_unitary", "dynamics", "unitary", _UNITARY),
    ("quantex.analysis", "evolve_unitary_at", "dynamics", "unitary", _UNITARY),
    ("quantex.cli", "build_beam_splitter_hamiltonian", "models", "build", {}),
    ("quantex.cli", "build_jc_hamiltonian", "models", "build", {}),
    ("quantex.analysis", "build_beam_splitter_hamiltonian", "models", "build", {}),
    ("quantex.analysis", "build_jc_hamiltonian", "models", "build", {}),
    ("quantex.dynamics", "build_driven_oscillator_hamiltonian", "models", "build", {}),
    ("quantex.dynamics", "build_driven_qubit_hamiltonian", "models", "build", {}),
] + [
    ("quantex.analysis", name, "hilbert", "op", {})
    for name in ("number", "pauli", "coherent_state", "basis_state", "ground_state")
] + [
    ("quantex.models", name, "hilbert", "op", {})
    for name in ("annihilation", "creation", "number", "pauli")
]

_DYNAMICS = ("driven", "hybrid", "unitary")

# per-layer metric -> (unit, span groups, counters) it is computed from
METRICS = {
    "cli.validate_s": ("s", ("validate",), ()),
    "cli.write_s": ("s", ("write",), ()),
    "cli.bytes_written": ("bytes", ("write",), ("bytes_written",)),
    "analysis.ledger_s": ("s", ("ledger",), ()),
    "analysis.ledger_rows": ("count", ("ledger",), ("ledger_rows",)),
    "analysis.scan_self_s": ("s", ("scan",), ()),
    "dynamics.driven_s": ("s", ("driven",), ()),
    "dynamics.driven_calls": ("count", ("driven",), ()),
    "dynamics.driven_step_us": ("us", ("driven",), ("driven_steps",)),
    "dynamics.hybrid_s": ("s", ("hybrid",), ()),
    "dynamics.hybrid_step_us": ("us", ("hybrid",), ("hybrid_steps",)),
    "dynamics.unitary_s": ("s", ("unitary",), ()),
    "dynamics.unitary_calls": ("count", ("unitary",), ()),
    "dynamics.states_stored": ("count", _DYNAMICS, ("states_stored",)),
    "models.build_s": ("s", ("build",), ()),
    "models.build_calls": ("count", ("build",), ()),
    "hilbert.op_s": ("s", ("op",), ()),
    "hilbert.op_calls": ("count", ("op",), ()),
    "dynamics.wall_share": ("fraction", _DYNAMICS, ()),
    "models_dynamics_hilbert.wall_share": ("fraction", ("build", "op") + _DYNAMICS, ()),
}


@dataclass
class Span:
    name: str
    layer: str
    group: str
    start: float
    end: float = 0.0
    parent: int | None = None
    workload: str = ""
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._origin = time.perf_counter()
        self.present: set[str] = set()      # groups with a wrapped target
        self.absent: list[str] = []         # targets and counters gone

    def _wrap(self, fn, name, layer, group, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = Span(name, layer, group, time.perf_counter() - self._origin,
                        parent=parent, workload=self.workload)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter() - self._origin
                self._open.pop()
            for key, count in counters.items():
                try:
                    span.counts[key] = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    if key not in self.absent:
                        self.absent.append(key)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every present target for the duration of the block."""
        originals = []
        try:
            for module_name, attr, layer, group, counters in TARGETS:
                name = f"{module_name}.{attr}"
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    module = None
                fn = getattr(module, attr, None)
                if fn is None:
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                self.present.add(group)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, layer, group, counters))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def to_records(self) -> list[dict]:
        return [{"name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
                 "parent": s.parent, "workload": s.workload, **s.counts}
                for s in self.spans]


def _outermost(spans: list[Span], first: int, groups) -> float:
    """Summed duration of the spans in ``groups`` that no other span of
    ``groups`` encloses, so nested calls are not counted twice."""
    total = 0.0
    for span in spans[first:]:
        if span.group not in groups:
            continue
        parent = span.parent
        while parent is not None and spans[parent].group not in groups:
            parent = spans[parent].parent
        if parent is None:
            total += span.end - span.start
    return total


def _self_time(spans: list[Span], first: int, groups) -> float:
    """Duration of the spans in ``groups`` minus that of their direct children."""
    total = 0.0
    for index in range(first, len(spans)):
        span = spans[index]
        if span.group in groups:
            total += span.end - span.start
        if span.parent is not None and spans[span.parent].group in groups:
            total -= span.end - span.start
    return total


def layer_metrics(tracer: Tracer, first: int, wall_s: float) -> dict:
    """Per-layer metrics of the spans recorded since ``first`` (one pass);
    a metric whose spans the program no longer has is None."""
    spans = tracer.spans
    count = lambda group: sum(1 for s in spans[first:] if s.group == group)
    counter = lambda key: sum(s.counts.get(key, 0) for s in spans[first:])
    time_of = lambda *groups: _outermost(spans, first, groups)
    driven_steps = counter("driven_steps")
    hybrid_steps = counter("hybrid_steps")
    values = {
        "cli.validate_s": time_of("validate"),
        "cli.write_s": time_of("write"),
        "cli.bytes_written": counter("bytes_written"),
        "analysis.ledger_s": time_of("ledger"),
        "analysis.ledger_rows": counter("ledger_rows"),
        "analysis.scan_self_s": _self_time(spans, first, ("scan",)),
        "dynamics.driven_s": time_of("driven"),
        "dynamics.driven_calls": count("driven"),
        "dynamics.driven_step_us": 1e6 * time_of("driven") / driven_steps
        if driven_steps else 0.0,
        "dynamics.hybrid_s": time_of("hybrid"),
        "dynamics.hybrid_step_us": 1e6 * time_of("hybrid") / hybrid_steps
        if hybrid_steps else 0.0,
        "dynamics.unitary_s": time_of("unitary"),
        "dynamics.unitary_calls": count("unitary"),
        "dynamics.states_stored": counter("states_stored"),
        "models.build_s": time_of("build"),
        "models.build_calls": count("build"),
        "hilbert.op_s": time_of("op"),
        "hilbert.op_calls": count("op"),
        "dynamics.wall_share": time_of(*_DYNAMICS) / wall_s,
        "models_dynamics_hilbert.wall_share": time_of("build", "op", *_DYNAMICS) / wall_s,
    }
    return {name: None if any(g not in tracer.present for g in groups)
            or any(c in tracer.absent for c in counters) else values[name]
            for name, (_, groups, counters) in METRICS.items()}
