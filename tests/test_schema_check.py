"""The scenario schema's own check in ``cli`` against jsonschema, the
reference implementation of draft 2020-12 that the runtime no longer
imports."""

import copy
import functools
import importlib.util
import json
import operator
import random
import re
from pathlib import Path

import jsonschema
import pytest

from quantex import cli
from quantex.cli import bundled_scenarios, validate_config
from quantex.errors import ConfigError

# a bool, 8.0 (an integer to JSON Schema), negatives, zeros, values past a
# bound, strings off every pattern and enum (a name that ends in a newline,
# which Python's ``$`` alone would let through), and the wrong containers
_VALUES = ["x", "Bad name/", "", "rabi\n", [], [0, -1], {}, None, True, False, 8.0,
           8, -1, -0.5, 0, 0.0, 1e200, "rk4", {"type": "fock", "levels": [0]}]
_KEYS = ["colour", "target", "scale", "type", "p", "levels", "method", "csv"]
# the keywords whose violations the sweep must reach
_FAILING = {"type", "required", "additionalProperties", "enum", "minimum",
            "exclusiveMinimum", "maximum", "pattern", "minProperties", "minItems"}


def _workload_configs(seeds=(0,)) -> list[dict]:
    """The benchmark's generated configs, every workload's for each seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [cfg for name in sorted(workloads.TEMPLATES) for seed in seeds
            for cfg in workloads.generate(name, seed)]


def _nodes(value, path=()):
    """(path, value) of every node below the root, depth first."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,), item
        yield from _nodes(item, path + (key,))


def _mutate(cfg: dict, rng: random.Random) -> dict:
    """``cfg`` with one to three random edits: a key deleted, an unknown or
    misplaced key added, a value swapped, or an object or array emptied."""
    cfg = copy.deepcopy(cfg)
    for _ in range(rng.choice((1, 1, 2, 3))):
        nodes = list(_nodes(cfg))
        edit = rng.choice(("delete", "add", "swap", "swap", "empty"))
        if edit == "add":
            dicts = [cfg] + [node for _, node in nodes if isinstance(node, dict)]
            rng.choice(dicts)[rng.choice(_KEYS)] = copy.deepcopy(rng.choice(_VALUES))
            continue
        if edit == "empty":
            nodes = [node for node in nodes if isinstance(node[1], (dict, list))]
        if not nodes:
            continue
        path, node = rng.choice(nodes)
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if edit == "delete" and isinstance(parent, dict):
            del parent[path[-1]]
        elif edit == "empty":
            parent[path[-1]] = type(node)()
        else:
            parent[path[-1]] = copy.deepcopy(rng.choice(_VALUES))
    return cfg


def _past_bounds(cfg: dict) -> list[dict]:
    """``cfg`` with each of its numbers in turn set to 1e200, past every
    upper bound: the random edits reach ``maximum``, which only
    ``golden_rule.ratio_max`` has, in about a third of seeds."""
    cases = []
    for path, node in _nodes(cfg):
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            case = copy.deepcopy(cfg)
            functools.reduce(operator.getitem, path[:-1], case)[path[-1]] = 1e200
            cases.append(case)
    return cases


def _cases(count: int, seed: int = 2030) -> list[dict]:
    bases = [json.loads(text) for text in bundled_scenarios().values()]
    bases += _workload_configs()
    rng = random.Random(seed)
    return (bases + [case for base in bases for case in _past_bounds(base)]
            + [_mutate(rng.choice(bases), rng) for _ in range(count)])


def _check(cfg):
    schema = cli._schema()
    return [(list(path), message)
            for path, message in cli._violations(cfg, schema, schema)]


def test_the_check_agrees_with_jsonschema_on_seeded_mutations():
    reference = jsonschema.Draft202012Validator(cli._schema())
    cases = _cases(2400)
    rejected = compared = 0
    seen = set()
    for cfg in cases:
        errors = list(reference.iter_errors(cfg))
        got = _check(cfg)
        assert bool(got) == bool(errors), cfg
        rejected += bool(errors)
        seen |= {error.validator for error in errors}
        # every violation, with its path and its words, in jsonschema's
        # order, which is schema order; so the first one too
        assert got == [(list(e.absolute_path), e.message) for e in errors], cfg
        compared += len(errors) == 1
    assert len(cases) > 2400 and rejected > 2000 and compared > 800
    assert seen >= _FAILING


def _keywords(node) -> set[str]:
    """The keywords of ``node`` and of every schema below it, reached through
    ``properties``, ``$defs``, ``allOf``, ``if``, ``then`` and ``items``."""
    found = set(node)
    subs = [*node.get("properties", {}).values(), *node.get("$defs", {}).values(),
            *node.get("allOf", []), *(node[key] for key in ("if", "then", "items")
                                      if key in node)]
    for sub in subs:
        found |= _keywords(sub)
    return found


def test_the_check_implements_exactly_the_keywords_the_schema_uses():
    # a keyword the check lists but the schema drops is dead code, and one in
    # a branch that no bundled config reaches would raise only there
    assert _keywords(cli._schema()) == cli._KEYWORDS


@pytest.mark.parametrize("schema", [
    {"type": "number", "multipleOf": 2},
    {"properties": {"n": {"multipleOf": 2}}},
    {"additionalProperties": {"type": "string"}},
    {"$ref": "other.schema.json#/$defs/n"},
    {"if": {"type": "number"}, "then": {"minimum": 0}, "else": {"type": "string"}},
    {"oneOf": [{"type": "number"}, {"type": "string"}]},
], ids=["multipleOf", "nested_multipleOf", "additionalProperties_schema",
        "remote_ref", "else", "oneOf"])
@pytest.mark.parametrize("instance", [{"n": 3}, {"n": 4}, 3, 4, "x"])
def test_a_keyword_the_check_does_not_implement_raises(schema, instance):
    # whether or not the instance would meet it: a keyword is never passed
    # over as if it held
    if "properties" in schema and not isinstance(instance, dict):
        instance = {"n": instance}
    with pytest.raises(NotImplementedError):
        list(cli._violations(instance, schema, schema))


@pytest.mark.parametrize("initial, message", [
    ({"type": "fock", "levels": []}, "['initial_state', 'levels']: [] should be non-empty"),
    ({"type": "hybrid", "x": 0.1}, "['initial_state']: 'p' is a required property"),
    ({"type": "coherent", "alpha": 1.0},
     "['initial_state', 'type']: 'coherent' is not one of ['fock', 'hybrid']"),
    ({"type": "fock", "levels": [0], "x": 0.1},
     "['initial_state']: Additional properties are not allowed ('x' was unexpected)"),
    ({"x": 0.1, "p": 0.0}, "['initial_state']: 'type' is a required property"),
    ([], "['initial_state']: [] is not of type 'object'"),
], ids=["fock", "hybrid", "no_branch", "extra_key", "no_type", "not_an_object"])
def test_a_failing_initial_state_reports_the_branch_its_type_names(initial, message):
    # the schema branches on ``type`` by if/then, so only the named branch
    # applies to a start
    cfg = json.loads(bundled_scenarios()["oscillator_backreaction_audit"])
    cfg["initial_state"] = initial
    with pytest.raises(ConfigError) as got:
        validate_config(cfg)
    assert str(got.value) == f"schema violation at {message}"


def _with(name: str, key: str, **changes) -> dict:
    """Bundled scenario ``name`` with ``changes`` merged into its block ``key``."""
    cfg = json.loads(bundled_scenarios()[name])
    cfg[key] = {**cfg[key], **changes}
    return cfg


@pytest.mark.parametrize("cfg, path, message", [
    ({**json.loads(bundled_scenarios()["gravito_constants"]),
      "evolution": json.loads(bundled_scenarios()["jc_vacuum_exchange"])["evolution"]},
     [], "Additional properties are not allowed ('evolution' was unexpected)"),
    (_with("jc_vacuum_exchange", "output", csv_prefix="run"),
     ["output"], "Additional properties are not allowed ('csv_prefix' was unexpected)"),
    (_with("qubit_drive_threshold", "evolution", method="matrix_exponential"),
     ["evolution", "method"], "'midpoint_piecewise' was expected"),
    (_with("jc_vacuum_exchange", "evolution", method="midpoint_piecewise"),
     ["evolution", "method"], "'matrix_exponential' was expected"),
], ids=["stray_block", "stray_output", "method_driven", "method_quantized"])
def test_the_schema_alone_rejects_what_a_kind_or_a_family_does_not_take(cfg, path, message):
    # the blocks and outputs of each kind and the method of each family are
    # the schema's rules, so a validator used alone rejects them too
    errors = list(jsonschema.Draft202012Validator(cli._schema()).iter_errors(cfg))
    assert [(list(e.absolute_path), e.message) for e in errors] == [(path, message)]
    assert _check(cfg) == [(path, message)]
    with pytest.raises(ConfigError, match=f"^schema violation at {re.escape(str(path))}: "):
        validate_config(cfg)
