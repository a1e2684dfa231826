"""The report schema checker against the reference JSON Schema validator."""
from __future__ import annotations

import json

import jsonschema
import numpy as np
import pytest

from itedist import ColumnMap, Sample, generate, sample_to_csv
from itedist._rng import derive_stream
from itedist.cli import main
from itedist.reports import REPORT_SCHEMA, _check

_WRONG_TYPES = (True, False, 0, 1, 1.0, 1.5, "1", None, [], {})


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """One analyze, compare and oracle report, each with every section filled."""
    root = tmp_path_factory.mktemp("reports")
    g0 = generate(150, derive_stream(77, 0))
    g1 = generate(150, derive_stream(77, 1))
    sample_to_csv(Sample(np.concatenate([g0.sample.outcomes, g1.sample.outcomes]),
                         np.concatenate([g0.sample.treatments, g1.sample.treatments]),
                         np.concatenate([g0.sample.instruments, g1.sample.instruments]),
                         np.repeat([0, 1], 150).reshape(-1, 1)),
                  root / "in.csv", ColumnMap("y", "d", "z", ("grp",)))
    common = ["--input", str(root / "in.csv"), "--covariate-cols", "grp",
              "--bootstrap", "20", "--alpha", "0.1", "--grid-size", "3"]
    argvs = {
        "analyze": ["analyze", *common, "--group", "grp=0",
                    "--report", "prob-positive,quantile,iqr,cdf,bands"],
        "compare": ["compare", *common, "--group0", "grp=0", "--group1", "grp=1"],
        "oracle": ["oracle", "--tau", "0.5", "--v", "2", "--y", "2.25", "--format", "json"],
    }
    documents = {}
    for command, argv in argvs.items():
        out = root / f"{command}.json"
        assert main([*argv, "--output", str(out)]) == 0
        documents[command] = json.loads(out.read_text())
    assert documents["analyze"]["bands"] and documents["compare"]["tests"]
    return documents


def _mutations(document):
    """Copies of ``document`` with one edit each: a key dropped, an unknown
    key added, or a value swapped for one of ``_WRONG_TYPES``.  Lists are
    entered through their first item only."""
    def nodes(node, path):
        yield path, node
        children = node.items() if isinstance(node, dict) else enumerate(node[:1]) \
            if isinstance(node, list) else ()
        for key, child in children:
            yield from nodes(child, (*path, key))

    def edited(path, edit):
        copy = json.loads(json.dumps(document))
        parent = copy
        for key in path[:-1]:
            parent = parent[key]
        edit(parent, path[-1])
        return copy

    for path, node in list(nodes(document, ())):
        if isinstance(node, dict):
            for key in node:
                yield edited((*path, key), lambda parent, k: parent.pop(k))
            yield edited((*path, "unexpected"), lambda parent, k: parent.update({k: 1}))
        if path:
            for value in _WRONG_TYPES:
                yield edited(path, lambda parent, k, v=value: parent.__setitem__(k, v))


def _verdict(document):
    try:
        _check(document, REPORT_SCHEMA)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("command", ["analyze", "compare", "oracle"])
def test_checker_agrees_with_draft_2020_12(command, reports):
    validator = jsonschema.Draft202012Validator(REPORT_SCHEMA)
    assert _verdict(reports[command]) is None
    outcomes = []
    for document in _mutations(reports[command]):
        errors = list(validator.iter_errors(document))
        message = _verdict(document)
        assert (message is None) == (not errors), (message, errors[:1])
        if message is not None:
            # the checker names the path of one of the reference errors
            path = message.split(" at ", 1)[1].split(": ", 1)[0]
            assert path in {error.json_path for error in errors}, (message, errors)
        outcomes.append(message is None)
    assert sum(outcomes) > 0 and len(outcomes) - sum(outcomes) > 0


@pytest.mark.parametrize("path, value, accepted", [
    (("report_version",), True, False), (("report_version",), 1.0, True),
    (("report_version",), 2, False), (("metadata", "seed"), True, False),
    (("metadata", "seed"), 1.0, True), (("metadata", "seed"), 1.5, False),
    (("metadata", "alpha"), False, False), (("metadata", "alpha"), 1, True),
    (("metadata", "command"), None, False), (("intervals",), {}, False),
    (("tests",), [], True),
])
def test_draft_2020_12_edge_cases(path, value, accepted, reports):
    document = json.loads(json.dumps(reports["analyze"]))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    assert jsonschema.Draft202012Validator(REPORT_SCHEMA).is_valid(document) is accepted
    message = _verdict(document)
    assert (message is None) is accepted
    if not accepted:
        assert f"at $.{'.'.join(path)}:" in message


@pytest.mark.parametrize("schema", [
    {"type": "object", "minProperties": 1}, {"additionalProperties": {}},
    {"type": "boolean"}, {"const": [1]},
])
def test_unsupported_schema_keyword_raises(schema):
    with pytest.raises(NotImplementedError):
        _check({}, schema)
