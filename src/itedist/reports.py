"""Report documents emitted by the command-line interface.

A report is a JSON object with a fixed, versioned schema.  Serialization is
canonical (sorted keys, native floats), so a rerun with the same settings is
byte-identical; the ``reproducibility`` block holds everything needed to do
that rerun.  Volatile diagnostics (wall time, redraw progress) go to the
logger, never into the file.

Every JSON report is checked against :data:`REPORT_SCHEMA` before it is
written, by a small checker here rather than the ``jsonschema`` package, so no
command loads it.  The checker implements the keywords the schema uses
(``type``, ``const``, ``required``, ``properties``, ``additionalProperties:
false``, ``items``) with JSON Schema Draft 2020-12 semantics and refuses any
other keyword; a document that fails raises ``ValueError`` naming the JSON
path of the offending value.
"""
from __future__ import annotations

import csv
import json
import numbers
from dataclasses import dataclass, field

import numpy as np

REPORT_VERSION = 1

REPORT_SCHEMA = {
    "type": "object",
    "required": ["report_version", "metadata", "reproducibility",
                 "point_estimates", "intervals", "bands", "tests"],
    "additionalProperties": False,
    "properties": {
        "report_version": {"const": REPORT_VERSION},
        "metadata": {
            "type": "object",
            "required": ["command", "package_version", "seed", "bootstrap",
                         "alpha", "n_per_group", "redraws"],
            "properties": {
                "command": {"type": "string"},
                "package_version": {"type": "string"},
                "seed": {"type": "integer"},
                "bootstrap": {"type": "integer"},
                "alpha": {"type": "number"},
                "n_per_group": {"type": "object"},
                "redraws": {"type": "integer"},
            },
        },
        "reproducibility": {"type": "object"},
        "point_estimates": {"type": "object"},
        "intervals": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["target", "lo", "hi", "b_used", "redraws"],
            },
        },
        "bands": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["target", "kind", "critical_value", "grid",
                             "center", "half_width"],
            },
        },
        "tests": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["hypothesis", "statistic", "critical_value",
                             "reject", "alpha"],
            },
        },
    },
}


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # JSON has no booleans among its numbers, and 1.0 is an integer.
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
}
_KEYWORDS = {"type", "const", "required", "properties", "additionalProperties",
             "items"}


def _check(value, schema: dict, path: str = "$") -> None:
    """Raise ``ValueError`` where ``value`` does not match ``schema``.

    Draft 2020-12 semantics for the keywords in ``_KEYWORDS`` only (``const``
    a scalar, ``additionalProperties`` false); a schema node using anything
    else raises ``NotImplementedError``, so the schema cannot outgrow it.
    """
    if (set(schema) - _KEYWORDS or schema.get("type", "object") not in _TYPES
            or schema.get("additionalProperties", False) is not False
            or isinstance(schema.get("const"), (dict, list))):
        raise NotImplementedError(f"report schema node not supported: {schema!r}")

    def fail(reason: str):
        raise ValueError(f"report does not match its schema at {path}: {reason}")

    if "type" in schema and not _TYPES[schema["type"]](value):
        fail(f"expected {schema['type']}, got {value!r}")
    if "const" in schema and (isinstance(value, bool) != isinstance(schema["const"], bool)
                              or value != schema["const"]):
        fail(f"expected {schema['const']!r}, got {value!r}")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        missing = [key for key in schema.get("required", ()) if key not in value]
        if missing:
            fail(f"missing key(s) {missing}")
        if "additionalProperties" in schema and set(value) - set(properties):
            fail(f"unexpected key(s) {sorted(set(value) - set(properties))}")
        for key, subschema in properties.items():
            if key in value:
                _check(value[key], subschema, f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check(item, schema["items"], f"{path}[{i}]")


def _jsonable(value):
    """Convert numpy scalars/arrays and containers to plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


@dataclass
class ReportDocument:
    """Assembled results of one CLI command."""

    command: str
    package_version: str
    seed: int
    bootstrap: int
    alpha: float
    n_per_group: dict[str, int]
    redraws: int
    reproducibility: dict
    point_estimates: dict = field(default_factory=dict)
    intervals: list = field(default_factory=list)
    bands: list = field(default_factory=list)
    tests: list = field(default_factory=list)

    def add_interval(self, result) -> None:
        entry = {"target": result.target, "lo": result.lo, "hi": result.hi,
                 "b_used": result.b_used, "redraws": result.redraws}
        if result.at is not None:
            entry["at"] = result.at
        self.intervals.append(entry)

    def add_band(self, result) -> None:
        self.bands.append({
            "target": result.target, "kind": result.kind,
            "critical_value": result.critical_value,
            "grid": {"kind": result.grid.kind, "points": result.grid.points},
            "center": result.center, "half_width": result.half_width,
            "b_used": result.b_used, "redraws": result.redraws})

    def add_test(self, result) -> None:
        self.tests.append({
            "hypothesis": result.hypothesis, "statistic": result.statistic,
            "critical_value": result.critical_value, "reject": result.reject,
            "alpha": result.alpha, "b_used": result.b_used,
            "redraws": result.redraws})

    def to_dict(self) -> dict:
        return _jsonable({
            "report_version": REPORT_VERSION,
            "metadata": {
                "command": self.command,
                "package_version": self.package_version,
                "seed": self.seed,
                "bootstrap": self.bootstrap,
                "alpha": self.alpha,
                "n_per_group": self.n_per_group,
                "redraws": self.redraws,
            },
            "reproducibility": self.reproducibility,
            "point_estimates": self.point_estimates,
            "intervals": self.intervals,
            "bands": self.bands,
            "tests": self.tests,
        })

    def to_json(self) -> str:
        document = self.to_dict()
        _check(document, REPORT_SCHEMA)
        return json.dumps(document, indent=2, sort_keys=True) + "\n"

    def write_json(self, path) -> None:
        text = self.to_json()   # checked before the file is created
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)

    def write_csv(self, path) -> None:
        """Flat CSV with the point estimates, intervals, and test decisions."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["section", "target", "at", "lo", "hi", "value", "extra"])
            for name, value in sorted(self.point_estimates.items()):
                writer.writerow(["estimate", name, "", "", "", repr(float(value)), ""])
            for entry in self.intervals:
                writer.writerow(["interval", entry["target"],
                                 entry.get("at", ""), repr(float(entry["lo"])),
                                 repr(float(entry["hi"])), "",
                                 f"B={entry['b_used']}"])
            for entry in self.tests:
                writer.writerow(["test", entry["hypothesis"], "", "", "",
                                 "reject" if entry["reject"] else "accept",
                                 f"stat={entry['statistic']!r},crit={entry['critical_value']!r}"])

    def write_bands_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["target", "kind", "grid_point", "center", "half_width"])
            for band in self.bands:
                points = band["grid"]["points"]
                for point, center, width in zip(points, band["center"],
                                                band["half_width"]):
                    writer.writerow([band["target"], band["kind"], repr(float(point)),
                                     repr(float(center)), repr(float(width))])


def error_report(command: str, kind: str, message: str) -> str:
    """Structured error document for nonzero exits (written to stderr)."""
    return json.dumps({"command": command, "error": kind, "message": message},
                      indent=2, sort_keys=True) + "\n"
