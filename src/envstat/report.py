"""Self-describing run reports with JSON and CSV renderings.

A report is a list of named checks (measured vs expected at a tolerance,
with a pass flag, provenance of the expected value, and units) plus
scenario data payloads.  Rendering is deterministic: the same values
always produce the same bytes, so reports are diffable and hashable apart
from the wall-time field.  Floats are emitted as shortest round-trip
decimals, which carry the full precision of the value.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str

__all__ = ["CheckRecord", "DataTable", "RunReport", "render_json", "render_csv"]


@dataclass(frozen=True)
class CheckRecord:
    """One verified quantity.

    provenance says where the expected value comes from: "closed-form",
    "independent-oracle", "exact-count", or "definition".
    """

    name: str
    measured: float | int | str | bool
    expected: float | int | str | bool
    tolerance: float | None
    passed: bool
    provenance: str
    units: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "provenance": self.provenance,
            "units": self.units,
        }


@dataclass(frozen=True)
class DataTable:
    """Plot-ready rectangular data (becomes the CSV body when present)."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_dict(self) -> dict:
        return {"columns": list(self.columns), "rows": [list(r) for r in self.rows]}


@dataclass
class RunReport:
    scenario: str
    config: dict
    checks: list[CheckRecord] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    table: DataTable | None = None
    wall_time_s: float = 0.0
    version: str = "0.1.0"

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, measured, expected, tolerance, passed: bool,
            provenance: str, units: str) -> None:
        self.checks.append(CheckRecord(
            name, measured, expected, tolerance, bool(passed), provenance, units))

    def check_close(self, name: str, measured: float, expected: float,
                    tolerance: float, provenance: str, units: str) -> None:
        """Record |measured - expected| <= tolerance."""
        self.add(name, float(measured), float(expected), float(tolerance),
                 abs(measured - expected) <= tolerance, provenance, units)

    def check_le(self, name: str, measured: float, bound: float,
                 provenance: str, units: str) -> None:
        """Record measured <= bound."""
        self.add(name, float(measured), float(bound), None,
                 measured <= bound, provenance, units)

    def check_true(self, name: str, flag: bool, provenance: str) -> None:
        self.add(name, bool(flag), True, None, bool(flag), provenance, "boolean")

    def merge(self, other: "RunReport", prefix: str) -> None:
        for c in other.checks:
            self.checks.append(CheckRecord(
                f"{prefix}.{c.name}", c.measured, c.expected, c.tolerance,
                c.passed, c.provenance, c.units))
        self.data[prefix] = dict(other.data)
        if other.table is not None:
            self.data[prefix]["table"] = other.table.to_dict()

    def to_dict(self) -> dict:
        out = {
            "scenario": self.scenario,
            "version": self.version,
            "passed": self.passed,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "data": self.data,
        }
        if self.table is not None:
            out["table"] = self.table.to_dict()
        out["wall_time_s"] = self.wall_time_s
        return out


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _emit(value, depth: int, out: list) -> None:
    """Append the JSON text of value, nested depth levels deep, to out."""
    if isinstance(value, str):
        out.append(_json_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = "\n" + "  " * (depth + 1)
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit(item, depth + 1, out)
            sep = "," + inner
        out.append("\n" + "  " * depth + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = "\n" + "  " * (depth + 1)
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(_json_str(key))
            out.append(": ")
            _emit(item, depth + 1, out)
            sep = "," + inner
        out.append("\n" + "  " * depth + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_json(report: RunReport) -> str:
    """The bytes of json.dumps(report.to_dict(), indent=2, allow_nan=True)
    plus a newline.  The stdlib encoder builds a fresh set of closures on
    every indented call, which leaves a reference cycle for the collector;
    this emitter leaves none."""
    out: list[str] = []
    _emit(report.to_dict(), 0, out)
    out.append("\n")
    return "".join(out)


def render_csv(report: RunReport) -> str:
    """Table rows when a table is attached, one check per row otherwise."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    if report.table is not None:
        writer.writerow(report.table.columns)
        writer.writerows(report.table.rows)
    else:
        writer.writerow(
            ["name", "measured", "expected", "tolerance", "passed", "provenance", "units"])
        for c in report.checks:
            writer.writerow([c.name, c.measured, c.expected,
                             "" if c.tolerance is None else c.tolerance,
                             c.passed, c.provenance, c.units])
    return buf.getvalue()
