"""Report envelopes: version-stamped, schema-validated, byte-deterministic."""

from __future__ import annotations

import json
from typing import Optional

from . import SCHEMA_VERSION, __version__
from .errors import DomainValidationError


def envelope(command: str, config: dict, result: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "curverate", "version": __version__},
        "command": command,
        "config": config,
        "result": result,
    }


def dumps(report: dict) -> str:
    """Canonical JSON: sorted keys, fixed layout, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def validate(report: dict) -> dict:
    """Check the envelope contract; returns the report for chaining."""

    for key in ("schema_version", "tool", "command", "config", "result"):
        if key not in report:
            raise DomainValidationError(f"report missing key {key!r}")
    if report["schema_version"] != SCHEMA_VERSION:
        raise DomainValidationError(
            f"schema version {report['schema_version']} != supported {SCHEMA_VERSION}"
        )
    if not isinstance(report["config"], dict) or not isinstance(report["result"], dict):
        raise DomainValidationError("config and result must be objects")
    return report


def loads(text: str) -> dict:
    return validate(json.loads(text))


def write_report(path: Optional[str], report: dict) -> str:
    text = dumps(validate(report))
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def csv_text(header: list, rows: list) -> str:
    """The one CSV format: a header line, then one line per row, a float cell as its repr."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w") as fh:
        fh.write(csv_text(header, rows))


def write_gnuplot(path: str, csv_name: str, title: str, xlabel: str, ylabel: str) -> None:
    script = "\n".join(
        [
            "set datafile separator ','",
            f"set title '{title}'",
            f"set xlabel '{xlabel}'",
            f"set ylabel '{ylabel}'",
            "set key left top",
            f"plot '{csv_name}' every ::1 using 3:4 with linespoints title 'samples'",
            "",
        ]
    )
    with open(path, "w") as fh:
        fh.write(script)
