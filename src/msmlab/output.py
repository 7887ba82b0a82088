"""Table and document serialization for reproducible runs.

CSV files follow RFC 4180 (comma separator, CRLF records) with reals
printed to 17 significant digits so a round trip is bit-faithful. JSON
documents always carry schema_version and the resolved configuration of
the run that produced them, with keys sorted. The configuration leaves
out the BLAS thread count, and the last bits of dense results depend on
it, so a saved document reproduces its run byte for byte only when run
again at the same thread count. NaN never reaches JSON; it becomes null.

The encoders take bool, int, float (numpy's float64 is one), str and None,
and in JSON dicts and lists of those; anything else raises TypeError.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Iterable, Sequence

__all__ = [
    "SCHEMA_VERSION",
    "fmt_float",
    "csv_lines",
    "write_csv",
    "json_document",
    "write_json",
]

SCHEMA_VERSION = "1"


def fmt_float(x: float) -> str:
    """17 significant digits, enough to reproduce any double exactly."""
    return f"{x:.17g}"


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(float(value))
    if isinstance(value, int):
        return str(value)
    if value is None:
        return ""
    if not isinstance(value, str):
        raise TypeError(f"no CSV cell encoding for {type(value).__name__}")
    text = value
    if any(c in text for c in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def csv_lines(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """One RFC 4180 document as a string, CRLF separators included."""
    out = [",".join(_cell(h) for h in header)]
    for row in rows:
        out.append(",".join(_cell(v) for v in row))
    return "\r\n".join(out) + "\r\n"


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> Path:
    path = Path(path)
    path.write_text(csv_lines(header, rows), newline="")
    return path


def _jsonable(value: Any) -> Any:
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    raise TypeError(f"no JSON encoding for {type(value).__name__}")


def json_document(config: dict[str, Any], **payload: Any) -> str:
    """Serialized document with schema_version and the resolved config."""
    doc = {"schema_version": SCHEMA_VERSION, "config": _jsonable(config)}
    for key, value in payload.items():
        doc[key] = _jsonable(value)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, config: dict[str, Any], **payload: Any) -> Path:
    path = Path(path)
    path.write_text(json_document(config, **payload))
    return path
