"""File formats for traces, calibrated records, tables, and reports.

A trace, calibrated record or calibration table is a '#'-headed text header
followed by a binary payload.  The header holds the format/version line,
key-value lines (JSON for structured values), an optional '# config' line
from which downstream commands recover the run configuration, the column
declaration, the row count and, last, '# payload float64-le'.  The columns
follow in declared order, each as `rows` little-endian float64 values, so
arrays (positions in meters) round-trip bit for bit.  Reports are JSON, plot
data is text, and every file is written atomically (temp file + rename in
its directory).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .calibration import EDGE_FIT_KNOTS, CalibratedRecord, CalibrationMap
from .errors import ConfigError, TraceParseError
from .scan import ScanTrace

FORMAT_VERSION = 2
TRACE_FORMAT = "qolcr-trace"
RECORD_FORMAT = "qolcr-record"
CALIBRATION_FORMAT = "qolcr-calibration"
TABLE_FORMATS = (TRACE_FORMAT, RECORD_FORMAT, CALIBRATION_FORMAT)

TRACE_COLUMNS = ["reported_d_m", "intensity", "coincidence"]
RECORD_COLUMNS = ["position_m", "intensity"]
CALIBRATION_COLUMNS = ["reported_d_m", "calibrated_d_m"]

PAYLOAD = "float64-le"
_PAYLOAD_DTYPE = np.dtype("<f8")

# plain header values that must be finite and positive, integers in decimal digits
_POSITIVE_HEADERS = {"spacing": "number", "grid_step": "number", "edge_fit": "integer"}

# how a calibration table is read back; a reader refuses any other value
_CALIBRATION_READBACK = {"interpolation": "linear", "edge_fit": str(EDGE_FIT_KNOTS)}


# ---------------------------------------------------------------------------
# shared writing machinery


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _header_json(value) -> str:
    """One header value as a single-line JSON object with sorted keys."""
    return json.dumps(_jsonable(value), sort_keys=True)


def atomic_write(path, parts) -> None:
    """Write the byte strings `parts` to path via a temp file and rename in
    the same directory, with the mode open() would give a new file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qolcr-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(parts)
        umask = os.umask(0o077)   # read by swapping: stricter, never looser
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_table(path, format_name: str, header: dict, columns: list,
                 arrays: list, config) -> None:
    """Write one table file: format line, header, optional '# config' line,
    column declaration, row count and payload line, then the payload.

    Every column must be finite and all must share one length; otherwise
    nothing is written.
    """
    arrays = [np.asarray(values, dtype=_PAYLOAD_DTYPE) for values in arrays]
    n = len(arrays[0])
    for name, values in zip(columns, arrays):
        if len(values) != n:
            raise ConfigError(f"column {name} holds {len(values)} values, not {n}")
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"column {name} contains non-finite values")
    lines = [f"# {format_name} {FORMAT_VERSION}"]
    lines += [f"# {key} {value}" for key, value in header.items()]
    if config is not None:
        lines.append(f"# config {config.to_json()}")
    lines += ["# columns " + " ".join(columns), f"# rows {n}", f"# payload {PAYLOAD}"]
    text = "\n".join(lines) + "\n"
    atomic_write(path, [text.encode(), *(values.tobytes() for values in arrays)])


# ---------------------------------------------------------------------------
# shared parsing machinery


@dataclass
class _Table:
    header: dict        # plain '# key value' text
    json_fields: dict   # header values parsed as JSON objects
    data: dict          # column name -> array
    path: str


def _read_header(path, handle, formats=TABLE_FORMATS):
    """Parse the text header of a table file from the binary `handle`, up
    to and including its '# payload' line, which leaves the handle at the
    first payload byte; returns (header, json_fields, '# rows' line number).

    The first line must name one of `formats` and this version.  '# config',
    and any other value that opens with '{' except a column list, is a JSON
    object; '# rows' must be a count in decimal digits, and the values of
    _POSITIVE_HEADERS keys must be positive.
    """
    first = handle.readline(64)  # a format line is short; other input is not read on
    words = first.split()
    name = words[1].decode("ascii", "replace") if len(words) == 3 else ""
    if words[:1] != [b"#"] or name not in formats:
        raise TraceParseError(f"not a {' or '.join(formats)} file: it opens with "
                              f"{first[:40]!r}", path=path, line=1)
    if words[2] != str(FORMAT_VERSION).encode():
        raise TraceParseError(
            f"{name} version {words[2].decode('ascii', 'replace')} is not supported; "
            f"this reader reads version {FORMAT_VERSION}", path=path, line=1)

    header: dict = {}
    json_fields: dict = {}
    rows_line = None
    for line_no, raw in enumerate(handle, start=2):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise TraceParseError("header line is not UTF-8 text",
                                  path=path, line=line_no) from None
        if not line.startswith("#"):
            raise TraceParseError(f"expected a '#' header line before '# payload {PAYLOAD}'",
                                  path=path, line=line_no)
        parts = line[1:].strip().split(None, 1)
        if not parts:
            raise TraceParseError("empty header line", path=path, line=line_no)
        key = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if key == "payload":
            if rest != PAYLOAD:
                raise TraceParseError(f"unsupported payload {rest!r}; expected {PAYLOAD}",
                                      path=path, line=line_no)
            return header, json_fields, rows_line
        if key == "rows":
            if not rest.isdecimal():
                raise TraceParseError(f"invalid row count {rest!r}",
                                      path=path, line=line_no)
            rows_line = line_no
        kind = _POSITIVE_HEADERS.get(key)
        if kind and not _is_positive(rest, kind):
            raise TraceParseError(f"'# {key}' must be a finite positive {kind}, got {rest!r}",
                                  path=path, line=line_no)
        is_json = key == "config" or (key != "columns" and rest.startswith("{"))
        if not is_json:
            header[key] = rest
            continue
        try:
            json_fields[key] = json.loads(rest)
        except json.JSONDecodeError as exc:
            raise TraceParseError(f"invalid JSON in header key '{key}': {exc}",
                                  path=path, line=line_no) from exc
        if not isinstance(json_fields[key], dict):
            raise TraceParseError(f"header key '{key}' must hold a JSON object",
                                  path=path, line=line_no)
    raise TraceParseError(f"missing '# payload {PAYLOAD}' line", path=path)


def _is_positive(text: str, kind: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return 0 < value < math.inf and (kind != "integer" or text.isdecimal())


def _read_table(path, expected_format: str, required_columns) -> _Table:
    """Read one table file; the payload length is checked against the
    declared shape before any column is built."""
    with open(path, "rb") as handle:
        header, json_fields, rows_line = _read_header(path, handle, (expected_format,))
        payload = handle.read()

    columns = header.get("columns", "").split()
    if not columns:
        raise TraceParseError("missing '# columns' declaration", path=path)
    if rows_line is None:
        raise TraceParseError("missing '# rows' declaration", path=path)
    rows = int(header["rows"])
    size = rows * len(columns) * _PAYLOAD_DTYPE.itemsize
    if len(payload) != size:
        raise TraceParseError(
            f"{rows} rows of {len(columns)} columns need {size} payload bytes, "
            f"file has {len(payload)}", path=path, line=rows_line)

    data = {}
    for k, name in enumerate(columns):
        # a native, writable copy that owns its memory, not a view of the payload
        values = np.frombuffer(payload, _PAYLOAD_DTYPE, rows,
                               k * rows * _PAYLOAD_DTYPE.itemsize).astype(float)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise TraceParseError(f"column {name} contains non-finite values "
                                  f"(first at row {bad[0]})", path=path)
        data[name] = values
    for name in required_columns:
        if name not in data:
            raise TraceParseError(f"missing column {name}", path=path)
    return _Table(header=header, json_fields=json_fields, data=data,
                  path=os.fspath(path))


def _header_float(table: _Table, key: str) -> float:
    if key not in table.header:
        raise TraceParseError(f"missing '# {key}' header", path=table.path)
    return float(table.header[key])


# ---------------------------------------------------------------------------
# scan traces


def write_trace(trace: ScanTrace, path, config=None) -> None:
    """Write the recorded channels of a scan trace; its truth stays in memory."""
    if np.any(np.diff(trace.reported_d) <= 0):
        raise ConfigError("reported_d must be strictly increasing")
    header = {
        "spacing": repr(float(trace.spacing)),
        "metadata": _header_json(trace.metadata),
    }
    _write_table(path, TRACE_FORMAT, header, TRACE_COLUMNS,
                 [trace.reported_d, trace.intensity, trace.coincidence], config)


def read_trace(path) -> ScanTrace:
    """Read a scan trace; other columns, such as the truth columns older
    traces hold, are checked but not kept, so the result holds no truth."""
    table = _read_table(path, TRACE_FORMAT, TRACE_COLUMNS)
    reported = table.data["reported_d_m"]
    bad = np.flatnonzero(~(np.diff(reported) > 0))
    if bad.size:
        raise TraceParseError(f"reported_d must be strictly increasing "
                              f"(first fault at row {bad[0] + 1})", path=path)
    return ScanTrace(
        reported_d=reported,
        intensity=table.data["intensity"],
        coincidence=table.data["coincidence"],
        spacing=_header_float(table, "spacing"),
        metadata=table.json_fields.get("metadata", {}),
    )


def read_embedded_config(path):
    """Return the RunConfig embedded in any table file, or None.

    Only the header, up to its '# payload' line, is read.
    """
    from .config import parse_config

    with open(path, "rb") as handle:
        _, json_fields, _ = _read_header(path, handle)
    raw = json_fields.get("config")
    return None if raw is None else parse_config(raw)


# ---------------------------------------------------------------------------
# calibrated records


def write_calibrated_record(record: CalibratedRecord, path, config=None) -> None:
    header = {
        "grid_step": repr(float(record.grid_step)),
        "metadata": _header_json(record.metadata),
        "quality": _header_json(record.quality),
    }
    _write_table(path, RECORD_FORMAT, header, RECORD_COLUMNS,
                 [record.positions, record.intensity], config)


def read_calibrated_record(path) -> CalibratedRecord:
    table = _read_table(path, RECORD_FORMAT, RECORD_COLUMNS)
    return CalibratedRecord(
        positions=table.data["position_m"],
        intensity=table.data["intensity"],
        grid_step=_header_float(table, "grid_step"),
        metadata=table.json_fields.get("metadata", {}),
        quality=table.json_fields.get("quality", {}),
    )


# ---------------------------------------------------------------------------
# calibration tables


def write_calibration_table(calibration: CalibrationMap, path, config=None) -> None:
    header = {**_CALIBRATION_READBACK, "quality": _header_json(calibration.quality)}
    _write_table(path, CALIBRATION_FORMAT, header, CALIBRATION_COLUMNS,
                 [calibration.reported, calibration.calibrated], config)


def read_calibration_table(path) -> CalibrationMap:
    table = _read_table(path, CALIBRATION_FORMAT, CALIBRATION_COLUMNS)
    for key, value in _CALIBRATION_READBACK.items():
        if table.header.get(key) != value:
            raise TraceParseError(f"expected '# {key} {value}' header", path=path)
    return CalibrationMap(
        reported=table.data["reported_d_m"],
        calibrated=table.data["calibrated_d_m"],
        quality=table.json_fields.get("quality", {}),
    )


# ---------------------------------------------------------------------------
# structured documents and plot data


def write_json_document(document: dict, path) -> None:
    """Write a report or results document with stable key order."""
    text = json.dumps(_jsonable(document), sort_keys=True, indent=2) + "\n"
    atomic_write(path, [text.encode()])


def read_json_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise TraceParseError(f"invalid JSON document: {exc}",
                              path=path, line=getattr(exc, "lineno", None)) from exc


def write_plot_data(path, names: list, columns: list, comment: str = "") -> None:
    """Write whitespace-delimited plot columns for external tools."""
    if len(names) != len(columns):
        raise ConfigError("one name per plot column is required")
    arrays = [np.asarray(c, dtype=float) for c in columns]
    n = arrays[0].size if arrays else 0
    if any(a.size != n for a in arrays):
        raise ConfigError("plot columns must share one length")
    lines = [f"# {part}" for part in comment.splitlines()]
    lines.append("# columns " + " ".join(names))
    row = " ".join(["%24.16e"] * len(arrays)) + "\n"
    rows = "".join(row % values for values in zip(*(a.tolist() for a in arrays)))
    atomic_write(path, [("\n".join(lines) + "\n" + rows).encode()])
