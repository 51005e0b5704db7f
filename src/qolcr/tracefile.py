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

import numpy as np

from .calibration import EDGE_FIT_NM, CalibratedRecord, CalibrationMap, end_fit_knots
from .config import parse_config
from .errors import CalibrationQualityError, ConfigError, TraceParseError
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

# how a calibration table is read back; a reader refuses any other value but
# the end-slope fit's knots that tables held while the map counted them, read
# where those are the knots within EDGE_FIT_NM
_CALIBRATION_READBACK = {"interpolation": "linear", "edge_fit": str(EDGE_FIT_NM)}

# a trace's band-pass is designed for its spacing, a record's lags count grid
# steps: format -> (axis column, header key of its step, axis name in messages)
_AXES = {TRACE_FORMAT: ("reported_d_m", "spacing", "reported_d"),
         RECORD_FORMAT: ("position_m", "grid_step", "position_m")}


def _check_axis(format_name: str, data: dict, header: dict, error) -> None:
    """Raise error(message) unless the axis column in `data` steps by its
    header: within 1e-6 of the declared step, which absorbs the float
    rounding of any stage position, and never NaN."""
    if format_name in _AXES:
        column, key, name = _AXES[format_name]
        if key not in header:
            raise error(f"missing '# {key}' header")
        declared = float(header[key])
        step = np.diff(data[column])
        bad = np.flatnonzero(~(np.abs(step - declared) <= 1e-6 * declared))
        if bad.size:
            raise error(f"{name} must be strictly increasing in steps of '# {key}' "
                        f"{declared!r}; the step is {float(step[bad[0]])!r} "
                        f"(first fault at row {bad[0] + 1})")


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

    Every column must be finite and all must share one length, and the header
    must pass its reader's checks (_POSITIVE_HEADERS, _check_axis), or nothing is written.
    """
    arrays = [np.asarray(values, dtype=_PAYLOAD_DTYPE) for values in arrays]
    n = len(arrays[0])
    for name, values in zip(columns, arrays):
        if len(values) != n:
            raise ConfigError(f"column {name} holds {len(values)} values, not {n}")
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"column {name} contains non-finite values")
    for key, kind in _POSITIVE_HEADERS.items():
        if key in header and not _is_positive(header[key], kind):
            raise ConfigError(f"'# {key}' must be a finite positive {kind}, got {header[key]!r}")
    _check_axis(format_name, dict(zip(columns, arrays)), header, ConfigError)
    lines = [f"# {format_name} {FORMAT_VERSION}"]
    lines += [f"# {key} {value}" for key, value in header.items()]
    if config is not None:
        lines.append(f"# config {config.to_json()}")
    lines += ["# columns " + " ".join(columns), f"# rows {n}", f"# payload {PAYLOAD}"]
    text = "\n".join(lines) + "\n"
    atomic_write(path, [text.encode(), *(values.tobytes() for values in arrays)])


# ---------------------------------------------------------------------------
# shared parsing machinery


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


def _read_table(path, expected_format: str, required_columns):
    """Read one table file into (header, json_fields, data): plain '# key
    value' text, header values parsed as JSON objects, and column name ->
    array.  The payload length is checked against the declared shape before
    any column is built, an axis against its header after (_check_axis)."""
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
    _check_axis(expected_format, data, header,
                lambda message: TraceParseError(message, path=path))
    return header, json_fields, data


# ---------------------------------------------------------------------------
# scan traces


def write_trace(trace: ScanTrace, path, config=None) -> None:
    """Write the recorded channels of a scan trace; its truth stays in memory."""
    header = {
        "spacing": repr(float(trace.spacing)),
        "metadata": _header_json(trace.metadata),
    }
    _write_table(path, TRACE_FORMAT, header, TRACE_COLUMNS,
                 [trace.reported_d, trace.intensity, trace.coincidence], config)


def read_trace(path) -> ScanTrace:
    """Read a scan trace; other columns, such as the truth columns older
    traces hold, are checked but not kept, so the result holds no truth."""
    header, json_fields, data = _read_table(path, TRACE_FORMAT, TRACE_COLUMNS)
    return ScanTrace(
        reported_d=data["reported_d_m"],
        intensity=data["intensity"],
        coincidence=data["coincidence"],
        spacing=float(header["spacing"]),
        metadata=json_fields.get("metadata", {}),
    )


def read_embedded_config(path):
    """Return the RunConfig embedded in any table file, or None.

    Only the header, up to its '# payload' line, is read.
    """
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
    header, json_fields, data = _read_table(path, RECORD_FORMAT, RECORD_COLUMNS)
    return CalibratedRecord(
        positions=data["position_m"],
        intensity=data["intensity"],
        grid_step=float(header["grid_step"]),
        metadata=json_fields.get("metadata", {}),
        quality=json_fields.get("quality", {}),
    )


# ---------------------------------------------------------------------------
# calibration tables


def write_calibration_table(calibration: CalibrationMap, path, config=None) -> None:
    header = {**_CALIBRATION_READBACK, "quality": _header_json(calibration.quality)}
    _write_table(path, CALIBRATION_FORMAT, header, CALIBRATION_COLUMNS,
                 [calibration.reported, calibration.calibrated], config)


def read_calibration_table(path) -> CalibrationMap:
    header, json_fields, data = _read_table(path, CALIBRATION_FORMAT, CALIBRATION_COLUMNS)
    legacy = header.get("edge_fit") == "2000"
    for key, value in _CALIBRATION_READBACK.items():
        if header.get(key) != value and not (key == "edge_fit" and legacy):
            raise TraceParseError(f"expected '# {key} {value}' header", path=path)
    try:
        calibration = CalibrationMap(
            reported=data["reported_d_m"],
            calibrated=data["calibrated_d_m"],
            quality=json_fields.get("quality", {}),
        )
    except (ConfigError, CalibrationQualityError) as exc:  # knots no map accepts
        raise TraceParseError(str(exc), path=path) from exc
    x = calibration.reported
    if legacy and {end_fit_knots(x), end_fit_knots(x[::-1])} != {max(min(2000, len(x) // 4), 2)}:
        raise TraceParseError(f"expected '# edge_fit {EDGE_FIT_NM}' header; the 2000 knots "
                              f"of '# edge_fit 2000' span other travel here", path=path)
    return calibration


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
