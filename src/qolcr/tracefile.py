"""Text file formats for traces, calibrated records, tables, and reports.

Every artifact is a '#'-headed delimited text file: a format/version line,
key-value header lines (JSON for structured values), a column declaration,
a row count, then constant-width data rows.  Files are written atomically
(temp file + rename in the destination directory).

Position columns are labelled in micrometres.  To keep the write-then-read
round trip bit-faithful, a position is printed by formatting the underlying
meters float with 17 significant digits and shifting the decimal exponent
by +6 as a pure string operation; the reader shifts the exponent back
before a single correctly-rounded parse.  Scaling by 1e6 in floating point
instead would lose the low bit on a few percent of values, and some doubles
have no micrometre-double preimage at all.

A run configuration may be embedded in any header as one JSON line so that
downstream commands can recover filter and pump parameters from the data
file itself.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibratedRecord, CalibrationMap
from .errors import ConfigError, TraceParseError
from .scan import ScanTrace, ScanTruth

FORMAT_VERSION = 1
TRACE_FORMAT = "qolcr-trace"
RECORD_FORMAT = "qolcr-record"
CALIBRATION_FORMAT = "qolcr-calibration"

TRACE_COLUMNS = ["index", "reported_d_um", "intensity", "coincidence"]
TRUTH_COLUMNS = ["true_d_um", "intensity_rate", "coincidence_rate", "pair_carrier"]
RECORD_COLUMNS = ["index", "position_um", "intensity"]
CALIBRATION_COLUMNS = ["index", "reported_d_um", "calibrated_d_um", "correction_um"]

_FIELD_WIDTH = 24


# ---------------------------------------------------------------------------
# position encoding


def encode_position_um(meters: float) -> str:
    """Render a meters float as its exact value in micrometres."""
    if not np.isfinite(meters):
        raise ValueError(f"cannot encode non-finite position {meters!r}")
    mantissa, exponent = f"{float(meters):.16e}".split("e")
    return f"{mantissa}e{int(exponent) + 6:+03d}"


def decode_position_um(token: str) -> float:
    """Parse a micrometre token back to the meters float it came from."""
    if "e" in token or "E" in token:
        mantissa, _, exponent = token.replace("E", "e").rpartition("e")
        return float(f"{mantissa}e{int(exponent) - 6}")
    return float(token + "e-6")


def _format_value(name: str, value: float) -> str:
    if name.endswith("_um"):
        return encode_position_um(value)
    return f"{value:.16e}"


def _parse_value(name: str, token: str) -> float:
    if name.endswith("_um"):
        return decode_position_um(token)
    return float(token)


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


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file and rename in the same directory."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qolcr-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _check_finite(name: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"column {name} contains non-finite values")


def _render_table(format_name: str, header: dict, columns: list,
                  arrays: list, config_json: str | None) -> str:
    n = len(arrays[0])
    lines = [f"# {format_name} {FORMAT_VERSION}"]
    for key, value in header.items():
        lines.append(f"# {key} {value}")
    if config_json is not None:
        if "\n" in config_json:
            raise ConfigError("embedded config must be a single JSON line")
        lines.append(f"# config {config_json}")
    lines.append("# columns " + " ".join(columns))
    lines.append(f"# rows {n}")
    index_width = max(len(str(n - 1)), 5)
    for i in range(n):
        cells = [f"{i:>{index_width}d}"]
        for name, values in zip(columns[1:], arrays):
            cells.append(f"{_format_value(name, values[i]):>{_FIELD_WIDTH}}")
        lines.append(" ".join(cells))
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared parsing machinery


@dataclass
class _Table:
    header: dict
    columns: list
    data: dict
    config_raw: dict | None = None
    path: str = ""
    json_fields: dict = field(default_factory=dict)


def _parse_header_json(path, line_no: int, key: str, raw: str) -> dict:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"invalid JSON in header key '{key}': {exc}",
                              path=path, line=line_no) from exc
    if not isinstance(value, dict):
        raise TraceParseError(f"header key '{key}' must hold a JSON object",
                              path=path, line=line_no)
    return value


def _read_table(path, expected_format: str) -> _Table:
    with open(path, "r") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise TraceParseError("empty file", path=path, line=1)

    first = lines[0].split()
    if len(first) != 3 or first[0] != "#" or first[1] != expected_format:
        raise TraceParseError(
            f"expected format line '# {expected_format} {FORMAT_VERSION}', "
            f"got {lines[0]!r}", path=path, line=1)
    if first[2] != str(FORMAT_VERSION):
        raise TraceParseError(f"unsupported {expected_format} version {first[2]}",
                              path=path, line=1)

    header: dict = {}
    json_fields: dict = {}
    config_raw = None
    columns: list = []
    declared_rows = None
    data_start = None
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.startswith("#"):
            data_start = line_no
            break
        parts = line[1:].strip().split(None, 1)
        if not parts:
            raise TraceParseError("empty header line", path=path, line=line_no)
        key = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if key == "columns":
            columns = rest.split()
        elif key == "rows":
            try:
                declared_rows = int(rest)
            except ValueError:
                raise TraceParseError(f"invalid row count {rest!r}",
                                      path=path, line=line_no)
        elif key == "config":
            config_raw = _parse_header_json(path, line_no, key, rest)
        elif rest.lstrip().startswith("{"):
            json_fields[key] = _parse_header_json(path, line_no, key, rest)
        else:
            header[key] = rest

    if not columns:
        raise TraceParseError("missing '# columns' declaration", path=path)
    if columns[0] != "index":
        raise TraceParseError("first column must be 'index'", path=path)
    if declared_rows is None:
        raise TraceParseError("missing '# rows' declaration", path=path)

    value_names = columns[1:]
    buffers = [np.empty(declared_rows) for _ in value_names]
    count = 0
    if data_start is not None:
        for line_no, line in enumerate(lines[data_start - 1:], start=data_start):
            if not line.strip():
                continue
            if line.startswith("#"):
                raise TraceParseError("header line after data began",
                                      path=path, line=line_no)
            tokens = line.split()
            if len(tokens) != len(columns):
                raise TraceParseError(
                    f"expected {len(columns)} columns, found {len(tokens)}",
                    path=path, line=line_no)
            if count >= declared_rows:
                raise TraceParseError(
                    f"more data rows than the declared {declared_rows}",
                    path=path, line=line_no)
            try:
                row_index = int(tokens[0])
                for buf, name, token in zip(buffers, value_names, tokens[1:]):
                    buf[count] = _parse_value(name, token)
            except ValueError as exc:
                raise TraceParseError(f"unparseable value: {exc}",
                                      path=path, line=line_no) from exc
            if row_index != count:
                raise TraceParseError(
                    f"row index {row_index} out of order (expected {count})",
                    path=path, line=line_no)
            count += 1
    if count != declared_rows:
        raise TraceParseError(
            f"header declares {declared_rows} rows but file has {count}",
            path=path, line=len(lines))

    data = dict(zip(value_names, buffers))
    return _Table(header=header, columns=columns, data=data,
                  config_raw=config_raw, path=os.fspath(path),
                  json_fields=json_fields)


def _header_float(table: _Table, key: str) -> float:
    if key not in table.header:
        raise TraceParseError(f"missing '# {key}' header", path=table.path)
    try:
        return float(table.header[key])
    except ValueError as exc:
        raise TraceParseError(f"invalid '# {key}' header: {exc}",
                              path=table.path) from exc


# ---------------------------------------------------------------------------
# scan traces


def write_trace(trace: ScanTrace, path, config=None) -> None:
    """Write a scan trace, with truth columns when the trace carries truth."""
    if not np.all(np.diff(trace.reported_d) > 0):
        raise ConfigError("reported_d must be strictly increasing")
    columns = list(TRACE_COLUMNS)
    arrays = [trace.reported_d, trace.intensity, trace.coincidence]
    if trace.truth is not None:
        columns += TRUTH_COLUMNS
        arrays += [trace.truth.true_d, trace.truth.intensity_rate,
                   trace.truth.coincidence_rate, trace.truth.pair_carrier]
    for name, values in zip(columns[1:], arrays):
        _check_finite(name, values)
    header = {
        "spacing": repr(float(trace.spacing)),
        "metadata": json.dumps(_jsonable(trace.metadata), sort_keys=True),
    }
    config_json = config.to_json() if config is not None else None
    atomic_write_text(path, _render_table(TRACE_FORMAT, header, columns,
                                          arrays, config_json))


def read_trace(path) -> ScanTrace:
    """Read a scan trace; reconstructs truth channels when present."""
    table = _read_table(path, TRACE_FORMAT)
    for name in TRACE_COLUMNS[1:]:
        if name not in table.data:
            raise TraceParseError(f"missing column {name}", path=path)
    reported = table.data["reported_d_um"]
    if reported.size and not np.all(np.diff(reported) > 0):
        raise TraceParseError("reported_d must be strictly increasing", path=path)
    truth = None
    if all(name in table.data for name in TRUTH_COLUMNS):
        truth = ScanTruth(
            true_d=table.data["true_d_um"],
            intensity_rate=table.data["intensity_rate"],
            coincidence_rate=table.data["coincidence_rate"],
            pair_carrier=table.data["pair_carrier"],
        )
    return ScanTrace(
        reported_d=reported,
        intensity=table.data["intensity"],
        coincidence=table.data["coincidence"],
        spacing=_header_float(table, "spacing"),
        metadata=table.json_fields.get("metadata", {}),
        truth=truth,
    )


def read_embedded_config(path):
    """Return the RunConfig embedded in any table file, or None."""
    from .config import parse_config

    with open(path, "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.startswith("#"):
                return None
            parts = line[1:].strip().split(None, 1)
            if len(parts) == 2 and parts[0] == "config":
                raw = _parse_header_json(path, line_no, "config", parts[1])
                return parse_config(raw)
    return None


# ---------------------------------------------------------------------------
# calibrated records


def write_calibrated_record(record: CalibratedRecord, path, config=None) -> None:
    for name, values in (("position_um", record.positions),
                         ("intensity", record.intensity)):
        _check_finite(name, values)
    header = {
        "grid_step": repr(float(record.grid_step)),
        "metadata": json.dumps(_jsonable(record.metadata), sort_keys=True),
        "quality": json.dumps(_jsonable(record.quality), sort_keys=True),
    }
    config_json = config.to_json() if config is not None else None
    atomic_write_text(path, _render_table(
        RECORD_FORMAT, header, RECORD_COLUMNS,
        [record.positions, record.intensity], config_json))


def read_calibrated_record(path) -> CalibratedRecord:
    table = _read_table(path, RECORD_FORMAT)
    for name in RECORD_COLUMNS[1:]:
        if name not in table.data:
            raise TraceParseError(f"missing column {name}", path=path)
    return CalibratedRecord(
        positions=table.data["position_um"],
        intensity=table.data["intensity"],
        grid_step=_header_float(table, "grid_step"),
        metadata=table.json_fields.get("metadata", {}),
        quality=table.json_fields.get("quality", {}),
    )


# ---------------------------------------------------------------------------
# calibration tables


def write_calibration_table(calibration: CalibrationMap, path, config=None) -> None:
    reported = calibration.reported
    calibrated = calibration.calibrated
    for name, values in (("reported_d_um", reported),
                         ("calibrated_d_um", calibrated)):
        _check_finite(name, values)
    header = {
        "interpolation": "linear",
        "edge_fit": str(int(calibration.edge_fit)),
        "quality": json.dumps(_jsonable(calibration.quality), sort_keys=True),
    }
    config_json = config.to_json() if config is not None else None
    atomic_write_text(path, _render_table(
        CALIBRATION_FORMAT, header, CALIBRATION_COLUMNS,
        [reported, calibrated, calibration.correction()], config_json))


def read_calibration_table(path) -> CalibrationMap:
    table = _read_table(path, CALIBRATION_FORMAT)
    for name in ("reported_d_um", "calibrated_d_um"):
        if name not in table.data:
            raise TraceParseError(f"missing column {name}", path=path)
    if table.header.get("interpolation") != "linear":
        raise TraceParseError("expected '# interpolation linear' header", path=path)
    edge_fit = int(_header_float(table, "edge_fit"))
    return CalibrationMap(
        reported=table.data["reported_d_um"],
        calibrated=table.data["calibrated_d_um"],
        edge_fit=edge_fit,
        quality=table.json_fields.get("quality", {}),
    )


# ---------------------------------------------------------------------------
# structured documents and plot data


def write_json_document(document: dict, path) -> None:
    """Write a report or results document with stable key order."""
    text = json.dumps(_jsonable(document), sort_keys=True, indent=2) + "\n"
    atomic_write_text(path, text)


def read_json_document(path) -> dict:
    with open(path, "r") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"invalid JSON document: {exc}",
                              path=path, line=exc.lineno) from exc


def write_plot_data(path, names: list, columns: list, comment: str = "") -> None:
    """Write whitespace-delimited plot columns for external tools."""
    if len(names) != len(columns):
        raise ConfigError("one name per plot column is required")
    arrays = [np.asarray(c, dtype=float) for c in columns]
    n = arrays[0].size if arrays else 0
    if any(a.size != n for a in arrays):
        raise ConfigError("plot columns must share one length")
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.append("# columns " + " ".join(names))
    for i in range(n):
        lines.append(" ".join(f"{a[i]:>{_FIELD_WIDTH}.16e}" for a in arrays))
    lines.append("")
    atomic_write_text(path, "\n".join(lines))
