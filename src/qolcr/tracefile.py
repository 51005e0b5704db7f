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
import math
import os
import tempfile
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .calibration import EDGE_FIT_KNOTS, CalibratedRecord, CalibrationMap
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
_UM_EXPONENT = 6     # decimal exponent shift from meters to micrometres
_BLOCK_LINES = 4096  # data rows formatted or parsed per block

# plain header values that must be finite and positive, integers in decimal digits
_POSITIVE_HEADERS = {"spacing": "number", "grid_step": "number", "edge_fit": "integer"}

# how a calibration table is read back; a reader refuses any other value
_CALIBRATION_READBACK = {"interpolation": "linear", "edge_fit": str(EDGE_FIT_KNOTS)}


# ---------------------------------------------------------------------------
# position encoding


class _ExponentShift(dict):
    """Maps an exponent's digits to 'e' plus that exponent moved by `shift`."""

    def __init__(self, shift: int):
        super().__init__()
        self.shift = shift

    def __missing__(self, exponent: str) -> str:
        shifted = self[exponent] = f"e{int(exponent) + self.shift:+03d}"
        return shifted


def _shift_exponents(tokens, shift: int) -> list:
    """Move the decimal exponent of each numeric token by `shift`, as text.

    A token without an exponent has exponent 0; 'E' reads as 'e'.  Each
    distinct exponent is converted once per call.
    """
    table = _ExponentShift(shift)
    return [mantissa + table[exponent] if marker else exponent + table["0"]
            for mantissa, marker, exponent
            in (token.replace("E", "e").rpartition("e") for token in tokens)]


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


def _render_rows(arrays: list, in_um: list, index_width: int | None = None) -> str:
    """Render columns as text rows, each ending in a newline.

    Each value is right-justified to the field width with 17 significant
    digits; arrays flagged in `in_um` hold meters and print in micrometres.
    With `index_width`, each row starts with its row index.  Each block of
    rows is formatted by one template, so no per-row strings are built.
    """
    fields = [] if index_width is None else [f"%{index_width}d"]
    fields += [f"%{_FIELD_WIDTH}s" if um else f"%{_FIELD_WIDTH}.16e" for um in in_um]
    row_template = " ".join(fields) + "\n"
    arrays = [np.asarray(values, dtype=float) for values in arrays]
    n = len(arrays[0]) if arrays else 0
    blocks = []
    for start in range(0, n, _BLOCK_LINES):
        stop = min(start + _BLOCK_LINES, n)
        cells = [] if index_width is None else [range(start, stop)]
        for values, um in zip(arrays, in_um):
            values = values[start:stop].tolist()
            cells.append(_shift_exponents(map("%.16e".__mod__, values), _UM_EXPONENT)
                         if um else values)
        blocks.append(row_template * (stop - start)
                      % tuple(chain.from_iterable(zip(*cells))))
    return "".join(blocks)


def _write_table(path, format_name: str, header: dict, columns: list,
                 arrays: list, config) -> None:
    """Write one table file: format line, header, optional '# config' line,
    column declaration, row count, then the rows.

    Every value column must be finite; otherwise nothing is written.
    """
    for name, values in zip(columns[1:], arrays):
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"column {name} contains non-finite values")
    n = len(arrays[0])
    lines = [f"# {format_name} {FORMAT_VERSION}"]
    lines += [f"# {key} {value}" for key, value in header.items()]
    if config is not None:
        lines.append(f"# config {config.to_json()}")
    lines += ["# columns " + " ".join(columns), f"# rows {n}"]
    # no name holds the rows, so only the joined text is alive while it is written
    text = "\n".join(lines) + "\n" + _render_rows(
        arrays, [name.endswith("_um") for name in columns[1:]],
        index_width=max(len(str(n - 1)), 5))
    atomic_write_text(path, text)


# ---------------------------------------------------------------------------
# shared parsing machinery


@dataclass
class _Table:
    header: dict        # plain '# key value' text
    json_fields: dict   # header values parsed as JSON objects
    data: dict          # value column name -> array
    path: str


def _parse_header(path, numbered_lines):
    """Parse the '# key value' lines that open a file, up to its first data
    line; returns (header, json_fields, that line's number or None).

    '# config', and any other value that opens with '{' except a column
    list, is a JSON object; '# rows' must be a count in decimal digits, and
    the values of _POSITIVE_HEADERS keys must be positive.
    """
    header: dict = {}
    json_fields: dict = {}
    for line_no, line in numbered_lines:
        if not line.startswith("#"):
            return header, json_fields, line_no
        parts = line[1:].strip().split(None, 1)
        if not parts:
            raise TraceParseError("empty header line", path=path, line=line_no)
        key = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if key == "rows" and not rest.isdecimal():
            raise TraceParseError(f"invalid row count {rest!r}",
                                  path=path, line=line_no)
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
    return header, json_fields, None


def _is_positive(text: str, kind: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return 0 < value < math.inf and (kind != "integer" or text.isdecimal())


def _read_rows(path, lines: list, line_no: int, columns: list,
               buffers: np.ndarray, count: int) -> int:
    """Parse a block of data lines into `buffers` (one row per value column)
    from data row `count` on.

    `line_no` is the 1-based line number of lines[0]; returns the new row
    count.  The checks run over the whole block at once.  If one fails, the
    block is parsed again one line at a time, so the error names the first
    bad line and reads as it would from a row-by-row parse.
    """
    try:
        return _parse_block(path, lines, line_no, columns, buffers, count)
    except TraceParseError:
        if len(lines) == 1:
            raise
    for offset, line in enumerate(lines):
        count = _parse_block(path, [line], line_no + offset, columns, buffers, count)
    return count


def _parse_block(path, lines: list, line_no: int, columns: list,
                 buffers: np.ndarray, count: int) -> int:
    rows = [line.split() for line in lines]
    if not all(rows):
        rows = [tokens for tokens in rows if tokens]  # blank lines hold no row
        if not rows:
            return count
    if any(line.startswith("#") for line in lines):
        raise TraceParseError("header line after data began", path=path, line=line_no)
    width = len(columns)
    wrong = [len(tokens) for tokens in rows if len(tokens) != width]
    if wrong:
        raise TraceParseError(f"expected {width} columns, found {wrong[0]}",
                              path=path, line=line_no)
    declared = buffers.shape[1]
    end = count + len(rows)
    if end > declared:
        raise TraceParseError(f"more data rows than the declared {declared}",
                              path=path, line=line_no)
    tokens = list(chain.from_iterable(rows))
    try:
        indices = list(map(int, tokens[0::width]))
        for j, (name, buf) in enumerate(zip(columns[1:], buffers), start=1):
            column = tokens[j::width]
            if name.endswith("_um"):
                column = _shift_exponents(column, -_UM_EXPONENT)
            buf[count:end] = list(map(float, column))
    except ValueError as exc:
        raise TraceParseError(f"unparseable value: {exc}",
                              path=path, line=line_no) from exc
    if indices != list(range(count, end)):
        raise TraceParseError(f"row index {indices[0]} out of order (expected {count})",
                              path=path, line=line_no)
    for name, buf in zip(columns[1:], buffers):
        if not np.all(np.isfinite(buf[count:end])):
            raise TraceParseError(f"column {name} contains non-finite values",
                                  path=path, line=line_no)
    return end


def _read_table(path, expected_format: str, required_columns) -> _Table:
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

    header, json_fields, data_start = _parse_header(path, enumerate(lines, start=1))
    columns = header.get("columns", "").split()
    if not columns:
        raise TraceParseError("missing '# columns' declaration", path=path)
    if columns[0] != "index":
        raise TraceParseError("first column must be 'index'", path=path)
    if "rows" not in header:
        raise TraceParseError("missing '# rows' declaration", path=path)
    declared_rows = int(header["rows"])

    value_names = columns[1:]
    data_lines = [] if data_start is None else lines[data_start - 1:]
    # a count beyond the data lines ends in the mismatch error below, so
    # no buffer is sized for it
    buffers = np.empty((len(value_names), min(declared_rows, len(data_lines))))
    count = 0
    for offset in range(0, len(data_lines), _BLOCK_LINES):
        count = _read_rows(path, data_lines[offset:offset + _BLOCK_LINES],
                           data_start + offset, columns, buffers, count)
    if count != declared_rows:
        raise TraceParseError(
            f"header declares {declared_rows} rows but file has {count}",
            path=path, line=len(lines))

    data = dict(zip(value_names, buffers))
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
    """Write a scan trace, with truth columns when the trace carries truth."""
    if np.any(np.diff(trace.reported_d) <= 0):
        raise ConfigError("reported_d must be strictly increasing")
    columns = list(TRACE_COLUMNS)
    arrays = [trace.reported_d, trace.intensity, trace.coincidence]
    if trace.truth is not None:
        columns += TRUTH_COLUMNS
        arrays += [trace.truth.true_d, trace.truth.intensity_rate,
                   trace.truth.coincidence_rate, trace.truth.pair_carrier]
    header = {
        "spacing": repr(float(trace.spacing)),
        "metadata": _header_json(trace.metadata),
    }
    _write_table(path, TRACE_FORMAT, header, columns, arrays, config)


def read_trace(path) -> ScanTrace:
    """Read a scan trace; reconstructs truth channels when present."""
    table = _read_table(path, TRACE_FORMAT, TRACE_COLUMNS[1:])
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
    """Return the RunConfig embedded in any table file, or None.

    Only the header lines are read.
    """
    from .config import parse_config

    with open(path, "r") as handle:
        _, json_fields, _ = _parse_header(path, enumerate(handle, start=1))
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
    table = _read_table(path, RECORD_FORMAT, RECORD_COLUMNS[1:])
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
    header = {**_CALIBRATION_READBACK, "quality": _header_json(calibration.quality)}
    _write_table(path, CALIBRATION_FORMAT, header, CALIBRATION_COLUMNS,
                 [calibration.reported, calibration.calibrated,
                  calibration.correction()], config)


def read_calibration_table(path) -> CalibrationMap:
    table = _read_table(path, CALIBRATION_FORMAT, ("reported_d_um", "calibrated_d_um"))
    for key, value in _CALIBRATION_READBACK.items():
        if table.header.get(key) != value:
            raise TraceParseError(f"expected '# {key} {value}' header", path=path)
    return CalibrationMap(
        reported=table.data["reported_d_um"],
        calibrated=table.data["calibrated_d_um"],
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
    lines = [f"# {part}" for part in comment.splitlines()]
    lines.append("# columns " + " ".join(names))
    rows = _render_rows(arrays, [False] * len(arrays))
    atomic_write_text(path, "\n".join(lines) + "\n" + rows)
