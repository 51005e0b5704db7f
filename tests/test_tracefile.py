"""File format round trips: bit-faithful arrays, parse errors with locations."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qolcr.calibration import CalibratedRecord
from qolcr.config import DEFAULT_CONFIG, parse_config
from qolcr.errors import ConfigError, TraceParseError
from qolcr.experiments import calibrate_trace, synthesize
from qolcr.scan import ScanTrace
from qolcr.tracefile import (
    read_calibrated_record,
    read_calibration_table,
    read_embedded_config,
    read_json_document,
    read_trace,
    write_calibrated_record,
    write_calibration_table,
    write_json_document,
    write_plot_data,
    write_trace,
)


def small_config(noise=True):
    raw = copy.deepcopy(DEFAULT_CONFIG)
    raw["sample"]["surfaces"] = [{"reflectivity": 0.6, "position_um": 25.0}]
    raw["scan"] = {"start_um": 0.0, "stop_um": 50.0}
    if not noise:
        raw["noise"]["enabled"] = False
    return parse_config(raw)


@pytest.fixture(scope="module")
def trace_and_config():
    cfg = small_config()
    return synthesize(cfg, run_index=0), cfg


# ---------------------------------------------------------------------------
# table-file editing and a per-value reference for the payload


PAYLOAD_LINE = b"# payload float64-le\n"


def split_table(path):
    """A table file's header lines (text) and its payload (bytes)."""
    data = path.read_bytes()
    cut = data.index(PAYLOAD_LINE) + len(PAYLOAD_LINE)
    return data[:cut].decode().splitlines(), data[cut:]


def join_table(path, lines, payload):
    path.write_bytes(("\n".join(lines) + "\n").encode() + payload)


def set_payload_value(path, column, row, value):
    """Overwrite one payload value in place, leaving the header alone."""
    lines, payload = split_table(path)
    columns = next(l for l in lines if l.startswith("# columns ")).split()[2:]
    values = np.frombuffer(payload, "<f8").reshape(len(columns), -1).copy()
    values[columns.index(column), row] = value
    join_table(path, lines, values.tobytes())


def reference_payload(arrays):
    """Each column in order, value by value, as little-endian IEEE doubles."""
    return b"".join(struct.pack(f"<{len(a)}d", *map(float, a)) for a in arrays)


def assert_payload_matches_reference(path, columns, arrays):
    lines, payload = split_table(path)
    assert lines[-3:] == ["# columns " + " ".join(columns), f"# rows {len(arrays[0])}",
                          "# payload float64-le"]
    assert payload == reference_payload(arrays)


TRACE_COLUMNS = ["reported_d_m", "intensity", "coincidence"]


def trace_arrays(trace):
    return [trace.reported_d, trace.intensity, trace.coincidence]


def test_writer_matches_per_value_reference(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    assert_payload_matches_reference(path, TRACE_COLUMNS, trace_arrays(trace))

    calibration, record = calibrate_trace(cfg, trace)
    table_path = tmp_path / "calibration.txt"
    write_calibration_table(calibration, table_path, config=cfg)
    assert_payload_matches_reference(table_path, ["reported_d_m", "calibrated_d_m"],
                                     [calibration.reported, calibration.calibrated])

    record_path = tmp_path / "record.txt"
    write_calibrated_record(record, record_path, config=cfg)
    assert_payload_matches_reference(record_path, ["position_m", "intensity"],
                                     [record.positions, record.intensity])


MAX_FLOAT = np.finfo(float).max
AWKWARD_VALUES = [0.0, -0.0, 5e-324, 1e-300, -5e-9, 1e-6, 1e-14, -1.7976931348623157e308,
                  MAX_FLOAT, -5e-324, 2.2250738585072009e-308]


def awkward_trace(values):
    """A trace whose intensity column holds `values` and whose coincidence
    column holds their negatives."""
    values = np.asarray(values, dtype=float)
    return ScanTrace(reported_d=np.arange(values.size) * 5e-9, intensity=values,
                     coincidence=-values, spacing=5e-9)


def assert_awkward_round_trip(path, values):
    trace = awkward_trace(values)
    write_trace(trace, path)
    assert_payload_matches_reference(path, TRACE_COLUMNS, trace_arrays(trace))
    back = read_trace(path)
    for got, want in zip(trace_arrays(back), trace_arrays(trace)):
        assert got.tobytes() == want.tobytes()   # bit-exact, including -0.0


@pytest.mark.parametrize("value", AWKWARD_VALUES)
def test_awkward_values_through_the_columns(tmp_path, value):
    assert_awkward_round_trip(tmp_path / "awkward.txt", [value, value, 1.0])


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=12))
@example([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, MAX_FLOAT, -MAX_FLOAT])
@settings(max_examples=100, deadline=None)
def test_columns_match_reference_for_any_finite_values(tmp_path_factory, values):
    assert_awkward_round_trip(tmp_path_factory.mktemp("cols") / "t.txt", values)


def test_readers_return_writable_arrays_that_own_their_data(tmp_path, written_objects):
    for kind, attributes in [("trace", ["reported_d", "intensity", "coincidence"]),
                             ("record", ["positions", "intensity"]),
                             ("calibration", ["reported", "calibrated"])]:
        path = tmp_path / f"{kind}.txt"
        WRITERS[kind](written_objects[kind], path)
        back = READERS[kind](path)
        for attribute in attributes:
            values = getattr(back, attribute)
            assert values.dtype == np.float64
            assert values.flags.writeable and values.flags.owndata


# ---------------------------------------------------------------------------
# scan traces


def test_trace_round_trip_is_exact(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    back = read_trace(path)
    assert np.array_equal(back.reported_d, trace.reported_d)
    assert np.array_equal(back.intensity, trace.intensity)
    assert np.array_equal(back.coincidence, trace.coincidence)
    assert back.spacing == trace.spacing
    assert back.metadata["poisson"] is True
    # the noise-free truth stays with the simulated trace, not in its file
    assert trace.truth is not None
    assert back.truth is None


def test_trace_a_metre_along_the_stage_reads_back(tmp_path):
    # a step there differs from the spacing by more than 1e-9 of it through
    # float rounding alone; the reader must not take that for a wrong spacing
    reported = 1.0 + 5e-9 * np.arange(1000)
    assert np.abs(np.diff(reported) - 5e-9).max() > 1e-9 * 5e-9
    path = tmp_path / "far.txt"
    write_trace(ScanTrace(reported_d=reported, intensity=np.ones(1000),
                          coincidence=np.ones(1000), spacing=5e-9), path)
    assert np.array_equal(read_trace(path).reported_d, reported)


def test_embedded_config_round_trip(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    loaded = read_embedded_config(path)
    assert loaded is not None
    assert loaded.to_json() == cfg.to_json()


def test_broken_embedded_config_names_its_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text('# qolcr-trace 2\n# spacing 5e-09\n# config {"sample": \n')
    with pytest.raises(TraceParseError) as err:
        read_embedded_config(path)
    assert err.value.line == 3
    assert "bad.txt: line 3: invalid JSON" in str(err.value)


def test_embedded_config_that_is_not_an_object_names_its_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# qolcr-trace 2\n# spacing 5e-09\n# config 5\n")
    with pytest.raises(TraceParseError) as err:
        read_embedded_config(path)
    assert err.value.line == 3
    assert "header key 'config' must hold a JSON object" in str(err.value)


def test_embedded_config_reads_only_the_header(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    lines, payload = split_table(path)
    join_table(path, lines, payload[:5] + b"\xff\n# not a header line\n")
    assert read_embedded_config(path).to_json() == cfg.to_json()
    with pytest.raises(TraceParseError, match="payload bytes"):
        read_trace(path)


def test_write_is_deterministic(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_trace(trace, a, config=cfg)
    write_trace(trace, b, config=cfg)
    assert a.read_bytes() == b.read_bytes()


def test_trace_without_truth_or_config(tmp_path, trace_and_config):
    trace, _ = trace_and_config
    bare = copy.copy(trace)
    bare.truth = None
    path = tmp_path / "bare.txt"
    write_trace(bare, path)
    back = read_trace(path)
    assert back.truth is None
    assert read_embedded_config(path) is None
    # a trace's truth never reaches its file
    write_trace(trace, tmp_path / "full.txt")
    assert (tmp_path / "full.txt").read_bytes() == path.read_bytes()


def rows_line_number(path):
    lines, _ = split_table(path)
    return next(i for i, l in enumerate(lines, start=1) if l.startswith("# rows "))


def test_truncated_file_names_the_line(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    data = path.read_bytes()
    path.write_bytes(data[:-100])
    with pytest.raises(TraceParseError) as err:
        read_trace(path)
    n = trace.n_samples
    assert err.value.line == rows_line_number(path)
    assert (f"scan.txt: line {err.value.line}: {n} rows of 3 columns need "
            f"{n * 24} payload bytes, file has {n * 24 - 100}") in str(err.value)


@pytest.mark.parametrize("edit, change", [
    (lambda payload: payload[:-1], -1),
    (lambda payload: payload[:-8], -8),
    (lambda payload: payload + b"\0", 1),
    (lambda payload: payload + b"\0" * 8, 8),
    (lambda payload: payload + b"\n", 1),
])
def test_payload_length_fault_names_both_byte_counts(tmp_path, written_objects, edit, change):
    for kind in ("trace", "record", "calibration"):
        path = tmp_path / f"{kind}.txt"
        WRITERS[kind](written_objects[kind], path)
        lines, payload = split_table(path)
        join_table(path, lines, edit(payload))
        assert read_embedded_config(path) is None   # the header alone is sound
        with pytest.raises(TraceParseError) as err:
            READERS[kind](path)
        assert err.value.line == rows_line_number(path)
        assert (f"need {len(payload)} payload bytes, file has {len(payload) + change}"
                in str(err.value))


def test_wrong_format_line_rejected(tmp_path):
    path = tmp_path / "bogus.txt"
    path.write_text("# some-other-format 1\n# rows 0\n# columns index a\n")
    with pytest.raises(TraceParseError) as err:
        read_trace(path)
    assert "qolcr-trace" in str(err.value)


def test_reading_one_format_as_another_is_refused(tmp_path, written_objects):
    path = tmp_path / "record.txt"
    write_calibrated_record(written_objects["record"], path)
    for reader, name in [(read_trace, "qolcr-trace"),
                         (read_calibration_table, "qolcr-calibration")]:
        with pytest.raises(TraceParseError, match=f"line 1: not a {name} file"):
            reader(path)


def test_version_1_file_is_refused_with_its_version(tmp_path):
    path = tmp_path / "old.txt"
    # a text-row trace as the format's first version wrote it
    path.write_text("# qolcr-trace 1\n# spacing 5e-09\n"
                    "# columns index reported_d_um intensity coincidence\n# rows 1\n"
                    "    0   0.0000000000000000e+00   1.0000000000000000e+00"
                    "   1.0000000000000000e+00\n")
    for reader in (read_trace, read_embedded_config):
        with pytest.raises(TraceParseError) as err:
            reader(path)
        assert err.value.line == 1
        assert "qolcr-trace version 1 is not supported" in str(err.value)
        assert "version 2" in str(err.value)


# content that opens with no qolcr format line
NOT_A_TABLE = {
    "empty": b"",
    "binary": bytes(range(256)) * 4,
    "not utf-8": "naïve text\n".encode("latin-1"),
    "long first line": b"#" * 5000,
    "plain text": b"reported intensity\n0.0 1.0\n",
    "numbers only": np.arange(64.0).tobytes(),
}


@pytest.mark.parametrize("content", sorted(NOT_A_TABLE))
def test_non_table_input_is_a_parse_error(tmp_path, content):
    path = tmp_path / "junk.txt"
    path.write_bytes(NOT_A_TABLE[content])
    for reader in (read_trace, read_calibrated_record, read_calibration_table,
                   read_embedded_config):
        with pytest.raises(TraceParseError) as err:
            reader(path)
        assert err.value.line == 1
        assert "junk.txt: line 1: not a qolcr-" in str(err.value)


# (edit to the header lines, line it is blamed on counted from the end, words)
HEADER_DEFECTS = {
    "not utf-8": (lambda lines: lines[:-1] + ["# note \udcff"] + lines[-1:], -2,
                  "not UTF-8"),
    "no payload line": (lambda lines: lines[:-1], None, "missing '# payload float64-le'"),
    "other payload": (lambda lines: lines[:-1] + ["# payload float32-be"], -1,
                      "unsupported payload 'float32-be'"),
    "text line": (lambda lines: lines[:-1] + ["0 1.0 2.0"] + lines[-1:], -2,
                  "expected a '#' header line"),
    "empty line": (lambda lines: lines[:-1] + ["#"] + lines[-1:], -2, "empty header line"),
    "no columns": (lambda lines: [l for l in lines if not l.startswith("# columns")], None,
                   "missing '# columns'"),
    "no rows": (lambda lines: [l for l in lines if not l.startswith("# rows")], None,
                "missing '# rows'"),
    "missing column": (lambda lines: [l.replace(" intensity", " counts")
                                      if l.startswith("# columns") else l for l in lines],
                       None, "missing column intensity"),
}


@pytest.mark.parametrize("defect", sorted(HEADER_DEFECTS))
def test_header_defect_is_a_parse_error(tmp_path, written_objects, defect):
    edit, blamed, words = HEADER_DEFECTS[defect]
    path = tmp_path / "record.txt"
    write_calibrated_record(written_objects["record"], path)
    lines, payload = split_table(path)
    lines = edit(lines)
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n"
                     + (payload if defect != "no payload line" else b""))
    with pytest.raises(TraceParseError) as err:
        read_calibrated_record(path)
    assert err.value.line == (None if blamed is None else len(lines) + 1 + blamed)
    assert words in str(err.value)


def test_trace_without_spacing_is_a_parse_error(tmp_path, trace_and_config):
    trace, _ = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path)
    lines, payload = split_table(path)
    join_table(path, [l for l in lines if not l.startswith("# spacing ")], payload)
    with pytest.raises(TraceParseError, match="missing '# spacing' header"):
        read_trace(path)


def test_non_monotone_write_rejected(tmp_path, trace_and_config):
    trace, _ = trace_and_config
    bad = copy.copy(trace)
    bad.reported_d = trace.reported_d.copy()
    bad.reported_d[10] = bad.reported_d[9]
    with pytest.raises(ConfigError):
        write_trace(bad, tmp_path / "bad.txt")


def test_trace_writer_refuses_the_axis_its_reader_refuses(tmp_path):
    # an axis in 5 nm steps under a '# spacing' of 2.5 nm: written, it would
    # calibrate to half the true separation, so neither side accepts it
    ones = np.ones(100)
    read_back = tmp_path / "read.txt"
    write_trace(ScanTrace(reported_d=np.arange(100) * 5e-9, intensity=ones,
                          coincidence=ones, spacing=5e-9), read_back)
    _with_header(read_back, "spacing", repr(2.5e-9))
    with pytest.raises(TraceParseError) as read_err:
        read_trace(read_back)
    with pytest.raises(ConfigError) as write_err:
        write_trace(ScanTrace(reported_d=np.arange(100) * 5e-9, intensity=ones,
                              coincidence=ones, spacing=2.5e-9), tmp_path / "w.txt")
    assert str(write_err.value) == (
        "reported_d must be strictly increasing in steps of '# spacing' 2.5e-09; "
        "the step is 5e-09 (first fault at row 1)")
    assert str(read_err.value) == f"{read_back}: {write_err.value}"
    assert list(tmp_path.iterdir()) == [read_back]


def test_non_monotone_read_rejected(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    set_payload_value(path, "reported_d_m", 1, trace.reported_d[0])
    with pytest.raises(TraceParseError) as err:
        read_trace(path)
    assert "increasing" in str(err.value)


def set_payload_bits(path, column, row, bits):
    """Overwrite one payload value with the 8 bytes of the 64-bit pattern `bits`."""
    lines, payload = split_table(path)
    columns = next(l for l in lines if l.startswith("# columns ")).split()[2:]
    values = np.frombuffer(payload, "<u8").reshape(len(columns), -1).copy()
    values[columns.index(column), row] = bits
    join_table(path, lines, values.tobytes())


def insert_payload_bytes(path, row, extra):
    """Insert `extra` into the payload after the first column's value at `row`."""
    lines, payload = split_table(path)
    cut = (row + 1) * 8
    join_table(path, lines, payload[:cut] + extra + payload[cut:])


def repeat_previous_position(path, row):
    """Give row `row` of a trace the position of the row before it."""
    _, payload = split_table(path)   # reported_d_m is the first column
    previous = np.frombuffer(payload, "<f8", 1, (row - 1) * 8)[0]
    set_payload_value(path, "reported_d_m", row, previous)


# (edit that spoils one payload row, words expected in the error message);
# a row's fault is named by its row, a payload-length fault by the '# rows' line
ROW_DEFECTS = {
    "extra column": (lambda path, row: insert_payload_bytes(path, row, b"\0" * 8),
                     "payload bytes"),
    "index out of order": (repeat_previous_position, "strictly increasing"),
    # bytes that no finite double has: all ones, and an all-ones exponent field
    "unparseable value": (lambda path, row: set_payload_bits(
        path, "intensity", row, 0xFFFF_FFFF_FFFF_FFFF), "column intensity"),
    "unparseable exponent": (lambda path, row: set_payload_bits(
        path, "coincidence", row, 0x7FF0_0000_0000_0001), "column coincidence"),
    "header after data": (lambda path, row: insert_payload_bytes(path, row, b"# note\n"),
                          "payload bytes"),
    "nan value": (lambda path, row: set_payload_value(path, "coincidence", row, np.nan),
                  "column coincidence"),
    "infinite value": (lambda path, row: set_payload_value(path, "intensity", row, -np.inf),
                       "column intensity"),
    # a value past the largest double, as stored once it has overflowed
    "overflowing value": (lambda path, row: set_payload_value(
        path, "coincidence", row, MAX_FLOAT.item() * 10.0), "column coincidence"),
}


@pytest.mark.parametrize("row", [1, 4100, 9998])
@pytest.mark.parametrize("defect", sorted(ROW_DEFECTS))
def test_bad_row_names_its_line_in_any_block(tmp_path, trace_and_config, defect, row):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    edit, words = ROW_DEFECTS[defect]
    # a bad last row must not mask the one before it
    last = trace.n_samples - 1
    edit(path, last)
    edit(path, row)
    with pytest.raises(TraceParseError) as err:
        read_trace(path)
    assert words in str(err.value)
    if words == "payload bytes":
        assert err.value.line == rows_line_number(path)
    else:
        assert err.value.line is None
        assert str(err.value).endswith(f"(first at row {row})"
                                       if words.startswith("column")
                                       else f"(first fault at row {row})")


def test_corrupt_row_names_the_line(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    for column in TRACE_COLUMNS:
        set_payload_bits(path, column, 3, 0xFFFF_FFFF_FFFF_FFFF)
    with pytest.raises(TraceParseError) as err:
        read_trace(path)
    assert str(err.value).endswith(
        "scan.txt: column reported_d_m contains non-finite values (first at row 3)")


@pytest.mark.parametrize("row", [1, 4100, 9998])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", TRACE_COLUMNS)
def test_non_finite_payload_value_names_its_column(tmp_path, trace_and_config,
                                                   column, value, row):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    set_payload_value(path, column, row, value)
    # a second bad value after it must not mask it
    set_payload_value(path, column, trace.n_samples - 1, np.nan)
    with pytest.raises(TraceParseError) as err:
        read_trace(path)
    assert str(err.value).endswith(
        f"scan.txt: column {column} contains non-finite values (first at row {row})")


def test_rows_beyond_the_declared_count_are_rejected(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    n = trace.n_samples
    rows_line = _with_header(path, "rows", n - 1)
    with pytest.raises(TraceParseError) as err:
        read_trace(path)
    assert err.value.line == rows_line
    assert (f"{n - 1} rows of 3 columns need {(n - 1) * 24} payload bytes, "
            f"file has {n * 24}") in str(err.value)


def test_non_finite_record_value_names_its_column(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    _, record = calibrate_trace(cfg, trace)
    path = tmp_path / "record.txt"
    write_calibrated_record(record, path, config=cfg)
    set_payload_value(path, "intensity", 4500, np.nan)
    with pytest.raises(TraceParseError) as err:
        read_calibrated_record(path)
    assert err.value.line is None
    assert "column intensity contains non-finite values (first at row 4500)" in str(err.value)


def _with_header(path, key, value):
    """Replace the '# key' value; returns that line's 1-based number."""
    lines, payload = split_table(path)
    index = next(i for i, l in enumerate(lines) if l.startswith(f"# {key} "))
    lines[index] = f"# {key} {value}"
    join_table(path, lines, payload)
    return index + 1


def test_negative_row_count_names_its_line(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    rows_line = _with_header(path, "rows", -1)
    for reader in (read_trace, read_embedded_config):
        with pytest.raises(TraceParseError) as err:
            reader(path)
        assert err.value.line == rows_line
        assert "invalid row count '-1'" in str(err.value)


def test_row_count_beyond_the_file_is_a_mismatch(tmp_path, trace_and_config):
    # 10**12 rows of 3 columns would need 24 TB if a buffer were sized from
    # the header; the payload length is checked first
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    rows_line = _with_header(path, "rows", 10**12)
    with pytest.raises(TraceParseError) as err:
        read_trace(path)
    assert err.value.line == rows_line
    assert (f"{10**12} rows of 3 columns need {24 * 10**12} payload bytes, "
            f"file has {trace.n_samples * 24}") in str(err.value)


# ---------------------------------------------------------------------------
# calibrated records and calibration tables


def test_calibrated_record_round_trip(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    calibration, record = calibrate_trace(cfg, trace)
    path = tmp_path / "record.txt"
    write_calibrated_record(record, path, config=cfg)
    back = read_calibrated_record(path)
    assert np.array_equal(back.positions, record.positions)
    assert np.array_equal(back.intensity, record.intensity)
    assert back.grid_step == record.grid_step
    assert back.quality == json.loads(json.dumps(record.quality))
    assert read_embedded_config(path).to_json() == cfg.to_json()

    table_path = tmp_path / "calibration.txt"
    write_calibration_table(calibration, table_path, config=cfg)
    table = read_calibration_table(table_path)
    assert np.array_equal(table.reported, calibration.reported)
    assert np.array_equal(table.calibrated, calibration.calibrated)


def test_calibration_table_columns(tmp_path, trace_and_config):
    # the correction is calibrated - reported, so it is not stored
    trace, cfg = trace_and_config
    calibration, _ = calibrate_trace(cfg, trace)
    path = tmp_path / "calibration.txt"
    write_calibration_table(calibration, path)
    lines, _ = split_table(path)
    columns_line = next(l for l in lines if l.startswith("# columns"))
    assert columns_line.split()[2:] == ["reported_d_m", "calibrated_d_m"]


def test_calibration_table_rejects_other_interpolation(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    calibration, _ = calibrate_trace(cfg, trace)
    path = tmp_path / "calibration.txt"
    write_calibration_table(calibration, path)
    data = path.read_bytes()
    assert b"# interpolation linear\n" in data
    path.write_bytes(data.replace(b"# interpolation linear", b"# interpolation cubic"))
    with pytest.raises(TraceParseError):
        read_calibration_table(path)
    path.write_bytes(data.replace(b"# interpolation linear\n", b""))
    with pytest.raises(TraceParseError):
        read_calibration_table(path)
    # the end-slope fit length is fixed; another value is not this format
    assert b"# edge_fit 2000\n" in data
    for edited in (data.replace(b"# edge_fit 2000", b"# edge_fit 1000"),
                   data.replace(b"# edge_fit 2000\n", b"")):
        path.write_bytes(edited)
        with pytest.raises(TraceParseError, match="edge_fit 2000"):
            read_calibration_table(path)


def test_calibration_table_with_knots_out_of_order_names_its_file(tmp_path,
                                                                 trace_and_config):
    trace, cfg = trace_and_config
    calibration, _ = calibrate_trace(cfg, trace)
    path = tmp_path / "calibration.txt"
    write_calibration_table(calibration, path)
    set_payload_value(path, "reported_d_m", 100, calibration.reported[101])
    set_payload_value(path, "reported_d_m", 101, calibration.reported[100])
    with pytest.raises(TraceParseError) as err:
        read_calibration_table(path)
    assert str(err.value) == f"{path}: reported knot positions not strictly increasing"


@pytest.fixture(scope="module")
def written_objects(trace_and_config):
    trace, cfg = trace_and_config
    calibration, record = calibrate_trace(cfg, trace)
    return {"trace": trace, "record": record, "calibration": calibration}


WRITERS = {"trace": write_trace, "record": write_calibrated_record,
           "calibration": write_calibration_table}

# (object written, value column, attribute that holds it); a case's id names
# its position column as format version 1 did (in micrometres, '_um'), so each
# case keeps one id across the change to metre columns ('_m')
VALUE_COLUMNS = [
    pytest.param(kind, column, attribute,
                 id=f"{kind}-{column[:-2] + '_um' if column.endswith('_m') else column}"
                    f"-{attribute}")
    for kind, column, attribute in [
        ("trace", "reported_d_m", "reported_d"),
        ("trace", "intensity", "intensity"),
        ("trace", "coincidence", "coincidence"),
        ("record", "position_m", "positions"),
        ("record", "intensity", "intensity"),
        ("calibration", "reported_d_m", "reported"),
        ("calibration", "calibrated_d_m", "calibrated"),
    ]
]


def _with_last_value(obj, attribute, value):
    """A shallow copy of obj whose array `attribute` ends in `value`; the
    copy skips the objects' own validation."""
    out = copy.copy(obj)
    values = np.array(getattr(obj, attribute), dtype=float)
    values[-1] = value
    setattr(out, attribute, values)
    return out


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("kind, column, attribute", VALUE_COLUMNS)
def test_writers_reject_non_finite_values(tmp_path, written_objects, kind, column,
                                          attribute, value):
    spoiled = _with_last_value(written_objects[kind], attribute, value)
    with pytest.raises(ConfigError, match=f"column {column} contains non-finite values"):
        WRITERS[kind](spoiled, tmp_path / "out.txt")
    assert list(tmp_path.iterdir()) == []


def test_writer_rejects_columns_of_unequal_length(tmp_path, written_objects):
    record = copy.copy(written_objects["record"])
    record.intensity = record.intensity[:-1]
    with pytest.raises(ConfigError, match="column intensity holds"):
        write_calibrated_record(record, tmp_path / "out.txt")
    assert list(tmp_path.iterdir()) == []


def test_record_writer_refuses_positions_off_the_grid_step(tmp_path, written_objects):
    record = written_objects["record"]
    positions = record.positions.copy()
    positions[100] += 1e-3 * record.grid_step
    off_grid = dataclasses.replace(record, positions=positions)
    with pytest.raises(ConfigError) as err:
        write_calibrated_record(off_grid, tmp_path / "out.txt")
    step = float(positions[100] - positions[99])
    assert str(err.value) == (
        f"position_m must be strictly increasing in steps of '# grid_step' "
        f"{record.grid_step!r}; the step is {step!r} (first fault at row 100)")
    assert list(tmp_path.iterdir()) == []


READERS = {"trace": read_trace, "record": read_calibrated_record,
           "calibration": read_calibration_table}

# (object written, scalar header, value that header must not hold)
BAD_SCALAR_HEADERS = [
    (kind, key, value)
    for kind, key in [("trace", "spacing"), ("record", "grid_step"),
                      ("calibration", "edge_fit")]
    for value in ["nan", "inf", "0", "-5e-9"]
] + [("calibration", "edge_fit", "2000.5")]


@pytest.mark.parametrize("kind, key, value", BAD_SCALAR_HEADERS)
def test_bad_scalar_header_names_its_line(tmp_path, written_objects, kind, key, value):
    path = tmp_path / "out.txt"
    WRITERS[kind](written_objects[kind], path)
    line = _with_header(path, key, value)
    for reader in (READERS[kind], read_embedded_config):
        with pytest.raises(TraceParseError) as err:
            reader(path)
        assert err.value.line == line
        assert f"'# {key}' must be a finite positive" in str(err.value)


@pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -5e-9])
@pytest.mark.parametrize("kind, key", [("trace", "spacing"), ("record", "grid_step")])
def test_writer_refuses_a_header_step_its_reader_refuses(tmp_path, kind, key, step):
    # where the step is finite the axis steps by it, so only the header is at fault
    axis = np.arange(100) * (step if math.isfinite(step) else 5e-9)
    ones = np.ones(100)
    table = (ScanTrace(reported_d=axis, intensity=ones, coincidence=ones, spacing=step)
             if kind == "trace" else
             CalibratedRecord(positions=axis, intensity=ones, grid_step=step))
    with pytest.raises(ConfigError) as err:
        WRITERS[kind](table, tmp_path / "out.txt")
    assert str(err.value) == f"'# {key}' must be a finite positive number, got {repr(step)!r}"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# documents and plot data


def test_json_document_round_trip(tmp_path):
    doc = {"b": [1.5e-9, 2.5], "a": {"z": 1, "m": "text"}, "n": None}
    path = tmp_path / "report.json"
    write_json_document(doc, path)
    assert read_json_document(path) == doc
    first = path.read_text()
    write_json_document(doc, path)
    assert path.read_text() == first
    assert first.index('"a"') < first.index('"b"')


def test_json_document_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ nope\n")
    with pytest.raises(TraceParseError):
        read_json_document(path)


def test_json_document_non_utf8_bytes_are_a_parse_error(tmp_path):
    data = np.random.default_rng(300).integers(0, 256, 300, dtype=np.uint8).tobytes()
    with pytest.raises(UnicodeDecodeError):
        data.decode("utf-8")
    path = tmp_path / "binary.json"
    path.write_bytes(data)
    with pytest.raises(TraceParseError, match="can't decode byte"):
        read_json_document(path)


def test_plot_data_round_trip(tmp_path):
    x = np.linspace(0.0, 1.0, 17)
    y = np.sin(x)
    path = tmp_path / "plot.txt"
    write_plot_data(path, ["commanded_um", "deviation_nm"], [x, y],
                    comment="linearity sweep")
    loaded = np.loadtxt(path)
    assert np.array_equal(loaded[:, 0], x)
    assert np.array_equal(loaded[:, 1], y)
    header = path.read_text().splitlines()
    assert header[0] == "# linearity sweep"
    assert header[1].startswith("# columns commanded_um deviation_nm")


def test_plot_data_validates_shapes(tmp_path):
    with pytest.raises(ConfigError):
        write_plot_data(tmp_path / "p.txt", ["a"], [np.arange(3), np.arange(3)])
    with pytest.raises(ConfigError):
        write_plot_data(tmp_path / "p.txt", ["a", "b"],
                        [np.arange(3), np.arange(4)])


def test_plot_data_matches_per_value_reference(tmp_path):
    x = np.array([0.0, -0.0, 1e-300, 2.0e5])
    y = np.array([np.nan, -np.inf, 1e-14, -5e-9])
    path = tmp_path / "plot.txt"
    write_plot_data(path, ["a_um", "b"], [x, y], comment="two\nlines")
    rows = [" ".join(f"{a[i]:>24.16e}" for a in (x, y)) for i in range(x.size)]
    expected = "\n".join(["# two", "# lines", "# columns a_um b"] + rows) + "\n"
    assert path.read_bytes() == expected.encode()


def test_failed_rename_leaves_no_temp_file(tmp_path):
    target = tmp_path / "report.json"
    target.mkdir()                  # the rename onto a directory fails
    with pytest.raises(OSError):
        write_json_document({"a": 1}, target)
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_take_the_mode_of_a_plain_open(tmp_path, written_objects, umask,
                                                     mode):
    writes = {
        "table.txt": lambda path: write_trace(written_objects["trace"], path),
        "doc.json": lambda path: write_json_document({"a": 1}, path),
        "plot.txt": lambda path: write_plot_data(path, ["x"], [np.arange(3.0)]),
    }
    (tmp_path / "doc.json").write_text("{}")
    os.chmod(tmp_path / "doc.json", 0o640)   # an overwritten file takes the new mode too
    previous = os.umask(umask)
    try:
        for name, write in writes.items():
            write(tmp_path / name)
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(previous)
    for name in [*writes, "plain.txt"]:
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name
