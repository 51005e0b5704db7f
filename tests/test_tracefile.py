"""File format round trips: bit-faithful arrays, parse errors with locations."""

from __future__ import annotations

import copy
import json
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qolcr.config import DEFAULT_CONFIG, parse_config
from qolcr.errors import ConfigError, TraceParseError
from qolcr.experiments import calibrate_trace, synthesize
from qolcr.scan import ScanTrace, ScanTruth
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
        raw["noise"] = None
    return parse_config(raw)


@pytest.fixture(scope="module")
def trace_and_config():
    cfg = small_config()
    return synthesize(cfg, run_index=0), cfg


# ---------------------------------------------------------------------------
# per-value reference rendering: the writer must reproduce it byte for byte


def reference_encode_um(meters):
    mantissa, exponent = f"{float(meters):.16e}".split("e")
    return f"{mantissa}e{int(exponent) + 6:+03d}"


def reference_decode_um(token):
    """Meters from a micrometre token: an exact decimal shift, then one rounding."""
    return float(Decimal(token).scaleb(-6))


def reference_rows(columns, arrays):
    n = len(arrays[0])
    width = max(len(str(n - 1)), 5)
    rows = []
    for i in range(n):
        cells = [f"{i:>{width}d}"]
        for name, values in zip(columns[1:], arrays):
            token = (reference_encode_um(values[i]) if name.endswith("_um")
                     else f"{values[i]:.16e}")
            cells.append(f"{token:>24}")
        rows.append(" ".join(cells))
    return rows


def assert_rows_match_reference(path, columns, arrays):
    lines = path.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    assert header[-2] == "# columns " + " ".join(columns)
    expected = "\n".join(header + reference_rows(columns, arrays)) + "\n"
    assert path.read_bytes() == expected.encode()


TRACE_WITH_TRUTH_COLUMNS = ["index", "reported_d_um", "intensity", "coincidence",
                 "true_d_um", "intensity_rate", "coincidence_rate", "pair_carrier"]


def trace_arrays(trace):
    truth = trace.truth
    return [trace.reported_d, trace.intensity, trace.coincidence, truth.true_d,
            truth.intensity_rate, truth.coincidence_rate, truth.pair_carrier]


def test_writer_matches_per_value_reference(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    assert_rows_match_reference(path, TRACE_WITH_TRUTH_COLUMNS, trace_arrays(trace))

    calibration, record = calibrate_trace(cfg, trace)
    table_path = tmp_path / "calibration.txt"
    write_calibration_table(calibration, table_path, config=cfg)
    assert_rows_match_reference(
        table_path, ["index", "reported_d_um", "calibrated_d_um", "correction_um"],
        [calibration.reported, calibration.calibrated, calibration.correction()])

    record_path = tmp_path / "record.txt"
    write_calibrated_record(record, record_path, config=cfg)
    assert_rows_match_reference(record_path, ["index", "position_um", "intensity"],
                                [record.positions, record.intensity])


def test_awkward_values_include_a_decade_carry():
    # 1e-14 is stored just below 10**-14; its 17-digit rounding carries
    assert Decimal(1e-14) < Decimal("1e-14")
    assert f"{1e-14:.16e}" == "1.0000000000000000e-14"


AWKWARD_VALUES = [0.0, -0.0, 5e-324, 1e-300, -5e-9, 1e-6, 1e-14, -1.7976931348623157e308]


def awkward_trace(values):
    """A trace whose truth columns hold `values` in both a micrometre column
    (true_d_um) and a plain column (intensity_rate)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    reported = np.arange(n) * 5e-9
    return ScanTrace(reported_d=reported, intensity=np.ones(n),
                     coincidence=np.ones(n), spacing=5e-9,
                     truth=ScanTruth(true_d=values, intensity_rate=values,
                                     coincidence_rate=-values, pair_carrier=reported))


def assert_awkward_round_trip(path, values):
    trace = awkward_trace(values)
    write_trace(trace, path)
    assert_rows_match_reference(path, TRACE_WITH_TRUTH_COLUMNS, trace_arrays(trace))
    back = read_trace(path)
    for got, want in zip(trace_arrays(back), trace_arrays(trace)):
        assert got.tobytes() == want.tobytes()   # bit-exact, including -0.0


@pytest.mark.parametrize("value", AWKWARD_VALUES)
def test_awkward_values_through_the_columns(tmp_path, value):
    assert_awkward_round_trip(tmp_path / "awkward.txt", [value, value, 1.0])


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_columns_match_reference_for_any_finite_values(tmp_path_factory, values):
    assert_awkward_round_trip(tmp_path_factory.mktemp("cols") / "t.txt", values)


def test_reader_accepts_plain_and_uppercase_micrometre_tokens(tmp_path):
    trace = awkward_trace([1.0, 2.0, 3.0])
    trace.truth = None
    path = tmp_path / "scan.txt"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    tokens = ["0", "5.0000000000000001E-03", "0.010000000000000000"]
    for k, token in enumerate(tokens):
        cells = lines[data_start + k].split()
        cells[1] = token
        lines[data_start + k] = " ".join(cells)
    path.write_text("\n".join(lines) + "\n")
    back = read_trace(path)
    assert back.reported_d.tobytes() == trace.reported_d.tobytes()
    assert list(back.reported_d) == [reference_decode_um(t) for t in tokens]


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
    assert back.truth is not None
    assert np.array_equal(back.truth.true_d, trace.truth.true_d)
    assert np.array_equal(back.truth.intensity_rate, trace.truth.intensity_rate)
    assert np.array_equal(back.truth.coincidence_rate, trace.truth.coincidence_rate)
    assert np.array_equal(back.truth.pair_carrier, trace.truth.pair_carrier)


def test_embedded_config_round_trip(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    loaded = read_embedded_config(path)
    assert loaded is not None
    assert loaded.to_json() == cfg.to_json()


def test_broken_embedded_config_names_its_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text('# qolcr-trace 1\n# spacing 5e-09\n# config {"sample": \n')
    with pytest.raises(TraceParseError) as err:
        read_embedded_config(path)
    assert err.value.line == 3
    assert "bad.txt: line 3: invalid JSON" in str(err.value)


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


def test_truncated_file_names_the_line(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-100]) + "\n")
    with pytest.raises(TraceParseError) as err:
        read_trace(path)
    message = str(err.value)
    assert "scan.txt" in message
    assert "line" in message
    assert "rows" in message


def test_corrupt_row_names_the_line(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    lines = path.read_text().splitlines()
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    lines[data_start + 3] = lines[data_start + 3] + " 99.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as err:
        read_trace(path)
    assert f"line {data_start + 4}" in str(err.value)


def test_wrong_format_line_rejected(tmp_path):
    path = tmp_path / "bogus.txt"
    path.write_text("# some-other-format 1\n# rows 0\n# columns index a\n")
    with pytest.raises(TraceParseError) as err:
        read_trace(path)
    assert "qolcr-trace" in str(err.value)


def test_non_monotone_write_rejected(tmp_path, trace_and_config):
    trace, _ = trace_and_config
    bad = copy.copy(trace)
    bad.reported_d = trace.reported_d.copy()
    bad.reported_d[10] = bad.reported_d[9]
    with pytest.raises(ConfigError):
        write_trace(bad, tmp_path / "bad.txt")


def test_non_monotone_read_rejected(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    lines = path.read_text().splitlines()
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    cells_lo = lines[data_start].split()
    cells_hi = lines[data_start + 1].split()
    cells_hi[1] = cells_lo[1]
    lines[data_start + 1] = " ".join(cells_hi)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as err:
        read_trace(path)
    assert "increasing" in str(err.value)


def _replace_cell(line, column, token):
    cells = line.split()
    cells[column] = token
    return " ".join(cells)


# (edit applied to one data line, words expected in the error message)
ROW_DEFECTS = {
    "extra column": (lambda line: line + " 99.0", "expected 8 columns, found 9"),
    "index out of order": (lambda line: _replace_cell(line, 0, "7"), "out of order"),
    "unparseable value": (lambda line: _replace_cell(line, 2, "4.9x3"), "unparseable"),
    "unparseable exponent": (lambda line: _replace_cell(line, 4, "5.0e+x2"), "unparseable"),
    "header after data": (lambda line: "# " + line, "header line after data"),
    "nan value": (lambda line: _replace_cell(line, 3, "nan"), "non-finite"),
    "infinite value": (lambda line: _replace_cell(line, 7, "-inf"), "non-finite"),
    "overflowing value": (lambda line: _replace_cell(line, 5, "1e999"), "non-finite"),
}


@pytest.mark.parametrize("row", [1, 4100, 9998])
@pytest.mark.parametrize("defect", sorted(ROW_DEFECTS))
def test_bad_row_names_its_line_in_any_block(tmp_path, trace_and_config, defect, row):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    lines = path.read_text().splitlines()
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    edit, words = ROW_DEFECTS[defect]
    lines[data_start + row] = edit(lines[data_start + row])
    # a bad row after it must not mask it
    lines[-1] = lines[-1] + " 1.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as err:
        read_trace(path)
    assert err.value.line == data_start + row + 1
    assert words in str(err.value)


def test_blank_data_lines_are_skipped(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    lines = path.read_text().splitlines()
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    lines.insert(data_start + 5000, "   ")
    lines.insert(data_start + 20, "")
    path.write_text("\n".join(lines) + "\n")
    back = read_trace(path)
    assert np.array_equal(back.truth.pair_carrier, trace.truth.pair_carrier)
    # line numbers still count the blank lines
    lines[data_start + 6000] = _replace_cell(lines[data_start + 6000], 0, "1")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as err:
        read_trace(path)
    assert err.value.line == data_start + 6001


def test_rows_beyond_the_declared_count_are_rejected(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    text = path.read_text()
    n = trace.n_samples
    path.write_text(text.replace(f"# rows {n}\n", f"# rows {n - 1}\n"))
    with pytest.raises(TraceParseError) as err:
        read_trace(path)
    assert err.value.line == len(text.splitlines())
    assert f"more data rows than the declared {n - 1}" in str(err.value)


def test_non_finite_record_value_names_its_line(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    _, record = calibrate_trace(cfg, trace)
    path = tmp_path / "record.txt"
    write_calibrated_record(record, path, config=cfg)
    lines = path.read_text().splitlines()
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    lines[data_start + 4500] = _replace_cell(lines[data_start + 4500], 2, "nan")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as err:
        read_calibrated_record(path)
    assert err.value.line == data_start + 4501
    assert "column intensity contains non-finite values" in str(err.value)


def _with_header(path, key, value):
    """Replace the '# key' value; returns that line's 1-based number."""
    lines = path.read_text().splitlines()
    index = next(i for i, l in enumerate(lines) if l.startswith(f"# {key} "))
    lines[index] = f"# {key} {value}"
    path.write_text("\n".join(lines) + "\n")
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
    # 10**12 rows of 7 value columns would need 56 TB if a buffer were sized
    # from the header
    trace, cfg = trace_and_config
    path = tmp_path / "scan.txt"
    write_trace(trace, path, config=cfg)
    _with_header(path, "rows", 10**12)
    with pytest.raises(TraceParseError) as err:
        read_trace(path)
    assert err.value.line == len(path.read_text().splitlines())
    assert (f"header declares {10**12} rows but file has {trace.n_samples}"
            in str(err.value))


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


def test_calibration_table_has_correction_column(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    calibration, _ = calibrate_trace(cfg, trace)
    path = tmp_path / "calibration.txt"
    write_calibration_table(calibration, path)
    lines = path.read_text().splitlines()
    columns_line = next(l for l in lines if l.startswith("# columns"))
    assert columns_line.split()[2:] == [
        "index", "reported_d_um", "calibrated_d_um", "correction_um"]


def test_calibration_table_rejects_other_interpolation(tmp_path, trace_and_config):
    trace, cfg = trace_and_config
    calibration, _ = calibrate_trace(cfg, trace)
    path = tmp_path / "calibration.txt"
    write_calibration_table(calibration, path)
    text = path.read_text()
    assert "# interpolation linear\n" in text
    path.write_text(text.replace("# interpolation linear", "# interpolation cubic"))
    with pytest.raises(TraceParseError):
        read_calibration_table(path)
    path.write_text(text.replace("# interpolation linear\n", ""))
    with pytest.raises(TraceParseError):
        read_calibration_table(path)
    # the end-slope fit length is fixed; another value is not this format
    assert "# edge_fit 2000\n" in text
    for edited in (text.replace("# edge_fit 2000", "# edge_fit 1000"),
                   text.replace("# edge_fit 2000\n", "")):
        path.write_text(edited)
        with pytest.raises(TraceParseError, match="edge_fit 2000"):
            read_calibration_table(path)


@pytest.fixture(scope="module")
def written_objects(trace_and_config):
    trace, cfg = trace_and_config
    calibration, record = calibrate_trace(cfg, trace)
    return {"trace": trace, "record": record, "calibration": calibration}


WRITERS = {"trace": write_trace, "record": write_calibrated_record,
           "calibration": write_calibration_table}

# (object written, value column, attribute that holds it)
VALUE_COLUMNS = [
    ("trace", "reported_d_um", "reported_d"),
    ("trace", "intensity", "intensity"),
    ("trace", "coincidence", "coincidence"),
    ("trace", "true_d_um", "truth.true_d"),
    ("trace", "intensity_rate", "truth.intensity_rate"),
    ("trace", "coincidence_rate", "truth.coincidence_rate"),
    ("trace", "pair_carrier", "truth.pair_carrier"),
    ("record", "position_um", "positions"),
    ("record", "intensity", "intensity"),
    ("calibration", "reported_d_um", "reported"),
    ("calibration", "calibrated_d_um", "calibrated"),
]


def _with_last_value(obj, attribute, value):
    """A shallow copy of obj whose array `attribute` (dotted for a nested
    object) ends in `value`; the copy skips the objects' own validation."""
    head, _, rest = attribute.partition(".")
    out = copy.copy(obj)
    if rest:
        setattr(out, head, _with_last_value(getattr(obj, head), rest, value))
    else:
        values = np.array(getattr(obj, head), dtype=float)
        values[-1] = value
        setattr(out, head, values)
    return out


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("kind, column, attribute", VALUE_COLUMNS)
def test_writers_reject_non_finite_values(tmp_path, written_objects, kind, column,
                                          attribute, value):
    spoiled = _with_last_value(written_objects[kind], attribute, value)
    with pytest.raises(ConfigError, match=f"column {column} contains non-finite values"):
        WRITERS[kind](spoiled, tmp_path / "out.txt")
    assert list(tmp_path.iterdir()) == []


def test_calibration_writer_checks_the_correction_column(tmp_path, written_objects):
    # finite knots whose difference overflows to inf
    table = _with_last_value(written_objects["calibration"], "reported", -1.5e308)
    table = _with_last_value(table, "calibrated", 1.5e308)
    with pytest.raises(ConfigError, match="column correction_um contains non-finite"), \
            np.errstate(over="ignore"):
        write_calibration_table(table, tmp_path / "out.txt")
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
