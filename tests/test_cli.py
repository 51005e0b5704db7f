"""Command-line behavior: artifact chains, exit codes, determinism."""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qolcr import calibration, measure, tracefile
from qolcr.calibration import CalibratedRecord
from qolcr.cli import main
from qolcr.config import DEFAULT_CONFIG, load_config
from qolcr.experiments import synthesize
from qolcr.scan import ScanTrace
from qolcr.tracefile import (
    read_calibrated_record,
    read_calibration_table,
    read_json_document,
    read_trace,
)

ROOT = Path(__file__).resolve().parents[1]
SRC_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def config_file(tmp_path, name="config.json", surfaces=((0.6, 30.0), (0.6, 90.0)),
                stop_um=120.0, identity=True, noise=False, pipeline=None):
    raw = copy.deepcopy(DEFAULT_CONFIG)
    raw["sample"]["surfaces"] = [
        {"reflectivity": r, "position_um": z} for r, z in surfaces]
    raw["scan"] = {"start_um": 0.0, "stop_um": stop_um}
    if identity:
        raw["stage"].update(scale_error=0.0, periodic_amplitude_nm=0.0,
                            drift_step_nm=0.0)
    if not noise:
        raw["noise"]["enabled"] = False
    raw["pipeline"].update(pipeline or {})
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture(scope="module")
def artifact_chain(tmp_path_factory, capsys_disabled=None):
    """simulate -> calibrate -> measure on a clean two-surface scan."""
    base = tmp_path_factory.mktemp("chain")
    cfg = config_file(base)
    trace_path = base / "scan.txt"
    assert main(["simulate", "--config", str(cfg),
                 "--output", str(trace_path)]) == 0
    assert main(["calibrate", str(trace_path),
                 "--output", str(base / "cal")]) == 0
    report_path = base / "report.json"
    assert main(["measure", str(base / "cal.record.txt"),
                 "--output", str(report_path)]) == 0
    return base


def test_simulate_writes_readable_trace(tmp_path, capsys):
    cfg = config_file(tmp_path)
    out = tmp_path / "scan.txt"
    assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "24000 samples" in printed
    assert "seed" in printed
    trace = read_trace(out)
    assert trace.n_samples == 24000
    assert trace.truth is None


def test_trace_with_truth_columns_still_reads_and_calibrates(tmp_path):
    # the format's earlier trace layout also held four noise-free truth
    # columns after the three recorded channels, which a reader skips, and
    # a metadata block that also restated the scan's size, range and rates,
    # which is carried on unread
    cfg_path = config_file(tmp_path, noise=True, identity=False)
    config = load_config(cfg_path)
    trace = synthesize(config, run_index=0)
    truth = trace.truth
    start, stop = config.scan_range
    old_metadata = {"n_samples": trace.n_samples, "scan_start": start, "scan_stop": stop,
                    "spacing": trace.spacing, "velocity": config.stage.velocity,
                    "sample_rate": config.stage.sample_rate, **trace.metadata}
    old = tmp_path / "old.txt"
    tracefile._write_table(
        old, tracefile.TRACE_FORMAT,
        {"spacing": repr(float(trace.spacing)),
         "metadata": tracefile._header_json(old_metadata)},
        [*tracefile.TRACE_COLUMNS, "true_d_m", "intensity_rate", "coincidence_rate",
         "pair_carrier"],
        [trace.reported_d, trace.intensity, trace.coincidence, truth.true_d,
         truth.intensity_rate, truth.coincidence_rate, truth.pair_carrier], config)
    back = read_trace(old)
    for name in ("reported_d", "intensity", "coincidence"):
        assert getattr(back, name).tobytes() == getattr(trace, name).tobytes(), name
    assert back.truth is None

    new = tmp_path / "new.txt"
    assert main(["simulate", "--config", str(cfg_path), "--output", str(new)]) == 0
    for prefix, path in (("old", old), ("new", new)):
        assert main(["calibrate", str(path), "--output", str(tmp_path / prefix)]) == 0
    assert ((tmp_path / "old.calibration.txt").read_bytes()
            == (tmp_path / "new.calibration.txt").read_bytes())
    old_record, new_record = (split_table(tmp_path / f"{prefix}.record.txt")
                              for prefix in ("old", "new"))
    assert old_record[1] == new_record[1]
    assert read_calibrated_record(tmp_path / "old.record.txt").metadata == old_metadata


def test_each_run_fact_is_stated_once(artifact_chain):
    # a trace's metadata holds only what no other header line or column
    # states, and a record's grid step lives in its '# grid_step' alone;
    # the record and the report carry the trace's metadata unchanged
    trace = read_trace(artifact_chain / "scan.txt")
    record = read_calibrated_record(artifact_chain / "cal.record.txt")
    report = read_json_document(artifact_chain / "report.json")
    assert sorted(trace.metadata) == ["noise_seed", "poisson", "stage_seed"]
    assert "grid_step" not in record.quality
    assert record.metadata == trace.metadata
    assert report["metadata"] == trace.metadata


def test_simulate_default_config_is_full_size(tmp_path):
    out = tmp_path / "default.txt"
    assert main(["simulate", "--output", str(out)]) == 0
    trace = read_trace(out)
    assert trace.n_samples == 60000
    assert trace.reported_d[0] == 0.0
    # half-open range: last sample one 5 nm step short of 300 um
    assert trace.reported_d[-1] == pytest.approx(300e-6 - 5e-9, abs=1e-15)


def test_simulate_rejects_invalid_config(tmp_path, capsys):
    raw = copy.deepcopy(DEFAULT_CONFIG)
    raw["sample"]["surfaces"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(bad),
                 "--output", str(tmp_path / "x.txt")]) == 1
    assert "sample.surfaces" in capsys.readouterr().err


def test_simulate_rejects_non_text_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(bytes(range(128, 256)))
    assert main(["simulate", "--config", str(bad),
                 "--output", str(tmp_path / "x.txt")]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert "bad.json: not valid JSON" in err


@pytest.mark.parametrize("section, field, value", [
    ("stage", "velocity_nm_per_s", float("nan")),
    ("scan", "stop_um", float("inf")),
    ("pipeline", "grid_step_nm", float("nan")),
])
def test_simulate_rejects_non_finite_config_numbers(tmp_path, capsys, section, field, value):
    # json reads NaN and Infinity; both are refused before a trace is written
    raw = copy.deepcopy(DEFAULT_CONFIG)
    raw[section][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    out = tmp_path / "x.txt"
    assert main(["simulate", "--config", str(bad), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert f"{section}.{field} must be a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("filter_num_taps", 2000),
    ("filter_relative_bandwidth", 1.5),
])
def test_simulate_rejects_bad_filter_settings(tmp_path, capsys, field, value):
    # the carrier filter is checked at load, before a trace is written
    bad = config_file(tmp_path, "bad.json", pipeline={field: value})
    out = tmp_path / "x.txt"
    assert main(["simulate", "--config", str(bad), "--output", str(out)]) == 1
    assert f"pipeline.{field}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg = config_file(tmp_path, noise=True, identity=False)
    a, b, c = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
    assert main(["simulate", "--config", str(cfg), "--output", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--output", str(b)]) == 0
    assert main(["simulate", "--config", str(cfg), "--output", str(c),
                 "--seed", "7"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_calibrate_identity_correction_is_flat(artifact_chain):
    table = read_calibration_table(artifact_chain / "cal.calibration.txt")
    correction = table.calibrated - table.reported
    spread = np.max(correction) - np.min(correction)
    assert spread < 0.5e-9


def test_calibrated_record_is_uniform(artifact_chain):
    record = read_calibrated_record(artifact_chain / "cal.record.txt")
    steps = np.diff(record.positions)
    assert np.allclose(steps, record.grid_step, rtol=1e-9)


def test_measure_report_recovers_separation(artifact_chain):
    report = read_json_document(artifact_chain / "report.json")
    peaks = report["peaks"]
    assert len(peaks) == 1
    assert abs(peaks[0]["separation_m"] - 60e-6) < 1e-9
    assert peaks[0]["outlier"] is False


def test_scan_far_along_the_stage_calibrates_and_measures(tmp_path):
    # 20 cm along the stage float rounding alone moves a resampled grid step
    # by more than 1e-9 of grid_step; the record must still be written and read
    raw = copy.deepcopy(DEFAULT_CONFIG)
    raw["sample"]["surfaces"] = [{"reflectivity": 0.6, "position_um": z}
                                 for z in (200009.886, 200290.114)]
    raw["scan"] = {"start_um": 200000.0, "stop_um": 200300.0}
    cfg = tmp_path / "fs.json"
    cfg.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "fs.txt")]) == 0
    assert main(["calibrate", str(tmp_path / "fs.txt"), "--output", str(tmp_path / "fs")]) == 0
    record = read_calibrated_record(tmp_path / "fs.record.txt")
    assert np.abs(np.diff(record.positions) - record.grid_step).max() > 1e-9 * record.grid_step
    assert main(["measure", str(tmp_path / "fs.record.txt"),
                 "--output", str(tmp_path / "fs.report.json")]) == 0
    peaks = read_json_document(tmp_path / "fs.report.json")["peaks"]
    assert len(peaks) == 1
    assert abs(peaks[0]["separation_m"] - 280.228e-6) < 5e-9


def test_measure_rerun_is_identical(artifact_chain, tmp_path):
    again = tmp_path / "again.json"
    assert main(["measure", str(artifact_chain / "cal.record.txt"),
                 "--output", str(again)]) == 0
    assert again.read_bytes() == (artifact_chain / "report.json").read_bytes()


def test_measure_insufficient_peaks_is_quality_failure(tmp_path, capsys):
    cfg = config_file(tmp_path, surfaces=((0.6, 60.0),))
    trace_path = tmp_path / "single.txt"
    assert main(["simulate", "--config", str(cfg),
                 "--output", str(trace_path)]) == 0
    assert main(["calibrate", str(trace_path),
                 "--output", str(tmp_path / "single")]) == 0
    code = main(["measure", str(tmp_path / "single.record.txt"),
                 "--output", str(tmp_path / "r.json")])
    assert code == 2
    assert "quality" in capsys.readouterr().err


PAYLOAD_LINE = b"# payload float64-le\n"


def split_table(path):
    """A table file's header lines (text) and its payload (bytes)."""
    data = path.read_bytes()
    cut = data.index(PAYLOAD_LINE) + len(PAYLOAD_LINE)
    return data[:cut].decode().splitlines(), data[cut:]


def with_header(source, dest, key, value):
    """Copy a table file with its '# key' value replaced; returns that line's number."""
    lines, payload = split_table(source)
    index = next(i for i, l in enumerate(lines) if l.startswith(f"# {key} "))
    lines[index] = f"# {key} {value}"
    dest.write_bytes(("\n".join(lines) + "\n").encode() + payload)
    return index + 1


def test_calibrate_truncated_trace_names_line(artifact_chain, tmp_path, capsys):
    broken = tmp_path / "broken.txt"
    broken.write_bytes((artifact_chain / "scan.txt").read_bytes()[:-400])
    code = main(["calibrate", str(broken), "--output", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "parse error" in err
    lines, payload = split_table(broken)
    rows_line = next(i for i, l in enumerate(lines, start=1) if l.startswith("# rows "))
    assert (f"line {rows_line}: 24000 rows of 3 columns need {24000 * 24} payload bytes, "
            f"file has {len(payload)}") in err


@pytest.mark.parametrize("rows", [0, 1])
def test_short_inputs_fail_with_their_length(tmp_path, capsys, monkeypatch, rows):
    # the length is checked before any arithmetic on the samples
    def refuse(*args, **kwargs):
        raise AssertionError("a too short input reached its FFT")

    monkeypatch.setattr(calibration, "design_bandpass", refuse)
    monkeypatch.setattr(calibration, "_filtered_spectrum", refuse)
    monkeypatch.setattr(measure, "rfft", refuse)
    config = load_config(config_file(tmp_path))
    ones, axis = np.ones(rows), np.arange(rows) * 5e-9
    trace_path, record_path = tmp_path / "scan.txt", tmp_path / "run.record.txt"
    tracefile.write_trace(ScanTrace(reported_d=axis, intensity=ones, coincidence=ones,
                                    spacing=5e-9), trace_path, config=config)
    tracefile.write_calibrated_record(CalibratedRecord(positions=axis, intensity=ones,
                                                       grid_step=5e-9),
                                      record_path, config=config)
    capsys.readouterr()
    assert main(["calibrate", str(trace_path), "--output", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        f"qolcr: quality failure: trace of {rows} samples shorter than the filter "
        f"edge exclusion of 2 x 1000\n")
    assert main(["measure", str(record_path), "--output", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == (
        f"qolcr: quality failure: record of {rows} samples too short "
        f"to autocorrelate\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "run.record.txt", "scan.txt"]


def test_measure_on_a_flat_record_is_quality_failure(tmp_path, capsys):
    # a record with no fringes fails as the data's fault, as calibrate's
    # checks on a trace do, not as a configuration error
    config = load_config(config_file(tmp_path))
    record_path = tmp_path / "flat.record.txt"
    tracefile.write_calibrated_record(CalibratedRecord(positions=np.arange(4000) * 5e-9,
                                                       intensity=np.full(4000, 7.0),
                                                       grid_step=5e-9),
                                      record_path, config=config)
    capsys.readouterr()
    assert main(["measure", str(record_path), "--output", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == "qolcr: quality failure: record has zero variance\n"
    assert not (tmp_path / "r.json").exists()


def test_measure_rejects_non_finite_record(artifact_chain, tmp_path, capsys):
    lines, payload = split_table(artifact_chain / "cal.record.txt")
    values = np.frombuffer(payload, "<f8").reshape(2, -1).copy()
    values[1, 100] = np.nan     # intensity, row 100
    broken = tmp_path / "nan.record.txt"
    broken.write_bytes(("\n".join(lines) + "\n").encode() + values.tobytes())
    code = main(["measure", str(broken), "--output", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "parse error" in err
    assert "column intensity contains non-finite values (first at row 100)" in err
    assert not (tmp_path / "r.json").exists()


def test_measure_on_a_record_off_its_grid_step_names_file_and_row(artifact_chain,
                                                                  tmp_path, capsys):
    lines, payload = split_table(artifact_chain / "cal.record.txt")
    grid_step = float(next(l for l in lines if l.startswith("# grid_step ")).split()[2])
    values = np.frombuffer(payload, "<f8").reshape(2, -1).copy()
    values[0, 100] += 1e-12     # position_m, row 100
    broken = tmp_path / "bad.record.txt"
    broken.write_bytes(("\n".join(lines) + "\n").encode() + values.tobytes())
    assert main(["measure", str(broken), "--output", str(tmp_path / "r.json")]) == 1
    step = float(values[0, 100] - values[0, 99])
    assert capsys.readouterr().err == (
        f"qolcr: parse error: {broken}: position_m must be strictly increasing in steps "
        f"of '# grid_step' {grid_step!r}; the step is {step!r} (first fault at row 100)\n")
    assert list(tmp_path.iterdir()) == [broken]


@pytest.mark.parametrize("count", ["-1", "1000000000000"])
def test_calibrate_bad_row_count_is_parse_error(artifact_chain, tmp_path, capsys, count):
    broken = tmp_path / "scan.txt"
    with_header(artifact_chain / "scan.txt", broken, "rows", count)
    code = main(["calibrate", str(broken), "--output", str(tmp_path / "x")])
    assert code == 1
    assert "parse error" in capsys.readouterr().err
    assert not (tmp_path / "x.record.txt").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-5e-9"])
@pytest.mark.parametrize("command, artifact, key", [
    ("calibrate", "scan.txt", "spacing"),
    ("measure", "cal.record.txt", "grid_step"),
])
def test_bad_scalar_header_is_parse_error(artifact_chain, tmp_path, capsys,
                                          command, artifact, key, value):
    broken = tmp_path / artifact
    line = with_header(artifact_chain / artifact, broken, key, value)
    code = main([command, str(broken), "--output", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "parse error" in err
    assert f"line {line}: '# {key}'" in err
    assert list(tmp_path.iterdir()) == [broken]


@pytest.mark.parametrize("value", ["2.5e-09", "1e-08"])
def test_spacing_header_that_the_axis_does_not_step_by_is_parse_error(
        artifact_chain, tmp_path, capsys, value):
    # the band-pass is designed for the header spacing: calibrating with
    # half the true step would report half the separation
    step = float(np.diff(read_trace(artifact_chain / "scan.txt").reported_d[:2])[0])
    broken = tmp_path / "scan.txt"
    with_header(artifact_chain / "scan.txt", broken, "spacing", value)
    assert main(["calibrate", str(broken), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"qolcr: parse error: {broken}: reported_d must be strictly increasing in steps "
        f"of '# spacing' {value}; the step is {step!r} (first fault at row 1)\n")
    assert list(tmp_path.iterdir()) == [broken]


# (input file content, words the parse error must hold)
NOT_AN_ARTIFACT = {
    "non-utf-8 junk": (bytes(range(128, 256)) * 8, "line 1: not a qolcr-"),
    "version 1 trace": (b"# qolcr-trace 1\n# spacing 5e-09\n# rows 0\n",
                        "line 1: qolcr-trace version 1 is not supported"),
}


@pytest.mark.parametrize("kind", sorted(NOT_AN_ARTIFACT))
@pytest.mark.parametrize("command", ["calibrate", "measure"])
def test_non_artifact_input_is_parse_error(tmp_path, capsys, command, kind):
    content, words = NOT_AN_ARTIFACT[kind]
    junk = tmp_path / "junk.txt"
    junk.write_bytes(content)
    code = main([command, str(junk), "--output", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "parse error" in err
    assert words in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [junk]


def test_missing_input_is_io_error(tmp_path, capsys):
    code = main(["calibrate", str(tmp_path / "absent.txt"),
                 "--output", str(tmp_path / "x")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_measure_needs_config_source(tmp_path, capsys):
    from qolcr.calibration import CalibratedRecord
    from qolcr.tracefile import write_calibrated_record

    record = CalibratedRecord(
        positions=np.arange(1000) * 5e-9,
        intensity=np.ones(1000),
        grid_step=5e-9,
    )
    path = tmp_path / "bare_record.txt"
    write_calibrated_record(record, path)
    code = main(["measure", str(path), "--output", str(tmp_path / "r.json")])
    assert code == 1
    assert "embedded config" in capsys.readouterr().err


@pytest.mark.parametrize("command, artifact", [
    ("calibrate", "scan.txt"),
    ("measure", "cal.record.txt"),
])
def test_invalid_embedded_config_names_its_file(artifact_chain, tmp_path, capsys,
                                                command, artifact):
    lines, payload = split_table(artifact_chain / artifact)
    index = next(i for i, l in enumerate(lines) if l.startswith("# config "))
    lines[index] = lines[index].replace('"expected_peaks": 1', '"expected_peaks": 0')
    broken = tmp_path / artifact
    broken.write_bytes(("\n".join(lines) + "\n").encode() + payload)
    out = tmp_path / "out"
    code = main([command, str(broken), "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"qolcr: invalid configuration: the config embedded in {broken} "
                          "is invalid (pipeline.expected_peaks must be at least 1); "
                          "--config overrides it")
    assert list(tmp_path.iterdir()) == [broken]
    bundled = Path(__file__).resolve().parents[1] / "configs" / "default.json"
    assert main([command, str(broken), "--config", str(bundled), "--output", str(out)]) == 0


def test_trace_naming_the_retired_config_fields_calibrates(artifact_chain, tmp_path):
    # tables written before spectrum.total_power and pipeline.phase_method were
    # removed name both in their '# config'; the fields are read and dropped
    lines, payload = split_table(artifact_chain / "scan.txt")
    index = next(i for i, l in enumerate(lines) if l.startswith("# config "))
    raw = json.loads(lines[index][len("# config "):])
    raw["spectrum"]["total_power"] = 1.0e6
    raw["pipeline"]["phase_method"] = "crossings"
    lines[index] = "# config " + json.dumps(raw, sort_keys=True)
    old = tmp_path / "old.txt"
    old.write_bytes(("\n".join(lines) + "\n").encode() + payload)
    assert main(["calibrate", str(old), "--output", str(tmp_path / "old")]) == 0
    for suffix in ("calibration.txt", "record.txt"):
        assert ((tmp_path / f"old.{suffix}").read_bytes()
                == (artifact_chain / f"cal.{suffix}").read_bytes()), suffix


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as err:
        main(["repeat"])    # --output is required
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


def test_repeat_command_smoke(tmp_path, capsys):
    cfg = config_file(tmp_path)
    prefix = tmp_path / "rep"
    assert main(["repeat", "--config", str(cfg), "--runs", "2",
                 "--output", str(prefix)]) == 0
    printed = capsys.readouterr().out
    assert "std_dev" in printed
    doc = read_json_document(tmp_path / "rep.results.json")
    assert doc["summary"]["n_runs"] == 2
    assert doc["summary"]["included_count"] == 2
    assert doc["summary"]["std_convention"] == "sample (n-1)"
    plot = np.loadtxt(tmp_path / "rep.separations.txt")
    assert plot.shape == (2, 2)
    assert np.allclose(plot[:, 1], 60.0, atol=1e-3)

    forced = tmp_path / "forced"
    assert main(["repeat", "--config", str(cfg), "--runs", "3",
                 "--force-ambiguity", "1", "--output", str(forced)]) == 0
    doc = read_json_document(tmp_path / "forced.results.json")
    assert doc["summary"]["outlier_count"] == 1
    assert [e["outlier"] for e in doc["seed_ledger"]] == [False, True, False]
    assert [e["forced_ambiguity"] for e in doc["seed_ledger"]] == [False, True, False]
    capsys.readouterr()
    assert main(["repeat", "--config", str(cfg), "--runs", "3",
                 "--force-ambiguity", "9", "--output", str(forced)]) == 1
    assert "out of range" in capsys.readouterr().err


def test_repeat_with_one_included_run_exits_2(tmp_path, capsys):
    # with one of two runs flagged there is no spread to report
    cfg = config_file(tmp_path)
    assert main(["repeat", "--config", str(cfg), "--runs", "2",
                 "--force-ambiguity", "1", "--output", str(tmp_path / "rep")]) == 2
    captured = capsys.readouterr()
    assert "std_dev" not in captured.out
    assert "1 included run(s); a spread needs at least 2" in captured.err
    summary = read_json_document(tmp_path / "rep.results.json")["summary"]
    assert summary["included_count"] == 1
    assert summary["std_dev_m"] is None


@pytest.mark.parametrize("step_size", ["nan", "inf"])
def test_linearity_rejects_a_non_finite_step_size(tmp_path, capsys, step_size):
    cfg = config_file(tmp_path)
    assert main(["linearity", "--config", str(cfg), "--steps", "2",
                 "--step-size", step_size, "--output", str(tmp_path / "lin")]) == 1
    err = capsys.readouterr().err
    assert f"linearity step must be finite and positive, got {step_size}" in err
    assert not (tmp_path / "lin.results.json").exists()


def test_linearity_command_smoke(tmp_path, capsys):
    cfg = config_file(tmp_path)
    prefix = tmp_path / "lin"
    assert main(["linearity", "--config", str(cfg), "--steps", "2",
                 "--step-size", "50", "--output", str(prefix)]) == 0
    printed = capsys.readouterr().out
    assert "max |deviation|" in printed
    doc = read_json_document(tmp_path / "lin.results.json")
    assert doc["step_size_m"] == pytest.approx(50e-9)
    assert doc["max_abs_deviation_m"] < 0.5e-9
    dev = np.loadtxt(tmp_path / "lin.deviations.txt")
    assert dev.shape == (2, 2)
    measured = np.loadtxt(tmp_path / "lin.measured.txt")
    assert measured[0, 1] == pytest.approx(60.0, abs=1e-4)
    assert measured[1, 1] == pytest.approx(59.95, abs=1e-4)


def test_grid_step_override_changes_record(tmp_path):
    cfg = config_file(tmp_path)
    coarse = config_file(tmp_path, "coarse.json", pipeline={"grid_step_nm": 10.0})
    trace_path = tmp_path / "scan.txt"
    assert main(["simulate", "--config", str(cfg),
                 "--output", str(trace_path)]) == 0
    assert main(["calibrate", str(trace_path), "--config", str(coarse),
                 "--output", str(tmp_path / "coarse")]) == 0
    record = read_calibrated_record(tmp_path / "coarse.record.txt")
    assert record.grid_step == pytest.approx(10e-9)


@pytest.mark.parametrize("command", [["repeat", "--runs", "2"], ["linearity", "--steps", "2"]])
def test_batch_commands_reject_zero_expected_peaks(tmp_path, capsys, command):
    # each run records one separation: none or several is a config error
    for expected_peaks in (0, 3):
        cfg = config_file(tmp_path, pipeline={"expected_peaks": expected_peaks})
        code = main([*command, "--config", str(cfg), "--output", str(tmp_path / "b")])
        assert code == 1
        assert "pipeline.expected_peaks" in capsys.readouterr().err


def test_cli_freezes_the_heap_at_exit():
    # a command's exit then skips finalization's GC traversal of scipy's objects
    probe = ("import atexit, gc, qolcr.cli; atexit._run_exitfuncs(); "
             "print(gc.get_freeze_count())")
    proc = subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, capture_output=True,
                          text=True, check=True, timeout=60)
    assert int(proc.stdout) > 0


def test_command_process_loses_no_output_at_exit(tmp_path):
    out = tmp_path / "scan.txt"
    proc = subprocess.run([sys.executable, "-m", "qolcr.cli", "simulate",
                           "--config", str(config_file(tmp_path)), "--output", str(out)],
                          env=SRC_ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    wrote, seeds = proc.stdout.splitlines()
    assert wrote.startswith(f"wrote {out}: 24000 samples")
    assert seeds.startswith("stage seed ")
    assert read_trace(out).n_samples == 24000
