"""End-to-end pipeline orchestration: repeatability and linearity experiments."""

from __future__ import annotations

import copy
import json
from dataclasses import fields

import numpy as np
import pytest

from qolcr import experiments
from qolcr.calibration import resample_intensity
from qolcr.config import DEFAULT_CONFIG, default_config, parse_config
from qolcr.errors import ConfigError, PipelineQualityError
from qolcr.experiments import (
    RepeatabilityResult,
    calibrate_trace,
    linearity_experiment,
    measure_record,
    repeatability_experiment,
    run_pipeline,
    synthesize,
)
from qolcr.measure import autocorrelate, estimate_separations
from qolcr.model import NoiseModel, StageModel

TRUE_SEPARATION = 290.114e-6 - 9.886e-6


def make_config(identity_stage=True, noise=False, **pipeline):
    raw = copy.deepcopy(DEFAULT_CONFIG)
    if identity_stage:
        raw["stage"].update(
            scale_error=0.0,
            periodic_amplitude_nm=0.0,
            drift_step_nm=0.0,
        )
    if not noise:
        raw["noise"]["enabled"] = False
    if pipeline:
        raw["pipeline"].update(pipeline)
    return parse_config(raw)


@pytest.fixture(scope="module")
def clean_config():
    return make_config()


@pytest.fixture(scope="module")
def clean_repeat(clean_config):
    return repeatability_experiment(clean_config, n_runs=4)


def test_single_run_recovers_separation(clean_config):
    report = run_pipeline(clean_config)
    assert len(report.separations) == 1
    assert abs(report.separations[0] - TRUE_SEPARATION) < 0.1e-9


def test_default_stage_without_noise_reads_within_a_tenth_of_a_nm():
    # the distorted default stage with counting noise off: the calibration's edge
    # exclusion no longer reaches into the first surface's packet, so no bias is
    # left (the 2001-tap filter it replaced read 0.65 nm short)
    report = run_pipeline(make_config(identity_stage=False))
    assert abs(report.separations[0] - TRUE_SEPARATION) <= 0.1e-9


@pytest.mark.parametrize("scale_error", [0.02, 0.05, 0.08])
def test_scale_error_without_noise_reads_within_a_tenth_of_a_nm(scale_error):
    # the band centres on the carrier wherever a scale error puts it; centred on
    # 2 / lambda_p it read +0.003, +0.890 and -4.003 nm off (the 2001-tap filter
    # before it read -0.344, -0.265 and -0.369 nm)
    raw = copy.deepcopy(DEFAULT_CONFIG)
    raw["noise"]["enabled"] = False
    raw["stage"]["scale_error"] = scale_error
    report = run_pipeline(parse_config(raw))
    assert abs(report.separations[0] - TRUE_SEPARATION) <= 0.1e-9


@pytest.mark.parametrize("scale_error", [0.001, 0.02, 0.05])
def test_calibration_map_holds_at_the_end_knots_under_a_scale_error(scale_error):
    # a stage with only a scale error and no noise: map minus truth, anchored at
    # the midpoint, stays within 0.1 nm at every knot, the first and last ones
    # too (with the band centred on 2 / lambda_p they read -2.15 and +2.14 nm at
    # 0.02; the largest, 0.066 nm, is a few knots in from the first at each
    # scale error)
    raw = copy.deepcopy(DEFAULT_CONFIG)
    raw["noise"]["enabled"] = False
    raw["stage"].update(scale_error=scale_error, periodic_amplitude_nm=0.0, drift_step_nm=0.0)
    cfg = parse_config(raw)
    trace = synthesize(cfg)
    calibration, _ = calibrate_trace(cfg, trace)
    knots = np.searchsorted(trace.reported_d, calibration.reported)
    error = calibration.calibrated - trace.truth.true_d[knots]
    error -= error[len(error) // 2]
    assert np.abs(error).max() <= 0.1e-9


def test_per_run_state_is_attached_once_by_the_pipeline_layer():
    # the instrument models hold no seed, and each stage returns only its own
    # figures: synthesize passes the run's seeds, calibrate_trace and
    # measure_record attach the upstream metadata and quality
    cfg = default_config()
    assert not {"seed"} & {f.name for model in (StageModel, NoiseModel) for f in fields(model)}
    trace = synthesize(cfg, 2)
    assert (trace.metadata["stage_seed"], trace.metadata["noise_seed"]) == cfg.seeds_for_run(2)

    calibration, record = calibrate_trace(cfg, trace)
    own = resample_intensity(trace, calibration, grid_step=cfg.pipeline.grid_step)
    assert own.metadata == {}
    assert set(own.quality) == {"extrapolated_fraction"}
    acorr = autocorrelate(record)
    assert not hasattr(acorr, "metadata") and not hasattr(acorr, "quality")
    search = estimate_separations(acorr, cfg.pipeline.expected_peaks)
    assert search.metadata == {}
    assert set(search.quality) == {"cluster_search"}

    report = measure_record(cfg, record)
    assert record.metadata == report.metadata == trace.metadata
    assert record.metadata is not trace.metadata and report.metadata is not record.metadata
    assert record.quality == {**calibration.quality, **own.quality}
    assert report.quality == {**record.quality, **search.quality}
    assert list(report.quality) == [*calibration.quality, "extrapolated_fraction",
                                    "cluster_search"]


def test_noise_free_repeatability_is_exact(clean_repeat):
    res = clean_repeat
    assert res.n_runs == 4
    assert res.outlier_count == 0
    assert not res.failures
    assert len(res.estimates) == 4
    assert res.std_dev < 0.1e-9
    for est in res.estimates:
        assert abs(est - TRUE_SEPARATION) < 0.1e-9


def test_seed_ledger_bookkeeping(clean_config, clean_repeat):
    ledger = clean_repeat.seed_ledger
    assert [entry["run"] for entry in ledger] == [0, 1, 2, 3]
    for entry in ledger:
        stage_seed, noise_seed = clean_config.seeds_for_run(entry["run"])
        assert entry["stage_seed"] == stage_seed
        assert entry["noise_seed"] == noise_seed
        assert entry["forced_ambiguity"] is False
        assert entry["outlier"] is False


def test_forced_ambiguity_runs_flagged_and_excluded(clean_config):
    res = repeatability_experiment(clean_config, n_runs=4, force_ambiguity_runs=(1, 3))
    assert res.outlier_count == 2
    assert len(res.estimates) == 2
    assert res.included_count == 2
    assert res.std_dev < 0.1e-9
    one_fringe = 810e-9 / 2
    for entry in res.seed_ledger:
        forced = entry["run"] in (1, 3)
        assert entry["forced_ambiguity"] is forced
        assert entry["outlier"] is forced
        if forced:
            miss = abs(entry["separation_m"] - TRUE_SEPARATION)
            assert abs(miss - one_fringe) < 5e-9


def test_repeatability_is_reproducible(clean_config):
    a = repeatability_experiment(clean_config, n_runs=2)
    b = repeatability_experiment(clean_config, n_runs=2)
    assert a.to_dict() == b.to_dict()
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_noisy_repeatability_within_budget():
    cfg = make_config(identity_stage=False, noise=True)
    res = repeatability_experiment(cfg, n_runs=4)
    assert res.outlier_count == 0
    assert not res.failures
    assert res.std_dev < 3e-9
    for est in res.estimates:
        assert abs(est - TRUE_SEPARATION) < 5e-9


def test_repeatability_rejects_bad_arguments(clean_config):
    with pytest.raises(ConfigError):
        repeatability_experiment(clean_config, n_runs=1)
    with pytest.raises(ConfigError):
        repeatability_experiment(clean_config, n_runs=3, force_ambiguity_runs=(5,))


def test_repeatability_needs_an_expected_peak():
    # each run records one separation, so expecting none or several is a
    # configuration error raised before any run
    for expected_peaks in (0, 3):
        with pytest.raises(ConfigError, match="pipeline.expected_peaks"):
            repeatability_experiment(make_config(expected_peaks=expected_peaks), n_runs=2)


def fail_runs(monkeypatch, indices):
    """Make run_pipeline raise a quality failure for the given run indices."""
    real = experiments.run_pipeline

    def run_pipeline(config, run_index=0, refinement_offset=0.0):
        if run_index in indices:
            raise PipelineQualityError(f"injected failure in run {run_index}")
        return real(config, run_index=run_index, refinement_offset=refinement_offset)

    monkeypatch.setattr(experiments, "run_pipeline", run_pipeline)


def test_repeatability_failed_run_is_kept_in_the_ledger(clean_config, monkeypatch):
    fail_runs(monkeypatch, {2})
    res = repeatability_experiment(clean_config, n_runs=4, force_ambiguity_runs=(1,))
    failed = res.seed_ledger[2]
    assert failed["error"] == "injected failure in run 2"
    assert "separation_m" not in failed and "outlier" not in failed
    assert res.failures == [failed]
    assert res.n_runs == 4
    assert res.outlier_count == 1
    assert res.included_count == 2
    assert res.estimates == [res.seed_ledger[0]["separation_m"],
                             res.seed_ledger[3]["separation_m"]]
    doc = json.loads(json.dumps(res.to_dict()))
    assert doc["seed_ledger"][2] == failed
    assert doc["summary"]["failure_count"] == 1
    assert doc["summary"]["included_count"] == 2
    assert doc["summary"]["outlier_count"] == 1
    assert doc["summary"]["mean_m"] == pytest.approx(TRUE_SEPARATION, abs=0.1e-9)
    assert set(doc) == {"seed_ledger", "summary"}
    assert set(doc["summary"]) == {
        "n_runs", "included_count", "outlier_count", "failure_count",
        "mean_m", "std_dev_m", "min_m", "max_m", "std_convention"}
    ledger, summary = doc["seed_ledger"], doc["summary"]
    # the summary counts are those of the ledger, which holds each run once
    assert summary["n_runs"] == len(ledger) == 4
    assert summary["included_count"] == sum(e.get("outlier") is False for e in ledger)
    assert summary["outlier_count"] == sum(e.get("outlier") is True for e in ledger)
    assert summary["failure_count"] == sum("error" in e for e in ledger)
    seeds = {"run", "stage_seed", "noise_seed", "forced_ambiguity"}
    assert set(ledger[2]) == seeds | {"error"}
    assert set(ledger[1]) == seeds | {"separation_m", "outlier"}
    assert ledger[1]["outlier"] is True


def test_linearity_noise_free_identity(clean_config):
    res = linearity_experiment(clean_config, step=50e-9, n_steps=3)
    assert res.step_size == 50e-9
    assert len(res.measured_separations) == 3
    assert not res.failures
    assert res.max_abs_deviation < 0.1e-9
    assert res.deviations[0] == 0.0
    # moving the first surface toward the second shortens the separation
    diffs = np.diff(res.measured_separations)
    assert np.all(np.abs(diffs + res.step_size) < 0.1e-9)


def test_linearity_commanded_positions(clean_config):
    res = linearity_experiment(clean_config, step=100e-9, n_steps=3)
    z1 = 9.886e-6
    expected = [z1, z1 + 100e-9, z1 + 200e-9]
    assert res.commanded_positions == pytest.approx(expected, abs=1e-15)


def test_linearity_deviations_invariant_under_global_shift(clean_config):
    # translate sample and scan window together by +5 um: identical relative
    # geometry, different absolute positions and carrier phases
    raw = copy.deepcopy(DEFAULT_CONFIG)
    raw["stage"].update(scale_error=0.0, periodic_amplitude_nm=0.0, drift_step_nm=0.0)
    raw["noise"]["enabled"] = False
    for surf in raw["sample"]["surfaces"]:
        surf["position_um"] += 5.0
    raw["scan"] = {"start_um": 5.0, "stop_um": 305.0}
    shifted_cfg = parse_config(raw)
    base = linearity_experiment(clean_config, step=50e-9, n_steps=3)
    moved = linearity_experiment(shifted_cfg, step=50e-9, n_steps=3)
    delta = np.asarray(base.deviations) - np.asarray(moved.deviations)
    assert np.max(np.abs(delta)) < 0.05e-9


def test_linearity_rejects_bad_arguments(clean_config):
    with pytest.raises(ConfigError):
        linearity_experiment(clean_config, step=0.0, n_steps=3)
    with pytest.raises(ConfigError):
        linearity_experiment(clean_config, step=50e-9, n_steps=1)
    with pytest.raises(ConfigError):
        # 10 steps of 20 um travel would crash the surfaces into each other
        linearity_experiment(clean_config, step=20e-6, n_steps=10)


def test_linearity_needs_an_expected_peak():
    for expected_peaks in (0, 3):
        with pytest.raises(ConfigError, match="pipeline.expected_peaks"):
            linearity_experiment(make_config(expected_peaks=expected_peaks),
                                 step=50e-9, n_steps=2)


def test_linearity_failed_step_is_null_and_baseline_moves(clean_config, monkeypatch):
    fail_runs(monkeypatch, {0})
    res = linearity_experiment(clean_config, step=50e-9, n_steps=3)
    z1 = clean_config.sample.surfaces[0].position
    assert res.failures == [{"step": 0, "commanded_position_m": z1,
                             "error": "injected failure in run 0"}]
    assert np.isnan(res.measured_separations[0])
    # the unit-slope line runs through the first finite step
    assert res.deviations[1] == 0.0
    assert abs(res.deviations[2]) < 0.1e-9
    assert res.max_abs_deviation == abs(res.deviations[2])
    doc = json.loads(json.dumps(res.to_dict()))
    assert doc["ledger"][0] == res.failures[0]
    assert [e["step"] for e in doc["ledger"]] == [0, 1, 2]
    assert set(doc) == {"step_size_m", "ledger", "max_abs_deviation_m"}
    for k in (1, 2):
        assert set(doc["ledger"][k]) == {
            "step", "commanded_position_m", "separation_m", "outlier", "deviation_m"}
    assert doc["max_abs_deviation_m"] == max(
        abs(e["deviation_m"]) for e in doc["ledger"] if "deviation_m" in e)
    assert res.commanded_positions == [e["commanded_position_m"] for e in doc["ledger"]]


def test_linearity_all_steps_failed_raises(clean_config, monkeypatch):
    fail_runs(monkeypatch, {0, 1})
    with pytest.raises(PipelineQualityError, match="0 of 2 linearity steps succeeded"):
        linearity_experiment(clean_config, step=50e-9, n_steps=2)


def test_linearity_one_surviving_step_raises(clean_config, monkeypatch):
    # a deviation from a line drawn through its only point is 0 by construction
    fail_runs(monkeypatch, {0, 2})
    with pytest.raises(PipelineQualityError, match="1 of 3 linearity steps succeeded"):
        linearity_experiment(clean_config, step=50e-9, n_steps=3)


def flag_runs(monkeypatch, indices):
    """Make run_pipeline shift the carrier refinement of the given runs by one fringe."""
    real = experiments.run_pipeline

    def run_pipeline(config, run_index=0, refinement_offset=0.0):
        if run_index in indices:
            refinement_offset = config.spectrum.center_wavelength / 2.0
        return real(config, run_index=run_index, refinement_offset=refinement_offset)

    monkeypatch.setattr(experiments, "run_pipeline", run_pipeline)


def test_linearity_flagged_step_keeps_its_separation_but_no_deviation(clean_config, monkeypatch):
    flag_runs(monkeypatch, {0})
    res = linearity_experiment(clean_config, step=50e-9, n_steps=3)
    flagged = res.ledger[0]
    assert flagged["outlier"] is True
    assert "deviation_m" not in flagged and not res.failures
    # the refinement landed one fringe (lambda0 / 2 of lag) above the truth
    one_fringe = clean_config.spectrum.center_wavelength / 2.0
    assert abs(flagged["separation_m"] - (TRUE_SEPARATION + one_fringe)) < 0.1e-9
    assert res.measured_separations[0] == flagged["separation_m"]
    # the unit-slope line runs through the first unflagged step, and the
    # flagged one neither sets it nor enters the deviations
    assert np.isnan(res.deviations[0])
    assert res.deviations[1] == 0.0
    assert abs(res.deviations[2]) < 0.1e-9
    assert res.max_abs_deviation == abs(res.deviations[2])
    assert [e["outlier"] for e in res.ledger] == [True, False, False]


def test_linearity_one_unflagged_step_raises(clean_config, monkeypatch):
    flag_runs(monkeypatch, {0, 2})
    with pytest.raises(PipelineQualityError,
                       match="1 of 3 linearity steps succeeded unflagged"):
        linearity_experiment(clean_config, step=50e-9, n_steps=3)


def test_linearity_to_dict_round_trip(clean_config):
    res = linearity_experiment(clean_config, step=50e-9, n_steps=2)
    doc = res.to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert doc["step_size_m"] == 50e-9
    assert [e["step"] for e in doc["ledger"]] == [0, 1]
    assert all("deviation_m" in e for e in doc["ledger"])


def ledger_of(estimates, outlier_count=0):
    """Ledger entries for included runs at the given separations, then outliers."""
    return ([{"separation_m": s, "outlier": False} for s in estimates]
            + [{"separation_m": 0.0, "outlier": True}] * outlier_count)


def summary_of(estimates, outlier_count=0):
    result = RepeatabilityResult(seed_ledger=ledger_of(estimates, outlier_count))
    return result.to_dict()["summary"]


def test_summarize_conventions():
    single = summary_of([1.0e-6])
    assert single["std_dev_m"] is None
    assert single["included_count"] == 1
    two = summary_of([100.0e-9, 102.0e-9])
    assert two["std_dev_m"] == pytest.approx(np.sqrt(2.0) * 1e-9, rel=1e-12)
    assert two["mean_m"] == pytest.approx(101.0e-9)
    assert two["min_m"] == 100.0e-9
    assert two["max_m"] == 102.0e-9
    assert two["std_convention"] == "sample (n-1)"
    stats = summary_of([1.0, 2.0, 3.0], outlier_count=2)
    assert stats["outlier_count"] == 2
    empty = summary_of([], outlier_count=2)
    assert empty["included_count"] == 0
    assert [empty[k] for k in ("mean_m", "std_dev_m", "min_m", "max_m")] == [None] * 4


def test_std_dev_follows_estimates():
    result = RepeatabilityResult(seed_ledger=ledger_of([100.0e-9, 102.0e-9, 104.0e-9]))
    assert result.std_dev == pytest.approx(2.0e-9, rel=1e-12)
    doc = result.to_dict()
    assert doc["summary"]["std_dev_m"] == result.std_dev
