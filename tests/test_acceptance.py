"""Acceptance gate: one test per top-level requirement of the pipeline.

Each test pins its tolerance and wall-clock budget.  End-to-end targets
exercise the reference protocol (70-run spread, two linearity sweeps, a
280.228 um two-surface sample); oracle targets compare two independent
computations of the same quantity.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from qolcr.calibration import (
    CalibratedRecord,
    design_bandpass,
    extract_phase,
    extract_tpi,
    zero_phase_apply,
)
from qolcr.config import DEFAULT_CONFIG, default_config, parse_config
from qolcr.experiments import (
    calibrate_trace,
    linearity_experiment,
    repeatability_experiment,
    run_pipeline,
    synthesize,
)
from qolcr.measure import autocorrelate, estimate_separations
from qolcr.model import coherence_envelope, spectrum_density


def config_variant(identity_stage=False, noise=True):
    raw = copy.deepcopy(DEFAULT_CONFIG)
    if identity_stage:
        raw["stage"].update(scale_error=0.0, periodic_amplitude_nm=0.0,
                            drift_step_nm=0.0)
    if not noise:
        raw["noise"]["enabled"] = False
    return parse_config(raw)


def true_separation(config) -> float:
    positions = config.sample.positions
    return float(positions[-1] - positions[0])


def test_01_noise_free_end_to_end_exactness():
    # identity stage, no counting noise, surfaces 280.228 um apart:
    # recovered separation within 0.1 nm, under 10 s
    t0 = time.perf_counter()
    config = config_variant(identity_stage=True, noise=False)
    report = run_pipeline(config)
    elapsed = time.perf_counter() - t0
    assert abs(report.separations[0] - true_separation(config)) < 0.1e-9
    assert elapsed < 10.0


def test_02_calibration_round_trip_under_distortion():
    # scale error 1e-3 + 100 nm / 50 um sinusoid + smoothed random walk,
    # no counting noise: calibrated knots match true positions up to a
    # constant with RMS < 1 nm, under 10 s
    t0 = time.perf_counter()
    config = config_variant(identity_stage=False, noise=False)
    trace = synthesize(config)
    calibration, _ = calibrate_trace(config, trace)
    knot_idx = np.searchsorted(trace.reported_d, calibration.reported)
    residual = calibration.calibrated - trace.truth.true_d[knot_idx]
    residual -= residual.mean()
    rms = float(np.sqrt(np.mean(residual ** 2)))
    elapsed = time.perf_counter() - t0
    # the injected distortion itself is far larger than the tolerance
    raw_error = trace.truth.true_d[knot_idx] - calibration.reported
    assert np.max(np.abs(raw_error - raw_error.mean())) > 50e-9
    assert rms < 1e-9
    assert elapsed < 10.0


def test_03_repeatability_seventy_runs():
    # default noisy configuration, 70 seeded runs with 4 forced
    # fringe-ambiguity outliers: outliers flagged and excluded, std of the
    # remaining estimates <= 3 nm, under 5 min
    t0 = time.perf_counter()
    config = default_config()
    forced = (7, 23, 41, 58)
    result = repeatability_experiment(config, n_runs=70,
                                      force_ambiguity_runs=forced)
    elapsed = time.perf_counter() - t0
    assert result.n_runs == 70
    assert not result.failures
    assert result.outlier_count == len(forced)
    assert result.included_count == 70 - len(forced)
    for entry in result.seed_ledger:
        assert entry["outlier"] is (entry["run"] in forced)
    assert result.std_dev <= 3e-9
    assert elapsed < 300.0


def test_04_linearity_fine_and_coarse_sweeps():
    # 10 steps of 5 nm and 10 steps of 2025 nm at default noise: max
    # absolute deviation from the unit-slope line < 6 nm in both sweeps,
    # under 5 min
    t0 = time.perf_counter()
    config = default_config()
    for step in (5e-9, 2025e-9):
        result = linearity_experiment(config, step=step, n_steps=10)
        assert not result.failures
        assert result.max_abs_deviation < 6e-9, f"step {step}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0


def test_05_spectral_envelope_oracle():
    # analytic Gaussian envelope vs direct numeric inverse transform of
    # the sampled density: peak-relative agreement 1e-9 over +/-5
    # coherence times, under 1 s
    t0 = time.perf_counter()
    spectrum = default_config().spectrum
    sigma = spectrum.sigma
    omega = np.linspace(-12.0 * sigma, 12.0 * sigma, 4096)
    domega = omega[1] - omega[0]
    tau = np.linspace(-5.0 * spectrum.coherence_time,
                      5.0 * spectrum.coherence_time, 801)
    density = spectrum_density(spectrum, omega)
    numeric = (density * np.exp(-1j * np.outer(tau, omega))).sum(axis=1) \
        * domega / (2.0 * np.pi)
    analytic = coherence_envelope(spectrum, tau)
    peak = float(np.abs(analytic).max())
    rel = np.max(np.abs(numeric - analytic)) / peak
    elapsed = time.perf_counter() - t0
    assert rel < 1e-9
    assert elapsed < 1.0


def test_06_autocorrelation_oracle():
    # spectral autocorrelation equals the direct O(N^2) lag sum within
    # 1e-10 on a 4096-sample record, under 5 s
    t0 = time.perf_counter()
    n = 4096
    grid = 5e-9
    rng = np.random.default_rng(20260814)
    d = np.arange(n) * grid
    signal = np.full(n, 5000.0)
    for z in (3e-6, 15e-6):
        envelope = np.exp(-((d - z) ** 2) / (2 * (1.2e-6) ** 2))
        signal += 2000.0 * envelope * np.cos(4 * np.pi * (d - z) / 810e-9)
    record = CalibratedRecord(positions=d,
                              intensity=rng.poisson(signal).astype(float),
                              grid_step=grid)
    acorr = autocorrelate(record)
    x = record.intensity - record.intensity.mean()
    direct = np.array([np.dot(x[: n - k], x[k:]) for k in range(n - 256 + 1)])
    direct /= direct[0]
    spectral = acorr.values
    elapsed = time.perf_counter() - t0
    assert spectral.shape == direct.shape
    assert np.max(np.abs(spectral - direct)) < 1e-10
    assert elapsed < 5.0


def test_07_tpi_frequency_matches_pump():
    # the extracted coincidence carrier oscillates at 2 / pump wavelength
    # against true position within 1e-4 relative, on a default noisy scan,
    # under 10 s
    t0 = time.perf_counter()
    config = default_config()
    trace = synthesize(config)
    carrier = extract_tpi(trace, config.pipeline.bandpass)
    phase = extract_phase(carrier)
    use = phase.quality_mask
    slope = np.polyfit(trace.truth.true_d[use], phase.unwrapped_phase[use], 1)[0]
    measured_frequency = abs(slope) / (2.0 * np.pi)    # cycles per meter
    expected = 2.0 / config.pump.wavelength
    elapsed = time.perf_counter() - t0
    assert abs(measured_frequency - expected) / expected < 1e-4
    assert elapsed < 10.0


def test_08_invariance_suite():
    # separation estimates: exactly unchanged under power-of-two amplitude
    # scaling, and to 1e-12 m under arbitrary scaling, DC offset, and
    # record reversal; the zero-phase filter is linear to float precision;
    # under 30 s
    t0 = time.perf_counter()
    config = default_config()
    trace = synthesize(config)
    _, record = calibrate_trace(config, trace)

    def separations(intensity):
        probe = copy.copy(record)
        probe.intensity = intensity
        return estimate_separations(autocorrelate(probe), 1).separations

    base = separations(record.intensity)
    assert separations(record.intensity * 2.0) == base
    for transformed in (
        separations(record.intensity * 1.7),
        separations(record.intensity + 1.0e4),
        separations(record.intensity[::-1].copy()),
    ):
        assert np.max(np.abs(np.asarray(transformed) - np.asarray(base))) < 1e-12

    taps = design_bandpass(config.pipeline.bandpass, record.grid_step)
    rng = np.random.default_rng(7)
    x = rng.normal(size=20000)
    y = rng.normal(size=20000)
    combined = zero_phase_apply(taps, 2.5 * x - 0.75 * y)
    separate = 2.5 * zero_phase_apply(taps, x) - 0.75 * zero_phase_apply(taps, y)
    scale = np.max(np.abs(separate))
    assert np.max(np.abs(combined - separate)) < 1e-12 * scale
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
